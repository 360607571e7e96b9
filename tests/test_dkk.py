import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtri.dag import D1, D2, D3, G, bypass, dimension, make_dag, zigzag
from flowtri.dkk import (_swap_certificate, coherence_graph, dkk_triangulation,
                         exceptional_routes, max_cliques, verify_dkk_triangulation)
from flowtri.equatorial import _all_framings, framing_count
from flowtri.geometry import _mask, ehrhart_hstar, normalized_volume, verify_triangulation
from flowtri.routes import decomposition_framing, enumerate_routes, route_decomposition
from tests.conftest import (Complex, chain, conflict, corrupted, equatorial_flow_triangulation,
                            h_polynomial, members,
                            pairwise_coherence_masks, random_balanced_dag,
                            random_framing, route_unions, set_max_cliques, trimmed,
                            with_simplices)


def _decomp_framing(dag):
    return decomposition_framing(dag, route_decomposition(dag))


def test_conflict_d1():
    d1 = D1()
    fr = _decomp_framing(d1)
    assert conflict(d1, fr, ("a", "d"), ("b", "c"))
    assert not conflict(d1, fr, ("a", "c"), ("a", "d"))
    assert not conflict(d1, fr, ("a", "c"), ("b", "d"))


def _cliques(dag):
    return max_cliques(coherence_graph(dag, _decomp_framing(dag), enumerate_routes(dag)),
                       dimension(dag) + 1)


def test_cliques_d1():
    d1 = D1()
    routes = enumerate_routes(d1)
    cliques = _cliques(d1)
    named = {frozenset(routes[i] for i in c) for c in members(cliques)}
    assert named == {
        frozenset({("a", "c"), ("a", "d"), ("b", "d")}),
        frozenset({("a", "c"), ("b", "c"), ("b", "d")}),
    }


def test_exceptional_routes_d1():
    d1 = D1()
    tri = dkk_triangulation(d1, _decomp_framing(d1))
    assert set(exceptional_routes(tri)) == {
        ("a", "c"), ("b", "d")}


def test_cliques_d2():
    d2 = D2()
    cliques = _cliques(d2)
    assert len(cliques) == 6
    assert all(len(c) == 4 for c in members(cliques))


def test_coherence_graph_shape():
    d3 = D3()
    adj = coherence_graph(d3, _decomp_framing(d3), enumerate_routes(d3))
    assert len(adj) == 9
    assert all(isinstance(a, int) and 0 <= a < 1 << 9 for a in adj)
    assert all(not adj[i] >> i & 1 for i in range(9))
    assert all(adj[i] >> j & 1 == adj[j] >> i & 1 for i in range(9) for j in range(9))


def test_dkk_is_unimodular_triangulation():
    for dag in (D1(), D2(), D3()):
        tri = dkk_triangulation(dag, _decomp_framing(dag))
        rep = verify_triangulation(tri, dimension(dag), normalized_volume(dag))
        assert rep.ok, rep.issues


def test_dkk_h_matches_hstar_random():
    rng = random.Random(23)
    for _ in range(20):
        dag = random_balanced_dag(rng, max_edges=8)
        tri = dkk_triangulation(dag, _decomp_framing(dag))
        assert trimmed(h_polynomial(Complex(members(tri.simplices)))) == \
            trimmed(ehrhart_hstar(dag).h_star)


@pytest.mark.parametrize("dag", [D1(), D2(), D3(), zigzag()],
                         ids=["D1", "D2", "D3", "zigzag"])
def test_coherence_graph_matches_pairwise_oracle_every_framing(dag):
    routes = enumerate_routes(dag)
    for framing in _all_framings(dag):
        assert coherence_graph(dag, framing, routes) == \
            pairwise_coherence_masks(dag, framing, routes), framing


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_coherence_graph_and_cliques_match_oracles_random_framings(seed):
    rng = random.Random(seed)
    dag = random_balanced_dag(rng, max_edges=10)
    routes = enumerate_routes(dag)
    for _ in range(3):
        framing = random_framing(rng, dag)
        adj = coherence_graph(dag, framing, routes)
        assert adj == pairwise_coherence_masks(dag, framing, routes)
        cliques = members(max_cliques(adj, dimension(dag) + 1))
        assert list(cliques) == sorted(cliques)
        assert set(cliques) == set_max_cliques(adj)


def test_max_cliques_past_the_recursion_limit():
    k = sys.getrecursionlimit() + 10
    everyone = (1 << k) - 1
    assert members(max_cliques(tuple(everyone & ~(1 << i) for i in range(k)), k)) == \
        (tuple(range(k)),)


def test_max_cliques_rejects_wrong_clique_size():
    d1 = D1()
    adj = coherence_graph(d1, _decomp_framing(d1), enumerate_routes(d1))
    with pytest.raises(AssertionError, match="clique"):
        max_cliques(tuple(a & 0b111 for a in adj[:-1]), dimension(d1) + 1)


# perfbench's gen.route_union(Random(1), 3, 5, .5), written out: dim 10, 51
# routes and 1,106 simplices.
RU351 = make_dag(3, [("e00", 0, 1), ("e01", 0, 1), ("e02", 0, 1), ("e03", 0, 2),
                     ("e04", 0, 3), ("e05", 1, 2), ("e06", 1, 3), ("e07", 1, 4),
                     ("e08", 2, 3), ("e09", 2, 3), ("e10", 3, 4), ("e11", 3, 4),
                     ("e12", 3, 4), ("e13", 3, 4)])
CATALOG = {"D1": D1(), "D2": D2(), "D3": D3(), "G3": G(3), "zigzag": zigzag(),
           "bypass": bypass(), "chain2x4": chain(2, 4), "chain3x3": chain(3, 3),
           "chain4x2": chain(4, 2)}


def assert_same_report(dag, tri):
    """The certificate's report is the ridge check's against the graph's own
    dimension and normalized volume."""
    assert verify_dkk_triangulation(dag, tri) == \
        verify_triangulation(tri, dimension(dag), normalized_volume(dag))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_certificate_agrees_with_ridge_check_catalog(name):
    """On the DKK triangulations of every framing (of the decomposition
    framing past 64 framings) and on the equatorial triangulation."""
    dag = CATALOG[name]
    decomp = route_decomposition(dag)
    framings = (_all_framings(dag) if framing_count(dag) <= 64
                else [decomposition_framing(dag, decomp)])
    for framing in framings:
        assert_same_report(dag, dkk_triangulation(dag, framing))
    assert_same_report(dag, equatorial_flow_triangulation(dag, decomp))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dag=route_unions(max_inner=2, max_routes=3))
def test_certificate_agrees_with_ridge_check_random(seed, dag):
    rng = random.Random(seed)
    for dag in (dag, random_balanced_dag(rng, max_edges=8)):
        decomp = route_decomposition(dag)
        for tri in (dkk_triangulation(dag, decomposition_framing(dag, decomp)),
                    dkk_triangulation(dag, random_framing(rng, dag)),
                    equatorial_flow_triangulation(dag, decomp)):
            assert_same_report(dag, tri)


@pytest.mark.parametrize("name", sorted(CATALOG) + ["ru(3,5,.5,1)"])
def test_certificate_takes_one_determinant(name, linear_algebra_calls):
    dag = CATALOG.get(name, RU351)
    tri = dkk_triangulation(dag, _decomp_framing(dag))
    report = verify_dkk_triangulation(dag, tri)
    assert report.ok, report.issues
    assert linear_algebra_calls == {"is_unimodular_simplex": 1}


@pytest.mark.parametrize("name", ["D1", "D2", "zigzag", "bypass", "chain4x2"])
def test_certificate_falls_back_on_corruptions(name):
    """Each corruption of the triangulation fails the certificate, and the
    report is the ridge check's, issue for issue.  The corruptions that fake
    the dimension or the volume cannot reach the certificate, which works
    both out from the graph; they stay controls of the ridge check."""
    dag = CATALOG[name]
    dim, volume = dimension(dag), normalized_volume(dag)
    tri = dkk_triangulation(dag, _decomp_framing(dag))
    for what, (bad, bad_dim, bad_volume) in corrupted(dag, tri).items():
        if (bad_dim, bad_volume) != (dim, volume):
            assert not verify_triangulation(bad, bad_dim, bad_volume).ok, what
            continue
        assert not _swap_certificate(dag, bad, dim, volume), what
        assert_same_report(dag, bad)


# G(1) is one edge: dimension 0, one route and one simplex, the mask 1.  Each
# entry fails one input check of the certificate there: an exact int, at
# least 0, no vertex past the routes, dim + 1 bits.
SHAPES = {"tuple": (0,), "bool": True, "negative": -1, "past the routes": 0b10, "no bits": 0}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_certificate_rejects_a_simplex_of_the_wrong_shape(shape):
    """The certificate takes G(1)'s one simplex and declines each wrong
    entry in its place, and the report is the ridge check's."""
    g1 = G(1)
    tri = dkk_triangulation(g1, _decomp_framing(g1))
    assert tri.simplices == (1,) and _swap_certificate(g1, tri, 0, 1)
    bad = with_simplices(tri, (SHAPES[shape],))
    assert not _swap_certificate(g1, bad, 0, 1)
    assert not verify_triangulation(bad, 0, 1).ok
    assert_same_report(g1, bad)


def test_certificate_needs_swap_connected_simplices():
    """Two triangulations of the cube chain 3x2 with no ridge in common:
    every ridge passes and the swaps do not connect the two halves.  Given
    their joint simplex count (12) as the volume, the certificate would take
    the double cover; the count against the cube's own volume (6), which
    ``verify_dkk_triangulation`` works out, declines it."""
    cube = chain(3, 2)
    kuhn = dkk_triangulation(cube, _decomp_framing(cube))
    # route i takes edge b{k}.{bit k of i, from the top}: 0 = 000, ..., 7 = 111
    assert all({0, 7} <= set(s) for s in members(kuhn.simplices))
    # cut off the corners 000 and 111, and split the rest around 010-101
    other = tuple(map(_mask, ((0, 1, 2, 4), (1, 2, 3, 5), (1, 2, 4, 5), (2, 3, 5, 6),
                              (2, 4, 5, 6), (3, 5, 6, 7))))
    assert normalized_volume(cube) == 6
    assert _swap_certificate(cube, with_simplices(kuhn, other), 3, 6)
    both = with_simplices(kuhn, kuhn.simplices + other)
    assert _swap_certificate(cube, both, 3, 12)
    assert not _swap_certificate(cube, both, 3, 6)
    report = verify_dkk_triangulation(cube, both)
    assert not report.ok
    assert report == verify_triangulation(both, 3, 6)


def test_certificate_falls_back_where_a_ridge_is_no_prefix_swap():
    """Split around 100-011, the cube's triangulation has the ridge
    {100, 011, 101} between apexes 001 and 110: 001 + 110 = 100 + 011, but
    no prefix swap of 001 and 110 gives 100 and 011.  The ridge check then
    certifies it."""
    cube = chain(3, 2)
    kuhn = dkk_triangulation(cube, _decomp_framing(cube))
    split = with_simplices(kuhn, map(_mask, ((0, 1, 2, 4), (1, 2, 3, 4), (1, 3, 4, 5),
                                             (2, 3, 4, 6), (3, 4, 5, 6), (3, 5, 6, 7))))
    assert not _swap_certificate(cube, split, 3, 6)
    assert verify_dkk_triangulation(cube, split).ok


def test_certificate_rejects_a_folded_simplex():
    """G(3)'s one simplex, listed twice, given volume 2 so that the count
    passes: each ridge lies in both copies with its apex on one side, which
    no swap crosses."""
    g3 = CATALOG["G3"]
    tri = dkk_triangulation(g3, _decomp_framing(g3))
    folded = with_simplices(tri, tri.simplices * 2)
    assert len(folded.simplices) == 2
    assert not _swap_certificate(g3, folded, 2, 2)
    report = verify_dkk_triangulation(g3, folded)
    assert not report.ok
    assert report == verify_triangulation(folded, 2, 1)
