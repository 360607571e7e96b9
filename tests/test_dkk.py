import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtri.dag import D1, D2, D3, G, bypass, dimension, zigzag
from flowtri.dkk import (_chart, _swap_certificate, coherence_graph, dkk_triangulation,
                         exceptional_routes, max_cliques, verify_dkk_triangulation)
from flowtri.equatorial import _all_framings, framing_count
from flowtri.geometry import (Triangulation, _mask, _members, determinant, ehrhart_hstar,
                              normalized_volume)
from flowtri.planar import planar_framing, poset_to_dag
from flowtri.routes import (decomposition_framing, enumerate_routes, indicator_vector,
                            route_decomposition)
from tests.conftest import (RU351, Complex, chain, conflict, corrupted,
                            equatorial_flow_triangulation, h_polynomial,
                            is_unimodular_simplex, members,
                            pairwise_coherence_masks, random_balanced_dag,
                            random_framing, route_unions, set_max_cliques,
                            staircase_poset, trimmed, verify_triangulation, with_simplices)


def _decomp_framing(dag):
    return decomposition_framing(dag, route_decomposition(dag))


def test_conflict_d1():
    d1 = D1()
    fr = _decomp_framing(d1)
    assert conflict(d1, fr, ("a", "d"), ("b", "c"))
    assert not conflict(d1, fr, ("a", "c"), ("a", "d"))
    assert not conflict(d1, fr, ("a", "c"), ("b", "d"))


def _cliques(dag):
    return max_cliques(coherence_graph(_decomp_framing(dag), enumerate_routes(dag)),
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
    adj = coherence_graph(_decomp_framing(d3), enumerate_routes(d3))
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
        assert coherence_graph(framing, routes) == \
            pairwise_coherence_masks(dag, framing, routes), framing


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_coherence_graph_and_cliques_match_oracles_random_framings(seed):
    rng = random.Random(seed)
    dag = random_balanced_dag(rng, max_edges=10)
    routes = enumerate_routes(dag)
    for _ in range(3):
        framing = random_framing(rng, dag)
        adj = coherence_graph(framing, routes)
        assert adj == pairwise_coherence_masks(dag, framing, routes)
        cliques = members(max_cliques(adj, dimension(dag) + 1))
        assert list(cliques) == sorted(cliques)
        assert set(cliques) == set_max_cliques(adj)


def assert_coherence_matches_oracle(dag, framings):
    routes = enumerate_routes(dag)
    for framing in framings:
        assert coherence_graph(framing, routes) == \
            pairwise_coherence_masks(dag, framing, routes), framing


@settings(max_examples=40, deadline=None)
@given(dag=route_unions(), seed=st.integers(0, 2**32 - 1))
def test_coherence_graph_matches_pairwise_oracle_route_unions(dag, seed):
    """Route unions have long shared suffixes and bundles of parallel
    edges, where the recursion through shared edges decides: the
    decomposition framing and a random framing."""
    assert_coherence_matches_oracle(dag, [_decomp_framing(dag),
                                          random_framing(random.Random(seed), dag)])


@pytest.mark.parametrize("k,m", [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (4, 3), (6, 2)])
def test_coherence_graph_matches_pairwise_oracle_chains(k, m):
    dag = chain(k, m)
    rng = random.Random(k * 10 + m)
    assert_coherence_matches_oracle(
        dag, [_decomp_framing(dag)] + [random_framing(rng, dag) for _ in range(3)])


def test_coherence_graph_matches_pairwise_oracle_planar_framings():
    """The planar framings of graphs from staircase graded posets (3 ranks
    of 2-3 elements, and 3-4 ranks of 3 elements)."""
    rng = random.Random(2012)
    posets = [staircase_poset(rng, 3, 2, 3) for _ in range(12)] + \
        [staircase_poset(rng, ranks, 3, 3) for ranks in (3, 4)]
    for p in posets:
        dag, emb = poset_to_dag(p)
        assert_coherence_matches_oracle(dag, [planar_framing(dag, emb)])


def test_max_cliques_past_the_recursion_limit():
    k = sys.getrecursionlimit() + 10
    everyone = (1 << k) - 1
    assert members(max_cliques(tuple(everyone & ~(1 << i) for i in range(k)), k)) == \
        (tuple(range(k)),)


def test_max_cliques_rejects_wrong_clique_size():
    d1 = D1()
    adj = coherence_graph(_decomp_framing(d1), enumerate_routes(d1))
    with pytest.raises(AssertionError, match="clique"):
        max_cliques(tuple(a & 0b111 for a in adj[:-1]), dimension(d1) + 1)


CATALOG = {"D1": D1(), "D2": D2(), "D3": D3(), "G3": G(3), "zigzag": zigzag(),
           "bypass": bypass(), "chain2x4": chain(2, 4), "chain3x3": chain(3, 3),
           "chain4x2": chain(4, 2)}


# The issues that the certificate and the ridge check both find in their
# first pass over the simplex list, in the same words.
SHARED_FAULT = re.compile(r"no simplices|\d+ simplices but normalized volume \d+|simplex .* "
                          r"(has \d+ vertices, expected \d+|is not a mask of vertex indices"
                          r"|names a vertex without coordinates)")


def assert_same_report(dag, tri):
    """The certificate's verdict is the ridge check's against the graph's own
    dimension and normalized volume, and so are the faults of the simplex
    list that both word alike."""
    report = verify_dkk_triangulation(dag, tri)
    oracle = verify_triangulation(tri, dimension(dag), normalized_volume(dag))
    assert report.ok is oracle.ok, (report.issues, oracle.issues)
    assert [i for i in report.issues if SHARED_FAULT.fullmatch(i)] == \
        [i for i in oracle.issues if SHARED_FAULT.fullmatch(i)]


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
    """On a DKK triangulation a prefix swap crosses every interior ridge, so
    no exact step runs: the first simplex's determinant is the only one."""
    dag = CATALOG.get(name, RU351)
    tri = dkk_triangulation(dag, _decomp_framing(dag))
    report = verify_dkk_triangulation(dag, tri)
    assert report.ok, report.issues
    assert linear_algebra_calls == {"determinant": 1}


def test_certificate_takes_exact_steps_on_the_equatorial_join(linear_algebra_calls):
    """The join of ru(3,5,.5,1)'s equatorial sphere with the route simplex
    (1,106 simplices, dim 10) certifies with the first simplex's
    determinant and an exact step, two determinants, at each interior ridge
    that no prefix swap crosses: fewer exact steps than simplices."""
    tri = equatorial_flow_triangulation(RU351, route_decomposition(RU351))
    assert len(tri.simplices) == normalized_volume(RU351) == 1106
    report = verify_dkk_triangulation(RU351, tri)
    assert report.ok, report.issues
    calls = linear_algebra_calls["determinant"]
    assert calls % 2 == 1 and 0 < (calls - 1) // 2 < len(tri.simplices)


CHART_GRAPHS = {**CATALOG, "ru(3,5,.5,1)": RU351}


def _check_chart(dag, rng):
    """The chart has one edge per dimension, and on it the determinant of a
    (dim + 1)-route subset is +-1 exactly when the column pass finds the
    subset unimodular and 0 exactly when it finds it degenerate: the
    triangulation's first simplices, and random subsets."""
    columns, dim = _chart(dag), dimension(dag)
    assert len(columns) == dim
    routes = enumerate_routes(dag)
    coords = [indicator_vector(dag, r) for r in routes]
    tri = dkk_triangulation(dag, random_framing(rng, dag))
    subsets = [_members(m) for m in tri.simplices[:10]]
    subsets += [rng.sample(range(len(routes)), dim + 1) for _ in range(20)]
    for subset in subsets:
        v0, *rest = [coords[i] for i in subset]
        det = determinant([[v[c] - v0[c] for c in columns] for v in rest])
        try:
            unimodular = is_unimodular_simplex([v0] + rest)
        except ValueError:
            assert det == 0, subset
        else:
            assert det != 0 and (abs(det) == 1) == unimodular, subset


@pytest.mark.parametrize("name", sorted(CHART_GRAPHS))
def test_chart_determinant_matches_the_column_pass(name):
    _check_chart(CHART_GRAPHS[name], random.Random(name))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dag=route_unions())
def test_chart_determinant_matches_the_column_pass_random(seed, dag):
    _check_chart(dag, random.Random(seed))


@pytest.mark.parametrize("name", ["D1", "D2", "zigzag", "bypass", "chain4x2"])
def test_certificate_rejects_corruptions(name):
    """Each corruption of the triangulation at the graph's own dimension and
    volume fails the certificate, with the ridge check's verdict but for a
    label that is not a route: the ridge check never reads the labels, and
    the certificate names the label.  The corruptions that fake the
    dimension or the volume cannot reach the certificate, which works both
    out from the graph; they stay controls of the ridge check."""
    dag = CATALOG[name]
    dim, volume = dimension(dag), normalized_volume(dag)
    tri = dkk_triangulation(dag, _decomp_framing(dag))
    for what, (bad, bad_dim, bad_volume) in corrupted(dag, tri).items():
        if (bad_dim, bad_volume) != (dim, volume):
            assert not verify_triangulation(bad, bad_dim, bad_volume).ok, what
            continue
        report = verify_dkk_triangulation(dag, bad)
        assert not report.ok, what
        if what == "label not a route":
            assert verify_triangulation(bad, dim, volume).ok
            assert report.issues == (f"label 0 {bad.labels[0]!r} is not a route of the graph",)
        else:
            assert_same_report(dag, bad)


def test_certificate_reports_every_label_and_coordinate_fault():
    """A label that is no route, one that repeats another, coordinates off
    a route's indicator vector and a missing coordinate vector are each an
    issue; the certificate stops before the ridges."""
    d1 = D1()
    tri = dkk_triangulation(d1, _decomp_framing(d1))
    a, b, c, d = tri.labels
    bad = Triangulation(tri.simplices, (a, ["a", "d"], a, d),
                        (tri.coords[0], tri.coords[1], tri.coords[2]))
    assert verify_dkk_triangulation(d1, bad).issues == (
        "label 1 ['a', 'd'] is not a route of the graph",
        f"label 2 {a!r} repeats label 0",
        "4 labels but 3 coordinate vectors")
    moved = Triangulation(tri.simplices, tri.labels, tri.coords[:3] + (tri.coords[0],))
    assert verify_dkk_triangulation(d1, moved).issues == (
        f"vertex 3 is not at the indicator vector of route {d!r}",)


# G(1) is one edge: dimension 0, one route and one simplex, the mask 1.  Each
# entry fails one input check of the certificate there: an exact int, at
# least 0, no vertex past the routes, dim + 1 bits.
SHAPES = {"tuple": (0,), "bool": True, "negative": -1, "past the routes": 0b10, "no bits": 0}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_certificate_rejects_a_simplex_of_the_wrong_shape(shape):
    """The certificate takes G(1)'s one simplex and declines each wrong
    entry in its place, with the ridge check's verdict and words."""
    g1 = G(1)
    tri = dkk_triangulation(g1, _decomp_framing(g1))
    assert tri.simplices == (1,) and _swap_certificate(g1, tri, 0, 1).ok
    bad = with_simplices(tri, (SHAPES[shape],))
    assert not _swap_certificate(g1, bad, 0, 1).ok
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
    assert _swap_certificate(cube, with_simplices(kuhn, other), 3, 6).ok
    both = with_simplices(kuhn, kuhn.simplices + other)
    assert _swap_certificate(cube, both, 3, 12).ok
    report = verify_dkk_triangulation(cube, both)
    assert report.issues == ("12 simplices but normalized volume 6",)
    assert report == verify_triangulation(both, 3, 6)


# the cube chain 3x2 split around 100-011, in the route numbering above
CUBE_SPLIT = ((0, 1, 2, 4), (1, 2, 3, 4), (1, 3, 4, 5), (2, 3, 4, 6), (3, 4, 5, 6), (3, 5, 6, 7))


def test_certificate_takes_an_exact_step_where_a_ridge_is_no_prefix_swap(linear_algebra_calls):
    """The split has the ridge {100, 011, 101} between apexes 001 and 110,
    and {100, 011, 110} between 010 and 101: 001 + 110 = 100 + 011, but no
    prefix swap of 001 and 110 gives 100 and 011.  An exact step certifies
    each of the two."""
    cube = chain(3, 2)
    split = with_simplices(dkk_triangulation(cube, _decomp_framing(cube)),
                           map(_mask, CUBE_SPLIT))
    report = verify_dkk_triangulation(cube, split)
    assert report.ok, report.issues
    assert linear_algebra_calls == {"determinant": 1 + 2 * 2}
    assert verify_triangulation(split, 3, 6).ok


def test_certificate_rejects_a_folded_simplex(linear_algebra_calls):
    """G(3)'s one simplex, listed twice: each ridge lies in both copies with
    its apex on one side, which no swap crosses, and the exact step at each
    ridge names it."""
    g3 = CATALOG["G3"]
    tri = dkk_triangulation(g3, _decomp_framing(g3))
    folded = with_simplices(tri, tri.simplices * 2)
    assert len(folded.simplices) == 2
    assert _swap_certificate(g3, folded, 2, 2).issues == tuple(
        f"simplices (0, 1, 2) and (0, 1, 2) lie on the same side of ridge {r}"
        for r in ((0, 1), (0, 2), (1, 2)))
    assert linear_algebra_calls == {"determinant": 1 + 2 * 3}
    report = verify_dkk_triangulation(g3, folded)
    assert report.issues[0] == "2 simplices but normalized volume 1"
    assert set(report.issues) == set(verify_triangulation(folded, 2, 1).issues)


def test_certificate_rejects_a_ridge_across_which_the_volume_doubles():
    """The cube cut into its four corners at 100, 010, 001 and 111 and the
    tetrahedron {000, 011, 101, 110} of normalized volume 2 between them:
    across each ridge of that tetrahedron the corner's apex has barycentric
    coordinate -2, and no swap crosses it, so the exact step names the
    ridge."""
    cube = chain(3, 2)
    cut = with_simplices(dkk_triangulation(cube, _decomp_framing(cube)), map(_mask, (
        (0, 4, 5, 6), (0, 2, 3, 6), (0, 1, 3, 5), (3, 5, 6, 7), (0, 3, 5, 6))))
    issues = verify_dkk_triangulation(cube, cut).issues
    assert issues[0] == "5 simplices but normalized volume 6"
    assert sorted(issues[1:]) == sorted(
        f"simplices {corner} and (0, 3, 5, 6) differ in volume across ridge {ridge}"
        for corner, ridge in (((0, 4, 5, 6), (0, 5, 6)), ((0, 2, 3, 6), (0, 3, 6)),
                              ((0, 1, 3, 5), (0, 3, 5)), ((3, 5, 6, 7), (3, 5, 6))))
    assert "simplex (0, 3, 5, 6) is not unimodular" in verify_triangulation(cut, 3, 6).issues


def test_certificate_names_a_degenerate_simplex_at_its_exact_step():
    """The cube's DKK triangulation with its second simplex traded for the
    square x_0 = 0, whose four routes are affinely dependent: the first
    simplex is unimodular, and the exact step at a ridge of the square,
    which no swap crosses, finds the square degenerate and says so once."""
    cube = chain(3, 2)
    tri = dkk_triangulation(cube, _decomp_framing(cube))
    square = _mask(i for i, x in enumerate(tri.coords) if x[0] == 0)
    assert members([square]) == ((4, 5, 6, 7),)
    bad = with_simplices(tri, tri.simplices[:1] + (square,) + tri.simplices[2:])
    issues = verify_dkk_triangulation(cube, bad).issues
    assert issues.count("simplex (4, 5, 6, 7) is degenerate") == 1
    assert "simplex (4, 5, 6, 7) is degenerate" in verify_triangulation(bad, 3, 6).issues
