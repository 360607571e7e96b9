import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtri.dag import D1, D2, D3, dimension, zigzag
from flowtri.dkk import (coherence_graph, dkk_triangulation, exceptional_routes,
                         max_cliques)
from flowtri.equatorial import _all_framings
from flowtri.geometry import ehrhart_hstar, normalized_volume, verify_triangulation
from flowtri.routes import decomposition_framing, enumerate_routes, route_decomposition
from tests.conftest import (conflict, h_polynomial, pairwise_coherence_masks,
                            random_balanced_dag, random_framing, set_max_cliques,
                            trimmed)


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
    named = {frozenset(routes[i] for i in c) for c in cliques}
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
    assert all(len(c) == 4 for c in cliques)


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
        assert trimmed(h_polynomial(tri.complex)) == trimmed(ehrhart_hstar(dag).h_star)


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
        cliques = max_cliques(adj, dimension(dag) + 1)
        assert list(cliques) == sorted(cliques)
        assert set(cliques) == set_max_cliques(adj)


def test_max_cliques_past_the_recursion_limit():
    k = sys.getrecursionlimit() + 10
    everyone = (1 << k) - 1
    assert max_cliques(tuple(everyone & ~(1 << i) for i in range(k)), k) == \
        (tuple(range(k)),)


def test_max_cliques_rejects_wrong_clique_size():
    d1 = D1()
    adj = coherence_graph(d1, _decomp_framing(d1), enumerate_routes(d1))
    with pytest.raises(AssertionError, match="clique"):
        max_cliques(tuple(a & 0b111 for a in adj[:-1]), dimension(d1) + 1)
