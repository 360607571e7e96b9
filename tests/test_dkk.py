import random

from flowtri.dag import D1, D2, D3, dimension
from flowtri.dkk import (coherence_graph, conflict, dkk_triangulation,
                         exceptional_routes, max_cliques)
from flowtri.geometry import (ehrhart_hstar, h_polynomial, normalized_volume,
                              verify_triangulation)
from flowtri.routes import decomposition_framing, enumerate_routes, route_decomposition
from tests.conftest import random_balanced_dag, trimmed


def _decomp_framing(dag):
    return decomposition_framing(dag, route_decomposition(dag))


def test_conflict_d1():
    d1 = D1()
    fr = _decomp_framing(d1)
    assert conflict(d1, fr, ("a", "d"), ("b", "c"))
    assert not conflict(d1, fr, ("a", "c"), ("a", "d"))
    assert not conflict(d1, fr, ("a", "c"), ("b", "d"))


def _cliques(dag):
    return max_cliques(dag, coherence_graph(dag, _decomp_framing(dag),
                                            enumerate_routes(dag)))


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
    assert all(i not in adj[i] for i in range(9))
    assert all(i in adj[j] for i in range(9) for j in adj[i])


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
