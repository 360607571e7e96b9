import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtri.dag import (D1, D2, D3, G, bypass, gorenstein_completion,
                         make_dag, random_dag, zigzag)
from flowtri.routes import (NotGorensteinError, decomposition_framing,
                            enumerate_routes, is_route,
                            is_route_decomposition, route_decomposition, route_table)
from tests.conftest import (RU351, chain, framing_from_json, has_route_partition,
                            indicator_vector, random_balanced_dag, route_unions,
                            route_vertices)


def test_enumerate_routes_catalog():
    assert enumerate_routes(D1()) == (("a", "c"), ("a", "d"),
                                      ("b", "c"), ("b", "d"))
    assert len(enumerate_routes(D2())) == 8
    assert len(enumerate_routes(D3())) == 9
    assert enumerate_routes(G(3)) == (("g1",), ("g2",), ("g3",))


def test_enumerate_routes_is_sorted_and_complete():
    """Every route once, in increasing order, as many as the path count."""
    rng = random.Random(5)
    for dag in (D2(), zigzag(), bypass(), *[random_dag(rng) for _ in range(40)]):
        routes = enumerate_routes(dag)
        paths = [1] + [0] * dag.sink
        for v in range(1, dag.sink + 1):
            paths[v] = sum(paths[e.tail] for e in dag.in_edges(v))
        assert len(routes) == paths[dag.sink]
        assert all(is_route(dag, r) for r in routes)
        assert all(a < b for a, b in zip(routes, routes[1:]))


def assert_table_matches_routes(dag, labels):
    """Each field of ``route_table(dag, labels)`` against a recomputation
    route by route: an edge mask from the route's indicator vector, a route
    mask from the routes holding the edge."""
    table = route_table(dag, labels)
    assert table.routes == tuple(labels)
    want = [sum(x << k for k, x in enumerate(indicator_vector(dag, r))) for r in labels]
    assert table.edges == tuple(want)
    assert table.index == {m: i for i, m in enumerate(want)} and len(table.index) == len(labels)
    assert table.through == {e.id: sum(1 << i for i, r in enumerate(labels) if e.id in r)
                             for e in dag.edges}
    assert list(table.through) == [e.id for e in dag.edges]


@pytest.mark.parametrize("dag", [D1(), D2(), D3(), G(3), zigzag(), bypass(), chain(3, 3), RU351],
                         ids=["D1", "D2", "D3", "G3", "zigzag", "bypass", "chain3x3", "RU351"])
def test_route_table_matches_per_route_recomputation_catalog(dag):
    """The route list, the list in a permuted order (as the certificate's
    labels may come) and every other route, which leaves some edges on
    none of the labels."""
    routes = enumerate_routes(dag)
    permuted = random.Random(len(routes)).sample(routes, len(routes))
    for labels in (routes, permuted, routes[::2]):
        assert_table_matches_routes(dag, labels)


@settings(max_examples=40, deadline=None)
@given(dag=route_unions(), seed=st.integers(0, 2**32 - 1))
def test_route_table_matches_per_route_recomputation_route_unions(dag, seed):
    routes = enumerate_routes(dag)
    assert_table_matches_routes(dag, routes)
    assert_table_matches_routes(dag, random.Random(seed).sample(routes, len(routes)))


def test_is_route():
    d1 = D1()
    assert is_route(d1, ("a", "c"))
    assert not is_route(d1, ("a",))          # stops at the inner vertex
    assert not is_route(d1, ("c", "a"))      # wrong order
    assert not is_route(d1, ("a", "x"))      # unknown edge
    assert not is_route(d1, ())
    assert route_vertices(d1, ("a", "c")) == (0, 1, 2)


def test_route_decomposition_catalog():
    assert route_decomposition(D1()) == (("a", "c"), ("b", "d"))
    assert route_decomposition(D2()) == (("a", "c", "e"), ("b", "d", "f"))
    assert route_decomposition(D3()) == (("a", "d"), ("b", "e"), ("c", "f"))
    assert route_decomposition(zigzag()) == (
        ("1a", "1b"), ("2a", "2b", "2c"), ("3a", "3b"))
    assert len(route_decomposition(bypass())) == 3
    unbalanced = make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)])
    with pytest.raises(NotGorensteinError):
        route_decomposition(unbalanced)


def test_decomposition_size_is_source_outdegree():
    rng = random.Random(3)
    for _ in range(60):
        dag = random_balanced_dag(rng)
        decomp = route_decomposition(dag)
        assert is_route_decomposition(dag, decomp)
        assert len(decomp) == dag.outdeg(0) == dag.indeg(dag.sink)


def test_peel_takes_the_smallest_remaining_route():
    rng = random.Random(11)
    for _ in range(60):
        dag = random_balanced_dag(rng)
        live = set(dag.edge_by_id)
        for route in route_decomposition(dag):
            assert route == min(r for r in enumerate_routes(dag) if live.issuperset(r))
            live -= set(route)


def test_decomposition_iff_partition_oracle():
    rng = random.Random(5)
    for _ in range(120):
        dag = random_dag(rng)
        balanced = all(dag.indeg(v) == dag.outdeg(v)
                       for v in dag.inner_vertices)
        assert has_route_partition(dag) == balanced
        if balanced:
            assert is_route_decomposition(dag, route_decomposition(dag))
        else:
            with pytest.raises(NotGorensteinError):
                route_decomposition(dag)


def test_decomposition_framing_d2():
    d2 = D2()
    fr = decomposition_framing(d2, route_decomposition(d2))
    assert fr.in_order == {1: ("a", "b"), 2: ("c", "d")}
    assert fr.out_order == {1: ("c", "d"), 2: ("e", "f")}
    assert fr.in_order[1].index("b") == 1 and fr.out_order[2].index("e") == 0


def test_framing_from_json_validates():
    d1 = D1()
    fr = framing_from_json(d1, {"1": {"in": ["b", "a"], "out": ["c", "d"]}})
    assert fr.in_order[1] == ("b", "a")
    with pytest.raises(ValueError):
        framing_from_json(d1, {"1": {"in": ["a"], "out": ["c", "d"]}})


def test_indicator_vector():
    d1 = D1()
    chi = indicator_vector(d1, ("a", "d"))
    assert chi == tuple(1 if e.id in {"a", "d"} else 0 for e in d1.edges)
    assert sum(indicator_vector(D2(), ("a", "c", "e"))) == 3


def test_completion_of_unbalanced_has_decomposition():
    dag = make_dag(2, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2), ("d", 1, 3),
                       ("e", 2, 3)])
    done = gorenstein_completion(dag)
    assert is_route_decomposition(done, route_decomposition(done))
