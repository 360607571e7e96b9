from itertools import product

import pytest

from flowtri.dag import D1, D2, D3, make_dag
from flowtri.equatorial import enumerate_transversals, equatorial_facets
from flowtri.quotient import (check_transversal_identity, edge_labels,
                              leveled_space, phi, quotient_facets,
                              quotient_vertices, scaled,
                              transversal_functional, verify_reflexive)
from flowtri.routes import NotGorensteinError, enumerate_routes, route_decomposition


def test_edge_labels_and_space_d2():
    d2 = D2()
    decomp = route_decomposition(d2)
    labels = edge_labels(d2, decomp)
    assert labels == {"a": 1, "c": 1, "e": 1, "b": 2, "d": 2, "f": 2}
    space = leveled_space(d2, decomp)
    assert space.blocks == ((1, (1, 2)), (2, (1, 2)))
    assert space.dim == 4


def test_phi_kills_decomposition_routes():
    for dag in (D1(), D2(), D3()):
        decomp = route_decomposition(dag)
        for r in decomp:
            assert all(v == 0 for v in phi(dag, leveled_space(dag, decomp), r))


def test_quotient_d1_is_segment():
    d1 = D1()
    q = quotient_facets(d1, route_decomposition(d1))
    coords = {c for _, c in q.vertices}
    assert coords == {(1, -1), (-1, 1)}
    assert len(q.facets) == 2


def test_quotient_hexagons():
    for dag in (D2(), D3()):
        q = quotient_facets(dag, route_decomposition(dag))
        assert len(q.vertices) == 6
        assert len(q.facets) == 6
        assert len(q.facets) == len(equatorial_facets(
            dag, route_decomposition(dag), enumerate_routes(dag)))


def test_quotient_reflexive():
    for dag in (D1(), D2(), D3()):
        q = quotient_facets(dag, route_decomposition(dag))
        rep = verify_reflexive(q)
        assert rep.ok, rep.issues
        assert rep.interior_points == ((0,) * q.space.dim,)


def test_scaled_quotient_fails_reflexivity():
    d2 = D2()
    q = quotient_facets(d2, route_decomposition(d2))
    assert not verify_reflexive(scaled(q, 2)).ok


def test_transversal_identity_exhaustive_catalog():
    for dag in (D1(), D2(), D3()):
        decomp = route_decomposition(dag)
        rows = check_transversal_identity(quotient_vertices(dag, decomp))
        for s, m, lhs, rhs in rows:
            assert lhs == rhs, (s, m, lhs, rhs)
        assert [(s, m) for s, m, _, _ in rows] == list(
            product(enumerate_routes(dag), enumerate_transversals(decomp)))
        assert len(rows) == len(enumerate_routes(dag)) * _transversal_count(decomp)


def _transversal_count(decomp):
    n = 1
    for r in decomp:
        n *= len(r)
    return n


def test_transversal_identity_value_example():
    d1 = D1()
    decomp = route_decomposition(d1)          # ((a, c), (b, d))
    sides = {(s, m): (lhs, rhs) for s, m, lhs, rhs in check_transversal_identity(
        quotient_vertices(d1, decomp))}
    # route (a, d) crosses the transversal (a, d) twice: rhs = 1 - 2
    assert sides[(("a", "d"), ("a", "d"))] == (-1, -1)
    # and dodges the transversal (c, b) entirely: rhs = 1
    assert sides[(("a", "d"), ("c", "b"))] == (1, 1)


def test_functional_support():
    d2 = D2()
    decomp = route_decomposition(d2)          # ((a, c, e), (b, d, f))
    space = leveled_space(d2, decomp)
    coeffs = transversal_functional(d2, space, decomp, ("e", "b"))
    support = {pair for pair, k in space.index.items() if coeffs[k]}
    # prefix of route 1 before e passes vertices 1 and 2 at label 1
    assert support == {(1, 1), (2, 1)}


def test_quotient_rejects_unbalanced():
    unbalanced = make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)])
    with pytest.raises(NotGorensteinError):
        quotient_vertices(unbalanced, ())
