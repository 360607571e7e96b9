import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtri.dag import D1, D2, D3, G, bypass, dimension, make_dag, zigzag
from flowtri.dkk import dkk_triangulation
from flowtri.equatorial import (differs_from_dkk, enumerate_transversals,
                                equatorial_facets, join_route_simplex, t_eq,
                                equatorial_flow_triangulation, framing_count,
                                is_facet_transversal, routes_avoiding)
from flowtri.geometry import (SimplicialComplex, Triangulation, ehrhart_hstar,
                              f_vector, h_polynomial, normalized_volume,
                              verify_triangulation)
from flowtri.routes import (decomposition_framing, enumerate_routes,
                            route_decomposition)
from tests.conftest import (chain, common_face, complex_euler_characteristic,
                            is_pure, old_t_eq, random_balanced_dag, sphere,
                            sphere_oracle, trimmed)

CATALOG = {"G3": (G(3), None), "D1": (D1(), None),
           "D1-crossed": (D1(), (("a", "d"), ("b", "c"))), "D2": (D2(), None),
           "D3": (D3(), None), "zigzag": (zigzag(), None), "bypass": (bypass(), None),
           "chain2x3": (chain(2, 3), None), "chain3x2": (chain(3, 2), None),
           "chain2x4": (chain(2, 4), None), "chain4x2": (chain(4, 2), None)}


def framed_and_facets(dag, decomp=None):
    decomp = decomp or route_decomposition(dag)
    framed = dkk_triangulation(dag, decomposition_framing(dag, decomp))
    return decomp, framed, equatorial_facets(dag, decomp, framed.labels)


def test_enumerate_transversals():
    decomp = route_decomposition(D1())
    ms = set(enumerate_transversals(decomp))
    assert ms == {("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")}


def test_routes_avoiding():
    d1, d2 = D1(), D2()
    r1, r2 = enumerate_routes(d1), enumerate_routes(d2)
    got = routes_avoiding(r1, ("a", "d"))
    assert {r1[i] for i in got} == {("b", "c")}
    got = routes_avoiding(r2, ("a", "d"))
    assert {r2[i] for i in got} == {("b", "c", "e"), ("b", "c", "f")}


def test_common_face():
    d1 = D1()
    decomp = route_decomposition(d1)
    assert common_face(d1, decomp, [("a", "d")])
    assert not common_face(d1, decomp, [("a", "d"), ("b", "c")])


def test_is_facet_transversal():
    d2 = D2()
    routes = enumerate_routes(d2)
    assert not is_facet_transversal(d2, routes, routes_avoiding(routes, ("c", "d")))
    assert is_facet_transversal(d2, routes, routes_avoiding(routes, ("a", "d")))


def test_equatorial_facets_counts():
    for dag, want in ((D1(), 2), (D2(), 6), (D3(), 6)):
        facets = equatorial_facets(dag, route_decomposition(dag),
                                   enumerate_routes(dag))
        assert len(facets) == want


def test_facets_require_idle_free_graph():
    dag = make_dag(1, [("a", 0, 1), ("b", 1, 2)])
    with pytest.raises(ValueError):
        equatorial_facets(dag, (("a", "b"),), enumerate_routes(dag))


def test_sphere_d1_is_two_points():
    d1 = D1()
    s = sphere(d1, route_decomposition(d1))
    assert f_vector(s) == (1, 2)
    assert complex_euler_characteristic(s) == 2


def test_sphere_d3_is_hexagon():
    d3 = D3()
    routes = enumerate_routes(d3)
    s = sphere(d3, route_decomposition(d3))
    assert f_vector(s) == (1, 6, 6)
    assert complex_euler_characteristic(s) == 0
    named = {frozenset("".join(routes[i]) for i in f)
             for f in s.maximal_faces}
    verts = {v for f in named for v in f}
    assert verts == {"ae", "af", "bd", "bf", "cd", "ce"}


def test_sphere_matches_brute_force_oracle():
    for dag in (D1(), D2(), D3()):
        decomp = route_decomposition(dag)
        assert {frozenset(f) for f in sphere(dag, decomp).maximal_faces} == \
            sphere_oracle(dag, decomp)


def test_sphere_properties_random():
    rng = random.Random(31)
    for _ in range(15):
        dag = random_balanced_dag(rng, max_edges=8)
        s = sphere(dag, route_decomposition(dag))
        assert is_pure(s)
        assert s.ridges_in_two_facets()
        want = sum(dag.indeg(v) - 1 for v in dag.inner_vertices)
        assert all(len(f) == want for f in s.maximal_faces) or not want


def test_join_triangulation_d1():
    d1 = D1()
    routes = enumerate_routes(d1)
    tri = equatorial_flow_triangulation(d1, route_decomposition(d1))
    named = {frozenset(routes[i] for i in s) for s in tri.simplices}
    assert named == {
        frozenset({("a", "d"), ("a", "c"), ("b", "d")}),
        frozenset({("b", "c"), ("a", "c"), ("b", "d")}),
    }


def test_join_triangulation_verifies():
    for dag in (D1(), D2(), D3(), G(3)):
        tri = equatorial_flow_triangulation(dag, route_decomposition(dag))
        rep = verify_triangulation(tri, dimension(dag), normalized_volume(dag))
        assert rep.ok, rep.issues
        assert trimmed(h_polynomial(tri.complex)) == trimmed(ehrhart_hstar(dag).h_star)


def test_no_inner_vertices_gives_plain_simplex():
    g3 = G(3)
    tri = equatorial_flow_triangulation(g3, route_decomposition(g3))
    assert tri.simplices == ((0, 1, 2),)


def test_d3_differs_from_every_dkk():
    d3 = D3()
    assert framing_count(d3) == 36
    decomp = route_decomposition(d3)
    rep = differs_from_dkk(d3, equatorial_flow_triangulation(d3, decomp))
    assert rep.framings_checked == 36
    assert not rep.matching_framings
    assert not rep.is_dkk


def test_d1_equals_its_dkk():
    d1 = D1()
    decomp = route_decomposition(d1)
    rep = differs_from_dkk(d1, equatorial_flow_triangulation(d1, decomp))
    assert rep.is_dkk


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_t_eq_matches_old_t_eq_catalog(name):
    _, framed, facets = framed_and_facets(*CATALOG[name])
    assert t_eq(framed, facets) == old_t_eq(framed, facets)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_t_eq_matches_old_t_eq_random(seed):
    _, framed, facets = framed_and_facets(random_balanced_dag(random.Random(seed)))
    assert t_eq(framed, facets) == old_t_eq(framed, facets)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_sphere_h_equals_join_h_catalog(name):
    decomp, framed, facets = framed_and_facets(*CATALOG[name])
    s = t_eq(framed, facets)
    join = join_route_simplex(framed, decomp, s)
    assert h_polynomial(s) == h_polynomial(join.complex)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_t_eq_with_a_clique_dropped_raises_or_keeps_the_sphere(name):
    """Dropping a clique either breaks the certificate, or the clique held
    no sphere facet that another clique does not hold too."""
    _, framed, facets = framed_and_facets(*CATALOG[name])
    whole = t_eq(framed, facets)
    raised = 0
    for k in range(len(framed.simplices)):
        kept = framed.simplices[:k] + framed.simplices[k + 1:]
        cut = Triangulation(SimplicialComplex(kept), framed.labels, framed.coords)
        try:
            got = t_eq(cut, facets)
        except AssertionError:
            raised += 1
            continue
        assert got == old_t_eq(cut, facets) == whole
    assert raised
