import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtri.dag import D1, D2, D3, G, bypass, dimension, make_dag, zigzag
from flowtri.dkk import max_cliques
from flowtri.equatorial import (EquatorialFace, differs_from_dkk,
                                enumerate_transversals, equatorial_facets,
                                equatorial_sphere, framing_count,
                                joined_simplices, t_eq)
from flowtri.geometry import (ehrhart_hstar, h_from_f, normalized_volume,
                              verify_triangulation)
from flowtri.routes import enumerate_routes, route_decomposition
from tests.conftest import (Complex, chain, common_face, complex_euler_characteristic,
                            equatorial_flow_triangulation, f_vector, h_polynomial, is_facet_transversal, is_pure,
                            members, old_t_eq, random_balanced_dag, ridges_in_two_facets,
                            route_unions, routes_avoiding, set_equatorial_facets,
                            set_max_cliques, sphere, sphere_oracle, trimmed)

CATALOG = {"G3": (G(3), None), "D1": (D1(), None),
           "D1-crossed": (D1(), (("a", "d"), ("b", "c"))), "D2": (D2(), None),
           "D3": (D3(), None), "zigzag": (zigzag(), None), "bypass": (bypass(), None),
           "chain2x3": (chain(2, 3), None), "chain3x2": (chain(3, 2), None),
           "chain2x4": (chain(2, 4), None), "chain4x2": (chain(4, 2), None)}
CHAINS = {"chain3x3": (chain(3, 3), None), "chain4x3": (chain(4, 3), None)}


def sphere_inputs(dag, decomp=None):
    """The coherence graph, the facets and the sphere's facet size: what
    ``t_eq`` and its oracle read."""
    decomp = decomp or route_decomposition(dag)
    _, adj, facets, _ = equatorial_sphere(dag, decomp)
    return adj, facets, dimension(dag) + 1 - len(decomp)


def assert_t_eq_matches_oracle(dag, decomp=None):
    adj, facets, size = sphere_inputs(dag, decomp)
    got = t_eq(adj, facets, size)
    want = old_t_eq(members(max_cliques(adj, dimension(dag) + 1)), facets)
    assert members(got.maximal_faces) == want.maximal_faces
    assert got.f_vector == f_vector(want)


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


def test_equatorial_facets_match_set_oracle_catalog():
    for dag, decomp in CATALOG.values():
        decomp = decomp or route_decomposition(dag)
        routes = enumerate_routes(dag)
        assert (equatorial_facets(dag, decomp, routes)
                == set_equatorial_facets(dag, decomp, routes))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dag=route_unions())
def test_equatorial_facets_match_set_oracle_random(seed, dag):
    for g in (random_balanced_dag(random.Random(seed)), dag):
        decomp = route_decomposition(g)
        routes = enumerate_routes(g)
        assert (equatorial_facets(g, decomp, routes)
                == set_equatorial_facets(g, decomp, routes))


def test_sphere_d1_is_two_points():
    d1 = D1()
    s = sphere(d1, route_decomposition(d1))
    faces = Complex(members(s.maximal_faces))
    assert s.f_vector == f_vector(faces) == (1, 2)
    assert complex_euler_characteristic(faces) == 2


def test_sphere_d3_is_hexagon():
    d3 = D3()
    routes = enumerate_routes(d3)
    s = sphere(d3, route_decomposition(d3))
    faces = Complex(members(s.maximal_faces))
    assert s.f_vector == f_vector(faces) == (1, 6, 6)
    assert complex_euler_characteristic(faces) == 0
    named = {frozenset("".join(routes[i]) for i in f)
             for f in faces.maximal_faces}
    verts = {v for f in named for v in f}
    assert verts == {"ae", "af", "bd", "bf", "cd", "ce"}


def test_sphere_of_graph_past_the_recursion_limit():
    """G(k) has no inner vertices: T_eq is the empty face alone, whatever k.
    (Bron-Kerbosch would recurse k deep on its one maximal clique.)"""
    dag = G(sys.getrecursionlimit() + 10)
    s = sphere(dag, route_decomposition(dag))
    assert members(s.maximal_faces) == ((),) and s.f_vector == (1,)


def test_sphere_matches_brute_force_oracle():
    for dag in (D1(), D2(), D3()):
        decomp = route_decomposition(dag)
        assert {frozenset(f) for f in members(sphere(dag, decomp).maximal_faces)} == \
            sphere_oracle(dag, decomp)


def test_sphere_properties_random():
    rng = random.Random(31)
    for _ in range(15):
        dag = random_balanced_dag(rng, max_edges=8)
        s = Complex(members(sphere(dag, route_decomposition(dag)).maximal_faces))
        assert is_pure(s)
        assert ridges_in_two_facets(s)
        want = sum(dag.indeg(v) - 1 for v in dag.inner_vertices)
        assert all(len(f) == want for f in s.maximal_faces) or not want


def test_join_triangulation_d1():
    d1 = D1()
    routes = enumerate_routes(d1)
    tri = equatorial_flow_triangulation(d1, route_decomposition(d1))
    named = {frozenset(routes[i] for i in s) for s in members(tri.simplices)}
    assert named == {
        frozenset({("a", "d"), ("a", "c"), ("b", "d")}),
        frozenset({("b", "c"), ("a", "c"), ("b", "d")}),
    }


def test_join_triangulation_verifies():
    for dag in (D1(), D2(), D3(), G(3)):
        tri = equatorial_flow_triangulation(dag, route_decomposition(dag))
        rep = verify_triangulation(tri, dimension(dag), normalized_volume(dag))
        assert rep.ok, rep.issues
        assert trimmed(h_polynomial(Complex(members(tri.simplices)))) == \
            trimmed(ehrhart_hstar(dag).h_star)


def test_no_inner_vertices_gives_plain_simplex():
    g3 = G(3)
    tri = equatorial_flow_triangulation(g3, route_decomposition(g3))
    assert members(tri.simplices) == ((0, 1, 2),)


def test_d3_differs_from_every_dkk():
    d3 = D3()
    assert framing_count(d3) == 36
    decomp = route_decomposition(d3)
    tri = equatorial_flow_triangulation(d3, decomp)
    rep = differs_from_dkk(d3, tri.labels, tri.simplices)
    assert rep.framings_checked == 36
    assert not rep.matching_framings
    assert not rep.is_dkk


def test_d1_equals_its_dkk():
    d1 = D1()
    decomp = route_decomposition(d1)
    tri = equatorial_flow_triangulation(d1, decomp)
    rep = differs_from_dkk(d1, tri.labels, tri.simplices)
    assert rep.is_dkk


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_t_eq_matches_old_t_eq_catalog(name):
    assert_t_eq_matches_oracle(*CATALOG[name])


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_t_eq_matches_old_t_eq_chains(name):
    assert_t_eq_matches_oracle(*CHAINS[name])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_t_eq_matches_old_t_eq_random(seed):
    assert_t_eq_matches_oracle(random_balanced_dag(random.Random(seed)))


@settings(max_examples=30, deadline=None)
@given(dag=route_unions())
def test_t_eq_matches_old_t_eq_route_unions(dag):
    assert_t_eq_matches_oracle(dag)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_sphere_h_equals_join_h_catalog(name):
    dag, decomp = CATALOG[name]
    decomp = decomp or route_decomposition(dag)
    routes, _, _, s = equatorial_sphere(dag, decomp)
    join = joined_simplices(dag, routes, decomp, s)
    assert h_from_f(s.f_vector) == h_polynomial(Complex(members(s.maximal_faces))) == \
        h_polynomial(Complex(members(join)))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_t_eq_with_a_clique_dropped_raises_or_keeps_the_sphere(name):
    """Dropping cliques breaks the certificate or leaves the sphere alone.

    The cliques are dropped by deleting one coherent pair from the
    adjacency (every clique through it goes) or one route from one
    facet's mask (the faces through it in that facet go).  A corrupted
    input that still passes must give the oracle's sphere on that same
    input, which is the sphere itself.  T_eq of a graph without inner
    vertices is the empty face, which no corruption reaches.
    """
    dag = CATALOG[name][0]
    adj, facets, size = sphere_inputs(*CATALOG[name])
    whole = t_eq(adj, facets, size)
    corrupted = []
    for i, row in enumerate(adj):
        for j in range(i + 1, len(adj)):
            if row >> j & 1:
                cut = list(adj)
                cut[i] &= ~(1 << j)
                cut[j] &= ~(1 << i)
                corrupted.append((tuple(cut), facets))
    for k, f in enumerate(facets):
        for i in range(len(adj)):
            if f.routes >> i & 1:
                cut = list(facets)
                cut[k] = EquatorialFace(f.transversal, f.routes & ~(1 << i))
                corrupted.append((adj, cut))
    raised = 0
    for cut_adj, cut_facets in corrupted:
        try:
            got = t_eq(cut_adj, cut_facets, size)
        except AssertionError:
            raised += 1
            continue
        want = old_t_eq(set_max_cliques(cut_adj), cut_facets)
        assert members(got.maximal_faces) == want.maximal_faces == members(whole.maximal_faces)
        assert got.f_vector == f_vector(want) == whole.f_vector
    assert raised or not dag.inner_count


@pytest.mark.parametrize("adj,masks,size,message", [
    ((0b110, 0b101, 0b011), (0b111,), 2, "extends past 2 routes"),
    ((0b000, 0b100, 0b010), (0b111,), 3, "face (0,) of T_eq is maximal below 3"),
    ((0b10, 0b01, 0b00), (0b111,), 2, "lies in 1 facets, not 2"),
    ((0b00, 0b00), (0b11, 0b00), 1, "facet ('m1',) holds no facet"),
], ids=["extends", "maximal", "ridge", "cover"])
def test_t_eq_names_the_broken_clause(adj, masks, size, message):
    """Each clause of the certificate on a small input that breaks it."""
    facets = [EquatorialFace((f"m{k}",), m) for k, m in enumerate(masks)]
    with pytest.raises(AssertionError, match=re.escape(message)):
        t_eq(adj, facets, size)
