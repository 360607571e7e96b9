import random
import re
import sys
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtri import dkk, equatorial
from flowtri.dag import D1, D2, D3, G, bypass, dimension, make_dag, zigzag
from flowtri.dkk import max_cliques
from flowtri.equatorial import (_all_framings, _avoided_sets, equatorial_facets,
                                equatorial_sphere, framing_count, joined_simplices,
                                matching_framings, sphere_facets, t_eq)
from flowtri.geometry import _canonical, _mask, _members, ehrhart_hstar, h_from_f, normalized_volume
from flowtri.routes import enumerate_routes, route_decomposition
from tests.conftest import (RU351, Complex, all_routes, canonical_dkk_matches, chain, common_face,
                            complex_euler_characteristic,
                            equatorial_flow_triangulation, f_vector, h_polynomial, is_facet_transversal, is_pure,
                            members, old_t_eq, one_skeleton, product_avoided_sets,
                            random_balanced_dag,
                            ridges_in_two_facets, route_unions, route_vectors, routes_avoiding,
                            set_equatorial_facets,
                            set_max_cliques, sphere, sphere_oracle, trimmed, verify_triangulation)

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
    """``t_eq`` matches the clique x facet oracle, and the clique search
    inside each facet (``sphere_facets``, on the same facet map) finds the
    facets ``t_eq`` walks to, which sorted are ``t_eq``'s canonical order."""
    adj, facets, size = sphere_inputs(dag, decomp)
    got = t_eq(adj, facets, size)
    want = old_t_eq(members(max_cliques(adj, dimension(dag) + 1)), facets)
    assert members(got.maximal_faces) == want.maximal_faces
    assert got.f_vector == f_vector(want)
    assert tuple(_canonical(sphere_facets(adj, facets, size))) == got.maximal_faces


@settings(max_examples=300, deadline=None)
@given(everyone=st.integers(0, 15),
       groups=st.lists(st.lists(st.tuples(st.sampled_from("abcde"), st.integers(-16, 15)),
                                min_size=1, max_size=4), max_size=4))
@example(everyone=15, groups=[])
@example(everyone=15, groups=[[("a", 6)]])
@example(everyone=15, groups=[[("a", 3), ("b", 5)], [("c", 1), ("d", ~8)]])  # a&c == b&c
def test_avoided_sets_match_product_walk(everyone, groups):
    """The group-by-group growth keeps, for each AND, the first full choice
    of the product walk, and lists the ANDs in the walk's order.  Keep
    masks reach past ``everyone`` and go negative, as the order side's
    complemented cut masks do."""
    got, want = _avoided_sets(everyone, groups), product_avoided_sets(everyone, groups)
    assert got == want
    assert list(got) == list(want)


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
        facets = equatorial_facets(dag, route_decomposition(dag), all_routes(dag))
        assert len(facets) == want


def test_facets_require_idle_free_graph():
    dag = make_dag(1, [("a", 0, 1), ("b", 1, 2)])
    with pytest.raises(ValueError):
        equatorial_facets(dag, (("a", "b"),), all_routes(dag))


def test_equatorial_facets_match_set_oracle_catalog():
    """Chain 4x3 (64 transversals, 61 distinct avoided sets) and RU351
    (144 and 124) carve fewer distinct sets than transversals, so the
    growth merges choices there."""
    for dag, decomp in (*CATALOG.values(), CHAINS["chain4x3"], (RU351, None)):
        decomp = decomp or route_decomposition(dag)
        table = all_routes(dag)
        assert (equatorial_facets(dag, decomp, table)
                == set_equatorial_facets(dag, decomp, table.routes))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dag=route_unions())
def test_equatorial_facets_match_set_oracle_random(seed, dag):
    for g in (random_balanced_dag(random.Random(seed)), dag):
        decomp = route_decomposition(g)
        table = all_routes(g)
        assert (equatorial_facets(g, decomp, table)
                == set_equatorial_facets(g, decomp, table.routes))


def assert_facets_keep_the_first_transversal(dag, decomp=None):
    """Each facet keeps the first transversal, in ``product(*decomp)``
    order, whose avoided routes are the facet's routes, and ``_canonical``,
    the printer's sort, puts the facets in the member-tuple order of their
    routes, across sizes."""
    decomp = decomp or route_decomposition(dag)
    table = all_routes(dag)
    facets = equatorial_facets(dag, decomp, table)
    first: dict[int, tuple] = {}
    for m in product(*decomp):
        first.setdefault(_mask(routes_avoiding(table.routes, m)), m)
    assert list(facets.values()) == [first[rs] for rs in facets]
    # a route list sorts as its routes' edge-id tuples do, in enumeration order
    named = [sorted(table.routes[i] for i in _members(rs)) for rs in _canonical(facets)]
    assert named == sorted(named)


@pytest.mark.parametrize("name", sorted(CATALOG | CHAINS) + ["ru(3,5,.5,1)"])
def test_facets_keep_the_first_transversal_catalog(name):
    assert_facets_keep_the_first_transversal(*(CATALOG | CHAINS).get(name, (RU351, None)))


@settings(max_examples=40, deadline=None)
@given(dag=route_unions())
def test_facets_keep_the_first_transversal_route_unions(dag):
    assert_facets_keep_the_first_transversal(dag)


def assert_facet_masks_match_the_facets(dag, decomp=None):
    """``equatorial_facets`` maps each facet's route mask to the transversal
    that the set oracle keeps, and lists the transversals in
    ``product(*decomp)`` order, the order ``_avoided_sets`` builds."""
    decomp = decomp or route_decomposition(dag)
    table = all_routes(dag)
    masks = equatorial_facets(dag, decomp, table)
    assert masks == set_equatorial_facets(dag, decomp, table.routes)
    rank = {m: i for i, m in enumerate(product(*decomp))}
    assert sorted(masks.values(), key=rank.__getitem__) == list(masks.values())


@pytest.mark.parametrize("name", sorted(CATALOG | CHAINS) + ["ru(3,5,.5,1)"])
def test_facet_masks_match_the_facets_catalog(name):
    assert_facet_masks_match_the_facets(*(CATALOG | CHAINS).get(name, (RU351, None)))


@settings(max_examples=40, deadline=None)
@given(dag=route_unions())
def test_facet_masks_match_the_facets_route_unions(dag):
    assert_facet_masks_match_the_facets(dag)


def test_sphere_d1_is_two_points():
    d1 = D1()
    s = sphere(d1, route_decomposition(d1))
    faces = Complex(members(s.maximal_faces))
    assert s.f_vector == f_vector(faces) == (1, 2)
    assert complex_euler_characteristic(faces) == 2


def test_sphere_d3_is_hexagon():
    d3 = D3()
    routes = all_routes(d3).routes
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
    tri = equatorial_flow_triangulation(d1, route_decomposition(d1))
    named = {frozenset(tri.labels[i] for i in s) for s in members(tri.simplices)}
    assert named == {
        frozenset({("a", "d"), ("a", "c"), ("b", "d")}),
        frozenset({("b", "c"), ("a", "c"), ("b", "d")}),
    }


def test_join_triangulation_verifies():
    for dag in (D1(), D2(), D3(), G(3)):
        tri = equatorial_flow_triangulation(dag, route_decomposition(dag))
        rep = verify_triangulation(tri, route_vectors(dag, tri.labels), dimension(dag),
                                   normalized_volume(dag))
        assert rep.ok, rep.issues
        assert trimmed(h_polynomial(Complex(members(tri.simplices)))) == \
            trimmed(ehrhart_hstar(dag).h_star)


def test_no_inner_vertices_gives_plain_simplex():
    g3 = G(3)
    tri = equatorial_flow_triangulation(g3, route_decomposition(g3))
    assert members(tri.simplices) == ((2, 1, 0),)


def test_d3_differs_from_every_dkk():
    d3 = D3()
    assert framing_count(d3) == 36
    decomp = route_decomposition(d3)
    tri = equatorial_flow_triangulation(d3, decomp)
    assert matching_framings(d3, all_routes(d3), tri.simplices) == ()


@pytest.mark.parametrize("name", ["D1", "D1-crossed", "D2", "D3", "zigzag"])
def test_exhaustive_sweep_matches_sorted_cliques(name, monkeypatch):
    """The sweep compares each framing's cliques unsorted: it finds the
    framings the canonically sorted cliques find, and sorts nothing."""
    dag, decomp = CATALOG[name]
    tri = equatorial_flow_triangulation(dag, decomp or route_decomposition(dag))
    want = canonical_dkk_matches(dag, all_routes(dag), tri.simplices)

    def canonical(masks):
        raise AssertionError("sorted a framing's cliques")

    monkeypatch.setattr(dkk, "_canonical", canonical)
    assert matching_framings(dag, all_routes(dag), tri.simplices) == want


def test_exhaustive_sweep_rejects_a_clique_of_the_wrong_size(monkeypatch):
    """An edgeless coherence graph has one-route maximal cliques, which the
    sweep's size check rejects."""
    d2 = D2()
    tri = equatorial_flow_triangulation(d2, route_decomposition(d2))
    monkeypatch.setattr(equatorial, "coherence_graph",
                        lambda framing, table: (0,) * len(table.routes))
    size = dimension(d2) + 1
    with pytest.raises(AssertionError,
                       match=rf"^maximal clique \(\d+,\) has size 1, expected {size}$"):
        matching_framings(d2, all_routes(d2), tri.simplices)


@pytest.mark.parametrize("dag", [chain(3, 3), RU351], ids=["chain3x3", "ru(3,5,.5,1)"])
def test_join_off_its_clique_complex_is_dkk_for_no_framing(dag):
    """A framed triangulation is the clique complex of its coherence graph
    (Danilov-Karzanov-Koshevoy 2012), so it is fixed by its 1-skeleton.
    These joins are not the clique complex of their 1-skeleton, so no
    framing gives them: one clique search decides what a sweep of 1,296
    and 82,944 framings decides."""
    tri = equatorial_flow_triangulation(dag, route_decomposition(dag))
    n = len(tri.labels)
    cliques = dkk._bron_kerbosch(one_skeleton(tri.simplices, n), (1 << n) - 1)
    assert set(cliques) != set(tri.simplices)


def test_flag_join_matches_the_framings_with_its_1_skeleton():
    """Chain 4x2's join is the clique complex of its 1-skeleton, and the
    framings it comes from are those whose coherence graph is that
    1-skeleton."""
    dag = chain(4, 2)
    table = all_routes(dag)
    tri = equatorial_flow_triangulation(dag, route_decomposition(dag))
    n = len(table.routes)
    skeleton = one_skeleton(tri.simplices, n)
    assert set(dkk._bron_kerbosch(skeleton, (1 << n) - 1)) == set(tri.simplices)
    matches = matching_framings(dag, table, tri.simplices)
    assert len(matches) == 2
    assert matches == tuple(i for i, fr in enumerate(_all_framings(dag))
                            if dkk.coherence_graph(fr, table) == skeleton)


def test_d1_equals_its_dkk():
    d1 = D1()
    decomp = route_decomposition(d1)
    tri = equatorial_flow_triangulation(d1, decomp)
    assert matching_framings(d1, all_routes(d1), tri.simplices)


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


@pytest.mark.parametrize("name", sorted(CATALOG | CHAINS))
def test_sphere_facets_raise_on_an_emptied_facet(name):
    """With any one facet's mask emptied, that facet holds no sphere facet,
    and ``sphere_facets`` raises (the sphere of size 0 is the test below)."""
    adj, facets, size = sphere_inputs(*(CATALOG | CHAINS)[name])
    masks = list(facets)
    assert size or name == "G3"
    for k in range(len(masks) if size else 0):
        with pytest.raises(AssertionError, match=f"has size 0, expected {size}"):
            sphere_facets(adj, masks[:k] + [0] + masks[k + 1:], size)


def test_sphere_facets_of_the_empty_sphere():
    """A sphere of size 0 is the empty face, as ``t_eq`` reports it: on G(3),
    whose facet is the empty route set, and with no facets at all, where a
    positive size raises in both."""
    adj, facets, size = sphere_inputs(G(3))
    assert size == 0 and list(facets) == [0]
    assert sphere_facets(adj, facets, 0) == {0} and t_eq(adj, facets, 0).maximal_faces == (0,)
    assert sphere_facets(adj, {}, 0) == {0} and t_eq(adj, {}, 0).maximal_faces == (0,)
    with pytest.raises(AssertionError, match="has size 0, expected 2"):
        sphere_facets(adj, {}, 2)
    with pytest.raises(AssertionError, match="maximal below 2"):
        t_eq(adj, {}, 2)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_sphere_h_equals_join_h_catalog(name):
    dag, decomp = CATALOG[name]
    decomp = decomp or route_decomposition(dag)
    table, _, _, s = equatorial_sphere(dag, decomp)
    join = joined_simplices(dag, table, decomp, s)
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
    for f in facets:           # no facet holds another, so a cut mask stays a new key
        for i in _members(f):
            cut = {f & ~(1 << i) if g == f else g: m for g, m in facets.items()}
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
    ((0b010, 0b001, 0b000), (0b111,), 3, "face (2,) of T_eq is maximal below 3"),
    ((0b000, 0b100, 0b010), (0b111,), 2, "lies in 1 facets, not 2"),
    ((0b00, 0b00), (0b11, 0b00), 1, "facet ('m1',) holds no facet"),
], ids=["extends", "maximal", "ridge", "cover"])
def test_t_eq_names_the_broken_clause(adj, masks, size, message):
    """Each clause of the certificate on a small input that breaks it."""
    facets = {m: (f"m{k}",) for k, m in enumerate(masks)}
    with pytest.raises(AssertionError, match=re.escape(message)):
        t_eq(adj, facets, size)
