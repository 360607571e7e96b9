import json
import random
import sys
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowtri import cli, dkk, equatorial, geometry, planar, quotient, routes
from flowtri import dag as dagmod
from flowtri.dag import D1, D2, D3, G, dag_to_json, degree_equality, idle_edges, zigzag
from flowtri.equatorial import sphere_facets
from flowtri.geometry import _canonical, _mask, _members
from flowtri.planar import (BOTTOM, TOP, PlanarDual, PlanarEmbedding, Poset,
                            embedding_from_json, embedding_to_json, filter_routes,
                            filters, make_poset, planar_dual,
                            poset_to_dag, poset_to_json, rank_constant_filters,
                            topmost_route_decomposition,
                            validate_embedding, verify_equivalence)
from flowtri.routes import Framing, Route, decomposition_framing, enumerate_routes
from tests.conftest import (all_routes, brute_order_polytope_count, canonical_triangulation,
                            equatorial_by_jumps, equatorial_by_map,
                            equatorial_order_triangulation, extension_filter_chains,
                            filter_chains, filter_sets, flow_to_order,
                            linear_extension_count, lp_triangulation_ok,
                            maximal_equatorial_chains, maximal_filter_chains, members,
                            old_verify_equivalence, order_polytope_vertices, order_to_flow,
                            pairwise_comparability, poset_from_json,
                            recursive_heights, recursive_up_sets, route_mask,
                            route_of_flow, stacked_rotations, staircase_poset,
                            subset_scan_filters,
                            verify_triangulation, with_simplices, zigzag_rotations)


def posets_isomorphic(p: Poset, q: Poset) -> bool:
    """Brute-force cover-preserving bijection search (desk scale)."""
    if len(p.elements) != len(q.elements) or len(p.covers) != len(q.covers):
        return False
    qc = set(q.covers)
    for perm in permutations(q.elements):
        m = dict(zip(p.elements, perm))
        if all((m[a], m[b]) in qc for a, b in p.covers):
            return True
    return not p.covers and not q.covers and len(p.elements) == len(q.elements)


def filter_of_route(dual: PlanarDual, route: Route) -> frozenset[str]:
    """The filter whose indicator vertex corresponds to the route: dual
    elements above the route's drawing."""
    f = flow_to_order(dual, route)
    return frozenset(p for p, val in f.items()
                     if p not in (BOTTOM, TOP) and val == 1)


def truncated_dual(dag, emb) -> Poset:
    return planar_dual(dag, emb).poset


def chain(n):
    names = [f"p{i}" for i in range(n)]
    return make_poset(names, [(a, b) for a, b in zip(names, names[1:])])


def antichain(n):
    return make_poset([f"q{i}" for i in range(n)], [])


def index_chains(poset: Poset, chains) -> tuple[tuple[int, ...], ...]:
    """Chains of filters as descending tuples of ``poset.filters`` indices,
    in reverse lexicographic order: the member tuples of masks over the
    filters, in ``geometry._canonical`` order."""
    idx = {f: i for i, f in enumerate(filter_sets(poset, poset.filters))}
    return tuple(sorted((tuple(sorted((idx[f] for f in c), reverse=True)) for c in chains),
                        reverse=True))


def test_make_poset_reduces_transitively():
    p = make_poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers == (("a", "b"), ("b", "c"))
    assert "c" in p.up_sets["a"] and "a" not in p.up_sets["c"]
    with pytest.raises(ValueError):
        make_poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        make_poset("ab", [("a", "z")])


def test_poset_json_round_trip():
    p = make_poset("abcd", [("a", "b"), ("b", "c"), ("a", "d")])
    assert poset_from_json(poset_to_json(p)) == p


def test_is_graded():
    p = make_poset("abcd", [("a", "c"), ("b", "c"), ("a", "d")])
    assert p.graded and p.heights == {"a": 1, "b": 1, "c": 2, "d": 2}
    assert not make_poset("abcd", [("a", "b"), ("b", "c"), ("a", "d")]).graded


def test_filters_are_upward_closed():
    p = make_poset("abc", [("a", "b")])
    assert p.filters == filters(p)
    fs = filter_sets(p, p.filters)
    assert frozenset({"b", "c"}) in fs and frozenset({"a"}) not in fs
    assert len(fs) == 6
    assert len(order_polytope_vertices(p)) == 6
    for f in fs:
        assert all(set(p.up_covers[x]) <= f for x in f)


def test_poset_layer_matches_oracles():
    """Filters grown level by level, stripped heights, top-down up-sets and
    complete filter chains agree with the 2^n subset scan, the recursions
    and the linear extensions, on graded and ungraded random posets, also
    with their elements listed out of name order."""
    rng = random.Random(10)
    posets = [random_poset(rng) for _ in range(40)] + \
        [random_graded_poset(rng) for _ in range(40)]
    assert sum(p.graded for p in posets) >= 40 and not all(p.graded for p in posets)
    for p in catalog_duals() + posets:
        shuffled = Poset(tuple(rng.sample(p.elements, len(p.elements))), p.covers)
        for q in (p, shuffled):
            assert filter_sets(q, filters(q)) == subset_scan_filters(q), q
            assert q.heights == recursive_heights(q), q
            assert q.up_sets == recursive_up_sets(q), q
            assert members(maximal_filter_chains(q)) == \
                index_chains(q, extension_filter_chains(q)), q


def test_cyclic_cover_relation_raises_from_heights():
    cyclic = Poset(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "b"), ("a", "d")))
    with pytest.raises(ValueError, match="cycle"):
        cyclic.heights
    with pytest.raises(ValueError, match="cycle"):
        Poset(("a",), (("a", "a"),)).heights


def test_comparability_table_matches_pairwise_oracle(monkeypatch):
    """``planar._filter_graph``, each filter at the route of its own index,
    equals the pair-by-pair comparability graph of the filters, on graded
    and ungraded posets with their elements shuffled and on a 600-element
    chain; and the graph ``verify_equivalence`` hands to ``sphere_facets``
    for the order side is that graph mapped through ``filter_routes``, on
    the catalog graphs."""
    rng = random.Random(12)
    posets = [random_poset(rng) for _ in range(40)] + \
        [random_graded_poset(rng) for _ in range(40)]
    names = tuple(f"p{i:03d}" for i in range(600))
    long_chain = Poset(names, tuple(zip(names, names[1:])))
    shuffled = [Poset(tuple(rng.sample(p.elements, len(p.elements))), p.covers)
                for p in catalog_duals() + posets]
    assert sum(p.graded for p in shuffled) >= 45 and not all(p.graded for p in shuffled)
    for p in shuffled + [long_chain]:
        count = len(p.filters)
        assert planar._filter_graph(p, range(count), count) == \
            list(pairwise_comparability(p.filters)), p

    adjacency = []

    def kept(adj, facets, size):
        adjacency.append(adj)
        return equatorial.sphere_facets(adj, facets, size)

    monkeypatch.setattr(planar, "sphere_facets", kept)
    for dag, emb in catalog_embeddings():
        dual, table = planar_dual(dag, emb), all_routes(dag)
        adjacency.clear()
        assert verify_equivalence(dag, emb, dual).ok
        route_of = filter_routes(dag, dual, table)
        assert adjacency[1:] == [mapped_comparability(dual.poset, route_of, len(table.routes))]


def mapped_comparability(poset, route_of, count) -> list[int]:
    """``pairwise_comparability`` of the filters carried onto ``count``
    routes, filter i to route ``route_of[i]``, row by row: the oracle for
    ``planar._filter_graph``."""
    graph = [0] * count
    for i, row in enumerate(pairwise_comparability(poset.filters)):
        graph[route_of[i]] = _mask(route_of[j] for j in _members(row))
    return graph


def catalog_embeddings():
    cases = [(dag, PlanarEmbedding(stacked_rotations(dag))) for dag in (D1(), D2(), D3(), G(3))]
    return cases + [(zigzag(), PlanarEmbedding(zigzag_rotations()))]


def check_filter_graph(dag, emb) -> None:
    """``planar._filter_graph`` on the routes of ``dag`` is the mapped
    pair-by-pair comparability graph (``mapped_comparability``) and, the
    graph being strongly planar, the coherence graph of its planar
    framing."""
    dual, table = planar_dual(dag, emb), all_routes(dag)
    route_of, count = filter_routes(dag, dual, table), len(table.routes)
    graph = planar._filter_graph(dual.poset, route_of, count)
    assert graph == mapped_comparability(dual.poset, route_of, count), dag
    assert graph == list(dkk.coherence_graph(dual.framing, table)), dag


def test_filter_graph_matches_mapped_pairwise_catalog():
    for dag, emb in catalog_embeddings():
        check_filter_graph(dag, emb)


@settings(max_examples=40, deadline=None)
@given(draw=st.integers(0, 2**32 - 1))
def test_filter_graph_matches_mapped_pairwise_graded(draw):
    try:
        dag, emb = poset_to_dag(random_graded_poset(random.Random(draw)))
    except ValueError:                  # a Hasse drawing with crossing covers
        assume(False)
    check_filter_graph(dag, emb)


@pytest.mark.parametrize("ranks", [3, 4], ids=["12-elements", "16-elements"])
def test_filter_graph_matches_mapped_pairwise_at_scale(ranks):
    """perfbench's ``gen.graded_poset(Random(1), ranks, 4, 4)``: 12 elements
    and 16 (700 routes), the graph alone, since the 16-element sphere has
    73,088,748 facets."""
    poset = staircase_poset(random.Random(1), ranks, 4, 4)
    assert len(poset.elements) == 4 * ranks
    check_filter_graph(*poset_to_dag(poset))


def test_filters_sort_like_their_names():
    """Within a size, ``filters`` lists the masks by their bit-reversed
    value, largest first: the order of their sorted element names, on the
    catalog duals and on random graded and ungraded posets, also with the
    elements listed out of name order."""
    rng = random.Random(21)
    posets = catalog_duals() + [random_graded_poset(rng) for _ in range(100)] + \
        [random_poset(rng) for _ in range(100)]
    for p in posets:
        shuffled = Poset(tuple(rng.sample(p.elements, len(p.elements))), p.covers)
        for q in (p, shuffled):
            by_names = sorted(q.filters, key=lambda f: (f.bit_count(), q.names(f)))
            assert q.filters == tuple(by_names), q


def test_rank_constant_filters_are_the_unions_of_the_top_ranks():
    """The one top-down pass gives, for j = 0 up to the top height, the
    filter of the elements above height j, summed rank by rank."""
    rng = random.Random(22)
    for p in catalog_duals() + [random_graded_poset(rng) for _ in range(100)]:
        h = p.heights
        want = [sum(b for q, b in p.bits.items() if h[q] > j)
                for j in range(max(h.values(), default=0) + 1)]
        assert [p.filters[i] for i in _members(rank_constant_filters(p))] == want, p


def test_600_element_chain_without_recursion():
    names = tuple(f"p{i:03d}" for i in range(600))
    p = Poset(names, tuple(zip(names, names[1:])))
    assert p.heights == {q: i + 1 for i, q in enumerate(names)}
    assert p.graded and names[-1] in p.up_sets[names[0]]
    assert filter_sets(p, p.filters) == tuple(frozenset(names[k:]) for k in range(600, -1, -1))


def test_posets_isomorphic():
    assert posets_isomorphic(chain(3), make_poset("xyz", [("z", "y"), ("y", "x")]))
    assert not posets_isomorphic(chain(2), antichain(2))


def test_validate_embedding_catalog():
    for dag in (D1(), D2(), D3(), G(3)):
        validate_embedding(dag, PlanarEmbedding(stacked_rotations(dag)))
    validate_embedding(zigzag(), PlanarEmbedding(zigzag_rotations()))
    bad = PlanarEmbedding({0: ("a", "b"), 1: ("c", "a", "d", "b"), 2: ("c", "d")})
    with pytest.raises(ValueError):
        validate_embedding(D1(), bad)   # in/out edges interleave at vertex 1


def test_embedding_json_round_trip():
    d2 = D2()
    emb = PlanarEmbedding(stacked_rotations(d2))
    data = embedding_to_json(d2, emb)
    back = embedding_from_json(d2, data)
    assert dict(back.rotations) == dict(emb.rotations)


def test_truncated_duals_of_catalog():
    assert posets_isomorphic(
        truncated_dual(G(3), PlanarEmbedding(stacked_rotations(G(3)))), chain(2))
    assert posets_isomorphic(
        truncated_dual(D1(), PlanarEmbedding(stacked_rotations(D1()))), antichain(2))
    assert posets_isomorphic(
        truncated_dual(D2(), PlanarEmbedding(stacked_rotations(D2()))), antichain(3))
    zz = truncated_dual(zigzag(), PlanarEmbedding(zigzag_rotations()))
    assert len(zz.elements) == 4
    assert zz.graded


def test_poset_to_dag_round_trip():
    for p in (chain(2), chain(4), antichain(2), antichain(3),
              make_poset("abcd", [("a", "d"), ("b", "d"), ("a", "c")]),
              make_poset("abc", [("a", "b")])):
        dag, emb = poset_to_dag(p)
        assert posets_isomorphic(truncated_dual(dag, emb), p)


def test_planar_framing_is_decomposition_framing():
    d2 = D2()
    emb = PlanarEmbedding(stacked_rotations(d2))
    pf = planar_dual(d2, emb).framing
    decomp = topmost_route_decomposition(d2, emb, pf)
    df = decomposition_framing(d2, decomp)
    assert pf.in_order == df.in_order and pf.out_order == df.out_order


def test_topmost_decomposition_d2():
    d2 = D2()
    emb = PlanarEmbedding(stacked_rotations(d2))
    decomp = topmost_route_decomposition(d2, emb, planar_dual(d2, emb).framing)
    # topmost strand first: highest edges carry the smallest ids at s
    assert decomp == (("a", "c", "e"), ("b", "d", "f"))


def test_flow_order_round_trip():
    d2 = D2()
    emb = PlanarEmbedding(stacked_rotations(d2))
    dual = planar_dual(d2, emb)
    for route in enumerate_routes(d2):
        f = flow_to_order(dual, route)
        flow = order_to_flow(dual, f)
        assert route_of_flow(d2, flow) == route
        filt = filter_of_route(dual, route)
        assert all(f[p] == 1 for p in filt)


def test_empty_filter_is_topmost_route():
    for dag in (D1(), D2(), G(3)):
        emb = PlanarEmbedding(stacked_rotations(dag))
        decomp = topmost_route_decomposition(dag, emb, planar_dual(dag, emb).framing)
        assert filter_of_route(planar_dual(dag, emb), decomp[0]) == frozenset()


def test_chain_dependent_flow_rejected():
    d1 = D1()
    emb = PlanarEmbedding(stacked_rotations(d1))
    with pytest.raises(ValueError):
        flow_to_order(planar_dual(d1, emb), {"a": 1, "b": 0, "c": 0, "d": 0})


def test_canonical_triangulation_counts():
    p = make_poset("abcd", [("a", "c"), ("b", "c"), ("a", "d")])
    tri = canonical_triangulation(p)
    assert len(tri.simplices) == linear_extension_count(p)
    assert all(len(s) == 5 for s in members(tri.simplices))
    assert verify_triangulation(tri, order_polytope_vertices(p), 4, len(tri.simplices)).ok
    assert linear_extension_count(chain(3)) == 1
    assert linear_extension_count(antichain(3)) == 6


def test_rank_constant_filters():
    p = chain(2)                      # p0 < p1
    sigma = _members(rank_constant_filters(p))
    assert filter_sets(p, [p.filters[i] for i in sigma]) == (
        frozenset({"p0", "p1"}), frozenset({"p1"}), frozenset())
    with pytest.raises(ValueError):
        rank_constant_filters(make_poset("abcd", [("a", "b"), ("b", "c"), ("a", "d")]))


def test_equatorial_chains_antichain_2():
    p = antichain(2)
    assert equatorial_by_map(p, [frozenset({"q0"})])
    assert equatorial_by_map(p, [frozenset({"q1"})])
    assert not equatorial_by_map(p, [frozenset({"q0"}), frozenset({"q0", "q1"})])
    assert filter_sets(p, p.filters[1:3]) == (frozenset({"q0"}), frozenset({"q1"}))
    assert members(maximal_equatorial_chains(p)) == ((2,), (1,))


def test_equatorial_chain_rejects_bad_chains():
    ungraded = make_poset("abcd", [("a", "b"), ("b", "c"), ("a", "d")])
    with pytest.raises(ValueError, match="not graded"):
        maximal_equatorial_chains(ungraded)
    with pytest.raises(ValueError, match="not graded"):
        equatorial_order_triangulation(ungraded)


def test_equatorial_chain_matches_both_oracles():
    """A chain of nonempty filters, those ending in the whole poset
    included, lies in a maximal equatorial chain exactly when the
    summed-map and the jump formulations call it equatorial."""
    rng = random.Random(7)
    posets = catalog_duals() + [random_graded_poset(rng) for _ in range(60)]
    for p in posets:
        idx = {f: i for i, f in enumerate(filter_sets(p, p.filters))}
        maximal = [set(m) for m in members(maximal_equatorial_chains(p))]
        for c in filter_chains(p):
            want = equatorial_by_map(p, c)
            assert equatorial_by_jumps(p, c) == want, (p, c)
            face = {idx[f] for f in c}
            assert any(face <= m for m in maximal) == want, (p, c)


def test_rw_triangulation_matches_canonical_volume():
    for p in (antichain(2), antichain(3), chain(3),
              make_poset("abcd", [("a", "c"), ("b", "c"), ("a", "d")])):
        eq_tri = equatorial_order_triangulation(p)
        n = len(p.elements)
        assert verify_triangulation(eq_tri, order_polytope_vertices(p), n,
                                    linear_extension_count(p)).ok


def test_ridge_check_matches_lp_oracle_order_polytopes():
    """Order polytopes are full-dimensional and their facets x_a <= x_b are
    not coordinate hyperplanes."""
    p = make_poset("abcd", [("a", "c"), ("b", "c"), ("a", "d")])
    cases = [(canonical_triangulation(p), p)]
    cases += [(equatorial_order_triangulation(q), q)
              for q in (antichain(2), antichain(3), chain(3), p)]
    for tri, q in cases:
        n, volume = len(q.elements), linear_extension_count(q)
        coords = order_polytope_vertices(q)
        assert verify_triangulation(tri, coords, n, volume).ok
        assert lp_triangulation_ok(tri, coords, n, volume)
        dropped = with_simplices(tri, tri.simplices[1:])
        assert not verify_triangulation(dropped, coords, n, volume - 1).ok


def test_order_polytope_count_matches_flow_count():
    from flowtri.geometry import lattice_counts
    for dag in (D1(), D2(), G(3), zigzag()):
        emb = PlanarEmbedding(
            zigzag_rotations() if dag.inner_count == 2 and len(dag.edges) == 7
            else stacked_rotations(dag))
        p = truncated_dual(dag, emb)
        for t in range(1, 4):
            assert brute_order_polytope_count(p, t) == lattice_counts(dag, t)[t]


def random_poset(rng: random.Random, max_size: int = 7) -> Poset:
    """Random strict relations along a random-size element list."""
    elems = [f"p{i}" for i in range(rng.randint(0, max_size))]
    return make_poset(elems, [(a, b) for i, a in enumerate(elems) for b in elems[i + 1:]
                              if rng.random() < 0.3])


def test_order_polytope_dp_matches_brute_force():
    rng = random.Random(41)
    for p in catalog_duals() + [random_poset(rng) for _ in range(40)]:
        assert planar.order_polytope_count(p, 4) == [
            brute_order_polytope_count(p, t) for t in range(1, 5)], p
        assert planar.order_polytope_count(p, 0) == []


def test_verify_equivalence_catalog():
    cases = [(G(3), PlanarEmbedding(stacked_rotations(G(3)))),
             (D1(), PlanarEmbedding(stacked_rotations(D1()))),
             (D2(), PlanarEmbedding(stacked_rotations(D2()))),
             (zigzag(), PlanarEmbedding(zigzag_rotations()))]
    for dag, emb in cases:
        rep = verify_equivalence(dag, emb, planar_dual(dag, emb))
        assert rep.ok, rep.issues


def maximal_equatorial_chains_oracle(poset):
    """Every chain of nonempty proper filters, tested one by one on its
    summed indicator map, then the quadratic inclusion-maximality filter."""
    proper = [f for f in filter_sets(poset, filters(poset)) if f and len(f) < len(poset.elements)]
    good = []

    def extend(chain, start):
        if chain and equatorial_by_map(poset, chain):
            good.append(tuple(chain))
        for i in range(start, len(proper)):
            if not chain or chain[-1] < proper[i]:
                chain.append(proper[i])
                extend(chain, i + 1)
                chain.pop()

    extend([], 0)
    keep = [c for c in good if not any(set(c) < set(d) for d in good if d != c)]
    return tuple(sorted(keep, key=lambda c: tuple(sorted(map(sorted, c)))))


def random_graded_poset(rng):
    """1-4 ranks of 1-2 elements; covers only join consecutive ranks, and
    every element has a cover into each neighbouring rank."""
    layers = [[f"r{j}e{i}" for i in range(rng.randint(1, 2))]
              for j in range(rng.randint(1, 4))]
    covers = set()
    for low, high in zip(layers, layers[1:]):
        for a in low:
            covers.add((a, rng.choice(high)))
        for b in high:
            covers.add((rng.choice(low), b))
        covers.update((a, b) for a in low for b in high if rng.random() < 0.3)
    return make_poset([p for layer in layers for p in layer], covers)


def skew_decomposition_framing(monkeypatch, dag) -> int:
    """Make ``verify_equivalence`` build a decomposition framing whose
    in-order at the first inner vertex is reversed; returns that vertex."""
    v = dag.inner_vertices[0]

    def skewed(dag, decomp):
        fr = decomposition_framing(dag, decomp)
        return Framing({**fr.in_order, v: fr.in_order[v][::-1]}, fr.out_order)

    monkeypatch.setattr(planar, "decomposition_framing", skewed)
    return v


def catalog_duals():
    return [truncated_dual(dag, emb) for dag, emb in catalog_embeddings()]


def test_pruned_equatorial_chains_match_unpruned_oracle():
    rng = random.Random(2024)
    posets = catalog_duals() + [random_graded_poset(rng) for _ in range(200)]
    for p in posets:
        assert p.graded
        assert members(maximal_equatorial_chains(p)) == \
            index_chains(p, maximal_equatorial_chains_oracle(p)), p


def test_order_sphere_facets_match_t_eq():
    """On the order side, the clique search inside each facet of
    ``_equatorial_filter_sets`` finds the facets ``t_eq`` walks to on the
    filters' comparability graph, both reading the same facet map, on the
    catalog duals and random graded posets; each facet's choice names one
    cover ``a<b`` into each rank from the second up; with any one facet's
    mask emptied it raises."""
    rng = random.Random(26)
    for p in catalog_duals() + [random_graded_poset(rng) for _ in range(60)]:
        facets, size = planar._equatorial_filter_sets(p)
        rank_into = {f"{a}<{b}": p.heights[b] for a, b in p.covers}
        ranks = list(range(2, max(p.heights.values(), default=0) + 1))
        assert all([rank_into[c] for c in t] == ranks for t in facets.values()), p
        graph = pairwise_comparability(p.filters)
        walked = equatorial.t_eq(graph, facets, size)
        assert tuple(_canonical(sphere_facets(graph, facets, size))) == walked.maximal_faces, p
        masks = list(facets)
        for k in range(len(masks) if size else 0):
            with pytest.raises(AssertionError, match="has size 0, expected"):
                sphere_facets(graph, masks[:k] + [0] + masks[k + 1:], size)


@pytest.mark.parametrize("dag,rotations", [(zigzag(), zigzag_rotations()),
                                            (D3(), stacked_rotations(D3()))],
                         ids=["zigzag", "D3"])
def test_disagreeing_framings_compare_the_planar_framings_cliques(dag, rotations,
                                                                  monkeypatch):
    """After a framing disagreement the chain/clique comparison lists the
    cliques of the planar framing, not of the decomposition framing: the
    decomposition framing is skewed here by reversing one in-order, which
    changes its cliques, and the chain/clique comparison still agrees."""
    emb = PlanarEmbedding(rotations)
    v = skew_decomposition_framing(monkeypatch, dag)
    rep = verify_equivalence(dag, emb, planar_dual(dag, emb))
    assert f"framings disagree at vertex {v}" in rep.issues
    assert not any(i.startswith("chain/clique") for i in rep.issues)


@pytest.mark.parametrize("dag,rotations,pair,join_face,clique_face", [
    (zigzag(), zigzag_rotations(), (1, 4),
     "[('1a', '1b'), ('1a', '2c'), ('2a', '2b', '2c'), ('2a', '3b'), ('3a', '3b')]",
     "[('1a', '1b'), ('1a', '2c'), ('2a', '2b', '2c'), ('2a', '3b'), ('3a', '3b')]"),
    (D2(), stacked_rotations(D2()), (1, 5),
     "[('a', 'c', 'e'), ('a', 'c', 'f'), ('a', 'd', 'f'), ('b', 'd', 'f')]",
     "[('a', 'c', 'e'), ('a', 'c', 'f'), ('b', 'c', 'f'), ('b', 'd', 'f')]"),
], ids=["zigzag", "D2"])
def test_equivalence_failure_texts(dag, rotations, pair, join_face, clique_face,
                                   monkeypatch):
    """The issues and simplex counts ``verify_equivalence`` reports when the
    flow side loses one simplex: the first facet of the equatorial sphere,
    whose join with the route simplex is the join's first simplex, or the
    cliques through one coherent route pair, cut from the planar framing's
    coherence graph after a skewed decomposition framing (see the test
    above)."""
    emb = PlanarEmbedding(rotations)
    dual = planar_dual(dag, emb)
    want = verify_equivalence(dag, emb, dual).order_simplices
    with monkeypatch.context() as m:
        corrupt_flow_side(m, faces=lambda faces, adj: faces[1:])
        rep = verify_equivalence(dag, emb, dual)
    assert rep.issues == (f"equatorial triangulations differ at {join_face}",)
    assert (rep.flow_simplices, rep.order_simplices) == (want - 1, want)

    v = skew_decomposition_framing(monkeypatch, dag)

    def pair_cut(adj):
        adj = list(adj)
        i, j = _members(route_mask(dag, all_routes(dag).routes, pair))
        assert adj[i] >> j & 1
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
        return tuple(adj)

    corrupt_flow_side(monkeypatch, graph=pair_cut)
    rep = verify_equivalence(dag, emb, dual)
    assert rep.issues == (f"framings disagree at vertex {v}",
                          f"chain/clique triangulations differ at {clique_face}")
    assert (rep.flow_simplices, rep.order_simplices) == (want, want)


def test_order_computes_each_planar_fact_once(tmp_path, monkeypatch, capsys):
    """One ``flowtri order`` run validates and traces the embedding once,
    builds the planar and the decomposition framing, one coherence graph,
    one route list and its route table, one table of the filters holding
    each element, one filter -> route map and one filter graph on the
    routes once each, and no filter comparability table; finds the
    rank-constant filters and the flow side's equatorial facet map
    (``equatorial_facets``) once, and finds an equatorial
    sphere's facets once per side, routes then filters, without walking
    either sphere.  A passing run compares graphs and spheres, so it
    searches cliques only inside equatorial facets, never in a whole graph,
    builds no join ``Triangulation``, and sorts nothing into canonical
    order but the levels of ``planar.filters``: the spheres are compared as
    sets."""
    modules = (cli, dagmod, dkk, equatorial, geometry, planar, quotient, routes)
    watched = (planar.validate_embedding, planar._trace, routes.decomposition_framing,
               dkk.coherence_graph, dkk._sized_cliques,
               equatorial.t_eq, equatorial.sphere_facets, equatorial.equatorial_facets,
               routes.enumerate_routes, routes.route_table,
               planar.filter_routes, planar._filter_graph, planar.rank_constant_filters)
    calls = {fn.__name__: 0 for fn in watched}
    within = []                       # the vertex mask of every clique search

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            if fn.__name__ == "_sized_cliques":
                within.append(args[2] if len(args) > 2 else kwargs.get("within"))
            return fn(*args, **kwargs)
        return wrapper

    for fn in watched:
        wrapper = counted(fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, wrapper)
    sorts = []                        # the function making each canonical sort

    def canonical(masks):
        sorts.append(sys._getframe(1).f_code.co_name)
        return _canonical(masks)

    for mod in modules:
        if vars(mod).get("_canonical") is _canonical:
            monkeypatch.setattr(mod, "_canonical", canonical)
    assert not hasattr(Poset, "comparability")
    holders = Poset.__dict__["holders"]
    calls[holders.func.__name__] = 0
    monkeypatch.setattr(holders, "func", counted(holders.func))
    calls["__init__"] = 0
    monkeypatch.setattr(dkk.Triangulation, "__init__", counted(dkk.Triangulation.__init__))
    graph, emb = tmp_path / "zigzag.json", tmp_path / "emb.json"
    graph.write_text(json.dumps(dag_to_json(zigzag())))
    emb.write_text(json.dumps(embedding_to_json(
        zigzag(), PlanarEmbedding(zigzag_rotations()))))
    assert cli.main(["order", str(graph), str(emb), "--max-dilate", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["equivalence"]["ok"]
    assert calls.pop("_sized_cliques") == len(within) > 0 and None not in within
    assert calls.pop("__init__") == calls.pop("t_eq") == 0
    assert calls.pop("sphere_facets") == 2
    assert calls == dict.fromkeys(calls, 1)
    elements = planar_dual(zigzag(), PlanarEmbedding(zigzag_rotations())).poset.elements
    assert sorts == ["filters"] * (len(elements) + 1)      # one sort per filter size


def corrupt_flow_side(monkeypatch, graph=None, faces=None) -> None:
    """Make ``verify_equivalence`` read the coherence graph ``graph(adj)``
    from every ``planar.coherence_graph`` call, with the flow sphere still
    found on the sound graph ``adj``, or the flow sphere's facets
    ``faces(facets, adj)``: what ``planar.sphere_facets`` finds on a
    coherence graph, not on the order side's graphs, handed to ``faces`` in
    canonical order and handed on as a set, as ``sphere_facets`` gives it."""
    build, search = planar.coherence_graph, planar.sphere_facets
    sound: dict[int, tuple] = {}      # id of a graph handed out -> (it, the sound graph)

    def coherence(*args):
        adj = build(*args)
        out = graph(adj) if graph else adj
        sound[id(out)] = (out, adj)
        return out

    def spheres(adj, masks, size):
        if id(adj) not in sound:
            return search(adj, masks, size)
        adj = sound[id(adj)][1]
        got = search(adj, masks, size)
        return set(faces(_canonical(got), adj)) if faces else got

    monkeypatch.setattr(planar, "coherence_graph", coherence)
    monkeypatch.setattr(planar, "sphere_facets", spheres)


CORRUPTIONS = ("none", "graph-swap", "graph-cut", "sphere-drop", "sphere-swap")


def corrupt(monkeypatch, kind: str, seed: int) -> None:
    """Make ``verify_equivalence`` read a corrupted coherence graph (two
    routes swapped, or one coherent pair cut) or flow sphere (one facet
    dropped, or two routes swapped in every facet), picked by ``seed`` the
    same way on every call (``corrupt_flow_side``)."""
    def pick(adj) -> tuple[random.Random, int, int]:
        rng = random.Random(seed)
        return rng, *rng.sample(range(len(adj)), 2)

    def swap(m: int, i: int, j: int) -> int:
        return m ^ (1 << i | 1 << j) if (m >> i ^ m >> j) & 1 else m

    def graph(adj):
        rng, i, j = pick(adj)
        adj = list(adj)
        if kind == "graph-swap":
            adj = [swap(m, i, j) for m in adj]
            adj[i], adj[j] = adj[j], adj[i]
        elif kind == "graph-cut":
            i = rng.choice([k for k, m in enumerate(adj) if m])
            j = rng.choice(_members(adj[i]))
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
        return tuple(adj)

    def faces(found, adj):
        rng, i, j = pick(adj)
        found = list(found)
        if kind == "sphere-drop":
            del found[rng.randrange(len(found))]
        elif kind == "sphere-swap":
            found = _canonical([swap(f, i, j) for f in found])
        return tuple(found)

    corrupt_flow_side(monkeypatch, graph, faces)


def outcome(check, *args):
    """The report of a check, or the kind and text of what it raised."""
    try:
        return check(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_verify_equivalence_matches_the_listing_oracle_catalog(kind, monkeypatch):
    """Comparing graphs and spheres gives the report, or the error, that
    listing both sides' cliques and joins gives, on the catalog graphs with
    a sound or a corrupted coherence graph or sphere; each corruption makes
    its half fail, so its listing fallback runs."""
    cases = [(dag, stacked_rotations(dag)) for dag in (D1(), D2(), D3(), G(3))]
    cases.append((zigzag(), zigzag_rotations()))
    seen = []
    for seed, (dag, rotations) in enumerate(cases * 3):
        emb = PlanarEmbedding(rotations)
        dual = planar_dual(dag, emb)
        with monkeypatch.context() as m:
            corrupt(m, kind, seed)
            got = outcome(verify_equivalence, dag, emb, dual)
            assert got == outcome(old_verify_equivalence, dag, emb, dual), (dag, seed)
        seen.append(got)
    reports = [r for r in seen if isinstance(r, planar.EquivalenceReport)]
    if kind == "none":
        assert len(reports) == len(seen) and all(r.ok for r in reports)
    else:
        half = "chain/clique" if kind.startswith("graph") else "equatorial"
        assert {i.split(" triangulations")[0] for r in reports for i in r.issues} == {half}


@settings(max_examples=40, deadline=None)
@given(draw=st.integers(0, 2**32 - 1), kind=st.sampled_from(CORRUPTIONS),
       seed=st.integers(0, 2**16))
def test_verify_equivalence_matches_the_listing_oracle_graded(draw, kind, seed):
    """The same on graded posets rebuilt as planar graphs."""
    try:
        dag, emb = poset_to_dag(random_graded_poset(random.Random(draw)))
    except ValueError:                  # a Hasse drawing with crossing covers
        assume(False)
    assume(degree_equality(dag) and not idle_edges(dag))
    dual = planar_dual(dag, emb)
    with pytest.MonkeyPatch.context() as m:
        corrupt(m, kind, seed)
        assert outcome(verify_equivalence, dag, emb, dual) == \
            outcome(old_verify_equivalence, dag, emb, dual)


def flow_walk_routes(dual: PlanarDual, dag, routes) -> tuple[int, ...]:
    """Filter index -> route index, by the flow-walk oracle: each filter's
    indicator map turned into edge flows and walked from the source."""
    index = {r: j for j, r in enumerate(routes)}
    elements = dual.poset.elements
    return tuple(index[route_of_flow(dag, order_to_flow(dual, {p: int(p in f) for p in elements}))]
                 for f in filter_sets(dual.poset, dual.poset.filters))


def test_filter_routes_match_the_flow_walk_oracle():
    """``filter_routes`` sends each filter to the route the flow walk finds,
    filter by filter, on the catalog duals, on 40 graded posets rebuilt as
    planar graphs, and on the 1,010-filter chain of G(1010)."""
    rng = random.Random(20)
    cases = [(dag, PlanarEmbedding(stacked_rotations(dag))) for dag in (D1(), D2(), D3(), G(3))]
    cases.append((zigzag(), PlanarEmbedding(zigzag_rotations())))
    graded = []
    while len(graded) < 40:
        try:
            graded.append(poset_to_dag(random_graded_poset(rng)))
        except ValueError:              # a Hasse drawing with crossing covers
            pass
    big = G(1010)
    for dag, emb in cases + graded + [(big, PlanarEmbedding(stacked_rotations(big)))]:
        dual, table = planar_dual(dag, emb), all_routes(dag)
        assert filter_routes(dag, dual, table) == flow_walk_routes(dual, dag, table.routes), dag
    assert len(dual.poset.filters) == 1010


@pytest.mark.parametrize("dag,rotations,other,cut", [
    (D2(), stacked_rotations(D2()), D1(), "['a', 'c']"),
    (D1(), stacked_rotations(D1()), D2(), "['a', 'c', 'e']"),
    (D3(), stacked_rotations(D3()), G(3), "['g1']"),
    (zigzag(), zigzag_rotations(), D2(), "['a', 'c', 'e']"),
], ids=["D2-D1", "D1-D2", "D3-G3", "zigzag-D2"])
def test_verify_equivalence_rejects_another_graphs_dual(dag, rotations, other, cut):
    """Given the dual of another graph, ``verify_equivalence`` names a
    filter whose cut is not a route of the graph: here the empty filter,
    whose cut is the other graph's topmost route."""
    dual = planar_dual(other, PlanarEmbedding(stacked_rotations(other)))
    with pytest.raises(ValueError) as exc:
        verify_equivalence(dag, PlanarEmbedding(rotations), dual)
    assert str(exc.value) == f"filter [] cuts {cut}, which is not a route"


def test_filter_routes_name_two_filters_on_one_route():
    """A dual element that no edge touches leaves two filters cutting the
    same edges: the empty filter and the one holding just that element."""
    d1 = D1()
    emb = PlanarEmbedding(stacked_rotations(d1))
    dual = planar_dual(d1, emb)
    padded = PlanarDual(Poset(dual.poset.elements + ("z",), dual.poset.covers),
                        dual.cover_of_edge, dual.framing)
    with pytest.raises(ValueError) as exc:
        verify_equivalence(d1, emb, padded)
    assert str(exc.value) == "filters [] and ['z'] both cut route ('a', 'c')"


def test_order_sphere_f_vector_equals_flow_sphere():
    """On the catalog planar graphs, the equatorial chain sphere that
    ``t_eq`` walks over the filters, inside the facets that
    ``maximal_equatorial_chains`` searches, has the f-vector of the flow
    side's equatorial sphere, and ``sphere_facets`` finds its facets in the
    same facet map."""
    cases = [(dag, stacked_rotations(dag)) for dag in (D1(), D2(), D3(), G(3))]
    for dag, rotations in cases + [(zigzag(), zigzag_rotations())]:
        emb = PlanarEmbedding(rotations)
        dual = planar_dual(dag, emb)
        facets, size = planar._equatorial_filter_sets(dual.poset)
        graph = pairwise_comparability(dual.poset.filters)
        order = equatorial.t_eq(graph, facets, size)
        assert set(order.maximal_faces) == sphere_facets(graph, facets, size), dag
        decomp = topmost_route_decomposition(dag, emb, dual.framing)
        flow = equatorial.equatorial_sphere(dag, decomp)[3]
        assert order.f_vector == flow.f_vector, dag
