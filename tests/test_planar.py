import json
import random
from itertools import permutations

import pytest

from flowtri import cli, dkk, equatorial, geometry, planar, quotient, routes
from flowtri import dag as dagmod
from flowtri.dag import (D1, D2, D3, G, dag_to_json, stacked_rotations, zigzag,
                         zigzag_rotations)
from flowtri.geometry import verify_triangulation
from flowtri.planar import (BOTTOM, TOP, PlanarDual, PlanarEmbedding, Poset,
                            canonical_triangulation, embedding_from_json,
                            embedding_to_json, filters, make_poset,
                            maximal_equatorial_chains, maximal_filter_chains,
                            order_to_flow, planar_dual, planar_framing,
                            poset_to_dag, poset_to_json,
                            rank_constant_filters, route_of_flow,
                            equatorial_order_triangulation,
                            topmost_route_decomposition,
                            validate_embedding, verify_equivalence)
from flowtri.routes import Framing, Route, decomposition_framing, enumerate_routes
from tests.conftest import (brute_order_polytope_count, equatorial_by_jumps,
                            equatorial_by_map, extension_filter_chains,
                            filter_chains, flow_to_order, linear_extension_count,
                            lp_triangulation_ok, order_polytope_vertices,
                            pairwise_comparability, poset_from_json,
                            recursive_heights, recursive_up_sets,
                            subset_scan_filters)


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
    """Chains of filters as ascending tuples of ``poset.filters`` indices,
    in lexicographic order."""
    idx = {f: i for i, f in enumerate(poset.filters)}
    return tuple(sorted(tuple(sorted(idx[f] for f in c)) for c in chains))


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
    fs = filters(p)
    assert p.filters == fs
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
            assert filters(q) == subset_scan_filters(q), q
            assert q.heights == recursive_heights(q), q
            assert q.up_sets == recursive_up_sets(q), q
            assert maximal_filter_chains(q) == \
                index_chains(q, extension_filter_chains(q)), q


def test_cyclic_cover_relation_raises_from_heights():
    cyclic = Poset(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "b"), ("a", "d")))
    with pytest.raises(ValueError, match="cycle"):
        cyclic.heights
    with pytest.raises(ValueError, match="cycle"):
        Poset(("a",), (("a", "a"),)).heights


def test_comparability_table_matches_pairwise_oracle(monkeypatch):
    """``Poset.comparability`` equals the pair-by-pair comparability graph
    of the filters, and the rows ``maximal_equatorial_chains`` hands to
    ``t_eq`` equal the pair-by-pair graph of the nonempty proper filters,
    on graded and ungraded posets with their elements shuffled and on a
    600-element chain."""
    adjacency = []

    def kept(adj, facets, size):
        adjacency.append(adj)
        return equatorial.t_eq(adj, facets, size)

    monkeypatch.setattr(planar, "t_eq", kept)
    rng = random.Random(12)
    posets = [random_poset(rng) for _ in range(40)] + \
        [random_graded_poset(rng) for _ in range(40)]
    names = tuple(f"p{i:03d}" for i in range(600))
    long_chain = Poset(names, tuple(zip(names, names[1:])))
    shuffled = [Poset(tuple(rng.sample(p.elements, len(p.elements))), p.covers)
                for p in catalog_duals() + posets]
    assert sum(p.graded for p in shuffled) >= 45 and not all(p.graded for p in shuffled)
    for p in shuffled + [long_chain]:
        assert p.comparability == pairwise_comparability(p.filter_masks), p
        if p.graded:
            adjacency.clear()
            maximal_equatorial_chains(p)
            assert adjacency == [list(pairwise_comparability(p.filter_masks[1:-1]))], p


def test_600_element_chain_without_recursion():
    names = tuple(f"p{i:03d}" for i in range(600))
    p = Poset(names, tuple(zip(names, names[1:])))
    assert p.heights == {q: i + 1 for i, q in enumerate(names)}
    assert p.graded and names[-1] in p.up_sets[names[0]]
    assert p.filters == tuple(frozenset(names[k:]) for k in range(600, -1, -1))


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
    pf = planar_framing(d2, emb)
    decomp = topmost_route_decomposition(d2, emb, pf)
    df = decomposition_framing(d2, decomp)
    assert pf.in_order == df.in_order and pf.out_order == df.out_order


def test_topmost_decomposition_d2():
    d2 = D2()
    emb = PlanarEmbedding(stacked_rotations(d2))
    decomp = topmost_route_decomposition(d2, emb, planar_framing(d2, emb))
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
        decomp = topmost_route_decomposition(dag, emb, planar_framing(dag, emb))
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
    assert all(len(s) == 5 for s in tri.simplices)
    assert verify_triangulation(tri, 4, len(tri.simplices)).ok
    assert linear_extension_count(chain(3)) == 1
    assert linear_extension_count(antichain(3)) == 6


def test_rank_constant_filters():
    p = chain(2)                      # p0 < p1
    assert rank_constant_filters(p) == (
        frozenset({"p0", "p1"}), frozenset({"p1"}), frozenset())
    with pytest.raises(ValueError):
        rank_constant_filters(make_poset("abcd", [("a", "b"), ("b", "c"), ("a", "d")]))


def test_equatorial_chains_antichain_2():
    p = antichain(2)
    assert equatorial_by_map(p, [frozenset({"q0"})])
    assert equatorial_by_map(p, [frozenset({"q1"})])
    assert not equatorial_by_map(p, [frozenset({"q0"}), frozenset({"q0", "q1"})])
    assert p.filters[1:3] == (frozenset({"q0"}), frozenset({"q1"}))
    assert maximal_equatorial_chains(p) == ((1,), (2,))


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
        idx = {f: i for i, f in enumerate(p.filters)}
        maximal = [set(m) for m in maximal_equatorial_chains(p)]
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
        assert verify_triangulation(eq_tri, n, linear_extension_count(p)).ok


def test_ridge_check_matches_lp_oracle_order_polytopes():
    """Order polytopes are full-dimensional and their facets x_a <= x_b are
    not coordinate hyperplanes."""
    p = make_poset("abcd", [("a", "c"), ("b", "c"), ("a", "d")])
    cases = [(canonical_triangulation(p), p)]
    cases += [(equatorial_order_triangulation(q), q)
              for q in (antichain(2), antichain(3), chain(3), p)]
    for tri, q in cases:
        n, volume = len(q.elements), linear_extension_count(q)
        assert verify_triangulation(tri, n, volume).ok
        assert lp_triangulation_ok(tri, n, volume)
        dropped = geometry.Triangulation(tri.simplices[1:], tri.labels, tri.coords)
        assert not verify_triangulation(dropped, n, volume - 1).ok


def test_order_polytope_count_matches_flow_count():
    from flowtri.geometry import count_lattice_points
    for dag in (D1(), D2(), G(3), zigzag()):
        emb = PlanarEmbedding(
            zigzag_rotations() if dag.inner_count == 2 and len(dag.edges) == 7
            else stacked_rotations(dag))
        p = truncated_dual(dag, emb)
        for t in range(1, 4):
            assert brute_order_polytope_count(p, t) == count_lattice_points(dag, t)


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
    proper = [f for f in filters(poset) if f and len(f) < len(poset.elements)]
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
    duals = [truncated_dual(dag, PlanarEmbedding(stacked_rotations(dag)))
             for dag in (D1(), D2(), D3(), G(3))]
    return duals + [truncated_dual(zigzag(), PlanarEmbedding(zigzag_rotations()))]


def test_pruned_equatorial_chains_match_unpruned_oracle():
    rng = random.Random(2024)
    posets = catalog_duals() + [random_graded_poset(rng) for _ in range(200)]
    for p in posets:
        assert p.graded
        assert maximal_equatorial_chains(p) == \
            index_chains(p, maximal_equatorial_chains_oracle(p)), p


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
    flow side loses one simplex: the first simplex of the join with the
    route simplex, or the cliques through one coherent route pair, cut from
    the planar framing's coherence graph after a skewed decomposition
    framing (see the test above)."""
    emb = PlanarEmbedding(rotations)
    dual = planar_dual(dag, emb)
    want = verify_equivalence(dag, emb, dual).order_simplices
    join = planar.join_route_simplex

    def first_dropped(*args):
        tri = join(*args)
        return geometry.Triangulation(tri.simplices[1:], tri.labels, tri.coords)

    with monkeypatch.context() as m:
        m.setattr(planar, "join_route_simplex", first_dropped)
        rep = verify_equivalence(dag, emb, dual)
    assert rep.issues == (f"equatorial triangulations differ at {join_face}",)
    assert (rep.flow_simplices, rep.order_simplices) == (want - 1, want)

    v = skew_decomposition_framing(monkeypatch, dag)
    graph = planar.coherence_graph

    def pair_cut(*args):
        adj = list(graph(*args))
        i, j = pair
        assert adj[i] >> j & 1
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
        return tuple(adj)

    monkeypatch.setattr(planar, "coherence_graph", pair_cut)
    rep = verify_equivalence(dag, emb, dual)
    assert rep.issues == (f"framings disagree at vertex {v}",
                          f"chain/clique triangulations differ at {clique_face}")
    assert (rep.flow_simplices, rep.order_simplices) == (want, want)


def test_order_computes_each_planar_fact_once(tmp_path, monkeypatch, capsys):
    """One ``flowtri order`` run validates and traces the embedding once,
    builds the planar and the decomposition framing, one coherence graph,
    one route list and one filter comparability table once each, turns
    each filter into a route at most once, and lists maximal cliques and
    walks an equatorial sphere once per side: routes, then filters."""
    n_filters = len(truncated_dual(zigzag(), PlanarEmbedding(zigzag_rotations())).filters)
    modules = (cli, dagmod, dkk, equatorial, geometry, planar, quotient, routes)
    watched = (planar.validate_embedding, planar._trace, planar.planar_framing,
               routes.decomposition_framing, dkk.coherence_graph, dkk.max_cliques,
               equatorial.t_eq, routes.enumerate_routes, planar.route_of_flow)
    calls = {fn.__name__: 0 for fn in watched}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in watched:
        wrapper = counted(fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, wrapper)
    table = Poset.__dict__["comparability"]
    calls[table.func.__name__] = 0
    monkeypatch.setattr(table, "func", counted(table.func))
    graph, emb = tmp_path / "zigzag.json", tmp_path / "emb.json"
    graph.write_text(json.dumps(dag_to_json(zigzag())))
    emb.write_text(json.dumps(embedding_to_json(
        zigzag(), PlanarEmbedding(zigzag_rotations()))))
    assert cli.main(["order", str(graph), str(emb), "--max-dilate", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["equivalence"]["ok"]
    assert 0 < calls.pop("route_of_flow") <= n_filters
    assert calls.pop("max_cliques") == calls.pop("t_eq") == 2
    assert calls == dict.fromkeys(calls, 1)


def test_order_sphere_f_vector_equals_flow_sphere(monkeypatch):
    """On the catalog planar graphs, the equatorial chain sphere that
    ``t_eq`` walks over the filters has the f-vector of the flow side's
    equatorial sphere."""
    spheres = []

    def kept(*args):
        spheres.append(equatorial.t_eq(*args))
        return spheres[-1]

    monkeypatch.setattr(planar, "t_eq", kept)
    cases = [(dag, stacked_rotations(dag)) for dag in (D1(), D2(), D3(), G(3))]
    for dag, rotations in cases + [(zigzag(), zigzag_rotations())]:
        emb = PlanarEmbedding(rotations)
        spheres.clear()
        maximal_equatorial_chains(planar_dual(dag, emb).poset)
        decomp = topmost_route_decomposition(dag, emb, planar_framing(dag, emb))
        flow = equatorial.equatorial_sphere(dag, decomp)[3]
        assert [s.f_vector for s in spheres] == [flow.f_vector], dag
