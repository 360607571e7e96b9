"""Shared generators and independent brute-force oracles."""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, gcd
from operator import mul
from typing import Iterable, Mapping, Sequence

import pytest
from hypothesis import strategies as st

from flowtri import dkk, equatorial, geometry, planar
from flowtri.dag import (SOURCE, Dag, contract_idle_edges, dimension, gorenstein_completion,
                         make_dag, random_dag, validate)
from flowtri.dkk import (Triangulation, TriangulationReport, dkk_triangulation,
                        exceptional_routes)
from flowtri.equatorial import (Sphere, Transversal, _all_framings,
                                equatorial_sphere, joined_simplices)
from flowtri.geometry import (_canonical, _mask, _members, ehrhart_hstar, euler_characteristic,
                              h_from_f, normalized_volume)
from flowtri.planar import BOTTOM, TOP, PlanarDual, Poset, make_poset, rank_constant_filters
from flowtri.quotient import (LeveledSpace, QuotientPolytope, ReflexiveReport, _Lanes,
                              edge_labels)
from flowtri.routes import (Framing, Route, RouteTable, decomposition_framing,
                            enumerate_routes, graph_table, route_decomposition)

Vector = tuple[int, ...]


def random_balanced_dag(rng: random.Random, max_edges: int = 9) -> Dag:
    """Idle-free DAG satisfying degree equality, at most ``max_edges`` edges."""
    while True:
        dag = gorenstein_completion(random_dag(rng, max_edges - 1))
        try:
            dag, _ = contract_idle_edges(dag)
        except ValueError:
            continue
        if dag.inner_count and len(dag.edges) <= max_edges and validate(dag).ok:
            return dag


def rescan_contract_idle_edges(dag: Dag) -> tuple[Dag, dict[str, str | None]]:
    """Contract idle edges until none remain, rescanning every edge for
    every vertex at each step: the oracle for ``dag.contract_idle_edges``.

    An edge is idle when it is the sole incoming or sole outgoing edge of an
    inner vertex.  At every step the lexicographically smallest idle edge id
    is contracted.  The returned map sends every original edge id to its
    surviving id, or to ``None`` for edges that got contracted away.
    """
    # work on original vertex labels, renumber once at the end
    verts = list(range(dag.sink + 1))
    edges = {e.id: (e.tail, e.head) for e in dag.edges}
    order = [e.id for e in dag.edges]
    mapping: dict[str, str | None] = {eid: eid for eid in order}
    s, t = SOURCE, dag.sink
    while True:
        if not edges:
            raise ValueError("trivial graph")
        idle: list[str] = []
        for v in verts:
            if v in (s, t):
                continue
            ins = [i for i, (a, b) in edges.items() if b == v]
            outs = [i for i, (a, b) in edges.items() if a == v]
            if len(ins) == 1:
                idle.append(ins[0])
            if len(outs) == 1:
                idle.append(outs[0])
        if not idle:
            break
        eid = min(idle)
        a, b = edges.pop(eid)
        mapping[eid] = None
        ins_b = [i for i, (x, y) in edges.items() if y == b]
        # sole in-edge of b: fold b into a (position a keeps tails < heads);
        # sole out-edge of a: fold a into b, which must sit at b's position
        # because other edges into b may leave vertices between a and b
        gone, keep = (b, a) if not ins_b else (a, b)
        edges = {
            i: (keep if x == gone else x, keep if y == gone else y)
            for i, (x, y) in edges.items()
        }
        verts.remove(gone)
        if gone == s:
            s = keep
        if gone == t:
            t = keep
    # renumber surviving vertices to 0..n'+1 preserving relative order
    renum = {v: i for i, v in enumerate(sorted(verts))}
    if renum[s] != 0 or renum[t] != len(verts) - 1:
        raise AssertionError("contraction moved the source or the sink off the ends")
    new_edges = [(eid, renum[edges[eid][0]], renum[edges[eid][1]]) for eid in order if eid in edges]
    return make_dag(len(verts) - 2, new_edges), mapping


def chain(k: int, m: int) -> Dag:
    """k consecutive bundles of m parallel edges: a product of k
    (m-1)-simplices, of dimension k(m-1)."""
    return make_dag(k - 1, [(f"b{i}.{j}", i, i + 1) for i in range(k) for j in range(m)])


# perfbench's gen.route_union(Random(1), 3, 5, .5), written out: dim 10, 51
# routes, 144 transversals and 1,106 DKK simplices.
RU351 = make_dag(3, [("e00", 0, 1), ("e01", 0, 1), ("e02", 0, 1), ("e03", 0, 2),
                     ("e04", 0, 3), ("e05", 1, 2), ("e06", 1, 3), ("e07", 1, 4),
                     ("e08", 2, 3), ("e09", 2, 3), ("e10", 3, 4), ("e11", 3, 4),
                     ("e12", 3, 4), ("e13", 3, 4)])


def bundle_dag(inner_count: int, bundles: Sequence[tuple[int, int, int]]) -> Dag:
    """The graph with ``count`` parallel edges tail -> head for each
    (tail, head, count), ids e00, e01, ... in that order."""
    steps = [(a, b) for a, b, count in bundles for _ in range(count)]
    return make_dag(inner_count, [(f"e{j:02d}", a, b) for j, (a, b) in enumerate(steps)])


# perfbench's gen.route_union(Random(s), n, k, p) as ru(n, k, p, s), written
# out: RU441 (dim 11, 160 routes, 55,440 DKK simplices), RU341 (chain 4x4 with
# e-ids: dim 12, 256 routes, 369,600) and RU452 (dim 14, 235 routes, 989,054).
RU441 = bundle_dag(4, [(0, 1, 4), (1, 2, 2), (1, 4, 2), (2, 3, 2), (3, 4, 2), (4, 5, 4)])
RU341 = bundle_dag(3, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 4, 4)])
RU452 = bundle_dag(4, [(0, 1, 4), (0, 2, 1), (1, 2, 2), (1, 3, 2), (2, 3, 2), (2, 4, 1),
                       (3, 4, 2), (3, 5, 2), (4, 5, 3)])


def stacked_rotations(dag: Dag) -> dict[int, tuple[str, ...]]:
    """Rotation system for catalog graphs drawn with parallel edges stacked.

    Edges at each vertex are stacked by ascending id from top to bottom,
    which matches the lexicographic conventions used throughout.  Only
    correct for graphs whose drawing really is a stack of parallel strands
    (G(k), D1, D2, D3).
    """
    rot = {}
    for v in range(dag.sink + 1):
        outs = sorted(e.id for e in dag.out_edges(v))
        ins = sorted(e.id for e in dag.in_edges(v))
        if v == SOURCE:
            rot[v] = tuple(reversed(outs))        # bottom-to-top, ccw
        elif v == dag.sink:
            rot[v] = tuple(ins)                   # top-to-bottom, ccw
        else:
            rot[v] = tuple(reversed(outs)) + tuple(ins)
    return rot


def zigzag_rotations() -> dict[int, tuple[str, ...]]:
    """Rotation system for the drawing described in ``dag.zigzag``."""
    return {
        0: ("1a", "2a", "3a"),
        1: ("2b", "3b", "3a", "2a"),
        2: ("1b", "2c", "2b", "1a"),
        3: ("3b", "2c", "1b"),
    }


def random_framing(rng: random.Random, dag: Dag) -> Framing:
    """Uniformly random in- and out-orders at every inner vertex."""
    def shuffled(edges) -> tuple[str, ...]:
        ids = sorted(e.id for e in edges)
        rng.shuffle(ids)
        return tuple(ids)
    return Framing({v: shuffled(dag.in_edges(v)) for v in dag.inner_vertices},
                   {v: shuffled(dag.out_edges(v)) for v in dag.inner_vertices})


@st.composite
def route_unions(draw, max_inner: int = 3, max_routes: int = 4) -> Dag:
    """Union of 2..max_routes s-t routes over inner vertices 1..n, each
    bringing its own edges; a vertex on fewer than two drawn routes is
    added to the first routes that miss it, so the routes are a
    decomposition and no edge is idle."""
    n = draw(st.integers(1, max_inner))
    k = draw(st.integers(2, max_routes))
    visits = [set(r) for r in draw(st.lists(st.sets(st.integers(1, n)),
                                             min_size=k, max_size=k))]
    for v in range(1, n + 1):
        while sum(v in r for r in visits) < 2:
            next(r for r in visits if v not in r).add(v)
    steps = sorted((a, b) for r in visits
                   for a, b in zip([SOURCE] + sorted(r), sorted(r) + [n + 1]))
    return make_dag(n, [(f"e{j:02d}", a, b) for j, (a, b) in enumerate(steps)])


def all_routes(dag: Dag) -> RouteTable:
    """The route table of the graph's whole route list, routes last-first
    (``routes.graph_table``), which the library's readers of routes
    (``coherence_graph``, ``equatorial_facets`` and the rest) take in place
    of the list."""
    return graph_table(dag)


def route_mask(dag: Dag, labels: Sequence[Route], indices: Iterable[int]) -> int:
    """The mask over ``labels`` of the routes with the given indices in
    ``enumerate_routes`` order: how a test names routes by number."""
    routes = enumerate_routes(dag)
    return _mask(labels.index(routes[i]) for i in indices)


def sphere(dag: Dag, decomp: tuple[Route, ...]) -> Sphere:
    """T_eq of a decomposition, with its f-vector."""
    return equatorial_sphere(dag, decomp)[3]


def equatorial_flow_triangulation(dag: Dag, decomp: Sequence[Route]) -> Triangulation:
    """Join of the equatorial sphere with the route simplex, on the graph's
    route list."""
    table, _, _, teq = equatorial_sphere(dag, decomp)
    return Triangulation(joined_simplices(dag, table, decomp, teq), table.routes)


def indicator_vector(dag: Dag, route: Route) -> Vector:
    """0/1 vector over the edge coordinate order of the DAG: the vertex of
    the flow polytope that the route is."""
    chi = [0] * len(dag.edges)
    for eid in route:
        chi[dag.edge_index[eid]] = 1
    return tuple(chi)


def route_vectors(dag: Dag, routes: Iterable[Route]) -> tuple[Vector, ...]:
    """The indicator vectors of ``routes``: the coordinates of a route
    triangulation's vertices, which the geometric oracles below take."""
    return tuple(indicator_vector(dag, r) for r in routes)


def members(simplices: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The member tuples of simplex or face masks, in the given order: how
    the tests read the library's simplices, and the form the tuple-based
    oracles below take.  Tests build masks with ``geometry._mask``."""
    return tuple(map(_members, simplices))


def member_list_report(command: str, dag: Dag, digest: str,
                       certified: tuple[Triangulation, TriangulationReport] | None) -> dict:
    """The report ``flowtri dkk`` or ``flowtri equatorial`` prints for
    ``dag`` and the default decomposition, with every simplex and face a
    list of route lists (lists of edge ids), built from library calls as
    the CLI built it before its reports held faces as masks.  ``certified``
    is the triangulation the CLI's ``dkk`` run handed the certificate and
    the certificate's report, which is reused once that triangulation is
    checked to be the one built here, so the certificate does not run twice."""
    decomp = route_decomposition(dag)
    report: dict = {"command": command, "digest": digest}

    def route_lists(routes: Sequence[Route], faces: Iterable[int]) -> list:
        return [[list(routes[i]) for i in face] for face in members(faces)]

    if command == "dkk":
        tri = dkk_triangulation(dag, decomposition_framing(dag, decomp))
        checked, check = certified
        assert checked == tri, "the certificate ran on another triangulation"
        return {**report, "routes": len(tri.labels),
                "simplices": route_lists(tri.labels, tri.simplices),
                "exceptional_routes": [list(r) for r in exceptional_routes(tri)],
                "triangulation_ok": check.ok, "issues": list(check.issues)}
    table, _, facets, teq = equatorial_sphere(dag, decomp)
    routes = table.routes
    h, h_star = h_from_f(teq.f_vector), ehrhart_hstar(dag).h_star
    return {**report, "decomposition": [list(r) for r in decomp],
            "facets": [{"transversal": list(facets[rs]), "routes": route_lists(routes, [rs])[0]}
                       for rs in _canonical(facets)],
            "sphere": {"maximal_faces": route_lists(routes, teq.maximal_faces),
                       "f_vector": list(teq.f_vector),
                       "euler_characteristic": euler_characteristic(teq.f_vector)},
            "simplices": route_lists(routes, joined_simplices(dag, table, decomp, teq)),
            "h_vector": list(h), "h_star": list(h_star),
            "h_equals_h_star": list(h) == list(h_star[:len(h)]) and not any(h_star[len(h):])}


@dataclass(frozen=True)
class Complex:
    """A simplicial complex stored by its maximal faces, for the oracles."""

    maximal_faces: tuple[tuple, ...]


def f_vector(cpx) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_{d-1}) of a complex given by its maximal faces:
    the distinct faces of each size, counted as sorted tuples of the
    maximal faces' vertices, one size at a time."""
    maximal = [tuple(sorted(f)) for f in cpx.maximal_faces]
    d = max(map(len, maximal), default=0)
    return (1,) + tuple(len({c for f in maximal for c in combinations(f, k)})
                        for k in range(1, d + 1))


def h_polynomial(cpx) -> tuple[int, ...]:
    """The h-vector of a complex (see ``geometry.h_from_f``).  Coning leaves
    it unchanged, so a join with a simplex has the h-vector of the complex."""
    return h_from_f(f_vector(cpx))


def ridges_in_two_facets(cpx) -> bool:
    """Pseudomanifold condition: every codimension-1 face of a maximal face
    lies in exactly two maximal faces."""
    faces = [tuple(sorted(f)) for f in cpx.maximal_faces]
    owners = Counter(f[:i] + f[i + 1:] for f in faces for i in range(len(f)))
    return all(n == 2 for n in owners.values())


def is_pure(cpx: Complex) -> bool:
    """All maximal faces have one size."""
    return len({len(f) for f in cpx.maximal_faces}) <= 1


def complex_euler_characteristic(cpx: Complex) -> int:
    return euler_characteristic(f_vector(cpx))


def hstar_by_binomials(counts: Sequence[int]) -> tuple[int, ...]:
    """h*_j = sum_i (-1)^i C(d+1, i) L(j-i) for the counts L(0..d): the
    oracle for ``ehrhart_hstar``'s successive differences."""
    d = len(counts) - 1
    return tuple(sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))
                 for j in range(d + 1))


def route_vertices(dag: Dag, route: Route) -> tuple[int, ...]:
    """Vertex sequence s, ..., t visited by the route."""
    return (SOURCE,) + tuple(dag.edge_by_id[eid].head for eid in route)


def trimmed(seq) -> tuple:
    """Drop trailing zeros, keeping at least one entry."""
    out = list(seq)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def is_gorenstein(dag: Dag) -> bool:
    """h*-palindromicity, which ``ehrhart_hstar`` cross-checks against
    degree equality on idle-free graphs."""
    h = trimmed(ehrhart_hstar(dag).h_star)
    return h == h[::-1]


def has_route_partition(dag: Dag) -> bool:
    """Exhaustive search for a partition of the edge set into routes.

    Any partition must contain a route through the smallest unused
    source edge, so branching on that edge's continuations is complete.
    """
    seen: dict[frozenset, bool] = {}

    def routes_from(v: int, live: frozenset) -> list[list[str]]:
        if v == dag.sink:
            return [[]]
        out = []
        for e in dag.out_edges(v):
            if e.id in live:
                out.extend([e.id] + tail for tail in routes_from(e.head, live))
        return out

    def solve(live: frozenset) -> bool:
        if not live:
            return True
        if live in seen:
            return seen[live]
        starts = [e for e in dag.out_edges(0) if e.id in live]
        ok = False
        if starts:
            first = min(starts, key=lambda e: e.id)
            for route in routes_from(first.head, live):
                if solve(live - {first.id} - set(route)):
                    ok = True
                    break
        seen[live] = ok
        return ok

    return solve(frozenset(e.id for e in dag.edges))


# ---------------------------------------------------------------------------
# Pairwise and quadratic oracles for the mask-based dkk and equatorial code

def _cmp(dag: Dag, framing: Framing, p_at: Mapping[int, str],
         q_at: Mapping[int, str], v: int, forward: bool) -> int:
    """Compare two routes through v at their first divergence, scanning
    forwards from v (out-orders) or backwards from v (in-orders); -1 means
    p's side is the smaller one.  ``p_at`` and ``q_at`` map a vertex to the
    route's edge leaving it (forwards) or entering it (backwards)."""
    orders, stop = (framing.out_order, dag.sink) if forward else (framing.in_order, SOURCE)
    w = v
    while w != stop:
        a, b = p_at[w], q_at[w]
        if a != b:
            return -1 if orders[w].index(a) < orders[w].index(b) else 1
        e = dag.edge_by_id[a]
        w = e.head if forward else e.tail
    return 0


def _steps(dag: Dag, route: Route) -> tuple[dict[int, str], dict[int, str]]:
    """Vertex -> the route's edge entering it, and vertex -> its edge
    leaving it."""
    edges = [dag.edge_by_id[e] for e in route]
    return {e.head: e.id for e in edges}, {e.tail: e.id for e in edges}


def conflict(dag: Dag, framing: Framing, p: Route, q: Route) -> bool:
    """True iff some shared inner vertex orders the prefixes and suffixes
    of p and q in opposite directions: the pairwise oracle for
    ``dkk.coherence_graph``."""
    p_in, p_out = _steps(dag, p)
    q_in, q_out = _steps(dag, q)
    for v in (p_out.keys() & q_out.keys()) - {SOURCE}:
        if (_cmp(dag, framing, p_in, q_in, v, False)
                * _cmp(dag, framing, p_out, q_out, v, True) == -1):
            return True
    return False


def coherent(dag: Dag, framing: Framing, p: Route, q: Route) -> bool:
    return not conflict(dag, framing, p, q)


def pairwise_coherence_masks(dag: Dag, framing: Framing,
                             routes: Sequence[Route]) -> tuple[int, ...]:
    """The coherence graph's int-mask adjacency, one ``conflict`` test per
    pair of routes."""
    adj = [0] * len(routes)
    for i, j in combinations(range(len(routes)), 2):
        if coherent(dag, framing, routes[i], routes[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


def set_max_cliques(adj: Sequence[int]) -> set[tuple[int, ...]]:
    """Maximal cliques of an int-mask adjacency by Bron-Kerbosch on Python
    sets without a pivot: the oracle for ``dkk.max_cliques``."""
    nbrs = [{j for j in range(len(adj)) if adj[i] >> j & 1} for i in range(len(adj))]
    out: set[tuple[int, ...]] = set()

    def grow(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.add(tuple(sorted(r)))
        for v in sorted(p):
            grow(r | {v}, p & nbrs[v], x & nbrs[v])
            p = p - {v}
            x = x | {v}

    grow(set(), set(range(len(adj))), set())
    return out


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The distinct ``masks`` that are no proper subset of another one:
    largest first, each kept unless a kept one holds it, found as the AND
    over its bits of the kept masks holding each bit."""
    kept: list[int] = []
    holding: defaultdict[int, int] = defaultdict(int)   # bit -> kept masks holding it
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        bits = _members(m)
        above = (1 << len(kept)) - 1
        for b in bits:
            above &= holding[b]
        if not above:
            for b in bits:
                holding[b] |= 1 << len(kept)
            kept.append(m)
    return kept


def complex_from_faces(faces: Iterable[Iterable]) -> Complex:
    """Build a complex from a face family, keeping only the members that
    are no proper subset of another member, compared as int masks over
    the sorted vertices."""
    fs = {tuple(sorted(f)) for f in faces}
    vertices = sorted({v for f in fs for v in f})
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    kept = maximal_masks(sum(map(bit.__getitem__, f)) for f in fs)
    return Complex(tuple(sorted(tuple(vertices[k] for k in reversed(_members(m))) for m in kept)))


def old_t_eq(cliques: Iterable[Sequence[int]],
             facets: Iterable[int]) -> Complex:
    """T_eq as every intersection of a maximal clique of the coherence graph
    with a facet's route mask (a key of the facet map), filtered to the
    maximal ones: the oracle for ``equatorial.t_eq``.  Its faces are member tuples in the order the
    graph's route table gives (``routes.graph_table``, routes last-first):
    indices descending, and faces of one size in reverse tuple order."""
    pieces = {c & f for c in set(map(_mask, cliques)) for f in facets}
    return Complex(tuple(sorted(map(_members, maximal_masks(pieces)), reverse=True)))


def routes_avoiding(routes: Sequence[Route], m: Transversal) -> frozenset[int]:
    """Indices of the routes touching no edge of the transversal."""
    banned = set(m)
    return frozenset(i for i, r in enumerate(routes) if banned.isdisjoint(r))


def is_facet_transversal(dag: Dag, routes: Sequence[Route],
                         avoided: frozenset[int]) -> bool:
    """Facet criterion: every inner vertex lies on one of the ``avoided``
    routes (the indices ``routes_avoiding`` returns for the transversal)."""
    touched = {dag.edge_by_id[e].head for i in avoided for e in routes[i]}
    return all(v in touched for v in dag.inner_vertices)


def set_equatorial_facets(dag: Dag, decomp: Sequence[Route],
                          routes: Sequence[Route]) -> dict[int, Transversal]:
    """The equatorial facet map by a Python set per transversal, each
    facet's route mask -> its first transversal: the oracle for the
    mask-based ``equatorial.equatorial_facets``, keyed in the order of the
    facets' route lists."""
    seen: dict[frozenset[int], Transversal] = {}
    for m in product(*decomp):
        avoided = routes_avoiding(routes, m)
        if is_facet_transversal(dag, routes, avoided):
            seen.setdefault(avoided, m)
    # a route list sorts as its routes' edge-id tuples do, in enumeration order
    return {_mask(rs): m for rs, m in
            sorted(seen.items(), key=lambda kv: sorted(routes[i] for i in kv[0]))}


def product_avoided_sets(everyone: int, groups: Sequence[Sequence[tuple[str, int]]]
                         ) -> dict[int, Transversal]:
    """Every full choice of one (name, keep) pair per group, in product
    order: the AND of its keep masks from ``everyone`` -> the first choice
    reaching it.  The oracle for ``equatorial._avoided_sets``."""
    first: dict[int, Transversal] = {}
    for choice in product(*groups):
        m = everyone
        for _, keep in choice:
            m &= keep
        first.setdefault(m, tuple(name for name, _ in choice))
    return first


def canonical_dkk_matches(dag: Dag, table: RouteTable,
                          simplices: Sequence[int]) -> tuple[int, ...]:
    """The framings whose triangulation has exactly ``simplices``, masks
    over the routes of ``table``, each framing's cliques sorted
    canonically by ``max_cliques`` first: the oracle for the unsorted
    comparison of ``matching_framings``."""
    target, size = set(simplices), dimension(dag) + 1
    return tuple(i for i, fr in enumerate(_all_framings(dag))
                 if set(dkk.max_cliques(dkk.coherence_graph(fr, table), size)) == target)


def one_skeleton(simplices: Iterable[int], n: int) -> tuple[int, ...]:
    """The 1-skeleton of the complex with facets ``simplices``, masks over
    ``n`` routes, as int-mask adjacency (``dkk.coherence_graph``'s shape):
    bit j of entry i is set when routes i != j share a facet."""
    adj = [0] * n
    for s in simplices:
        for i in _members(s):
            adj[i] |= s & ~(1 << i)
    return tuple(adj)


def common_face(dag: Dag, decomp: Sequence[Route], routeset: Sequence[Route]) -> bool:
    """True iff no decomposition route is buried in the union of the given
    routes' edges (equivalently the set avoids some union of transversals)."""
    union = {e for r in routeset for e in r}
    return not any(set(r) <= union for r in decomp)


def sphere_oracle(dag: Dag, decomp: tuple[Route, ...]) -> set[frozenset[int]]:
    """Maximal route sets that are coherent cliques and bury no
    decomposition route, by brute force over all route subsets, as sets of
    indices into the graph's route table (``all_routes``)."""
    routes = all_routes(dag).routes
    framing = decomposition_framing(dag, decomp)
    others = [i for i, r in enumerate(routes) if r not in set(decomp)]
    good: list[frozenset[int]] = []
    for k in range(len(others), 0, -1):
        for sub in combinations(others, k):
            if any(set(sub) <= g for g in good):
                continue
            if not all(coherent(dag, framing, routes[p], routes[q])
                       for p, q in combinations(sub, 2)):
                continue
            if common_face(dag, decomp, [routes[i] for i in sub]):
                good.append(frozenset(sub))
    return set(good)


# ---------------------------------------------------------------------------
# Poset and framing helpers used by the tests only

def maximal_filter_chains(poset: Poset) -> tuple[int, ...]:
    """Complete chains of filters from the empty set to everything, one per
    linear extension of the poset, as canonical masks over ``poset.filters``:
    the maximal cliques of the filters' comparability graph, built pair by
    pair (``pairwise_comparability``)."""
    return dkk.max_cliques(pairwise_comparability(poset.filters), len(poset.elements) + 1)


def maximal_equatorial_chains(poset: Poset) -> tuple[int, ...]:
    """Inclusion-maximal equatorial chains of nonempty proper filters, as
    canonical masks over ``poset.filters``.

    A chain is equatorial when its summed indicator map is level (no filter
    cuts it) on some cover into each rank j >= 2, one cover per rank.  So
    the chains are the cliques of the filters' comparability graph inside
    a ``planar._equatorial_filter_sets`` facet (``equatorial.sphere_facets``);
    the empty face alone means none.
    """
    facets, size = planar._equatorial_filter_sets(poset)
    return tuple(f for f in _canonical(equatorial.sphere_facets(
        pairwise_comparability(poset.filters), facets, size)) if f)


def linear_extension_count(poset: Poset) -> int:
    return len(maximal_filter_chains(poset))


def filter_sets(poset: Poset, masks: Iterable[int]) -> tuple[frozenset[str], ...]:
    """Filter masks as sets of element names, the first element by name on
    the top bit and the last on bit 0: the form the frozenset oracles below
    take."""
    names = sorted(poset.elements, reverse=True)
    return tuple(frozenset(p for k, p in enumerate(names) if f >> k & 1) for f in masks)


def order_polytope_vertices(poset: Poset) -> tuple[Vector, ...]:
    """Indicator vector of each filter over the sorted element list."""
    elems = tuple(sorted(poset.elements))
    return tuple(tuple(int(p in f) for p in elems) for f in filter_sets(poset, poset.filters))


def filter_triangulation(poset: Poset, simplices) -> Triangulation:
    """The triangulation with the given simplices, masks over
    ``poset.filters``, labelled by the filters; its vertices are
    ``order_polytope_vertices(poset)``."""
    labels = tuple(tuple(sorted(f)) for f in filter_sets(poset, poset.filters))
    return Triangulation(simplices, labels)


def canonical_triangulation(poset: Poset) -> Triangulation:
    """Unimodular triangulation whose simplices are the complete chains of
    filters."""
    return filter_triangulation(poset, maximal_filter_chains(poset))


def equatorial_order_triangulation(poset: Poset) -> Triangulation:
    """Join of the rank-constant simplex with the equatorial chain complex."""
    return filter_triangulation(poset, geometry.join_with_simplex(
        rank_constant_filters(poset), maximal_equatorial_chains(poset),
        len(poset.elements) + 1))


def old_verify_equivalence(dag: Dag, emb, dual: PlanarDual) -> planar.EquivalenceReport:
    """``planar.verify_equivalence`` by listing both sides in full: the
    maximal cliques of both graphs and both joins, mapped and compared
    simplex for simplex, the order side's from the filter-space oracles
    above.  It reads every step it shares with ``verify_equivalence``
    through the ``planar`` module, so a test that patches one there patches
    both, and the flow side's facets from ``equatorial.equatorial_facets``.
    The oracle for the generator comparison."""
    issues: list[str] = []
    pf = dual.framing
    decomp = planar.topmost_route_decomposition(dag, emb, pf)
    df = planar.decomposition_framing(dag, decomp)
    for v in dag.inner_vertices:
        if pf.in_order[v] != df.in_order[v] or pf.out_order[v] != df.out_order[v]:
            issues.append(f"framings disagree at vertex {v}")
    table = planar.graph_table(dag)
    routes = table.routes
    adj = planar.coherence_graph(df, table)
    sphere = Sphere(tuple(_canonical(planar.sphere_facets(
        adj, equatorial.equatorial_facets(dag, decomp, table),
        dimension(dag) + 1 - len(decomp)))), ())
    poset = dual.poset
    route_of = planar.filter_routes(dag, dual, table)

    # simplices as sorted route tuples: routes sort in enumeration order,
    # and simplices of one size in the order of their member tuples
    def named(simplices, index=range(len(routes))) -> set[tuple[Route, ...]]:
        return {tuple(sorted(routes[index[i]] for i in simplex)) for simplex in simplices}

    def compare(what: str, order: set, flow: set) -> None:
        for s in sorted(order - flow) + sorted(flow - order):
            issues.append(f"{what} triangulations differ at {list(s)}")

    canon = named(members(maximal_filter_chains(poset)), route_of)
    if issues:
        adj = planar.coherence_graph(pf, table)
    compare("chain/clique", canon, named(members(dkk.max_cliques(adj, dimension(dag) + 1))))
    sigma = planar.rank_constant_filters(poset)
    order_faces = named(members(planar.join_with_simplex(
        sigma, maximal_equatorial_chains(poset), len(poset.elements) + 1)), route_of)
    flow_faces = named(members(joined_simplices(dag, table, decomp, sphere)))
    compare("equatorial", order_faces, flow_faces)
    if {routes[route_of[i]] for i in _members(sigma)} != set(decomp):
        issues.append("rank-constant simplex does not map onto the route simplex")
    return planar.EquivalenceReport(tuple(issues), decomp, len(flow_faces), len(order_faces))


def staircase_poset(rng: random.Random, ranks: int, lo: int, hi: int) -> Poset:
    """A graded poset with ``ranks`` ranks of lo..hi elements, covers along
    a random monotone staircase through each pair of neighbouring ranks, as
    perfbench's ``gen.graded_poset`` draws them: strongly planar, so
    ``planar.poset_to_dag`` takes it."""
    layers = [[f"{chr(97 + r)}{i}" for i in range(rng.randint(lo, hi))]
              for r in range(ranks)]
    covers = []
    for low, high in zip(layers, layers[1:]):
        i = j = 0
        covers.append((low[0], high[0]))
        while (i, j) != (len(low) - 1, len(high) - 1):
            step = rng.choice([(1, 0), (0, 1), (1, 1)])
            i = min(i + step[0], len(low) - 1)
            j = min(j + step[1], len(high) - 1)
            covers.append((low[i], high[j]))
    return make_poset([p for layer in layers for p in layer], covers)


def poset_from_json(data: Mapping) -> Poset:
    return make_poset(data["elements"], [tuple(c) for c in data["covers"]])


def pairwise_comparability(masks: Sequence[int]) -> tuple[int, ...]:
    """Adjacency masks of the comparability graph of the sets with element
    masks ``masks``, pair by pair: bit j of entry i is set when one of sets
    i != j holds the other."""
    return tuple(_mask(j for j, n in enumerate(masks) if m & n in (m, n)) & ~(1 << i)
                 for i, m in enumerate(masks))


def flow_to_order(dual: PlanarDual, flow) -> dict[str, object]:
    """Potential on the dual elements whose increments along covers are the
    edge flows; chain-independence is enforced.  ``flow`` may be a route
    (iterable of edge ids) or a mapping edge id -> value."""
    if not isinstance(flow, Mapping):
        flow = {eid: 1 for eid in flow}
    f: dict[str, object] = {BOTTOM: 0}
    changed = True
    while changed:
        changed = False
        for eid, (below, above) in dual.cover_of_edge.items():
            step = flow.get(eid, 0)
            if below in f and above not in f:
                f[above] = f[below] + step
                changed = True
            elif above in f and below not in f:
                f[below] = f[above] - step
                changed = True
            elif below in f and f[above] != f[below] + step:
                raise ValueError(f"flow potential is chain dependent at {eid}")
    return f


def order_to_flow(dual: PlanarDual, f: Mapping[str, object]) -> dict[str, object]:
    """Edge flows as potential differences, with bottom pinned to 0 and top
    to 1."""
    fx = {BOTTOM: 0, TOP: 1, **f}
    return {eid: fx[above] - fx[below]
            for eid, (below, above) in dual.cover_of_edge.items()}


def route_of_flow(dag: Dag, flow: Mapping[str, object]) -> Route:
    """The route carried by a unit 0/1 flow, walked out of the source: the
    oracle for ``planar.filter_routes``."""
    route: list[str] = []
    v = SOURCE
    while v != dag.sink:
        hot = [e for e in dag.out_edges(v) if flow.get(e.id, 0) == 1]
        if len(hot) != 1:
            raise ValueError(f"flow is not a unit route flow at vertex {v}")
        route.append(hot[0].id)
        v = hot[0].head
    return tuple(route)


def subset_scan_filters(poset: Poset) -> tuple[frozenset[str], ...]:
    """All upward-closed subsets, by testing each of the 2^n subsets for
    closure under up-covers; smallest first, then by sorted elements."""
    out = []
    for k in range(len(poset.elements) + 1):
        for sub in combinations(poset.elements, k):
            s = set(sub)
            if all(set(poset.up_covers[p]) <= s for p in sub):
                out.append(frozenset(s))
    return tuple(sorted(out, key=lambda f: (len(f), tuple(sorted(f)))))


def recursive_heights(poset: Poset) -> dict[str, int]:
    """p -> 1 + the largest height of a down-cover, by memoised recursion."""
    out: dict[str, int] = {}

    def h(p: str) -> int:
        if p not in out:
            lows = poset.down_covers[p]
            out[p] = 1 + (max(map(h, lows)) if lows else 0)
        return out[p]

    for p in poset.elements:
        h(p)
    return out


def recursive_up_sets(poset: Poset) -> dict[str, frozenset[str]]:
    """p -> {q : p <= q}, by memoised recursion over the up-covers."""
    out: dict[str, frozenset[str]] = {}

    def build(p: str) -> frozenset[str]:
        if p not in out:
            out[p] = frozenset({p}).union(*map(build, poset.up_covers[p]))
        return out[p]

    for p in poset.elements:
        build(p)
    return out


def extension_filter_chains(poset: Poset) -> tuple[tuple[frozenset[str], ...], ...]:
    """Complete chains of filters read off the orderings of the elements by
    name whose every prefix is a filter (reversed linear extensions)."""
    fs = set(subset_scan_filters(poset))
    out = []
    for perm in permutations(sorted(poset.elements)):
        prefixes = tuple(frozenset(perm[:i]) for i in range(len(perm) + 1))
        if all(f in fs for f in prefixes):
            out.append(prefixes)
    return tuple(out)


def equatorial_by_map(poset: Poset, chain: Sequence[frozenset[str]]) -> bool:
    """Equatoriality of a chain of nonempty filters of a graded poset, read
    off its summed indicator map f: f vanishes somewhere and stays level
    across some cover between every pair of consecutive ranks."""
    ranks = poset.heights
    f = {p: sum(p in fi for fi in chain) for p in poset.elements}
    return min(f.values(), default=1) == 0 and all(
        any(ranks[a] == j - 1 and ranks[b] == j and f[a] == f[b]
            for a, b in poset.covers)
        for j in range(2, max(ranks.values(), default=0) + 1))


def equatorial_by_jumps(poset: Poset, chain: Sequence[frozenset[str]]) -> bool:
    """The same condition phrased through the chain's jumps: the index of
    the first filter holding each element, one past the last for elements
    in none."""
    ranks = poset.heights
    fs = sorted(chain, key=len)
    jump = {}
    prev: frozenset[str] = frozenset()
    for i, fi in enumerate(fs, start=1):
        for p in fi - prev:
            jump[p] = i
        prev = fi
    for p in poset.elements:
        jump.setdefault(p, len(fs) + 1)
    return any(j == len(fs) + 1 for j in jump.values()) and all(
        any(ranks[a] == j - 1 and ranks[b] == j and jump[a] == jump[b]
            for a, b in poset.covers)
        for j in range(2, max(ranks.values(), default=0) + 1))


def filter_chains(poset: Poset) -> Iterable[tuple[frozenset[str], ...]]:
    """Every nonempty chain of nonempty filters, smallest filter first,
    including those that end in the whole poset."""
    fs = [f for f in filter_sets(poset, poset.filters) if f]

    def extend(chain: list[frozenset[str]], start: int):
        for i in range(start, len(fs)):
            if not chain or chain[-1] < fs[i]:
                chain.append(fs[i])
                yield tuple(chain)
                yield from extend(chain, i + 1)
                chain.pop()

    return extend([], 0)


def framing_from_json(dag: Dag, data: Mapping) -> Framing:
    ins = {int(v): tuple(o["in"]) for v, o in data.items()}
    outs = {int(v): tuple(o["out"]) for v, o in data.items()}
    fr = Framing(ins, outs)
    for v in dag.inner_vertices:
        if sorted(fr.in_order[v]) != sorted(e.id for e in dag.in_edges(v)):
            raise ValueError(f"framing at {v}: bad in-order")
        if sorted(fr.out_order[v]) != sorted(e.id for e in dag.out_edges(v)):
            raise ValueError(f"framing at {v}: bad out-order")
    return fr


def per_dilate_count_lattice_points(dag: Dag, t: int, interior: bool = False) -> int:
    """Integer flows of strength t by the partition-function DP run for
    one dilate, with a tuple per state: the oracle for
    ``geometry.lattice_counts``'s packed states and lanes."""
    lo = 1 if interior else 0
    sink = dag.sink
    # pending inflow at vertices v, ..., sink - 1 -> number of partial flows
    states: dict[tuple[int, ...], int] = {(t,) + (0,) * (sink - 1): 1}
    for v in range(sink):
        groups = sorted(Counter(e.head for e in dag.out_edges(v)).items())
        for j, (head, k) in enumerate(groups):
            least = lo * k
            last = j == len(groups) - 1
            nxt: dict[tuple[int, ...], int] = defaultdict(int)
            for pending, n in states.items():
                left = pending[0]
                # the last head takes all that is left
                for x in range(max(least, left) if last else least, left + 1):
                    p = list(pending)
                    p[0] = left - x
                    if head != sink:
                        p[head - v] += x
                    nxt[tuple(p)] += n * comb(x - least + k - 1, k - 1)
            states = nxt
        # every unit that reached v has left it
        states = {p[1:]: n for p, n in states.items() if p[0] == 0}
    return states.get((), 0)


def brute_count_lattice_points(dag: Dag, t: int, interior: bool = False,
                               inject: Sequence[int] = ()) -> int:
    """Integer flows of strength t (flow >= 1 on every edge when
    ``interior``), with ``inject[v]`` more units leaving vertex v than
    enter it for each v < len(inject), visited one by one: the oracle for
    the library's partition-function count."""
    lo = 1 if interior else 0
    verts = [SOURCE] + list(dag.inner_vertices)
    flow: dict[str, int] = {}

    def place(v_idx: int) -> int:
        if v_idx == len(verts):
            return 1
        v = verts[v_idx]
        avail = t if v == SOURCE else sum(flow[e.id] for e in dag.in_edges(v))
        avail += inject[v] if v < len(inject) else 0
        outs = dag.out_edges(v)
        if not outs:                  # a dead end: nothing may reach v
            return 0 if avail else place(v_idx + 1)

        def split(k: int, left: int) -> int:
            if k == len(outs) - 1:
                if left < lo:
                    return 0
                flow[outs[k].id] = left
                n = place(v_idx + 1)
                del flow[outs[k].id]
                return n
            total = 0
            for x in range(lo, left - lo * (len(outs) - 1 - k) + 1):
                flow[outs[k].id] = x
                total += split(k + 1, left - x)
                del flow[outs[k].id]
            return total

        if avail < lo * len(outs):
            return 0
        return split(0, avail)

    return place(0)


def brute_order_polytope_count(poset: Poset, t: int) -> int:
    """Order-preserving maps P -> {0..t}, by testing all (t+1)^n maps."""
    elems = sorted(poset.elements)
    total = 0
    for vals in product(range(t + 1), repeat=len(elems)):
        f = dict(zip(elems, vals))
        if all(f[a] <= f[b] for a, b in poset.covers):
            total += 1
    return total


def interpolate_polynomial(values: Sequence[int]) -> list[Fraction]:
    """Coefficients (ascending) of the polynomial p with p(i) = values[i].

    Newton forward differences: p(x) = sum_k diff^k(0) * C(x, k).
    """
    n = len(values)
    diffs = [list(map(Fraction, values))]
    while len(diffs[-1]) > 1:
        prev = diffs[-1]
        diffs.append([b - a for a, b in zip(prev, prev[1:])])
    coeffs = [Fraction(0)] * n
    for k in range(n):
        ck = diffs[k][0]
        if ck == 0:
            continue
        poly = [Fraction(1)]  # running product x(x-1)...(x-j+1)
        for j in range(k):
            shifted = [Fraction(0)] + poly
            poly = [a - Fraction(j) * b for a, b in zip(shifted, poly + [Fraction(0)])]
        invk = Fraction(1, factorial(k))
        for j, a in enumerate(poly):
            coeffs[j] += ck * a * invk
    return coeffs


# ---------------------------------------------------------------------------
# Exact LP (two-phase simplex with Bland's rule): the pairwise common-face
# oracle for the ridge check in ``verify_triangulation`` below.

def _simplex_solve(A: list[list[Fraction]], b: list[Fraction], c: list[Fraction]):
    """Maximize c.x subject to A x = b, x >= 0.  Returns the optimum or
    None when infeasible.  Sizes here are tiny, so no effort is spent on
    efficiency."""
    m, n = len(A), len(c)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-a for a in A[i]]
            b[i] = -b[i]
    # phase one: artificial variables n..n+m-1
    T = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * n + [Fraction(-1)] * m

    def pivot_step(obj: list[Fraction], limit: int) -> bool:
        # reduced costs relative to the current basis; Bland's rule
        red = obj[:]
        for i, bi in enumerate(basis):
            if obj[bi]:
                f = obj[bi]
                for j in range(len(red)):
                    red[j] -= f * T[i][j]
        enter = next((j for j in range(limit) if red[j] > 0), None)
        if enter is None:
            return False
        ratios = [(T[i][-1] / T[i][enter], basis[i], i) for i in range(m) if T[i][enter] > 0]
        if not ratios:
            raise ArithmeticError("unbounded LP")
        _, _, leave = min(ratios)
        piv = T[leave][enter]
        T[leave] = [a / piv for a in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [a - f * p for a, p in zip(T[i], T[leave])]
        basis[leave] = enter
        return True

    while pivot_step(cost, n + m):
        pass
    phase1 = sum(T[i][-1] for i in range(m) if basis[i] >= n)
    if phase1 != 0:
        return None
    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][j] != 0), None)
            if enter is None:
                continue
            piv = T[i][enter]
            T[i] = [a / piv for a in T[i]]
            for k in range(m):
                if k != i and T[k][enter]:
                    f = T[k][enter]
                    T[k] = [a - f * p for a, p in zip(T[k], T[i])]
            basis[i] = enter
    obj = c + [Fraction(0)] * m
    while pivot_step(obj, n):
        pass
    return sum(c[basis[i]] * T[i][-1] for i in range(m) if basis[i] < n)


def simplices_meet_in_common_face(vs: Sequence[Vector], vt: Sequence[Vector],
                                  common: Sequence[int]) -> bool:
    """Exact test that conv(vs) and conv(vt) intersect exactly in the face
    spanned by the ``common`` index pairs (indices into vs matched with the
    identical vertices of vt)."""
    dim = len(vs[0])
    n1, n2 = len(vs), len(vt)
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    for k in range(dim):
        A.append([Fraction(v[k]) for v in vs] + [Fraction(-v[k]) for v in vt])
        b.append(Fraction(0))
    A.append([Fraction(1)] * n1 + [Fraction(0)] * n2)
    b.append(Fraction(1))
    A.append([Fraction(0)] * n1 + [Fraction(1)] * n2)
    b.append(Fraction(1))
    shared_s = {i for i, _ in common}
    shared_t = {j for _, j in common}
    c = [Fraction(int(i not in shared_s)) for i in range(n1)] + \
        [Fraction(int(j not in shared_t)) for j in range(n2)]
    opt = _simplex_solve(A, b, c)
    return opt is None or opt == 0


def _row_reduce(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer matrix.

    Returns the rows and the pivot columns.  The rows are D times the
    reduced row echelon form, pivot rows first, where D is the last pivot:
    every division is exact because each entry is a minor of the input.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    ncol = len(m[0]) if m else 0
    for c in range(ncol):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p, pr = m[r][c], m[r]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], pr)]
        prev = p
        pivots.append(c)
    return m, pivots


def is_unimodular_simplex(vertices: Sequence[Vector]) -> bool:
    """True iff the difference lattice of the vertices is saturated, that is
    the simplex is unimodular with respect to the lattice of its affine span;
    ``ValueError`` when the vertices are affinely dependent: the oracle of
    the certificate's chart determinant.

    Unimodular column operations (Euclid on column pairs) bring the
    difference rows to lower-triangular form; they map Z^n onto itself, so
    they keep whether the rows' lattice is saturated.  The rows are then
    independent iff no diagonal entry is 0, and saturated iff each is +-1.
    Row i is reduced once the rows before it are, and those are 0 past
    their diagonal, so a column operation on columns >= i leaves them be.
    """
    v0 = vertices[0]
    rows = [[a - b for a, b in zip(v, v0)] for v in vertices[1:]]
    if len(rows) > len(v0):
        raise ValueError("affinely dependent vertices")
    unimodular = True
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            while row[j]:
                q = row[i] // row[j]
                for r in rows[i:]:
                    r[i], r[j] = r[j], r[i] - q * r[j]
        if not row[i]:
            raise ValueError("affinely dependent vertices")
        unimodular = unimodular and abs(row[i]) == 1
    return unimodular


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix, by Laplace expansion
    along the first row; 1 for the empty matrix."""
    if not rows:
        return 1
    return sum((-1) ** j * x * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def maximal_minor_gcd(rows: Sequence[Sequence[int]]) -> int:
    """The gcd of all k x k minors of a k-row integer matrix, one exact
    determinant per column subset: 1 iff the rows are independent and their
    lattice is saturated, 0 iff they are dependent (also for k > columns)."""
    ncol = len(rows[0]) if rows else 0
    return gcd(*(determinant([[r[c] for c in cols] for r in rows])
                 for cols in combinations(range(ncol), len(rows))))


def smith_divisors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero elementary divisors of an integer matrix (by row reduction):
    the Smith-form oracle of ``geometry.rank``.  Its entries can grow without
    bound on dense matrices, so ``is_unimodular_simplex`` does not use it."""
    m = [list(r) for r in rows]
    divisors: list[int] = []
    ri = ci = 0
    nrow = len(m)
    ncol = len(m[0]) if m else 0
    while ri < nrow and ci < ncol:
        # move a nonzero pivot of least magnitude to (ri, ci)
        pivot = None
        for i in range(ri, nrow):
            for j in range(ci, ncol):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[ri], m[i0] = m[i0], m[ri]
        for row in m:
            row[ci], row[j0] = row[j0], row[ci]
        while True:
            done = True
            for i in range(ri + 1, nrow):
                q = m[i][ci] // m[ri][ci]
                if q:
                    for j in range(ci, ncol):
                        m[i][j] -= q * m[ri][j]
                if m[i][ci]:
                    m[ri], m[i] = m[i], m[ri]
                    done = False
            for j in range(ci + 1, ncol):
                q = m[ri][j] // m[ri][ci]
                if q:
                    for i in range(ri, nrow):
                        m[i][j] -= q * m[i][ci]
                if m[ri][j]:
                    for i in range(ri, nrow):
                        m[i][ci], m[i][j] = m[i][j], m[i][ci]
                    done = False
            if done:
                break
        divisors.append(abs(m[ri][ci]))
        ri += 1
        ci += 1
    # normalize the divisibility chain d1 | d2 | ...
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            divisors[i], divisors[j] = g, a // g * b
    return divisors


def with_simplices(tri: Triangulation, simplices: Iterable[int]) -> Triangulation:
    """``tri`` with the given simplex masks in place of its own."""
    return Triangulation(tuple(simplices), tri.labels)


def swapped_vertex(tri: Triangulation, coords: Sequence[Vector]) -> Triangulation:
    """The first simplex with one vertex swapped for another route, chosen
    so that the new simplex is still unimodular on the vertices
    ``coords``."""
    s = tri.simplices[0]
    for v, w in product(_members(s), range(len(coords))):
        if s >> w & 1:
            continue
        new = s ^ 1 << v | 1 << w
        try:
            if is_unimodular_simplex([coords[i] for i in _members(new)]):
                return with_simplices(tri, (new,) + tri.simplices[1:])
        except ValueError:
            continue
    raise AssertionError("no unimodular swap")


def corrupted(dag: Dag, tri: Triangulation
              ) -> dict[str, tuple[Triangulation, tuple[Vector, ...], int, int]]:
    """Negative controls for a triangulation of ``dag``'s flow polytope
    whose vertices are routes: name -> (triangulation, the coordinates the
    oracles read, dim, normalized volume).  A dropped or duplicated simplex
    comes twice, the second time with the volume its count matches, so the
    count alone cannot reject it.  The first simplex's mask is also made to
    lose its lowest vertex, to trade it for a vertex past the labels, or to
    be its member tuple; the label of its second vertex is made the first
    one's, which puts the two vertices on one point; and vertex 0 is moved
    off its route, which only the coordinates can say."""
    dim, vol = dimension(dag), normalized_volume(dag)
    coords = route_vectors(dag, tri.labels)
    first, rest = tri.simplices[0], tri.simplices[1:]
    dropped = with_simplices(tri, rest)
    doubled = with_simplices(tri, tri.simplices + (first,))
    low = first & -first
    a, b = _members(first)[:2]
    labels = list(tri.labels)
    labels[b] = labels[a]
    return {
        "dropped": (dropped, coords, dim, vol),
        "dropped, count matched": (dropped, coords, dim, vol - 1),
        "duplicated": (doubled, coords, dim, vol),
        "duplicated, count matched": (doubled, coords, dim, vol + 1),
        "vertex replaced": (swapped_vertex(tri, coords), coords, dim, vol),
        "vertex past the labels": (with_simplices(tri, (first ^ low | 1 << len(coords),) + rest),
                                   coords, dim, vol),
        "wrong bit count": (with_simplices(tri, (first ^ low,) + rest), coords, dim, vol),
        "not an int": (with_simplices(tri, (_members(first),) + rest), coords, dim, vol),
        "repeated label": (Triangulation(tri.simplices, tuple(labels)),
                           route_vectors(dag, labels), dim, vol),
        "tampered coords": (tri, (tuple(1 - x for x in coords[0]),) + coords[1:], dim, vol),
        "label not a route": (Triangulation(tri.simplices, (
            tri.labels[0] + tri.labels[0][-1:],) + tri.labels[1:]), coords, dim, vol),
        "wrong dim": (tri, coords, dim + 1, vol),
        "wrong volume": (tri, coords, dim, vol + 1),
    }


# ---------------------------------------------------------------------------
# The ridge check: the oracle of the route-swap certificate

def _vertex_functionals(pts: Sequence[Vector]) -> list[tuple[int, Vector]]:
    """One integer affine functional ``(c, a)`` per vertex of a
    full-dimensional simplex in Z^d: x -> c + a.x is the vertex's
    barycentric coordinate times |det| of the difference matrix, so it
    vanishes on the opposite facet and is positive at the vertex.
    ``ValueError`` when the d + 1 vertices are affinely dependent: then a
    pivot of [differences | I] falls in the identity block."""
    u0 = pts[0]
    d = len(u0)
    m, pivots = _row_reduce([[a - b for a, b in zip(u, u0)] + [int(i == j) for j in range(d)]
                             for i, u in enumerate(pts[1:])])
    if pivots and pivots[-1] >= d:
        raise ValueError("affinely dependent vertices")
    scale = m[0][0] if d else 1        # [scale * I | scale * inverse]
    if scale < 0:
        scale, m = -scale, [[-x for x in row] for row in m]
    cols = [[row[d + j] for row in m] for j in range(d)]
    a0 = [-sum(col[k] for col in cols) for k in range(d)]
    return [(c - sum(map(mul, a, u0)), tuple(a))
            for c, a in [(scale, a0)] + [(0, col) for col in cols]]


def verify_triangulation(tri: Triangulation, coords: Sequence[Vector], dim: int,
                         normalized_volume: int) -> TriangulationReport:
    """Check that the maximal simplices of ``tri``, vertex i at
    ``coords[i]``, triangulate conv(coords), a polytope of dimension
    ``dim``: the whole-triangulation oracle for
    ``dkk.verify_dkk_triangulation``'s per-ridge certificate, for any
    triangulation, the order side's too.

    ``normalized_volume`` is the carrier's d! * (Ehrhart leading
    coefficient); for a unimodular triangulation it must equal the number
    of maximal simplices.  Besides purity, unimodularity and that count,
    the ridge (pseudo-manifold) check of De Loera-Rambau-Santos,
    *Triangulations* (2010), Ch. 4 runs in integer coordinates on a chart
    of aff(conv(coords)): every ridge lies in at most two simplices, the
    apexes of a ridge in two simplices lie strictly on opposite sides of
    it, and every point lies on the apex side of a ridge in one simplex,
    which is then on the boundary.  It needs a nonempty pure complex of
    nondegenerate simplices whose points span ``dim`` dimensions.

    Never raises on malformed input; each fault is an issue, which names a
    simplex or ridge by its member tuple: no simplices; a simplex that is
    not an int mask of vertices, has the wrong number of vertices or none,
    names a vertex without coordinates, or is degenerate or not unimodular;
    a count other than the normalized volume; points spanning another
    dimension; a ridge in more than two simplices, between two simplices on
    one side of it, or in one simplex and off the boundary.
    """
    simplices = tri.simplices
    issues: list[str] = [] if simplices else ["no simplices"]
    members: list[tuple[int, ...]] = []      # of the well-formed simplices
    for s in simplices:
        vs = _members(s) if type(s) is int and s >= 0 else s   # else named as given
        if vs is s:
            fault = "is not a mask of vertex indices"
        elif len(vs) != dim + 1:
            fault = f"has {len(vs)} vertices, expected {dim + 1}"
        elif not vs:
            fault = "has no vertices"
        elif s >> len(coords):
            fault = "names a vertex without coordinates"
        else:
            try:
                if not is_unimodular_simplex([coords[v] for v in vs]):
                    issues.append(f"simplex {vs} is not unimodular")
                members.append(vs)
                continue
            except ValueError:
                fault = "is degenerate"
        issues.append(f"simplex {vs!r} {fault}")
    if len(simplices) != normalized_volume:
        issues.append(f"{len(simplices)} simplices but normalized volume {normalized_volume}")
    if not members or len(members) < len(simplices):
        return TriangulationReport(tuple(issues))
    v0 = coords[0]
    _, pivots = _row_reduce([[a - b for a, b in zip(p, v0)] for p in coords])
    if len(pivots) != dim:
        issues.append(f"the points span dimension {len(pivots)}, expected {dim}")
        return TriangulationReport(tuple(issues))
    chart = [tuple(p[c] for c in pivots) for p in coords]
    functionals = [_vertex_functionals([chart[v] for v in s]) for s in members]
    ridges: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for k, s in enumerate(members):        # ridge -> (simplex, omitted position)
        for i in range(len(s)):
            ridges[s[:i] + s[i + 1:]].append((k, i))
    for r, owners in ridges.items():
        if len(owners) > 2:
            issues.append(f"ridge {r} lies in {len(owners)} simplices")
            continue
        (k, i), *other = owners
        c, a = functionals[k][i]
        if other:
            (l, j), = other
            t = members[l]
            if c + sum(map(mul, a, chart[t[j]])) >= 0:
                issues.append(f"simplices {members[k]} and {t} lie on the same side "
                              f"of ridge {r}")
        elif any(c + sum(map(mul, a, x)) < 0 for x in chart):
            issues.append(f"ridge {r} of simplex {members[k]} is not on the boundary")
    return TriangulationReport(tuple(issues))


@pytest.fixture
def linear_algebra_calls(monkeypatch) -> Counter:
    """Counts, while the test runs, the determinants the certificate takes
    (``dkk.determinant``): one for the first simplex and two per exact
    step."""
    calls: Counter = Counter()

    def counted(rows, _fn=dkk.determinant):
        calls["determinant"] += 1
        return _fn(rows)
    monkeypatch.setattr(dkk, "determinant", counted)
    return calls


def lp_triangulation_ok(tri: Triangulation, coords: Sequence[Vector], dim: int,
                        normalized_volume: int) -> bool:
    """The pairwise verdict on a triangulation, vertex i at ``coords[i]``:
    purity, unimodularity,
    simplex count equal to the normalized volume, and one exact LP per pair
    of simplices showing that they meet in a common face."""
    simplices = members(tri.simplices)
    if any(len(s) != dim + 1 for s in simplices) or len(simplices) != normalized_volume:
        return False
    try:
        if not all(is_unimodular_simplex([coords[v] for v in s]) for s in simplices):
            return False
    except ValueError:
        return False
    return all(simplices_meet_in_common_face(
        [coords[v] for v in s], [coords[v] for v in t],
        [(s.index(v), t.index(v)) for v in s if v in t])
        for s, t in combinations(simplices, 2))


def scaled(q: QuotientPolytope, factor: int) -> QuotientPolytope:
    """Dilate the vertex set (facets kept); negative control helper."""
    verts = tuple((i, tuple(factor * x for x in v)) for i, v in q.vertices)
    return replace(q, vertices=verts)


def box_scan_verify_reflexive(q: QuotientPolytope) -> ReflexiveReport:
    """Origin must be the only lattice point of the block-sum-zero lattice
    strictly inside every facet, and vertices must be simple enough: every
    point of the vertices' bounding box is visited and dot products are
    dense, the oracle for the library's block-by-block scan."""
    issues: list[str] = []
    dim = sum(len(labels) - 1 for _, labels in q.space.blocks)
    for m, coeffs in q.facets:
        if any(c != int(c) for c in coeffs):
            issues.append(f"facet for {m} is not integral")
    for i, v in q.vertices:
        for m, coeffs in q.facets:
            if sum(c * x for c, x in zip(coeffs, v)) > 1:
                issues.append(f"vertex {i} violates facet {m}")
    # enumerate candidate interior lattice points inside the bounding box
    if q.vertices:
        lo = [min(v[k] for _, v in q.vertices) for k in range(q.space.dim)]
        hi = [max(v[k] for _, v in q.vertices) for k in range(q.space.dim)]
    else:
        lo = hi = [0] * q.space.dim
    interior: list[tuple[int, ...]] = []
    for pt in product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        pos = 0
        in_lattice = True
        for v, labels in q.space.blocks:
            if sum(pt[pos:pos + len(labels)]) != 0:
                in_lattice = False
                break
            pos += len(labels)
        if not in_lattice:
            continue
        if all(sum(c * x for c, x in zip(coeffs, pt)) < 1 for _, coeffs in q.facets):
            interior.append(pt)
    if interior != [tuple([0] * q.space.dim)]:
        issues.append(f"interior lattice points {interior}, expected only the origin")
    for i, v in q.vertices:
        on = sum(1 for _, coeffs in q.facets
                 if sum(c * x for c, x in zip(coeffs, v)) == 1)
        if on < dim:
            issues.append(f"vertex {i} lies on {on} facets, expected at least {dim}")
    return ReflexiveReport(tuple(issues), tuple(interior))


def gauss_jordan_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank by full fraction-free Gauss-Jordan elimination (every row
    reduced against every pivot): the oracle for the forward-only
    ``geometry.rank``."""
    return len(_row_reduce(rows)[1])


def slot_index(space: LeveledSpace) -> dict[tuple[int, int], int]:
    """(vertex, label) -> coordinate, block by block."""
    return {(v, l): k for k, (v, l) in enumerate(
        (v, l) for v, labels in space.blocks for l in labels)}


def dict_phi(dag: Dag, decomp: Sequence[Route], space: LeveledSpace,
             route: Route) -> tuple[int, ...]:
    """The image of a route with two dict lookups per edge end, (vertex,
    label) -> coordinate: the oracle for the slot-table ``quotient.phi``."""
    labels, index = edge_labels(decomp), slot_index(space)
    vec = [0] * space.dim
    for eid in route:
        e = dag.edge_by_id[eid]
        for v, sign in ((e.head, 1), (e.tail, -1)):
            if 1 <= v <= dag.inner_count:
                vec[index[(v, labels[eid])]] += sign
    return tuple(vec)


def sliced_functionals(space: LeveledSpace, decomp: Sequence[Route]
                       ) -> dict[Transversal, tuple[int, ...]]:
    """Every transversal's functional in product order, each set on the
    head slots of the slice of each decomposition route before its chosen
    edge: the oracle for the prefix-mask ``quotient._functionals`` and,
    through ``dense_transversal_identity``, for the prefix sums of
    ``quotient.check_transversal_identity``."""
    out = {}
    for m in product(*decomp):
        coeffs = [0] * space.dim
        for route, chosen in zip(decomp, m):
            for eid in route[:route.index(chosen)]:
                coeffs[space.slots[eid][0]] = 1
        out[m] = tuple(coeffs)
    return out


def filtered_block_points(lo: Sequence[int], hi: Sequence[int]) -> list[tuple[int, ...]]:
    """The zero-sum tuples of the box [lo, hi], by filtering the whole box:
    the oracle for ``quotient._block_points``."""
    return [t for t in product(*[range(a, b + 1) for a, b in zip(lo, hi)]) if sum(t) == 0]


def unpacking_verify_reflexive(q: QuotientPolytope) -> ReflexiveReport:
    """``quotient.verify_reflexive`` with every vertex's lanes unpacked to
    read its facet values, and each block's points filtered from its whole
    box: the oracle for the popcount vertex check."""
    issues = [f"facet for {m} is not integral"
              for m, coeffs in q.facets if any(c != int(c) for c in coeffs)]
    if issues:
        return ReflexiveReport(tuple(issues), ())
    dim = q.space.quotient_dim
    coords = [v for _, v in q.vertices] or [(0,) * q.space.dim]
    lo, hi = list(map(min, zip(*coords))), list(map(max, zip(*coords)))
    lanes = _Lanes([list(map(int, c)) for _, c in q.facets], q.space.dim,
                   max(map(abs, lo + hi), default=0))
    at_vertex = [(i, lanes.unpack(lanes.pack(v))) for i, v in q.vertices]
    for i, values in at_vertex:
        issues.extend(f"vertex {i} violates facet {m}"
                      for (m, _), value in zip(q.facets, values) if value > 1)
    blocks, partials, pos = [], [], 0
    for _, labels in q.space.blocks:
        points = filtered_block_points(lo[pos:pos + len(labels)], hi[pos:pos + len(labels)])
        blocks.append(points)
        partials.append([lanes.pack(t, pos) for t in points])
        pos += len(labels)
    interior = [tuple(p for part in parts for p in part)
                for parts, packed in zip(product(*blocks), product(*partials))
                if not (sum(packed) + lanes.below) & lanes.high]
    if interior != [tuple([0] * q.space.dim)]:
        issues.append(f"interior lattice points {interior}, expected only the origin")
    for i, values in at_vertex:
        on = values.count(1)
        if on < dim:
            issues.append(f"vertex {i} lies on {on} facets, expected at least {dim}")
    return ReflexiveReport(tuple(issues), tuple(interior))


def dense_transversal_identity(q: QuotientPolytope
                               ) -> tuple[tuple[Route, Transversal, int, int], ...]:
    """The facet identity's rows with every transversal's sliced functional
    dotted densely with every route image, one row per (route, transversal)
    pair: the oracle for the library's route-by-route test."""
    images = dict(q.vertices)
    origin = (0,) * q.space.dim
    functionals = sliced_functionals(q.space, q.decomp)
    rows = []
    for i, s in enumerate(q.routes):
        img, used = images.get(i, origin), set(s)
        for m, coeffs in functionals.items():
            lhs = sum(map(mul, coeffs, img))
            rows.append((s, m, lhs, 1 - len(used.intersection(m))))
    return tuple(rows)


def dense_pairs_and_failures(q: QuotientPolytope
                             ) -> tuple[int, tuple[tuple[Route, Transversal, int, int], ...]]:
    """The dense oracle's pair count and its rows with lhs != rhs, in order:
    what ``check_transversal_identity`` must return."""
    rows = dense_transversal_identity(q)
    return len(rows), tuple(row for row in rows if row[2] != row[3])
