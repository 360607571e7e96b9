"""Rotation-system planarity, poset duality and order polytopes.

A combinatorial embedding (counterclockwise rotation of edge ids at every
vertex) stands in for a drawing with the source on the left, the sink on
the right and every edge moving rightward.  Faces are traced from the
rotations; bounded faces form a poset dual to the DAG, and the flow
polytope is integrally equivalent to the order polytope of that poset.
The inverse construction rebuilds the DAG from a poset by tracing the
faces of its bottom-to-top Hasse drawing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable, Mapping, Sequence

from .dag import SOURCE, Dag, dimension, make_dag, vertex_from_json, vertex_to_json
from .dkk import coherence_graph, max_cliques
from .equatorial import EquatorialFace, equatorial_sphere, joined_simplices, t_eq
from .geometry import _canonical, _mask, _members, join_with_simplex
from .routes import Framing, Route, decomposition_framing, peel_decomposition

BOTTOM = "_bot"
TOP = "_top"


# ---------------------------------------------------------------------------
# Posets

@dataclass(frozen=True)
class Poset:
    """Finite poset stored by its cover relations (Hasse diagram edges)."""

    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]

    @cached_property
    def up_covers(self) -> dict[str, tuple[str, ...]]:
        """p -> its up-covers, keyed by name."""
        out: dict[str, list[str]] = {p: [] for p in sorted(self.elements)}
        for a, b in self.covers:
            out[a].append(b)
        return {p: tuple(sorted(es)) for p, es in out.items()}

    @cached_property
    def down_covers(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {p: [] for p in self.elements}
        for a, b in self.covers:
            out[b].append(a)
        return {p: tuple(sorted(es)) for p, es in out.items()}

    @cached_property
    def heights(self) -> dict[str, int]:
        """p -> number of elements on the longest chain ending at p, keyed in
        strip order: an element is stripped once its down-covers are all
        gone, height after height, and a cycle leaves some unstripped
        (``ValueError``)."""
        left = {p: len(qs) for p, qs in self.down_covers.items()}  # covers still below p
        stripped = [p for p, k in left.items() if not k]
        out = dict.fromkeys(stripped, 1)
        for p in stripped:                 # grows while read, one height after another
            for q in self.up_covers[p]:
                left[q] -= 1
                if not left[q]:            # p is a highest down-cover of q
                    out[q] = out[p] + 1
                    stripped.append(q)
        if len(out) < len(left):
            raise ValueError("cover relation contains a cycle")
        return out

    @cached_property
    def up_sets(self) -> dict[str, frozenset[str]]:
        """p -> {q : p <= q}, accumulated in reverse strip order (top down)."""
        out: dict[str, frozenset[str]] = {}
        for p in reversed(self.heights):
            out[p] = frozenset((p,)).union(*(out[q] for q in self.up_covers[p]))
        return out

    @cached_property
    def graded(self) -> bool:
        """Every cover climbs one height and all maximal elements share one."""
        h = self.heights
        return (all(h[b] == h[a] + 1 for a, b in self.covers)
                and len({h[p] for p in self.maximal}) <= 1)

    @cached_property
    def bits(self) -> dict[str, int]:
        """p -> its bit in a filter mask: bit k stands for the k-th element
        by name."""
        return {p: 1 << k for k, p in enumerate(sorted(self.elements))}

    @cached_property
    def filters(self) -> tuple[int, ...]:
        return filters(self)

    @cached_property
    def holders(self) -> dict[str, int]:
        """p -> mask over ``filters`` of those holding p; every filter holds
        ``TOP`` and none holds ``BOTTOM``."""
        fs = self.filters
        return {BOTTOM: 0, TOP: (1 << len(fs)) - 1,
                **{p: _mask(i for i, f in enumerate(fs) if f & b) for p, b in self.bits.items()}}

    @cached_property
    def comparability(self) -> tuple[int, ...]:
        """Adjacency masks of the filters' comparability graph: bit j of
        entry i is set when one of filters i != j holds the other."""
        fs = self.filters
        return tuple(_mask(j for j, n in enumerate(fs) if m & n in (m, n)) & ~(1 << i)
                     for i, m in enumerate(fs))

    def names(self, f: int) -> tuple[str, ...]:
        """The elements of filter mask ``f``, by name."""
        return tuple(p for p, b in self.bits.items() if f & b)

    @property
    def minimal(self) -> tuple[str, ...]:
        return tuple(p for p in self.elements if not self.down_covers[p])

    @property
    def maximal(self) -> tuple[str, ...]:
        return tuple(p for p in self.elements if not self.up_covers[p])


def make_poset(elements: Iterable[str], relations: Iterable[tuple[str, str]]) -> Poset:
    """Normalize arbitrary strict relations into a cover-relation poset: a
    relation a < b is a cover unless b lies above another relation out of a
    (the relations' ``heights`` reject a cycle)."""
    elems = tuple(sorted(set(elements)))
    known = set(elems)
    pairs = {(a, b) for a, b in relations}
    for a, b in pairs:
        if a not in known or b not in known:
            raise ValueError(f"relation {a}<{b} uses unknown elements")
    raw = Poset(elems, tuple(pairs))
    up, succ = raw.up_sets, raw.up_covers
    return Poset(elems, tuple(sorted((a, b) for a, b in pairs
                                     if not any(b in up[c] for c in succ[a] if c != b))))


def poset_to_json(poset: Poset) -> dict:
    return {"elements": list(poset.elements),
            "covers": [list(c) for c in sorted(poset.covers)]}


def filters(poset: Poset) -> tuple[int, ...]:
    """All upward-closed subsets as ``Poset.bits`` masks, smallest first and
    by sorted elements within a size, grown one element at a time from the
    empty filter: an element outside a filter may join once the filter
    holds its up-covers.  ``Poset.filters`` caches them."""
    bits = poset.bits
    joins = [(bits[p], sum(map(bits.__getitem__, ups))) for p, ups in poset.up_covers.items()]
    out: list[int] = []
    level = {0}
    while level:
        out += _canonical(level)
        level = {f | b for f in level for b, ups in joins if not f & b and f & ups == ups}
    return tuple(out)


def order_polytope_count(poset: Poset, max_dilate: int) -> list[int]:
    """Order-preserving maps P -> {0..t}, t = 1..max_dilate, on the poset alone.

    Such a map f is the chain of filters F_1, ..., F_t, each containing
    the next, with F_j = {p : f(p) >= j}.  After round t, chains[i]
    counts the chains of t filters under poset.filters[i]; the last filter
    is the whole poset.  A round is the filter lattice's zeta transform
    (Bjorklund et al., SODA 2012): element p by element, top down, filter
    f adds the count of f - p when that is a filter.
    """
    fs, bits = poset.filters, poset.bits
    index = {f: i for i, f in enumerate(fs)}
    steps = [(i, index[f ^ b]) for b in map(bits.__getitem__, reversed(poset.heights))
             for i, f in enumerate(fs) if f & b and f ^ b in index]
    chains = [1] * len(fs)
    counts = []
    for _ in range(max_dilate):
        for i, j in steps:
            chains[i] += chains[j]
        counts.append(chains[-1])
    return counts


# ---------------------------------------------------------------------------
# Rotation systems and face tracing

Dart = tuple[str, int]              # (edge id, +1 with the edge / -1 against)
Trace = tuple[list[tuple[Dart, ...]], dict[Dart, int]]   # (face orbits, dart -> face)


@dataclass(frozen=True)
class PlanarEmbedding:
    """Counterclockwise rotation of incident edge ids at every vertex.

    Linear conventions: at the source the tuple starts with the bottommost
    edge, at the sink with the topmost; inner rotations are read cyclically.
    """

    rotations: Mapping[int, tuple[str, ...]]


def embedding_from_json(dag: Dag, data: Mapping) -> PlanarEmbedding:
    rotations = data["rotations"]
    if not isinstance(rotations, Mapping):
        raise TypeError("rotations must map each vertex to a list of edge ids")
    for v, r in rotations.items():
        if not isinstance(r, list) or not all(isinstance(e, str) for e in r):
            raise TypeError(f"rotation at {v!r} is not a list of edge ids: {r!r}")
    out: dict[int, tuple[str, ...]] = {}
    for v, r in rotations.items():
        w = vertex_from_json(v, dag.sink)
        if w in out:        # "s" and "0", "1" and "01", "t" and the sink's number
            raise ValueError(f"two rotations name vertex {vertex_to_json(w, dag.sink)!r}")
        out[w] = tuple(r)
    return PlanarEmbedding(out)


def embedding_to_json(dag: Dag, emb: PlanarEmbedding) -> dict:
    return {"rotations": {str(vertex_to_json(v, dag.sink)): list(r)
                          for v, r in sorted(emb.rotations.items())}}


def _trace(edge_ends: Mapping[str, tuple], rotations: Mapping) -> Trace:
    """Face orbits of a rotation system.

    The successor of a dart leaves the dart's arrival vertex along the edge
    preceding it in the counterclockwise rotation there; every orbit is the
    boundary walk of the face to the dart's left.
    """
    def succ(d: Dart) -> Dart:
        eid, direc = d
        tail, head = edge_ends[eid]
        v = head if direc == 1 else tail
        rot = rotations[v]
        e2 = rot[rot.index(eid) - 1]
        return (e2, 1 if edge_ends[e2][0] == v else -1)

    darts = sorted((e, d) for e in edge_ends for d in (1, -1))
    face_of: dict[Dart, int] = {}
    orbits: list[tuple[Dart, ...]] = []
    for d in darts:
        if d in face_of:
            continue
        orbit = [d]
        face_of[d] = len(orbits)
        nxt = succ(d)
        while nxt != d:
            face_of[nxt] = len(orbits)
            orbit.append(nxt)
            nxt = succ(nxt)
        orbits.append(tuple(orbit))
    return orbits, face_of


def validate_embedding(dag: Dag, emb: PlanarEmbedding) -> Trace:
    """Check the rotation system and return its face trace."""
    rots = emb.rotations
    if set(rots) != set(range(dag.sink + 1)):
        raise ValueError("rotation system must cover every vertex")
    for v in range(dag.sink + 1):
        incident = sorted(e.id for e in dag.in_edges(v)) + \
            sorted(e.id for e in dag.out_edges(v))
        if sorted(rots[v]) != sorted(incident):
            raise ValueError(f"rotation at {v} is not a permutation of its edges")
    for v in dag.inner_vertices:
        kinds = [dag.edge_by_id[e].tail == v for e in rots[v]]   # True = outgoing
        flips = sum(kinds[i] != kinds[i - 1] for i in range(len(kinds)))
        if flips != 2:
            raise ValueError(f"in/out edges are not contiguous at {v}")
    orbits, face_of = _trace({e.id: (e.tail, e.head) for e in dag.edges}, rots)
    if (dag.sink + 1) - len(dag.edges) + len(orbits) != 2:
        raise ValueError("rotation system is not planar (Euler check fails)")
    return orbits, face_of


# ---------------------------------------------------------------------------
# Duality: DAG -> poset

@dataclass(frozen=True)
class PlanarDual:
    poset: Poset
    cover_of_edge: dict[str, tuple[str, str]]  # edge -> (face below, face above)


def planar_dual(dag: Dag, emb: PlanarEmbedding) -> PlanarDual:
    """Bounded faces ordered by "face below an edge precedes face above it".

    The unbounded face plays bottom for the lowest edges and top for the
    highest ones; it is reported via the markers, never as an element.
    This is where an embedding is validated and its faces traced.
    """
    orbits, face_of = validate_embedding(dag, emb)
    outer = face_of[(emb.rotations[SOURCE][-1], 1)]
    names: dict[int, str] = {}
    used: set[str] = set()
    for i, orbit in enumerate(orbits):
        if i == outer:
            continue
        name = "/".join(sorted({d[0] for d in orbit}))
        while name in used:
            name += "'"
        used.add(name)
        names[i] = name
    cover_of_edge = {}
    for e in dag.edges:
        above = face_of[(e.id, 1)]
        below = face_of[(e.id, -1)]
        cover_of_edge[e.id] = (BOTTOM if below == outer else names[below],
                               TOP if above == outer else names[above])
    covers = sorted({c for c in cover_of_edge.values()
                     if c[0] != BOTTOM and c[1] != TOP})
    poset = Poset(tuple(sorted(names.values())), tuple(covers))
    poset.heights                 # strips minimal faces; raises on a cyclic dual
    return PlanarDual(poset, cover_of_edge)


# ---------------------------------------------------------------------------
# Duality: poset -> DAG

def hasse_edges(poset: Poset) -> tuple[tuple[str, str, str], ...]:
    """(edge id, lower, upper) for the Hasse diagram of the bounded poset."""
    out = [(f"{a}<{b}", a, b) for a, b in poset.covers]
    out += [(f"{BOTTOM}<{m}", BOTTOM, m) for m in poset.minimal]
    out += [(f"{m}<{TOP}", m, TOP) for m in poset.maximal]
    if not poset.elements:
        out = [(f"{BOTTOM}<{TOP}", BOTTOM, TOP)]
    return tuple(sorted(out))


def poset_to_dag(poset: Poset) -> tuple[Dag, PlanarEmbedding]:
    """Rebuild the DAG whose bounded faces realize the poset.

    Traces the faces of the bottom-to-top Hasse drawing of the poset with
    bottom and top adjoined (layered by height, see ``_layered_rotations``);
    faces become vertices, each cover becomes the edge from the face on its
    left to the face on its right, and the unbounded face splits into the
    source (left arc) and sink (right arc).
    """
    if any(p in (BOTTOM, TOP) for p in poset.elements):
        raise ValueError(f"element names {BOTTOM}/{TOP} are reserved")
    edges = hasse_edges(poset)
    ends = {eid: (a, b) for eid, a, b in edges}
    hasse_rotations = _layered_rotations(poset, edges)
    orbits, face_of = _trace(ends, hasse_rotations)
    if len(hasse_rotations) - len(ends) + len(orbits) != 2:
        raise ValueError("Hasse rotation system is not planar (Euler check fails)")
    outer = face_of[(hasse_rotations[BOTTOM][-1], 1)]

    inner = [i for i in range(len(orbits)) if i != outer]
    key = {i: tuple(sorted({d[0] for d in orbits[i]})) for i in inner}
    # left-to-right positions: topologically order faces along the duals
    succs: dict[int, set[int]] = {i: set() for i in inner}
    for eid in ends:
        a, b = face_of[(eid, 1)], face_of[(eid, -1)]   # west face, east face
        if a == b:
            if a != outer:
                raise ValueError(f"cover {eid} has the same bounded face on "
                                 "both sides (not strongly planar)")
            continue
        if a != outer and b != outer:
            succs[a].add(b)
    order: list[int] = []
    pending = dict(succs)
    while pending:
        ready = sorted((i for i in pending
                        if all(i not in s for j, s in pending.items() if j != i)),
                       key=lambda i: key[i])
        if not ready:
            raise ValueError("dual faces contain a cycle (bad rotations)")
        order.append(ready[0])
        del pending[ready[0]]
    number = {f: i + 1 for i, f in enumerate(order)}

    def vertex(face: int, end: str) -> int:
        if face == outer:
            return 0 if end == "tail" else len(inner) + 1
        return number[face]

    dag_edges = sorted((eid, vertex(face_of[(eid, 1)], "tail"),
                        vertex(face_of[(eid, -1)], "head")) for eid in ends)
    dag = make_dag(len(inner), dag_edges)

    rotations: dict[int, tuple[str, ...]] = {}
    for i in inner:
        rotations[number[i]] = tuple(d[0] for d in orbits[i])
    out_orbit = list(orbits[outer])
    n = len(out_orbit)
    start = next(k for k in range(n)
                 if out_orbit[k][1] == 1 and out_orbit[k - 1][1] == -1)
    cyc = out_orbit[start:] + out_orbit[:start]
    ups = [d for d in cyc if d[1] == 1]
    if cyc[:len(ups)] != ups:
        raise ValueError("outer boundary does not split into two monotone arcs")
    rotations[0] = tuple(d[0] for d in ups)
    rotations[len(inner) + 1] = tuple(d[0] for d in cyc[len(ups):])
    emb = PlanarEmbedding(rotations)
    validate_embedding(dag, emb)
    return dag, emb


def _layered_rotations(poset: Poset, edges) -> dict[str, tuple[str, ...]]:
    """Rotations of a layered drawing: x-position by name within the height
    layer; counterclockwise = upward covers right to left, then downward
    covers left to right."""
    layers: dict[int, list[str]] = {}
    for p in poset.elements:
        layers.setdefault(poset.heights[p], []).append(p)
    x = {p: i for layer in layers.values() for i, p in enumerate(sorted(layer))}
    x[BOTTOM] = x[TOP] = 0

    ups: dict[str, list[tuple]] = {p: [] for p in list(poset.elements) + [BOTTOM, TOP]}
    downs: dict[str, list[tuple]] = {p: [] for p in ups}
    for eid, a, b in edges:
        ups[a].append((-x[b], b, eid))
        downs[b].append((x[a], a, eid))
    return {p: tuple(eid for *_, eid in sorted(ups[p])) +
               tuple(eid for *_, eid in sorted(downs[p]))
            for p in ups}


# ---------------------------------------------------------------------------
# Planar framing and the integral equivalences

def planar_framing(dag: Dag, emb: PlanarEmbedding) -> Framing:
    """Top-to-bottom orders on in(v) and out(v) read off the rotations of
    a validated embedding (see ``planar_dual``)."""
    ins: dict[int, tuple[str, ...]] = {}
    outs: dict[int, tuple[str, ...]] = {}
    for v in dag.inner_vertices:
        rot = emb.rotations[v]
        is_out = [dag.edge_by_id[e].tail == v for e in rot]
        start = next(i for i in range(len(rot))
                     if is_out[i] and not is_out[i - 1])
        cyc = rot[start:] + rot[:start]
        k = dag.outdeg(v)
        outs[v] = tuple(reversed(cyc[:k]))    # rotation lists them bottom-up
        ins[v] = tuple(cyc[k:])
    return Framing(ins, outs)


# ---------------------------------------------------------------------------
# Simplices of the order polytope's triangulations, as filter chains

def maximal_filter_chains(poset: Poset) -> tuple[int, ...]:
    """Complete chains of filters from the empty set to everything, one per
    linear extension of the poset, as canonical masks over ``poset.filters``:
    the maximal cliques of the filters' comparability graph."""
    return max_cliques(poset.comparability, len(poset.elements) + 1)


def rank_constant_filters(poset: Poset) -> int:
    """The rank-constant simplex: the mask over ``poset.filters`` of the
    unions of the top ranks, everything down to nothing."""
    if not poset.graded:
        raise ValueError("poset is not graded")
    h, bits, index = poset.heights, poset.bits, {f: i for i, f in enumerate(poset.filters)}
    union, sigma = 0, 1 << index[0]
    for _, rank in groupby(reversed(h), key=h.__getitem__):   # strip order: rank by rank
        union |= sum(map(bits.__getitem__, rank))
        sigma |= 1 << index[union]
    return sigma


def _cutters(poset: Poset, pairs: Iterable[tuple[str, str]]) -> list[int]:
    """The cut rule: per pair (lower, upper), the mask over
    ``poset.filters`` of the filters that cut it, holding upper (``TOP``
    always) and not lower (``BOTTOM`` never)."""
    held = poset.holders
    return [held[b] & ~held[a] for a, b in pairs]


def maximal_equatorial_chains(poset: Poset) -> tuple[int, ...]:
    """Inclusion-maximal equatorial chains of nonempty proper filters, as
    canonical masks over ``poset.filters``.

    A chain is equatorial when its summed indicator map is level (no filter
    cuts it) on some cover into each rank j >= 2, one cover per rank.  So
    the chains are the faces of ``t_eq`` on the proper filters'
    comparability graph, with one facet per inclusion-maximal set of the
    filters that cut no cover of a choice, that choice standing for the
    transversal.  Its facets have n - r filters for n elements in r ranks;
    none (the empty face alone) means no chains.
    """
    if not poset.graded:
        raise ValueError("poset is not graded")
    rows = poset.comparability[1:-1]                  # filters sorted by size
    everyone = (1 << len(rows)) - 1
    cutters = [c >> 1 & everyone for c in _cutters(poset, poset.covers)]
    names = [f"{a}<{b}" for a, b in poset.covers]    # the covers' edge ids in the DAG
    h = poset.heights
    uncut = {everyone: ()}                            # filters -> first choice leaving them
    for j in range(2, max(h.values(), default=0) + 1):
        into = [k for k, (_, b) in enumerate(poset.covers) if h[b] == j]
        grown: dict[int, tuple[str, ...]] = {}
        for m, choice in uncut.items():
            for k in into:
                grown.setdefault(m & ~cutters[k], choice + (names[k],))
        uncut = grown
    facets = [EquatorialFace(choice, m) for m, choice in uncut.items()
              if not any(m != o and m & o == m for o in uncut)]
    size = len(poset.elements) - max(h.values(), default=0)
    faces = t_eq([a >> 1 & everyone for a in rows], facets, size).maximal_faces
    return tuple(f << 1 for f in faces if f)


# ---------------------------------------------------------------------------
# The route decomposition of the embedding, and the grand comparison

def topmost_route_decomposition(dag: Dag, emb: PlanarEmbedding,
                                framing: Framing) -> tuple[Route, ...]:
    """Repeatedly peel the route running along the top of what remains,
    following the planar framing ``framing`` of the embedding."""
    return peel_decomposition(dag, {SOURCE: tuple(reversed(emb.rotations[SOURCE])),
                                    **framing.out_order})


def filter_routes(dual: PlanarDual, routes: Sequence[Route]) -> tuple[int, ...]:
    """Filter index -> index in ``routes`` of the filter's route: the edges
    it cuts, lower face out and upper face in (``_cutters``).  A filter
    whose cut is no route, or two filters cutting one route, raise
    ``ValueError``."""
    poset = dual.poset
    cut: list[list[str]] = [[] for _ in poset.filters]
    for e, c in zip(dual.cover_of_edge, _cutters(poset, dual.cover_of_edge.values())):
        for i in _members(c):
            cut[i].append(e)
    index = {frozenset(r): j for j, r in enumerate(routes)}
    filter_of: dict[int, int] = {}                    # route index -> filter cutting it
    for i, edges in enumerate(cut):
        j = index.get(frozenset(edges))
        if j is None:
            raise ValueError(f"filter {list(poset.names(poset.filters[i]))} cuts "
                             f"{sorted(edges)}, which is not a route")
        if j in filter_of:
            raise ValueError(f"filters {list(poset.names(poset.filters[filter_of[j]]))} and "
                             f"{list(poset.names(poset.filters[i]))} both cut route {routes[j]}")
        filter_of[j] = i
    return tuple(filter_of)                           # keyed in filter order


@dataclass(frozen=True)
class EquivalenceReport:
    issues: tuple[str, ...]
    decomposition: tuple[Route, ...]
    flow_simplices: int
    order_simplices: int

    @property
    def ok(self) -> bool:
        return not self.issues


def verify_equivalence(dag: Dag, emb: PlanarEmbedding,
                       dual: PlanarDual) -> EquivalenceReport:
    """End-to-end comparison of the two sides of the duality, given the
    embedding's dual from ``planar_dual``.

    Checks that the topmost decomposition's framing is the planar framing,
    that complete filter chains map onto the planar framing's clique
    triangulation, that the join of the rank-constant simplex with the
    maximal equatorial chains maps onto the equatorial flow triangulation
    simplex for simplex, and that the rank-constant simplex maps onto the
    route simplex.

    Each half compares what generates it: the mapped comparability graph
    with the coherence graph, then the mapped rank-constant simplex and
    maximal equatorial chains with the route simplex and the sphere.
    Cliques and joins are listed only to name the simplices that differ.
    """
    issues: list[str] = []
    pf = planar_framing(dag, emb)
    decomp = topmost_route_decomposition(dag, emb, pf)
    df = decomposition_framing(dag, decomp)
    for v in dag.inner_vertices:
        if pf.in_order[v] != df.in_order[v] or pf.out_order[v] != df.out_order[v]:
            issues.append(f"framings disagree at vertex {v}")
    routes, adj, _, sphere = equatorial_sphere(dag, decomp, df)
    poset = dual.poset
    route_of = filter_routes(dual, routes)

    def mapped(m: int) -> int:
        return _mask(route_of[i] for i in _members(m))

    def compare(what: str, order: set[int], flow: set[int]) -> None:
        # route indices follow the route order, so simplices sort as routes do
        for s in _canonical(order - flow) + _canonical(flow - order):
            issues.append(f"{what} triangulations differ at {[routes[i] for i in _members(s)]}")

    # the only issues so far are framing disagreements; without one, the
    # decomposition framing is the planar framing
    if issues:
        adj = coherence_graph(dag, pf, routes)
    # a graph fixes its maximal cliques; a route no filter maps to keeps a
    # zero row, which no coherence graph of positive dimension has
    graph = [0] * len(routes)
    for i, row in enumerate(poset.comparability):
        graph[route_of[i]] = mapped(row)
    if graph != list(adj):
        compare("chain/clique", set(map(mapped, maximal_filter_chains(poset))),
                set(max_cliques(adj, dimension(dag) + 1)))

    sigma = rank_constant_filters(poset)
    chains = maximal_equatorial_chains(poset)
    onto_routes = {routes[route_of[i]] for i in _members(sigma)} == set(decomp)
    # no sphere face holds a decomposition route, so joining is one to one
    faces = set(sphere.maximal_faces) or {0}        # no faces: sigma alone
    if onto_routes and (set(map(mapped, chains)) or {0}) == faces:
        return EquivalenceReport(tuple(issues), decomp, len(faces), len(faces))
    order_faces = set(map(mapped, join_with_simplex(sigma, chains, len(poset.elements) + 1)))
    flow_faces = set(joined_simplices(dag, routes, decomp, sphere))
    compare("equatorial", order_faces, flow_faces)
    if not onto_routes:
        issues.append("rank-constant simplex does not map onto the route simplex")
    return EquivalenceReport(tuple(issues), decomp, len(flow_faces), len(order_faces))
