"""Coherence of routes under a framing, the induced triangulation, and one
certificate for any triangulation whose vertices are routes.

Two routes sharing an inner vertex are compared twice: once along their
prefixes into the vertex (scanning backwards to the first divergence) and
once along their suffixes out of it (scanning forwards).  They conflict at
the vertex when the two comparisons point in opposite directions; a framed
DAG's triangulation has one maximal simplex for each maximal set of
pairwise non-conflicting routes (Danilov-Karzanov-Koshevoy, *Coherent fans
in the space of flows in framed graphs*, 2012).

Route sets and simplices are int bitmasks over the route list: bit i is
route i.  A route is compared with every other route at once by a mask
recursion along it: the routes that have not diverged from it are the ones
that used each of its edges so far, and the edge where another route
leaves it decides that route's side, so each step ORs in the routes that
leave by an earlier (later) edge and keeps the side of those that stay
(see ``coherence_graph``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache, reduce
from operator import and_
from typing import Sequence

from .dag import Dag, dimension
from .geometry import _canonical, _members, determinant, normalized_volume
from .routes import Framing, Route, RouteTable, graph_table, is_route, route_table


@dataclass(frozen=True)
class Triangulation:
    """A triangulation stored by its maximal simplices, whose vertices are
    fixed by their labels: a route's vertex is its indicator vector
    (Danilov-Karzanov-Koshevoy 2012).

    ``simplices`` are int masks over the vertices (bit i is vertex i);
    ``labels[i]`` names vertex i (a route).
    """

    simplices: tuple[int, ...]
    labels: tuple


@dataclass(frozen=True)
class TriangulationReport:
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def coherence_graph(framing: Framing, table: RouteTable) -> tuple[int, ...]:
    """Adjacency of the coherence graph as int masks: bit j of entry i is
    set when routes i and j (i != j) of ``table`` are coherent.

    If routes r and q conflict at v, they conflict at the vertex u where
    their prefixes into v first diverge, scanning backwards: u is inner,
    as prefixes that meet only at the source compare equal, and r and q
    share every edge from u to v, so both comparisons at u meet the same
    divergences as at v.  So r conflicts exactly with the routes q that
    enter an inner vertex u of r by an in-edge other than r's edge e, one
    ordered before e at u whose suffix out of u is above r's, or one after
    e whose suffix is below.  One walk back along r from the sink ranks the
    suffixes: with f = (u, w) r's edge out of u,

        below(u) = (routes out of u by an out-edge before f) | below(w) & thru(f)

    and above(u) likewise, since a route through f has not diverged from r
    at u and compares as it does at w, and nothing is above or below r at
    the sink."""
    routes, thru = table.routes, table.through
    # per edge into (out of) an inner vertex: the routes into (out of) it by
    # the in-edges (out-edges) ordered before the edge, and by those after it
    sides = []
    for orders in (framing.in_order, framing.out_order):
        before: dict[str, int] = {}
        after: dict[str, int] = {}
        for es in orders.values():
            for side, walk in ((before, es), (after, reversed(es))):
                acc = 0
                for eid in walk:
                    side[eid] = acc
                    acc |= thru[eid]
        sides.append((before, after))
    (before_in, after_in), (before_out, after_out) = sides
    full = (1 << len(routes)) - 1
    adj = []
    for i, r in enumerate(routes):
        conflicts = below = above = 0
        for e, f in zip(reversed(r[:-1]), reversed(r[1:])):    # into and out of u
            t = thru[f]
            below, above = before_out[f] | below & t, after_out[f] | above & t
            conflicts |= before_in[e] & above | after_in[e] & below
        adj.append(full & ~conflicts & ~(1 << i))
    return tuple(adj)


def _bron_kerbosch(adj: Sequence[int], within: int) -> list[int]:
    """Maximal cliques inside the vertex mask ``within``, on int bitsets,
    with Tomita's pivot (Tomita-Tanaka-Takahashi 2006) on an explicit
    stack of (R, P, X) triples, so a clique of any size costs no recursion.

    Any pivot u of P | X keeps the same cliques: a maximal clique holding
    R holds u or a vertex of P that u misses, so those are the branches.
    The most neighbours in P gives the fewest, and the scan stops at the
    first vertex missing at most one vertex of P, as each vertex of P
    misses itself.  A child with an empty P is settled as it is made: a
    clique when its X is empty too, else dropped (a vertex of X extends
    it), so every stacked triple has a nonempty P.  Masks are read from
    the top bit down (``bit_length``): isolating the low bit takes a
    negative int, which CPython's bitwise ops complement."""
    if not within:
        return [0]
    out: list[int] = []
    stack = [(0, within, 0)]
    while stack:
        r, p, x = stack.pop()
        need = p.bit_count() - 1         # a pivot missing at most one vertex of P
        best = pivot = -1
        rest = p | x
        while rest:
            u = rest.bit_length() - 1
            rest ^= 1 << u
            if (n := (adj[u] & p).bit_count()) > best:
                best, pivot = n, u
                if n >= need:
                    break
        cand = p & ~adj[pivot]
        while cand:
            v = cand.bit_length() - 1
            bit = 1 << v
            cand ^= bit
            a = adj[v]
            if q := p & a:
                stack.append((r | bit, q, x & a))
            elif not x & a:
                out.append(r | bit)
            p ^= bit
            x |= bit
    return out


def _sized_cliques(adj: Sequence[int], size: int, within: int | None = None) -> list[int]:
    """``max_cliques`` of the subgraph on the vertex mask ``within``
    (default: the whole graph), unsorted: in the order ``_bron_kerbosch``
    finds them, which every caller sorts or puts in a set."""
    masks = _bron_kerbosch(adj, (1 << len(adj)) - 1 if within is None else within)
    for m in masks:
        if m.bit_count() != size:
            raise AssertionError(f"maximal clique {_members(m)} has size {m.bit_count()}, "
                                 f"expected {size}")
    return masks


def max_cliques(adj: Sequence[int], size: int) -> tuple[int, ...]:
    """All maximal cliques of the graph with int-mask adjacency ``adj``, as
    vertex masks in canonical order.  Each must have ``size`` members
    (dimension+1 for a coherence graph, see ``coherence_graph``)."""
    return tuple(_canonical(_sized_cliques(adj, size)))


def dkk_triangulation(dag: Dag, framing: Framing) -> Triangulation:
    table = graph_table(dag)
    return Triangulation(max_cliques(coherence_graph(framing, table), dimension(dag) + 1),
                         table.routes)


# The certificate builds its ridge table in this many parts, one at a time,
# split by ridge mask modulo this number: an odd prime, since a mask modulo a
# power of two would see only its lowest routes.
_RIDGE_BUCKETS = 31


def verify_dkk_triangulation(dag: Dag, tri: Triangulation) -> TriangulationReport:
    """Whether ``tri`` is a unimodular triangulation of the flow polytope of
    ``dag`` whose vertices are routes: the route-swap certificate
    (``_swap_certificate``) against the graph's own dimension and normalized
    volume, the latter one Lidskii count and no Ehrhart pass.  ``ValueError``
    for an invalid ``dag``; a malformed ``tri`` is an issue, never raised."""
    volume, dim = normalized_volume(dag), dimension(dag)     # validates dag
    return _swap_certificate(dag, tri, dim, volume)


def _chart(dag: Dag) -> list[int]:
    """The edge indices of a chart of aff(P), P the flow polytope of a valid
    ``dag``: every edge but the first in-edge of each vertex after the
    source, ``dimension(dag)`` of them.

    The first in-edges form a tree from the source, one edge into each other
    vertex.  On aff(P) the flow into the sink is 1 and every inner vertex
    passes on what it takes in, so working back from the sink the flow on
    the tree edge into v is 1 (v the sink) or v's out-flows, minus v's other
    in-flows: a sum of flows on the chart and on tree edges into later
    vertices, already known.  So the projection onto the chart is one-to-one
    on aff(P), onto Q^dim (every choice of chart flows solves), and its
    inverse is affine with integer coefficients; it maps aff(P)'s lattice
    points onto Z^dim.  A valid graph puts every edge on a route, so aff(P)
    is all the solutions.  An affine bijection keeps barycentric
    coordinates, and one that maps lattice onto lattice keeps normalized
    volumes: a simplex of routes is unimodular exactly when its chart
    determinant is +-1."""
    tree = {dag.in_edges(v)[0].id for v in range(1, dag.sink + 1)}
    return [k for k, e in enumerate(dag.edges) if e.id not in tree]


def _swap_certificate(dag: Dag, tri: Triangulation, dim: int,
                      volume: int) -> TriangulationReport:
    """The report of ``verify_dkk_triangulation``'s certificate for a valid
    ``dag`` of dimension ``dim`` and normalized volume ``volume``: one issue
    per failing step, naming its label, simplex or ridge by member tuple.

    The certificate asks that the labels be distinct routes of ``dag`` (a
    route's vertex is its indicator vector) and ``volume`` simplex masks of
    dim + 1 routes, each ridge in at most two.  On the chart of aff(P)
    (``_chart``), let D_x be the determinant of the rows r - x over the
    routes r of a ridge R: bit c of a route's edge mask is its coordinate
    on chart column c.  For a ridge R in two simplices, with apexes a
    and b, D_b = -D_a != 0: a and b meet at an inner vertex where swapping
    their prefixes gives routes c, d of R, so b = c + d - a; or, where no
    swap crosses R, an exact step takes the two determinants.  The apex of
    a ridge in one simplex uses an edge e that every route of the ridge
    misses.  The first simplex has chart determinant +-1.

    Why that is sound (De Loera-Rambau-Santos, *Triangulations*, Ch. 4):
    let V be ``volume``, the polytope P's own normalized volume, which
    ``normalized_volume`` counts by the Lidskii formula (Baldoni-Vergne,
    2008) as the integer flows with indeg(v) - 1 units injected at each
    inner vertex v, independently of ``tri``.  The chart keeps barycentric
    coordinates and normalized volumes, so |D_x| is the normalized volume
    of R + x, and x -> D_x is affine and vanishes on aff(R): D_b / D_a is
    b's barycentric coordinate at a in R + a.  A swap gives D_b = D_c + D_d
    - D_a = -D_a.  So at an interior ridge b lies strictly across R, and
    both simplices have normalized volume |D_a|.  The step reads the same
    from either side, so it holds whichever simplex the ridge table meets
    first.  So the swap component C of the first simplex (the simplices it
    reaches through interior ridges) is all unimodular, hence
    full-dimensional.  Each ridge of C lies in two simplices of C on
    opposite sides, or on the facet x_e = 0 of P, as x_e >= 0 holds on
    every route.
    So C covers a generic point of P a constant k >= 1 times, and |C| = k *
    V.  There are V simplices in all, so k = 1 and C is all of them: every
    condition of the ridge check holds.  The proof needs V to be the true
    volume: given twice the volume, two triangulations with no ridge in
    common pass every other step.  Conversely every step holds on a
    unimodular triangulation of P by routes: the apexes at an interior ridge
    have barycentric coordinate -1 in each other's simplex, and a boundary
    ridge lies on a facet x_e = 0 that its apex misses.
    """
    labels, simplices, n = tri.labels, tri.simplices, len(tri.labels)
    issues = [] if simplices else ["no simplices"]
    seen: dict = {}                          # route -> its first label index
    for i, r in enumerate(labels):
        if not (type(r) is tuple and all(type(e) is str for e in r) and is_route(dag, r)):
            issues.append(f"label {i} {r!r} is not a route of the graph")
        elif (j := seen.setdefault(r, i)) != i:
            issues.append(f"label {i} {r!r} repeats label {j}")
    for m in simplices:
        if type(m) is not int or m < 0:
            issues.append(f"simplex {m!r} is not a mask of vertex indices")
        elif m.bit_count() != dim + 1:
            issues.append(f"simplex {_members(m)} has {m.bit_count()} vertices, "
                          f"expected {dim + 1}")
        elif m >> n:
            issues.append(f"simplex {_members(m)} names a vertex without coordinates")
    malformed = bool(issues)
    if len(simplices) != volume:
        issues.append(f"{len(simplices)} simplices but normalized volume {volume}")
    if malformed:
        return TriangulationReport(tuple(issues))
    # the labels' table; upto[v], the mask of the edges with head <= v, so a
    # route's prefix into an inner vertex v it visits is its edge mask &
    # upto[v] (every edge ascends); and per label the mask of those vertices
    table = route_table(dag, labels)
    edges, by_edges, through = table.edges, table.index, table.through
    upto = [sum(1 << k for k, e in enumerate(dag.edges) if e.head <= v)
            for v in range(dag.sink + 1)]
    visited = [sum(1 << dag.edge_by_id[eid].head for eid in r[:-1]) for r in labels]
    columns = _chart(dag)
    point = cache(lambda i: tuple(edges[i] >> c & 1 for c in columns))   # route i on the chart

    def det_from(x: int, ridge: int) -> int:
        """D_x at ``ridge``: the determinant of the rows r - x on the chart,
        for the routes r of ``ridge``."""
        px = point(x)
        return determinant([[p - q for p, q in zip(point(r), px)] for r in _members(ridge)])

    first = simplices[0]
    low = first & -first
    det = det_from(low.bit_length() - 1, first ^ low)
    if not det:
        issues.append(f"simplex {_members(first)} is degenerate")
    elif abs(det) != 1:
        issues.append(f"simplex {_members(first)} is not unimodular")

    def swap_crosses(a: int, b: int, ridge: int) -> bool:
        """Some prefix swap of routes a and b gives two routes of ``ridge``."""
        ea, eb = edges[a], edges[b]
        for v in _members(visited[a] & visited[b]):
            pa, pb = ea & upto[v], eb & upto[v]
            c = by_edges.get(pa | (eb ^ pb))
            d = by_edges.get(pb | (ea ^ pa))
            if c is not None and d is not None and ridge >> c & ridge >> d & 1:
                return True
        return False

    def exact_step(s: int, t: int, ridge: int) -> str | None:
        """None when the apex b of simplex ``t`` at ``ridge`` has barycentric
        coordinate -1 at the apex a of simplex ``s`` in s, else the issue."""
        a, b = (simplices[s] ^ ridge).bit_length() - 1, (simplices[t] ^ ridge).bit_length() - 1
        at_a, at_b = det_from(a, ridge), det_from(b, ridge)
        if not at_a:
            return f"simplex {_members(simplices[s])} is degenerate"
        if at_b == -at_a:
            return None
        pair = f"simplices {_members(simplices[s])} and {_members(simplices[t])}"
        if at_a * at_b >= 0:
            return f"{pair} lie on the same side of ridge {_members(ridge)}"
        return f"{pair} differ in volume across ridge {_members(ridge)}"

    # the (simplex k, apex v) pairs as k * n + v, in buckets by ridge mask:
    # a ridge's owners share a bucket, and one bucket's table is held at a time
    buckets = [array("q") for _ in range(_RIDGE_BUCKETS)]
    for k, m in enumerate(simplices):
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            buckets[(m ^ low) % _RIDGE_BUCKETS].append(k * n + low.bit_length() - 1)
    for bucket in buckets:
        # ridge mask -> its simplex while it lies in one, minus the number
        # of its simplices once in more
        owner: dict[int, int] = {}
        for entry in bucket:
            k, apex = divmod(entry, n)
            ridge = simplices[k] ^ 1 << apex
            other = owner.setdefault(ridge, k)
            if other == k:
                continue
            if other < 0:
                owner[ridge] = other - 1
                continue
            owner[ridge] = -2
            if not swap_crosses((simplices[other] ^ ridge).bit_length() - 1, apex, ridge) \
                    and (issue := exact_step(other, k, ridge)):
                issues.append(issue)
        for ridge, k in owner.items():
            if k < -2:
                issues.append(f"ridge {_members(ridge)} lies in {-k} simplices")
            elif k >= 0 and all(ridge & through[eid]
                                for eid in labels[(simplices[k] ^ ridge).bit_length() - 1]):
                issues.append(f"ridge {_members(ridge)} of simplex {_members(simplices[k])} "
                              f"is not on the boundary")
    return TriangulationReport(tuple(dict.fromkeys(issues)))   # each once


def exceptional_routes(tri: Triangulation) -> tuple[Route, ...]:
    """Routes lying in every maximal simplex (the AND of the masks) of a
    framed triangulation, i.e. the routes coherent with every other route."""
    return tuple(tri.labels[i] for i in _members(reduce(and_, tri.simplices)))
