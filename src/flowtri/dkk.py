"""Coherence of routes under a framing and the induced triangulation.

Two routes sharing an inner vertex are compared twice: once along their
prefixes into the vertex (scanning backwards to the first divergence) and
once along their suffixes out of it (scanning forwards).  They conflict at
the vertex when the two comparisons point in opposite directions; a framed
DAG's triangulation has one maximal simplex for each maximal set of
pairwise non-conflicting routes.

Route sets and simplices are int bitmasks over the route list: bit i is route i.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import reduce
from itertools import groupby
from operator import and_, itemgetter
from typing import Sequence

from .dag import Dag, dimension, validate
from .geometry import (Triangulation, TriangulationReport, _canonical, _mask, _members,
                       is_unimodular_simplex, normalized_volume, verify_triangulation)
from .routes import Framing, Route, enumerate_routes, indicator_vector, is_route


def _keys(dag: Dag, framing: Framing, route: Route) -> dict[int, tuple[tuple, tuple]]:
    """Inner vertex v of the route -> (in-key, out-key): the in-positions of
    the route's edges walking backwards from v to the source, and the
    out-positions walking forwards from v to the sink.

    Two routes through v are at the same vertex at every step until their
    edges differ, and there equal positions mean equal edges, so comparing
    two routes' keys lexicographically is the first-divergence comparison
    of their prefixes (suffixes); equal keys mean equal prefixes
    (suffixes)."""
    edges = [dag.edge_by_id[e] for e in route]
    ins = [framing.in_pos(e.head, e.id) for e in edges[:-1]]
    outs = [framing.out_pos(e.tail, e.id) for e in edges[1:]]
    return {e.head: (tuple(reversed(ins[:i + 1])), tuple(outs[i:]))
            for i, e in enumerate(edges[:-1])}


def _sides(ranked: list[tuple[tuple, int]]) -> dict[int, tuple[int, int]]:
    """Route index -> (mask of the routes with a smaller key, mask of those
    with a larger key), for (key, route index) pairs."""
    ranked.sort()
    through = _mask(i for _, i in ranked)
    out: dict[int, tuple[int, int]] = {}
    below = 0
    for _, tied in groupby(ranked, key=itemgetter(0)):
        members = [i for _, i in tied]
        same = _mask(members)
        for i in members:
            out[i] = (below, through & ~(below | same))
        below |= same
    return out


def coherence_graph(dag: Dag, framing: Framing,
                    routes: Sequence[Route]) -> tuple[int, ...]:
    """Adjacency of the coherence graph as int masks: bit j of entry i is
    set when ``routes[i]`` and ``routes[j]`` (i != j) are coherent.

    At each inner vertex the routes through it are ranked by in-key and by
    out-key (see ``_keys``); a route conflicts there with the routes on the
    other side of it in both rankings, in opposite directions."""
    at: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
    for i, r in enumerate(routes):
        for v, (kin, kout) in _keys(dag, framing, r).items():
            at[v][0].append((kin, i))
            at[v][1].append((kout, i))
    conflicts = [0] * len(routes)
    for ins, outs in at.values():
        by_in, by_out = _sides(ins), _sides(outs)
        for i, (in_below, in_above) in by_in.items():
            out_below, out_above = by_out[i]
            conflicts[i] |= (in_below & out_above) | (in_above & out_below)
    full = (1 << len(routes)) - 1
    return tuple(full & ~c & ~(1 << i) for i, c in enumerate(conflicts))


def _bron_kerbosch(adj: Sequence[int]) -> list[int]:
    """Maximal cliques on int bitsets, with Tomita's pivot: a vertex of
    P | X with the most neighbours in P (Tomita-Tanaka-Takahashi 2006).
    The (R, P, X) triples wait on an explicit stack, so a clique of any
    size costs no recursion."""
    out: list[int] = []
    stack = [(0, (1 << len(adj)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        best = pivot = -1
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if (n := (adj[u] & p).bit_count()) > best:
                best, pivot = n, u
        cand = p & ~adj[pivot]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            stack.append((r | low, p & adj[v], x & adj[v]))
            p ^= low
            x |= low
    return out


def max_cliques(adj: Sequence[int], size: int) -> tuple[int, ...]:
    """All maximal cliques of the graph with int-mask adjacency ``adj``, as
    vertex masks in canonical order.  Each must have ``size`` members
    (dimension+1 for a coherence graph, see ``coherence_graph``)."""
    masks = _bron_kerbosch(adj)
    for m in masks:
        if m.bit_count() != size:
            raise AssertionError(f"maximal clique {_members(m)} has size {m.bit_count()}, "
                                 f"expected {size}")
    return tuple(_canonical(masks))


def dkk_triangulation(dag: Dag, framing: Framing) -> Triangulation:
    routes = enumerate_routes(dag)
    return Triangulation(
        simplices=max_cliques(coherence_graph(dag, framing, routes), dimension(dag) + 1),
        labels=routes,
        coords=tuple(indicator_vector(dag, r) for r in routes),
    )


# The certificate builds its ridge table in this many parts, one at a time,
# split by ridge mask modulo this number: an odd prime, since a mask modulo a
# power of two would see only its lowest routes.
_RIDGE_BUCKETS = 31


def verify_dkk_triangulation(dag: Dag, tri: Triangulation) -> TriangulationReport:
    """``verify_triangulation`` of ``tri`` against the flow polytope of
    ``dag``, whose dimension and normalized volume it works out once, for a
    triangulation whose vertices are routes of ``dag``: by a route-swap
    certificate with one unimodularity test wherever the certificate goes
    through, and by ``verify_triangulation`` itself wherever it does not.
    ``ValueError`` for an invalid ``dag``."""
    if not (report := validate(dag)).ok:
        raise ValueError(f"invalid graph: {report.violations}")
    dim, volume = dimension(dag), normalized_volume(dag)
    if _swap_certificate(dag, tri, dim, volume):
        return TriangulationReport(())
    return verify_triangulation(tri, dim, volume)


def _swap_certificate(dag: Dag, tri: Triangulation, dim: int, volume: int) -> bool:
    """True when the route-swap certificate of ``verify_dkk_triangulation``
    goes through, for a valid ``dag`` of dimension ``dim`` and normalized
    volume ``volume``; False at the first step that fails.

    The certificate asks that the labels be distinct routes of ``dag``, with
    their indicator vectors as coordinates, and ``volume`` simplex masks of
    dim + 1 routes, each ridge in at most two.  The apexes a, b of a ridge
    in two simplices meet at an inner vertex where swapping their prefixes
    gives routes c, d of the ridge.  The apex of a ridge in one simplex uses
    an edge e that every route of the ridge misses.  The first simplex is
    unimodular.

    Why that is sound (De Loera-Rambau-Santos, *Triangulations*, Ch. 4):
    let V be ``volume``, the polytope P's own normalized volume.  A
    swap-crossed pair has b - c = d - a, so both simplices have one
    difference lattice, and the ridge's affine functional f has
    f(b) = -f(a) < 0.  So the swap component C of the first simplex is all
    unimodular and full-dimensional (a valid graph's routes span at most
    ``dim`` dimensions).  Each ridge of C lies in two simplices of C on
    opposite sides, or on the facet x_e = 0 of P, as x_e >= 0 holds on
    every route.  So C covers a generic point of P a constant k >= 1 times,
    and |C| = k * V.  There are V simplices in all, so k = 1 and C is all
    of them: every condition of the ridge check holds.  The proof needs V
    to be the true volume: given twice the volume, two triangulations with
    no ridge in common pass every other step.
    """
    labels, simplices, n = tri.labels, tri.simplices, len(tri.labels)
    if not (simplices and len(simplices) == volume
            and all(type(r) is tuple and all(type(e) is str for e in r)
                    and is_route(dag, r) for r in labels)
            and len(set(labels)) == n
            and tuple(tri.coords) == tuple(indicator_vector(dag, r) for r in labels)
            and all(type(m) is int and 0 <= m and not m >> n and m.bit_count() == dim + 1
                    for m in simplices)):
        return False

    # per route: its edge set, and the edge set of its prefix into each
    # inner vertex it visits; per edge: the routes through it
    bit = {e.id: 1 << k for k, e in enumerate(dag.edges)}
    edges = [sum(map(bit.__getitem__, r)) for r in labels]
    by_edges = {m: i for i, m in enumerate(edges)}
    prefixes = []
    for r in labels:
        pre, into = 0, {}
        for eid in r[:-1]:
            pre |= bit[eid]
            into[dag.edge_by_id[eid].head] = pre
        prefixes.append(into)
    through = {eid: _mask(i for i, m in enumerate(edges) if m & b) for eid, b in bit.items()}

    def swap_crosses(a: int, b: int, ridge: int) -> bool:
        """Some prefix swap of routes a and b gives two routes of ``ridge``."""
        pa, pb = prefixes[a], prefixes[b]
        for v in pa.keys() & pb.keys():
            c = by_edges.get(pa[v] | (edges[b] ^ pb[v]))
            d = by_edges.get(pb[v] | (edges[a] ^ pa[v]))
            if c is not None and d is not None and ridge >> c & ridge >> d & 1:
                return True
        return False

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
        # ridge mask -> its simplex while it lies in one, -1 once in two
        owner: dict[int, int] = {}
        for entry in bucket:
            k, apex = divmod(entry, n)
            ridge = simplices[k] ^ 1 << apex
            other = owner.setdefault(ridge, k)
            if other == k:
                continue
            if other < 0 or not swap_crosses(apex, (simplices[other] ^ ridge).bit_length() - 1,
                                             ridge):
                return False
            owner[ridge] = -1
        for ridge, k in owner.items():
            if k >= 0 and all(ridge & through[eid]
                              for eid in labels[(simplices[k] ^ ridge).bit_length() - 1]):
                return False
    try:
        return is_unimodular_simplex([tri.coords[i] for i in _members(simplices[0])])
    except ValueError:
        return False


def exceptional_routes(tri: Triangulation) -> tuple[Route, ...]:
    """Routes lying in every maximal simplex (the AND of the masks) of a
    framed triangulation, i.e. the routes coherent with every other route."""
    return tuple(tri.labels[i] for i in _members(reduce(and_, tri.simplices)))
