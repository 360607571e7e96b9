"""Coherence of routes under a framing and the induced triangulation.

Two routes sharing an inner vertex are compared twice: once along their
prefixes into the vertex (scanning backwards to the first divergence) and
once along their suffixes out of it (scanning forwards).  They conflict at
the vertex when the two comparisons point in opposite directions; a framed
DAG's triangulation has one maximal simplex for each maximal set of
pairwise non-conflicting routes.

Route sets are int bitmasks over the route list: bit i stands for route i.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby
from operator import itemgetter
from typing import Sequence

from .dag import Dag, dimension
from .geometry import SimplicialComplex, Triangulation
from .routes import Framing, Route, enumerate_routes, indicator_vector


def _members(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


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


def max_cliques(adj: Sequence[int], size: int) -> tuple[tuple[int, ...], ...]:
    """All maximal cliques of the graph with int-mask adjacency ``adj``, as
    sorted vertex-index tuples in canonical order.  Each must have ``size``
    members (dimension+1 for a coherence graph, see ``coherence_graph``)."""
    masks = _bron_kerbosch(adj)
    for m in masks:
        if m.bit_count() != size:
            c = _members(m)
            raise AssertionError(f"maximal clique {c} has size {len(c)}, expected {size}")
    return tuple(sorted(map(_members, masks)))


def dkk_triangulation(dag: Dag, framing: Framing) -> Triangulation:
    routes = enumerate_routes(dag)
    return Triangulation(
        complex=SimplicialComplex(max_cliques(coherence_graph(dag, framing, routes),
                                           dimension(dag) + 1)),
        labels=routes,
        coords=tuple(indicator_vector(dag, r) for r in routes),
    )


def exceptional_routes(tri: Triangulation) -> tuple[Route, ...]:
    """Routes lying in every maximal simplex of a framed triangulation,
    i.e. the routes coherent with every other route."""
    common = set.intersection(*map(set, tri.simplices))
    return tuple(tri.labels[i] for i in sorted(common))
