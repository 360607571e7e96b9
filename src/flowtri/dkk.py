"""Coherence of routes under a framing and the induced triangulation.

Two routes sharing an inner vertex are compared twice: once along their
prefixes into the vertex (scanning backwards to the first divergence) and
once along their suffixes out of it (scanning forwards).  They conflict at
the vertex when the two comparisons point in opposite directions; a framed
DAG's triangulation has one maximal simplex for each maximal set of
pairwise non-conflicting routes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .dag import SOURCE, Dag, dimension
from .geometry import SimplicialComplex, Triangulation
from .routes import Framing, Route, enumerate_routes, indicator_vector


def _cmp(dag: Dag, framing: Framing, p_at: Mapping[int, str],
         q_at: Mapping[int, str], v: int, forward: bool) -> int:
    """Compare two routes through v at their first divergence, scanning
    forwards from v (out-orders) or backwards from v (in-orders); -1 means
    p's side is the smaller one.  ``p_at`` and ``q_at`` map a vertex to the
    route's edge leaving it (forwards) or entering it (backwards)."""
    pos, stop = (framing.out_pos, dag.sink) if forward else (framing.in_pos, SOURCE)
    w = v
    while w != stop:
        a, b = p_at[w], q_at[w]
        if a != b:
            return -1 if pos(w, a) < pos(w, b) else 1
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
    of p and q in opposite directions."""
    p_in, p_out = _steps(dag, p)
    q_in, q_out = _steps(dag, q)
    for v in (p_out.keys() & q_out.keys()) - {SOURCE}:
        if (_cmp(dag, framing, p_in, q_in, v, False)
                * _cmp(dag, framing, p_out, q_out, v, True) == -1):
            return True
    return False


def coherent(dag: Dag, framing: Framing, p: Route, q: Route) -> bool:
    return not conflict(dag, framing, p, q)


def coherence_graph(dag: Dag, framing: Framing,
                    routes: Sequence[Route]) -> tuple[frozenset[int], ...]:
    """Adjacency of the coherence graph: entry i holds the indices of the
    routes coherent with ``routes[i]``."""
    n = len(routes)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if coherent(dag, framing, routes[i], routes[j]):
                adj[i].add(j)
                adj[j].add(i)
    return tuple(frozenset(a) for a in adj)


def _bron_kerbosch(adj: Sequence[frozenset[int]], r: set[int], p: set[int],
                   x: set[int], out: list[tuple[int, ...]]) -> None:
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v], out)
        p.remove(v)
        x.add(v)


def max_cliques(dag: Dag, adj: Sequence[frozenset[int]]) -> tuple[tuple[int, ...], ...]:
    """All maximal cliques of a coherence graph (see ``coherence_graph``),
    as sorted route-index tuples in canonical order.  Each must have
    dimension+1 members."""
    cliques: list[tuple[int, ...]] = []
    _bron_kerbosch(adj, set(), set(range(len(adj))), set(), cliques)
    cliques.sort()
    want = dimension(dag) + 1
    for c in cliques:
        if len(c) != want:
            raise AssertionError(
                f"framing/coherence inconsistency: clique {c} has size {len(c)}, "
                f"expected {want}")
    return tuple(cliques)


def dkk_triangulation(dag: Dag, framing: Framing) -> Triangulation:
    routes = enumerate_routes(dag)
    return Triangulation(
        complex=SimplicialComplex(max_cliques(dag, coherence_graph(dag, framing, routes))),
        labels=routes,
        coords=tuple(indicator_vector(dag, r) for r in routes),
    )


def exceptional_routes(tri: Triangulation) -> tuple[Route, ...]:
    """Routes lying in every maximal simplex of a framed triangulation,
    i.e. the routes coherent with every other route."""
    common = set.intersection(*map(set, tri.simplices))
    return tuple(tri.labels[i] for i in sorted(common))
