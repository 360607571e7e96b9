"""Routes, route tables, route decompositions and framings.

A route is stored as the tuple of its edge ids from source to sink; a
decomposition is an ordered tuple of routes.  The linear order of a
decomposition matters: it drives the decomposition framing and hence the
equatorial flow triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .dag import SOURCE, Dag, degree_equality

Route = tuple[str, ...]


class NotGorensteinError(ValueError):
    pass


@dataclass(frozen=True)
class Framing:
    """Per inner vertex, linear orders on the incoming and outgoing edges."""

    in_order: Mapping[int, tuple[str, ...]]
    out_order: Mapping[int, tuple[str, ...]]


def is_route(dag: Dag, route: Route) -> bool:
    if not route:
        return False
    at = SOURCE
    for eid in route:
        e = dag.edge_by_id.get(eid)
        if e is None or e.tail != at:
            return False
        at = e.head
    return at == dag.sink


def enumerate_routes(dag: Dag) -> tuple[Route, ...]:
    """All routes, in lexicographic order of their edge-id sequences: a
    depth-first walk on an explicit stack, each vertex's out-edges sorted
    once, so a route may be longer than the recursion limit."""
    steps = {v: [(e.id, e.head) for e in sorted(dag.out_edges(v), key=lambda e: e.id)]
             for v in range(dag.sink)}
    out: list[Route] = []
    path: list[str] = []
    stack = [iter(steps[SOURCE])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
        elif step[1] == dag.sink:
            out.append((*path, step[0]))
        else:
            path.append(step[0])
            stack.append(iter(steps[step[1]]))
    return tuple(out)


@dataclass(frozen=True)
class RouteTable:
    """Which routes use which edges, as int masks, built once per route list
    (the graph's last-first: ``graph_table``) and read by every layer: bit k
    of an edge mask is ``dag.edges[k]``, bit i of a route mask is ``routes[i]``."""

    routes: tuple[Route, ...]
    edges: tuple[int, ...]          # route i -> its edge mask
    through: Mapping[str, int]      # edge id -> the mask of the routes using it
    index: Mapping[int, int]        # edge mask -> its route's index


def route_table(dag: Dag, routes: Sequence[Route]) -> RouteTable:
    """The table of ``routes``, each a route of ``dag``; every edge of
    ``dag`` has a route mask, 0 for an edge on none of them."""
    bit = {e.id: 1 << k for k, e in enumerate(dag.edges)}
    through = dict.fromkeys(bit, 0)
    for i, r in enumerate(routes):
        for eid in r:
            through[eid] |= 1 << i
    edges = tuple(sum(map(bit.__getitem__, r)) for r in routes)
    return RouteTable(tuple(routes), edges, through, {m: i for i, m in enumerate(edges)})


def graph_table(dag: Dag) -> RouteTable:
    """The table of every route of ``dag``, the last of ``enumerate_routes`` first."""
    return route_table(dag, enumerate_routes(dag)[::-1])


def peel_decomposition(dag: Dag, prefer: Mapping[int, Sequence[str]]) -> tuple[Route, ...]:
    """Greedy peel into an ordered decomposition: from s, follow the first
    live out-edge in the order ``prefer[v]`` lists them at each vertex v,
    remove that route, and repeat.  Under degree equality the live subgraph
    stays balanced, so the walk cannot get stuck; the result is certified."""
    if not degree_equality(dag):
        raise NotGorensteinError("not Gorenstein: degree equality fails")
    live = {e.id for e in dag.edges}
    decomp: list[Route] = []
    while live:
        route: list[str] = []
        v = SOURCE
        while v != dag.sink:
            eid = next(e for e in prefer[v] if e in live)
            route.append(eid)
            v = dag.edge_by_id[eid].head
        live.difference_update(route)
        decomp.append(tuple(route))
    if not is_route_decomposition(dag, decomp):
        raise AssertionError(f"peel {decomp} is not a route decomposition")
    return tuple(decomp)


def route_decomposition(dag: Dag) -> tuple[Route, ...]:
    """Greedy peel, smallest edge id first: each route is the
    lexicographically smallest one left, so the smallest route comes first."""
    return peel_decomposition(dag, {v: sorted(e.id for e in dag.out_edges(v))
                                    for v in range(dag.sink)})


def is_route_decomposition(dag: Dag, routes: Sequence[Route]) -> bool:
    if not all(is_route(dag, r) for r in routes):
        return False
    used: list[str] = [eid for r in routes for eid in r]
    return len(used) == len(set(used)) == len(dag.edges)


def decomposition_framing(dag: Dag, decomp: Sequence[Route]) -> Framing:
    """Order in(v) and out(v) by the decomposition index of each edge."""
    owner = {eid: i for i, r in enumerate(decomp) for eid in r}
    ins = {}
    outs = {}
    for v in dag.inner_vertices:
        ins[v] = tuple(sorted((e.id for e in dag.in_edges(v)), key=lambda i: owner[i]))
        outs[v] = tuple(sorted((e.id for e in dag.out_edges(v)), key=lambda i: owner[i]))
    return Framing(ins, outs)
