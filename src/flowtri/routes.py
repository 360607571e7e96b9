"""Routes, route decompositions, framings and indicator vectors.

A route is stored as the tuple of its edge ids from source to sink; a
decomposition is an ordered tuple of routes.  The linear order of a
decomposition matters: it drives the decomposition framing and hence the
equatorial flow triangulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def _in_pos(self) -> dict[int, dict[str, int]]:
        return {v: {e: i for i, e in enumerate(es)} for v, es in self.in_order.items()}

    @cached_property
    def _out_pos(self) -> dict[int, dict[str, int]]:
        return {v: {e: i for i, e in enumerate(es)} for v, es in self.out_order.items()}

    def in_pos(self, v: int, eid: str) -> int:
        return self._in_pos[v][eid]

    def out_pos(self, v: int, eid: str) -> int:
        return self._out_pos[v][eid]


def route_vertices(dag: Dag, route: Route) -> tuple[int, ...]:
    """Vertex sequence s, ..., t visited by the route."""
    verts = [SOURCE]
    for eid in route:
        verts.append(dag.edge_by_id[eid].head)
    return tuple(verts)


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
    """All routes, in lexicographic order of their edge-id sequences."""
    out: list[Route] = []
    stack: list[str] = []

    def walk(v: int) -> None:
        if v == dag.sink:
            out.append(tuple(stack))
            return
        for e in sorted(dag.out_edges(v), key=lambda e: e.id):
            stack.append(e.id)
            walk(e.head)
            stack.pop()

    walk(SOURCE)
    return tuple(out)


def _peel_route(dag: Dag, live: set[str], start_edge=None) -> Route:
    """Lexicographically smallest route inside the live edge set.

    Under degree equality of the live subgraph a greedy walk cannot get
    stuck, so smallest-id-first is already the lexicographic minimum.
    """
    route: list[str] = []
    v = SOURCE
    while v != dag.sink:
        step = min((e for e in dag.out_edges(v) if e.id in live), key=lambda e: e.id)
        route.append(step.id)
        v = step.head
    return tuple(route)


def route_decomposition(dag: Dag) -> tuple[Route, ...]:
    """Greedy peel into an ordered decomposition, smallest route first."""
    if not degree_equality(dag):
        raise NotGorensteinError("not Gorenstein: degree equality fails")
    live = {e.id for e in dag.edges}
    decomp: list[Route] = []
    while live:
        # every intermediate graph must stay balanced (and is acyclic as a
        # subgraph of a DAG); a failure here is a bug, not bad input
        for v in dag.inner_vertices:
            ins = sum(1 for e in dag.in_edges(v) if e.id in live)
            outs = sum(1 for e in dag.out_edges(v) if e.id in live)
            if ins != outs:
                raise AssertionError(f"peel broke degree equality at {v}")
        route = _peel_route(dag, live)
        live.difference_update(route)
        decomp.append(route)
    return tuple(decomp)


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


def indicator_vector(dag: Dag, route: Route) -> tuple[int, ...]:
    """0/1 vector over the edge coordinate order of the DAG."""
    chi = [0] * len(dag.edges)
    for eid in route:
        chi[dag.edge_index[eid]] = 1
    return tuple(chi)
