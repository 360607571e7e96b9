"""Shared generators and independent brute-force oracles."""

from __future__ import annotations

import random

from flowtri.dag import (Dag, contract_idle_edges, gorenstein_completion,
                         random_dag, validate)
from flowtri.dkk import dkk_triangulation
from flowtri.equatorial import equatorial_facets, t_eq
from flowtri.geometry import SimplicialComplex
from flowtri.routes import Route, decomposition_framing


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


def sphere(dag: Dag, decomp: tuple[Route, ...]) -> SimplicialComplex:
    """T_eq of a decomposition, from its framed triangulation and facets."""
    framed = dkk_triangulation(dag, decomposition_framing(dag, decomp))
    return t_eq(framed, equatorial_facets(dag, decomp, framed.labels))


def trimmed(seq) -> tuple:
    """Drop trailing zeros, keeping at least one entry."""
    out = list(seq)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


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


def sphere_oracle(dag: Dag, decomp: tuple[Route, ...]) -> set[frozenset[int]]:
    """Maximal route sets that are coherent cliques and bury no
    decomposition route, by brute force over all route subsets."""
    from itertools import combinations

    from flowtri.dkk import coherent
    from flowtri.equatorial import common_face
    from flowtri.routes import enumerate_routes

    routes = enumerate_routes(dag)
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
