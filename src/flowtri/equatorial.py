"""Transversals, the equatorial complex, the equatorial sphere and the
join triangulation it generates.

A transversal picks one edge from each decomposition route.  Routes that
dodge a transversal span a face of the equatorial complex; restricting the
decomposition-framing triangulation to those faces gives the sphere that,
joined with the route simplex, triangulates the whole polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Iterator, Sequence

from .dag import Dag, degree_equality, idle_edges
from .dkk import _mask, _members, coherence_graph, dkk_triangulation, max_cliques
from .geometry import SimplicialComplex, Triangulation
from .routes import Framing, NotGorensteinError, Route, decomposition_framing

Transversal = tuple[str, ...]     # entry i is the chosen edge of route i

MAX_FRAMINGS = 100_000            # bound on the exhaustive framing sweep


@dataclass(frozen=True)
class EquatorialFace:
    transversal: Transversal
    routes: frozenset[int]        # indices into the route list


def enumerate_transversals(decomp: Sequence[Route]) -> Iterator[Transversal]:
    """Cartesian product of the routes' edge sets, lexicographic order."""
    return product(*decomp)


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


def equatorial_facets(dag: Dag, decomp: Sequence[Route],
                      routes: Sequence[Route]) -> tuple[EquatorialFace, ...]:
    """Facets of the equatorial complex over ``routes`` (the graph's route
    list, ``enumerate_routes(dag)``), deduplicated by avoided-route set.

    Distinct transversals frequently carve out the same face; the first
    transversal in lexicographic order is kept as the representative.
    """
    if not degree_equality(dag):
        raise NotGorensteinError("not Gorenstein: degree equality fails")
    idle = idle_edges(dag)
    if idle:
        raise ValueError(f"idle edges present (contract them first): {idle}")
    seen: dict[frozenset[int], Transversal] = {}
    for m in enumerate_transversals(decomp):
        avoided = routes_avoiding(routes, m)
        if is_facet_transversal(dag, routes, avoided):
            seen.setdefault(avoided, m)
    return tuple(EquatorialFace(m, rs)
                 for rs, m in sorted(seen.items(), key=lambda kv: sorted(kv[0])))


def t_eq(framed: Triangulation, facets: Sequence[EquatorialFace]) -> SimplicialComplex:
    """The equatorial sphere: the decomposition framing's triangulation
    ``framed`` restricted to the equatorial complex with the given facets.

    The sphere is pure: its facets have dim+1-k routes, where dim+1 is the
    size of a maximal simplex of ``framed`` and k the transversal length.
    So only the maximal simplices' intersections with the facets' route
    sets that have that size are kept.  The framed triangulation restricts
    to a triangulation of each facet's face, so every smaller intersection
    is a face of a kept one.  This is certified: every facet must yield a
    kept piece, and every ridge must lie in exactly two kept pieces.
    """
    if not facets:
        return SimplicialComplex(())
    cliques = [_mask(c) for c in framed.simplices]
    want = max(map(len, framed.simplices), default=0) - len(facets[0].transversal)
    kept: set[int] = set()
    for f in facets:
        routes = _mask(f.routes)
        pieces = {piece for c in cliques
                  if (piece := c & routes).bit_count() == want}
        if not pieces:
            raise AssertionError(
                f"facet {f.transversal} meets no simplex in {want} routes")
        kept |= pieces
    sphere = SimplicialComplex(tuple(sorted(map(_members, kept))))
    if not sphere.ridges_in_two_facets():
        raise AssertionError("equatorial sphere has a ridge outside exactly two facets")
    return sphere


def join_route_simplex(framed: Triangulation, decomp: Sequence[Route],
                       sphere: SimplicialComplex) -> Triangulation:
    """Join of the equatorial sphere with the route simplex, on the routes
    and coordinates of the decomposition framing's triangulation."""
    idx = {r: i for i, r in enumerate(framed.labels)}
    simplex = tuple(sorted(idx[r] for r in decomp))
    maximal = tuple(sorted(tuple(sorted(set(f) | set(simplex)))
                           for f in sphere.maximal_faces)) or (simplex,)
    want = len(framed.simplices[0])
    for f in maximal:
        if len(f) != want:
            raise AssertionError(f"join simplex {f} has size {len(f)}, expected {want}")
    return Triangulation(SimplicialComplex(maximal), framed.labels, framed.coords)


def equatorial_sphere(dag: Dag, decomp: Sequence[Route]
                      ) -> tuple[Triangulation, tuple[EquatorialFace, ...], SimplicialComplex]:
    """The decomposition framing's triangulation, the equatorial facets over
    its routes and the equatorial sphere T_eq."""
    framed = dkk_triangulation(dag, decomposition_framing(dag, decomp))
    facets = equatorial_facets(dag, decomp, framed.labels)
    return framed, facets, t_eq(framed, facets)


def equatorial_flow_triangulation(dag: Dag, decomp: Sequence[Route]) -> Triangulation:
    """Join of the equatorial sphere with the route simplex."""
    framed, _, sphere = equatorial_sphere(dag, decomp)
    return join_route_simplex(framed, decomp, sphere)


@dataclass(frozen=True)
class DkkComparisonReport:
    framings_checked: int
    matching_framings: tuple[int, ...]   # indices into the framing sweep

    @property
    def is_dkk(self) -> bool:
        return bool(self.matching_framings)


def _all_framings(dag: Dag) -> Iterator[Framing]:
    per_vertex = []
    verts = list(dag.inner_vertices)
    for v in verts:
        ins = sorted(e.id for e in dag.in_edges(v))
        outs = sorted(e.id for e in dag.out_edges(v))
        per_vertex.append([(pi, po) for pi in permutations(ins) for po in permutations(outs)])
    for combo in product(*per_vertex):
        yield Framing({v: c[0] for v, c in zip(verts, combo)},
                      {v: c[1] for v, c in zip(verts, combo)})


def framing_count(dag: Dag) -> int:
    n = 1
    for v in dag.inner_vertices:
        n *= factorial(dag.indeg(v)) * factorial(dag.outdeg(v))
    return n


def differs_from_dkk(dag: Dag, tri: Triangulation) -> DkkComparisonReport:
    """Compare the equatorial flow triangulation ``tri`` of ``dag`` against
    the framed triangulations of all its framings (at most MAX_FRAMINGS)."""
    total = framing_count(dag)
    if total > MAX_FRAMINGS:
        raise ValueError(f"exhaustive bound exceeded: {total} framings > {MAX_FRAMINGS}")
    target = set(tri.simplices)
    matches = tuple(i for i, fr in enumerate(_all_framings(dag))
                    if set(max_cliques(dag, coherence_graph(dag, fr, tri.labels))) == target)
    return DkkComparisonReport(total, matches)
