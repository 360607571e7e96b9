"""Transversals, the equatorial complex, the equatorial sphere and the
join triangulation it generates.

A transversal picks one edge from each decomposition route.  Routes that
dodge a transversal span a face of the equatorial complex; restricting the
decomposition-framing triangulation to those faces gives the sphere that,
joined with the route simplex, triangulates the whole polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations, product
from math import factorial, prod
from operator import or_
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .dag import Dag, degree_equality, dimension, idle_edges
# ``max_cliques`` is not called here, but the benchmark's self-check wraps
# and restores this module's binding of it, so the name stays importable.
from .dkk import _sized_cliques, coherence_graph, max_cliques  # noqa: F401
from .geometry import _mask, _members, join_with_simplex
from .routes import (Framing, NotGorensteinError, Route, RouteTable, decomposition_framing,
                     graph_table)

Transversal = tuple[str, ...]     # entry i is the chosen edge of route i

MAX_FRAMINGS = 100_000            # bound on the exhaustive framing sweep


@dataclass(frozen=True)
class Sphere:
    """The equatorial sphere T_eq: its maximal faces, route masks in
    canonical order, and its f-vector (f_-1, f_0, ...)."""

    maximal_faces: tuple[int, ...]
    f_vector: tuple[int, ...]


def _avoided_sets(everyone: int, groups: Iterable[Sequence[tuple[str, int]]]
                  ) -> dict[int, Transversal]:
    """Each AND, from ``everyone``, of one ``keep`` mask per group -> the
    first choice of names reaching it in product order, in that order, grown
    group by group.  Sound: let t be the first choice reaching an AND X; at
    every stage t's prefix is the first reaching its partial AND, else a
    smaller prefix with that AND, extended by the rest of t, would reach X
    before t.  (Checked on 20,000 random lists of 0-4 groups of 1-4 pairs.)"""
    sets = {everyone: ()}
    for group in groups:
        grown: dict[int, Transversal] = {}
        for (m, choice), (name, keep) in product(sets.items(), group):
            grown.setdefault(m & keep, choice + (name,))
        sets = grown
    return sets


def equatorial_facets(dag: Dag, decomp: Sequence[Route],
                      table: RouteTable) -> dict[int, Transversal]:
    """Facets of the equatorial complex over the routes of ``table`` (the
    table of the graph's route list): each facet's route mask -> its first
    transversal, in ``_avoided_sets`` order.  The one caller that prints
    the map, ``cli.cmd_equatorial``, sorts it.

    A transversal's avoided routes share no edge with it: the AND, over its
    edges, of the routes missing each (``_avoided_sets``, which keeps the
    first transversal per face).  It is a facet transversal when the
    avoided routes' heads cover every inner vertex: when the avoided set
    meets, at every inner vertex, the mask of the routes entering it.

    No facet's routes R hold another's, so the facets' int order
    (``geometry._canonical``) is their member tuples' order.  R covers
    every vertex, so an edge off R's transversal m (k edges) joins a prefix
    of R to a suffix of R, and R spans the face x_m = 0, the flow polytope
    of the graph less m, of dimension |E| - k - |V| + 1 = dim - k: one such
    face in another is it.
    """
    if not degree_equality(dag):
        raise NotGorensteinError("not Gorenstein: degree equality fails")
    idle = idle_edges(dag)
    if idle:
        raise ValueError(f"idle edges present (contract them first): {idle}")
    thru = table.through
    entering = [reduce(or_, (thru[e.id] for e in dag.in_edges(v)), 0)
                for v in dag.inner_vertices]
    everyone = (1 << len(table.routes)) - 1
    avoided = _avoided_sets(everyone, [[(e, everyone ^ thru[e]) for e in r] for r in decomp])
    return {rs: m for rs, m in avoided.items() if all(map(rs.__and__, entering))}


def t_eq(adj: Sequence[int], facets: Mapping[int, Transversal], size: int) -> Sphere:
    """The equatorial sphere: the clique complex of the coherence graph
    ``adj`` (the decomposition framing's triangulation) restricted to the
    equatorial complex of the facet map ``facets`` (route mask -> first
    choice), whose facets have ``size`` routes (dim+1-k for k decomposition
    routes).  ``sphere_facets`` finds the same facets in the same map, as an
    unordered set, without the walk and its checks.

    A clique is a face exactly when the AND of its routes' facet masks is
    nonzero, so one depth-first search over lower-bit common neighbours
    walks every face once, counting the f-vector as it goes.  A face's
    extensions are its common neighbours lying in a facet of that AND.  The
    search certifies the sphere, else raises: every face below ``size`` has
    an extension, every face of size-1 (a ridge) has exactly two, no face
    of ``size`` has one, and every equatorial facet holds a sphere facet.
    """
    masks = tuple(facets)
    inc = [0] * len(adj)                 # route -> mask of the facets holding it
    for k, f in enumerate(masks):
        for i in _members(f):
            inc[i] |= 1 << k
    spans: dict[int, int] = {}           # AND of facet masks -> routes in those facets
    counts = [0] * (size + 1)
    kept: list[int] = []
    covered = 0
    every_facet, everyone = (1 << len(masks)) - 1, (1 << len(adj)) - 1
    stack = [(0, 0, every_facet, everyone)]
    while stack:
        face, k, shared, common = stack.pop()     # k = the face's size
        counts[k] += 1
        span = spans.get(shared)
        if span is None:
            span = spans[shared] = reduce(or_, (masks[f] for f in _members(shared)), 0)
        grow = common & span & (face & -face) - 1       # below the face's lowest route
        if k == size:
            if grow:
                raise AssertionError(f"face {_members(face)} of T_eq extends past {size} routes")
            kept.append(face)
            covered |= shared
            continue
        ext = (common & span).bit_count()
        if k == size - 1 and ext != 2:
            raise AssertionError(f"ridge {_members(face)} of T_eq lies in {ext} facets, not 2")
        if not ext:
            raise AssertionError(f"face {_members(face)} of T_eq is maximal below {size} routes")
        while grow:                      # lowest first: faces pop in canonical order
            r = (grow & -grow).bit_length() - 1
            grow ^= 1 << r
            stack.append((face | 1 << r, k + 1, shared & inc[r], common & adj[r]))
    if covered != every_facet:
        missed = _members(every_facet & ~covered)[-1]
        raise AssertionError(f"facet {facets[masks[missed]]} holds no facet of T_eq")
    return Sphere(tuple(kept), tuple(counts))


def sphere_facets(adj: Sequence[int], facets: Collection[int], size: int) -> set[int]:
    """The maximal faces of ``t_eq(adj, facets, size)``, given the facets'
    route masks (any sized collection, so ``t_eq``'s facet map as it is),
    as a set with no order, found without walking the faces:
    the maximal cliques of ``adj`` inside each facet O
    (``dkk._sized_cliques``), which must all have ``size`` routes (else
    ``AssertionError``, also for an O that holds no sphere facet).  A face
    of T_eq is a clique inside some O, and the cliques inside O
    triangulate the face O of the polytope (it is the DKK triangulation of
    that face), so they are the sphere's facets in O.  With no facets the
    empty face is the one face, as in ``t_eq``.  ``planar.verify_equivalence``
    passes the flow side's facet map and the order side's, mapped onto the
    routes, with the filters' graph; a caller that prints an order sorts."""
    out: set[int] = set()
    for o in facets or [0]:          # one facet's list at a time, not all at once
        out.update(_sized_cliques(adj, size, o))
    return out


def joined_simplices(dag: Dag, table: RouteTable, decomp: Sequence[Route],
                     sphere: Sphere) -> tuple[int, ...]:
    """The simplices of the join of the equatorial sphere with the route
    simplex, as masks over the routes of ``table``, each checked to have
    dim + 1 routes."""
    return join_with_simplex(_mask(map(table.routes.index, decomp)), sphere.maximal_faces,
                             dimension(dag) + 1)


def equatorial_sphere(dag: Dag, decomp: Sequence[Route]
                      ) -> tuple[RouteTable, tuple[int, ...],
                                 dict[int, Transversal], Sphere]:
    """The table of the route list, the coherence graph of the decomposition
    framing, the equatorial facet map over the routes (``equatorial_facets``,
    unordered) and the equatorial sphere T_eq."""
    table = graph_table(dag)
    adj = coherence_graph(decomposition_framing(dag, decomp), table)
    facets = equatorial_facets(dag, decomp, table)
    return table, adj, facets, t_eq(adj, facets, dimension(dag) + 1 - len(decomp))


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
    return prod(factorial(dag.indeg(v)) * factorial(dag.outdeg(v)) for v in dag.inner_vertices)


def matching_framings(dag: Dag, table: RouteTable,
                      simplices: Sequence[int]) -> tuple[int, ...]:
    """The indices, in the order ``_all_framings`` sweeps them, of the
    framings of ``dag`` whose framed triangulation is the equatorial flow
    triangulation ``simplices``, masks over the routes of ``table`` (the
    table of the graph's route list), compared as sets of masks: each
    framing's cliques are compared unsorted.  Raises ``ValueError`` past
    MAX_FRAMINGS framings."""
    total = framing_count(dag)
    if total > MAX_FRAMINGS:
        raise ValueError(f"exhaustive bound exceeded: {total} framings > {MAX_FRAMINGS}")
    target, size = set(simplices), dimension(dag) + 1
    return tuple(i for i, fr in enumerate(_all_framings(dag))
                 if set(_sized_cliques(coherence_graph(fr, table), size)) == target)
