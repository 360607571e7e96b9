"""Projection of the flow polytope along the route simplex.

Coordinates live in one block per inner vertex, indexed by the labels of
its incoming routes.  The projection sends an edge's basis vector to the
head-block minus tail-block basis vectors at the edge's label, which kills
the span of the decomposition routes; its image is a reflexive polytope
whose facets come from facet transversals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import Mapping, Sequence

from .dag import Dag, degree_equality
from .equatorial import Transversal, enumerate_transversals, equatorial_facets
from .geometry import rank
from .routes import NotGorensteinError, Route, enumerate_routes


def edge_labels(dag: Dag, decomp: Sequence[Route]) -> dict[str, int]:
    """Edge id -> 1-based index of the decomposition route owning it."""
    return {eid: i + 1 for i, r in enumerate(decomp) for eid in r}


@dataclass(frozen=True)
class LeveledSpace:
    """Product of per-inner-vertex blocks with route-label coordinates."""

    blocks: tuple[tuple[int, tuple[int, ...]], ...]   # (vertex, sorted labels)
    labels: Mapping[str, int]                         # edge_labels of the decomposition

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for v, labels in self.blocks:
            for l in labels:
                out[(v, l)] = len(out)
        return out

    @property
    def dim(self) -> int:
        return sum(len(labels) for _, labels in self.blocks)

    @property
    def quotient_dim(self) -> int:
        """Dimension of the block-sum-zero subspace: sum of indeg(v) - 1."""
        return sum(len(labels) - 1 for _, labels in self.blocks)


def leveled_space(dag: Dag, decomp: Sequence[Route]) -> LeveledSpace:
    """One block per inner vertex, holding the labels of its in-edges; the
    space keeps the edge labels for ``phi`` and the functionals."""
    labels = edge_labels(dag, decomp)
    blocks = []
    for v in dag.inner_vertices:
        inlv = tuple(sorted({labels[e.id] for e in dag.in_edges(v)}))
        if len(inlv) != dag.indeg(v):
            raise AssertionError(f"two in-edges of {v} carry the same route label")
        blocks.append((v, inlv))
    return LeveledSpace(tuple(blocks), labels)


def phi(dag: Dag, space: LeveledSpace, route: Route) -> tuple[int, ...]:
    """Linear projection of a route's indicator vector: each edge adds its
    label's basis vector in its head block and subtracts it in its tail
    block (source and sink have no block)."""
    vec = [0] * space.dim
    for eid in route:
        e = dag.edge_by_id[eid]
        for v, sign in ((e.head, 1), (e.tail, -1)):
            if 1 <= v <= dag.inner_count:
                vec[space.index[(v, space.labels[eid])]] += sign
    return tuple(vec)


@dataclass(frozen=True)
class QuotientPolytope:
    space: LeveledSpace
    routes: tuple[Route, ...]                            # enumerate_routes(dag)
    vertices: tuple[tuple[int, tuple[int, ...]], ...]   # (route index, coords)
    functionals: Mapping[Transversal, tuple[int, ...]]  # every transversal, lexicographic
    facets: tuple[tuple[Transversal, tuple[int, ...]], ...]  # (m, functionals[m])

    @cached_property
    def functional_values(self) -> tuple[tuple[int, ...], ...]:
        """Row i holds every functional, in ``functionals`` order, at the
        image of route i (the origin for a decomposition route)."""
        supports = [[(k, c) for k, c in enumerate(coeffs) if c]
                    for coeffs in self.functionals.values()]
        images = dict(self.vertices)
        origin = (0,) * len(supports)
        rows = []
        for i in range(len(self.routes)):
            img = images.get(i)
            rows.append(origin if img is None else
                        tuple(sum(c * img[k] for k, c in support) for support in supports))
        return tuple(rows)

    def to_json(self) -> dict:
        blocks = {str(v): list(labels) for v, labels in self.space.blocks}
        return {
            "blocks": blocks,
            "vertices": {str(i): list(c) for i, c in self.vertices},
            "facets": [{"coeffs": list(c), "rhs": 1, "transversal": list(m)}
                       for m, c in self.facets],
            "subspace": [f"sum of block {v} = 0" for v, _ in self.space.blocks],
        }


def transversal_functional(dag: Dag, space: LeveledSpace, decomp: Sequence[Route],
                           m: Transversal) -> tuple[int, ...]:
    """0/1 functional with support on (vertex, label) pairs reached by the
    pre-transversal prefix of each decomposition route (every prefix edge
    ends at an inner vertex)."""
    coeffs = [0] * space.dim
    for route, chosen in zip(decomp, m):
        for eid in route[:route.index(chosen)]:
            coeffs[space.index[(dag.edge_by_id[eid].head, space.labels[eid])]] = 1
    return tuple(coeffs)


def check_transversal_identity(q: QuotientPolytope
                               ) -> tuple[tuple[Route, Transversal, int, int], ...]:
    """Both sides of the facet identity for every route s and every
    transversal m: m's functional at the projected route, and 1 - (number of
    edges of m on s).  Rows are (s, m, lhs, rhs), routes in enumeration
    order and transversals in lexicographic order within each route; ``q``
    (from ``quotient_facets``) supplies the routes and the functionals'
    values at their images."""
    rows = []
    for s, values in zip(q.routes, q.functional_values):
        used = set(s)
        for m, lhs in zip(q.functionals, values):
            rows.append((s, m, lhs, 1 - len(used.intersection(m))))
    return tuple(rows)


def quotient_facets(dag: Dag, decomp: Sequence[Route]) -> QuotientPolytope:
    """Full vertex/facet description: the images of the routes outside the
    decomposition, keyed by route index (the decomposition routes project
    to the origin), the functional of every transversal, and one facet per
    distinct functional of an equatorial facet; the dimension is
    cross-checked."""
    if not degree_equality(dag):
        raise NotGorensteinError("not Gorenstein: degree equality fails")
    space = leveled_space(dag, decomp)
    routes = enumerate_routes(dag)
    members = set(decomp)
    verts = []
    for i, r in enumerate(routes):
        img = phi(dag, space, r)
        if r not in members:
            verts.append((i, img))
        elif any(img):
            raise AssertionError(f"decomposition route {r} does not project to 0")
    if len({c for _, c in verts}) != len(verts):
        raise AssertionError("projected vertices are not distinct")
    functionals = {m: transversal_functional(dag, space, decomp, m)
                   for m in enumerate_transversals(decomp)}
    seen: dict[tuple[int, ...], Transversal] = {}
    for face in equatorial_facets(dag, decomp, routes):
        seen.setdefault(functionals[face.transversal], face.transversal)
    facets = tuple((m, c) for c, m in sorted(seen.items()))
    want = space.quotient_dim
    got = rank([list(c) for _, c in verts]) if verts else 0
    if got != want:
        raise AssertionError(f"quotient rank {got} != expected dimension {want}")
    return QuotientPolytope(space, tuple(routes), tuple(verts), functionals, facets)


@dataclass(frozen=True)
class ReflexiveReport:
    issues: tuple[str, ...]
    interior_points: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def _block_points(lo: Sequence[int], hi: Sequence[int]) -> list[tuple[int, ...]]:
    """Integer tuples in the box [lo, hi] whose entries sum to 0, in
    lexicographic order."""
    return [t for t in product(*[range(a, b + 1) for a, b in zip(lo, hi)]) if sum(t) == 0]


def verify_reflexive(q: QuotientPolytope) -> ReflexiveReport:
    """Origin must be the only lattice point of the block-sum-zero lattice
    strictly inside every facet, and vertices must be simple enough.

    The candidates are the lattice points of the vertices' bounding box,
    listed block by block: the product, in block order, of each block's
    zero-sum tuples visits them in lexicographic order."""
    issues: list[str] = []
    dim = q.space.quotient_dim
    column = {m: j for j, m in enumerate(q.functionals)}
    columns = [column[m] for m, _ in q.facets]
    for m, coeffs in q.facets:
        if any(c != int(c) for c in coeffs):
            issues.append(f"facet for {m} is not integral")
    for i, _ in q.vertices:
        values = q.functional_values[i]
        for (m, _), j in zip(q.facets, columns):
            if values[j] > 1:
                issues.append(f"vertex {i} violates facet {m}")
    if q.vertices:
        lo = [min(v[k] for _, v in q.vertices) for k in range(q.space.dim)]
        hi = [max(v[k] for _, v in q.vertices) for k in range(q.space.dim)]
    else:
        lo = hi = [0] * q.space.dim
    blocks, pos = [], 0
    for _, labels in q.space.blocks:
        blocks.append(_block_points(lo[pos:pos + len(labels)], hi[pos:pos + len(labels)]))
        pos += len(labels)
    supports = [[(k, c) for k, c in enumerate(coeffs) if c] for _, coeffs in q.facets]
    interior: list[tuple[int, ...]] = []
    for parts in product(*blocks):
        pt = tuple(chain.from_iterable(parts))
        if all(sum(c * pt[k] for k, c in support) < 1 for support in supports):
            interior.append(pt)
    if interior != [tuple([0] * q.space.dim)]:
        issues.append(f"interior lattice points {interior}, expected only the origin")
    for i, _ in q.vertices:
        values = q.functional_values[i]
        on = sum(1 for j in columns if values[j] == 1)
        if on < dim:
            issues.append(f"vertex {i} lies on {on} facets, expected at least {dim}")
    return ReflexiveReport(tuple(issues), tuple(interior))
