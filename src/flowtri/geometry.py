"""Exact lattice geometry: unimodularity, triangulation checks, h-vectors
from f-vectors and Ehrhart counting.

Everything is exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from math import comb, gcd
from operator import mul
from typing import Sequence

from .dag import Dag, dimension

Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# Integer linear algebra

def smith_divisors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero elementary divisors of an integer matrix (by row reduction)."""
    m = [list(r) for r in rows]
    divisors: list[int] = []
    ri = ci = 0
    nrow = len(m)
    ncol = len(m[0]) if m else 0
    while ri < nrow and ci < ncol:
        # move a nonzero pivot of least magnitude to (ri, ci)
        pivot = None
        for i in range(ri, nrow):
            for j in range(ci, ncol):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[ri], m[i0] = m[i0], m[ri]
        for row in m:
            row[ci], row[j0] = row[j0], row[ci]
        while True:
            done = True
            for i in range(ri + 1, nrow):
                q = m[i][ci] // m[ri][ci]
                if q:
                    for j in range(ci, ncol):
                        m[i][j] -= q * m[ri][j]
                if m[i][ci]:
                    m[ri], m[i] = m[i], m[ri]
                    done = False
            for j in range(ci + 1, ncol):
                q = m[ri][j] // m[ri][ci]
                if q:
                    for i in range(ri, nrow):
                        m[i][j] -= q * m[i][ci]
                if m[ri][j]:
                    for i in range(ri, nrow):
                        m[i][ci], m[i][j] = m[i][j], m[i][ci]
                    done = False
            if done:
                break
        divisors.append(abs(m[ri][ci]))
        ri += 1
        ci += 1
    # normalize the divisibility chain d1 | d2 | ...
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            divisors[i], divisors[j] = g, a // g * b
    return divisors


def _row_reduce(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer matrix.

    Returns the rows and the pivot columns.  The rows are D times the
    reduced row echelon form, pivot rows first, where D is the last pivot:
    every division is exact because each entry is a minor of the input.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    ncol = len(m[0]) if m else 0
    for c in range(ncol):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p, pr = m[r][c], m[r]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], pr)]
        prev = p
        pivots.append(c)
    return m, pivots


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix."""
    return len(_row_reduce(rows)[1])


def is_unimodular_simplex(vertices: Sequence[Vector]) -> bool:
    """True iff the difference lattice of the vertices is saturated.

    The vertices must be affinely independent integer points; then the
    simplex is unimodular (with respect to the lattice of its affine span)
    exactly when all Smith divisors of the difference matrix are 1.
    """
    v0 = vertices[0]
    rows = [[a - b for a, b in zip(v, v0)] for v in vertices[1:]]
    if not rows:
        return True
    divs = smith_divisors(rows)
    if len(divs) != len(rows):
        raise ValueError("affinely dependent vertices")
    return all(d == 1 for d in divs)


# ---------------------------------------------------------------------------
# Simplicial complexes

def join_with_simplex(simplex: Sequence[int], faces: Sequence[Sequence[int]],
                      size: int) -> tuple[tuple[int, ...], ...]:
    """The join of ``simplex`` with the complex of the maximal ``faces``:
    simplex + F for each face F (the simplex alone for no faces), sorted;
    each must have ``size`` vertices, else ``AssertionError``."""
    joined = tuple(sorted(tuple(sorted({*simplex, *f})) for f in faces or ((),)))
    for f in joined:
        if len(f) != size:
            raise AssertionError(f"join simplex {f} has size {len(f)}, expected {size}")
    return joined


def euler_characteristic(fv: Sequence[int]) -> int:
    """f_0 - f_1 + f_2 - ... of an f-vector (f_-1, f_0, ...)."""
    return sum((-1) ** k * f for k, f in enumerate(fv[1:]))


def h_from_f(fv: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of sum_k f_k z^{k+1} (1-z)^{d-1-k} for an f-vector
    (f_-1, ..., f_{d-1}), trailing zeros dropped."""
    d = len(fv) - 1            # maximal face size
    h = [0] * (d + 1)
    for k in range(-1, d):
        fk = fv[k + 1]
        for j in range(d - 1 - k + 1):
            h[k + 1 + j] += fk * comb(d - 1 - k, j) * (-1) ** j
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return tuple(h)


# ---------------------------------------------------------------------------
# Triangulations

@dataclass(frozen=True)
class Triangulation:
    """A simplicial complex, stored by its maximal simplices, whose vertices
    carry exact lattice coordinates.

    ``simplices`` are tuples of vertex indices; ``labels[i]`` names vertex
    i (e.g. a route); ``coords[i]`` is its integer coordinate vector in the
    carrier polytope's ambient space.
    """

    simplices: tuple[tuple, ...]
    labels: tuple
    coords: tuple[Vector, ...]

    def simplex_coords(self, simplex: Sequence[int]) -> tuple[Vector, ...]:
        return tuple(self.coords[i] for i in simplex)


@dataclass(frozen=True)
class TriangulationReport:
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def _vertex_functionals(pts: Sequence[Vector]) -> list[tuple[int, Vector]]:
    """One integer affine functional ``(c, a)`` per vertex of a
    full-dimensional simplex in Z^d: x -> c + a.x is the vertex's
    barycentric coordinate times |det| of the difference matrix, so it
    vanishes on the opposite facet and is positive at the vertex."""
    u0 = pts[0]
    d = len(u0)
    m, _ = _row_reduce([[a - b for a, b in zip(u, u0)] + [int(i == j) for j in range(d)]
                        for i, u in enumerate(pts[1:])])
    scale = m[0][0] if d else 1        # [scale * I | scale * inverse]
    if scale < 0:
        scale, m = -scale, [[-x for x in row] for row in m]
    cols = [[row[d + j] for row in m] for j in range(d)]
    a0 = [-sum(col[k] for col in cols) for k in range(d)]
    return [(c - sum(map(mul, a, u0)), tuple(a))
            for c, a in [(scale, a0)] + [(0, col) for col in cols]]


def verify_triangulation(tri: Triangulation, dim: int,
                         normalized_volume: int) -> TriangulationReport:
    """Check that the maximal simplices of ``tri`` triangulate
    conv(tri.coords), a polytope of dimension ``dim``.

    ``normalized_volume`` is the carrier's d! * (Ehrhart leading
    coefficient); for a unimodular triangulation it must equal the number
    of maximal simplices.  Besides purity, unimodularity and that count,
    the ridge (pseudo-manifold) check of De Loera-Rambau-Santos,
    *Triangulations* (2010), Ch. 4 runs in integer coordinates on a chart
    of aff(conv(coords)): every ridge lies in at most two simplices, the
    apexes of a ridge in two simplices lie strictly on opposite sides of
    it, and every point lies on the apex side of a ridge in one simplex,
    which is then on the boundary.  It needs a nonempty pure complex of
    nondegenerate simplices whose points span ``dim`` dimensions.

    Never raises on malformed input; each fault is an issue: no
    simplices, a simplex that is not a sequence of vertex indices, has the
    wrong number of vertices or none, or names a vertex without
    coordinates, a degenerate or non-unimodular simplex, a count that is
    not the normalized volume, points that span another dimension, a ridge
    in more than two simplices, two simplices on the same side of a ridge,
    and a ridge in one simplex that is not on the boundary.
    """
    simplices = tri.simplices
    issues: list[str] = [] if simplices else ["no simplices"]
    well_formed = bool(simplices)
    for s in simplices:
        if not (isinstance(s, Sequence) and all(isinstance(v, int) for v in s)):
            fault = "is not a sequence of vertex indices"
        elif len(s) != dim + 1:
            fault = f"has {len(s)} vertices, expected {dim + 1}"
        elif not s:
            fault = "has no vertices"
        elif not all(0 <= v < len(tri.coords) for v in s):
            fault = "names a vertex without coordinates"
        else:
            try:
                if not is_unimodular_simplex(tri.simplex_coords(s)):
                    issues.append(f"simplex {s} is not unimodular")
                continue
            except ValueError:
                fault = "is degenerate"
        issues.append(f"simplex {s} {fault}")
        well_formed = False
    if len(simplices) != normalized_volume:
        issues.append(f"{len(simplices)} simplices but normalized volume {normalized_volume}")
    if not well_formed:
        return TriangulationReport(tuple(issues))
    v0 = tri.coords[0]
    _, pivots = _row_reduce([[a - b for a, b in zip(p, v0)] for p in tri.coords])
    if len(pivots) != dim:
        issues.append(f"the points span dimension {len(pivots)}, expected {dim}")
        return TriangulationReport(tuple(issues))
    chart = [tuple(p[c] for c in pivots) for p in tri.coords]
    functionals = [_vertex_functionals([chart[v] for v in s]) for s in simplices]
    ridges: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for k, s in enumerate(simplices):      # sorted ridge -> (simplex, omitted position)
        for i in range(len(s)):
            ridges[tuple(sorted(s[:i] + s[i + 1:]))].append((k, i))
    for r, owners in ridges.items():
        if len(owners) > 2:
            issues.append(f"ridge {r} lies in {len(owners)} simplices")
            continue
        (k, i), *other = owners
        c, a = functionals[k][i]
        if other:
            (l, j), = other
            t = simplices[l]
            if c + sum(map(mul, a, chart[t[j]])) >= 0:
                issues.append(f"simplices {simplices[k]} and {t} lie on the same side "
                              f"of ridge {r}")
        elif any(c + sum(map(mul, a, x)) < 0 for x in chart):
            issues.append(f"ridge {r} of simplex {simplices[k]} is not on the boundary")
    return TriangulationReport(tuple(issues))


# ---------------------------------------------------------------------------
# Ehrhart counting for flow polytopes

def count_lattice_points(dag: Dag, t: int, interior: bool = False) -> int:
    """Integer flows of strength t; the interior variant asks for flow >= 1
    on every edge (interior of the flow cone at height t, which is the
    relative interior of the dilated polytope when no edge is idle).

    A Kostant partition function count by dynamic programming over the
    vertices in order.  A state is the flow still to leave the current
    vertex and the inflow already sent to each later inner vertex; the
    current vertex splits its flow over its out-edges one head at a time,
    and k parallel edges that carry x units with lower bound lo can do so
    in C(x - k*lo + k - 1, k - 1) ways.  The states live in this call only.
    """
    lo = 1 if interior else 0
    sink = dag.sink
    # pending inflow at vertices v, ..., sink - 1 -> number of partial flows
    states: dict[tuple[int, ...], int] = {(t,) + (0,) * (sink - 1): 1}
    for v in range(sink):
        groups = sorted(Counter(e.head for e in dag.out_edges(v)).items())
        for j, (head, k) in enumerate(groups):
            least = lo * k
            last = j == len(groups) - 1
            nxt: dict[tuple[int, ...], int] = defaultdict(int)
            for pending, n in states.items():
                left = pending[0]
                # the last head takes all that is left
                for x in range(max(least, left) if last else least, left + 1):
                    p = list(pending)
                    p[0] = left - x
                    if head != sink:
                        p[head - v] += x
                    nxt[tuple(p)] += n * comb(x - least + k - 1, k - 1)
            states = nxt
        # every unit that reached v has left it
        states = {p[1:]: n for p, n in states.items() if p[0] == 0}
    return states.get((), 0)


@dataclass(frozen=True)
class HStarData:
    counts: tuple[int, ...]           # L(0), ..., L(d)
    h_star: tuple[int, ...]
    degree: int
    codegree: int

    def to_json(self) -> dict:
        return {"L": list(self.counts), "h_star": list(self.h_star),
                "degree": self.degree, "codegree": self.codegree}


def ehrhart_hstar(dag: Dag) -> HStarData:
    d = dimension(dag)
    counts = tuple(count_lattice_points(dag, t) for t in range(d + 1))
    h = list(counts)            # h*(z) = (1 - z)^(d+1) * sum_t L(t) z^t, cut at z^d
    for _ in range(d + 1):
        for j in range(d, 0, -1):
            h[j] -= h[j - 1]
    if h[0] != 1 or any(x < 0 for x in h):
        raise ArithmeticError(f"implausible h*-vector {h}")
    degree = max(j for j in range(d + 1) if h[j] != 0)
    codegree = d + 1 - degree
    # independent cross-check via interior points of successive dilates
    for t in range(1, codegree + 1):
        interior = count_lattice_points(dag, t, interior=True)
        if (interior > 0) != (t == codegree):
            raise ArithmeticError("codegree disagrees with interior point counts")
    return HStarData(counts, tuple(h), degree, codegree)


def normalized_volume(dag: Dag) -> int:
    return sum(ehrhart_hstar(dag).h_star)

