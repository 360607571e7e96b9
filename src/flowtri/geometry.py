"""Exact lattice geometry: unimodularity, triangulation checks, f/h-vectors,
Ehrhart counting and Gorenstein tests.

Everything is integer or Fraction arithmetic; no floating point.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Sequence

from .dag import Dag, degree_equality, dimension, idle_edges

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
    from math import gcd

    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            divisors[i], divisors[j] = g, a // g * b
    return divisors


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncol = len(m[0]) if m else 0
    for c in range(ncol):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


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
# Exact LP (two-phase simplex with Bland's rule), used only for the
# common-face test in verify_triangulation.

def _simplex_solve(A: list[list[Fraction]], b: list[Fraction], c: list[Fraction]):
    """Maximize c.x subject to A x = b, x >= 0.  Returns the optimum or
    None when infeasible.  Sizes here are tiny, so no effort is spent on
    efficiency."""
    m, n = len(A), len(c)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-a for a in A[i]]
            b[i] = -b[i]
    # phase one: artificial variables n..n+m-1
    T = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * n + [Fraction(-1)] * m

    def pivot_step(obj: list[Fraction], limit: int) -> bool:
        # reduced costs relative to the current basis; Bland's rule
        red = obj[:]
        for i, bi in enumerate(basis):
            if obj[bi]:
                f = obj[bi]
                for j in range(len(red)):
                    red[j] -= f * T[i][j]
        enter = next((j for j in range(limit) if red[j] > 0), None)
        if enter is None:
            return False
        ratios = [(T[i][-1] / T[i][enter], basis[i], i) for i in range(m) if T[i][enter] > 0]
        if not ratios:
            raise ArithmeticError("unbounded LP")
        _, _, leave = min(ratios)
        piv = T[leave][enter]
        T[leave] = [a / piv for a in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [a - f * p for a, p in zip(T[i], T[leave])]
        basis[leave] = enter
        return True

    while pivot_step(cost, n + m):
        pass
    phase1 = sum(T[i][-1] for i in range(m) if basis[i] >= n)
    if phase1 != 0:
        return None
    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][j] != 0), None)
            if enter is None:
                continue
            piv = T[i][enter]
            T[i] = [a / piv for a in T[i]]
            for k in range(m):
                if k != i and T[k][enter]:
                    f = T[k][enter]
                    T[k] = [a - f * p for a, p in zip(T[k], T[i])]
            basis[i] = enter
    obj = c + [Fraction(0)] * m
    while pivot_step(obj, n):
        pass
    return sum(c[basis[i]] * T[i][-1] for i in range(m) if basis[i] < n)


def simplices_meet_in_common_face(vs: Sequence[Vector], vt: Sequence[Vector],
                                  common: Sequence[int]) -> bool:
    """Exact test that conv(vs) and conv(vt) intersect exactly in the face
    spanned by the ``common`` index pairs (indices into vs matched with the
    identical vertices of vt)."""
    dim = len(vs[0])
    n1, n2 = len(vs), len(vt)
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    for k in range(dim):
        A.append([Fraction(v[k]) for v in vs] + [Fraction(-v[k]) for v in vt])
        b.append(Fraction(0))
    A.append([Fraction(1)] * n1 + [Fraction(0)] * n2)
    b.append(Fraction(1))
    A.append([Fraction(0)] * n1 + [Fraction(1)] * n2)
    b.append(Fraction(1))
    shared_s = {i for i, _ in common}
    shared_t = {j for _, j in common}
    c = [Fraction(int(i not in shared_s)) for i in range(n1)] + \
        [Fraction(int(j not in shared_t)) for j in range(n2)]
    opt = _simplex_solve(A, b, c)
    return opt is None or opt == 0


# ---------------------------------------------------------------------------
# Simplicial complexes

@dataclass(frozen=True)
class SimplicialComplex:
    """Stored by maximal faces; vertices are arbitrary sorted labels."""

    maximal_faces: tuple[tuple, ...]

    @cached_property
    def vertices(self) -> tuple:
        return tuple(sorted({v for f in self.maximal_faces for v in f}))

    @cached_property
    def faces(self) -> frozenset[frozenset]:
        out: set[frozenset] = {frozenset()}
        for f in self.maximal_faces:
            for k in range(1, len(f) + 1):
                out.update(map(frozenset, combinations(f, k)))
        return frozenset(out)

    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.maximal_faces}
        return len(sizes) <= 1

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(f) - 1) for f in self.faces if f)

    def ridges_in_two_facets(self) -> bool:
        """Pseudomanifold condition: every codimension-1 face of a maximal
        face lies in exactly two maximal faces."""
        if not self.maximal_faces:
            return True
        count: dict[frozenset, int] = {}
        for f in self.maximal_faces:
            for r in combinations(f, len(f) - 1):
                count[frozenset(r)] = count.get(frozenset(r), 0) + 1
        return all(c == 2 for c in count.values())


def complex_from_faces(faces: Iterable[Iterable]) -> SimplicialComplex:
    """Build a complex from a face family, keeping only maximal members."""
    fs = sorted({tuple(sorted(f)) for f in faces}, key=lambda f: (-len(f), f))
    maximal: list[tuple] = []
    for f in fs:
        if not any(set(f) <= set(g) for g in maximal):
            maximal.append(f)
    return SimplicialComplex(tuple(sorted(maximal)))


def f_vector(cpx: SimplicialComplex) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_{d-1}) by expanding the maximal faces."""
    if not cpx.maximal_faces:
        return (1,)
    d = max(len(f) for f in cpx.maximal_faces)
    fv = [0] * (d + 1)
    for face in cpx.faces:
        fv[len(face)] += 1
    return tuple(fv)


def h_polynomial(cpx: SimplicialComplex) -> tuple[int, ...]:
    """Coefficients of sum_k f_k z^{k+1} (1-z)^{d-1-k}."""
    fv = f_vector(cpx)
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
    """A simplicial complex whose vertices carry exact lattice coordinates.

    ``labels[i]`` names vertex i (e.g. a route); ``coords[i]`` is its
    integer coordinate vector in the carrier polytope's ambient space.
    """

    complex: SimplicialComplex
    labels: tuple
    coords: tuple[Vector, ...]

    @property
    def simplices(self) -> tuple[tuple, ...]:
        return self.complex.maximal_faces

    def simplex_coords(self, simplex: Sequence[int]) -> tuple[Vector, ...]:
        return tuple(self.coords[i] for i in simplex)

    def as_face_set(self) -> frozenset[frozenset]:
        """Simplices keyed by their vertex labels, for cross comparisons."""
        return frozenset(frozenset(self.labels[i] for i in s) for s in self.simplices)


@dataclass(frozen=True)
class TriangulationReport:
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def verify_triangulation(tri: Triangulation, dim: int,
                         normalized_volume: int) -> TriangulationReport:
    """Check purity, unimodularity, pairwise common faces and total volume.

    ``normalized_volume`` is the carrier's d! * (Ehrhart leading
    coefficient); for a unimodular triangulation it must equal the number
    of maximal simplices.
    """
    issues: list[str] = []
    for s in tri.simplices:
        if len(s) != dim + 1:
            issues.append(f"simplex {s} has {len(s)} vertices, expected {dim + 1}")
    for s in tri.simplices:
        pts = tri.simplex_coords(s)
        try:
            if not is_unimodular_simplex(pts):
                issues.append(f"simplex {s} is not unimodular")
        except ValueError:
            issues.append(f"simplex {s} is degenerate")
    if len(tri.simplices) != normalized_volume:
        issues.append(
            f"{len(tri.simplices)} simplices but normalized volume {normalized_volume}")
    for s, t in combinations(tri.simplices, 2):
        shared = [(s.index(v), t.index(v)) for v in s if v in t]
        if not simplices_meet_in_common_face(tri.simplex_coords(s),
                                             tri.simplex_coords(t), shared):
            issues.append(f"simplices {s} and {t} do not meet in a common face")
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
    h = []
    for j in range(d + 1):
        h.append(sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1)))
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


def is_gorenstein(dag: Dag) -> bool:
    """h*-palindromicity, cross-checked against degree equality.

    The combinatorial criterion (in-degree equals out-degree everywhere)
    is only equivalent to palindromicity on idle-free graphs: an idle edge
    can unbalance a vertex without changing the polytope.
    """
    h = ehrhart_hstar(dag).h_star
    trimmed = list(h)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    palindromic = trimmed == trimmed[::-1]
    if not idle_edges(dag) and degree_equality(dag) != palindromic:
        raise AssertionError("degree equality and h*-palindromicity disagree")
    return palindromic
