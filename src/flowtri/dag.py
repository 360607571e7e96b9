"""Source-to-sink directed acyclic multigraphs.

Vertices are ``0 < 1 < ... < n < n+1`` where ``0`` is the source ``s``,
``n+1`` is the sink ``t`` and ``1..n`` are the inner vertices.  Every edge
must go strictly forward in this order, so acyclicity is built in.  Edges
are identified by string ids; parallel edges are ordinary.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

SOURCE = 0


@dataclass(frozen=True)
class Edge:
    id: str
    tail: int
    head: int


@dataclass(frozen=True)
class Dag:
    inner_count: int
    edges: tuple[Edge, ...]

    @property
    def sink(self) -> int:
        return self.inner_count + 1

    @property
    def inner_vertices(self) -> range:
        return range(1, self.inner_count + 1)

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        """Position of each edge id in the coordinate order (``self.edges``)."""
        return {e.id: i for i, e in enumerate(self.edges)}

    @cached_property
    def _in(self) -> dict[int, tuple[Edge, ...]]:
        table: dict[int, list[Edge]] = {v: [] for v in range(self.sink + 1)}
        for e in self.edges:
            if 0 <= e.head <= self.sink:
                table[e.head].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def _out(self) -> dict[int, tuple[Edge, ...]]:
        table: dict[int, list[Edge]] = {v: [] for v in range(self.sink + 1)}
        for e in self.edges:
            if 0 <= e.tail <= self.sink:
                table[e.tail].append(e)
        return {v: tuple(es) for v, es in table.items()}

    def in_edges(self, v: int) -> tuple[Edge, ...]:
        return self._in[v]

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        return self._out[v]

    def indeg(self, v: int) -> int:
        return len(self._in[v])

    def outdeg(self, v: int) -> int:
        return len(self._out[v])


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def make_dag(inner_count: int, edges: Iterable[tuple[str, int, int]]) -> Dag:
    return Dag(inner_count, tuple(Edge(i, t, h) for i, t, h in edges))


def validate(dag: Dag) -> ValidationReport:
    """Check the structural invariants; failures are reported, not raised."""
    n, m = dag.inner_count, len(dag.edges)
    if not 0 <= n <= m:
        # stop before the per-vertex tables are built: a negative count has
        # no such tables, and every inner vertex needs its own in-edge
        why = "is negative" if n < 0 else f"exceeds the edge count {m}"
        return ValidationReport((("inner-count", f"inner_count {n} {why}"),))
    bad: list[tuple[str, str]] = []
    seen: set[str] = set()
    for e in dag.edges:
        if e.id in seen:
            bad.append(("duplicate-id", f"edge id {e.id!r} repeated"))
        seen.add(e.id)
        if not (0 <= e.tail <= dag.sink and 0 <= e.head <= dag.sink):
            bad.append(("vertex-range", f"edge {e.id!r} touches unknown vertex"))
        elif e.tail >= e.head:
            bad.append(("self-loop/order", f"edge {e.id!r} does not go forward"))
    if dag.outdeg(SOURCE) == 0:
        bad.append(("source", "s has no outgoing edge"))
    if dag.indeg(dag.sink) == 0:
        bad.append(("sink", "t has no incoming edge"))
    for v in dag.inner_vertices:
        if dag.indeg(v) == 0 or dag.outdeg(v) == 0:
            bad.append(("dead inner vertex", f"inner vertex {v} misses in or out edges"))
    if not bad:
        # with forward edges and live inner vertices, every inner vertex can
        # be walked back to s and forward to t, so it lies on a route; keep
        # the explicit check anyway as a guard against future relaxations
        for v in dag.inner_vertices:
            if not _reaches_back(dag, v) or not _reaches_forward(dag, v):
                bad.append(("unreachable", f"inner vertex {v} lies on no route"))
    return ValidationReport(tuple(bad))


def _reaches_back(dag: Dag, v: int) -> bool:
    w = v
    while w != SOURCE:
        ins = dag.in_edges(w)
        if not ins:
            return False
        w = ins[0].tail
    return True


def _reaches_forward(dag: Dag, v: int) -> bool:
    w = v
    while w != dag.sink:
        outs = dag.out_edges(w)
        if not outs:
            return False
        w = outs[0].head
    return True


def degree_equality(dag: Dag) -> bool:
    return all(dag.indeg(v) == dag.outdeg(v) for v in dag.inner_vertices)


def dimension(dag: Dag) -> int:
    return len(dag.edges) - dag.inner_count - 1


def idle_edges(dag: Dag) -> tuple[str, ...]:
    """Edges that are the sole incoming or sole outgoing edge of an inner
    vertex."""
    out: set[str] = set()
    for v in dag.inner_vertices:
        if dag.indeg(v) == 1:
            out.add(dag.in_edges(v)[0].id)
        if dag.outdeg(v) == 1:
            out.add(dag.out_edges(v)[0].id)
    return tuple(sorted(out))


def gorenstein_completion(dag: Dag) -> Dag:
    """Add s->v or v->t edges until every inner vertex is balanced.

    The original edges keep their ids; new edges get ids that cannot clash
    (prefixed with ``+``).
    """
    extra: list[tuple[str, int, int]] = []
    for v in dag.inner_vertices:
        deficit = dag.outdeg(v) - dag.indeg(v)
        for i in range(deficit):
            extra.append((f"+s{v}.{i}", SOURCE, v))
        for i in range(-deficit):
            extra.append((f"+{v}t.{i}", v, dag.sink))
    edges = [(e.id, e.tail, e.head) for e in dag.edges] + extra
    return make_dag(dag.inner_count, edges)


def contract_idle_edges(dag: Dag) -> tuple[Dag, dict[str, str | None]]:
    """Contract idle edges until none remain.

    An edge is idle when it is the sole incoming or sole outgoing edge of an
    inner vertex.  At every step the lexicographically smallest idle edge id
    is contracted.  The returned map sends every original edge id to its
    surviving id, or to ``None`` for edges that got contracted away.

    Each vertex keeps its sets of in- and out-edges.  A step changes the
    degrees of the one vertex that survives it, so only that vertex's edges
    can turn idle: they go on a heap of candidates, each re-checked when it
    comes off, and a step costs the merged vertex's degree and a heap pop.
    """
    # work on original vertex labels, renumber once at the end
    edges = {e.id: (e.tail, e.head) for e in dag.edges}
    mapping: dict[str, str | None] = {eid: eid for eid in edges}
    ins: dict[int, set[str]] = {v: {e.id for e in dag.in_edges(v)} for v in range(dag.sink + 1)}
    outs: dict[int, set[str]] = {v: {e.id for e in dag.out_edges(v)} for v in range(dag.sink + 1)}
    s, t = SOURCE, dag.sink

    def sole_edges(v: int) -> list[str]:
        """The edges idle at v: its sole in- and out-edge, if v is inner."""
        if v in (s, t):
            return []
        return [next(iter(es)) for es in (ins[v], outs[v]) if len(es) == 1]

    def idle(eid: str) -> bool:
        return eid in edges and any(eid in sole_edges(v) for v in edges[eid])

    heap = [eid for v in dag.inner_vertices for eid in sole_edges(v)]
    heapq.heapify(heap)
    while True:
        if not edges:
            raise ValueError("trivial graph")
        while heap and not idle(heap[0]):
            heapq.heappop(heap)
        if not heap:
            break
        eid = heapq.heappop(heap)
        a, b = edges.pop(eid)
        mapping[eid] = None
        outs[a].discard(eid)
        ins[b].discard(eid)
        # sole in-edge of b: fold b into a (position a keeps tails < heads);
        # sole out-edge of a: fold a into b, which must sit at b's position
        # because other edges into b may leave vertices between a and b
        gone, keep = (b, a) if not ins[b] else (a, b)
        for i in ins[gone]:
            edges[i] = (edges[i][0], keep)
        for i in outs[gone]:
            edges[i] = (keep, edges[i][1])
        ins[keep] |= ins.pop(gone)
        outs[keep] |= outs.pop(gone)
        if gone == s:
            s = keep
        if gone == t:
            t = keep
        for i in sole_edges(keep):
            heapq.heappush(heap, i)
    # renumber surviving vertices (the keys of ins) to 0..n'+1 preserving
    # relative order
    renum = {v: i for i, v in enumerate(sorted(ins))}
    if renum[s] != 0 or renum[t] != len(renum) - 1:
        raise AssertionError("contraction moved the source or the sink off the ends")
    new_edges = [(e.id, renum[edges[e.id][0]], renum[edges[e.id][1]])
                 for e in dag.edges if e.id in edges]
    return make_dag(len(renum) - 2, new_edges), mapping


# ---------------------------------------------------------------------------
# JSON interface

def vertex_to_json(v: int, sink: int) -> str | int:
    """JSON name of a vertex: ``"s"``, ``"t"`` or the inner vertex number."""
    return "s" if v == SOURCE else "t" if v == sink else v


def vertex_from_json(v, sink: int) -> int:
    """Inverse of :func:`vertex_to_json`; inner vertices may come as strings
    of digits.  Any other value, a float or a bool included, raises."""
    if v == "s":
        return SOURCE
    if v == "t":
        return sink
    if isinstance(v, str) and v.isascii() and v.isdigit():
        return int(v)
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"vertex must be 's', 't', an integer or a string of digits, not {v!r}")
    return v


def dag_to_json(dag: Dag) -> dict:
    return {
        "inner_count": dag.inner_count,
        "edges": [{"id": e.id, "tail": vertex_to_json(e.tail, dag.sink),
                   "head": vertex_to_json(e.head, dag.sink)} for e in dag.edges],
    }


def dag_from_json(data: Mapping) -> Dag:
    n = data["inner_count"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"inner_count must be an integer, not {n!r}")
    edges = [(str(e["id"]), vertex_from_json(e["tail"], n + 1),
              vertex_from_json(e["head"], n + 1)) for e in data["edges"]]
    return make_dag(n, edges)


def random_dag(rng: random.Random, max_edges: int = 8) -> Dag:
    """Uniform-ish valid DAG with 1-3 inner vertices: random tail<head
    pairs, resampled until the structural validation passes.  The draw
    order is fixed, since ``flowtri fuzz`` replays graphs from its seed."""
    while True:
        inner = rng.randint(1, 3)
        m = rng.randint(inner + 1, max_edges)
        edges = []
        for i in range(m):
            tail = rng.randint(0, inner)
            head = rng.randint(tail + 1, inner + 1)
            edges.append((f"e{i}", tail, head))
        dag = make_dag(inner, edges)
        if validate(dag).ok:
            return dag


# ---------------------------------------------------------------------------
# Canonical test catalog.
#
# G(k): k parallel edges s -> t (a (k-1)-simplex).
# D1:   one inner vertex, doubled edges on both sides (the unit square).
# D2:   a doubled three-edge chain (the unit cube).
# D3:   one inner vertex, tripled edges (product of two triangles).
# zigzag: three stacked routes with two switch vertices; strongly planar.
# bypass: a doubled chain with two chord edges; dimension 4.

def G(k: int) -> Dag:
    return make_dag(0, [(f"g{i}", 0, 1) for i in range(1, k + 1)])


def D1() -> Dag:
    return make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2), ("d", 1, 2)])


def D2() -> Dag:
    return make_dag(2, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2), ("d", 1, 2),
                        ("e", 2, 3), ("f", 2, 3)])


def D3() -> Dag:
    return make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 0, 1),
                        ("d", 1, 2), ("e", 1, 2), ("f", 1, 2)])


def zigzag() -> Dag:
    """Three routes stacked top to bottom that swap strands at two vertices.

    Edge ids carry the stacked drawing: route 3 uses 3a,3b (top), route 2
    uses 2a,2b,2c (middle), route 1 uses 1a,1b (bottom).
    """
    return make_dag(2, [("1a", 0, 2), ("1b", 2, 3),
                        ("2a", 0, 1), ("2b", 1, 2), ("2c", 2, 3),
                        ("3a", 0, 1), ("3b", 1, 3)])


def bypass() -> Dag:
    """A four-dimensional balanced DAG with two chord edges."""
    return make_dag(2, [("a", 0, 1), ("b", 0, 1), ("c", 0, 2),
                        ("d", 1, 2), ("e", 1, 3), ("f", 2, 3), ("g", 2, 3)])


def stacked_rotations(dag: Dag) -> dict[int, tuple[str, ...]]:
    """Rotation system for catalog graphs drawn with parallel edges stacked.

    Edges at each vertex are stacked by ascending id from top to bottom,
    which matches the lexicographic conventions used throughout.  Only
    correct for graphs whose drawing really is a stack of parallel strands
    (G(k), D1, D2, D3).
    """
    rot = {}
    for v in range(dag.sink + 1):
        outs = sorted(e.id for e in dag.out_edges(v))
        ins = sorted(e.id for e in dag.in_edges(v))
        if v == SOURCE:
            rot[v] = tuple(reversed(outs))        # bottom-to-top, ccw
        elif v == dag.sink:
            rot[v] = tuple(ins)                   # top-to-bottom, ccw
        else:
            rot[v] = tuple(reversed(outs)) + tuple(ins)
    return rot


def zigzag_rotations() -> dict[int, tuple[str, ...]]:
    """Rotation system for the drawing described in :func:`zigzag`."""
    return {
        0: ("1a", "2a", "3a"),
        1: ("2b", "3b", "3a", "2a"),
        2: ("1b", "2c", "2b", "1a"),
        3: ("3b", "2c", "1b"),
    }
