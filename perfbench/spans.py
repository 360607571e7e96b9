"""Spans around the public functions of flowtri's modules.

The tracer wraps, from outside the library, every public function of the
eight modules and rebinds each name that refers to one, including the
copies that ``from .x import y`` made in other modules.  Spans stay in
memory as ``[name, start, end, parent, invocation]`` rows; the per-layer
metrics are derived from them once the traced passes are over.

The trace stops at module boundaries: a function is one span however much
work it does inside.  Functions that run many thousands of times per
invocation (the pairwise route tests and per-edge helpers) are left
unwrapped, so their time counts as the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from math import prod
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "dag", "routes", "dkk", "equatorial", "geometry", "quotient", "planar")

# Called per route pair, per edge or per chain: thousands to millions of
# times in one invocation, where a span would cost more than the work.
TOO_FINE = frozenset({
    "dkk.conflict", "dkk.coherent", "routes.route_vertices",
    "quotient.phi_edge", "quotient.edge_labels", "planar.is_graded",
})

# Counters computed from a wrapped function's arguments and result.
Hook = Callable[[Counter, tuple, dict, object], None]


def _len_result(key: str) -> Hook:
    def hook(counters, args, kwargs, result):
        counters[key] += len(result)
    return hook


def _lattice_points(counters, args, kwargs, result):
    counters["geometry.lattice_points"] += result


def _faces(counters, args, kwargs, result):
    counters["geometry.faces"] += sum(result)


def _sphere_facets(counters, args, kwargs, result):
    counters["equatorial.sphere_facets"] += len(result.maximal_faces)


def _transversals(counters, args, kwargs, result):
    decomp = args[1] if len(args) > 1 else kwargs["decomp"]
    counters["equatorial.transversals"] += prod(len(r) for r in decomp)
    counters["equatorial.facets"] += len(result)


def _box_points(counters, args, kwargs, result):
    q = args[0] if args else kwargs["q"]
    points = 1
    for k in range(q.space.dim):
        column = [v[k] for _, v in q.vertices] or [0]
        points *= max(column) - min(column) + 1
    counters["quotient.box_points"] += points


def _kept_faces(counters, args, kwargs, result):
    counters["geometry.complex_from_faces.kept"] += len(result.maximal_faces)


HOOKS: dict[str, Hook] = {
    "geometry.count_lattice_points": _lattice_points,
    "geometry.f_vector": _faces,
    "geometry.complex_from_faces": _kept_faces,
    "routes.enumerate_routes": _len_result("routes.routes"),
    "dkk.max_cliques": _len_result("dkk.cliques"),
    "equatorial.equatorial_facets": _transversals,
    "equatorial.t_eq": _sphere_facets,
    "quotient.verify_reflexive": _box_points,
    "planar.filters": _len_result("planar.filters"),
    "planar.maximal_equatorial_chains": _len_result("planar.equatorial_chains"),
}


class Tracer:
    """Installs span wrappers on entry and restores every binding on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.invocation = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"flowtri.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in TOO_FINE
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self._wrap(name, fn)
        for mod in modules + [importlib.import_module("flowtri")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)
        sized = name == "geometry.complex_from_faces"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sized:        # count the input faces without consuming them
                args = (list(args[0]),) + args[1:]
                self.counters["geometry.complex_from_faces.in_faces"] += len(args[0])
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1,
                          self.invocation])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "invocation"],
                       "spans": self.spans}, fh)


def unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("yield"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its child spans."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, passes: int, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics as per-pass means over ``passes`` traced passes."""
    spans = tracer.spans
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: Counter = Counter()
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        inclusive[name] += end - start
        calls[name] += 1
        layer_self[layer] += own
        layer_calls[layer] += 1
    c = tracer.counters
    m = {
        "geometry.verify_triangulation.s": inclusive["geometry.verify_triangulation"],
        "geometry.lp_pairs": calls["geometry.simplices_meet_in_common_face"],
        "geometry.ehrhart_hstar.s": inclusive["geometry.ehrhart_hstar"],
        "geometry.count_lattice_points.calls": calls["geometry.count_lattice_points"],
        "geometry.lattice_points": c["geometry.lattice_points"],
        "geometry.complex_from_faces.s": inclusive["geometry.complex_from_faces"],
        "geometry.complex_from_faces.in_faces": c["geometry.complex_from_faces.in_faces"],
        "geometry.complex_from_faces.kept": c["geometry.complex_from_faces.kept"],
        "geometry.h_polynomial.s": inclusive["geometry.h_polynomial"],
        "geometry.faces": c["geometry.faces"],
        "routes.enumerate_routes.calls": calls["routes.enumerate_routes"],
        "routes.routes": c["routes.routes"],
        "dkk.coherence_graph.calls": calls["dkk.coherence_graph"],
        "dkk.coherence_graph.s": inclusive["dkk.coherence_graph"],
        "dkk.max_cliques.s": inclusive["dkk.max_cliques"],
        "dkk.cliques": c["dkk.cliques"],
        "equatorial.t_eq.calls": calls["equatorial.t_eq"],
        "equatorial.t_eq.s": inclusive["equatorial.t_eq"],
        "equatorial.equatorial_facets.s": inclusive["equatorial.equatorial_facets"],
        "equatorial.transversals": c["equatorial.transversals"],
        "equatorial.facets": c["equatorial.facets"],
        "equatorial.sphere_facets": c["equatorial.sphere_facets"],
        "quotient.quotient_facets.s": inclusive["quotient.quotient_facets"],
        "quotient.verify_reflexive.s": inclusive["quotient.verify_reflexive"],
        "quotient.box_points": c["quotient.box_points"],
        "quotient.check_transversal_identity.calls":
            calls["quotient.check_transversal_identity"],
        "quotient.leveled_space.calls": calls["quotient.leveled_space"],
        "planar.verify_equivalence.s": inclusive["planar.verify_equivalence"],
        "planar.maximal_equatorial_chains.s": inclusive["planar.maximal_equatorial_chains"],
        "planar.filters": c["planar.filters"],
        "planar.equatorial_chains": c["planar.equatorial_chains"],
        "cli.stdout_bytes": stdout_bytes,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.calls"] = layer_calls[layer]
    m = {k: v / passes for k, v in m.items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lp_s = inclusive["geometry.simplices_meet_in_common_face"]
    m["geometry.lp_pair_ms"] = 1000 * ratio(lp_s, calls["geometry.simplices_meet_in_common_face"])
    m["geometry.complex_from_faces.yield"] = ratio(
        c["geometry.complex_from_faces.kept"], c["geometry.complex_from_faces.in_faces"])
    m["equatorial.facet_yield"] = ratio(c["equatorial.facets"], c["equatorial.transversals"])
    m["planar.chain_yield"] = ratio(c["planar.equatorial_chains"],
                                    calls["planar.is_equatorial_chain"])
    return m
