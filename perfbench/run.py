"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports flowtri from its
``src/``.  Set-up writes the seed's input graphs under ``.perfbench/``.  The
workload's invocation list is then run in this process through
``flowtri.cli.main`` (stdout captured): one untimed warm-up pass, then
timed passes until ``--seconds`` have gone by.  Every invocation of every
pass goes through the output oracle in ``workloads.check``.

Times are reported in reference seconds.  The machines this runs on change
speed by 20-40 % within seconds, whatever runs on them, so a fixed
pure-Python calibration loop is timed before and after every invocation
and every set-up probe, and each time is scaled by CALIBRATION_REF_S over
the mean of the two loops around it.  Raw wall-clock times are printed too.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` timed passes alternate untraced and traced, and it carries
the per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 7          # fresh interpreters timed for setup_s
MIN_PASSES = 3            # timed passes per run, even past --seconds
CALIBRATION_REF_S = 0.0125  # the loop's time on a quiet 2-vCPU Xeon VM

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRA = ("trace.uncovered_s", "trace.overhead_s")
SUBCOMMANDS = ("analyze", "dkk", "equatorial", "quotient", "order")


def bootstrap() -> None:
    """Import flowtri from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import flowtri

    if Path(flowtri.__file__).resolve().parent != src / "flowtri":
        raise ImportError(f"flowtri imported from {flowtri.__file__}, not {src}")


def invoke(argv: list[str]) -> tuple[int, str]:
    from flowtri import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _calibration_work() -> int:
    """A fixed mix of the operations flowtri spends its time on: exact
    Fraction elimination, a recursive count, frozenset and tuple work, and
    dict updates.  Returns a checksum so that nothing is skipped."""
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(10)]
         for i in range(9)]
    for c in range(9):
        piv = next((i for i in range(c, 9) if m[i][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        for i in range(9):
            if i != c and m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]

    def count(n: int, k: int) -> int:
        return 1 if k == 1 else sum(count(n - x, k - 1) for x in range(n + 1))

    sets = [frozenset(c) for c in combinations(range(12), 4)]
    pieces = {tuple(sorted(a & b)) for a in sets[:150] for b in sets[:50]}
    d: dict = {}
    for i in range(3000):
        d[i % 37, i % 11] = d.get((i % 37, i % 11), 0) + i
    return m[8][9].denominator + count(10, 5) + len(pieces) + len(d)


def calibrate() -> float:
    """Seconds the calibration loop takes right now."""
    t0 = perf_counter()
    _calibration_work()
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


class Pass:
    """One run over the invocation list; outputs are checked after timing."""

    def __init__(self, invocations, tracer=None, first_id: int = 0) -> None:
        from workloads import check

        self.raw: list[float] = []          # seconds, per invocation
        self.scaled: list[float] = []       # reference seconds, per invocation
        outputs = []
        gc.collect()
        before = calibrate()
        for i, inv in enumerate(invocations):
            if tracer is not None:
                tracer.invocation = first_id + i
            t0 = perf_counter()
            outputs.append(invoke(inv.argv))
            self.raw.append(perf_counter() - t0)
            after = calibrate()
            self.scaled.append(scaled(self.raw[-1], before, after))
            before = after
        self.wall = sum(self.raw)
        self.scaled_wall = sum(self.scaled)
        self.stdout_bytes = sum(len(out.encode()) for _, out in outputs)
        self.failures = [f"{inv.label}: {why}" for inv, (code, out) in zip(invocations, outputs)
                         if (why := check(inv, code, out)) is not None]


def pass_time(passes: list[Pass], invocations, attr: str = "scaled", sub: str | None = None):
    """Each invocation's median time over the passes, summed over the
    invocations (of subcommand ``sub`` only, when given)."""
    return sum(statistics.median(getattr(p, attr)[i] for p in passes)
               for i, inv in enumerate(invocations) if sub in (None, inv.argv[0]))


def time_setup(workload: str, seed: int, digest: str) -> tuple[float, float]:
    """Median (scaled, raw) time of fresh interpreters that import flowtri
    and write the run's inputs; each must report this run's input digest."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only", str(WORK / f"probe-{workload}")]
    raw, norm = [], []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        raw.append(perf_counter() - t0)
        after = calibrate()
        norm.append(scaled(raw[-1], before, after))
        before = after
        if done.returncode != 0 or done.stdout.split() != ["inputs", digest]:
            raise RuntimeError(f"set-up probe failed: {done.stdout}{done.stderr}")
    return statistics.median(norm), statistics.median(raw)


def measure(seconds: float, invocations, tracer) -> tuple[list[Pass], list[Pass], list[Pass]]:
    """Warm-up, then timed passes, alternating untraced and traced when a
    tracer is given.  Returns (all passes, untraced, traced)."""
    every = [Pass(invocations)]
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(untraced) + len(traced) < MIN_PASSES:
        if tracer is not None and len(traced) < len(untraced):
            with tracer:
                traced.append(Pass(invocations, tracer, len(every) * len(invocations)))
            every.append(traced[-1])
        else:
            untraced.append(Pass(invocations))
            every.append(untraced[-1])
    return every, untraced, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", help="also write the workload's table row (JSON) here")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        bootstrap()
    except ImportError as exc:
        print(f"cannot import flowtri from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    manifest = workloads.load_manifest()
    if args.setup_only:
        _, digest = workloads.build_inputs(workload, args.seed, Path(args.setup_only), manifest)
        print("inputs", digest)
        return 0

    invocations, digest = workloads.build_inputs(
        workload, args.seed, WORK / f"inputs-{args.workload}", manifest)
    print(f"inputs {digest}: {' '.join(inv.label for inv in invocations)}")
    tracer = spans.Tracer() if args.trace else None
    every, untraced, traced = measure(args.seconds, invocations, tracer)
    attempted = len(every) * len(invocations)
    failures = [f for p in every for f in p.failures]
    for f in sorted(set(failures)):
        print("FAIL", f)
    print("raw pass walls (s):", " ".join(f"{p.wall:.4f}" for p in untraced))
    print("scaled pass walls (s):", " ".join(f"{p.scaled_wall:.4f}" for p in untraced))

    if tracer is None:
        setup_s, raw_setup_s = time_setup(args.workload, args.seed, digest)
        metrics = {
            "wall_s": pass_time(untraced, invocations),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        row = dict(metrics, raw_wall_s=pass_time(untraced, invocations, "raw"),
                   raw_setup_s=raw_setup_s, fail_ratio=len(failures) / attempted)
        for sub in SUBCOMMANDS:
            if any(inv.argv[0] == sub for inv in invocations):
                row[f"{sub}_s"] = pass_time(untraced, invocations, sub=sub)
        print("row", json.dumps(row, sort_keys=True))
        if args.report:
            Path(args.report).write_text(json.dumps(row, sort_keys=True))
    else:
        n = len(traced)
        metrics = spans.layer_metrics(tracer, n, sum(p.stdout_bytes for p in traced))
        roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
        metrics["trace.uncovered_s"] = (sum(p.wall for p in traced) - roots) / n
        metrics["trace.overhead_s"] = (pass_time(traced, invocations)
                                       - pass_time(untraced, invocations))
        units = {k: spans.unit(k) for k in metrics}
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
