"""Record pool.json: the graphs each workload draws from, with their costs
and the stdout flowtri prints for them.

    python3 perfbench/record.py

The digests are the oracle's byte-identical reference, so record them on
the code a change is measured against, and only in a change that edits the
benchmark itself.  Costs (scaled milliseconds, as in run.py) only balance
the seeds' draws; they are never compared with a run's times.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run

MAX_CANDIDATES = 20000
ROUNDS = 5


def stdout_of(argv: list[str]) -> tuple[str, float]:
    """Checked stdout digest and one scaled timing, in ms."""
    before = run.calibrate()
    t0 = perf_counter()
    code, out = run.invoke(argv)
    ms = 1000 * run.scaled(perf_counter() - t0, before, run.calibrate())
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return hashlib.sha256(out.encode()).hexdigest(), ms


def command_for(workload, c, tmp: Path, i: int) -> list[str]:
    """Write candidate ``c``'s files into tmp; return its flowtri argv."""
    import workloads as wl

    graph, emb = tmp / f"g{i}.json", tmp / f"e{i}.json"
    graph.write_text(c.graph)
    if c.embedding is not None:
        emb.write_text(c.embedding)
    return wl.command(workload, str(graph), None if c.embedding is None else str(emb))


def measure_costs(workload, pool: list[dict], tmp: Path) -> None:
    """Set each entry's cost_ms to the median of its scaled time over ROUNDS
    round-robin sweeps of the pool, so that a slow spell of the machine is
    spread over every graph instead of landing on one."""
    import workloads as wl

    argvs = [command_for(workload, wl.candidate(workload, e["candidate"]), tmp, i)
             for i, e in enumerate(pool)]
    times: list[list[float]] = [[] for _ in pool]
    for _ in range(ROUNDS):
        for argv, samples in zip(argvs, times):
            before = run.calibrate()
            t0 = perf_counter()
            run.invoke(argv)
            samples.append(run.scaled(perf_counter() - t0, before, run.calibrate()))
    for entry, samples in zip(pool, times):
        entry["cost_ms"] = round(1000 * statistics.median(samples), 1)


def record(workload, tmp: Path) -> dict:
    import gen
    import workloads as wl

    refs = []
    for k, m in workload.refs:
        path = tmp / "ref.json"
        path.write_text(wl.graph_json(gen.chain(k, m)))
        refs.append({"label": f"chain-{k}x{m}",
                     "stdout": stdout_of([workload.subcommand, str(path)])[0]})
    pool, seen = [], set()
    for index in range(MAX_CANDIDATES):
        if len(pool) == workload.pool:
            break
        try:
            c = wl.candidate(workload, index)
        except ValueError:      # a poset whose Hasse drawing is not planar
            continue
        if c.graph in seen or not workload.accept(c.dag):
            continue
        seen.add(c.graph)
        digest, cost = stdout_of(command_for(workload, c, tmp, len(pool)))
        if cost > workload.max_cost_ms:
            continue
        pool.append({"candidate": index, "graph": wl.sha(c.graph), "stdout": digest})
        print(workload.name, index, round(cost, 1), file=sys.stderr)
    else:
        raise RuntimeError(f"{workload.name}: pool not filled from {MAX_CANDIDATES} candidates")
    measure_costs(workload, pool, tmp)
    return {"refs": refs, "pool": pool}


def main() -> int:
    run.bootstrap()
    import workloads as wl

    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name in sys.argv[1:] or list(wl.WORKLOADS):
            entry = record(wl.WORKLOADS[name], Path(tmp))
            manifest = wl.load_manifest() if wl.POOL_FILE.exists() else {}
            manifest[name] = entry
            wl.POOL_FILE.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
