"""Print every end-to-end metric of every workload, one row per workload.

    python3 perfbench/table.py [--seed N] [--seconds S]

Runs ``run.py --trace 0`` once per workload, each in its own process, and
prints the rows it reports: the scaled times the benchmark's bounds apply
to, the raw wall-clock times beside them, each subcommand's summed time
within a pass (only on the workload that runs it), peak memory and the
share of invocations that failed the output oracle.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

COLUMNS = (("wall_s", "s"), ("raw_wall_s", "s"), ("setup_s", "s"), ("raw_setup_s", "s"),
           *((f"{sub}_s", "s") for sub in run.SUBCOMMANDS),
           ("peak_rss_mb", "MB"), ("fail_ratio", "1"))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args()
    names = [w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())
             ["workloads"]]
    run.WORK.mkdir(exist_ok=True)
    header = [f"{'workload':<16}"] + [f"{f'{name} [{unit}]':>18}" for name, unit in COLUMNS]
    print(" ".join(header))
    for name in names:
        report = run.WORK / f"row-{name}.json"
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", "0", "--report", str(report)],
                       check=True, stdout=subprocess.DEVNULL, timeout=300)
        row = json.loads(report.read_text())
        cells = [f"{row[c]:>18.4f}" if c in row else f"{'-':>18}" for c, _ in COLUMNS]
        print(" ".join([f"{name:<16}"] + cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
