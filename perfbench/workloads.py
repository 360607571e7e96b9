"""The benchmark's workloads: which graphs each one runs, and the oracle.

Each workload runs one flowtri subcommand over a list of graphs.  The list
holds a few fixed reference graphs, whose answers are known in closed
form, and ``picks`` graphs drawn by the run's seed from a recorded pool.
The draw is balanced on recorded cost, so every seed runs a different
graph set with about the same total work: the spread of a metric across
seeds then measures the program, not the luck of the draw.

``pool.json`` holds, for each pool member, the generator index that
rebuilds it, a digest of the graph file, its recorded cost and the digest
of the stdout that flowtri printed for it when the pool was recorded.
``record.py`` writes it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from flowtri import dag as dagmod
from flowtri import geometry as geo
from flowtri import planar as plmod
from flowtri import routes as rmod

import gen

POOL_FILE = Path(__file__).with_name("pool.json")
BALANCE = 0.01      # accepted distance of a draw's cost from the target
DRAWS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    family: str                          # "flow" or "order"
    accept: Callable[[dagmod.Dag], bool]  # pool membership, checked at record time
    pool: int
    picks: int
    refs: tuple[tuple[int, int], ...] = ()  # chain(k, m) graphs run every pass
    # Pool graphs stay short, because the calibration loops around an
    # invocation only track the machine's speed over a fraction of a second.
    max_cost_ms: float = 500


def _dim(lo: int, hi: int):
    return lambda dag: lo <= dagmod.dimension(dag) <= hi


def _dkk_size(dag: dagmod.Dag) -> bool:
    return 4 <= dagmod.dimension(dag) <= 7 and 5 <= geo.normalized_volume(dag) <= 12


def _route_count(dag: dagmod.Dag, lo: int, hi: int) -> bool:
    return lo <= len(rmod.enumerate_routes(dag)) <= hi


WORKLOADS = {w.name: w for w in (
    Workload("dkk-verify", "dkk", "flow", _dkk_size, pool=10, picks=5,
             refs=((2, 3), (3, 2)), max_cost_ms=800),
    Workload("equatorial", "equatorial", "flow",
             lambda d: _dim(6, 7)(d) and _route_count(d, 15, 50), pool=30, picks=12,
             refs=((2, 4), (4, 2))),
    Workload("quotient", "quotient", "flow",
             lambda d: _dim(7, 8)(d) and _route_count(d, 25, 60), pool=40, picks=16,
             refs=((2, 4), (4, 2))),
    Workload("analyze-ehrhart", "analyze", "flow",
             lambda d: _dim(7, 8)(d) and _route_count(d, 1, 60), pool=24, picks=8,
             refs=((2, 4), (4, 2))),
    Workload("order-planar", "order", "order", _dim(6, 7), pool=30, picks=8),
)}


# ---------------------------------------------------------------------------
# Candidate graphs, rebuilt from their generator index

def flow_candidate(index: int) -> dagmod.Dag:
    rng = random.Random(index)
    n = rng.randint(2, 5)
    k = rng.randint(3, 6)
    p = rng.uniform(min(0.9, 2.2 / k), 0.95)
    return gen.route_union(rng, n, k, p)


@dataclass(frozen=True)
class Candidate:
    dag: dagmod.Dag
    graph: str                 # graph JSON
    embedding: str | None      # embedding JSON, for ``order``
    reference: dict            # independent expected values


def candidate(workload: Workload, index: int) -> Candidate:
    if workload.family == "order":      # 3 ranks of 2-3 elements
        poset = gen.graded_poset(random.Random(index), 3, 2, 3)
        dag, emb = plmod.poset_to_dag(poset)
        return Candidate(dag, graph_json(dag),
                         json.dumps(plmod.embedding_to_json(dag, emb), sort_keys=True),
                         {"linear_extensions": gen.linear_extensions(poset)})
    dag = flow_candidate(index)
    return Candidate(dag, graph_json(dag), None, {})


def command(workload: Workload, graph: str, embedding: str | None) -> list[str]:
    if embedding is None:
        return [workload.subcommand, graph]
    return [workload.subcommand, graph, embedding, "--max-dilate", "4"]


def graph_json(dag: dagmod.Dag) -> str:
    return json.dumps(dagmod.dag_to_json(dag), sort_keys=True)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Invocations and the output oracle

@dataclass
class Invocation:
    label: str                 # "chain-2x3" or "pool-<index>"
    argv: list[str]
    stdout_sha: str
    reference: dict = field(default_factory=dict)   # independent expected values


def load_manifest() -> dict:
    with open(POOL_FILE) as fh:
        return json.load(fh)


def select(workload: Workload, seed: int, manifest: dict) -> list[dict]:
    """Pool entries for this seed: the first random ``picks``-subset whose
    recorded cost is within BALANCE of ``picks`` times the pool's mean cost
    (or the closest of DRAWS subsets), in random order."""
    pool = manifest[workload.name]["pool"]
    target = workload.picks * sum(e["cost_ms"] for e in pool) / len(pool)
    rng = random.Random(seed)
    best, miss = None, float("inf")
    for _ in range(DRAWS):
        picks = rng.sample(pool, workload.picks)
        off = abs(sum(e["cost_ms"] for e in picks) - target)
        if off < miss:
            best, miss = picks, off
        if off <= BALANCE * target:
            break
    return best


def build_inputs(workload: Workload, seed: int, workdir: Path,
                 manifest: dict) -> tuple[list[Invocation], str]:
    """Write the run's input files; return its invocations and their digest."""
    workdir.mkdir(parents=True, exist_ok=True)
    recorded = manifest[workload.name]
    invocations: list[Invocation] = []
    files: list[str] = []

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text)
        files.append(text)
        return str(path)

    for (k, m), ref in zip(workload.refs, recorded["refs"]):
        label = f"chain-{k}x{m}"
        if ref["label"] != label:
            raise RuntimeError(f"pool.json lists {ref['label']}, expected {label}")
        path = write(f"{label}.json", graph_json(gen.chain(k, m)))
        invocations.append(Invocation(label, [workload.subcommand, path],
                                      ref["stdout"], {"chain": (k, m)}))
    for i, entry in enumerate(select(workload, seed, manifest)):
        label = f"pool-{entry['candidate']}"
        c = candidate(workload, entry["candidate"])
        if sha(c.graph) != entry["graph"]:
            raise RuntimeError(f"{label} no longer generates the recorded graph")
        graph = write(f"g{i:02d}.json", c.graph)
        emb = None if c.embedding is None else write(f"e{i:02d}.json", c.embedding)
        invocations.append(Invocation(label, command(workload, graph, emb),
                                      entry["stdout"], c.reference))
    digest = hashlib.sha256("\0".join(files).encode()).hexdigest()[:16]
    return invocations, digest


def verdict(subcommand: str, report: dict) -> bool:
    """The report's own check fields."""
    if subcommand == "dkk":
        return report["triangulation_ok"] is True
    if subcommand == "equatorial":
        return report["h_equals_h_star"] is True
    if subcommand == "quotient":
        return report["reflexive"] is True and report["identity_failures"] == []
    if subcommand == "order":
        return report["lattice_counts_agree"] is True and report["equivalence"]["ok"] is True
    return report["degree_equality"] is True          # analyze: balanced inputs


def check(inv: Invocation, code: int, stdout: str) -> str | None:
    """Why the invocation's output is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    if hashlib.sha256(stdout.encode()).hexdigest() != inv.stdout_sha:
        return "stdout differs from the recorded output"
    report = json.loads(stdout)
    sub = inv.argv[0]
    if not verdict(sub, report):
        return "the report's own check failed"
    if "chain" in inv.reference:
        k, m = inv.reference["chain"]
        if sub == "quotient":
            got, want = report["identity_pairs"], m ** k * k ** m   # routes x transversals
        elif sub == "analyze":
            got, want = sum(report["ehrhart"]["h_star"]), gen.chain_simplices(k, m)
        else:
            got, want = len(report["simplices"]), gen.chain_simplices(k, m)
        if got != want:
            return f"{inv.label}: got {got}, closed form gives {want}"
    if "linear_extensions" in inv.reference:
        want = inv.reference["linear_extensions"]
        eq = report["equivalence"]
        if not eq["order_simplices"] == eq["flow_simplices"] == want:
            return (f"{inv.label}: {eq['order_simplices']} order and "
                    f"{eq['flow_simplices']} flow simplices, {want} linear extensions")
    return None
