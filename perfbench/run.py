"""The dnacyclic benchmark: one run of one workload, one JSON result line.

Run from the root of a dnacyclic checkout:

    python3 perfbench/run.py --workload catalog-n9 --seed 1 --seconds 30 --trace 0

The package under ``src/`` is run unmodified, one op at a time (closed loop,
one client, at most one child process alive).  Every op's stdout digest,
exit code and cardinality are checked against ``data/reference.json``.
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run.  Every raw
value and a stamp of the machine go to ``perfbench/results/``.  See
README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, derive
from workloads import (
    HERE, POOLS_PATH, REFERENCE_PATH, WORKLOADS, catalog_op,
    child_env, load_json, pool_ops, run_child, sample_pool,
)

RESULTS_DIR = HERE / "results"

#: Fresh interpreters timed per run for setup_s, after one untimed warm-up.
SETUP_SPAWNS = 15
SETUP_N = 9
PROBE = (
    "import sys, time\n"
    "import dnacyclic.cli as cli\n"
    "t = time.perf_counter()\n"
    f"cli.all_monic_divisors({SETUP_N})\n"
    "sys.stdout.write(repr(time.perf_counter() - t))\n"
)

#: Every run, set-up included, ends within this many seconds.
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "specs_per_s": "1/s",
    "words_per_s": "1/s",
    "strand_pairs_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "polynomials.factor_s": "s",
    **{name: unit for name, (unit, _) in LAYER_METRICS.items()},
    "trace.overhead": "ratio",
}


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "dnacyclic" / "cli.py").is_file():
        raise SystemExit(
            "error: run from the root of a dnacyclic checkout "
            "(src/dnacyclic/cli.py not found)"
        )
    return root


def git_sha(root: Path) -> "str | None":
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "dnacyclic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(root: Path) -> dict:
    """Wall time of fresh interpreters importing the CLI and factoring x^9-1.

    The first spawn is untimed: it may write bytecode caches.
    """
    walls, factor = [], []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=root,
                              env=child_env(root), capture_output=True,
                              text=True, timeout=60, check=True)
        wall = time.perf_counter() - start
        if i:
            walls.append(wall)
            factor.append(float(proc.stdout))
    return {"walls": walls, "factor_s": factor}


def run_catalog(root, ops, seconds, trace, deadline) -> "list[dict]":
    """catalog-n9: a fresh child process per op.

    Traced, one child runs the op untraced and then traced.
    """
    argv = [op["argv"] for op in ops]
    if trace:
        job = {"ops": argv, "seconds": 0, "trace": True, "max_passes": 2}
        return [run_child(root, job, deadline - time.monotonic())]
    children, spawns = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        job = {"ops": argv, "seconds": 0, "trace": False, "max_passes": 1}
        children.append(run_child(root, job, deadline - t0))
        spawns.append(time.monotonic() - t0)
        if len(children) >= 2 and (
            time.monotonic() - start + statistics.median(spawns) > seconds
        ):
            return children


def run_pool(root, ops, seconds, trace, deadline) -> "list[dict]":
    """Pool workloads: one child interpreter repeats passes over the ops."""
    job = {"ops": [op["argv"] for op in ops], "seconds": seconds, "trace": trace}
    return [run_child(root, job, deadline - time.monotonic())]


def check_op(expected: dict, rec: dict) -> "str | None":
    """Why an op failed, or None if its output matches the reference."""
    if rec["error"]:
        return "raised: " + rec["error"].strip().splitlines()[-1]
    if rec["exit"] != expected["exit"]:
        return f"exit {rec['exit']} != {expected['exit']}"
    if rec["digest"] != expected["digest"]:
        return "stdout digest differs"
    if rec["cardinality"] != expected["cardinality"]:
        return f"cardinality {rec['cardinality']} != {expected['cardinality']}"
    return None


def evaluate(ops, children, setup, trace) -> dict:
    """Failures, per-pass values and the metrics of one run."""
    failures, passes, spans, missing = [], [], [], set()
    attempted = 0
    for child in children:
        missing.update(child["missing"])
        for p in child["passes"]:
            for op, rec in zip(ops, p["ops"]):
                attempted += 1
                why = check_op(op, rec)
                if why:
                    failures.append({"op": rec["op"], "argv": op["argv"], "why": why})
            entry = {"traced": p["traced"], "wall": p["wall"],
                     "op_walls": [r["wall"] for r in p["ops"]],
                     "rss_kib": max(r["rss_kib"] for r in p["ops"])}
            if p["traced"]:
                entry["layers"] = derive(p["spans"], sorted(missing))
            passes.append(entry)
            spans.extend({"pass": len(passes) - 1, **s} for s in p["spans"])

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    med = statistics.median
    if trace:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = med(p["layers"][key] for p in traced)
        metrics = {"polynomials.factor_s": med(setup["factor_s"]), **layers,
                   "trace.overhead": med(p["wall"] for p in traced)
                   / med(p["wall"] for p in plain) - 1}
        units = PER_LAYER
        repeat = all(
            p["layers"][k] == traced[0]["layers"][k]
            for p in traced for k in p["layers"] if PER_LAYER[k] == "count"
        )
    else:
        # A pass's wall time, op by op: each op's median over the passes.
        wall = sum(med(walls) for walls in zip(*(p["op_walls"] for p in plain)))
        work = {k: sum(op["work"][k] for op in ops) for k in ops[0]["work"]}
        metrics = {
            "setup_s": med(setup["walls"]),
            "wall_s": wall,
            **{f"{k}_per_s": v / wall for k, v in work.items()},
            # One value per child process: its peak over every op it ran.
            "peak_rss_mib": med(
                max(r["rss_kib"] for p in c["passes"] for r in p["ops"]) / 1024
                for c in children
            ),
        }
        units = END_TO_END
        repeat = None
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": passes,
        "spans": spans,
        "missing": sorted(missing),
        "counts_repeat": repeat,
        "error_rate": len(failures) / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def build_ops(workload: str, seed: int) -> "list[dict]":
    reference = load_json(REFERENCE_PATH)
    if workload == "catalog-n9":
        return [catalog_op(reference)]
    pools = load_json(POOLS_PATH)
    indices = sample_pool(workload, pools[workload], reference[workload], seed)
    return pool_ops(workload, pools, reference, indices)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = checkout_root()
    deadline = time.monotonic() + RUN_LIMIT_S
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root), "src_digest": src_digest(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    ops = build_ops(args.workload, args.seed)
    setup = measure_setup(root)
    runner = run_catalog if args.workload == "catalog-n9" else run_pool
    children = runner(root, ops, args.seconds, bool(args.trace), deadline)
    result = evaluate(ops, children, setup, bool(args.trace))
    stamp["loadavg_end"] = os.getloadavg()

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    spans = result.pop("spans")
    if args.trace:
        with open(RESULTS_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    record = {"stamp": stamp, "setup": setup, "ops": [op["argv"] for op in ops], **result}
    with open(RESULTS_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in result["metrics"].items():
        print(f"{name:36} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':36} {result['error_rate']:.6g} failed/attempted "
          f"({result['failed']}/{result['attempted']})")
    for f in result["failures"][:5]:
        print(f"failed op {f['op']}: {f['why']}: {' '.join(f['argv'])}")
    print(f"results: {RESULTS_DIR / stem}.json")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
