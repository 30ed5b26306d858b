"""Regenerate the benchmark's pools and reference outputs.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record.py

It runs ``dnacyclic catalog n --cap 65536 --json`` for n in 5, 7 and 9 and
keeps every enumerated spec whose cardinality falls in a pool workload's
range (``data/pools.json``).  It then runs every pool op, ``catalog-n9`` and
the smoke test's ``catalog 3`` once through child.py and stores each stdout
digest and exit code (``data/reference.json``).  About ten minutes on a
2-core x86-64 machine with Python 3.11.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys

from run import checkout_root, git_sha
from workloads import (
    CATALOG_ARGV, POOL_CATALOG_CAP, POOL_NS, POOL_WORKLOADS, POOLS_PATH,
    REFERENCE_PATH, SMOKE_ARGV, check_argv, child_env, pairs, run_child,
)


def cli(root, argv) -> "tuple[int, str]":
    proc = subprocess.run(
        [sys.executable, "-m", "dnacyclic.cli", *argv],
        cwd=root, env=child_env(root), capture_output=True, text=True, check=False,
    )
    return proc.returncode, proc.stdout


def catalog_reference(root, argv) -> dict:
    code, out = cli(root, argv)
    doc = json.loads(out)
    sizes = [e["code"]["cardinality"] for e in doc["entries"] if "code" in e]
    swept = [e["code"]["cardinality"] for e in doc["entries"]
             if isinstance(e.get("deletion_distance_symbol"), int)]
    return {
        "argv": argv,
        "digest": hashlib.sha256(out.encode()).hexdigest(),
        "exit": code,
        "cardinality": doc["entry_count"],
        "work": {"specs": doc["entry_count"], "words": sum(sizes),
                 "strand_pairs": sum(pairs(k) for k in swept)},
    }


def build_pools(root) -> dict:
    pools = {name: [] for name in POOL_WORKLOADS}
    for n in POOL_NS:
        code, out = cli(root, ["catalog", str(n), "--cap", str(POOL_CATALOG_CAP), "--json"])
        if code != 0:
            raise RuntimeError(f"catalog {n} exited with {code}")
        for entry in json.loads(out)["entries"]:
            if "code" not in entry:
                continue
            words = entry["code"]["cardinality"]
            spec = {k: entry["spec"][k] for k in ("n", "g1", "g2", "g3")}
            for name, workload in POOL_WORKLOADS.items():
                low, high = workload["cardinality"]
                if low <= words <= high:
                    pools[name].append({**spec, "cardinality": words})
    return pools


def main() -> int:
    root = checkout_root()
    pools = build_pools(root)
    reference = {
        "recorded_on": {"git_sha": git_sha(root), "python": platform.python_version()},
        "catalog-n9": catalog_reference(root, CATALOG_ARGV),
        "smoke-catalog-n3": catalog_reference(root, SMOKE_ARGV),
    }
    for name, pool in pools.items():
        flags = POOL_WORKLOADS[name]["flags"]
        job = {"ops": [check_argv(s, flags) for s in pool], "seconds": 0,
               "trace": False, "max_passes": 1}
        records = run_child(root, job, timeout=3600)["passes"][0]["ops"]
        for spec, rec in zip(pool, records):
            if rec["error"] or rec["cardinality"] != spec["cardinality"]:
                raise RuntimeError(f"{name}: bad reference op {spec}: {rec}")
        reference[name] = [{"digest": r["digest"], "exit": r["exit"]} for r in records]
    POOLS_PATH.parent.mkdir(exist_ok=True)
    for path, doc in ((POOLS_PATH, pools), (REFERENCE_PATH, reference)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print({name: len(pool) for name, pool in pools.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
