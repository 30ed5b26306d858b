"""The benchmark's workloads: what each op runs and what its output must be.

``catalog-n9`` is one fixed op.  The two pool workloads draw their specs
from a committed pool (``data/pools.json``) with a seeded generator; the
program sees only the resulting argv.  Every op's expected stdout digest and
exit code sit in ``data/reference.json``, recorded by ``record.py`` on the
commit that defined the benchmark.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOLS_PATH = HERE / "data" / "pools.json"
REFERENCE_PATH = HERE / "data" / "reference.json"

CATALOG_ARGV = ["catalog", "9", "--cap", "16384", "--json"]

#: Pool workloads: the cardinality range of the pool, the check flags of an
#: op, and the fields whose values split the pool into strata of specs that
#: cost about the same.  For analyze-large, the recorded exit code says
#: whether every brute-force oracle ran to the end (0, every verdict true)
#: or stopped early at a counterexample or a refused spec (1).  For
#: deletion-sweep, g1 decides how soon a sweep reaches its similarity
#: ceiling and stops.
POOL_WORKLOADS = {
    "analyze-large": {
        "cardinality": (16384, 65536),
        "flags": ["--reversible", "--rc", "--gc", "--json"],
        "stratum": ("n", "cardinality", "exit"),
    },
    "deletion-sweep": {
        "cardinality": (64, 256),
        "flags": ["--deletion", "--granularity", "nucleotide", "--json"],
        "stratum": ("n", "cardinality", "g1"),
    },
}
POOL_NS = (5, 7, 9)
POOL_CATALOG_CAP = 65536

WORKLOADS = ("catalog-n9", *POOL_WORKLOADS)


def pairs(words: int) -> int:
    return words * (words - 1) // 2


def check_argv(spec: dict, flags: "list[str]") -> "list[str]":
    argv = ["check", "--n", str(spec["n"]), "--g1", spec["g1"], "--g2", spec["g2"]]
    if spec["g3"] is not None:
        argv += ["--g3", spec["g3"]]
    return argv + flags


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sample_pool(name: str, pool: "list[dict]", expected: "list[dict]",
                seed: int) -> "list[int]":
    """Pool indices: one spec, drawn with the seed, from every stratum.

    Drawing one spec from every stratum keeps a pass's work nearly the same
    for every seed, while the seed still picks which specs, and so which
    outputs, are exercised.
    """
    fields = POOL_WORKLOADS[name]["stratum"]
    rng = random.Random(seed)
    strata: dict[tuple, list[int]] = {}
    for i, (spec, ref) in enumerate(zip(pool, expected)):
        key = tuple({**spec, **ref}[f] for f in fields)
        strata.setdefault(key, []).append(i)
    return [rng.choice(strata[key]) for key in sorted(strata)]


# -- running ops -------------------------------------------------------------------

SMOKE_ARGV = ["catalog", "3", "--json"]


def catalog_op(reference: dict, key: str = "catalog-n9") -> dict:
    entry = reference[key]
    return {"argv": entry["argv"], "digest": entry["digest"], "exit": entry["exit"],
            "cardinality": entry["cardinality"], "work": entry["work"]}


def pool_ops(name: str, pools: dict, reference: dict, indices) -> "list[dict]":
    flags = POOL_WORKLOADS[name]["flags"]
    ops = []
    for i in indices:
        spec, ref = pools[name][i], reference[name][i]
        words = spec["cardinality"]
        ops.append({
            "argv": check_argv(spec, flags), "digest": ref["digest"],
            "exit": ref["exit"], "cardinality": words,
            "work": {"specs": 1, "words": words, "strand_pairs": pairs(words)},
        })
    return ops


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(root: Path, job: dict, timeout: float) -> dict:
    """Run child.py on one job and return its JSON result.

    The child is killed and reaped if it outlives ``timeout`` seconds, and
    its result is refused unless it ran the package under ``root/src``.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=child_env(root),
    )
    try:
        out, _ = proc.communicate(json.dumps(job).encode(), timeout=timeout)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    result = json.loads(out)
    if not Path(result["module"]).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"child imported dnacyclic from {result['module']}, not src/")
    return result
