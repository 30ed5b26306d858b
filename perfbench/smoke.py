"""Smoke test of the benchmark itself: a tiny variant that runs in seconds.

Run from the repository root:

    python3 perfbench/smoke.py

It runs ``catalog 3`` and the smallest op of each pool, untraced and then
traced, through the same child, checks and tracer as run.py, and checks
that every metric is reported and no op failed.  Then it injects
faults: a corrupted reference digest must drive error_rate above 0, and a
wrapped name the package lacks must drop its metrics without a crash.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
import time

import tracer
from run import END_TO_END, PER_LAYER, checkout_root, evaluate, measure_setup, run_pool
from workloads import POOLS_PATH, REFERENCE_PATH, catalog_op, load_json, pool_ops


def smallest(pools, name) -> int:
    pool = pools[name]
    return min(range(len(pool)), key=lambda i: (pool[i]["cardinality"], pool[i]["n"]))


def main() -> int:
    root = checkout_root()
    reference, pools = load_json(REFERENCE_PATH), load_json(POOLS_PATH)
    ops = [catalog_op(reference, "smoke-catalog-n3")]
    for name in ("analyze-large", "deletion-sweep"):
        ops += pool_ops(name, pools, reference, [smallest(pools, name)])
    setup = measure_setup(root)
    deadline = time.monotonic() + 120
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    plain = evaluate(ops, run_pool(root, ops, 0, False, deadline), setup, False)
    expect(plain["failed"] == 0, f"untraced ops match the reference ({plain['failures']})")
    expect(set(plain["metrics"]) == set(END_TO_END), "every end-to-end metric reported")
    expect(all(m["value"] > 0 for m in plain["metrics"].values()),
           "every end-to-end metric is above 0")

    children = run_pool(root, ops, 0, True, deadline)
    traced = evaluate(ops, children, setup, True)
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    expect(traced["failed"] == 0, "traced ops match the reference")
    expect(set(layers) == set(PER_LAYER), "every per-layer metric reported")
    expect(traced["counts_repeat"], "traced counts repeat")
    spans = children[0]["passes"][1]["spans"]
    deletion_op = len(ops) + 2  # the deletion-sweep op of the traced pass
    expect(sum(s["op"] == deletion_op and s["name"] == "deletion.similarity"
               for s in spans) == 4,
           "one check --deletion makes 4 similarity calls")
    expect(layers["constraints.words_checked"] > 0, "oracles consumed words")

    ops[1] = {**ops[1], "digest": "0" * 64}
    faulty = evaluate(ops, children, setup, True)
    expect(faulty["error_rate"] > 0,
           "a corrupted reference digest drives error_rate above 0")

    sys.path.insert(0, str(root / "src"))
    import dnacyclic.cli

    original = dnacyclic.cli.code_similarity_report
    saved = tracer.TARGETS
    tracer.TARGETS = saved + (("deletion.gone", "dnacyclic.cli", "no_such_function"),)
    try:
        lacking_name = tracer.Tracer()
        lacking_name.install()
        lacking_name.uninstall()
    finally:
        tracer.TARGETS = saved
    expect(lacking_name.missing == ["deletion.gone"], "install skips a name the package lacks")
    expect(dnacyclic.cli.code_similarity_report is original, "uninstall restores names")
    lacking = tracer.derive(spans, ["deletion.dna_code"])
    expect("deletion.dna_code_s" not in lacking and "codes.from_spec_s" in lacking,
           "a missing wrapped name drops only its metrics")

    print("smoke:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
