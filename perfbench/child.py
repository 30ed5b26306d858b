"""Child interpreter of the benchmark: runs CLI ops in-process, one at a time.

Reads a job as JSON on stdin:

    {"ops": [[argv...], ...], "seconds": s, "trace": bool, "max_passes": k}

A pass runs every op once, in order, through ``dnacyclic.cli.main`` with
stdout captured.  Passes repeat while another one fits in ``seconds``, at
least two and at most ``max_passes``.  With tracing, traced passes
alternate with untraced ones, starting untraced.  Prints one JSON document on stdout
with every op's wall time, exit code, stdout digest and cardinality, and
the spans of each traced pass.  Each op also records this process's peak RSS
as read right after it, before its output is parsed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dnacyclic  # noqa: E402
import dnacyclic.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def output_cardinality(text: str):
    """The cardinality a CLI JSON document reports, or None."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if doc.get("command") == "catalog":
        return doc.get("entry_count")
    return doc.get("code", {}).get("cardinality")


def run_op(argv, op_id, tracer):
    buf = io.StringIO()
    exit_code, error = None, None
    if tracer is not None:
        tracer.op_id = op_id
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                exit_code = dnacyclic.cli.main(argv)
            else:
                exit_code = tracer.root(dnacyclic.cli.main, argv)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a raising op is a failed op, recorded, not fatal
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    text = buf.getvalue()
    return {
        "op": op_id,
        "wall": wall,
        "rss_kib": rss_kib,
        "exit": exit_code,
        "error": error,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "cardinality": output_cardinality(text),
    }


def main() -> int:
    job = json.load(sys.stdin)
    ops, seconds, trace = job["ops"], job["seconds"], job["trace"]
    max_passes = job.get("max_passes")
    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        gc.collect()
        records = [
            run_op(argv, len(passes) * len(ops) + i, tracer if traced else None)
            for i, argv in enumerate(ops)
        ]
        passes.append({"traced": traced, "wall": sum(r["wall"] for r in records),
                       "ops": records, "spans": []})
        if traced:
            tracer.uninstall()
            passes[-1]["spans"], tracer.spans = tracer.spans, []
        if max_passes is not None and len(passes) >= max_passes:
            break
        if len(passes) < 2:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            break
    json.dump(
        {
            "passes": passes,
            "missing": tracer.missing if tracer else [],
            "module": dnacyclic.__file__,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
