"""Span tracing of dnacyclic's layers, applied from outside the package.

The tracer replaces public functions at the names through which
``dnacyclic.cli`` and ``dnacyclic.deletion`` call them, so no file of the
package changes.  Each call becomes a span (name, start, end, parent, op id)
kept in memory; ``derive`` turns a list of spans into self times and counts.
A name the package no longer has is skipped, and the metrics fed by it are
then absent from ``derive``'s result instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# (span name, module, attribute path) for every wrapped callable.  The same
# span name may appear more than once when two modules call one function.
TARGETS = (
    ("codes.from_spec", "dnacyclic.codes", "Code.from_spec"),
    ("codes.describe", "dnacyclic.codes", "Code.describe"),
    ("constraints.reversible", "dnacyclic.cli", "reversible_check"),
    ("constraints.rc", "dnacyclic.cli", "reverse_complement_check"),
    ("constraints.gc", "dnacyclic.cli", "gc_spectrum"),
    ("deletion.similarity", "dnacyclic.cli", "code_similarity_report"),
    ("deletion.similarity", "dnacyclic.deletion", "code_similarity_report"),
    ("deletion.dna_code", "dnacyclic.cli", "dna_code_report"),
    ("deletion.subcode", "dnacyclic.cli", "subcode_deletion_distance_check"),
)

ROOT_SPAN = "cli.op"

# Set in a Code instance's __dict__ once a span has claimed building its
# tuple view, so an enclosing span does not claim it again.
_CLAIMED = "_perfbench_codewords_claimed"


class Tracer:
    """Installs span-recording wrappers and collects spans in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id = None
        #: Span names none of whose targets the package still has.
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._code_cls = importlib.import_module("dnacyclic.codes").Code

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        installed = set()
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                continue
            installed.add(name)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            # One wrapper per function, so a call reached through two names
            # is still a single span.
            wrapper = wrapped.get(id(fn))
            if wrapper is None:
                wrapper = wrapped[id(fn)] = self._wrap(name, fn)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self.missing = sorted({name for name, _, _ in TARGETS} - installed)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- spans -------------------------------------------------------------------

    def root(self, fn, *args):
        """Run fn(*args) as the root span of the current op."""
        return self._call(ROOT_SPAN, None, fn, args, {})

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return self._call(name, bound.arguments, fn, args, kwargs)

        return wrapper

    def _call(self, name, arguments, fn, args, kwargs):
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "op": self.op_id}
        arguments = arguments or {}
        codes = [v for v in arguments.values() if isinstance(v, self._code_cls)]
        fresh = [c for c in codes if "codewords" not in c.__dict__]
        if codes:
            span["words"] = codes[0].cardinality
        for key in ("cap", "granularity"):
            if key in arguments:
                span[key] = arguments[key]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["end"] = time.perf_counter()
            span["raised"] = type(exc).__name__
            raise
        else:
            span["end"] = time.perf_counter()
            if isinstance(result, self._code_cls):
                span["built"] = result.cardinality
            if hasattr(result, "pairs_examined"):
                span["pairs"] = result.pairs_examined
            return result
        finally:
            self._stack.pop()
            for code in fresh:
                if "codewords" in code.__dict__ and _CLAIMED not in code.__dict__:
                    code.__dict__[_CLAIMED] = True
                    span["materialized"] = span.get("materialized", 0) + 1


# -- derivation ----------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def derive(spans: list[dict], missing: "list[str]" = ()) -> dict[str, float]:
    """Per-layer self times (s) and counts over one list of spans.

    A metric fed only by a span name in ``missing`` is left out.
    """
    own = self_times(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for s, t in zip(spans, own):
        name, raised = s["name"], s.get("raised")
        add("codes.codewords_materialized", s.get("materialized", 0))
        if name == ROOT_SPAN:
            add("cli.self_s", t)
        elif name == "codes.from_spec":
            add("codes.from_spec_s", t)
            add("codes.from_spec_calls", 1)
            add("codes.words_kept", s.get("built", 0))
            if raised == "EnumerationCapExceeded":
                add("codes.cap_exceeded", 1)
                add("codes.cap_exceeded_s", t)
                add("codes.words_built", s["cap"])
            add("codes.words_built", s.get("built", 0))
        elif name == "codes.describe":
            add("codes.describe_s", t)
        elif name.startswith("constraints."):
            add(name + "_s", t)
            if raised == "SpecError":
                add("constraints.checker_errors", 1)
            elif raised is None:
                add("constraints.words_checked", s.get("words", 0))
        elif name == "deletion.similarity":
            add(f"deletion.{s['granularity']}_s", t)
            add("deletion.similarity_calls", 1)
            if raised == "PairCapExceeded":
                add("deletion.pair_cap_exceeded", 1)
                add("deletion.pair_cap_exceeded_s", t)
            elif raised is None:
                pairs = s["pairs"]
                add("deletion.pairs_examined", pairs)
                add(f"deletion.pairs_examined_{s['granularity']}", pairs)
                add("deletion.swept_s", t)
                words = s["words"]
                if pairs < words * (words - 1) // 2:
                    add("deletion.early_exits", 1)
        elif name in ("deletion.dna_code", "deletion.subcode"):
            add(name + "_s", t)

    kept = m.pop("codes.words_kept", 0)
    swept = m.pop("deletion.swept_s", 0)
    out = {key: 0 for key in LAYER_METRICS}
    out.update(m)
    built = out["codes.words_built"]
    out["codes.words_kept_ratio"] = kept / built if built else 0.0
    pairs = out["deletion.pairs_examined"]
    out["deletion.pair_us"] = swept / pairs * 1e6 if pairs else 0.0
    return {k: v for k, v in out.items() if LAYER_METRICS[k][1] not in missing}


#: Metrics derived from spans: unit, and the one span name that feeds the
#: metric (None when several spans do).
LAYER_METRICS = {
    "codes.from_spec_s": ("s", "codes.from_spec"),
    "codes.from_spec_calls": ("count", "codes.from_spec"),
    "codes.cap_exceeded": ("count", "codes.from_spec"),
    "codes.cap_exceeded_s": ("s", "codes.from_spec"),
    "codes.words_built": ("count", "codes.from_spec"),
    "codes.words_kept_ratio": ("ratio", "codes.from_spec"),
    "codes.describe_s": ("s", "codes.describe"),
    "codes.codewords_materialized": ("count", None),
    "constraints.reversible_s": ("s", "constraints.reversible"),
    "constraints.rc_s": ("s", "constraints.rc"),
    "constraints.gc_s": ("s", "constraints.gc"),
    "constraints.words_checked": ("count", None),
    "constraints.checker_errors": ("count", None),
    "deletion.symbol_s": ("s", "deletion.similarity"),
    "deletion.nucleotide_s": ("s", "deletion.similarity"),
    "deletion.similarity_calls": ("count", "deletion.similarity"),
    "deletion.pairs_examined": ("count", "deletion.similarity"),
    "deletion.pairs_examined_symbol": ("count", "deletion.similarity"),
    "deletion.pairs_examined_nucleotide": ("count", "deletion.similarity"),
    "deletion.pair_us": ("us", "deletion.similarity"),
    "deletion.early_exits": ("count", "deletion.similarity"),
    "deletion.dna_code_s": ("s", "deletion.dna_code"),
    "deletion.subcode_s": ("s", "deletion.subcode"),
    "deletion.pair_cap_exceeded": ("count", "deletion.similarity"),
    "deletion.pair_cap_exceeded_s": ("s", "deletion.similarity"),
    "cli.self_s": ("s", None),
}
