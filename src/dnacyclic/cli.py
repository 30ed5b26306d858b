"""Command-line interface.

Subcommands:
  factor   factor x^n - 1 mod 2 and over Z4
  check    validate a spec, enumerate its code, run requested analyses
  catalog  sweep all specs for one n over the divisor lattice
  tables   print the codon correspondence and the two worked code tables

Each subcommand builds one document; ``main`` prints it as JSON under --json
and otherwise prints the subcommand's text renderer applied to it.

Exit codes: 0 success (and every requested verdict true), 1 a requested
verdict is false or the spec is invalid, 2 usage or parse error, 3 a
configured resource cap was exceeded, 4 an internal error (a bug).

Config files are plain "key = value" lines (# comments allowed) with keys
max_n, enumeration_cap, pair_cap; explicit command-line options win over the
config file, which wins over the defaults.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass

from .codes import (
    Code,
    CodeSpec,
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    SpecError,
)
from .constraints import (
    gc_spectrum,
    reverse_complement_check,
    reversible_check,
    theta_image,
    phi_image,
)
from .deletion import (
    DEFAULT_PAIR_CAP,
    PairCapExceeded,
    code_similarity_report,
    dna_code_report,
    subcode_deletion_distance_check,
)
from .polynomials import (
    MAX_N_DEFAULT,
    PolyR,
    PolyZ4,
    all_monic_divisors,
    check_n,
    factor_xn_minus_1_mod2,
    factor_xn_minus_1_z4,
)
from .ring import ALL_ELEMENTS, RingElement, THETA_TABLE


class CliParseError(ValueError):
    """Bad user input that is not an argparse-level usage error."""


# The two worked code tables, in their published grid layout.  The length-6
# table is the theta image of the n=3 code with g1 = g2 = [1,1,1]; the
# length-18 table is the n=9 code with g1 = g2 = [1,1,1,1,1,1,1,1,1].
LENGTH6_CODE_TABLE = (
    ("AAAAAA", "TTTTTT", "CCCCCC", "GGGGGG"),
    ("ATATAT", "TATATA", "CTCTCT", "GAGAGA"),
    ("AGAGAG", "TCTCTC", "CGCGCG", "GCGCGC"),
    ("ACACAC", "TGTGTG", "CACACA", "GTGTGT"),
)
LENGTH18_CODE_TABLE = (
    ("AAAAAAAAAAAAAAAAAA", "TTTTTTTTTTTTTTTTTT"),
    ("CCCCCCCCCCCCCCCCCC", "GGGGGGGGGGGGGGGGGG"),
    ("ATATATATATATATATAT", "TATATATATATATATATA"),
    ("CTCTCTCTCTCTCTCTCT", "GAGAGAGAGAGAGAGAGA"),
    ("AGAGAGAGAGAGAGAGAG", "TCTCTCTCTCTCTCTCTC"),
    ("CGCGCGCGCGCGCGCGCG", "GCGCGCGCGCGCGCGCGC"),
    ("ACACACACACACACACAC", "TGTGTGTGTGTGTGTGTG"),
    ("CACACACACACACACACA", "GTGTGTGTGTGTGTGTGT"),
)


@dataclass
class Caps:
    max_n: int = MAX_N_DEFAULT
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    pair_cap: int = DEFAULT_PAIR_CAP


def load_caps(config_path: "str | None", args: argparse.Namespace) -> Caps:
    caps = Caps()
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise CliParseError(f"cannot read config file: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliParseError(
                    f"{config_path}:{lineno}: expected key = value, got {raw.rstrip()!r}"
                )
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in ("max_n", "enumeration_cap", "pair_cap"):
                raise CliParseError(f"{config_path}:{lineno}: unknown key {key!r}")
            try:
                setattr(caps, key, int(value))
            except ValueError as exc:
                raise CliParseError(
                    f"{config_path}:{lineno}: {key} needs an integer, got {value!r}"
                ) from exc
    for key in ("max_n", "enumeration_cap", "pair_cap"):
        override = getattr(args, key, None)
        if override is not None:
            setattr(caps, key, override)
        if getattr(caps, key) < 1:
            raise CliParseError(f"{key} must be at least 1, got {getattr(caps, key)}")
    return caps


def _parse_poly(cls, text: str, what: str):
    try:
        return cls.from_string(text)
    except ValueError as exc:
        raise CliParseError(f"cannot parse {what}: {exc}") from exc


def _require_n_within_max(n: int, max_n: int) -> None:
    """n above the configured max_n is a resource cap (exit 3)."""
    if n > max_n:
        raise EnumerationCapExceeded(f"n = {n} exceeds the configured max_n = {max_n}")


def _require_valid_n(n: int, max_n: int) -> None:
    """Refuse n above max_n (exit 3), then an even or non-positive n (exit 2)."""
    _require_n_within_max(n, max_n)
    try:
        check_n(n, max_n)
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc


# The verdicts of a condition report that both check and catalog show.
_VERDICTS = ("brute_force", "theorem_verdict", "agreement")


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _condition_report(spec: CodeSpec, code: Code, name: str):
    """The reversible or reverse_complement checker's report on the code, or
    the SpecError with which it refused the spec."""
    checker = reversible_check if name == "reversible" else reverse_complement_check
    try:
        return checker(spec, code=code)
    except SpecError as exc:
        # Without its traceback the error keeps no frame, and no code, alive.
        return exc.with_traceback(None)


def _similarity(code: Code, granularity: str, caps: Caps):
    """The code's similarity report, or None for a code of fewer than 2
    words.  PairCapExceeded propagates."""
    if code.cardinality < 2:
        return None
    return code_similarity_report(code, granularity, pair_cap=caps.pair_cap)


# -- factor ---------------------------------------------------------------------


def cmd_factor(args: argparse.Namespace, caps: Caps) -> "tuple[dict, int]":
    _require_valid_n(args.n, caps.max_n)
    mod2 = factor_xn_minus_1_mod2(args.n, max_n=caps.max_n)
    z4 = factor_xn_minus_1_z4(args.n, max_n=caps.max_n)
    return {
        "command": "factor",
        "n": args.n,
        "mod2_factors": [str(f) for f in mod2],
        "z4_factors": [str(f) for f in z4],
        "z4_factors_power_form": [f.to_power_str() for f in z4],
    }, 0


def _factor_lines(doc: dict) -> "list[str]":
    return [
        f"n {doc['n']}",
        "binary factors: " + ", ".join(doc["mod2_factors"]),
        "z4 factors: " + ", ".join(doc["z4_factors"]),
        "z4 factors (power form): " + "; ".join(doc["z4_factors_power_form"]),
    ]


# -- check ----------------------------------------------------------------------


def cmd_check(args: argparse.Namespace, caps: Caps) -> "tuple[dict, int]":
    _require_n_within_max(args.n, caps.max_n)
    spec = CodeSpec(
        n=args.n,
        g1=_parse_poly(PolyZ4, args.g1, "--g1"),
        g2=_parse_poly(PolyR, args.g2, "--g2"),
        g3=None if args.g3 is None else _parse_poly(PolyZ4, args.g3, "--g3"),
        strict_z4_divisibility=args.strict,
    )
    problems = spec.validate()
    doc: dict = {
        "command": "check",
        "spec": spec.describe(),
        "valid": not problems,
        "validation_errors": problems,
    }
    if problems:
        return doc, 1
    exit_code = 0
    code = Code.from_spec(spec, cap=caps.enumeration_cap)
    doc["code"] = code.describe()
    requested = (("reversible", args.reversible), ("reverse_complement", args.rc))
    for name in [name for name, on in requested if on]:
        report = _condition_report(spec, code, name)
        refused = isinstance(report, SpecError)
        doc[name] = {"error": str(report)} if refused else report.describe()
        if refused or not report.brute_force:
            exit_code = 1
    if args.gc:
        doc["gc_spectrum"] = {"theta": gc_spectrum(code)}
    if args.deletion:
        report = _similarity(code, args.granularity, caps)
        if report is None:
            doc["deletion"] = {"error": "deletion metrics need at least 2 codewords"}
        else:
            doc["deletion"] = {
                "similarity": report.describe(),
                "dna_code": dna_code_report(
                    code,
                    report.deletion_distance,
                    args.granularity,
                    pair_cap=caps.pair_cap,
                    similarity=report,
                ).describe(),
                "subcode": subcode_deletion_distance_check(
                    code, args.granularity, pair_cap=caps.pair_cap, similarity=report
                ).describe(),
            }
    if args.emit_words:
        doc["words"] = [
            {
                "word": ",".join(str(e) for e in w),
                "theta": theta_image(w),
                "phi": phi_image(w),
            }
            for w in code.codewords
        ]
    return doc, exit_code


def _check_lines(doc: dict) -> "list[str]":
    spec = doc["spec"]
    lines = [
        f"spec n={spec['n']} g1={spec['g1']} g2={spec['g2']} g3={spec['g3'] or '-'}",
        f"valid {_yn(doc['valid'])}",
    ]
    lines += [f"  problem: {p}" for p in doc["validation_errors"]]
    if "code" not in doc:
        return lines
    code = doc["code"]
    dist = code["min_hamming_distance"]
    lines += [
        f"cardinality {code['cardinality']}",
        "min_hamming_distance "
        + ("undefined (zero code)" if dist is None else str(dist)),
        "weight_enumerator ["
        + ",".join(str(c) for c in code["weight_enumerator"])
        + "]",
    ]
    for name in ("reversible", "reverse_complement"):
        report = doc.get(name, {})
        if "error" in report:
            lines.append(f"{name} error: {report['error']}")
        elif report:
            lines.append(
                " ".join([name] + [f"{k}={_yn(report[k])}" for k in _VERDICTS])
            )
            lines += [f"  {c} {_yn(v)}" for c, v in report["conditions"].items()]
    if "gc_spectrum" in doc:
        lines.append(
            "gc_spectrum theta "
            + " ".join(f"{k}:{v}" for k, v in doc["gc_spectrum"]["theta"].items())
        )
    section = doc.get("deletion", {})
    if "error" in section:
        lines.append("deletion unavailable: needs at least 2 codewords")
    elif section:
        sim, dna, sub = section["similarity"], section["dna_code"], section["subcode"]
        lines += [
            f"deletion granularity={sim['granularity']} "
            f"sequence_length={sim['sequence_length']} "
            f"max_similarity={sim['max_similarity']} "
            f"deletion_distance={sim['deletion_distance']}",
            f"  achieving_pair {sim['achieving_pair'][0]} | {sim['achieving_pair'][1]}",
            f"dna_code required_distance={dna['required_distance']} "
            f"closed={_yn(dna['closed_under_module_ops'])} "
            f"rc_no_fixed_points={_yn(dna['rc_closed_without_fixed_points'])} "
            f"similarity_bound={_yn(dna['similarity_within_bound'])} "
            f"verdict={_yn(dna['is_dna_code'])}",
            f"subcode_deletion code_distance={sub['code_distance']} "
            f"subcode_distance={sub['subcode_distance']} "
            f"subcode_words={sub['subcode_cardinality']} equal={_yn(sub['equal'])}",
        ]
    if "words" in doc:
        lines.append("words")
        lines += [
            f"  word {w['word']} theta {w['theta']} phi {w['phi']}"
            for w in doc["words"]
        ]
    return lines


# -- catalog ---------------------------------------------------------------------


def _dedupe_polys(family: "list[PolyR]") -> "list[PolyR]":
    unique = {g2.coeffs: g2 for g2 in family}
    return [
        unique[k]
        for k in sorted(unique, key=lambda cs: (len(cs), [c.pair for c in cs]))
    ]


def _widened_g2_family(args, cap: int) -> "list[PolyR] | None":
    """The g2 family of --g2-degree-bound and --g2-coeffs, or None when
    neither is given.  Refused before any polynomial is built when it holds
    more than ``cap`` polynomials."""
    if (args.g2_degree_bound is None) != (args.g2_coeffs is None):
        raise CliParseError(
            "--g2-degree-bound and --g2-coeffs must be given together"
        )
    if args.g2_degree_bound is None:
        return None
    try:
        coeffs = [RingElement.from_string(t) for t in args.g2_coeffs.split(",")]
    except ValueError as exc:
        raise CliParseError(f"cannot parse --g2-coeffs: {exc}") from exc
    if args.g2_degree_bound < 0:
        raise CliParseError("--g2-degree-bound must be >= 0")
    coeffs = list(dict.fromkeys(coeffs))
    length = args.g2_degree_bound + 1
    # Distinct coefficient tuples of one length are distinct polynomials, so
    # the family has len(coeffs)**length members.  An exponent past the
    # cap's bit length already exceeds the cap, so the power stays small.
    if len(coeffs) ** min(length, cap.bit_length() + 1) > cap:
        raise EnumerationCapExceeded(
            f"the g2 family of {len(coeffs)}^{length} polynomials exceeds "
            f"the {cap} enumeration cap"
        )
    return _dedupe_polys(
        [PolyR(list(p)) for p in itertools.product(coeffs, repeat=length)]
    )


def iter_catalog_specs(n: int, g2_family=None, max_n: int = MAX_N_DEFAULT):
    """All specs for length n, each valid by construction: g1 over the
    divisor lattice, g3 absent or a lattice divisor of g1, g2 from
    ``g2_family`` (default {0} + all divisors, which holds every g1).
    Deterministic order."""
    divisors = all_monic_divisors(n, max_n=max_n)
    if g2_family is None:
        g2_family = [PolyR()] + [d.to_ring_poly() for d in divisors]
    specs = [
        CodeSpec(n=n, g1=g1, g2=g2, g3=g3)
        for g1 in divisors
        for g3 in [None] + [d for d in divisors if d.divides_mod2(g1)]
        for g2 in g2_family
    ]
    specs.sort(key=CodeSpec.sort_key)
    return specs


def _code_fields(code: Code, caps: Caps) -> dict:
    """The entry fields after the condition reports, which depend on the
    code alone: the GC spectrum and both deletion distances."""
    fields = {"gc_spectrum": gc_spectrum(code)}
    for granularity in ("symbol", "nucleotide"):
        key = f"deletion_distance_{granularity}"
        try:
            report = _similarity(code, granularity, caps)
        except PairCapExceeded as exc:
            fields[key] = f"skipped: {exc}"
        else:
            fields[key] = None if report is None else report.deletion_distance
    return fields


def _catalog_entry(spec: CodeSpec, caps: Caps, memo: dict) -> dict:
    """One catalog entry; its code is freed before the next spec's is built.

    memo maps a size to (generator words, describe(), _code_fields) of each
    distinct code so far.  A code holding a stored code's generator words
    contains it, and equals it if as large, so each code is analysed once
    and the entries of one code share those field objects.
    """
    entry: dict = {"spec": spec.describe()}
    try:
        code = Code.from_spec(spec, cap=caps.enumeration_cap)
    except EnumerationCapExceeded as exc:
        entry["skipped"] = str(exc)
        return entry
    seen = memo.setdefault(code.cardinality, [])
    for gens, described, fields in seen:
        if all(g in code for g in gens):
            break
    else:
        described, fields = code.describe(), _code_fields(code, caps)
        seen.append((spec.generator_words, described, fields))
    entry["code"] = described
    for name in ("reversible", "reverse_complement"):
        report = _condition_report(spec, code, name)
        if isinstance(report, SpecError):
            entry[name] = {"error": str(report)}
        else:
            entry[name] = {k: getattr(report, k) for k in _VERDICTS}
    entry.update(fields)
    return entry


def cmd_catalog(args: argparse.Namespace, caps: Caps) -> "tuple[dict, int]":
    _require_valid_n(args.n, caps.max_n)
    family = _widened_g2_family(args, caps.enumeration_cap)
    specs = iter_catalog_specs(args.n, g2_family=family, max_n=caps.max_n)
    memo: dict = {}
    entries = [_catalog_entry(spec, caps, memo) for spec in specs]

    # The first entry of greatest symbol D among those of each cardinality.
    best: dict[int, dict] = {}
    for entry in entries:
        d = entry.get("deletion_distance_symbol")
        if not isinstance(d, int):
            continue
        size = entry["code"]["cardinality"]
        if size not in best or d > best[size]["deletion_distance_symbol"]:
            best[size] = {"deletion_distance_symbol": d, "spec": entry["spec"]}
    return {
        "command": "catalog",
        "n": args.n,
        "entry_count": len(entries),
        "skipped_count": sum("skipped" in entry for entry in entries),
        "entries": entries,
        "best_deletion_distance_by_cardinality": {
            str(size): best[size] for size in sorted(best)
        },
    }, 0


def _spec_head(spec: dict) -> str:
    return f"g1={spec['g1']} g3={spec['g3'] or '-'} g2={spec['g2']}"


def _catalog_lines(doc: dict) -> "list[str]":
    lines = [
        f"catalog n={doc['n']} specs={doc['entry_count']} "
        f"skipped={doc['skipped_count']}"
    ]
    for entry in doc["entries"]:
        head = _spec_head(entry["spec"])
        if "skipped" in entry:
            lines.append(f"{head} skipped ({entry['skipped']})")
            continue
        rev = entry["reversible"]
        rc = entry["reverse_complement"]
        rev_s = "err" if "error" in rev else _yn(rev["brute_force"])
        rc_s = "err" if "error" in rc else _yn(rc["brute_force"])
        gc = ",".join(f"{k}:{v}" for k, v in entry["gc_spectrum"].items())
        lines.append(
            f"{head} words={entry['code']['cardinality']} "
            f"dmin={entry['code']['min_hamming_distance']} "
            f"reversible={rev_s} rc={rc_s} "
            f"D_symbol={entry['deletion_distance_symbol']} "
            f"D_nucleotide={entry['deletion_distance_nucleotide']} "
            f"gc={gc}"
        )
    lines.append("best deletion distance by cardinality (symbol granularity):")
    for size, info in doc["best_deletion_distance_by_cardinality"].items():
        lines.append(
            f"  {size} words: D={info['deletion_distance_symbol']} "
            f"({_spec_head(info['spec'])})"
        )
    return lines


# -- tables ----------------------------------------------------------------------


def cmd_tables(args: argparse.Namespace, caps: Caps) -> "tuple[dict, int]":
    return {
        "command": "tables",
        "codon_correspondence": [
            [str(e), f"({e.a},{e.b})", THETA_TABLE[(e.a, e.b)]] for e in ALL_ELEMENTS
        ],
        "length6_code": [list(row) for row in LENGTH6_CODE_TABLE],
        "length18_code": [list(row) for row in LENGTH18_CODE_TABLE],
    }, 0


def _tables_lines(doc: dict) -> "list[str]":
    lines = ["codon correspondence", "element  pair   codon"]
    lines += [
        f"{element:<8} {pair:<6} {codon}"
        for element, pair, codon in doc["codon_correspondence"]
    ]
    lines += ["", "length-6 code: n=3, g1 = g2 = [1,1,1]"]
    lines += ["  ".join(row) for row in doc["length6_code"]]
    lines += ["", "length-18 code: n=9, g1 = g2 = [1,1,1,1,1,1,1,1,1]"]
    lines += ["  ".join(row) for row in doc["length18_code"]]
    return lines


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnacyclic",
        description="Cyclic DNA codes of odd length over Z4 + u*Z4, u^2 = 1.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    common.add_argument("--config", metavar="FILE", help="key = value cap settings")
    common.add_argument("--max-n", dest="max_n", type=int, help="override the n bound")
    common.add_argument(
        "--cap",
        dest="enumeration_cap",
        type=int,
        help="override the enumeration word cap",
    )
    common.add_argument(
        "--pair-cap",
        dest="pair_cap",
        type=int,
        help="override the pairwise-similarity cap",
    )

    p_factor = sub.add_parser(
        "factor", parents=[common], help="factor x^n - 1 mod 2 and over Z4"
    )
    p_factor.add_argument("n", type=int)
    p_factor.set_defaults(func=cmd_factor, render=_factor_lines)

    p_check = sub.add_parser(
        "check", parents=[common], help="analyze one code spec"
    )
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--g1", required=True, metavar="POLY")
    p_check.add_argument("--g2", default="[]", metavar="POLY")
    p_check.add_argument("--g3", default=None, metavar="POLY")
    p_check.add_argument(
        "--strict", action="store_true", help="require divisibility over Z4, not just mod 2"
    )
    p_check.add_argument("--reversible", action="store_true")
    p_check.add_argument("--rc", action="store_true", help="reverse-complement closure")
    p_check.add_argument("--deletion", action="store_true")
    p_check.add_argument("--gc", action="store_true", help="GC-content spectrum")
    p_check.add_argument(
        "--granularity", choices=("symbol", "nucleotide"), default="symbol"
    )
    p_check.add_argument("--emit-words", action="store_true")
    p_check.set_defaults(func=cmd_check, render=_check_lines)

    p_catalog = sub.add_parser(
        "catalog", parents=[common], help="sweep all specs for one length"
    )
    p_catalog.add_argument("n", type=int)
    p_catalog.add_argument("--g2-degree-bound", type=int, default=None)
    p_catalog.add_argument(
        "--g2-coeffs",
        default=None,
        metavar="LIST",
        help="comma-separated ring elements for the widened g2 family",
    )
    p_catalog.set_defaults(func=cmd_catalog, render=_catalog_lines)

    p_tables = sub.add_parser(
        "tables", parents=[common], help="print the published-layout tables"
    )
    p_tables.set_defaults(func=cmd_tables, render=_tables_lines)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, exit_code = args.func(args, load_caps(args.config, args))
        text = json.dumps(doc, indent=2) if args.json else "\n".join(args.render(doc))
        print(text)
        # Flush inside the try so a reader that went away (e.g. a closed
        # pipe) surfaces here instead of at interpreter shutdown.
        sys.stdout.flush()
        return exit_code
    except (CliParseError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationCapExceeded, PairCapExceeded) as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # Reader went away (e.g. piped into head); suppress the traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        # Anything else is a bug; keep it apart from the user-facing codes.
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
