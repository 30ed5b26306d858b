"""Command-line behavior: output formats, exit codes, config handling."""

import gc
import itertools
import json
import subprocess
import sys
import weakref

import pytest

from dnacyclic import cli, codes
from dnacyclic.cli import (
    LENGTH6_CODE_TABLE,
    LENGTH18_CODE_TABLE,
    iter_catalog_specs,
    main,
)
from dnacyclic.codes import Code, CodeSpec, SpecError
from dnacyclic.polynomials import PolyR, PolyZ4, all_monic_divisors
from dnacyclic.ring import ALL_ELEMENTS

TABLES_GOLDEN = """\
codon correspondence
element  pair   codon
0        (0,0)  AA
u        (0,1)  AT
2u       (0,2)  AG
3u       (0,3)  AC
1        (1,0)  TA
1+u      (1,1)  TT
1+2u     (1,2)  TG
1+3u     (1,3)  TC
2        (2,0)  GA
2+u      (2,1)  GT
2+2u     (2,2)  GG
2+3u     (2,3)  GC
3        (3,0)  CA
3+u      (3,1)  CT
3+2u     (3,2)  CG
3+3u     (3,3)  CC

length-6 code: n=3, g1 = g2 = [1,1,1]
AAAAAA  TTTTTT  CCCCCC  GGGGGG
ATATAT  TATATA  CTCTCT  GAGAGA
AGAGAG  TCTCTC  CGCGCG  GCGCGC
ACACAC  TGTGTG  CACACA  GTGTGT

length-18 code: n=9, g1 = g2 = [1,1,1,1,1,1,1,1,1]
AAAAAAAAAAAAAAAAAA  TTTTTTTTTTTTTTTTTT
CCCCCCCCCCCCCCCCCC  GGGGGGGGGGGGGGGGGG
ATATATATATATATATAT  TATATATATATATATATA
CTCTCTCTCTCTCTCTCT  GAGAGAGAGAGAGAGAGA
AGAGAGAGAGAGAGAGAG  TCTCTCTCTCTCTCTCTC
CGCGCGCGCGCGCGCGCG  GCGCGCGCGCGCGCGCGC
ACACACACACACACACAC  TGTGTGTGTGTGTGTGTG
CACACACACACACACACA  GTGTGTGTGTGTGTGTGT
"""

N9_GEN = "[1,1,1,1,1,1,1,1,1]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- factor -------------------------------------------------------------------------


def test_factor_text_output(capsys):
    code, out, err = run(capsys, "factor", "3")
    assert code == 0 and err == ""
    assert out == (
        "n 3\n"
        "binary factors: [1,1], [1,1,1]\n"
        "z4 factors: [3,1], [1,1,1]\n"
        "z4 factors (power form): x + 3; x^2 + x + 1\n"
    )


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "9", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["z4_factors"] == ["[3,1]", "[1,1,1]", "[1,0,0,1,0,0,1]"]
    assert doc["mod2_factors"] == ["[1,1]", "[1,1,1]", "[1,0,0,1,0,0,1]"]
    assert doc["z4_factors_power_form"][2] == "x^6 + x^3 + 1"


def test_factor_rejects_even_length(capsys):
    code, _, err = run(capsys, "factor", "4")
    assert code == 2
    assert "odd" in err


# -- tables -------------------------------------------------------------------------


def test_tables_golden_output(capsys):
    code, out, err = run(capsys, "tables")
    assert code == 0 and err == ""
    assert out == TABLES_GOLDEN


def test_tables_json_matches_constants(capsys):
    code, out, _ = run(capsys, "tables", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["length6_code"] == [list(r) for r in LENGTH6_CODE_TABLE]
    assert doc["length18_code"] == [list(r) for r in LENGTH18_CODE_TABLE]
    assert len(doc["codon_correspondence"]) == 16
    assert doc["codon_correspondence"][9] == ["2+u", "(2,1)", "GT"]


# -- check --------------------------------------------------------------------------


def test_check_all_verdicts_true_exits_zero(capsys):
    code, out, _ = run(
        capsys,
        "check", "--n", "3", "--g1", "[1,1,1]", "--g2", "[1,1,1]",
        "--reversible", "--rc", "--gc", "--deletion",
    )
    assert code == 0
    assert "cardinality 16" in out
    assert "min_hamming_distance 3" in out
    assert "reversible brute_force=yes theorem_verdict=yes agreement=yes" in out
    assert "gc_spectrum theta 0:4 3:8 6:4" in out
    assert "deletion granularity=symbol" in out
    assert "deletion_distance=2" in out


def test_check_reduces_the_spec_rows_once_for_both_checkers(capsys, monkeypatch):
    # One Howell reduction sizes the spec, and the code is walked from the
    # same cached basis; the reversible and rc checkers share the size.
    reductions = []
    reduce = codes._howell_basis
    monkeypatch.setattr(
        codes, "_howell_basis", lambda rows, n: reductions.append(n) or reduce(rows, n)
    )
    code, out, _ = run(
        capsys, "check", "--n", "3", "--g1", "[1,1,1]", "--g2", "[1,1,1]",
        "--reversible", "--rc",
    )
    assert code == 0
    assert "reverse_complement brute_force=yes" in out
    assert reductions == [3]


def test_check_failing_verdict_exits_one(capsys):
    code, out, _ = run(capsys, "check", "--n", "3", "--g1", "[3,1]", "--rc")
    assert code == 1
    assert "reverse_complement brute_force=no" in out


def test_check_invalid_spec_exits_one(capsys):
    code, out, _ = run(capsys, "check", "--n", "4", "--g1", "[3,1]")
    assert code == 1
    assert "valid no" in out
    assert "problem:" in out


def test_check_strict_flag_tightens_validation(capsys):
    assert run(capsys, "check", "--n", "3", "--g1", "[1,1]")[0] == 0
    code, out, _ = run(capsys, "check", "--n", "3", "--g1", "[1,1]", "--strict")
    assert code == 1
    assert "over Z4" in out


def test_check_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "check", "--n", "3", "--g1", "[zz]")
    assert code == 2
    assert "cannot parse --g1" in err


def test_check_cap_exits_three(capsys):
    code, _, err = run(capsys, "check", "--n", "3", "--g1", "[1]", "--cap", "100")
    assert code == 3
    assert "cap" in err


def test_check_json_shape_and_determinism(capsys):
    args = (
        "check", "--n", "3", "--g1", "[3,0,0,1]", "--g2", "[3,0,0,1]",
        "--g3", "[1,1,1]", "--reversible", "--rc", "--deletion", "--gc", "--json",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["spec"]["g3"] == "[1,1,1]"
    assert doc["code"]["cardinality"] == 4
    assert doc["reversible"]["theorem_verdict"] is True
    assert doc["reverse_complement"]["conditions"]["complement_constant_in_code"] is True
    assert doc["deletion"]["similarity"]["deletion_distance"] == 2
    assert doc["deletion"]["subcode"]["equal"] is True
    # Images AAAAAA, TTTTTT, GGGGGG, CCCCCC: two strands at each extreme.
    assert doc["gc_spectrum"]["theta"] == {"0": 2, "6": 2}


def test_check_emit_words_matches_published_length18_table(capsys):
    code, out, _ = run(
        capsys,
        "check", "--n", "9", "--g1", N9_GEN, "--g2", N9_GEN,
        "--emit-words", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    words = doc["words"]
    assert len(words) == 16
    published = {s for row in LENGTH18_CODE_TABLE for s in row}
    assert {w["theta"] for w in words} == published


def test_check_nucleotide_granularity(capsys):
    code, out, _ = run(
        capsys,
        "check", "--n", "3", "--g1", "[1,1,1]", "--g2", "[1,1,1]",
        "--deletion", "--granularity", "nucleotide",
    )
    assert code == 0
    assert "granularity=nucleotide" in out
    assert "max_similarity=5" in out
    assert "deletion_distance=0" in out
    assert "achieving_pair ATATAT | TATATA" in out


def test_check_zero_code_deletion_unavailable(capsys):
    code, out, _ = run(capsys, "check", "--n", "3", "--g1", "[3,0,0,1]", "--deletion")
    assert code == 0
    assert "deletion unavailable" in out


# -- catalog ------------------------------------------------------------------------


def test_catalog_default_sweep(capsys):
    code, out, _ = run(capsys, "catalog", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "catalog n=3 specs=65 skipped=0"
    assert "best deletion distance by cardinality (symbol granularity):" in out
    assert "  4 words: D=2" in out
    assert "  16 words: D=2" in out


def test_catalog_is_deterministic(capsys):
    _, out1, _ = run(capsys, "catalog", "3", "--json")
    _, out2, _ = run(capsys, "catalog", "3", "--json")
    assert out1 == out2


def test_catalog_json_entries(capsys):
    code, out, _ = run(capsys, "catalog", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entry_count"] == 65
    assert doc["skipped_count"] == 0
    assert len(doc["entries"]) == 65
    # Entries come back in spec sort order; the first is the full code.
    assert doc["entries"][0]["spec"]["g1"] == "[1]"
    assert doc["entries"][0]["code"]["cardinality"] == 4096
    assert doc["best_deletion_distance_by_cardinality"]["4"][
        "deletion_distance_symbol"
    ] == 2


def test_catalog_specs_are_valid_by_construction():
    # iter_catalog_specs does not filter through validate, so every spec it
    # builds must already be valid, for the default and a widened family.
    for n in range(1, 16, 2):
        assert all(spec.validate() == [] for spec in iter_catalog_specs(n)), n
    widened = [PolyR(list(cs)) for cs in itertools.product(ALL_ELEMENTS, repeat=2)]
    specs = iter_catalog_specs(5, g2_family=widened)
    pairs = len(iter_catalog_specs(5)) // (len(all_monic_divisors(5)) + 1)
    assert len(specs) == 256 * pairs
    assert all(spec.validate() == [] for spec in specs)


def test_catalog_spec_count_matches_library_iterator(capsys):
    assert len(iter_catalog_specs(3)) == 65
    _, out, _ = run(capsys, "catalog", "3", "--json")
    assert json.loads(out)["entry_count"] == 65


def test_catalog_widened_g2_family(capsys):
    code, out, _ = run(
        capsys,
        "catalog", "3", "--g2-degree-bound", "1", "--g2-coeffs", "0,1,1+u", "--json",
    )
    assert code == 0
    assert json.loads(out)["entry_count"] == 117


@pytest.mark.parametrize(
    "argv",
    [
        ["3"],
        ["5", "--cap", "16384"],
        ["7", "--cap", "16384"],
        ["3", "--g2-degree-bound", "1", "--g2-coeffs", "0,1,1+u"],
    ],
)
def test_catalog_memo_matches_a_fresh_analysis_per_spec(monkeypatch, argv):
    # The catalog analyses each distinct code once and reuses its fields for
    # every later spec of that code; the entries must equal those built with
    # an empty memo for each spec.
    args = cli.build_parser().parse_args(["catalog", *argv])
    caps = cli.load_caps(None, args)
    analysed = []
    fields = cli._code_fields
    monkeypatch.setattr(
        cli, "_code_fields", lambda code, caps: analysed.append(code) or fields(code, caps)
    )
    doc, _ = cli.cmd_catalog(args, caps)
    memo_calls = len(analysed)
    specs = iter_catalog_specs(
        args.n, g2_family=cli._widened_g2_family(args, caps.enumeration_cap)
    )
    assert doc["entries"] == [cli._catalog_entry(spec, caps, {}) for spec in specs]
    enumerated = len(analysed) - memo_calls
    assert memo_calls == len(set(analysed[:memo_calls])) < enumerated
    assert enumerated == sum("skipped" not in entry for entry in doc["entries"])


def test_catalog_widening_flags_must_be_paired(capsys):
    code, _, err = run(capsys, "catalog", "3", "--g2-degree-bound", "1")
    assert code == 2
    assert "together" in err


def test_catalog_pair_cap_marks_entries_instead_of_failing(capsys):
    code, out, _ = run(capsys, "catalog", "3", "--pair-cap", "10", "--json")
    assert code == 0
    doc = json.loads(out)
    marked = [
        e for e in doc["entries"]
        if isinstance(e.get("deletion_distance_symbol"), str)
    ]
    assert marked and all(
        "skipped" in e["deletion_distance_symbol"] for e in marked
    )


def test_catalog_widened_g2_family_over_the_cap_exits_three(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the refused family was built")

    monkeypatch.setattr(cli.itertools, "product", never)
    code, out, err = run(
        capsys,
        "catalog", "3", "--g2-degree-bound", str(10**12), "--g2-coeffs", "0,1",
    )
    assert (code, out) == (3, "")
    assert f"2^{10**12 + 1} polynomials exceeds the 1048576 enumeration cap" in err


def test_catalog_widened_g2_family_cap_counts_distinct_coefficients(capsys):
    # 3 distinct coefficients at degree <= 1 make 9 polynomials.
    widen = ("--g2-degree-bound", "1", "--g2-coeffs", "0,1,1+u,1", "--json")
    code, out, _ = run(capsys, "catalog", "3", *widen, "--cap", "9")
    assert code == 0
    assert json.loads(out)["entry_count"] == 117
    code, out, err = run(capsys, "catalog", "3", *widen, "--cap", "8")
    assert (code, out) == (3, "")
    assert "3^2 polynomials exceeds the 8 enumeration cap" in err


# -- config files --------------------------------------------------------------------


def test_config_file_sets_caps(capsys, tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("# limits\nenumeration_cap = 100\npair_cap = 250000\n")
    code, _, err = run(capsys, "check", "--n", "3", "--g1", "[1]", "--config", str(cfg))
    assert code == 3
    assert "cap" in err


def test_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("enumeration_cap = 100\n")
    code, _, _ = run(
        capsys,
        "check", "--n", "3", "--g1", "[1]", "--config", str(cfg), "--cap", "5000",
    )
    assert code == 0


def test_config_max_n(capsys, tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("max_n = 7\n")
    code, _, err = run(
        capsys, "check", "--n", "9", "--g1", N9_GEN, "--config", str(cfg)
    )
    assert code == 3
    assert "max_n" in err


@pytest.mark.parametrize(
    "key, flags, config_line",
    [
        ("enumeration_cap", ["--cap", "0"], None),
        ("pair_cap", ["--pair-cap", "-5"], None),
        ("max_n", ["--max-n", "0"], None),
        ("enumeration_cap", [], "enumeration_cap = 0"),
        ("pair_cap", [], "pair_cap = 0"),
        ("max_n", [], "max_n = -1"),
    ],
)
def test_caps_below_one_exit_two(capsys, tmp_path, key, flags, config_line):
    argv = ["check", "--n", "3", "--g1", "[1,1,1]", "--deletion", *flags]
    if config_line is not None:
        cfg = tmp_path / "caps.conf"
        cfg.write_text(config_line + "\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{key} must be at least 1" in err


def test_config_unknown_key_exits_two(capsys, tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("bogus = 1\n")
    code, _, err = run(capsys, "factor", "3", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_config_bad_value_and_missing_file(capsys, tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("pair_cap = soon\n")
    code, _, err = run(capsys, "factor", "3", "--config", str(cfg))
    assert code == 2
    assert "integer" in err
    code, _, err = run(capsys, "factor", "3", "--config", str(tmp_path / "nope.conf"))
    assert code == 2
    for argv in (["--config", str(cfg)], ["--config", str(tmp_path / "nope.conf")]):
        code, out, err = run(capsys, "tables", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_config_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("just some words\n")
    code, _, err = run(capsys, "factor", "3", "--config", str(cfg))
    assert code == 2
    assert "key = value" in err


# -- argparse-level usage errors -------------------------------------------------------


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--g1", "[3,1]"])  # no --n
    assert excinfo.value.code == 2


# -- exit codes ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["factor", "-1"], "n must be odd and positive, got -1"),
        (["catalog", "4"], "n must be odd and positive, got 4"),
        (["catalog", "0"], "n must be odd and positive, got 0"),
        (["check", "--n", "3", "--g1", "[1"], "cannot parse --g1"),
        (["check", "--n", "3", "--g1", "[1]", "--g2", "[v]"], "cannot parse --g2"),
        (["check", "--n", "3", "--g1", "[1]", "--g3", "x"], "cannot parse --g3"),
        (["catalog", "3", "--g2-coeffs", "0"], "must be given together"),
        (["catalog", "3", "--g2-degree-bound", "1", "--g2-coeffs", "0,v"],
         "cannot parse --g2-coeffs"),
        (["catalog", "3", "--g2-degree-bound", "-1", "--g2-coeffs", "0"],
         "--g2-degree-bound must be >= 0"),
        (["tables", "--cap", "0"], "enumeration_cap must be at least 1"),
        (["tables", "--pair-cap", "0"], "pair_cap must be at least 1"),
        (["tables", "--max-n", "-1"], "max_n must be at least 1"),
    ],
)
def test_user_input_errors_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, n, max_n",
    [
        (["factor", "33"], 33, 31),
        (["factor", "9", "--max-n", "7"], 9, 7),
        (["catalog", "33"], 33, 31),
        (["catalog", "9", "--max-n", "7"], 9, 7),
        (["check", "--n", "33", "--g1", "[1]"], 33, 31),
    ],
)
def test_n_above_max_n_exits_three(capsys, argv, n, max_n):
    # The configured bound on n is a resource cap for every subcommand.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        f"resource cap exceeded: n = {n} exceeds the configured max_n = {max_n}\n"
    )


def test_subcode_comparison_errors_exit_four(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("subcode bug")

    monkeypatch.setattr(cli, "subcode_deletion_distance_check", broken)
    code, out, err = run(
        capsys, "check", "--n", "3", "--g1", "[1,1,1]", "--g2", "[1,1,1]", "--deletion"
    )
    assert (code, out, err) == (4, "", "internal error: ValueError('subcode bug')\n")


@pytest.mark.parametrize(
    "exc, exit_code, message",
    [
        (ValueError("boom\nsecond line"), 4,
         "internal error: ValueError('boom\\nsecond line')\n"),
        (KeyError("k"), 4, "internal error: KeyError('k')\n"),
        (ZeroDivisionError("z"), 4, "internal error: ZeroDivisionError('z')\n"),
        (SpecError("bad spec"), 2, "error: bad spec\n"),
    ],
)
def test_injected_errors_keep_their_exit_codes(capsys, monkeypatch, exc, exit_code,
                                               message):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "gc_spectrum", broken)
    code, out, err = run(capsys, "check", "--n", "3", "--g1", "[1,1,1]", "--gc")
    assert (code, out, err) == (exit_code, "", message)


def test_refused_condition_report_keeps_no_code_alive():
    # The returned SpecError carries no traceback, so no frame of the checker
    # holds the code once the caller lets it go; without the cyclic collector
    # the code is freed at once.
    g1, g2 = PolyZ4.from_string("[3,1]"), PolyR.from_string("[1,1,1]")
    spec = CodeSpec(n=3, g1=g1, g2=g2)
    code = Code.from_spec(spec)
    alive = weakref.ref(code)
    gc.disable()
    try:
        error = cli._condition_report(spec, code, "reversible")
        del code
        assert isinstance(error, SpecError)
        assert alive() is None
    finally:
        gc.enable()


# -- installed entry point --------------------------------------------------------------


def test_console_script_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dnacyclic.cli", "factor", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "z4 factors: [3,1], [1,1,1]" in proc.stdout
