"""LCS similarity, deletion distance, and the DNA-code predicate."""

import itertools
import random

import pytest

from dnacyclic.codes import Code, CodeSpec, reverse_complement_packed
from dnacyclic.constraints import dna_reverse_complement, theta_image
from dnacyclic.deletion import (
    DEFAULT_PAIR_CAP,
    GRANULARITIES,
    PairCapExceeded,
    code_similarity_report,
    deletion_similarity,
    dna_code_report,
    hybridization_energy,
    lcs_length,
    subcode_deletion_distance_check,
)
from dnacyclic.polynomials import PolyR, PolyZ4


def spec_from(n, g1, g2="[]", g3=None):
    return CodeSpec(
        n=n,
        g1=PolyZ4.from_string(g1),
        g2=PolyR.from_string(g2),
        g3=None if g3 is None else PolyZ4.from_string(g3),
    )


# -- LCS ----------------------------------------------------------------------------


def test_lcs_length_examples():
    assert lcs_length("TCAGG", "TACGT") == 3
    assert lcs_length("", "GATTACA") == 0
    assert lcs_length("AAAA", "AAAA") == 4
    assert lcs_length("ATAT", "TATA") == 3
    assert lcs_length("AGC", "GCA") == 2


def test_lcs_is_symmetric_and_bounded():
    rng = random.Random(37)
    for _ in range(200):
        x = "".join(rng.choice("ATGC") for _ in range(rng.randrange(8)))
        y = "".join(rng.choice("ATGC") for _ in range(rng.randrange(8)))
        s = lcs_length(x, y)
        assert s == lcs_length(y, x)
        assert 0 <= s <= min(len(x), len(y))
        assert lcs_length(x, x) == len(x)


def test_lcs_works_on_ring_words():
    from dnacyclic.ring import RingElement

    a, b = RingElement(1, 0), RingElement(0, 1)
    assert lcs_length((a, b, a), (b, a, b)) == 2


def test_deletion_similarity_alias():
    assert deletion_similarity("TCAGG", "TACGT") == lcs_length("TCAGG", "TACGT")


def test_hybridization_energy_uses_reverse_complement():
    # Perfect annealing: a strand against its own reverse complement.
    assert hybridization_energy("ATGC", dna_reverse_complement("ATGC")) == 4
    assert hybridization_energy("AAAA", "TTTT") == 4
    assert hybridization_energy("AAAA", "AAAA") == 0
    assert hybridization_energy("TCAGG", "ACGTA") == deletion_similarity(
        "TCAGG", dna_reverse_complement("ACGTA")
    )


# -- code-level reports --------------------------------------------------------------


def test_symbol_similarity_of_constant_vector_code():
    # Distinct constant vectors share no coordinate, so max S = 0 and
    # D = 3 - 1 - 0 = 2.
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    report = code_similarity_report(code, "symbol")
    assert report.granularity == "symbol"
    assert report.sequence_length == 3
    assert report.max_similarity == 0
    assert report.deletion_distance == 2
    assert report.pairs_examined == 16 * 15 // 2


def test_nucleotide_similarity_of_constant_vector_code():
    # Codon images like ATATAT / TATATA overlap in 5 of 6 letters, so the
    # nucleotide-level distance collapses to 0.
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    report = code_similarity_report(code, "nucleotide")
    assert report.sequence_length == 6
    assert report.max_similarity == 5
    assert report.deletion_distance == 0
    assert set(report.achieving_pair) == {"ATATAT", "TATATA"}


def test_achieving_pair_is_deterministic_and_attains_maximum():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    first = code_similarity_report(code, "nucleotide")
    second = code_similarity_report(code, "nucleotide")
    assert first.achieving_pair == second.achieving_pair
    x, y = first.achieving_pair
    assert lcs_length(x, y) == first.max_similarity


def test_length_nine_symbol_distance():
    g = "[1,1,1,1,1,1,1,1,1]"
    code = Code.from_spec(spec_from(9, g, g2=g))
    report = code_similarity_report(code, "symbol")
    assert report.sequence_length == 9
    assert report.max_similarity == 0
    assert report.deletion_distance == 8


def test_pair_generator_example_distance():
    code = Code.from_spec(spec_from(3, "[3,0,0,1]", g2="[3,0,0,1]", g3="[1,1,1]"))
    report = code_similarity_report(code, "symbol")
    assert report.max_similarity == 0
    assert report.deletion_distance == 2


def test_similarity_needs_two_words():
    code = Code.from_spec(spec_from(3, "[3,0,0,1]"))  # zero code
    with pytest.raises(ValueError):
        code_similarity_report(code, "symbol")


def test_bad_granularity_rejected():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    with pytest.raises(ValueError):
        code_similarity_report(code, "codon")
    assert GRANULARITIES == ("symbol", "nucleotide")


def test_pair_cap():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    with pytest.raises(PairCapExceeded):
        code_similarity_report(code, "symbol", pair_cap=10)
    assert DEFAULT_PAIR_CAP == 250_000


# -- DNA-code predicate ---------------------------------------------------------------


def test_dna_code_predicate_at_symbol_granularity():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    report = dna_code_report(code, 2, "symbol")
    assert report.closed_under_module_ops
    assert report.rc_closed_without_fixed_points
    assert report.similarity_within_bound  # max S = 0 <= 3 - 2 - 1
    assert report.is_dna_code
    # Demanding one more deleted symbol breaks the bound.
    assert not dna_code_report(code, 3, "symbol").similarity_within_bound


def test_dna_code_predicate_fails_at_nucleotide_granularity():
    # Even-length theta images admit reverse-complement fixed points
    # (ATATAT is its own), so the no-fixed-point condition fails.
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    images = {theta_image(w) for w in code.codewords}
    assert dna_reverse_complement("ATATAT") == "ATATAT"
    assert "ATATAT" in images
    report = dna_code_report(code, 0, "nucleotide")
    assert report.closed_under_module_ops
    assert not report.rc_closed_without_fixed_points
    assert not report.is_dna_code


def test_dna_code_predicate_needs_rc_closure():
    # <x+3> is reversible but misses reverse complements entirely.
    code = Code.from_spec(spec_from(3, "[3,1]"))
    report = dna_code_report(code, 0, "symbol")
    assert report.closed_under_module_ops
    assert not report.rc_closed_without_fixed_points
    assert not report.is_dna_code


def test_dna_code_predicate_needs_module_closure():
    # Dropping a word and its reverse complement keeps rc closure and the
    # similarity bound but breaks additive closure: no longer an ideal.
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    w = code.packed[1]
    rc = reverse_complement_packed(w, 3)
    assert 0 not in (w, rc) and rc != w
    subset = Code(3, [v for v in code.packed if v not in (w, rc)])
    report = dna_code_report(subset, 2, "symbol")
    assert not report.closed_under_module_ops
    assert report.rc_closed_without_fixed_points
    assert report.similarity_within_bound
    assert not report.is_dna_code
    assert dna_code_report(code, 2, "symbol").is_dna_code


def test_dna_code_report_describe():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    doc = dna_code_report(code, 2, "symbol").describe()
    assert doc["required_distance"] == 2
    assert doc["is_dna_code"] is True
    assert doc["max_similarity"] == 0


# -- subcode distance comparison -------------------------------------------------------


def test_subcode_distance_equal_on_constant_vector_code():
    # The diagonal subcode keeps max S = 0 at length 3, so both distances
    # are 2.
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    report = subcode_deletion_distance_check(code, "symbol")
    assert report.code_distance == 2
    assert report.subcode_distance == 2
    assert report.subcode_cardinality == 4
    assert report.equal


def test_subcode_distance_can_differ_at_nucleotide_granularity():
    # AT/TA-style images nearly coincide in the full code (max S = 17) but
    # the diagonal subcode only keeps AA/TT/GG/CC repeats (max S = 0).
    g = "[1,1,1,1,1,1,1,1,1]"
    code = Code.from_spec(spec_from(9, g, g2=g))
    report = subcode_deletion_distance_check(code, "nucleotide")
    assert report.code_distance == 0
    assert report.subcode_distance == 17
    assert not report.equal


def test_subcode_check_needs_two_subcode_words():
    # The zero code's diagonal subcode is again just the zero word, and a
    # pairwise distance over fewer than 2 words is undefined.
    code = Code.from_spec(spec_from(3, "[3,0,0,1]"))
    with pytest.raises(ValueError):
        subcode_deletion_distance_check(code, "symbol")


def test_given_similarity_report_is_used_not_recomputed(monkeypatch):
    import dnacyclic.deletion as deletion

    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    for granularity in GRANULARITIES:
        report = code_similarity_report(code, granularity)
        dna = dna_code_report(code, 1, granularity)
        sub = subcode_deletion_distance_check(code, granularity)
        calls = []
        real = deletion.code_similarity_report
        monkeypatch.setattr(
            deletion, "code_similarity_report",
            lambda c, *a, **k: calls.append(c.cardinality) or real(c, *a, **k),
        )
        assert dna_code_report(code, 1, granularity, similarity=report) == dna
        assert calls == []
        assert subcode_deletion_distance_check(
            code, granularity, similarity=report
        ) == sub
        assert calls == [4]  # the subcode only
        monkeypatch.undo()


def test_given_similarity_report_must_match_granularity():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    report = code_similarity_report(code, "symbol")
    with pytest.raises(ValueError, match="symbol report"):
        dna_code_report(code, 1, "nucleotide", similarity=report)
    with pytest.raises(ValueError, match="symbol report"):
        subcode_deletion_distance_check(code, "nucleotide", similarity=report)


def test_reports_are_plain_data():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    sim = code_similarity_report(code, "symbol").describe()
    assert sim["max_similarity"] == 0
    assert sim["deletion_distance"] == 2
    assert isinstance(sim["achieving_pair"], list) and len(sim["achieving_pair"]) == 2
    sub = subcode_deletion_distance_check(code, "symbol").describe()
    assert sub["equal"] is True
