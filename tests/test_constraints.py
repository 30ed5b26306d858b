"""Word transforms, DNA images, GC spectra, and the closure checkers."""

import itertools
import random
from collections import Counter

import pytest

from dnacyclic.cli import iter_catalog_specs
from dnacyclic.codes import (
    Code,
    CodeSpec,
    EnumerationCapExceeded,
    SpecError,
    constant_word,
    encode_word,
)
from dnacyclic.constraints import (
    COMPLEMENT_MEMBERSHIP_ELEMENT,
    ConditionReport,
    complement_word,
    dna_complement,
    dna_reverse_complement,
    gc_content,
    gc_spectrum,
    is_rc_closed_bruteforce,
    is_reversible_bruteforce,
    phi_image,
    reverse_complement_check,
    reverse_complement_word,
    reverse_word,
    reversible_check,
    theta_image,
)
from dnacyclic.polynomials import PolyR, PolyZ4
from dnacyclic.ring import ALL_ELEMENTS, ONE_PLUS_U, RingElement, ZERO
from spec_strategies import widened_n3_specs


def spec_from(n, g1, g2="[]", g3=None):
    return CodeSpec(
        n=n,
        g1=PolyZ4.from_string(g1),
        g2=PolyR.from_string(g2),
        g3=None if g3 is None else PolyZ4.from_string(g3),
    )


def random_word(rng, n):
    return tuple(rng.choice(ALL_ELEMENTS) for _ in range(n))


# -- word transforms ----------------------------------------------------------------


def test_transforms_are_involutions():
    rng = random.Random(23)
    for _ in range(100):
        w = random_word(rng, rng.randrange(1, 8))
        assert reverse_word(reverse_word(w)) == w
        assert complement_word(complement_word(w)) == w
        assert reverse_complement_word(reverse_complement_word(w)) == w
        assert reverse_complement_word(w) == complement_word(reverse_word(w))


def test_no_odd_length_word_is_its_own_reverse_complement():
    # Coordinatewise x + complement(x) = 1+u rules out a fixed middle
    # coordinate, so odd length admits no fixed point at all.
    for w in itertools.product(ALL_ELEMENTS, repeat=1):
        assert reverse_complement_word(w) != w
    rng = random.Random(29)
    for _ in range(300):
        w = random_word(rng, rng.choice((1, 3, 5, 7)))
        assert reverse_complement_word(w) != w


def test_even_length_fixed_points_exist():
    for x in ALL_ELEMENTS:
        w = (x, x.complement())
        assert reverse_complement_word(w) == w


# -- DNA strings --------------------------------------------------------------------


def test_dna_complement_and_reverse_complement():
    assert dna_complement("ATGC") == "TACG"
    assert dna_reverse_complement("ATGC") == "GCAT"
    assert dna_reverse_complement("TCAGG") == "CCTGA"
    assert dna_reverse_complement(dna_reverse_complement("GATTACA")) == "GATTACA"


def test_theta_and_phi_images():
    w = tuple([RingElement(2, 1)] * 3)
    assert theta_image(w) == "GTGTGT"
    assert phi_image(w) == "GGGTTT"
    w2 = (RingElement(0, 1), RingElement(2, 3), RingElement(1, 0))
    assert theta_image(w2) == "ATGCTA"
    assert phi_image(w2) == "AGTTCA"


def test_images_have_length_two_n_and_same_letter_multiset():
    # phi rearranges the same letters theta uses, so lengths and letter
    # counts agree even though the strings differ.
    rng = random.Random(31)
    for _ in range(100):
        w = random_word(rng, rng.randrange(1, 6))
        t, p = theta_image(w), phi_image(w)
        assert len(t) == len(p) == 2 * len(w)
        assert sorted(t) == sorted(p)


# -- GC content ---------------------------------------------------------------------


def test_gc_content_counts_strong_letters():
    assert gc_content("ATATAT") == 0
    assert gc_content("GTGTGT") == 3
    assert gc_content("GGGCCC") == 6


def test_gc_spectrum_of_constant_vector_code():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    assert gc_spectrum(code) == {0: 4, 3: 8, 6: 4}
    # Same letters in a different order: the one spectrum is phi's too.
    for image_map in (theta_image, phi_image):
        counts = Counter(gc_content(image_map(w)) for w in code.codewords)
        assert gc_spectrum(code) == dict(counts)


def test_gc_spectrum_total_matches_cardinality():
    for spec in (
        spec_from(3, "[3,1]", g2="[1]"),
        spec_from(3, "[1,1,1]"),
        spec_from(9, "[1,1,1,1,1,1,1,1,1]", g2="[1,1,1,1,1,1,1,1,1]"),
    ):
        code = Code.from_spec(spec)
        assert sum(gc_spectrum(code).values()) == code.cardinality


# -- brute-force closure oracles ------------------------------------------------------


def test_bruteforce_verdicts_on_constant_vector_code():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    assert is_reversible_bruteforce(code)
    assert is_rc_closed_bruteforce(code)


def test_zero_code_is_reversible_but_not_rc_closed():
    code = Code.from_spec(spec_from(3, "[3,0,0,1]"))
    assert code.cardinality == 1
    assert is_reversible_bruteforce(code)
    assert not is_rc_closed_bruteforce(code)  # complement of 0 is missing


# -- generator-condition checkers -----------------------------------------------------


def test_single_generator_example_all_conditions_hold():
    report = reversible_check(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    assert report.kind == "reversible-single-generator"
    assert report.conditions["g1_self_reciprocal"]
    assert report.conditions["g2_shift_reciprocal_equals_g2"]
    assert report.theorem_verdict and report.brute_force and report.agreement
    assert report.witnesses["g1_reciprocal_unit"] == 1
    assert report.witnesses["degree_gap"] == 0


def test_single_generator_rc_example():
    report = reverse_complement_check(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    assert report.kind == "reverse-complement-single-generator"
    assert report.conditions["complement_constant_in_code"]
    assert report.theorem_verdict and report.brute_force and report.agreement


def test_length_nine_example_checks():
    g = "[1,1,1,1,1,1,1,1,1]"
    spec = spec_from(9, g, g2=g)
    code = Code.from_spec(spec)
    rev = reversible_check(spec, code=code)
    rc = reverse_complement_check(spec, code=code)
    assert rev.theorem_verdict and rev.brute_force and rev.agreement
    assert rc.theorem_verdict and rc.brute_force and rc.agreement


def test_pair_generator_example_divisibility_witness():
    spec = spec_from(3, "[3,0,0,1]", g2="[3,0,0,1]", g3="[1,1,1]")
    report = reversible_check(spec)
    assert report.kind == "reversible-two-generator"
    assert report.conditions == {
        "g1_self_reciprocal": True,
        "g3_self_reciprocal": True,
        "g3_divides_shift_reciprocal_minus_g2": True,
    }
    # reciprocal(g1) - g1 = 2(x^3 + 1) = 2(x+1) g3, so the quotient is 2x+2.
    assert report.witnesses["division_quotient"] == PolyR.from_string("[2,2]")
    assert report.theorem_verdict and report.brute_force and report.agreement
    rc = reverse_complement_check(spec)
    assert rc.theorem_verdict and rc.brute_force and rc.agreement


def test_pair_generator_failing_divisibility_is_reported():
    # g3 = x^2+x+1 does not divide x^2 * reciprocal(x) - x = x^2 - x
    # (remainder 2x+3), so the conditions fail; the enumerated code happens
    # to be closed anyway, which the agreement flag records.
    spec = spec_from(3, "[3,0,0,1]", g2="[0,1]", g3="[1,1,1]")
    report = reversible_check(spec)
    assert report.conditions["g1_self_reciprocal"]
    assert report.conditions["g3_self_reciprocal"]
    assert not report.conditions["g3_divides_shift_reciprocal_minus_g2"]
    assert "division_quotient" not in report.witnesses
    assert not report.theorem_verdict
    assert report.brute_force
    assert not report.agreement


def test_single_generator_conditions_can_miss_closure():
    # Sufficient, not necessary: all polynomial conditions fail here, yet
    # the enumerated code is reversible.
    report = reversible_check(spec_from(3, "[1,1,1]", g2="[2,1]"))
    assert report.conditions == {
        "g1_self_reciprocal": True,
        "g2_shift_reciprocal_equals_g2": False,
        "g2_shift_reciprocal_equals_g2_mod_fold": False,
        "g1_equals_shift_reciprocal_plus_g2": False,
    }
    assert not report.theorem_verdict
    assert report.brute_force
    assert not report.agreement


def test_non_reversible_code_detected():
    # x^3+2x^2+x+3 is not self-reciprocal (its reciprocal generates the
    # distinct mate factor), and the length-7 code really is not reversible.
    spec = spec_from(7, "[3,1,2,1]")
    report = reversible_check(spec)
    assert not report.conditions["g1_self_reciprocal"]
    assert not report.theorem_verdict
    assert not report.brute_force
    assert report.agreement


def test_rc_fails_without_complement_constant():
    # g2 = 0 keeps the reversibility conditions true, but the code misses
    # the complement of the zero word, so rc closure fails on both tracks.
    spec = spec_from(3, "[3,1]")
    rev = reversible_check(spec)
    assert rev.theorem_verdict and rev.brute_force
    rc = reverse_complement_check(spec)
    assert not rc.conditions["complement_constant_in_code"]
    assert not rc.theorem_verdict
    assert not rc.brute_force
    assert rc.agreement


def test_complement_membership_is_scalar_invariant():
    # The membership condition can use any unit multiple of the all-(1+u)
    # word: codes are closed under unit scaling.
    for spec in (
        spec_from(3, "[1,1,1]", g2="[1,1,1]"),
        spec_from(3, "[3,1]"),
        spec_from(3, "[3,1]", g2="[1]", g3="[3,1]"),
    ):
        code = Code.from_spec(spec)
        a = constant_word(COMPLEMENT_MEMBERSHIP_ELEMENT, spec.n) in code
        b = constant_word(ONE_PLUS_U, spec.n) in code
        assert a == b
        rc = reverse_complement_check(spec, code=code)
        assert rc.conditions["complement_constant_in_code"] == a


def test_zero_g2_shortcuts():
    report = reversible_check(spec_from(3, "[1,1,1]"))
    assert report.conditions["g2_shift_reciprocal_equals_g2"] is True
    assert report.conditions["g2_shift_reciprocal_equals_g2_mod_fold"] is True
    assert report.conditions["g1_equals_shift_reciprocal_plus_g2"] is False
    assert report.theorem_verdict and report.brute_force


def test_checker_rejects_g2_degree_above_g1():
    with pytest.raises(SpecError):
        reversible_check(spec_from(3, "[3,1]", g2="[1,1,1]"))
    with pytest.raises(SpecError):
        reverse_complement_check(spec_from(3, "[3,1]", g2="[1,1,1]"))
    # The conditions come before enumeration, so a cap the code would
    # exceed is never reached.
    for checker in (reversible_check, reverse_complement_check):
        with pytest.raises(SpecError):
            checker(spec_from(3, "[3,1]", g2="[1,1,1]"), cap=1)


def test_checker_rejects_invalid_spec():
    with pytest.raises(SpecError):
        reversible_check(spec_from(4, "[3,1]"))


def test_arity_dispatch_and_mismatch_errors():
    single = spec_from(3, "[1,1,1]", g2="[1,1,1]")
    pair = spec_from(3, "[3,0,0,1]", g2="[3,0,0,1]", g3="[1,1,1]")
    assert reversible_check(single).kind == "reversible-single-generator"
    assert reversible_check(pair).kind == "reversible-two-generator"
    assert reverse_complement_check(pair).kind == "reverse-complement-two-generator"


def test_report_describe_shape():
    doc = reversible_check(spec_from(3, "[1,1,1]", g2="[1,1,1]")).describe()
    assert doc["kind"] == "reversible-single-generator"
    assert doc["theorem_verdict"] is True
    assert doc["brute_force"] is True
    assert doc["agreement"] is True
    assert set(doc["conditions"]) == {
        "g1_self_reciprocal",
        "g2_shift_reciprocal_equals_g2",
        "g2_shift_reciprocal_equals_g2_mod_fold",
        "g1_equals_shift_reciprocal_plus_g2",
    }


# -- systematic agreement sweep -------------------------------------------------------


def test_checker_is_sound_over_dense_length_three_sweep():
    # Across every valid n=3 spec with g2 coefficients drawn from
    # {0, 1, 1+u} and deg g2 < 3: a true theorem verdict must always be
    # confirmed by brute force.  The reverse direction is not promised; the
    # miss count is pinned so behavior changes are visible.
    coeff_pool = [ZERO, RingElement(1, 0), ONE_PLUS_U]
    g2s = {
        PolyR(list(c)).coeffs: PolyR(list(c))
        for k in range(4)
        for c in itertools.product(coeff_pool, repeat=k)
    }
    from dnacyclic.polynomials import all_monic_divisors

    divisors = all_monic_divisors(3)
    total = errors = misses = 0
    for g1 in divisors:
        for g3 in [None] + [d for d in divisors if d.divides_mod2(g1)]:
            for g2 in g2s.values():
                spec = CodeSpec(n=3, g1=g1, g2=g2, g3=g3)
                if spec.validate():
                    continue
                code = Code.from_spec(spec)
                for checker in (reversible_check, reverse_complement_check):
                    total += 1
                    try:
                        report = checker(spec, code=code)
                    except SpecError:
                        errors += 1  # deg g2 > deg g1
                        continue
                    assert not (
                        report.theorem_verdict and not report.brute_force
                    ), spec.describe()
                    if report.brute_force and not report.theorem_verdict:
                        misses += 1
                    assert report.agreement == (
                        report.theorem_verdict == report.brute_force
                    )
    assert total == 702
    assert errors == 204
    assert misses == 183


# -- membership verdicts ---------------------------------------------------------------


def test_membership_verdicts_match_the_word_scan_oracles():
    # brute_force comes from generator membership; the word scans decide the
    # same question from every word.  Cases: every default catalog spec with
    # n <= 7 of at most 4,096 words, all 3,328 widened n=3 specs, and the n=9
    # codes of catalog 9 --cap 16384.  Specs the checkers refuse (deg g2 >
    # deg g1) have no verdict.
    cases = [(s, 4096) for n in (1, 3, 5, 7) for s in iter_catalog_specs(n)]
    cases += [(s, 4096) for s in widened_n3_specs()]
    cases += [(s, 16384) for s in iter_catalog_specs(9)]
    oracle = {}  # word tuple -> (reversible, rc-closed), one scan per code
    compared = Counter()
    for spec, cap in cases:
        try:
            code = Code.from_spec(spec, cap=cap)
        except EnumerationCapExceeded:
            continue
        if code.packed not in oracle:
            oracle[code.packed] = (
                is_reversible_bruteforce(code),
                is_rc_closed_bruteforce(code),
            )
        for checker, expected in zip(
            (reversible_check, reverse_complement_check), oracle[code.packed]
        ):
            try:
                report = checker(spec, code=code)
            except SpecError:
                continue
            assert report.brute_force == expected, (checker.__name__, spec.describe())
            compared[expected] += 1
    # Both verdicts occur often, so neither direction goes untested; the
    # counts are pinned so a change in the cases is visible.
    assert compared == {True: 5377, False: 811}


def test_checker_refuses_a_code_that_is_not_the_specs_own():
    # The membership verdict holds only for the spec's own ideal, so another
    # spec's code, or a word set of the right size that holds the generator
    # words but is not an ideal, is refused with a plain ValueError (the CLI
    # would exit 4), never a SpecError (exit 2).
    spec = spec_from(3, "[1,1,1]", g2="[1,1,1]")
    code = Code.from_spec(spec)
    other = Code.from_spec(spec_from(3, "[3,1]"))
    outsider = encode_word((RingElement(1, 0), ZERO, ZERO))
    assert outsider not in code
    dropped = max(set(code.packed) - set(spec.generator_words) - {0})
    not_ideal = Code(3, (set(code.packed) - {dropped}) | {outsider})
    assert not_ideal.cardinality == code.cardinality
    for checker in (reversible_check, reverse_complement_check):
        assert checker(spec, code=code).brute_force
        for wrong in (other, not_ideal, Code.from_spec(spec_from(1, "[1]"))):
            with pytest.raises(ValueError) as excinfo:
                checker(spec, code=wrong)
            assert not isinstance(excinfo.value, SpecError)
