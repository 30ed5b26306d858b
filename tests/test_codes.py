"""Spec validation, code enumeration, and module-structure invariants."""

import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dnacyclic import codes as codes_module
from dnacyclic.cli import iter_catalog_specs
from dnacyclic.codes import (
    Code,
    CodeSpec,
    EnumerationCapExceeded,
    SpecError,
    _howell_basis,
    _ideal_rows,
    _z4_span,
    constant_word,
    decode_word,
    encode_word,
)
from dnacyclic.deletion import dna_code_report
from dnacyclic.polynomials import PolyR, PolyZ4
from dnacyclic.ring import (
    ALL_ELEMENTS,
    IDEAL_ONE_PLUS_U,
    ONE_PLUS_U,
    U,
    RingElement,
    ZERO,
)
from spec_strategies import code_specs, widened_n3_specs


def p4(text):
    return PolyZ4.from_string(text)


def pr(text):
    return PolyR.from_string(text)


def spec_from(n, g1, g2="[]", g3=None, strict=False):
    return CodeSpec(
        n=n,
        g1=p4(g1),
        g2=pr(g2),
        g3=None if g3 is None else p4(g3),
        strict_z4_divisibility=strict,
    )


def direct_span(spec):
    """Independent enumeration: close the shift/scalar orbit of the
    generators under addition, entirely in polynomial arithmetic."""
    n = spec.n

    def to_word(p):
        coeffs = list(p.coeffs) + [ZERO] * (n - len(p.coeffs))
        return tuple(coeffs)

    seeds = set()
    for gen in spec.generator_polys():
        for k in range(n):
            shifted = (PolyR.monomial(k) * gen).mod_xn_minus_1(n)
            for s in ALL_ELEMENTS:
                seeds.add(to_word(s * shifted))
    words = {tuple([ZERO] * n)} | seeds
    frontier = set(words)
    while frontier:
        new = set()
        for w in frontier:
            for s in seeds:
                t = tuple(a + b for a, b in zip(w, s))
                if t not in words:
                    new.add(t)
        words |= new
        frontier = new
    return words


# -- validation ---------------------------------------------------------------------


def test_validate_rejects_even_or_nonpositive_length():
    assert "odd" in spec_from(4, "[3,1]").validate()[0]
    assert "odd" in spec_from(0, "[1]").validate()[0]
    assert "odd" in spec_from(-5, "[1]").validate()[0]
    assert spec_from(1, "[3,1]").validate() == []


def test_validate_requires_monic_generators():
    problems = spec_from(3, "[1,2]").validate()
    assert any("monic" in p for p in problems)
    problems = spec_from(3, "[1,1,1]", g3="[2]").validate()
    assert any("g3 must be monic" in p for p in problems)


def test_validate_requires_divisibility_chain_mod2():
    # g1 must divide x^n - 1 mod 2 and g3 must divide g1 mod 2.
    problems = spec_from(3, "[1,0,1]").validate()  # x^2+1 = (x+1)^2 splits wrong
    assert any("does not divide x^3 - 1" in p for p in problems)
    ok = spec_from(3, "[1,1,1]", g3="[3,1]").validate()
    assert any("does not divide g1" in p for p in ok)
    assert spec_from(3, "[1,1,1]", g3="[1,1,1]").validate() == []


def test_validate_strict_mode_tightens_to_z4():
    # x+1 divides x^3+1 mod 2 but not x^3-1 over Z4.
    assert spec_from(3, "[1,1]").validate() == []
    strict = spec_from(3, "[1,1]", strict=True).validate()
    assert any("over Z4" in p for p in strict)
    # Same tightening for the g3 | g1 link.
    assert spec_from(3, "[3,0,0,1]", g3="[1,1]").validate() == []
    strict = spec_from(3, "[3,0,0,1]", g3="[1,1]", strict=True).validate()
    assert any("over Z4" in p for p in strict)


def test_require_valid_raises_spec_error():
    with pytest.raises(SpecError):
        spec_from(4, "[3,1]").require_valid()
    spec_from(3, "[3,1]").require_valid()


def test_describe_and_sort_key_are_stable():
    spec = spec_from(3, "[1,1,1]", g2="[1,1,1]")
    assert spec.describe() == {
        "n": 3,
        "g1": "[1,1,1]",
        "g2": "[1,1,1]",
        "g3": None,
        "strict_z4_divisibility": False,
    }
    specs = [
        spec_from(3, "[3,0,0,1]"),
        spec_from(3, "[3,1]"),
        spec_from(3, "[3,1]", g3="[3,1]"),
        spec_from(3, "[3,1]", g2="[1]"),
    ]
    ordered = sorted(specs, key=CodeSpec.sort_key)
    assert [s.describe()["g1"] for s in ordered] == ["[3,1]", "[3,1]", "[3,1]", "[3,0,0,1]"]
    # Single-generator specs sort before pair specs with the same g1.
    assert ordered[2].g3 is not None


# -- word packing -------------------------------------------------------------------


def test_encode_decode_roundtrip_all_pairs():
    for x, y in itertools.product(ALL_ELEMENTS, repeat=2):
        word = (x, y, RingElement(3, 2))
        assert decode_word(encode_word(word), 3) == word


def test_packed_order_matches_lexicographic_word_order():
    words = [
        (ZERO, ZERO, RingElement(0, 1)),
        (ZERO, RingElement(1, 0), ZERO),
        (RingElement(1, 0), ZERO, ZERO),
    ]
    packed = [encode_word(w) for w in words]
    assert packed == sorted(packed)


def test_constant_word():
    w = constant_word(ONE_PLUS_U, 3)
    assert w == (ONE_PLUS_U, ONE_PLUS_U, ONE_PLUS_U)


# -- enumeration of the worked examples ----------------------------------------------


def test_single_generator_example_is_the_sixteen_constant_vectors():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    assert code.cardinality == 16
    expected = {constant_word(x, 3) for x in ALL_ELEMENTS}
    assert set(code.codewords) == expected
    assert code.min_hamming_distance == 3
    assert code.weight_enumerator == (1, 0, 0, 15)


def test_pair_generator_example_is_the_four_diagonal_multiples():
    # g1 = x^3 + 3 vanishes in the length-3 quotient, so the code collapses
    # to the multiples of (1+u)(x^2+x+1): exactly 4 constant vectors.
    code = Code.from_spec(spec_from(3, "[3,0,0,1]", g2="[3,0,0,1]", g3="[1,1,1]"))
    assert code.cardinality == 4
    expected = {constant_word(t, 3) for t in IDEAL_ONE_PLUS_U}
    assert set(code.codewords) == expected
    assert code.min_hamming_distance == 3
    assert code.weight_enumerator == (1, 0, 0, 3)


def test_length_nine_example():
    g = "[1,1,1,1,1,1,1,1,1]"
    code = Code.from_spec(spec_from(9, g, g2=g))
    assert code.cardinality == 16
    assert code.min_hamming_distance == 9
    assert code.weight_enumerator == (1,) + (0,) * 8 + (15,)
    assert set(code.codewords) == {constant_word(x, 9) for x in ALL_ELEMENTS}


def test_enumeration_matches_direct_span_oracle():
    cases = [
        spec_from(3, "[1,1,1]", g2="[1,1,1]"),
        spec_from(3, "[3,0,0,1]", g2="[3,0,0,1]", g3="[1,1,1]"),
        spec_from(3, "[3,1]"),
        spec_from(3, "[1,1,1]", g2="[1]"),
        spec_from(3, "[3,1]", g2="[u]", g3="[3,1]"),
        spec_from(5, "[1,1,1,1,1]", g2="[2u,1]"),
    ]
    for spec in cases:
        code = Code.from_spec(spec)
        assert set(code.codewords) == direct_span(spec), spec.describe()


@settings(max_examples=80, deadline=None)
@given(code_specs())
def test_enumeration_matches_direct_span_on_random_specs(spec):
    assert spec.validate() == []
    # The tuple oracle is slow, so only codes of at most 1,024 words are
    # compared; the rest of the draws are discarded.
    try:
        code = Code.from_spec(spec, cap=1024)
    except EnumerationCapExceeded:
        assume(False)
    assert set(code.codewords) == direct_span(spec), spec.describe()


def test_zero_code():
    # g1 = x^3 - 1 is 0 in the quotient and g2 = 0, so only the zero word.
    code = Code.from_spec(spec_from(3, "[3,0,0,1]"))
    assert code.cardinality == 1
    assert code.min_hamming_distance is None
    assert code.weight_enumerator == (1, 0, 0, 0)


def test_full_code():
    code = Code.from_spec(spec_from(3, "[1]"))
    assert code.cardinality == 16**3
    assert code.min_hamming_distance == 1


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        Code.from_spec(spec_from(3, "[1]"), cap=100)


def test_enumeration_cap_boundary_is_exact_on_catalog_specs():
    # A code of |C| words passes at cap |C| and is refused at cap |C| - 1.
    checked = 0
    for n in (1, 3, 5):
        for spec in iter_catalog_specs(n):
            try:
                code = Code.from_spec(spec, cap=4096)
            except EnumerationCapExceeded:
                continue
            size = code.cardinality
            assert Code.from_spec(spec, cap=size) == code
            with pytest.raises(EnumerationCapExceeded) as excinfo:
                Code.from_spec(spec, cap=size - 1)
            assert str(excinfo.value) == f"code exceeds the {size - 1}-word enumeration cap"
            checked += 1
    assert checked > 100


def test_invalid_spec_is_rejected_at_enumeration():
    with pytest.raises(SpecError):
        Code.from_spec(spec_from(4, "[3,1]"))


# -- Howell basis --------------------------------------------------------------------


def z4_span_size(rows, n):
    """Independent size oracle for the Z4-span of packed rows, on digit
    lists: take a unit entry anywhere as a pivot, scale it to 1 and clear
    its column in every other row, until no unit is left.  The k1 pivot rows
    span 4^k1 words, and the rows left are all even, so they span 2^k2 words
    for their GF(2) rank k2 once halved.  The two spans meet only in 0."""
    digits = [[(r >> 4 * k) & 3 for k in range(2 * n)] for r in set(rows)]
    units = 0
    while True:
        hit = next(
            ((i, j) for i, row in enumerate(digits) for j, d in enumerate(row) if d & 1),
            None,
        )
        if hit is None:
            break
        i, j = hit
        pivot = digits.pop(i)
        pivot = [pivot[j] * d % 4 for d in pivot]  # 1 and 3 are their own inverses
        digits = [[(d - row[j] * p) % 4 for d, p in zip(row, pivot)] for row in digits]
        units += 1
    basis = []  # GF(2) vectors with distinct leading bits, largest first
    for row in digits:
        v = int("".join(str(d // 2) for d in row) or "0", 2)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted(basis + [v], reverse=True)
    return 4**units * 2 ** len(basis)


def test_basis_size_matches_enumeration_and_an_independent_size():
    # On every default catalog spec with n <= 9 and on all 3,328 widened n=3
    # specs: the basis size equals the elimination oracle, a spec of at most
    # 65,536 words enumerates to exactly that many distinct words, and a
    # larger one is refused before any word is built.
    cap = 65536
    specs = [s for n in (1, 3, 5, 7, 9) for s in iter_catalog_specs(n)]
    specs += widened_n3_specs()
    enumerated = 0
    for spec in specs:
        rows = _ideal_rows(spec.generator_words, spec.n)
        size = spec.cardinality
        assert size == z4_span_size(rows, spec.n), spec.describe()
        if size > cap:
            with pytest.raises(EnumerationCapExceeded):
                Code.from_spec(spec, cap=cap)
            continue
        span = _z4_span(spec.basis, spec.n)
        assert len(span) == len(set(span)) == size, spec.describe()
        enumerated += 1
    assert len(specs) == 15 + 65 + 65 + 315 + 315 + 3328
    assert enumerated > 3500


def brute_closure(rows, n):
    """All sums of the rows, by adding one row at a time to every word
    reached so far."""
    mask = int.from_bytes(b"\x33" * n, "big")
    span = {0}
    frontier = [0]
    while frontier:
        w = frontier.pop()
        for r in rows:
            v = (w + r) & mask
            if v not in span:
                span.add(v)
                frontier.append(v)
    return span


@st.composite
def packed_row_sets(draw):
    """0-7 packed rows of length 1-5, sparse and often even, so rows share
    leading digits, are led by 2, and displace one another."""
    n = draw(st.integers(1, 5))
    mask = int.from_bytes(b"\x33" * n, "big")
    digits = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=2 * n, max_size=2 * n)
    rows = []
    for scale, ds in draw(st.lists(st.tuples(st.sampled_from([1, 2]), digits), max_size=7)):
        rows.append(scale * sum(d << 4 * k for k, d in enumerate(ds)) & mask)
    return n, rows


@settings(max_examples=300, deadline=None)
@given(packed_row_sets())
@example((1, [0x20, 0x10]))  # a unit row displaces a row led by 2
@example((1, [0x21, 0x10]))  # ... twice, through the remainder
@example((2, [0x2000, 0x0002, 0x1000]))
def test_span_matches_brute_force_closure(case):
    n, rows = case
    closure = brute_closure(rows, n)
    basis = _howell_basis(rows, n)
    span = _z4_span(basis, n)
    assert len(span) == len(closure) and set(span) == closure
    # The size that from_spec refuses the cap by, before any word is built.
    assert math.prod(order for _, order in basis) == len(closure)


# -- module structure ----------------------------------------------------------------


def module_closed(n, packed_words):
    """Brute-force oracle for Code.is_ideal: the set holds 0 and is closed
    under x* and under all 16 scalars (on ring-element tuples), and under
    every pairwise sum (on packed words, one masked addition each)."""
    packed = sorted(packed_words)
    packed_set = set(packed)
    words = {decode_word(w, n) for w in packed}
    mask = int.from_bytes(b"\x33" * n, "big")
    return (
        tuple([ZERO] * n) in words
        and all(w[-1:] + w[:-1] in words for w in words)
        and all(tuple(s * e for e in w) in words for s in ALL_ELEMENTS for w in words)
        and all(
            (a + b) & mask in packed_set for i, a in enumerate(packed) for b in packed[i:]
        )
    )


def test_codes_are_closed_under_module_operations():
    for spec in (
        spec_from(3, "[1,1,1]", g2="[1,1,1]"),
        spec_from(3, "[3,1]", g2="[1]"),
        spec_from(3, "[3,1]", g2="[2u,1]", g3="[3,1]"),
        spec_from(5, "[1,1,1,1,1]"),
    ):
        code = Code.from_spec(spec)
        assert module_closed(code.n, code.packed)
        assert code.is_ideal()


# Length-2 words: the 256 elements of Z4^4 in packed form.
WORDS2 = [encode_word(w) for w in itertools.product(ALL_ELEMENTS, repeat=2)]
MASK2 = 0x3333


def sum_closure(gens):
    """The subgroup generated by gens: all sums of gens, found by adding
    one generator at a time to every word reached so far."""
    group = {0}
    frontier = [0]
    while frontier:
        w = frontier.pop()
        for g in gens:
            v = (w + g) & MASK2
            if v not in group:
                group.add(v)
                frontier.append(v)
    return group


def ideal_rows(gens):
    """Each length-2 generator with its u-multiple and their shifts: their
    sums are the ideal the generators span."""
    rows = []
    for g in gens:
        word = decode_word(g, 2)
        for w in (word, tuple(U * e for e in word)):
            rows += (encode_word(w), encode_word(w[-1:] + w[:-1]))
    return rows


@st.composite
def word_sets(draw):
    """Random word sets, subgroups, ideals, subgroups or ideals plus or
    minus one word, and subgroups or ideals without 0."""
    kinds = ("random", "subgroup", "ideal", "plus", "minus", "no_zero")
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        return draw(st.sets(st.sampled_from(WORDS2), max_size=24))
    gens = draw(st.lists(st.sampled_from(WORDS2), max_size=3))
    if kind == "ideal" or (kind != "subgroup" and draw(st.booleans())):
        gens = ideal_rows(gens)
    group = sum_closure(gens)
    if kind == "plus" and len(group) < len(WORDS2):
        group.add(draw(st.sampled_from([w for w in WORDS2 if w not in group])))
    elif kind == "minus":
        group.discard(draw(st.sampled_from(sorted(group))))
    elif kind == "no_zero":
        group.discard(0)
    return group


@settings(max_examples=300, deadline=None)
@given(word_sets())
@example(set())
@example({0x2200})  # no zero word
@example({0, 0x2200})  # (2+2u, 0) has order 2
@example({0, 0x1100})  # (1+u, 0) has order 4
@example({0, 0x2222})  # the ideal of the constant word 2+2u
def test_is_ideal_matches_brute_force_closure(words):
    assert Code(2, words).is_ideal() == module_closed(2, words)


def test_membership_and_equality():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    assert constant_word(RingElement(2, 1), 3) in code
    assert (RingElement(1, 0), ZERO, ZERO) not in code
    same = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    assert code == same and hash(code) == hash(same)
    other = Code.from_spec(spec_from(3, "[3,1]"))
    assert code != other
    assert len(code) == 16 and len(list(iter(code))) == 16


def test_cardinality_is_a_power_of_two():
    # |C| = 16^n / 4^(deg g1) * 2^(...): always a power of 2 for these specs.
    for spec in iter_catalog_specs(3):
        card = Code.from_spec(spec).cardinality
        assert card & (card - 1) == 0, spec.describe()


def test_subcode_of_diagonal_multiples():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    sub = code.subcode_one_plus_u()
    assert set(sub.codewords) == {constant_word(t, 3) for t in IDEAL_ONE_PLUS_U}
    assert sub.cardinality == 4
    assert module_closed(3, sub.packed)
    assert sub.is_ideal()


# Specs (g1, g3, g2) whose diagonal subcode {(1+u)c : c in C} differs from
# the cyclic code generated by (1+u)g3 (resp. (1+u)g1 when g3 is absent).
# Frozen from a sweep of all 65 valid n=3 lattice specs; every violation has
# g2 outside {0, g1}, and the equality is confirmed on the whole safe family.
SUBCODE_IDENTITY_VIOLATIONS = {
    ("[3,1]", None, "[1]"),
    ("[3,1]", None, "[1,1,1]"),
    ("[3,1]", "[3,1]", "[1]"),
    ("[3,1]", "[3,1]", "[1,1,1]"),
    ("[1,1,1]", None, "[1]"),
    ("[1,1,1]", None, "[3,1]"),
    ("[1,1,1]", "[1,1,1]", "[1]"),
    ("[1,1,1]", "[1,1,1]", "[3,1]"),
    ("[3,0,0,1]", None, "[1]"),
    ("[3,0,0,1]", None, "[3,1]"),
    ("[3,0,0,1]", None, "[1,1,1]"),
    ("[3,0,0,1]", "[1,1,1]", "[1]"),
    ("[3,0,0,1]", "[1,1,1]", "[3,1]"),
    ("[3,0,0,1]", "[3,0,0,1]", "[1]"),
    ("[3,0,0,1]", "[3,0,0,1]", "[3,1]"),
    ("[3,0,0,1]", "[3,0,0,1]", "[1,1,1]"),
    ("[3,0,0,1]", "[3,1]", "[1]"),
    ("[3,0,0,1]", "[3,1]", "[1,1,1]"),
}


def test_subcode_identity_characterization_over_full_lattice():
    # The identity C_(1+u) = <(1+u)h> (h = g3, or g1 when single-generator)
    # holds for g2 in {0, g1} but not in general.  Pin the exact violation
    # set so any behavior change is visible.
    violations = set()
    for spec in iter_catalog_specs(3):
        code = Code.from_spec(spec)
        sub = code.subcode_one_plus_u()
        h = spec.g3 if spec.g3 is not None else spec.g1
        # <(1+u)h> as a spec: g1 = x^3 - 1 contributes nothing mod x^3 - 1.
        ideal = Code.from_spec(
            CodeSpec(n=3, g1=PolyZ4.xn_minus_1(3), g2=h.to_ring_poly())
        )
        key = (
            str(spec.g1),
            None if spec.g3 is None else str(spec.g3),
            str(spec.g2),
        )
        if sub != ideal:
            violations.add(key)
            assert not (
                spec.g2.is_zero or spec.g2 == spec.g1.to_ring_poly()
            ), f"violation inside the safe family: {key}"
    assert violations == SUBCODE_IDENTITY_VIOLATIONS


def test_min_distance_of_a_word_set_that_is_not_an_ideal():
    # Both words have weight 3 but differ in one coordinate; the minimum
    # nonzero weight is the distance only for an ideal.
    one, two = RingElement(1), RingElement(2)
    code = Code(3, [encode_word((one, one, one)), encode_word((one, one, two))])
    assert not code.is_ideal()
    assert code.min_hamming_distance == 1
    assert code.describe()["min_hamming_distance"] == 1
    assert Code(3, [encode_word((one, one, one))]).min_hamming_distance is None


def test_min_distance_of_codes_built_as_ideals_skips_the_ideal_test(monkeypatch):
    # The span check of is_ideal reduces the words to a Howell basis; codes
    # that are ideals by construction must never reach it.
    def never(rows, n):
        raise AssertionError("is_ideal ran on a code that is an ideal by construction")

    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    subcode = code.subcode_one_plus_u()
    monkeypatch.setattr(codes_module, "_howell_basis", never)
    assert code.min_hamming_distance == 3
    assert subcode.min_hamming_distance == 3
    assert dna_code_report(code, 2, "symbol").closed_under_module_ops
    assert dna_code_report(subcode, 2, "symbol").closed_under_module_ops


def test_describe_shape():
    code = Code.from_spec(spec_from(3, "[1,1,1]", g2="[1,1,1]"))
    doc = code.describe()
    assert doc["cardinality"] == 16
    assert doc["min_hamming_distance"] == 3
    assert doc["weight_enumerator"] == [1, 0, 0, 15]
