"""The two-stage similarity search against a plain pair sweep.

``sweep_oracle`` is the dynamic-programming sweep the package used before
it found the maximum from shared 1-deletion variants: every pair in order,
stopping only when a pair reaches the ceiling L - 1.  The search must
return the same maximum, the same first achieving pair and the same
pairs_examined on any set of distinct equal-length sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnacyclic.cli import iter_catalog_specs
from dnacyclic.codes import Code, EnumerationCapExceeded, decode_word
from dnacyclic.deletion import (
    DEFAULT_PAIR_CAP,
    GRANULARITIES,
    _sequences,
    code_similarity_report,
    lcs_length,
    max_pairwise_similarity,
)

#: The most words whose pairs fit under the default pair cap.
MAX_SWEPT_WORDS = 707
assert MAX_SWEPT_WORDS * (MAX_SWEPT_WORDS - 1) // 2 <= DEFAULT_PAIR_CAP
assert (MAX_SWEPT_WORDS + 1) * MAX_SWEPT_WORDS // 2 > DEFAULT_PAIR_CAP


def sweep_oracle(seqs):
    """(max S, first achieving pair, pairs examined) by a plain pair sweep."""
    ceiling = len(seqs[0]) - 1
    best, best_pair, examined = -1, None, 0
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            examined += 1
            s = lcs_length(seqs[i], seqs[j])
            if s > best:
                best, best_pair = s, (i, j)
                if best == ceiling:
                    return best, best_pair, examined
    return best, best_pair, examined


# -- random sequence sets ------------------------------------------------------------


@st.composite
def sequence_sets(draw):
    """2-10 distinct strings of one length over a small or a wide alphabet.

    Over the 16-letter alphabet most sets have no pair reaching L - 2, so
    stage 2 sweeps every pair; over 2-4 letters most have a shared
    1-deletion variant.
    """
    alphabet = "abcdefghijklmnop"[: draw(st.sampled_from((2, 3, 4, 16)))]
    length = draw(st.integers(1, 7))
    words = st.text(alphabet, min_size=length, max_size=length)
    seqs = draw(st.lists(words, min_size=2, max_size=10, unique=True))
    return [s.encode() for s in seqs] if draw(st.booleans()) else seqs


@settings(max_examples=400, deadline=None)
@given(sequence_sets())
def test_search_matches_sweep_on_random_sets(seqs):
    assert max_pairwise_similarity(seqs) == sweep_oracle(seqs)


@pytest.mark.parametrize(
    "seqs",
    [
        ["aaa", "bbb", "ccc", "ddd"],  # constant words: no pair reaches L - 2
        ["abcd", "cdab", "dcba"],  # L - 2 = 2 first reached by (0, 1)
        ["abcd", "badc", "abdc"],  # (0, 2) shares a variant, (0, 1) does not
        ["ab", "cd", "ba"],  # L = 2: (0, 2) share "a"
        ["a", "b"],  # L = 1: the empty variant is always shared
        [b"\x00\x01\x02", b"\x03\x03\x03", b"\x02\x01\x00"],
    ],
)
def test_search_matches_sweep_on_fixed_sets(seqs):
    assert max_pairwise_similarity(seqs) == sweep_oracle(seqs)


# -- catalog codes -------------------------------------------------------------------


@pytest.fixture(scope="module")
def catalog_codes():
    """Every distinct catalog code with n <= 7 and 2-707 words."""
    codes = {}
    for n in (1, 3, 5, 7):
        for spec in iter_catalog_specs(n):
            try:
                code = Code.from_spec(spec, cap=MAX_SWEPT_WORDS)
            except EnumerationCapExceeded:
                continue
            if code.cardinality >= 2:
                codes.setdefault((n, code.packed), code)
    return list(codes.values())


def test_catalog_codes_match_sweep_at_both_granularities(catalog_codes):
    assert len(catalog_codes) == 17
    for code in catalog_codes:
        for granularity in GRANULARITIES:
            seqs = _sequences(code, granularity)
            best, (i, j), examined = sweep_oracle(seqs)
            report = code_similarity_report(code, granularity)
            if granularity == "symbol":
                pair = (decode_word(code.packed[i], code.n),
                        decode_word(code.packed[j], code.n))
            else:
                pair = (seqs[i], seqs[j])
            assert (report.max_similarity, report.achieving_pair,
                    report.pairs_examined) == (best, pair, examined), (
                code.n, code.cardinality, granularity)


def test_codes_with_a_nonconstant_word_have_distance_zero_or_one(catalog_codes):
    """w and x*w are distinct codewords sharing w minus its last symbol, so
    max S is n - 1 on symbols and at least 2n - 2 on theta images."""
    checked = 0
    for code in catalog_codes:
        if all(len(set(decode_word(w, code.n))) == 1 for w in code.packed):
            continue
        checked += 1
        assert code_similarity_report(code, "symbol").deletion_distance == 0
        assert code_similarity_report(code, "nucleotide").deletion_distance <= 1
    assert checked == 9
