"""The packed word path against the tuple transforms it replaced.

Every analysis runs on packed integers; the tuple functions of
dnacyclic.constraints are kept as the independent reference here.
"""

import itertools
import random
from collections import Counter

import pytest

from dnacyclic.cli import iter_catalog_specs
from dnacyclic.codes import (
    Code,
    EnumerationCapExceeded,
    _word_weight,
    encode_word,
    gc_count_packed,
    is_one_plus_u_multiple_packed,
    reverse_complement_packed,
    reverse_packed,
    theta_packed,
    u_times_packed,
)
from dnacyclic.constraints import (
    dna_reverse_complement,
    gc_content,
    gc_spectrum,
    is_rc_closed_bruteforce,
    is_reversible_bruteforce,
    phi_image,
    reverse_complement_word,
    reverse_word,
    theta_image,
)
from dnacyclic.deletion import (
    GRANULARITIES,
    _rc_condition,
    code_similarity_report,
    lcs_length,
)
from dnacyclic.ring import ALL_ELEMENTS, IDEAL_ONE_PLUS_U, U, RingElement

SMALL_CAP = 4096


@pytest.fixture(scope="module")
def small_codes():
    """Every catalog code of length 1, 3 or 5 with at most 4,096 words."""
    codes = []
    for n in (1, 3, 5):
        for spec in iter_catalog_specs(n):
            try:
                codes.append(Code.from_spec(spec, cap=SMALL_CAP))
            except EnumerationCapExceeded:
                pass
    return codes


def test_packed_transforms_match_tuple_transforms_exhaustively():
    n = 3
    for word in itertools.product(ALL_ELEMENTS, repeat=n):
        w = encode_word(word)
        assert reverse_packed(w, n) == encode_word(reverse_word(word))
        assert reverse_complement_packed(w, n) == encode_word(
            reverse_complement_word(word)
        )
        assert theta_packed(w, n) == theta_image(word)
        assert u_times_packed(w, n) == encode_word(tuple(U * e for e in word))
        assert _word_weight(w, n) == sum(1 for e in word if e)
        assert gc_count_packed(w, n) == gc_content(theta_image(word))
        assert gc_count_packed(w, n) == gc_content(phi_image(word))
        assert is_one_plus_u_multiple_packed(w, n) == all(
            e in IDEAL_ONE_PLUS_U for e in word
        )


def test_packed_oracles_match_tuple_oracles_on_small_catalog_codes(small_codes):
    assert len(small_codes) == 120
    for code in small_codes:
        words = set(code.codewords)
        assert is_reversible_bruteforce(code) == all(
            reverse_word(w) in words for w in words
        )
        assert is_rc_closed_bruteforce(code) == all(
            reverse_complement_word(w) in words for w in words
        )
        for image_map in (theta_image, phi_image):
            expected = Counter(gc_content(image_map(w)) for w in words)
            assert gc_spectrum(code) == dict(sorted(expected.items()))
        subcode = code.subcode_one_plus_u()
        assert set(subcode.codewords) == {
            w for w in words if all(e in IDEAL_ONE_PLUS_U for e in w)
        }


def string_rc_condition(code, granularity):
    """The reverse-complement condition of a DNA code on tuple words at
    symbol granularity and on theta strings at nucleotide granularity."""
    if granularity == "symbol":
        seqs, rc = set(code.codewords), reverse_complement_word
    else:
        seqs = {theta_image(w) for w in code.codewords}
        rc = dna_reverse_complement
    return all((r := rc(s)) in seqs and r != s for s in seqs)


def test_packed_rc_condition_matches_string_condition(small_codes):
    # Catalog codes, plus random word sets, some closed under one of the
    # two reverse complements so that both verdicts occur.
    rng = random.Random(5)
    codes = list(small_codes)
    for _ in range(400):
        n = rng.randrange(1, 5)
        words = [tuple(rng.choices(ALL_ELEMENTS, k=n)) for _ in range(rng.randrange(1, 6))]
        closure = rng.choice(GRANULARITIES + (None,))
        if closure == "symbol":
            words += [reverse_complement_word(w) for w in words]
        elif closure == "nucleotide":
            strands = [dna_reverse_complement(theta_image(w)) for w in words]
            words += [
                tuple(RingElement.from_codon(s[i : i + 2]) for i in range(0, 2 * n, 2))
                for s in strands
            ]
        codes.append(Code(n, map(encode_word, words)))
    verdicts = Counter()
    for code in codes:
        for granularity in GRANULARITIES:
            verdict = _rc_condition(code, granularity)
            assert verdict == string_rc_condition(code, granularity)
            verdicts[granularity, verdict] += 1
    assert len(verdicts) == 4


def tuple_symbol_sweep(code):
    """First pair attaining the maximum LCS over code.codewords, in order,
    stopping at the n - 1 ceiling; returns (max, pair, pairs examined)."""
    words = code.codewords
    best, pair, examined = -1, None, 0
    for i, j in itertools.combinations(range(len(words)), 2):
        examined += 1
        s = lcs_length(words[i], words[j])
        if s > best:
            best, pair = s, (words[i], words[j])
            if best == code.n - 1:
                break
    return best, pair, examined


def test_symbol_similarity_matches_tuple_sweep(small_codes):
    # The first code of each (n, cardinality) from 4 to 256 words.
    firsts = {}
    for code in small_codes:
        if 4 <= code.cardinality <= 256:
            firsts.setdefault((code.n, code.cardinality), code)
    assert len(firsts) == 9
    for code in firsts.values():
        report = code_similarity_report(code, "symbol")
        best, pair, examined = tuple_symbol_sweep(code)
        assert report.max_similarity == best
        assert report.achieving_pair == pair
        assert report.pairs_examined == examined
