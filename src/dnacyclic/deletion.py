"""Deletion similarity (longest common subsequence) metrics on codes.

The similarity S(X, Y) of two sequences is the length of their longest
common subsequence; the deletion distance of a code whose sequences have
length L is D = L - 1 - max S(X, Y) over distinct pairs.  Both metrics are
computed at a chosen granularity:

  symbol      the length-n words over the ring (one symbol per coordinate),
  nucleotide  the length-2n theta images over the DNA alphabet.

The maximum over a code is found in two stages.  Two distinct strings of
length L have LCS >= L - 1 exactly when some one-symbol deletion of each
gives the same string (their 1-deletion balls meet, Levenshtein 1966), so
stage 1 hashes every word's 1-deletion variants and looks for one that two
words share.  Only when none is shared does stage 2 run the dynamic-
programming pair sweep, which may then stop at the first pair reaching
L - 2.  Either way the report equals that of a plain sweep over the pairs in
order: same maximum, same first achieving pair, same pairs_examined.

The bond count of a strand against the reverse complement of another equals
their similarity, so hybridization_energy is an alias built on the string
reverse complement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import (
    Code,
    decode_word,
    reverse_complement_packed,
    theta_packed,
    u_times_packed,
)
from .constraints import dna_reverse_complement

#: Default bound on the number of sequence pairs examined per report.
DEFAULT_PAIR_CAP = 250_000

GRANULARITIES = ("symbol", "nucleotide")


class PairCapExceeded(RuntimeError):
    """A pairwise sweep would examine more pairs than the configured cap."""


def lcs_length(x, y) -> int:
    """Longest-common-subsequence length, O(len(x)*len(y)) rolling rows."""
    if len(x) < len(y):
        x, y = y, x
    prev = [0] * (len(y) + 1)
    for xi in x:
        cur = [0]
        for j, yj in enumerate(y, start=1):
            if xi == yj:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def deletion_similarity(x, y) -> int:
    """S(X, Y): the longest-common-subsequence length."""
    return lcs_length(x, y)


def hybridization_energy(x: str, y: str) -> int:
    """Bond count of strand x against strand y when they anneal.

    Matched positions pair where x runs along the reverse complement of y,
    so this is deletion_similarity(x, reverse_complement(y)).
    """
    return deletion_similarity(x, dna_reverse_complement(y))


def _sequences(code: Code, granularity: str):
    """Each word as an LCS input: its coordinate bytes at symbol granularity
    (equal bytes are equal ring elements), its theta image at nucleotide."""
    if granularity == "symbol":
        return [w.to_bytes(code.n, "big") for w in code.packed]
    return [theta_packed(w, code.n) for w in code.packed]


@dataclass
class SimilarityReport:
    """Max pairwise deletion similarity of a code at one granularity."""

    granularity: str
    sequence_length: int
    max_similarity: int
    achieving_pair: tuple
    deletion_distance: int
    pairs_examined: int

    def describe(self) -> dict:
        def render(seq):
            return seq if isinstance(seq, str) else " ".join(str(e) for e in seq)

        return {
            "granularity": self.granularity,
            "sequence_length": self.sequence_length,
            "max_similarity": self.max_similarity,
            "achieving_pair": [render(s) for s in self.achieving_pair],
            "deletion_distance": self.deletion_distance,
            "pairs_examined": self.pairs_examined,
        }


def _first_pair_sharing_a_deletion(seqs):
    """The first pair (i, j), i < j, in sweep order whose words share a
    1-deletion variant, or None.

    Each variant maps to the first word holding it.  The first pair in sweep
    order is the lexicographic minimum of (first holder, later holder) over
    all shared variants: if (i, j) shares v and v's first holder h were
    below i, then (h, j) would share v and come earlier.
    """
    first_holder: dict = {}
    best = None
    for j, seq in enumerate(seqs):
        for k in range(len(seq)):
            i = first_holder.setdefault(seq[:k] + seq[k + 1 :], j)
            if i != j and (best is None or (i, j) < best):
                best = (i, j)
    return best


def _sweep(seqs, ceiling: int):
    """Max LCS over pairs in order and the first pair attaining it, stopping
    at the first pair that reaches ``ceiling``."""
    best = -1
    best_pair = None
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            s = lcs_length(seqs[i], seqs[j])
            if s > best:
                best = s
                best_pair = (i, j)
                if best == ceiling:
                    return best, best_pair
    return best, best_pair


def max_pairwise_similarity(seqs) -> tuple:
    """(max S, first achieving pair (i, j), pairs_examined) over distinct
    equal-length sequences, at least two of them.

    pairs_examined is the number of pairs, in the order (0, 1), (0, 2), ...,
    (1, 2), ..., that a sweep stopping at the ceiling L - 1 would examine:
    through the achieving pair when the maximum is L - 1, all of them
    otherwise.
    """
    size, length = len(seqs), len(seqs[0])
    pair = _first_pair_sharing_a_deletion(seqs)
    if pair is not None:
        i, j = pair
        return length - 1, pair, i * (size - 1) - i * (i - 1) // 2 + (j - i)
    # No pair reaches L - 1, so the first pair reaching L - 2 attains the
    # maximum; the sweep falls back to every pair only when none does.
    best, pair = _sweep(seqs, ceiling=length - 2)
    return best, pair, size * (size - 1) // 2


def code_similarity_report(
    code: Code, granularity: str = "symbol", pair_cap: int = DEFAULT_PAIR_CAP
) -> SimilarityReport:
    """Max S over distinct codeword pairs and D = L - 1 - max S.

    Deterministic: sequences follow the code's sorted word order and the
    reported pair is the first one attaining the maximum.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
        )
    size = code.cardinality
    if size < 2:
        raise ValueError("similarity report needs a code with at least 2 words")
    n_pairs = size * (size - 1) // 2
    if n_pairs > pair_cap:
        raise PairCapExceeded(f"{n_pairs} pairs exceed the cap of {pair_cap}")
    seqs = _sequences(code, granularity)
    length = len(seqs[0])
    best, best_pair, examined = max_pairwise_similarity(seqs)
    if granularity == "symbol":
        achieving = tuple(decode_word(code.packed[k], code.n) for k in best_pair)
    else:
        achieving = tuple(seqs[k] for k in best_pair)
    return SimilarityReport(
        granularity=granularity,
        sequence_length=length,
        max_similarity=best,
        achieving_pair=achieving,
        deletion_distance=length - 1 - best,
        pairs_examined=examined,
    )


def _code_report(code, granularity, pair_cap, similarity):
    """``similarity`` if given (checked against the granularity), else the
    code's report computed now."""
    if similarity is None:
        return code_similarity_report(code, granularity=granularity, pair_cap=pair_cap)
    if similarity.granularity != granularity:
        raise ValueError(
            f"a {similarity.granularity} report was given for {granularity} granularity"
        )
    return similarity


@dataclass
class DnaCodeReport:
    """Per-condition breakdown of the (length, D) DNA-code predicate."""

    granularity: str
    sequence_length: int
    required_distance: int
    closed_under_module_ops: bool
    rc_closed_without_fixed_points: bool
    similarity_within_bound: bool
    max_similarity: int

    @property
    def is_dna_code(self) -> bool:
        return (
            self.closed_under_module_ops
            and self.rc_closed_without_fixed_points
            and self.similarity_within_bound
        )

    def describe(self) -> dict:
        return {
            "granularity": self.granularity,
            "sequence_length": self.sequence_length,
            "required_distance": self.required_distance,
            "closed_under_module_ops": self.closed_under_module_ops,
            "rc_closed_without_fixed_points": self.rc_closed_without_fixed_points,
            "similarity_within_bound": self.similarity_within_bound,
            "max_similarity": self.max_similarity,
            "is_dna_code": self.is_dna_code,
        }


def _rc_condition(code: Code, granularity: str) -> bool:
    """Every sequence's reverse complement is another sequence of the code.

    The DNA reverse complement of theta(w) is theta(u * rc(w)): reversing
    the 2n letters also swaps the two letters of each codon."""
    n = code.n

    def rc(w: int) -> int:
        r = reverse_complement_packed(w, n)
        return r if granularity == "symbol" else u_times_packed(r, n)

    return all((r := rc(w)) != w and r in code for w in code.packed)


def dna_code_report(
    code: Code,
    required_distance: int,
    granularity: str = "symbol",
    pair_cap: int = DEFAULT_PAIR_CAP,
    similarity: "SimilarityReport | None" = None,
) -> DnaCodeReport:
    """Check the three defining conditions of a DNA code with distance D:
    module closure (cyclic + additive + scalar), reverse-complement closure
    with no fixed point, and S(X, Y) <= L - D - 1 for all distinct pairs.

    ``similarity``, the code's report at this granularity if already
    computed, saves computing it again.
    """
    report = _code_report(code, granularity, pair_cap, similarity)
    return DnaCodeReport(
        granularity=granularity,
        sequence_length=report.sequence_length,
        required_distance=required_distance,
        closed_under_module_ops=code.is_ideal(),
        rc_closed_without_fixed_points=_rc_condition(code, granularity),
        similarity_within_bound=report.max_similarity
        <= report.sequence_length - required_distance - 1,
        max_similarity=report.max_similarity,
    )


@dataclass
class SubcodeDistanceReport:
    """Deletion distance of a code next to that of its subcode of 1+u
    multiples, at one granularity."""

    granularity: str
    code_distance: int
    subcode_distance: int
    subcode_cardinality: int

    @property
    def equal(self) -> bool:
        return self.code_distance == self.subcode_distance

    def describe(self) -> dict:
        return {
            "granularity": self.granularity,
            "code_distance": self.code_distance,
            "subcode_distance": self.subcode_distance,
            "subcode_cardinality": self.subcode_cardinality,
            "equal": self.equal,
        }


def subcode_deletion_distance_check(
    code: Code,
    granularity: str = "symbol",
    pair_cap: int = DEFAULT_PAIR_CAP,
    similarity: "SimilarityReport | None" = None,
) -> SubcodeDistanceReport:
    """D of the code and D of its 1+u-multiples subcode, side by side.

    Raises if either the code or the subcode has fewer than 2 words, since
    the distance is a pairwise quantity.  ``similarity``, the code's report
    at this granularity if already computed, saves computing it again.
    """
    subcode = code.subcode_one_plus_u()
    if subcode.cardinality < 2:
        raise ValueError(
            f"subcode of 1+u multiples has {subcode.cardinality} word(s); "
            "deletion distance needs at least 2"
        )
    code_report = _code_report(code, granularity, pair_cap, similarity)
    sub_report = code_similarity_report(subcode, granularity=granularity, pair_cap=pair_cap)
    return SubcodeDistanceReport(
        granularity=granularity,
        code_distance=code_report.deletion_distance,
        subcode_distance=sub_report.deletion_distance,
        subcode_cardinality=subcode.cardinality,
    )
