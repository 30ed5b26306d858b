"""Cyclic codes of odd length n over Z4 + u*Z4, u^2 = 1.

A code is the ideal of R[x]/(x^n - 1) generated by g1(x) + (1+u)g2(x) and,
when g3 is present, (1+u)g3(x), with g1 and g3 monic over Z4 and
g3 | g1 | x^n - 1 mod 2.  As a Z4-module the ideal is spanned by the rows
x^i*g and x^i*(u*g) of each generator g (every scalar a + bu is a*1 + b*u),
so enumeration is the Z4-span of those 2n rows per generator, with no
further structural assumptions.

Codewords are length-n tuples of ring elements in the library API.  Every
analysis works on the packed form instead: one byte per coordinate (high
nibble a, low nibble b, coordinate 0 in the most significant byte), so that
vector addition is a single masked integer addition, sorting packed words is
the lexicographic order on (a, b) pairs, and each word transform below is a
C-level operation or two on the integer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .polynomials import PolyR, PolyZ4
from .ring import NUCLEOTIDES, ONE_PLUS_U, RingElement

Codeword = tuple[RingElement, ...]

#: Default bound on code size during enumeration.
DEFAULT_ENUMERATION_CAP = 1 << 20


class SpecError(ValueError):
    """A code spec violates a structural requirement."""


class EnumerationCapExceeded(RuntimeError):
    """A code has more words than the configured word cap."""


# Byte-level tables for packed words.  Valid coordinate bytes are
# (a << 4) | b with a, b in 0..3; addition needs the 0b0011 mask per nibble.
_ADD_NIBBLE_MASK = 0x33

_THETA_LETTERS = str.maketrans("0123", NUCLEOTIDES)


def encode_word(word: Codeword) -> int:
    acc = 0
    for e in word:
        acc = (acc << 8) | (e.a << 4) | e.b
    return acc


def decode_word(packed: int, n: int) -> Codeword:
    raw = packed.to_bytes(n, "big")
    return tuple(RingElement(byte >> 4, byte & 0x0F) for byte in raw)


def _poly_to_packed(p: PolyR, n: int) -> int:
    reduced = p.mod_xn_minus_1(n)
    coeffs = list(reduced.coeffs) + [RingElement(0)] * (n - len(reduced.coeffs))
    return encode_word(tuple(coeffs))


def _rotate(packed: int, n: int) -> int:
    """x * c(x): coordinate i moves to i+1 (mod n)."""
    return (packed >> 8) | ((packed & 0xFF) << (8 * (n - 1)))


def _word_weight(packed: int, n: int) -> int:
    """Hamming weight: the four digit bits of each byte (0, 1, 4, 5) are
    folded onto bit 0, which is then set exactly when the byte is nonzero."""
    w = packed
    return ((w | w >> 1 | w >> 4 | w >> 5) & _every_byte(0x01, n)).bit_count()


@functools.lru_cache(maxsize=None)
def _every_byte(byte: int, n: int) -> int:
    """The packed length-n word whose coordinate bytes all equal byte."""
    return int.from_bytes(bytes([byte]) * n, "big")


def reverse_packed(packed: int, n: int) -> int:
    return int.from_bytes(packed.to_bytes(n, "big")[::-1], "big")


def reverse_complement_packed(packed: int, n: int) -> int:
    """The reversed word of coordinatewise complements (1+u) - x; on each
    Z4 digit 1 - d (mod 4) is d ^ 1."""
    return reverse_packed(packed ^ _every_byte(0x11, n), n)


def u_times_packed(packed: int, n: int) -> int:
    """u * w: each coordinate a + ub becomes b + ua, i.e. the two nibbles of
    every byte swap."""
    low = _every_byte(0x0F, n)
    return ((packed >> 4) & low) | ((packed & low) << 4)


def theta_packed(packed: int, n: int) -> str:
    """The theta image: each hex digit is one Z4 digit, mapped to its letter."""
    return packed.to_bytes(n, "big").hex().translate(_THETA_LETTERS)


def gc_count_packed(packed: int, n: int) -> int:
    """GC count of the theta (equally, phi) image: G and C are the digits
    2 and 3, exactly those with bit 1 set."""
    return (packed & _every_byte(0x22, n)).bit_count()


def is_one_plus_u_multiple_packed(packed: int, n: int) -> bool:
    """Every coordinate a + ub has a == b, i.e. lies in the ideal (1+u)."""
    low = _every_byte(0x0F, n)
    return (packed >> 4) & low == packed & low


def _howell_basis(rows, n: int) -> "list[tuple[int, int]]":
    """A Howell basis (Howell, "Spans in the module (Z_m)^s", 1986) of the
    Z4-span of packed rows, as (row, order) pairs: each row has its own
    leading digit, 1 (order 4) or 2 (order 2).  A row led by 2 also reduces
    its double, and a unit-led row displaces a row led by 2, which is then
    reduced less twice the new row.  So the sums of t_i * b_i, t_i below
    b_i's order, are the span, each once.  No digit passes 12 before the
    mask, so t * w is a scalar multiple and x - t*b is x + (4 - t)*b."""
    mask = _every_byte(_ADD_NIBBLE_MASK, n)
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            k = (r.bit_length() - 1) >> 2
            d = (r >> 4 * k) & 3
            b = basis.get(k, 0)
            pivot = (b >> 4 * k) & 3
            if pivot and not (pivot == 2 and d & 1):
                r = (r + (4 - d // pivot) * b) & mask
                continue
            if d & 1:
                r = (d * r) & mask  # leading digit d * d = 1 (mod 4)
            basis[k] = r
            if d == 2:
                r = (2 * r) & mask
            elif b:
                r = (b + 2 * r) & mask
            else:
                break
    return [(b, 4 if (b >> 4 * k) & 1 else 2) for k, b in basis.items()]


def _ideal_rows(words, n: int) -> "list[int]":
    """The rows x^i*w and x^i*(u*w) of each packed word w: their Z4-span is
    the ideal the words generate, since every scalar a + bu is a*1 + b*u."""
    rows = []
    for packed in words:
        for _ in range(n):
            rows += (packed, u_times_packed(packed, n))
            packed = _rotate(packed, n)
    return rows


def _z4_span(basis, n: int) -> "list[int]":
    """The Z4-span of a Howell basis, each word once: the sums of t * b over
    its (b, order) pairs with t below the order."""
    mask = _every_byte(_ADD_NIBBLE_MASK, n)
    span = [0]
    for b, order in basis:
        span = [(w + m) & mask for m in [t * b for t in range(order)] for w in span]
    return span


@dataclass(frozen=True)
class CodeSpec:
    """Generator data (n, g1, g2, optional g3) for a cyclic code.

    Absent g3 is the single-generator form; its checkers treat g3 as g1.
    """

    n: int
    g1: PolyZ4
    g2: PolyR = field(default_factory=PolyR)
    g3: "PolyZ4 | None" = None
    strict_z4_divisibility: bool = False

    @property
    def is_single_generator(self) -> bool:
        return self.g3 is None

    def validate(self) -> list[str]:
        """All violated structural conditions, one message each."""
        problems: list[str] = []
        if self.n < 1 or self.n % 2 == 0:
            problems.append(f"n must be odd and positive, got {self.n}")
            return problems
        if not self.g1.is_monic:
            problems.append(f"g1 must be monic, got {self.g1}")
        if self.g3 is not None and not self.g3.is_monic:
            problems.append(f"g3 must be monic, got {self.g3}")
        xn1 = PolyZ4.xn_minus_1(self.n)
        if self.g1.is_monic:
            if not self.g1.divides_mod2(xn1):
                problems.append(f"g1 = {self.g1} does not divide x^{self.n} - 1 mod 2")
            if self.strict_z4_divisibility and not self.g1.divides(xn1):
                problems.append(f"g1 = {self.g1} does not divide x^{self.n} - 1 over Z4")
        if self.g3 is not None and self.g3.is_monic:
            if not self.g3.divides_mod2(self.g1):
                problems.append(f"g3 = {self.g3} does not divide g1 = {self.g1} mod 2")
            if self.strict_z4_divisibility and not self.g3.divides(self.g1):
                problems.append(f"g3 = {self.g3} does not divide g1 = {self.g1} over Z4")
        return problems

    def require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise SpecError("; ".join(problems))

    def generator_polys(self) -> list[PolyR]:
        gens = [self.g1.to_ring_poly() + self.g2 * ONE_PLUS_U]
        if self.g3 is not None:
            gens.append(self.g3.to_ring_poly() * ONE_PLUS_U)
        return gens

    @functools.cached_property
    def generator_words(self) -> "tuple[int, ...]":
        """The generators as packed words, reduced mod x^n - 1."""
        return tuple(_poly_to_packed(g, self.n) for g in self.generator_polys())

    @functools.cached_property
    def basis(self) -> "tuple[tuple[int, int], ...]":
        """The Howell basis of the spec's code, as (row, order) pairs."""
        return tuple(_howell_basis(_ideal_rows(self.generator_words, self.n), self.n))

    @functools.cached_property
    def cardinality(self) -> int:
        """The size of the spec's code; no word is built."""
        return math.prod(order for _, order in self.basis)

    def sort_key(self):
        g2_key = tuple(c.pair for c in self.g2.coeffs)
        g3_key = self.g3.coeffs if self.g3 is not None else None
        return (
            self.n,
            len(self.g1.coeffs),
            self.g1.coeffs,
            0 if g3_key is None else 1,
            g3_key or (),
            len(g2_key),
            g2_key,
        )

    def describe(self) -> dict:
        return {
            "n": self.n,
            "g1": str(self.g1),
            "g2": str(self.g2),
            "g3": None if self.g3 is None else str(self.g3),
            "strict_z4_divisibility": self.strict_z4_divisibility,
        }


class Code:
    """A set of length-n words, kept sorted in packed form.  Codes built by
    from_spec are the Z4-span of the generator rows, hence ideals; is_ideal
    checks the module operations on any other word set."""

    #: True on ideals by construction: from_spec, and their 1+u subcodes.
    _known_ideal = False

    def __init__(self, n: int, packed_words) -> None:
        self.n = n
        self.packed = tuple(sorted(set(packed_words)))
        self._packed_set = frozenset(self.packed)

    @classmethod
    def from_spec(cls, spec: CodeSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> "Code":
        spec.require_valid()
        if spec.cardinality > cap:
            raise EnumerationCapExceeded(f"code exceeds the {cap}-word enumeration cap")
        code = cls(spec.n, _z4_span(spec.basis, spec.n))
        code._known_ideal = True
        return code

    # -- basic views ----------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return len(self.packed)

    @functools.cached_property
    def codewords(self) -> tuple[Codeword, ...]:
        """All codewords, sorted lexicographically by (a, b) pairs."""
        return tuple(decode_word(w, self.n) for w in self.packed)

    def __contains__(self, word) -> bool:
        if isinstance(word, int):
            return word in self._packed_set
        return encode_word(tuple(word)) in self._packed_set

    def __iter__(self):
        return iter(self.codewords)

    def __len__(self) -> int:
        return len(self.packed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.n == other.n and self.packed == other.packed

    def __hash__(self) -> int:
        return hash((self.n, self.packed))

    def __repr__(self) -> str:
        return f"<Code n={self.n} words={self.cardinality}>"

    # -- metrics ---------------------------------------------------------------

    @functools.cached_property
    def weight_enumerator(self) -> tuple[int, ...]:
        """Counts A_i of codewords of Hamming weight i, i = 0..n."""
        counts = [0] * (self.n + 1)
        for w in self.packed:
            counts[_word_weight(w, self.n)] += 1
        return tuple(counts)

    @functools.cached_property
    def min_hamming_distance(self) -> "int | None":
        """Minimum distance between two distinct words, None under 2 words:
        the minimum nonzero weight for an ideal (closed under subtraction),
        and the minimum over every pair for any other word set."""
        if not self.is_ideal():
            pairs = itertools.combinations(self.packed, 2)
            return min((_word_weight(a ^ b, self.n) for a, b in pairs), default=None)
        nonzero = [i for i in range(1, self.n + 1) if self.weight_enumerator[i]]
        return min(nonzero) if nonzero else None

    def subcode_one_plus_u(self) -> "Code":
        """The subcode of words that are multiples of 1+u, i.e. words whose
        every coordinate lies in the ideal generated by 1+u."""
        kept = [w for w in self.packed if is_one_plus_u_multiple_packed(w, self.n)]
        subcode = Code(self.n, kept)
        subcode._known_ideal = self._known_ideal  # the meet of two ideals
        return subcode

    def is_ideal(self) -> bool:
        """True iff the word set is closed under addition, the scalars of R
        and x*, i.e. is an ideal of R[x]/(x^n - 1): the Z4-span of the words
        holds them, so is them iff it has |S| words, and R is spanned over Z4
        by 1 and u, so closure under u* gives closure under every scalar.
        Codes that are ideals by construction skip the test."""
        if self._known_ideal:
            return True
        n, words = self.n, self._packed_set
        return all(
            u_times_packed(w, n) in words and _rotate(w, n) in words for w in words
        ) and math.prod(order for _, order in _howell_basis(words, n)) == len(words)

    def describe(self) -> dict:
        return {
            "cardinality": self.cardinality,
            "min_hamming_distance": self.min_hamming_distance,
            "weight_enumerator": list(self.weight_enumerator),
        }


def constant_word(element: RingElement, n: int) -> Codeword:
    return tuple([element] * n)
