"""Reversibility and reverse-complement analysis of enumerated codes.

Two independent sources of truth are kept side by side: the exact verdict
on the code (reported as ``brute_force``) and polynomial condition checks on
the generators.  One checker builds the conditions for either arity, before
any enumeration, and returns them with the verdict and an agreement flag, so
a divergence is recorded rather than hidden.  It is reached through
reversible_check and reverse_complement_check; the report's kind names the
arity.

The verdict scans no words.  Reversal maps x^i * g to a cyclic shift of
rev(g) and commutes with addition and u, so the code is reversible iff it
holds rev(g) for each generator word g; rc(w) = (1+u)*1 - rev(w), so it is
rc-closed iff it also holds (1+u)*1.  The word-scan oracles
is_reversible_bruteforce and is_rc_closed_bruteforce stay for the tests.

The oracles and the GC spectrum run on packed words through the transforms
in codes; the tuple transforms here (reverse_word, theta_image, ...) serve
the library API and are the tests' independent reference for them.

DNA images: theta maps each coordinate to its 2-letter codon and
concatenates (length 2n); phi writes all a-digits then all b-digits as
letters (length 2n).  Published example tables match theta.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .codes import (
    Code,
    CodeSpec,
    Codeword,
    DEFAULT_ENUMERATION_CAP,
    SpecError,
    constant_word,
    gc_count_packed,
    reverse_complement_packed,
    reverse_packed,
)
from .polynomials import PolyR
from .ring import NUCLEOTIDES, NUCLEOTIDE_COMPLEMENT, RingElement

#: Constant coordinate value of the complement of the zero word: 3*(1+u).
COMPLEMENT_MEMBERSHIP_ELEMENT = RingElement(3, 3)


# -- word-level transforms ------------------------------------------------------


def reverse_word(word: Codeword) -> Codeword:
    return tuple(reversed(word))


def complement_word(word: Codeword) -> Codeword:
    return tuple(e.complement() for e in word)


def reverse_complement_word(word: Codeword) -> Codeword:
    return tuple(e.complement() for e in reversed(word))


# -- DNA-string transforms ------------------------------------------------------


def dna_complement(strand: str) -> str:
    return "".join(NUCLEOTIDE_COMPLEMENT[c] for c in strand)


def dna_reverse_complement(strand: str) -> str:
    return "".join(NUCLEOTIDE_COMPLEMENT[c] for c in reversed(strand))


def theta_image(word: Codeword) -> str:
    """Per-coordinate codons, concatenated: length 2n."""
    return "".join(e.theta() for e in word)


def phi_image(word: Codeword) -> str:
    """All a-digits as letters, then all b-digits: length 2n."""
    return "".join(NUCLEOTIDES[e.a] for e in word) + "".join(
        NUCLEOTIDES[e.b] for e in word
    )


def gc_content(strand: str) -> int:
    return sum(1 for c in strand if c in "GC")


def gc_spectrum(code: Code) -> dict[int, int]:
    """Multiplicity of each GC count over the code's DNA images.

    theta and phi images hold the same letters, so one spectrum serves both.
    """
    counts = Counter(gc_count_packed(w, code.n) for w in code.packed)
    return dict(sorted(counts.items()))


# -- brute-force oracles ---------------------------------------------------------


def is_reversible_bruteforce(code: Code) -> bool:
    return all(reverse_packed(w, code.n) in code for w in code.packed)


def is_rc_closed_bruteforce(code: Code) -> bool:
    return all(reverse_complement_packed(w, code.n) in code for w in code.packed)


# -- generator condition checks ---------------------------------------------------


@dataclass
class ConditionReport:
    """Outcome of one checker: named conditions, the combined verdict they
    imply, the exact verdict on the code, and agreement."""

    kind: str
    conditions: dict[str, bool]
    theorem_verdict: bool
    brute_force: bool
    agreement: bool
    witnesses: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "conditions": dict(self.conditions),
            "theorem_verdict": self.theorem_verdict,
            "brute_force": self.brute_force,
            "agreement": self.agreement,
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
        }


def _generator_conditions(spec: CodeSpec):
    """The generator conditions in report order, their witnesses, and the
    verdict they imply for reversibility.

    Single generator: g1 self reciprocal, and either x^gap * reciprocal(g2)
    = g2 (evaluated literally; the variant folded mod x^n - 1 is reported
    alongside) or g1 = x^gap * reciprocal(g2) + g2.  Two generators: g1 and
    g3 self reciprocal, and g3 divides x^gap * reciprocal(g2) - g2 in R[x].
    Here gap = deg g1 - deg g2, and a zero g2 satisfies the g2 conditions.
    """
    g1, g2, g3 = spec.g1, spec.g2, spec.g3
    conditions: dict[str, bool] = {}
    witnesses: dict = {}
    for name, g in (("g1", g1), ("g3", g3)):
        if g is not None:
            unit = g.self_reciprocal_witness()
            conditions[f"{name}_self_reciprocal"] = unit is not None
            if unit is not None:
                witnesses[f"{name}_reciprocal_unit"] = unit
    reciprocal = all(conditions.values())
    shifted = None
    if not g2.is_zero:
        gap = g1.degree - g2.degree
        if gap < 0:
            raise SpecError(
                f"checker requires deg g2 <= deg g1 (got {g2.degree} > {g1.degree})"
            )
        witnesses["degree_gap"] = gap
        shifted = PolyR.monomial(gap) * g2.reciprocal()
    if g3 is None:
        fixed = shifted is None or shifted == g2
        conditions["g2_shift_reciprocal_equals_g2"] = fixed
        conditions["g2_shift_reciprocal_equals_g2_mod_fold"] = (
            shifted is None
            or shifted.mod_xn_minus_1(spec.n) == g2.mod_xn_minus_1(spec.n)
        )
        summed = shifted is not None and g1.to_ring_poly() == shifted + g2
        conditions["g1_equals_shift_reciprocal_plus_g2"] = summed
        g2_holds = fixed or summed
    else:
        g2_holds = True
        if shifted is not None:
            quotient, remainder = (shifted - g2).divmod_monic(g3.to_ring_poly())
            g2_holds = remainder.is_zero
            if g2_holds:
                witnesses["division_quotient"] = quotient
        conditions["g3_divides_shift_reciprocal_minus_g2"] = g2_holds
    return conditions, witnesses, reciprocal and g2_holds


def _check(spec: CodeSpec, code: "Code | None", cap: int, rc: bool) -> ConditionReport:
    """The one checker, for either arity: generator conditions first, then
    the code (built only when not given) for the membership condition and the
    exact verdict.

    rc adds membership of the constant word with every coordinate 3*(1+u)
    to the reversibility conditions.  A given code must be the spec's own
    (ValueError unless it is an ideal of the spec's size holding every
    generator word).  Every CLI path passes Code.from_spec(spec); if one ever
    did not, the CLI would exit 4.
    """
    spec.require_valid()
    conditions, witnesses, verdict = _generator_conditions(spec)
    gens = spec.generator_words
    if code is None:
        code = Code.from_spec(spec, cap=cap)
    elif not (
        code.n == spec.n and code.cardinality == spec.cardinality
        and all(g in code for g in gens) and code.is_ideal()
    ):
        raise ValueError(f"the code given is not the code of {spec.describe()}")
    brute = all(reverse_packed(g, spec.n) in code for g in gens)
    if rc:
        member = constant_word(COMPLEMENT_MEMBERSHIP_ELEMENT, code.n) in code
        conditions["complement_constant_in_code"] = member
        verdict = verdict and member
        brute = brute and member
    arity = "single" if spec.is_single_generator else "two"
    return ConditionReport(
        kind=f"{'reverse-complement' if rc else 'reversible'}-{arity}-generator",
        conditions=conditions,
        theorem_verdict=verdict,
        brute_force=brute,
        agreement=verdict == brute,
        witnesses=witnesses,
    )


def reversible_check(
    spec: CodeSpec, code: "Code | None" = None, cap: int = DEFAULT_ENUMERATION_CAP
) -> ConditionReport:
    """Reversibility conditions next to brute force, for either arity."""
    return _check(spec, code, cap, rc=False)


def reverse_complement_check(
    spec: CodeSpec, code: "Code | None" = None, cap: int = DEFAULT_ENUMERATION_CAP
) -> ConditionReport:
    """Reverse-complement conditions next to brute force, for either arity."""
    return _check(spec, code, cap, rc=True)
