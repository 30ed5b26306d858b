"""Cyclic DNA codes of odd length over the ring Z4 + u*Z4 with u^2 = 1.

Exact arithmetic only: ring elements, polynomials over Z4 and over the ring,
factorization of x^n - 1, code enumeration, reversibility and
reverse-complement checks against brute-force oracles, GC-content spectra,
and deletion (longest-common-subsequence) metrics.
"""

from .codes import (
    Code,
    CodeSpec,
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    SpecError,
    constant_word,
    decode_word,
    encode_word,
)
from .constraints import (
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
from .deletion import (
    DEFAULT_PAIR_CAP,
    DnaCodeReport,
    PairCapExceeded,
    SimilarityReport,
    SubcodeDistanceReport,
    code_similarity_report,
    deletion_similarity,
    dna_code_report,
    hybridization_energy,
    lcs_length,
    subcode_deletion_distance_check,
)
from .polynomials import (
    MAX_N_DEFAULT,
    PolyR,
    PolyZ4,
    all_monic_divisors,
    cyclotomic_cosets,
    factor_xn_minus_1_mod2,
    factor_xn_minus_1_z4,
    graeffe_lift,
)
from .ring import (
    ALL_ELEMENTS,
    IDEAL_ONE_PLUS_U,
    NUCLEOTIDES,
    ONE,
    ONE_PLUS_U,
    RingElement,
    THETA_TABLE,
    U,
    UNITS,
    ZERO,
)

__version__ = "0.1.0"
