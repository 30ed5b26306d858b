"""Polynomials over Z4 and over Z4 + u*Z4, and the factorization of x^n - 1.

Coefficient lists are dense and ascending (index i holds the coefficient of
x^i) with trailing zeros trimmed; the zero polynomial has an empty list and
degree None.  One body serves both rings: PolyZ4 and PolyR share every
arithmetic method and differ only in how a coefficient is parsed and
reduced, in their scalars and units, and in what is specific to Z4 (the
mod-2 image, evaluation, x^n - 1, the signed power form).  The text grammar is the bracket form "[c0,c1,...]": Z4 entries
are integers, ring entries are "a+bu" or "(a,b)", e.g. "[3,1]" is x+3 and
"[(1,0),(1,1)]" is 1 + (1+u)x.

x^n - 1 (n odd) is factored mod 2 by splitting with idempotents (MacWilliams
and Sloane, The Theory of Error-Correcting Codes, ch. 8): the coset
polynomial e_C = sum of x^i over a 2-cyclotomic coset C satisfies e_C^2 = e_C
mod x^n - 1, so every irreducible factor divides exactly one of e_C and
e_C + 1, and gcds with the e_C of all cosets separate every pair of factors.
x^n - 1 is squarefree for odd n, so ending with one piece per coset proves
each piece irreducible.  Each factor is then lifted to Z4 by one Graeffe
step: f(x)*f(-x) is a polynomial in x^2, and substituting y for x^2 (with
the sign fixed to keep the result monic) gives the unique monic lift.  The
products of the pieces and of the lifts are checked before returning.
"""

from __future__ import annotations

import functools

from .ring import ONE, UNITS, RingElement

#: Default bound on the code length n accepted by the factor routines.
#: Enumeration cost downstream grows fast; callers may pass a larger bound.
MAX_N_DEFAULT = 31

Z4_UNITS = (1, 3)


def _split_bracket_list(text: str) -> list[str]:
    """Split "[a,b,...]" on top-level commas, tolerating "(a,b)" entries."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected a bracketed coefficient list: {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return []
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    parts.append(inner[start:])
    return [p.strip() for p in parts]


def _ring_coeff(c: "RingElement | int") -> RingElement:
    return c if isinstance(c, RingElement) else RingElement(c)


class _Poly:
    """The dense arithmetic shared by PolyZ4 and PolyR.

    A subclass names its coefficient ring through four class attributes:
    _parse reads one bracket-list entry, _reduce maps any sum or product of
    coefficients to its canonical ring element, _scalars are the types
    accepted by scalar multiplication and _units are the ring's units.
    Intermediate sums may be left unreduced; the constructor reduces them.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        cs = list(map(self._reduce, coeffs))
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_string(cls, text: str):
        return cls([cls._parse(p) for p in _split_bracket_list(text)])

    @classmethod
    def monomial(cls, degree: int, coeff=1):
        return cls([0] * degree + [coeff])

    # -- basic structure ------------------------------------------------------

    @property
    def degree(self) -> "int | None":
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(out)

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return type(self)([c * other for c in self.coeffs])
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return type(self)()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + ci * cj
        return type(self)(out)

    def __rmul__(self, other):
        return self * other

    def divmod_monic(self, divisor):
        """Long division by a monic divisor; returns (quotient, remainder)."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if not divisor.is_monic:
            raise ValueError(f"divisor must be monic, got {divisor}")
        cls = type(self)
        dd = divisor.degree
        rem = list(self.coeffs)
        if len(rem) <= dd:
            return cls(), self
        q = [0] * (len(rem) - dd)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = self._reduce(rem[k + dd])
            if c:
                q[k] = c
                for j, dj in enumerate(divisor.coeffs):
                    rem[k + j] = rem[k + j] - c * dj
        return cls(q), cls(rem)

    def divides(self, other) -> bool:
        """True iff self (monic) divides other exactly."""
        return other.divmod_monic(self)[1].is_zero

    def mod_xn_minus_1(self, n: int):
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i % n] = out[i % n] + c
        return type(self)(out)

    def reciprocal(self):
        """x^deg(f) * f(1/x): the coefficient sequence reversed (0 -> 0)."""
        return type(self)(list(reversed(self.coeffs)))

    def self_reciprocal_witness(self):
        """The unit m with reciprocal(f) = m*f, or None if there is none."""
        rec = self.reciprocal()
        for m in self._units:
            if rec == self * m:
                return m
        return None

    @property
    def is_self_reciprocal(self) -> bool:
        return self.self_reciprocal_witness() is not None


class PolyZ4(_Poly):
    """A polynomial with coefficients in Z4."""

    __slots__ = ()
    _parse = int
    _reduce = staticmethod(lambda c: c % 4)
    _scalars = int
    _units = Z4_UNITS

    @classmethod
    def xn_minus_1(cls, n: int) -> "PolyZ4":
        return cls([3] + [0] * (n - 1) + [1])

    def __repr__(self) -> str:
        return f"PolyZ4({list(self.coeffs)})"

    def to_power_str(self, var: str = "x", signed: bool = False) -> str:
        return _power_str(self.coeffs, var, signed=signed)

    def divides_mod2(self, other: "PolyZ4") -> bool:
        """True iff self divides other after reducing both mod 2."""
        d2 = self.reduce_mod2()
        if d2 == 0:
            raise ValueError(f"{self} vanishes mod 2")
        return bpoly_mod(other.reduce_mod2(), d2) == 0

    def reduce_mod2(self) -> int:
        """The mod-2 image as a little-endian bitmask integer."""
        mask = 0
        for i, c in enumerate(self.coeffs):
            if c % 2:
                mask |= 1 << i
        return mask

    def to_ring_poly(self) -> "PolyR":
        return PolyR(self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % 4
        return acc


class PolyR(_Poly):
    """A polynomial with coefficients in Z4 + u*Z4."""

    __slots__ = ()
    _parse = staticmethod(RingElement.from_string)
    _reduce = staticmethod(_ring_coeff)
    _scalars = (RingElement, int)
    _units = UNITS

    def __repr__(self) -> str:
        return f"PolyR.from_string({str(self)!r})"

    def to_power_str(self, var: str = "x") -> str:
        return _power_str(self.coeffs, var, signed=False)


def _power_str(coeffs, var: str, signed: bool) -> str:
    if not coeffs:
        return "0"
    terms: list[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        neg = signed and c == 3
        mag = 1 if neg else c
        if i == 0:
            # Parenthesize two-term ring constants so sums stay unambiguous.
            body = f"({mag})" if "+" in str(mag) else str(mag)
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            if isinstance(mag, RingElement):
                body = xpow if mag == ONE else f"({mag}){xpow}"
            else:
                body = xpow if mag == 1 else f"{mag}{xpow}"
        if not terms:
            terms.append(f"-{body}" if neg else body)
        else:
            terms.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(terms)


# -- binary polynomials as little-endian bitmask integers ----------------------


def bpoly_degree(f: int) -> int:
    if f <= 0:
        raise ValueError("degree of the zero polynomial is undefined")
    return f.bit_length() - 1


def bpoly_mul(f: int, g: int) -> int:
    r = 0
    while g:
        if g & 1:
            r ^= f
        g >>= 1
        f <<= 1
    return r


def bpoly_mod(f: int, d: int) -> int:
    if d <= 0:
        raise ValueError("division by the zero polynomial")
    dd = bpoly_degree(d)
    while f and bpoly_degree(f) >= dd:
        f ^= d << (bpoly_degree(f) - dd)
    return f


def bpoly_gcd(f: int, g: int) -> int:
    while g:
        f, g = g, bpoly_mod(f, g)
    return f


def bpoly_to_poly(f: int) -> PolyZ4:
    return PolyZ4([(f >> i) & 1 for i in range(f.bit_length())])


def cyclotomic_cosets(n: int) -> list[list[int]]:
    """The 2-cyclotomic cosets mod n, each sorted, ordered by leader."""
    seen = [False] * n
    cosets = []
    for s in range(n):
        if seen[s]:
            continue
        orbit = []
        t = s
        while not seen[t]:
            seen[t] = True
            orbit.append(t)
            t = (t * 2) % n
        cosets.append(sorted(orbit))
    return cosets


def check_n(n: int, max_n: int) -> None:
    """Raise ValueError unless n is odd, positive and at most max_n."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    if n > max_n:
        raise ValueError(f"n = {n} exceeds the configured bound {max_n}")


@functools.lru_cache(maxsize=None)
def _factor_mod2_masks(n: int) -> tuple[int, ...]:
    pieces = [(1 << n) | 1]
    cosets = cyclotomic_cosets(n)
    for coset in cosets:
        e = sum(1 << i for i in coset)  # idempotent: e^2 = e mod x^n + 1
        split = ((bpoly_gcd(f, e), bpoly_gcd(f, e ^ 1)) for f in pieces)
        pieces = [g for pair in split for g in pair if g != 1]
    pieces.sort(key=lambda f: (bpoly_degree(f), bpoly_to_poly(f).coeffs))
    product = 1
    for f in pieces:
        product = bpoly_mul(product, f)
    if product != (1 << n) | 1:
        raise RuntimeError("factor product is not x^n + 1 mod 2")
    if len(pieces) != len(cosets):
        raise RuntimeError("a factor of x^n + 1 mod 2 was left unsplit")
    return tuple(pieces)


def factor_xn_minus_1_mod2(n: int, max_n: int = MAX_N_DEFAULT) -> list[PolyZ4]:
    """The irreducible factors of x^n - 1 over GF(2), n odd.

    Returned as 0/1-coefficient polynomials sorted by (degree, ascending
    coefficient list).  n odd makes x^n - 1 squarefree mod 2, with one
    irreducible factor per cyclotomic coset.
    """
    check_n(n, max_n)
    return [bpoly_to_poly(f) for f in _factor_mod2_masks(n)]


def graeffe_lift(f2: PolyZ4, n: "int | None" = None, max_n: int = MAX_N_DEFAULT) -> PolyZ4:
    """The monic Hensel lift to Z4 of an irreducible factor of x^n - 1 mod 2.

    One Graeffe step: with f read over Z4, f(x)*f(-x) has only even-degree
    terms; substituting y for x^2 and normalizing the sign gives the monic
    lift g with g = f mod 2.
    """
    if f2.is_zero:
        raise ValueError("cannot lift the zero polynomial")
    if any(c not in (0, 1) for c in f2.coeffs):
        raise ValueError(f"expected a 0/1-coefficient polynomial, got {f2}")
    if n is not None:
        check_n(n, max_n)
        if bpoly_mod((1 << n) | 1, f2.reduce_mod2()) != 0:
            raise ValueError(f"{f2} does not divide x^{n} - 1 mod 2")
    f_neg = PolyZ4([c if i % 2 == 0 else -c for i, c in enumerate(f2.coeffs)])
    h = f2 * f_neg
    if not all(c == 0 for c in h.coeffs[1::2]):
        raise RuntimeError("Graeffe product has odd terms")
    g = PolyZ4(h.coeffs[0::2])
    if g.coeffs[-1] == 3:
        g = -g
    if not g.is_monic:
        raise RuntimeError("Graeffe lift failed to normalize to monic")
    return g


@functools.lru_cache(maxsize=None)
def _factor_z4_cached(n: int) -> tuple[PolyZ4, ...]:
    factors = [graeffe_lift(f2) for f2 in factor_xn_minus_1_mod2(n, max_n=n)]
    factors.sort(key=lambda f: (f.degree, f.coeffs))
    product = PolyZ4([1])
    for f in factors:
        product = product * f
    if product != PolyZ4.xn_minus_1(n):
        raise RuntimeError("lift product is not x^n - 1 over Z4")
    return tuple(factors)


def factor_xn_minus_1_z4(n: int, max_n: int = MAX_N_DEFAULT) -> list[PolyZ4]:
    """The monic basic-irreducible factorization of x^n - 1 over Z4, n odd.

    Each factor is the Hensel lift of one irreducible mod-2 factor; the
    product over all factors is verified to equal x^n - 1 before returning.
    Sorted by (degree, ascending coefficient list).
    """
    check_n(n, max_n)
    return list(_factor_z4_cached(n))


def all_monic_divisors(n: int, max_n: int = MAX_N_DEFAULT) -> list[PolyZ4]:
    """All monic divisors of x^n - 1 over Z4 built as subset products of
    the basic-irreducible factors (1 included, x^n - 1 included)."""
    factors = factor_xn_minus_1_z4(n, max_n=max_n)
    divisors = [PolyZ4([1])]
    for f in factors:
        divisors += [d * f for d in divisors]
    divisors.sort(key=lambda d: (d.degree, d.coeffs))
    return divisors
