"""Polynomial arithmetic, reciprocals, and factoring x^n - 1."""

import itertools
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnacyclic.polynomials import (
    MAX_N_DEFAULT,
    PolyR,
    PolyZ4,
    all_monic_divisors,
    cyclotomic_cosets,
    factor_xn_minus_1_mod2,
    factor_xn_minus_1_z4,
    graeffe_lift,
)
from dnacyclic.ring import ONE_PLUS_U, RingElement, U

# Known factorizations over Z4 in bracket form, frozen from an independent
# run of the coset construction plus a symbolic product check.
EXPECTED_Z4_FACTORS = {
    1: ["[3,1]"],
    3: ["[3,1]", "[1,1,1]"],
    5: ["[3,1]", "[1,1,1,1,1]"],
    7: ["[3,1]", "[3,1,2,1]", "[3,2,3,1]"],
    9: ["[3,1]", "[1,1,1]", "[1,0,0,1,0,0,1]"],
    15: ["[3,1]", "[1,1,1]", "[1,0,2,3,1]", "[1,1,1,1,1]", "[1,3,2,0,1]"],
}


def p4(text):
    return PolyZ4.from_string(text)


def pr(text):
    return PolyR.from_string(text)


# -- basic arithmetic --------------------------------------------------------------


def test_coefficients_normalize_mod_4_and_strip_trailing_zeros():
    assert PolyZ4([5, 4, 0]) == PolyZ4([1])
    assert PolyZ4([0, 0, 0]).is_zero
    assert PolyZ4([]).degree is None
    assert PolyZ4([2]).degree == 0
    assert PolyZ4([0, 0, 3]).degree == 2


def test_string_grammar_roundtrip():
    assert str(p4("[3,1]")) == "[3,1]"
    assert str(p4("[ 3 , 1 ]")) == "[3,1]"
    assert p4("[]").is_zero
    assert str(pr("[3,1+u,2u]")) == "[3,1+u,2u]"
    assert pr("[(0,0)]").is_zero
    for bad in ("3,1", "[3,1", "[x]", ""):
        with pytest.raises(ValueError):
            p4(bad)


def test_power_form_rendering():
    assert p4("[3,1]").to_power_str() == "x + 3"
    assert p4("[3,1]").to_power_str(signed=True) == "x - 1"
    assert p4("[1,1,1]").to_power_str() == "x^2 + x + 1"
    assert p4("[3,0,0,1]").to_power_str(signed=True) == "x^3 - 1"
    assert p4("[]").to_power_str() == "0"
    assert pr("[1+u,0,1]").to_power_str() == "x^2 + (1+u)"
    assert pr("[0,2+u]").to_power_str() == "(2+u)x"


def test_known_product_x_cubed_minus_one():
    # (x^2 + x + 1)(x + 3) = x^3 + 3 = x^3 - 1 over Z4.
    assert p4("[1,1,1]") * p4("[3,1]") == p4("[3,0,0,1]")
    assert PolyZ4.xn_minus_1(3) == p4("[3,0,0,1]")


def test_divmod_monic_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(200):
        f = PolyZ4([rng.randrange(4) for _ in range(rng.randrange(8))])
        d_coeffs = [rng.randrange(4) for _ in range(rng.randrange(1, 5))] + [1]
        d = PolyZ4(d_coeffs)
        q, r = f.divmod_monic(d)
        assert q * d + r == f
        assert r.degree is None or r.degree < d.degree


def test_divmod_requires_monic_divisor():
    with pytest.raises(ValueError):
        p4("[1,1]").divmod_monic(p4("[1,2]"))
    with pytest.raises(ZeroDivisionError):
        p4("[1,1]").divmod_monic(p4("[]"))


def test_divides_examples():
    f2 = p4("[1,1,1]")
    assert f2.divides(PolyZ4.xn_minus_1(3))
    assert f2.divides(PolyZ4.xn_minus_1(9))
    assert not p4("[3,1]").divides(f2)  # remainder 3 at x = 1
    assert f2.divides_mod2(PolyZ4.xn_minus_1(9))
    # [3,1] == [1,1] mod 2 divides x^2 + 1 = (x+1)^2 mod 2 but not over Z4.
    assert p4("[3,1]").divides_mod2(p4("[1,0,1]"))
    assert not p4("[3,1]").divides(p4("[1,0,1]"))


def test_evaluation():
    f = p4("[3,0,1]")  # x^2 + 3
    assert f(0) == 3
    assert f(1) == 0
    assert f(3) == 0  # 9 + 3 = 12 = 0 mod 4


def test_ring_poly_scalar_and_unit_coefficients():
    g = pr("[1,1,1]") * ONE_PLUS_U
    assert g == pr("[1+u,1+u,1+u]")
    assert (U * pr("[0,1]")) == pr("[0,u]")
    assert pr("[1+u,1]").is_monic
    assert not pr("[1,1+u]").is_monic


def test_mod_xn_minus_1_wraps_exponents():
    # x^3 = 1 in the length-3 quotient, so x^4 + x wraps to 2x.
    f = p4("[0,1,0,0,1]")
    assert f.mod_xn_minus_1(3) == p4("[0,2]")
    g = pr("[0,0,0,1+u]")
    assert g.mod_xn_minus_1(3) == pr("[1+u]")


# -- reciprocals --------------------------------------------------------------------


def test_reciprocal_examples():
    # x^deg * f(1/x): [1,2,3] -> [3,2,1].
    assert p4("[1,2,3]").reciprocal() == p4("[3,2,1]")
    assert p4("[3,1]").reciprocal() == p4("[1,3]")
    assert p4("[]").reciprocal() == p4("[]")
    assert pr("[1+u,0,1]").reciprocal() == pr("[1,0,1+u]")


def test_self_reciprocal_witness():
    # f is self-reciprocal when f* = c f for a unit c; witness returns c.
    assert p4("[3,1]").self_reciprocal_witness() == 3
    assert p4("[1,1,1]").self_reciprocal_witness() == 1
    assert p4("[1,0,1,2]").self_reciprocal_witness() is None
    assert p4("[1,0,1,2]").is_self_reciprocal is False
    assert p4("[1,1,1]").is_self_reciprocal is True
    # Same notion over the big ring, with unit witnesses from there.
    assert pr("[1,1]").self_reciprocal_witness() == RingElement(1, 0)
    assert pr("[1+u,1+u]").is_self_reciprocal is True
    # (2+u)^2 = 1, so 1 + (2+u)x is self-reciprocal with witness 2+u.
    assert pr("[1,2+u]").self_reciprocal_witness() == RingElement(2, 1)
    assert pr("[1,2]").self_reciprocal_witness() is None


def test_reciprocal_is_multiplicative_randomized():
    # (fg)* = f* g* and, for deg f >= deg g with nonzero constant terms,
    # (f + g)* = f* + x^(deg f - deg g) g*.
    rng = random.Random(11)
    for _ in range(200):
        f = PolyZ4([rng.randrange(4) for _ in range(rng.randrange(1, 7))])
        g = PolyZ4([rng.randrange(4) for _ in range(rng.randrange(1, 7))])
        if f.is_zero or g.is_zero:
            continue
        if (f * g).degree != f.degree + g.degree:
            # Leading coefficients can multiply to 0 mod 4; the reversal
            # identity needs the product degree to be additive.
            continue
        assert (f * g).reciprocal() == f.reciprocal() * g.reciprocal()
        if (
            f.coeffs[0] % 4 != 0
            and g.coeffs[0] % 4 != 0
            and f.degree >= g.degree
            and (f + g).degree == f.degree
            and (f + g).coeffs[0] % 4 != 0
        ):
            gap = f.degree - g.degree
            assert (f + g).reciprocal() == f.reciprocal() + PolyZ4.monomial(
                gap
            ) * g.reciprocal()


def test_double_reciprocal_fixed_point():
    # f** = f whenever the constant term is nonzero.
    rng = random.Random(13)
    for _ in range(100):
        coeffs = [rng.randrange(1, 4)] + [rng.randrange(4) for _ in range(5)]
        f = PolyZ4(coeffs)
        assert f.reciprocal().reciprocal() == f


# -- factoring ----------------------------------------------------------------------


def test_cyclotomic_cosets_mod_9():
    # Orbits of multiplication by 2 mod 9, each sorted: {0}, {1,2,4,8,7,5}, {3,6}.
    assert cyclotomic_cosets(9) == [[0], [1, 2, 4, 5, 7, 8], [3, 6]]


def test_factor_counts_match_coset_counts():
    for n in range(1, MAX_N_DEFAULT + 1, 2):
        assert len(factor_xn_minus_1_mod2(n)) == len(cyclotomic_cosets(n))
        assert len(factor_xn_minus_1_z4(n)) == len(cyclotomic_cosets(n))


def test_z4_factorizations_match_frozen_table():
    for n, expected in EXPECTED_Z4_FACTORS.items():
        assert [str(f) for f in factor_xn_minus_1_z4(n)] == expected


def test_factor_products_reconstruct_xn_minus_1():
    for n in range(1, 16, 2):
        prod = PolyZ4([1])
        for f in factor_xn_minus_1_z4(n):
            prod = prod * f
        assert prod == PolyZ4.xn_minus_1(n)
        prod2 = PolyZ4([1])
        for f in factor_xn_minus_1_mod2(n):
            prod2 = prod2 * f
        # Mod-2 factors multiply to x^n + 1 up to sign of the constant term.
        diff = prod2 - PolyZ4.xn_minus_1(n)
        assert all(c % 2 == 0 for c in diff.coeffs)


def test_mod2_factors_are_irreducible_binary_polys():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in (3, 9, 15, 21):
        for f in factor_xn_minus_1_mod2(n):
            assert set(f.coeffs) <= {0, 1}
            expr = sum(c * x**i for i, c in enumerate(f.coeffs))
            assert sympy.Poly(expr, x, modulus=2).is_irreducible, (n, f)


def test_z4_factors_are_monic_and_reduce_to_mod2_factors():
    for n in (3, 9, 15):
        z4 = factor_xn_minus_1_z4(n)
        mod2 = factor_xn_minus_1_mod2(n)
        assert all(f.is_monic for f in z4)
        reduced = sorted(tuple(c % 2 for c in f.coeffs) for f in z4)
        plain = sorted(tuple(c % 2 for c in f.coeffs) for f in mod2)
        assert reduced == plain


def test_factor_set_is_closed_under_reciprocal_up_to_unit():
    # x^n - 1 is self-reciprocal up to sign, so its factor multiset is stable
    # under f -> unit * f*.
    for n in (3, 7, 9, 15, 21):
        factors = factor_xn_minus_1_z4(n)
        pool = {f.coeffs for f in factors}
        for f in factors:
            rec = f.reciprocal()
            matches = {(rec * c).coeffs for c in (1, 3)}
            assert pool & matches


def test_graeffe_lift_examples():
    assert graeffe_lift(p4("[1,1]")) == p4("[3,1]")
    assert graeffe_lift(p4("[1,1,1]")) == p4("[1,1,1]")
    assert graeffe_lift(p4("[1,0,0,1,0,0,1]"), n=9) == p4("[1,0,0,1,0,0,1]")
    with pytest.raises(ValueError):
        graeffe_lift(p4("[1,2]"))  # coefficients must be 0/1
    with pytest.raises(ValueError):
        # x^3+x+1 is irreducible but not a factor of x^9+1 mod 2.
        graeffe_lift(p4("[1,1,0,1]"), n=9)


def test_graeffe_lift_squares_to_input_mod2():
    # Defining property: lift(f)(x^2) = +/- f(x) f(-x), so lift(f) = f mod 2.
    for n in (3, 9, 15, 21):
        for f in factor_xn_minus_1_mod2(n):
            lifted = graeffe_lift(f, n=n)
            diff = lifted - f
            assert all(c % 2 == 0 for c in diff.coeffs)
            assert lifted.is_monic
            assert lifted.divides(PolyZ4.xn_minus_1(n))


def test_factor_rejects_bad_lengths():
    for bad in (0, -3, 2, 6):
        with pytest.raises(ValueError):
            factor_xn_minus_1_z4(bad)
    with pytest.raises(ValueError):
        factor_xn_minus_1_z4(33)  # above the default bound
    assert len(factor_xn_minus_1_z4(33, max_n=33)) == len(cyclotomic_cosets(33))


def test_all_monic_divisors_n3():
    divisors = all_monic_divisors(3)
    assert [str(d) for d in divisors] == ["[1]", "[3,1]", "[1,1,1]", "[3,0,0,1]"]
    for d in divisors:
        assert d.divides(PolyZ4.xn_minus_1(3))


def test_all_monic_divisors_counts_are_powers_of_two():
    # One divisor per subset of the irreducible factors.
    for n in (1, 3, 5, 7, 9, 15):
        k = len(factor_xn_minus_1_z4(n))
        assert len(all_monic_divisors(n)) == 2**k


def test_ring_poly_product_against_z4_embedding():
    # Multiplying lifted Z4 polys agrees with multiplying then lifting.
    rng = random.Random(17)
    for _ in range(100):
        f = PolyZ4([rng.randrange(4) for _ in range(rng.randrange(1, 6))])
        g = PolyZ4([rng.randrange(4) for _ in range(rng.randrange(1, 6))])
        assert (f * g).to_ring_poly() == f.to_ring_poly() * g.to_ring_poly()


def test_ring_poly_divmod_roundtrip():
    rng = random.Random(19)
    elements = [RingElement(a, b) for a in range(4) for b in range(4)]
    for _ in range(150):
        f = PolyR([rng.choice(elements) for _ in range(rng.randrange(7))])
        d = PolyR([rng.choice(elements) for _ in range(rng.randrange(4))] + [RingElement(1)])
        q, r = f.divmod_monic(d)
        assert q * d + r == f
        assert r.degree is None or r.degree < d.degree


z4_polys = st.lists(st.integers(0, 3), max_size=7).map(PolyZ4)
monic_z4_polys = st.lists(st.integers(0, 3), max_size=4).map(lambda cs: PolyZ4(cs + [1]))


@settings(max_examples=300, deadline=None)
@given(z4_polys, z4_polys, monic_z4_polys, st.integers(-5, 5), st.integers(1, 9))
def test_ring_embedding_commutes_with_shared_operations(f, g, d, k, n):
    # PolyZ4 and PolyR run one arithmetic body with different coefficient
    # reductions; embedding Z4 into R must commute with every operation.
    def lift(p):
        return p.to_ring_poly()

    assert lift(f + g) == lift(f) + lift(g)
    assert lift(-f) == -lift(f)
    assert lift(f - g) == lift(f) - lift(g)
    assert lift(f * g) == lift(f) * lift(g)
    assert lift(f * k) == lift(f) * k == lift(f) * RingElement(k)
    assert lift(k * f) == k * lift(f)
    q, r = f.divmod_monic(d)
    assert (lift(q), lift(r)) == lift(f).divmod_monic(lift(d))
    assert lift(f.mod_xn_minus_1(n)) == lift(f).mod_xn_minus_1(n)
    assert lift(f.reciprocal()) == lift(f).reciprocal()
    assert f.is_self_reciprocal == lift(f).is_self_reciprocal


def test_z4_poly_never_equals_its_ring_embedding():
    for text in ("[]", "[1]", "[3,1]", "[1,1,1]", "[2,0,3]"):
        f = p4(text)
        lifted = f.to_ring_poly()
        assert str(f) == str(lifted)
        assert f != lifted and lifted != f
        assert len({f, lifted}) == 2


def test_factor_mod2_matches_sympy_for_odd_n_to_127():
    sympy = pytest.importorskip("sympy")
    from sympy.utilities.exceptions import SymPyDeprecationWarning

    x = sympy.symbols("x")
    for n in range(1, 128, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SymPyDeprecationWarning)
            _, factors = sympy.factor_list(x**n - 1, modulus=2)
        expected = sorted(
            tuple(int(c) % 2 for c in reversed(sympy.Poly(f, x).all_coeffs()))
            for f, multiplicity in factors
            if multiplicity == 1
        )
        assert len(expected) == len(factors), n  # squarefree at odd n
        got = sorted(f.coeffs for f in factor_xn_minus_1_mod2(n, max_n=127))
        assert got == expected, n
