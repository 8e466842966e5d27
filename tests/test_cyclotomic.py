import random
from fractions import Fraction

import pytest

from helpers import cyclotomic_conjugate, cyclotomic_reduce, poly_add, poly_mul, to_complex
from orbcheck.atlas import group_closure
from orbcheck.cyclotomic import (
    CycMatrix,
    CyclotomicNumber,
    compare_real,
    cyclotomic_polynomial,
    vec,
    vec_norm_sq,
)


def test_cyclotomic_polynomials_match_known_values():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    # Phi_6 = z^2 - z + 1
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


def test_primitive_root_relations_are_exact():
    z = CyclotomicNumber.zeta(4)
    assert z * z == CyclotomicNumber.from_rational(4, -1)
    assert z * z * z * z == 1
    # canonical reduction uses Phi_4, not z^4 - 1
    assert z * z + 1 == CyclotomicNumber.zero(4)


def test_zeta_power_sums_vanish():
    # 1 + z + ... + z^(p-1) = 0 for prime p
    for p in (3, 5, 7):
        acc = CyclotomicNumber.zero(p)
        for k in range(p):
            acc = acc + CyclotomicNumber.zeta(p, k)
        assert acc.is_zero()


def test_conjugation_is_an_involution_and_fixes_rationals():
    z = CyclotomicNumber.zeta(5)
    x = z * 3 + Fraction(1, 2)
    assert x.conjugate().conjugate() == x
    assert CyclotomicNumber.from_rational(5, Fraction(2, 3)).conjugate() == Fraction(2, 3)


def test_norm_is_real_rational_for_roots_of_unity():
    z = CyclotomicNumber.zeta(8, 3)
    n = z * z.conjugate()
    assert n == 1
    v = vec(8, [z, 0, 1])
    assert vec_norm_sq(v).as_fraction() == 2


def test_complex_embedding_agrees():
    z = CyclotomicNumber.zeta(6)
    assert abs(to_complex(z) - complex(0.5, 3**0.5 / 2)) < 1e-12


def test_matrix_unitarity_exact():
    z = CyclotomicNumber.zeta(4)
    m = CycMatrix(4, [[0, 1], [z * z, 0]])  # [[0,1],[-1,0]]
    assert m.is_unitary()
    assert m.conjugate_transpose() @ m == CycMatrix.identity(4, 2)
    bad = CycMatrix(4, [[2, 0], [0, 1]])
    assert not bad.is_unitary()


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(4)


def test_compare_real_exact_and_embedded():
    x = CyclotomicNumber.from_rational(4, Fraction(1, 3))
    assert compare_real(x, Fraction(1, 3)) == 0
    assert compare_real(x, Fraction(1, 4)) > 0
    # zeta_8 + zeta_8^7 = sqrt(2), a real irrational cyclotomic
    s = CyclotomicNumber.zeta(8) + CyclotomicNumber.zeta(8, 7)
    assert s.is_real() and not s.is_rational()
    assert compare_real(s, 1) > 0
    assert compare_real(s, 2) < 0
    # convergents of sqrt(2) within 1e-11 of it, above and below
    assert compare_real(s, Fraction(665857, 470832)) < 0
    assert compare_real(s, Fraction(275807, 195025)) > 0
    with pytest.raises(ValueError):
        compare_real(CyclotomicNumber.zeta(4), 0)


def test_compare_real_certifies_signs_below_float_resolution():
    # Pell solutions p^2 - 2 q^2 = +-1 put p/q on alternating sides of
    # sqrt(2) at distance about 1/(2 sqrt(2) q^2), down to 1e-60
    s = CyclotomicNumber.zeta(8) + CyclotomicNumber.zeta(8, 7)
    p, q = 1, 1
    for _ in range(80):
        assert compare_real(s, Fraction(p, q)) == (1 if p * p < 2 * q * q else -1)
        p, q = p + 2 * q, p + q
    # coordinates beyond float range
    assert compare_real(s * 10**400, 14142135623730950488 * 10**381) == 1
    assert compare_real(s * 10**400, 14142135623730950489 * 10**381) == -1
    # c = cos(2 pi / 5) = (sqrt(5) - 1) / 4 in Q(zeta_5), with 4c^2 + 2c = 1
    c = (CyclotomicNumber.zeta(5) + CyclotomicNumber.zeta(5, 4)) * Fraction(1, 2)
    assert compare_real(c * c * 4 + c * 2, 1) == 0
    p, q = 2, 1
    for _ in range(60):
        assert compare_real(c * 4 + 1, Fraction(p, q)) == (1 if p * p < 5 * q * q else -1)
        p, q = 2 * p + 5 * q, p + 2 * q


ORACLE_ORDERS = list(range(1, 13)) + [15, 16, 24]


def _random_coeffs(rng, n):
    """A random rational polynomial in zeta_n, any length up to 2n."""
    return [
        Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3, 4, 6)))
        for _ in range(rng.randint(0, 2 * n))
    ]


@pytest.mark.parametrize("n", ORACLE_ORDERS)
def test_arithmetic_matches_the_fraction_polynomial_oracle(n):
    rng = random.Random(1000 + n)
    for _ in range(25):
        a, b = _random_coeffs(rng, n), _random_coeffs(rng, n)
        x, y = CyclotomicNumber(n, a), CyclotomicNumber(n, b)
        assert x.coeffs == cyclotomic_reduce(a, n)
        cases = [
            (x * y, poly_mul(a, b)),
            (x + y, poly_add(a, b)),
            (x - y, poly_add(a, [-c for c in b])),
        ]
        for got, want in cases:
            assert got.coeffs == cyclotomic_reduce(want, n)
            assert got == CyclotomicNumber(n, want)
            assert hash(got) == hash(CyclotomicNumber(n, want))
        assert x.conjugate().coeffs == cyclotomic_conjugate(a, n)


@pytest.mark.parametrize("n", ORACLE_ORDERS)
def test_matrix_products_match_the_oracle_with_mixed_denominators(n):
    rng = random.Random(2000 + n)
    for size in (1, 2, 3):
        polys_a = [[_random_coeffs(rng, n) for _ in range(size)] for _ in range(size)]
        polys_b = [[_random_coeffs(rng, n) for _ in range(size)] for _ in range(size)]
        polys_v = [_random_coeffs(rng, n) for _ in range(size)]
        ma = CycMatrix(n, [[CyclotomicNumber(n, p) for p in row] for row in polys_a])
        mb = CycMatrix(n, [[CyclotomicNumber(n, p) for p in row] for row in polys_b])
        v = tuple(CyclotomicNumber(n, p) for p in polys_v)
        prod = ma @ mb
        image = ma.apply(v)
        for i in range(size):
            want = []
            for k in range(size):
                want = poly_add(want, poly_mul(polys_a[i][k], polys_v[k]))
            assert image[i].coeffs == cyclotomic_reduce(want, n)
            for j in range(size):
                want = []
                for k in range(size):
                    want = poly_add(want, poly_mul(polys_a[i][k], polys_b[k][j]))
                assert prod.rows[i][j].coeffs == cyclotomic_reduce(want, n)
                assert prod.rows[i][j] == CyclotomicNumber(n, want)


@pytest.mark.parametrize("n", (1, 4, 8, 12))
def test_one_fold_subtraction_and_rational_shortcuts_match_the_oracle(n):
    # x - y folds once, a rational conjugates to itself and compares by
    # cross-multiplication: each must give the canonical num/den of the
    # Fraction-polynomial oracle
    rng = random.Random(3000 + n)
    bounds = [0, Fraction(0), -3, 5, Fraction(-7, 4), Fraction(2, 3), Fraction(9, 1)]
    for _ in range(40):
        a, b = _random_coeffs(rng, n), _random_coeffs(rng, n)
        x, y = CyclotomicNumber(n, a), CyclotomicNumber(n, b)
        want = CyclotomicNumber(n, poly_add(a, [-c for c in b]))
        for got in (x - y, x + (-y)):
            assert (got.num, got.den) == (want.num, want.den)
        assert (x - y).coeffs == cyclotomic_reduce(poly_add(a, [-c for c in b]), n)
        q = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))
        for got, coeffs in ((x - q, poly_add(a, [-q])), (q - x, poly_add([q], [-c for c in a]))):
            assert (got.num, got.den) == (CyclotomicNumber(n, coeffs).num, CyclotomicNumber(n, coeffs).den)
        # rationals built directly and as x - (x - q)
        for r in (CyclotomicNumber.from_rational(n, q), x - (x - q)):
            assert r.is_rational() and r.as_fraction() == q
            bar = r.conjugate()
            assert (bar.num, bar.den) == (r.num, r.den)
            assert bar.coeffs == cyclotomic_conjugate(list(r.coeffs), n)
            for bound in bounds + [q, -q]:
                assert compare_real(r, bound) == (q > bound) - (q < bound)


def test_group_closure_sorts_by_fraction_coefficients():
    z = CyclotomicNumber.zeta(4)
    quaternion = group_closure(
        [CycMatrix(4, [[z, 0], [0, z * z * z]]), CycMatrix(4, [[0, 1], [z * z, 0]])], 8
    )
    keys = [tuple(tuple(c.coeffs for c in row) for row in m.rows) for m in quaternion]
    assert len(keys) == 8
    assert all(type(c) is Fraction for key in keys for row in key for cs in row for c in cs)
    assert keys == sorted(keys)
    assert quaternion[0] == CycMatrix(4, [[-1, 0], [0, -1]])
