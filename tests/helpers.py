"""Independent oracles used by the test suite.

These deliberately avoid the package's own elimination and cyclotomic
code: a dense fraction-free (Bareiss) rank for small matrices, a modular
elimination rank for large sparse coboundaries, and Fraction-polynomial
arithmetic modulo a cyclotomic polynomial built by its Mobius product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np


def bareiss_rank(matrix) -> int:
    """Fraction-free integer elimination rank (dense, exact)."""
    if not matrix or not matrix[0]:
        return 0
    denom = 1
    for row in matrix:
        for x in row:
            denom = denom * Fraction(x).denominator // __import__("math").gcd(
                denom, Fraction(x).denominator
            )
    m = [[int(Fraction(x) * denom) for x in row] for row in matrix]
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def modular_rank(columns: list[dict], nrows: int, p: int = 1_000_003) -> int:
    """Rank of a sparse rational column list by elimination mod p.

    rank_p <= rank_Q always; the suite pairs this with the package's
    claimed rank, so agreement certifies the exact value.
    """
    ncols = len(columns)
    if ncols == 0 or nrows == 0:
        return 0
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for j, col in enumerate(columns):
        for i, v in col.items():
            f = Fraction(v)
            a[i, j] = (f.numerator * pow(f.denominator, -1, p)) % p
    rank = 0
    row = 0
    for col in range(ncols):
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), -1, p)
        a[row, col:] = (a[row, col:] * inv) % p
        below = a[row + 1 :, col]
        nzr = np.nonzero(below)[0]
        if nzr.size:
            rows = row + 1 + nzr
            a[rows, col:] = (
                a[rows, col:] - np.outer(below[nzr], a[row, col:])
            ) % p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def poly_mul(a, b) -> list[Fraction]:
    """Product of Fraction polynomials (coefficients low degree first)."""
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b) -> list[Fraction]:
    size = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (size - len(a))
    b = list(b) + [Fraction(0)] * (size - len(b))
    return [x + y for x, y in zip(a, b)]


def poly_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder (padded to len(b) - 1 entries) of a by b."""
    a = [Fraction(x) for x in a] + [Fraction(0)] * len(b)
    while len(a) > len(b) - 1 and a[-1] == 0:
        a.pop()
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    rem = a[: len(b) - 1] + [Fraction(0)] * (len(b) - 1 - len(a))
    return quot, rem


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def mobius_cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Phi_n = prod_{d | n} (z^d - 1)^mu(n/d), by exact division."""
    num, den = [Fraction(1)], [Fraction(1)]
    for d in range(1, n + 1):
        if n % d == 0:
            factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
            mu = _mobius(n // d)
            if mu == 1:
                num = poly_mul(num, factor)
            elif mu == -1:
                den = poly_mul(den, factor)
    quot, rem = poly_divmod(num, den)
    assert not any(rem)
    return tuple(quot)


def cyclotomic_reduce(coeffs, n: int) -> tuple[Fraction, ...]:
    """sum_k coeffs[k] z^k as its phi(n) coordinates modulo Phi_n."""
    return tuple(poly_divmod(coeffs, mobius_cyclotomic_polynomial(n))[1])


def cyclotomic_conjugate(coeffs, n: int) -> tuple[Fraction, ...]:
    """The image of sum_k coeffs[k] z^k under z -> z^(n-1), reduced."""
    out = [Fraction(0)] * (len(coeffs) * (n - 1) + 1)
    for k, c in enumerate(coeffs):
        out[k * (n - 1)] += c
    return cyclotomic_reduce(out, n)
