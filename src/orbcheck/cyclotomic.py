"""Exact arithmetic in the cyclotomic field Q(zeta_N).

An element is stored as ``num / den``: ``num`` holds phi(N) integers,
the coordinates in the power basis 1, zeta, ..., zeta^(phi-1) modulo
the N-th cyclotomic polynomial Phi_N, and ``den`` is a positive integer
with gcd(den, *num) = 1 (zero is num = 0, den = 1).  The form is
canonical, so equality, conjugation and unitarity checks are exact and
decidable.

Phi_N is monic with integer coefficients, so every zeta^k reduces to an
integer vector.  ``_zeta_powers(N)`` holds those vectors, built lazily
once per order, for every exponent that folding (k < N), products
(k < 2 phi - 1) and conjugation (N - k) need.  Products, matrix
products and matrix-vector products all go through ``_dot``: one integer
convolution over a common denominator, reduced through the table and
put in lowest terms once at the end.  This is the representation of
FLINT/Antic (Hart, "ANTIC: Algebraic Number Theory In C", 2015).
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low first) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    # Phi_n = (z^n - 1) / prod_{d | n, d < n} Phi_d; each divisor is monic
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_polynomial(d)
            dd = len(div) - 1
            quot = [0] * (len(poly) - dd)
            for i in range(len(poly) - 1, dd - 1, -1):
                c = poly[i]
                if c:
                    quot[i - dd] = c
                    for j in range(dd + 1):
                        poly[i - dd + j] -= c * div[j]
            if any(poly):
                raise AssertionError("cyclotomic division must be exact")
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _zeta_powers(order: int) -> tuple[tuple[int, ...], ...]:
    """zeta^k reduced mod Phi_N as integer vectors, k < max(N, 2 phi - 1)."""
    if order < 1:
        raise ValueError("cyclotomic order must be positive")
    poly = cyclotomic_polynomial(order)
    phi = len(poly) - 1
    row = [1] + [0] * (phi - 1)
    table = []
    for _ in range(max(order, 2 * phi - 1)):
        table.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:  # zeta^phi = -(Phi_N - zeta^phi)
            row = [r - top * p for r, p in zip(row, poly)]
    return tuple(table)


def _fold(order: int, acc: list[int], den: int) -> "CyclotomicNumber":
    """sum_k acc[k] zeta^k / den in lowest terms, for den > 0 and at
    least phi(N) but at most len(_zeta_powers(N)) entries in acc."""
    table = _zeta_powers(order)
    phi = len(table[0])
    num = acc[:phi]
    for k in range(phi, len(acc)):
        c = acc[k]
        if c:
            for j, t in enumerate(table[k]):
                num[j] += c * t
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return CyclotomicNumber._make(order, tuple(num), den)


def _dot(order: int, xs: Iterable["CyclotomicNumber"], ys: Iterable["CyclotomicNumber"]) -> "CyclotomicNumber":
    """sum_k xs[k] * ys[k]: one integer convolution over the lcm of the
    denominators, reduced and put in lowest terms once at the end."""
    phi = len(_zeta_powers(order)[0])
    acc = [0] * (2 * phi - 1)
    den = 1
    for x, y in zip(xs, ys):
        if x.order != order or y.order != order:
            raise ValueError("mixed cyclotomic orders")
        d = x.den * y.den
        scale = 1
        if d != den:
            common = lcm(den, d)
            if common != den:
                acc = [c * (common // den) for c in acc]
                den = common
            scale = den // d
        yn = y.num
        for i, a in enumerate(x.num):
            if a:
                a *= scale
                for j, b in enumerate(yn):
                    if b:
                        acc[i + j] += a * b
    return _fold(order, acc, den)


class CyclotomicNumber:
    """An element of Q(zeta_N) with exact rational coordinates."""

    __slots__ = ("order", "num", "den", "_hash")

    def __init__(self, order: int, coeffs: Iterable[Rat]):
        """The number sum_k coeffs[k] zeta^k; any length, any exponents."""
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        acc = [0] * order
        for k, c in enumerate(cs):
            acc[k % order] += c.numerator * (den // c.denominator)
        x = _fold(order, acc, den)
        self.order, self.num, self.den, self._hash = order, x.num, x.den, None

    @classmethod
    def _make(cls, order: int, num: tuple[int, ...], den: int) -> "CyclotomicNumber":
        """Wrap a canonical num/den without checking it."""
        self = object.__new__(cls)
        self.order, self.num, self.den, self._hash = order, num, den, None
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(order, 1)

    @classmethod
    def from_rational(cls, order: int, value: Rat) -> "CyclotomicNumber":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        num, den = value.as_integer_ratio()
        phi = len(_zeta_powers(order)[0])
        return cls._make(order, (num,) + (0,) * (phi - 1), den)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        return cls._make(order, _zeta_powers(order)[power % order], 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "CyclotomicNumber":
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self.order, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return _fold(self.order, [s * a + t * b for a, b in zip(self.num, other.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._make(self.order, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return _fold(self.order, [s * a - t * b for a, b in zip(self.num, other.num)], den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _dot(self.order, (self,), (other,))

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, the field map zeta -> zeta^(N-1)."""
        if self.is_rational():
            return self
        n = self.order
        acc = [0] * n
        for k, c in enumerate(self.num):
            acc[-k % n] = c
        return _fold(n, acc, self.den)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_real(self) -> bool:
        return self.conjugate() == self

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(self.order, other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.num == other.num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.num, self.den))
        return self._hash

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyc({self.order}: {body})"


CycVector = tuple  # tuple of CyclotomicNumber


def vec(order: int, entries: Sequence) -> CycVector:
    out = []
    for e in entries:
        if isinstance(e, CyclotomicNumber):
            out.append(e)
        else:
            out.append(CyclotomicNumber.from_rational(order, e))
    return tuple(out)


def vec_sub(u: CycVector, v: CycVector) -> CycVector:
    return tuple(a - b for a, b in zip(u, v))


def vec_norm_sq(u: CycVector) -> CyclotomicNumber:
    """|u|^2 = sum u_i conj(u_i); a real cyclotomic number."""
    if not u:
        raise ValueError("empty vector")
    return _dot(u[0].order, u, [a.conjugate() for a in u])


class CycMatrix:
    """Square matrix with CyclotomicNumber entries (row-major)."""

    __slots__ = ("order", "n", "rows", "_hash")

    def __init__(self, order: int, rows: Sequence[Sequence]):
        self.order = order
        self.n = len(rows)
        fixed = []
        for row in rows:
            if len(row) != self.n:
                raise ValueError("matrix must be square")
            fixed.append(vec(order, row))
        self.rows = tuple(fixed)
        self._hash = None

    @classmethod
    def _make(cls, order: int, rows: tuple[CycVector, ...]) -> "CycMatrix":
        """Wrap square rows of CyclotomicNumbers without checking them."""
        self = object.__new__(cls)
        self.order, self.n, self.rows, self._hash = order, len(rows), rows, None
        return self

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(order: int, n: int) -> "CycMatrix":
        return CycMatrix(order, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        cols = tuple(zip(*other.rows))
        order = self.order
        return CycMatrix._make(
            order, tuple(tuple(_dot(order, row, col) for col in cols) for row in self.rows)
        )

    def apply(self, v: CycVector) -> CycVector:
        return tuple(_dot(self.order, row, v) for row in self.rows)

    def conjugate_transpose(self) -> "CycMatrix":
        return CycMatrix._make(
            self.order, tuple(tuple(a.conjugate() for a in col) for col in zip(*self.rows))
        )

    def is_unitary(self) -> bool:
        return self @ self.conjugate_transpose() == CycMatrix.identity(self.order, self.n)

    def is_identity(self) -> bool:
        return self == CycMatrix.identity(self.order, self.n)

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        return self.order == other.order and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.rows))
        return self._hash

    def __repr__(self):
        return f"CycMatrix({self.order}, {[list(r) for r in self.rows]})"


@lru_cache(maxsize=None)
def _decimal_cosines(order: int, digits: int) -> tuple[Decimal, ...]:
    """cos(2 pi k / N) for k < phi(N), each to within 10^-digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        # pi by the series in the decimal module's documentation
        last, t, pi, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while pi != last:
            last = pi
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            pi += t
        out = []
        for k in range(len(_zeta_powers(order)[0])):
            x2 = (2 * pi * k / order) ** 2
            last, term, total, i = None, Decimal(1), Decimal(1), 0
            while total != last:
                last = total
                i += 2
                term = -term * x2 / (i * (i - 1))
                total += term
            out.append(total)
        return tuple(out)


def compare_real(x: CyclotomicNumber, bound: Rat) -> int:
    """Sign of (x - bound) for a real cyclotomic x, certified.

    Zero is decided exactly: x - bound is zero only for rational x, which
    is compared by integer cross-multiplication.  Otherwise d = x - bound
    is the nonzero real number sum_k (num_k / den) cos(2 pi k / N),
    evaluated in ``decimal`` from 20 digits at doubling precision, each
    time with the radius sum_k |num_k| / den * 10^-digits, until the
    radius excludes zero (midpoint-radius evaluation, as in Johansson,
    "Arb", IEEE TC 2017).
    """
    if x.is_rational():
        q = x.num[0] * bound.denominator - bound.numerator * x.den
        return (q > 0) - (q < 0)
    if not x.is_real():
        raise ValueError("comparison requires a real cyclotomic number")
    d = x - bound  # irrational, so not zero
    digits = 20
    while True:
        with localcontext() as ctx:
            ctx.prec = digits + 10
            cosines = _decimal_cosines(d.order, digits)
            mid = sum(Decimal(c) * cos for c, cos in zip(d.num, cosines)) / d.den
            radius = sum(abs(Decimal(c)) for c in d.num) / d.den * Decimal(10) ** -digits
        if abs(mid) > radius:
            return 1 if mid > 0 else -1
        digits *= 2
