"""Exact polynomial exterior calculus on R^d.

Coefficients are multivariate polynomials over Q; wedge, exterior
derivative and interior product are exact identities, so d.d = 0 and
the basic-form condition can be tested symbolically.  A coefficient
stays an int until a rational input makes it a Fraction, and a value at
a rational point is exact: nothing here is a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from .linalg import sort_sign

Rat = Union[int, Fraction]
Monomial = tuple  # exponent tuple of length d


class Polynomial:
    """Multivariate polynomial with exact coefficients, int or Fraction."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Mapping[Monomial, Rat] | None = None):
        self.d = d
        self.terms: dict[Monomial, Rat] = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    if len(mono) != d:
                        raise ValueError("monomial length mismatch")
                    self.terms[tuple(mono)] = c

    @classmethod
    def constant(cls, d: int, c: Rat) -> "Polynomial":
        return cls(d, {tuple([0] * d): c})

    @classmethod
    def variable(cls, d: int, k: int) -> "Polynomial":
        mono = [0] * d
        mono[k] = 1
        return cls(d, {tuple(mono): 1})

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.d != self.d:
                raise ValueError("mixed ambient dimensions")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.d, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return Polynomial(self.d, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.d, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Monomial, Rat] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(self.d, out)

    __rmul__ = __mul__

    def diff(self, k: int) -> "Polynomial":
        out: dict[Monomial, Rat] = {}
        for mono, c in self.terms.items():
            e = mono[k]
            if e:
                m = list(mono)
                m[k] = e - 1
                m = tuple(m)
                out[m] = out.get(m, 0) + c * e
        return Polynomial(self.d, out)

    def evaluate(self, point: Sequence) -> Rat:
        acc = 0
        for mono, c in self.terms.items():
            for k, e in enumerate(mono):
                for _ in range(e):
                    c *= point[k]
            acc += c
        return acc

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            vars_ = "*".join(
                f"x{k}^{e}" if e > 1 else f"x{k}" for k, e in enumerate(mono) if e
            )
            parts.append(f"{c}*{vars_}" if vars_ else str(c))
        return " + ".join(parts)


class PolyForm:
    """Differential p-form with polynomial coefficients, canonical indices."""

    __slots__ = ("d", "degree", "coeffs")

    def __init__(self, d: int, degree: int, coeffs: Mapping[tuple, Polynomial] | None = None):
        self.d = d
        self.degree = degree
        self.coeffs: dict[tuple, Polynomial] = {}
        if coeffs:
            for idx, poly in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(set(idx)):
                    raise ValueError(f"index set {idx} must be sorted and distinct")
                if not poly.is_zero():
                    self.coeffs[idx] = poly

    @classmethod
    def zero(cls, d: int, degree: int) -> "PolyForm":
        return cls(d, degree)

    @classmethod
    def dx(cls, d: int, k: int) -> "PolyForm":
        return cls(d, 1, {(k,): Polynomial.constant(d, 1)})

    @classmethod
    def function(cls, poly: Polynomial) -> "PolyForm":
        return cls(poly.d, 0, {(): poly})

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if self.d != other.d or self.degree != other.degree:
            raise ValueError("can only add forms of equal dimension and degree")
        out = dict(self.coeffs)
        for idx, p in other.coeffs.items():
            out[idx] = out.get(idx, Polynomial(self.d)) + p
        return PolyForm(self.d, self.degree, out)

    def __neg__(self):
        return PolyForm(self.d, self.degree, {i: -p for i, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PolyForm":
        if isinstance(c, (int, Fraction)):
            c = Polynomial.constant(self.d, c)
        return PolyForm(self.d, self.degree, {i: c * p for i, p in self.coeffs.items()})

    def wedge(self, other: "PolyForm") -> "PolyForm":
        if self.d != other.d:
            raise ValueError("mixed ambient dimensions")
        out: dict[tuple, Polynomial] = {}
        for i1, p1 in self.coeffs.items():
            for i2, p2 in other.coeffs.items():
                if not set(i1).isdisjoint(i2):
                    continue
                merged, sign = sort_sign(i1 + i2)
                add = p1 * p2
                if sign < 0:
                    add = -add
                out[merged] = out.get(merged, Polynomial(self.d)) + add
        return PolyForm(self.d, self.degree + other.degree, out)

    def exterior_derivative(self) -> "PolyForm":
        out: dict[tuple, Polynomial] = {}
        for idx, poly in self.coeffs.items():
            for k in range(self.d):
                if k in idx:
                    continue
                dk = poly.diff(k)
                if dk.is_zero():
                    continue
                merged, sign = sort_sign((k, *idx))
                add = dk if sign > 0 else -dk
                out[merged] = out.get(merged, Polynomial(self.d)) + add
        return PolyForm(self.d, self.degree + 1, out)

    def contract(self, field: "PolyVectorField") -> "PolyForm":
        """Interior product with a polynomial vector field."""
        if self.degree == 0:
            return PolyForm.zero(self.d, 0)
        out: dict[tuple, Polynomial] = {}
        for idx, poly in self.coeffs.items():
            for t, k in enumerate(idx):
                comp = field.components[k]
                if comp.is_zero():
                    continue
                rest = idx[:t] + idx[t + 1 :]
                add = comp * poly
                if t % 2:
                    add = -add
                out[rest] = out.get(rest, Polynomial(self.d)) + add
        return PolyForm(self.d, self.degree - 1, out)

    def evaluate_two_form(self, point: Sequence) -> list[list[Rat]]:
        """The antisymmetric matrix of a 2-form at a point, exactly."""
        if self.degree != 2:
            raise ValueError("only defined for 2-forms")
        mat = [[0] * self.d for _ in range(self.d)]
        for (i, j), poly in self.coeffs.items():
            v = poly.evaluate(point)
            mat[i][j] = v
            mat[j][i] = -v
        return mat

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (self - other).is_zero() if self.degree == other.degree and self.d == other.d else False

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for idx, poly in sorted(self.coeffs.items()):
            dxs = "^".join(f"dx{k}" for k in idx)
            parts.append(f"({poly}) {dxs}" if dxs else f"({poly})")
        return " + ".join(parts)


class PolyVectorField:
    """Vector field with polynomial components; exact rational evaluation."""

    __slots__ = ("d", "components")

    def __init__(self, components: Sequence[Polynomial]):
        self.d = len(components)
        for c in components:
            if c.d != self.d:
                raise ValueError("component dimension mismatch")
        self.components = tuple(components)

    @classmethod
    def coordinate(cls, d: int, k: int) -> "PolyVectorField":
        comps = [Polynomial(d) for _ in range(d)]
        comps[k] = Polynomial.constant(d, 1)
        return cls(comps)

    def evaluate(self, point: Sequence):
        return [c.evaluate(point) for c in self.components]

    def __repr__(self):
        return f"PolyVectorField({list(self.components)})"
