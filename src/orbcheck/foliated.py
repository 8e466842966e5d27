"""Taut-metric and transverse-Kahler checks on chart-level group actions.

The taut geometry is one circle acting on C^n by integer weights, in
the metric u times the Euclidean one: u = 1 gives g0 and M0 = |X|^2,
u = u0 = det(M0)^(-1/m) the rescaled metric with det M1 = 1 and orbit
volume 2*pi.  Its statements are polynomial identities over Q in the
circle's field X, decided exactly for all points: M0 is a polynomial,
and M0 (so u0 = 1/M0) is constant along the orbits iff X(M0) = 0.
det M0 and its m-th root are exact at rational points: `dense_det`
reads linalg's one sparse echelon and `rational_root` takes integer
roots.
Floats start in one place: the transverse Kahler positivity.  Its
samples enter as the exact values of their floats, the vertical fields
and omega are evaluated exactly there, and only the matrices handed to
numpy's SVD and eigenvalue routines are floats.  numpy is imported
inside that function, so importing the package does not load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import NonPositiveDeterminant
from .linalg import dense_det, rational_root
from .polyform import PolyForm, Polynomial, PolyVectorField
from .verdict import Verdict


class CircleAction:
    """Circle action on C^n by diagonal rotations with integer weights
    (w_1..w_n): z_k -> exp(i w_k t) z_k on the real coordinates
    (x_1, y_1, ..., x_n, y_n)."""

    def __init__(self, weights: Sequence[int]):
        self.weights = [int(w) for w in weights]
        self.n = len(self.weights)
        self.d = 2 * self.n
        comps = []
        for k, w in enumerate(self.weights):
            x = Polynomial.variable(self.d, 2 * k)
            y = Polynomial.variable(self.d, 2 * k + 1)
            comps.extend([-w * y, w * x])  # d/dt (cos - sin) at 0
        self._fields = [PolyVectorField(comps)]

    def fundamental_fields(self) -> list[PolyVectorField]:
        """The exact derivative at t = 0 of the rotation, built once per
        action, as the one-entry list the Gram matrix takes."""
        return self._fields


def gram_matrix(fields: Sequence[PolyVectorField]) -> list[list[Polynomial]]:
    """The Gram matrix of the fields in the Euclidean metric,
    sum_i v_k,i v_l,i, as polynomials: M0 at every point at once."""
    return [
        [sum((a * b for a, b in zip(vk.components, vl.components)), Polynomial(vk.d)) for vl in fields]
        for vk in fields
    ]


def conformal_factor(m0: list[list], m: int) -> Fraction:
    """u0 = det(M0)^(-1/m) of a rational Gram matrix, exactly; det M0
    must be positive with a rational m-th root."""
    det = dense_det(m0)
    if det <= 0:
        raise NonPositiveDeterminant(f"det M0 = {det}")
    root = rational_root(det, m)
    if root is None:
        raise ValueError(f"det M0 = {det} has no rational {m}-th root")
    return 1 / root


def rescaled_gram(m0: list[list], m: int):
    """M1 = u0 M0 of a rational Gram matrix, with the exact determinant-one
    verdict."""
    u0 = conformal_factor(m0, m)
    m1 = [[u0 * x for x in row] for row in m0]
    det = dense_det(m1)
    return m1, Verdict(det == 1)


def orbit_invariance_check(
    field: PolyVectorField, num: Polynomial, den: Optional[Polynomial] = None, name: str = "f"
) -> Verdict:
    """Constancy of f = num/den along the orbits of the field, exactly for
    every point where den != 0: X(f) = (X(num) den - num X(den)) / den^2
    vanishes iff its numerator is the zero polynomial.  A FAIL names X(f)."""

    def along(f: Polynomial) -> Polynomial:  # X(f) = iota_X df
        return PolyForm.function(f).exterior_derivative().contract(field).coeffs.get((), Polynomial(field.d))

    top = along(num) if den is None else along(num) * den - num * along(den)
    if top.is_zero():
        return Verdict(True)
    return Verdict(False, f"X({name}) = {top}" if den is None else f"X({name}) = ({top}) / ({den})^2")


def orbit_volume(action: CircleAction, point: Sequence) -> float:
    """Volume over the circle of the orbit through a rational point, in
    the metric u0 times the Euclidean one.  M0, so u0 and det M1, are
    constant along the orbit (orbit_invariance_check decides X(M0) = 0
    for all points), so the integral of (det M1)^(1/2) is 2*pi times its
    value at the point, and det M1 = 1 there exactly."""
    m0 = [[p.evaluate(point) for p in row] for row in gram_matrix(action.fundamental_fields())]
    m1, _ = rescaled_gram(m0, len(m0))
    return 2 * math.pi * math.sqrt(dense_det(m1))


def transverse_kahler_check(
    omega: PolyForm,
    j_matrix: Sequence[Sequence[float]],
    vertical_fields: Sequence[PolyVectorField],
    sample_points: Sequence[Sequence[float]],
    tol: float = 1e-9,
) -> dict[str, Verdict]:
    """(a) "closed": d omega = 0 exactly, (b) "kernel": vertical
    contractions vanish exactly, (c) "positive": omega(J.,.) positive
    definite on the normal space at samples, in floating point from the
    exact values of the fields and omega there."""
    import numpy as np

    closed = Verdict(omega.exterior_derivative().is_zero())
    kernel = Verdict(all(omega.contract(v).is_zero() for v in vertical_fields))

    d = omega.d
    jm = np.array([[float(x) for x in row] for row in j_matrix])
    min_eig = math.inf
    sym_dev = 0.0
    for sample in sample_points:
        pt = [Fraction(x) for x in sample]
        vert = np.array([[float(v) for v in f.evaluate(pt)] for f in vertical_fields]).T
        m = vert.shape[1]
        _, _, vh = np.linalg.svd(vert.T) if m else (None, None, np.eye(d))
        normal = vh[m:].T
        omat = np.array([[float(x) for x in row] for row in omega.evaluate_two_form(pt)])
        # omega(J u, v) = (J u)^T Omega v on the normal basis
        bmat = np.array(
            [
                [float((jm @ normal[:, a]) @ omat @ normal[:, b]) for b in range(normal.shape[1])]
                for a in range(normal.shape[1])
            ]
        )
        sym_dev = max(sym_dev, float(np.max(np.abs(bmat - bmat.T))))
        eigs = np.linalg.eigvalsh(0.5 * (bmat + bmat.T))
        min_eig = min(min_eig, float(eigs.min()))
    positive = Verdict(sym_dev <= tol and min_eig > tol, f"min eigenvalue {min_eig:.3e}")
    return {"closed": closed, "kernel": kernel, "positive": positive}


def basic_form_check(alpha: PolyForm, vertical_fields: Sequence[PolyVectorField]) -> Verdict:
    """iota_Z alpha = 0 = iota_Z d(alpha), exactly, for every vertical Z."""
    da = alpha.exterior_derivative()
    for z in vertical_fields:
        if not alpha.contract(z).is_zero():
            return Verdict(False, "iota_Z alpha != 0")
        if not da.contract(z).is_zero():
            return Verdict(False, "iota_Z d alpha != 0")
    return Verdict(True, "both contractions vanish identically")
