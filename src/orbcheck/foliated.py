"""Taut-metric and transverse-Kahler checks on chart-level group actions.

The geometric statements are verified where the proofs evaluate them:
on a chart times the acting group.  The taut geometry is one circle
acting on C^n by integer weights, in the metric u times the Euclidean
one: u = 1 gives g0 and its Gram matrix M0, u = u0 = det(M0)^(-1/m)
the rescaled metric with det M1 = 1 and orbit volume 2*pi.  These, and
the transverse Kahler conditions, are computed exactly on rational
input and in floating point (with declared tolerances) on sampled
orbits.

The float checks run one orbit (or one sample set) at a time on a
coordinate-major batch: a list of d numpy arrays, one per coordinate.
Polynomial, field and Gram evaluation take such a batch unchanged and
do the same IEEE operations, in the same order, as on each point alone;
for m = 1 the determinant is the 1x1 entry itself.  numpy is imported
inside the functions that use it, so importing the package does not
load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import DegenerateOrbit, NonPositiveDeterminant
from .linalg import dense_det, rational_root
from .polyform import PolyForm, Polynomial, PolyVectorField
from .verdict import Verdict

Number = Union[Fraction, float]


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

    def orbit(self, point: Sequence[float], angles: Sequence[float]) -> list:
        """The point turned through each angle t, as a coordinate-major
        batch with one entry per angle."""
        import numpy as np

        out = []
        for k, w in enumerate(self.weights):
            c = np.array([math.cos(w * t) for t in angles])
            s = np.array([math.sin(w * t) for t in angles])
            x, y = float(point[2 * k]), float(point[2 * k + 1])
            out.extend([c * x - s * y, s * x + c * y])
        return out


def coordinate_major(points: Sequence[Sequence[float]]) -> list:
    """A list of points as one batch: one numpy array per coordinate."""
    import numpy as np

    return [np.array(column, dtype=float) for column in zip(*points)]


def _values(x) -> list:
    """The per-point values of a scalar, or of a batch entry."""
    return [x] if isinstance(x, (int, float, Fraction)) else x.tolist()


def _det(mat: list[list]):
    """Determinant of a Gram matrix: for m = 1 the entry itself (an int
    as a Fraction), which also holds a whole batch; dense_det otherwise."""
    if len(mat) == 1:
        x = mat[0][0]
        return Fraction(x) if isinstance(x, int) else x
    return dense_det(mat)


def gram_matrix(fields: Sequence[PolyVectorField], point: Sequence, u=1) -> list[list[Number]]:
    """The Gram matrix of the fields in the metric u times the Euclidean
    one, sum_i (v_k,i u) v_l,i; positive definite at the point, or at
    every point of a batch (u a scalar, or an array over the batch)."""
    vals = [f.evaluate(point) for f in fields]
    out = [[sum(a * u * b for a, b in zip(vk, vl)) for vl in vals] for vk in vals]
    det = _det(out)
    if isinstance(det, Fraction):
        singular = det == 0
    else:  # one reduction over the batch; a NaN compares False, as non-singular
        import numpy as np

        singular = np.any(abs(det) < 1e-12)
    if singular:
        raise DegenerateOrbit("Gram matrix is singular: orbit has lower dimension")
    return out


def conformal_factor(m0: list[list[Number]], m: int) -> Number:
    """u0 = det(M0)^(-1/m); exact when the m-th root is rational.  On a
    batch, an array of Python's float powers (numpy's reciprocal
    shortcut for ** -1.0 rounds differently)."""
    det = _det(m0)
    for x in _values(det):
        if x <= 0:
            raise NonPositiveDeterminant(f"det M0 = {x}")
    if isinstance(det, Fraction):
        root = rational_root(det, m)
        if root is not None:
            return Fraction(1) / root
        return float(det) ** (-1.0 / m)
    if isinstance(det, float):
        return det ** (-1.0 / m)
    import numpy as np

    return np.array([x ** (-1.0 / m) for x in det.tolist()])


def rescaled_gram(m0: list[list[Number]], m: int, tol: float = 1e-12):
    """M1 = u0 M0 with the determinant-one verdict (over every point of a
    batch)."""
    u0 = conformal_factor(m0, m)
    m1 = [[u0 * x for x in row] for row in m0]
    det = _det(m1)
    if isinstance(det, Fraction):
        dev = abs(float(det - 1))
        ok = det == 1
    else:
        devs = [abs(x - 1.0) for x in _values(det)]
        dev = max(devs)
        ok = all(x <= tol for x in devs)
    return m1, Verdict(ok, max_dev=dev)


def orbit_invariance_check(
    field: Callable[[Sequence], object],
    point: Sequence,
    action: CircleAction,
    samples: int = 16,
    tol: float = 1e-12,
) -> Verdict:
    """Constancy of a scalar or matrix field along the sampled orbit.
    The field takes the point, then the rotated points as one batch."""
    base = field([float(x) for x in point])
    angles = [2 * math.pi * (idx + 1) / (samples + 1) for idx in range(samples)]
    moved = field(action.orbit(point, angles))
    if isinstance(base, (int, float, Fraction)):
        pairs = [(base, moved)]
    else:
        pairs = [(x, y) for ra, rb in zip(base, moved) for x, y in zip(ra, rb)]
    max_dev = max((d for x, y in pairs for d in _values(abs(float(x) - y))), default=0.0)
    return Verdict(max_dev <= tol, max_dev=max_dev)


def orbit_volume(action: CircleAction, point: Sequence, nodes: int = 256) -> float:
    """Integral over the circle of (det M1)^(1/2) along the orbit, in the
    rescaled metric u0 times the Euclidean one, u0 formed from M0 on the
    same nodes.  The integrand is identically 1 and the volume equals
    the group frame volume 2*pi.
    """
    moved = action.orbit(point, [2 * math.pi * idx / nodes for idx in range(nodes)])
    fields = action.fundamental_fields()
    u0 = conformal_factor(gram_matrix(fields, moved), 1)
    dets = _values(_det(gram_matrix(fields, moved, u0)))
    if any(det <= 0 for det in dets):
        raise DegenerateOrbit("non-positive Gram determinant along orbit")
    return 2 * math.pi * math.fsum(math.sqrt(det) for det in dets) / nodes


def transverse_kahler_check(
    omega: PolyForm,
    j_matrix: Sequence[Sequence[float]],
    vertical_fields: Sequence[PolyVectorField],
    sample_points: Sequence[Sequence[float]],
    tol: float = 1e-9,
) -> dict[str, Verdict]:
    """(a) "closed": d omega = 0 exactly, (b) "kernel": vertical
    contractions vanish exactly, (c) "positive": omega(J.,.) positive
    definite on the normal space at samples."""
    import numpy as np

    closed = Verdict(omega.exterior_derivative().is_zero())
    kernel = Verdict(all(omega.contract(v).is_zero() for v in vertical_fields))

    d = omega.d
    jm = np.array([[float(x) for x in row] for row in j_matrix])
    min_eig = math.inf
    sym_dev = 0.0
    for pt in sample_points:
        ptf = [float(x) for x in pt]
        vert = np.array([[float(v) for v in f.evaluate(ptf)] for f in vertical_fields]).T
        m = vert.shape[1]
        _, _, vh = np.linalg.svd(vert.T) if m else (None, None, np.eye(d))
        normal = vh[m:].T
        omat = np.array(omega.evaluate_two_form(ptf))
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
    positive = Verdict(sym_dev <= tol and min_eig > tol, f"min eigenvalue {min_eig:.3e}", sym_dev)
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
