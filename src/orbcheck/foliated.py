"""Taut-metric and transverse-Kahler checks on chart-level group actions.

The geometric statements are verified where the proofs evaluate them:
on a chart times the acting group.  Gram matrices of fundamental
fields, the conformal factor u0 = det(M0)^(-1/m), orbit volumes and
the transverse Kahler conditions are computed exactly on rational
input and in floating point (with declared tolerances) on sampled
orbits.

The float checks run one orbit (or one sample set) at a time on a
coordinate-major batch: a list of d numpy arrays, one per coordinate.
Polynomial, field, metric and Gram evaluation take such a batch
unchanged and do the same IEEE operations, in the same order, as on
each point alone; for m = 1 the determinant is the 1x1 entry itself.
numpy is imported inside the functions that use it, so importing the
package does not load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import DegenerateOrbit, NonPositiveDeterminant, QuadratureTooCoarse
from .linalg import dense_det, rational_root
from .polyform import PolyForm, Polynomial, PolyVectorField
from .verdict import Verdict

Number = Union[Fraction, float]


class CircleAction:
    """Torus action on C^n by diagonal rotations with integer weights.

    Each generator row (w_1..w_n) acts by z_k -> exp(i w_k t) z_k on the
    real coordinates (x_1, y_1, ..., x_n, y_n).
    """

    def __init__(self, weight_rows: Sequence[Sequence[int]]):
        self.weight_rows = [list(map(int, row)) for row in weight_rows]
        self.n = len(self.weight_rows[0])
        for row in self.weight_rows:
            if len(row) != self.n:
                raise ValueError("weight rows must share length")
        self.d = 2 * self.n
        self.m = len(self.weight_rows)
        self._fields = [self.fundamental_field(g) for g in range(self.m)]

    @classmethod
    def circle(cls, weights: Sequence[int]) -> "CircleAction":
        return cls([list(weights)])

    def fundamental_field(self, generator: int) -> PolyVectorField:
        """Exact derivative at t = 0 of the one-parameter rotation."""
        w = self.weight_rows[generator]
        comps = []
        for k in range(self.n):
            d = self.d
            x = Polynomial.variable(d, 2 * k)
            y = Polynomial.variable(d, 2 * k + 1)
            comps.append(-w[k] * y)  # d/dt (cos - sin) at 0
            comps.append(w[k] * x)
        return PolyVectorField(comps)

    def fundamental_fields(self) -> list[PolyVectorField]:
        """The exact fields of every generator, built once per action."""
        return self._fields

    def orbit(self, point: Sequence[float], angles: Sequence[float]) -> list:
        """The point turned by every generator through each angle t, as a
        coordinate-major batch with one entry per angle."""
        import numpy as np

        out = list(map(float, point))
        for w in self.weight_rows:
            nxt = []
            for k in range(self.n):
                c = np.array([math.cos(w[k] * t) for t in angles])
                s = np.array([math.sin(w[k] * t) for t in angles])
                x, y = out[2 * k], out[2 * k + 1]
                nxt.extend([c * x - s * y, s * x + c * y])
            out = nxt
        return out

    def rotation_matrix(self, angles: Sequence[float]) -> list[list[float]]:
        out = [[float(i == j) for j in range(self.d)] for i in range(self.d)]
        for g, t in enumerate(angles):
            w = self.weight_rows[g]
            rot = [[0.0] * self.d for _ in range(self.d)]
            for k in range(self.n):
                c, s = math.cos(w[k] * t), math.sin(w[k] * t)
                rot[2 * k][2 * k] = c
                rot[2 * k][2 * k + 1] = -s
                rot[2 * k + 1][2 * k] = s
                rot[2 * k + 1][2 * k + 1] = c
            out = [[sum(rot[i][k] * out[k][j] for k in range(self.d)) for j in range(self.d)] for i in range(self.d)]
        return out


class FiniteOrthogonalAction:
    """A finite group of exact rational orthogonal matrices on R^d."""

    def __init__(self, matrices: Sequence[Sequence[Sequence[Fraction]]]):
        self.matrices = [[[Fraction(x) for x in row] for row in m] for m in matrices]
        self.d = len(self.matrices[0])
        self.m = 0  # no continuous directions


class MetricField:
    """Symmetric metric on R^d, polynomial entries or a plain evaluator."""

    def __init__(
        self,
        d: int,
        entries: Optional[Sequence[Sequence[Polynomial]]] = None,
        evaluator: Optional[Callable] = None,
        poly_degree: Optional[int] = None,
    ):
        self.d = d
        self.entries = entries
        self._evaluator = evaluator
        if entries is not None:
            self.poly_degree = max(p.total_degree() for row in entries for p in row)
        else:
            self.poly_degree = poly_degree

    @classmethod
    def euclidean(cls, d: int) -> "MetricField":
        entries = [
            [Polynomial.constant(d, 1 if i == j else 0) for j in range(d)] for i in range(d)
        ]
        return cls(d, entries=entries)

    @classmethod
    def from_polynomials(cls, entries: Sequence[Sequence[Polynomial]]) -> "MetricField":
        d = len(entries)
        for i in range(d):
            for j in range(d):
                if not (entries[i][j] - entries[j][i]).is_zero():
                    raise ValueError("metric entries must be symmetric")
        return cls(d, entries=entries)

    def evaluate(self, point: Sequence) -> list[list[Number]]:
        if self._evaluator is not None:
            return self._evaluator(point)
        return [[p.evaluate(point) for p in row] for row in self.entries]


def coordinate_major(points: Sequence[Sequence[float]]) -> list:
    """A list of points as one batch: one numpy array per coordinate."""
    import numpy as np

    return [np.array(column, dtype=float) for column in zip(*points)]


def _values(x) -> list:
    """The per-point values of a scalar, or of a batch entry."""
    return [x] if isinstance(x, (int, float, Fraction)) else x.tolist()


def _det(mat: list[list]):
    """Determinant of a Gram matrix: for m = 1 the entry itself (an int
    as a Fraction), which also holds a whole batch; for m > 1 dense_det
    at each point."""
    m = len(mat)
    if m == 1:
        x = mat[0][0]
        return Fraction(x) if isinstance(x, int) else x
    entries = [x for row in mat for x in row]
    if all(isinstance(x, (int, float, Fraction)) for x in entries):
        return dense_det(mat)
    import numpy as np

    per_point = zip(*(a.tolist() for a in np.broadcast_arrays(*entries)))
    return np.array([dense_det([pt[i * m : (i + 1) * m] for i in range(m)]) for pt in per_point])


def gram_matrix(
    metric: MetricField, fields: Sequence[PolyVectorField], point: Sequence
) -> list[list[Number]]:
    """M0[point]: metric pairings of fundamental fields; positive definite
    at the point, or at every point of a batch."""
    g = metric.evaluate(point)
    vals = [f.evaluate(point) for f in fields]
    m = len(fields)
    d = metric.d
    out = [[sum(vals[k][i] * g[i][j] * vals[l][j] for i in range(d) for j in range(d)) for l in range(m)] for k in range(m)]
    det = _det(out)
    singular = det == 0 if isinstance(det, Fraction) else any(abs(x) < 1e-12 for x in _values(det))
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


def required_nodes(metric: MetricField) -> int:
    """Node count making equispaced circle quadrature exact for the metric."""
    if metric.poly_degree is None:
        raise ValueError("metric has no declared polynomial degree")
    return metric.poly_degree + 3  # trig degree of pullback entries is deg + 2


def average_metric(
    metric: MetricField,
    action,
    nodes: Optional[int] = None,
) -> MetricField:
    """Group average of a metric; exact for finite groups, equispaced
    trigonometric quadrature for circle factors."""
    if isinstance(action, FiniteOrthogonalAction):
        mats = action.matrices
        d = action.d

        def evaluate(point):
            acc = None
            for g in mats:
                moved = [sum(g[i][k] * point[k] for k in range(d)) for i in range(d)]
                m = metric.evaluate(moved)
                pulled = [
                    [
                        sum(g[a][i] * m[a][b] * g[b][j] for a in range(d) for b in range(d))
                        for j in range(d)
                    ]
                    for i in range(d)
                ]
                if acc is None:
                    acc = pulled
                else:
                    acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, pulled)]
            k = Fraction(1, len(mats)) if isinstance(acc[0][0], Fraction) else 1.0 / len(mats)
            return [[k * x for x in row] for row in acc]

        return MetricField(d, evaluator=evaluate, poly_degree=metric.poly_degree)

    need = required_nodes(metric)
    if nodes is None:
        nodes = max(need, 8)
    if nodes < need:
        raise QuadratureTooCoarse(f"need at least {need} nodes, got {nodes}")
    d = action.d

    def evaluate(point):
        pt = [float(x) for x in point]
        acc = [[0.0] * d for _ in range(d)]
        for idx in range(nodes):
            t = 2 * math.pi * idx / nodes
            rot = action.rotation_matrix([t] * action.m)
            moved = [sum(rot[i][k] * pt[k] for k in range(d)) for i in range(d)]
            m = [[float(x) for x in row] for row in metric.evaluate(moved)]
            for i in range(d):
                for j in range(d):
                    acc[i][j] += sum(
                        rot[a][i] * m[a][b] * rot[b][j] for a in range(d) for b in range(d)
                    )
        return [[x / nodes for x in row] for row in acc]

    return MetricField(d, evaluator=evaluate, poly_degree=metric.poly_degree)


def orbit_volume(
    metric: MetricField,
    action: CircleAction,
    point: Sequence,
    nodes: int = 256,
) -> float:
    """Integral over the circle of (det Gram)^(1/2) along the orbit.

    For the rescaled metric the integrand is identically 1 and the
    volume equals the group frame volume 2*pi.
    """
    if action.m != 1:
        raise ValueError("orbit volume is implemented for one-circle actions")
    moved = action.orbit(point, [2 * math.pi * idx / nodes for idx in range(nodes)])
    dets = _values(_det(gram_matrix(metric, action.fundamental_fields(), moved)))
    if any(det <= 0 for det in dets):
        raise DegenerateOrbit("non-positive Gram determinant along orbit")
    return 2 * math.pi * math.fsum(math.sqrt(det) for det in dets) / nodes


def split_metric(
    g1: MetricField,
    omega: PolyForm,
    j_matrix: Sequence[Sequence[float]],
    vertical_fields: Sequence[PolyVectorField],
) -> MetricField:
    """Blockwise metric: g1 on vertical pairs, h = omega(J.,.) on normal
    pairs, zero across; orbit Gram matrices are unchanged."""
    import numpy as np

    d = g1.d
    jm = np.array([[float(x) for x in row] for row in j_matrix])

    def evaluate(point):
        pt = [float(x) for x in point]
        gmat = np.array([[float(x) for x in row] for row in g1.evaluate(pt)])
        vert = np.array([[float(v) for v in f.evaluate(pt)] for f in vertical_fields]).T
        m = vert.shape[1]
        # g1-orthogonal complement of the vertical span
        constraints = vert.T @ gmat  # m x d
        _, _, vh = np.linalg.svd(constraints)
        normal = vh[m:].T  # d x (d-m)
        omat = np.array(omega.evaluate_two_form(pt))
        h_block = normal.T @ (jm.T @ omat.T) @ normal
        h_block = 0.5 * (h_block + h_block.T)
        p = np.hstack([vert, normal])
        b = np.zeros((d, d))
        b[:m, :m] = vert.T @ gmat @ vert
        b[m:, m:] = h_block
        pinv = np.linalg.inv(p)
        return (pinv.T @ b @ pinv).tolist()

    return MetricField(d, evaluator=evaluate, poly_degree=g1.poly_degree)


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
