import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import orbit_volume_per_node
from orbcheck.errors import DegenerateOrbit, QuadratureTooCoarse
from orbcheck.foliated import (
    CircleAction,
    FiniteOrthogonalAction,
    MetricField,
    average_metric,
    basic_form_check,
    conformal_factor,
    coordinate_major,
    gram_matrix,
    orbit_invariance_check,
    orbit_volume,
    rescaled_gram,
    required_nodes,
    split_metric,
    transverse_kahler_check,
)
from orbcheck.pipeline import run_pipeline
from orbcheck.polyform import PolyForm, Polynomial, PolyVectorField
from orbcheck.scenario import parse_scenario


def hopf_action(p=1, q=2):
    return CircleAction.circle([p, q])


def test_fundamental_field_is_rotation_derivative():
    action = hopf_action(1, 2)
    field = action.fundamental_field(0)
    # at (1, 0, 0, 1): d/dt (e^{it}, e^{2it} i) |_0 = (i, 2i^2) -> (0,1,-2,0)
    assert field.evaluate([1, 0, 0, 1]) == [0, 1, -2, 0]


def test_gram_matrix_exact_on_rational_points():
    action = hopf_action(1, 2)
    g0 = MetricField.euclidean(4)
    m0 = gram_matrix(g0, action.fundamental_fields(), [Fraction(1), 0, 0, 0])
    assert m0 == [[Fraction(1)]]
    m0 = gram_matrix(g0, action.fundamental_fields(), [0, 0, Fraction(1), 0])
    assert m0 == [[Fraction(4)]]


def test_degenerate_orbit_detected():
    action = hopf_action(1, 2)
    g0 = MetricField.euclidean(4)
    with pytest.raises(DegenerateOrbit):
        gram_matrix(g0, action.fundamental_fields(), [0, 0, 0, 0])


def test_conformal_factor_exact_and_homogeneous():
    m0 = [[Fraction(4)]]
    assert conformal_factor(m0, 1) == Fraction(1, 4)
    assert type(conformal_factor([[4]], 1)) is Fraction  # an int entry is exact
    rng = random.Random(13)
    base = [[Fraction(5), Fraction(2)], [Fraction(2), Fraction(4)]]  # det 16
    u = conformal_factor(base, 2)
    assert u == Fraction(1, 4)
    for _ in range(20):
        c = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        scaled = [[c * x for x in row] for row in base]
        assert conformal_factor(scaled, 2) == u / c


def test_rescaled_gram_det_one_exact():
    m0 = [[Fraction(4), Fraction(0)], [Fraction(0), Fraction(9)]]
    m1, verdict = rescaled_gram(m0, 2)
    assert verdict.passed
    assert m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0] == 1


def test_orbit_volume_round_unit_speed():
    action = hopf_action(1, 1)
    g0 = MetricField.euclidean(4)
    # unit-speed circle through (1,0,0,0): u0 = 1, volume 2*pi
    vol = orbit_volume(g0, action, [1.0, 0.0, 0.0, 0.0])
    assert abs(vol - 2 * math.pi) < 1e-12


def test_orbit_invariance_of_u0_and_m0():
    action = hopf_action(1, 2)
    g0 = MetricField.euclidean(4)
    fields = action.fundamental_fields()

    def u0(pt):
        return conformal_factor(gram_matrix(g0, fields, pt), 1)

    def m0(pt):
        return gram_matrix(g0, fields, pt)

    for pt in ([0.6, 0.0, 0.8, 0.0], [0.3, 0.4, 0.5, -0.2]):
        assert orbit_invariance_check(u0, pt, action).passed
        assert orbit_invariance_check(m0, pt, action).passed


# -- batches: one coordinate-major evaluation per orbit -------------------
#
# A batch must give the same bits as evaluating each point alone, so the
# comparisons below use ==, never a tolerance.


def sphere_points(d, count, seed):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        v = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(sum(x * x for x in v))
        pts.append([x / norm for x in v])
    return pts


def per_point(value, count):
    """The batch value of one entry as a list (a constant entry stays a
    scalar in the batch)."""
    return np.broadcast_to(value, (count,)).tolist()


def bumpy_metric(d):
    """A non-constant symmetric polynomial metric with zero entries."""
    x = [Polynomial.variable(d, k) for k in range(d)]
    entries = [[Polynomial(d) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        entries[i][i] = 2 + x[i] * x[i] * Fraction(1, 3)
    entries[0][1] = entries[1][0] = x[2] * x[3] * Fraction(-1, 5)
    return MetricField.from_polynomials(entries)


def test_polynomial_batch_matches_each_point_bitwise():
    d = 4
    x = [Polynomial.variable(d, k) for k in range(d)]
    polys = [
        Polynomial(d),  # the zero polynomial
        Polynomial.constant(d, Fraction(3, 7)),
        x[0] * x[1] * Fraction(-5, 3) + x[2] * x[2] * x[3] + 2,
        x[3] * x[3] * x[3] * x[3] - x[1] * Fraction(1, 9),
    ]
    points = sphere_points(d, 40, 3)
    # a list of coordinate arrays, and one d x 40 array (no truth value)
    for batch in (coordinate_major(points), np.array(points).T):
        for p in polys:
            assert per_point(p.evaluate(batch), 40) == [p.evaluate(pt) for pt in points], p


@pytest.mark.parametrize("weights", [[1, 2], [1, 2, 3]])
@pytest.mark.parametrize("metric_kind", ["euclidean", "bumpy"])
def test_gram_and_conformal_factor_batch_match_each_point_bitwise(weights, metric_kind):
    action = CircleAction.circle(weights)
    d = action.d
    metric = MetricField.euclidean(d) if metric_kind == "euclidean" else bumpy_metric(d)
    fields = action.fundamental_fields()
    points = sphere_points(d, 60, sum(weights))
    m0 = gram_matrix(metric, fields, coordinate_major(points))
    singles = [gram_matrix(metric, fields, pt) for pt in points]
    assert m0[0][0].tolist() == [s[0][0] for s in singles]
    u0 = conformal_factor(m0, 1)
    assert u0.tolist() == [conformal_factor(s, 1) for s in singles]
    _, verdict = rescaled_gram(m0, 1)
    assert verdict.max_dev == max(rescaled_gram(s, 1)[1].max_dev for s in singles)


def test_two_torus_batch_matches_each_point_bitwise():
    # m = 2: the batch determinant is dense_det at each point
    action = CircleAction([[1, 2, 0], [0, 1, 3]])
    metric = bumpy_metric(6)
    fields = action.fundamental_fields()
    points = sphere_points(6, 30, 7)
    m0 = gram_matrix(metric, fields, coordinate_major(points))
    singles = [gram_matrix(metric, fields, pt) for pt in points]
    assert [[x.tolist() for x in row] for row in m0] == [
        [[s[k][l] for s in singles] for l in range(2)] for k in range(2)
    ]
    assert conformal_factor(m0, 2).tolist() == [conformal_factor(s, 2) for s in singles]
    _, verdict = rescaled_gram(m0, 2)
    assert verdict.max_dev == max(rescaled_gram(s, 2)[1].max_dev for s in singles)

    def m0_field(pt):  # the Euclidean metric is torus invariant
        return gram_matrix(MetricField.euclidean(6), fields, pt)

    assert orbit_invariance_check(m0_field, points[0], action).passed


def test_conformal_factor_batch_uses_python_pow():
    # numpy's ** -1.0 takes a reciprocal shortcut that can round the last
    # bit differently from Python's pow on this kind of value
    det = 8.259991387009073
    u0 = conformal_factor([[np.array([det, 2.0])]], 1)
    assert u0.tolist() == [det ** -1.0, 0.5]
    assert u0.tolist()[0] == conformal_factor([[det]], 1)


def test_degenerate_point_anywhere_in_a_batch_is_detected():
    action = hopf_action(1, 2)
    g0 = MetricField.euclidean(4)
    batch = coordinate_major([[0.6, 0.0, 0.8, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateOrbit):
        gram_matrix(g0, action.fundamental_fields(), batch)


@pytest.mark.parametrize("weights", [[1, 2], [1, 2, 3]])
def test_batched_orbit_volume_matches_the_per_node_loop_bitwise(weights):
    action = CircleAction.circle(weights)
    d = action.d
    g0 = MetricField.euclidean(d)
    fields = action.fundamental_fields()

    def g1_eval(point):
        u0 = conformal_factor(gram_matrix(g0, fields, point), 1)
        return [[u0 * x for x in row] for row in g0.evaluate(point)]

    g1 = MetricField(d, evaluator=g1_eval, poly_degree=0)
    for metric in (g0, g1, bumpy_metric(d)):
        for pt in sphere_points(d, 3, len(weights)):
            want = orbit_volume_per_node(lambda p: gram_matrix(metric, fields, p), weights, pt, 100)
            assert orbit_volume(metric, action, pt, nodes=100) == want


GOLDEN = Path(__file__).parent / "golden"


def test_hopf3_golden_pins_the_three_weight_taut_bytes():
    scenario = parse_scenario((GOLDEN / "hopf3.scn").read_text())
    assert scenario.geometry.weights == [1, 2, 3]
    assert run_pipeline(scenario).to_machine() == (GOLDEN / "hopf3.machine").read_text()


def test_average_metric_finite_group_exact():
    # swap of the two coordinates averages an asymmetric diagonal metric
    x = Polynomial.variable(2, 0)

    one = Polynomial.constant(2, 1)
    zero = Polynomial.constant(2, 0)
    entries = [[1 + x * x, zero], [zero, one]]
    metric = MetricField.from_polynomials(entries)
    swap = FiniteOrthogonalAction([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    avg = average_metric(metric, swap)
    got = avg.evaluate([Fraction(2), Fraction(3)])
    # (identity sees 1+x^2 at x=2; swap sees 1+x^2 at x=3 in slot (1,1))
    assert got[0][0] == Fraction(6, 2) and got[1][1] == Fraction(11, 2)
    # the average is swap invariant at the swapped point as well
    swapped = avg.evaluate([Fraction(3), Fraction(2)])
    assert swapped[0][0] == got[1][1] and swapped[1][1] == got[0][0]


def test_average_metric_quadrature_guard():
    metric = MetricField.euclidean(2)
    action = CircleAction.circle([1])
    assert required_nodes(metric) == 3
    with pytest.raises(QuadratureTooCoarse):
        average_metric(metric, action, nodes=2)


def tk_fixture():
    # chart coordinates (theta, x, y); omega the pullback flat form dx ^ dy
    d = 3
    omega = PolyForm(d, 2, {(1, 2): Polynomial.constant(d, 1)})
    j = [[0, 0, 0], [0, 0, 1], [0, -1, 0]]
    vertical = [PolyVectorField.coordinate(d, 0)]
    samples = [[0.0, 0.2, 0.3], [1.5, -0.4, 0.1]]
    return omega, j, vertical, samples


def test_transverse_kahler_pullback_form_passes():
    omega, j, vertical, samples = tk_fixture()
    verdicts = transverse_kahler_check(omega, j, vertical, samples)
    assert [name for name, v in verdicts.items() if v.passed] == ["closed", "kernel", "positive"]


def test_transverse_kahler_dtheta_wedge_dx_fails_kernel():
    _, j, vertical, samples = tk_fixture()
    bad = PolyForm(3, 2, {(0, 1): Polynomial.constant(3, 1)})  # dtheta ^ dx
    verdicts = transverse_kahler_check(bad, j, vertical, samples)
    assert verdicts["closed"].passed
    assert not verdicts["kernel"].passed


def test_transverse_kahler_exact_perturbation():
    omega, j, vertical, samples = tk_fixture()
    x = Polynomial.variable(3, 1)
    perturbation = PolyForm(3, 1, {(2,): x * x}).exterior_derivative()  # d(x^2 dy)
    verdicts = transverse_kahler_check(omega + perturbation, j, vertical, samples)
    assert verdicts["closed"].passed and verdicts["kernel"].passed


def test_basic_form_fixtures_pass_fail_fail():
    d = 3
    vertical = [PolyVectorField.coordinate(d, 0)]
    x = Polynomial.variable(d, 1)
    theta = Polynomial.variable(d, 0)
    pullback = PolyForm(d, 1, {(2,): Polynomial.constant(d, 1)})  # dy
    dtheta = PolyForm(d, 1, {(0,): Polynomial.constant(d, 1)})
    assert basic_form_check(pullback, vertical).passed
    assert not basic_form_check(dtheta, vertical).passed
    # f * dy with f = x is basic; f = theta breaks the d-alpha condition
    assert basic_form_check(PolyForm(d, 1, {(2,): x}), vertical).passed
    assert not basic_form_check(PolyForm(d, 1, {(2,): theta}), vertical).passed


def test_split_metric_preserves_vertical_block():
    action = hopf_action(1, 2)
    g0 = MetricField.euclidean(4)
    fields = action.fundamental_fields()
    x1 = Polynomial.variable(4, 0)
    omega = PolyForm(
        4,
        2,
        {
            (0, 1): Polynomial.constant(4, 1),
            (2, 3): Polynomial.constant(4, 1),
        },
    )
    j = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    g = split_metric(g0, omega, j, fields)
    for pt in ([0.6, 0.1, 0.8, 0.0], [0.3, 0.4, 0.5, -0.2]):
        before = gram_matrix(g0, fields, pt)
        after = gram_matrix(g, fields, pt)
        dev = max(
            abs(float(a) - float(b))
            for ra, rb in zip(before, after)
            for a, b in zip(ra, rb)
        )
        assert dev < 1e-9
