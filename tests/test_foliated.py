import math
import random
from fractions import Fraction

import pytest

from orbcheck.errors import DegenerateOrbit, QuadratureTooCoarse
from orbcheck.foliated import (
    CircleAction,
    FiniteOrthogonalAction,
    MetricField,
    average_metric,
    basic_form_check,
    conformal_factor,
    gram_matrix,
    orbit_invariance_check,
    orbit_volume,
    rescaled_gram,
    required_nodes,
    split_metric,
    transverse_kahler_check,
)
from orbcheck.polyform import PolyForm, Polynomial, PolyVectorField


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
