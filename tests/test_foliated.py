import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import gram_by_metric_pairing, orbit_volume_per_node
from orbcheck.errors import DegenerateOrbit
from orbcheck.foliated import (
    CircleAction,
    basic_form_check,
    conformal_factor,
    coordinate_major,
    gram_matrix,
    orbit_invariance_check,
    orbit_volume,
    rescaled_gram,
    transverse_kahler_check,
)
from orbcheck.pipeline import run_pipeline
from orbcheck.polyform import PolyForm, Polynomial, PolyVectorField
from orbcheck.scenario import parse_scenario


def hopf_action(p=1, q=2):
    return CircleAction([p, q])


def test_fundamental_field_is_rotation_derivative():
    action = hopf_action(1, 2)
    [field] = action.fundamental_fields()
    # at (1, 0, 0, 1): d/dt (e^{it}, e^{2it} i) |_0 = (i, 2i^2) -> (0,1,-2,0)
    assert field.evaluate([1, 0, 0, 1]) == [0, 1, -2, 0]


def test_gram_matrix_exact_on_rational_points():
    action = hopf_action(1, 2)
    m0 = gram_matrix(action.fundamental_fields(), [Fraction(1), 0, 0, 0])
    assert m0 == [[Fraction(1)]]
    m0 = gram_matrix(action.fundamental_fields(), [0, 0, Fraction(1), 0])
    assert m0 == [[Fraction(4)]]
    m1 = gram_matrix(action.fundamental_fields(), [0, 0, Fraction(1), 0], conformal_factor(m0, 1))
    assert m1 == [[Fraction(1)]]


def test_degenerate_orbit_detected():
    action = hopf_action(1, 2)
    with pytest.raises(DegenerateOrbit):
        gram_matrix(action.fundamental_fields(), [0, 0, 0, 0])


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
    # unit-speed circle through (1,0,0,0): u0 = 1, volume 2*pi
    vol = orbit_volume(hopf_action(1, 1), [1.0, 0.0, 0.0, 0.0])
    assert abs(vol - 2 * math.pi) < 1e-12
    # speed 2 through (0,0,1,0): u0 = 1/4 rescales the volume 4*pi to 2*pi
    vol = orbit_volume(hopf_action(1, 2), [0.0, 0.0, 1.0, 0.0])
    assert abs(vol - 2 * math.pi) < 1e-12


def test_orbit_invariance_of_u0_and_m0():
    action = hopf_action(1, 2)
    fields = action.fundamental_fields()

    def u0(pt):
        return conformal_factor(gram_matrix(fields, pt), 1)

    def m0(pt):
        return gram_matrix(fields, pt)

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


@pytest.mark.parametrize("weights", [[1, 2], [1, 3], [2, 3], [1, 2, 3]])
def test_gram_matrix_equals_the_full_metric_pairing(weights):
    # the Gram matrix sums along the diagonal what the d x d pairing sums
    # over every entry: its off-diagonal terms are (v * 0.0) * v = +-0.0
    # and v * 1 = v, so the two agree bit for bit, for g0 and for u0 g0
    action = CircleAction(weights)
    fields = action.fundamental_fields()
    points = sphere_points(action.d, 60, sum(weights))
    batch = coordinate_major(points)

    def bits(m):  # hex tells a -0.0 from 0.0, as == does not
        return [x.hex() for x in m[0][0].tolist()]

    m0 = gram_matrix(fields, batch)
    assert bits(m0) == bits(gram_by_metric_pairing(fields, batch))
    u0 = conformal_factor(m0, 1)
    assert bits(gram_matrix(fields, batch, u0)) == bits(gram_by_metric_pairing(fields, batch, u0))
    for pt in points[:5]:
        assert gram_matrix(fields, pt) == gram_by_metric_pairing(fields, pt)
    exact = [Fraction(k + 1, 7) for k in range(action.d)]
    assert gram_matrix(fields, exact) == gram_by_metric_pairing(fields, exact)
    u = conformal_factor(gram_matrix(fields, exact), 1)
    assert gram_matrix(fields, exact, u) == gram_by_metric_pairing(fields, exact, u)


@pytest.mark.parametrize("weights", [[1, 2], [1, 2, 3]])
@pytest.mark.parametrize("metric_kind", ["euclidean", "rescaled"])
def test_gram_and_conformal_factor_batch_match_each_point_bitwise(weights, metric_kind):
    action = CircleAction(weights)
    fields = action.fundamental_fields()
    points = sphere_points(action.d, 60, sum(weights))
    batch = coordinate_major(points)
    if metric_kind == "euclidean":
        u, units = 1, [1] * len(points)
    else:  # u0 g0, with u0 formed on the batch and at each point alone
        u = conformal_factor(gram_matrix(fields, batch), 1)
        units = [conformal_factor(gram_matrix(fields, pt), 1) for pt in points]
    m0 = gram_matrix(fields, batch, u)
    singles = [gram_matrix(fields, pt, v) for pt, v in zip(points, units)]
    assert m0[0][0].tolist() == [s[0][0] for s in singles]
    u0 = conformal_factor(m0, 1)
    assert u0.tolist() == [conformal_factor(s, 1) for s in singles]
    _, verdict = rescaled_gram(m0, 1)
    assert verdict.max_dev == max(rescaled_gram(s, 1)[1].max_dev for s in singles)


def test_conformal_factor_batch_uses_python_pow():
    # numpy's ** -1.0 takes a reciprocal shortcut that can round the last
    # bit differently from Python's pow on this kind of value
    det = 8.259991387009073
    u0 = conformal_factor([[np.array([det, 2.0])]], 1)
    assert u0.tolist() == [det ** -1.0, 0.5]
    assert u0.tolist()[0] == conformal_factor([[det]], 1)


def test_degenerate_point_anywhere_in_a_batch_is_detected():
    action = hopf_action(1, 2)
    batch = coordinate_major([[0.6, 0.0, 0.8, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateOrbit):
        gram_matrix(action.fundamental_fields(), batch)


@pytest.mark.parametrize("weights", [[1, 2], [1, 2, 3]])
def test_batched_orbit_volume_matches_the_per_node_loop_bitwise(weights):
    action = CircleAction(weights)
    fields = action.fundamental_fields()

    def m1(pt):  # the rescaled metric's Gram matrix at one node
        u0 = conformal_factor(gram_by_metric_pairing(fields, pt), 1)
        return gram_by_metric_pairing(fields, pt, u0)

    for pt in sphere_points(action.d, 3, len(weights)):
        want = orbit_volume_per_node(m1, weights, pt, 100)
        assert orbit_volume(action, pt, nodes=100) == want


GOLDEN = Path(__file__).parent / "golden"


def test_hopf3_golden_pins_the_three_weight_taut_bytes():
    scenario = parse_scenario((GOLDEN / "hopf3.scn").read_text())
    assert scenario.geometry.weights == [1, 2, 3]
    assert run_pipeline(scenario).to_machine() == (GOLDEN / "hopf3.machine").read_text()


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
