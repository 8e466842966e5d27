import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import gram_by_metric_pairing
from orbcheck.catalog import catalog_scenario
from orbcheck.errors import NonPositiveDeterminant
from orbcheck.foliated import (
    CircleAction,
    basic_form_check,
    conformal_factor,
    gram_matrix,
    orbit_invariance_check,
    orbit_volume,
    rescaled_gram,
    transverse_kahler_check,
)
from orbcheck.pipeline import run_pipeline
from orbcheck.polyform import PolyForm, Polynomial, PolyVectorField
from orbcheck.scenario import parse_scenario
from orbcheck.verdict import Verdict


def hopf_action(p=1, q=2):
    return CircleAction([p, q])


def test_fundamental_field_is_rotation_derivative():
    action = hopf_action(1, 2)
    [field] = action.fundamental_fields()
    # at (1, 0, 0, 1): d/dt (e^{it}, e^{2it} i) |_0 = (i, 2i^2) -> (0,1,-2,0)
    assert field.evaluate([1, 0, 0, 1]) == [0, 1, -2, 0]


def test_gram_matrix_exact_on_rational_points():
    action = hopf_action(1, 2)
    [[m0]] = gram_matrix(action.fundamental_fields())
    x = [Polynomial.variable(4, k) for k in range(4)]
    assert m0 == x[0] * x[0] + x[1] * x[1] + 4 * (x[2] * x[2] + x[3] * x[3])
    assert m0.evaluate([Fraction(1), 0, 0, 0]) == 1
    at = m0.evaluate([0, 0, Fraction(1), 0])
    assert at == 4
    m1, verdict = rescaled_gram([[at]], 1)
    assert m1 == [[Fraction(1)]] and verdict.passed


def test_degenerate_orbit_detected():
    # the circle fixes the origin: M0 = 0 there, and no u0 exists
    action = hopf_action(1, 2)
    [[m0]] = gram_matrix(action.fundamental_fields())
    with pytest.raises(NonPositiveDeterminant):
        conformal_factor([[m0.evaluate([0, 0, 0, 0])]], 1)
    with pytest.raises(NonPositiveDeterminant):
        orbit_volume(action, [0, 0, 0, 0])


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
    with pytest.raises(ValueError, match="no rational 2-th root"):
        conformal_factor([[Fraction(2), 0], [0, Fraction(1)]], 2)


def test_rescaled_gram_det_one_exact():
    m0 = [[Fraction(4), Fraction(0)], [Fraction(0), Fraction(9)]]
    m1, verdict = rescaled_gram(m0, 2)
    assert verdict.passed
    assert m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0] == 1


def test_orbit_volume_round_unit_speed():
    # unit-speed circle through (1,0,0,0): u0 = 1, volume 2*pi
    assert orbit_volume(hopf_action(1, 1), [1, 0, 0, 0]) == 2 * math.pi
    # speed 2 through (0,0,1,0): u0 = 1/4 rescales the volume 4*pi to 2*pi
    assert orbit_volume(hopf_action(1, 2), [0, 0, 1, 0]) == 2 * math.pi
    # speed^2 9/25 + 4 * 16/25 = 73/25 off the axes
    assert orbit_volume(hopf_action(1, 2), [Fraction(3, 5), 0, Fraction(4, 5), 0]) == 2 * math.pi


def along(field, f):
    """X(f) = sum_i X_i df/dx_i, term by term."""
    return sum((c * f.diff(k) for k, c in enumerate(field.components)), Polynomial(field.d))


def rotate_exactly(weights, point, c=Fraction(3, 5), s=Fraction(4, 5)):
    """z_k -> (c + i s)^w_k z_k for the rational unit c + i s: an exact
    point of the circle action's orbit, found without the field."""
    out = []
    for k, w in enumerate(weights):
        a, b = Fraction(1), Fraction(0)
        for _ in range(abs(w)):
            a, b = a * c - b * s, a * s + b * c
        if w < 0:
            b = -b
        x, y = point[2 * k], point[2 * k + 1]
        out.extend([a * x - b * y, b * x + a * y])
    return out


def test_orbit_invariance_of_u0_and_m0():
    action = hopf_action(1, 2)
    [field] = action.fundamental_fields()
    [[m0]] = gram_matrix([field])
    one = Polynomial.constant(action.d, 1)
    assert orbit_invariance_check(field, m0) == Verdict(True)
    assert orbit_invariance_check(field, one, m0) == Verdict(True)


@pytest.mark.parametrize("weights", [[1, 2], [2, 3], [1, 3], [1, 2, 3], [3, 1, 2], [-2, 5]])
def test_m0_is_killing_invariant_at_exact_orbit_points(weights):
    action = CircleAction(weights)
    [field] = action.fundamental_fields()
    [[m0]] = gram_matrix([field])
    assert along(field, m0).is_zero()
    assert orbit_invariance_check(field, m0).passed
    # oracle: M0 takes one value along the orbit through a rational point
    rng = random.Random(sum(weights))
    for _ in range(5):
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(action.d)]
        moved = pt
        for _ in range(3):
            moved = rotate_exactly(weights, moved)
            assert m0.evaluate(moved) == m0.evaluate(pt)


def wrong_weight_field(weights, k, w_wrong):
    """The circle's field with pair k rotated as (-w_k y, w' x)."""
    [field] = CircleAction(weights).fundamental_fields()
    comps = list(field.components)
    comps[2 * k + 1] = w_wrong * Polynomial.variable(len(comps), 2 * k)
    return PolyVectorField(comps)


@pytest.mark.parametrize("weights, k, w_wrong", [([1, 2], 0, 2), ([1, 2], 1, 3), ([1, 2, 3], 2, -3)])
def test_wrong_weight_field_is_not_killing(weights, k, w_wrong):
    # (-w y, w' x) with w != w' moves |X|^2 = w^2 y^2 + w'^2 x^2 along its
    # own flow: X(M0) = 2 w w' (w - w') x y
    field = wrong_weight_field(weights, k, w_wrong)
    [[m0]] = gram_matrix([field])
    w = weights[k]
    x, y = Polynomial.variable(field.d, 2 * k), Polynomial.variable(field.d, 2 * k + 1)
    assert along(field, m0) == 2 * w * w_wrong * (w - w_wrong) * x * y
    verdict = orbit_invariance_check(field, m0, name="M0")
    assert not verdict.passed and verdict.detail == f"X(M0) = {along(field, m0)}"
    one = Polynomial.constant(field.d, 1)
    assert not orbit_invariance_check(field, one, m0).passed


def test_wrong_weight_field_fails_the_taut_invariance_lines(monkeypatch):
    field = wrong_weight_field([1, 2], 0, 2)  # X(M0) = -4 x0 x1
    monkeypatch.setattr(CircleAction, "fundamental_fields", lambda self: [field])
    lines = run_pipeline(catalog_scenario("weighted-hopf:1:2")).to_machine().splitlines()
    m0 = "4*x3^2 + 4*x2^2 + 1*x1^2 + 4*x0^2"
    assert lines[1:5] == [
        "taut.detM1 = PASS max_dev=0.000e+00",  # decided on the weights, which are valid
        "taut.orbit_volume = PASS max_dev=0.000e+00",
        f"taut.invariance.u0 = FAIL X(u0) = (4*x0*x1) / ({m0})^2",
        "taut.invariance.M0 = FAIL X(M0) = -4*x0*x1",
    ]
    assert lines[-1] == "overall = FAIL"


def test_integer_weights_keep_integer_coefficients_and_rational_points_stay_exact():
    # an int stays an int until a rational input makes it a Fraction
    for field in (CircleAction([1, 2, 3]).fundamental_fields()[0], wrong_weight_field([1, 2], 0, 2)):
        [[m0]] = gram_matrix([field])
        polys = [*field.components, m0, along(field, m0)]
        assert {type(c) for p in polys for c in p.terms.values()} == {int}
    x = [Polynomial.variable(3, k) for k in range(3)]
    p = x[0] * x[1] * 2 - x[2] * Fraction(1, 3)
    pt = [Fraction(1, 3), Fraction(-3, 4), Fraction(2, 5)]
    assert p.evaluate(pt) == Fraction(-1, 2) - Fraction(2, 15) and type(p.evaluate(pt)) is Fraction
    assert type(Polynomial(3).evaluate(pt)) is int
    omega = PolyForm(3, 2, {(0, 1): x[2] * 3, (1, 2): Polynomial.constant(3, 1)})
    assert omega.evaluate_two_form(pt) == [[0, Fraction(6, 5), 0], [Fraction(-6, 5), 0, 1], [0, -1, 0]]
    assert {type(v) for row in omega.evaluate_two_form(pt) for v in row} == {int, Fraction}


@pytest.mark.parametrize("weights", [[1, 2], [1, 3], [2, 3], [1, 2, 3]])
def test_gram_matrix_equals_the_full_metric_pairing(weights):
    # the polynomial Gram matrix sums along the diagonal what the d x d
    # pairing sums over every entry; at rational points the two agree
    # exactly, for g0 and for u0 g0
    action = CircleAction(weights)
    fields = action.fundamental_fields()
    gram = gram_matrix(fields)
    rng = random.Random(sum(weights))
    for _ in range(5):
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(action.d)]
        m0 = [[p.evaluate(pt) for p in row] for row in gram]
        assert m0 == gram_by_metric_pairing(fields, pt)
        if m0[0][0]:
            u = conformal_factor(m0, 1)
            assert rescaled_gram(m0, 1)[0] == gram_by_metric_pairing(fields, pt, u) == [[1]]


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
