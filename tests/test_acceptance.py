"""Acceptance suite: one test per pinned criterion, stated tolerances.

Derived numbers are cross-checked against independent oracles
(fraction-free Bareiss rank, modular elimination rank, exact
enumeration) before being compared with the package's answers.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import bareiss_rank, modular_rank

from orbcheck.atlas import ChangeOfChart, equivalent_changes
from orbcheck.catalog import catalog_scenario
from orbcheck.cohomology import (
    CochainComplexQ,
    InvariantCohomology,
    KahlerClassRep,
    cup_power,
    kahler_class,
    lefschetz_verify,
)
from orbcheck.foliated import conformal_factor
from orbcheck.pipeline import build_atlas, build_quotient, product_sum_kahler, run_pipeline
from orbcheck.scenario import parse_scenario
from orbcheck.simplicial import (
    SimplicialComplex,
    fundamental_cycle,
    pair_with_cycle,
)

SEIFERT_CATALOG = ("football:2", "football:3", "football:4", "quaternion-chart")
QUOTIENT_CATALOG = (
    "football:2",
    "football:3",
    "football:4",
    "pillowcase",
    "torus7",
    "octahedron",
    "rp2-antipodal",
    "t4-z2",
)

T4_TRIVIAL = """
[scenario]
name = t4-trivial
pipelines = quotient

[complex T]
vertices = 7
facets = {facets}
vertex_order = 1, 2, 3, 0, 4, 5, 6

[complex T4]
product = T * T

[action I]
group = trivial

[quotient]
complex = T4
action = I
complex_dim_n = 2
kahler = product-sum
"""


def torus_facets():
    return " ".join(
        f"({i},{(i + 1) % 7},{(i + 3) % 7}) ({i},{(i + 2) % 7},{(i + 3) % 7})"
        for i in range(7)
    )


def report_map(report):
    return {e.key: (e.value, e.ok) for e in report.entries}


def t4_trivial_scenario():
    return parse_scenario(T4_TRIVIAL.format(facets=torus_facets()))


# -- criterion 1: Seifert construction suite ------------------------------


def test_acceptance_1_seifert_suite():
    start = time.monotonic()
    for name in SEIFERT_CATALOG:
        report = run_pipeline(catalog_scenario(name))
        entries = report_map(report)
        seifert = {k: v for k, v in entries.items() if k.startswith("seifert.")}
        assert seifert, name
        for key, (value, ok) in seifert.items():
            if ok is not None:
                assert ok, f"{name}: {key} = {value}"
        # freeness, equivariance, well-definedness and cocycle all present
        assert any(k.startswith("seifert.free.") for k in seifert)
        assert any(k.startswith("seifert.equivariance.") for k in seifert)
        assert any(k.startswith("seifert.well_defined.") for k in seifert)
        assert any(k.startswith("seifert.cocycle.") for k in seifert)
    assert time.monotonic() - start < 10.0


# -- criterion 2: taut metric suite ---------------------------------------


@pytest.mark.parametrize("name", ["weighted-hopf:1:2", "weighted-hopf:2:3"])
def test_acceptance_2_taut_suite(name):
    start = time.monotonic()
    report = run_pipeline(catalog_scenario(name))
    entries = report_map(report)
    # det M1 = 1 at 10^3 samples within 1e-12 (tolerance pinned in pipeline)
    value, ok = entries["taut.detM1"]
    assert ok, value
    assert float(value.split("max_dev=")[1]) <= 1e-12
    # orbit volumes equal 2*pi within 1e-9 across 50 orbits
    value, ok = entries["taut.orbit_volume"]
    assert ok, value
    assert float(value.split("max_dev=")[1]) <= 1e-9
    # u0 and M0 constant along sampled orbits within 1e-12
    for key in ("taut.invariance.u0", "taut.invariance.M0"):
        value, ok = entries[key]
        assert ok, value
        assert float(value.split("max_dev=")[1]) <= 1e-12
    assert time.monotonic() - start < 30.0


# -- criterion 3: transverse Kahler / basic forms -------------------------


def test_acceptance_3_transverse_kahler_and_basic_forms():
    from orbcheck.foliated import basic_form_check, transverse_kahler_check
    from orbcheck.polyform import PolyForm, Polynomial, PolyVectorField

    d = 3
    vertical = [PolyVectorField.coordinate(d, 0)]
    j = [[0, 0, 0], [0, 0, 1], [0, -1, 0]]
    samples = [[0.0, 0.2, 0.3], [1.0, -0.4, 0.1], [2.5, 0.5, -0.5]]
    omega = PolyForm(d, 2, {(1, 2): Polynomial.constant(d, 1)})
    verdicts = transverse_kahler_check(omega, j, vertical, samples, tol=1e-9)
    assert [name for name, v in verdicts.items() if v.passed] == ["closed", "kernel", "positive"]

    # d(theta) fails the kernel check
    dtheta = PolyForm(d, 1, {(0,): Polynomial.constant(d, 1)})
    bad = dtheta.wedge(PolyForm.dx(d, 1))
    v2 = transverse_kahler_check(bad, j, vertical, samples)
    assert not v2["kernel"].passed

    # the three basic-form fixtures: PASS / FAIL / FAIL
    x = Polynomial.variable(d, 1)
    theta = Polynomial.variable(d, 0)
    pullback = PolyForm(d, 1, {(2,): x})
    assert basic_form_check(pullback, vertical).passed
    assert not basic_form_check(dtheta, vertical).passed
    assert not basic_form_check(PolyForm(d, 1, {(2,): theta}), vertical).passed

    # d.d = 0, Leibniz and Cartan on 100 random polynomial forms
    from test_polyform import rand_form, rand_poly

    rng = random.Random(101)
    for _ in range(100):
        dd = rng.randint(2, 4)
        p = rng.randint(0, dd - 1)
        q = rng.randint(0, dd - 1)
        a = rand_form(rng, dd, p)
        b = rand_form(rng, dd, q)
        field = PolyVectorField([rand_poly(rng, dd) for _ in range(dd)])
        assert a.exterior_derivative().exterior_derivative().is_zero()
        lhs = a.wedge(b).exterior_derivative()
        rhs = a.exterior_derivative().wedge(b) + a.wedge(
            b.exterior_derivative()
        ).scale((-1) ** p)
        assert lhs == rhs
        if p >= 1 and q >= 1:  # contraction drops the degree by one
            lhs = a.wedge(b).contract(field)
            rhs = a.contract(field).wedge(b) + a.wedge(b.contract(field)).scale(
                (-1) ** p
            )
            assert lhs == rhs


# -- criterion 4: cohomology suite ----------------------------------------


def test_acceptance_4_betti_numbers_with_rank_oracles():
    start = time.monotonic()
    expectations = {
        "octahedron": ([1, 0, 1], [1, 0, 1]),
        "torus7": ([1, 2, 1], [1, 2, 1]),
        "football:3": ([1, 0, 1], [1, 0, 1]),
        "pillowcase": ([1, 2, 1], [1, 0, 1]),
        "rp2-antipodal": ([1, 0, 1], [1, 0, 0]),
        "t4-z2": ([1, 4, 6, 4, 1], [1, 0, 6, 0, 1]),
    }
    for name, (full, inv) in expectations.items():
        setup = build_quotient(catalog_scenario(name))
        cq = setup.cq
        assert cq.betti_numbers() == full, name
        # reproduce every coboundary rank with the modular oracle
        for p in range(cq.dim):
            claimed = cq.rank_delta(p)
            assert claimed == modular_rank(cq._delta_cols[p], cq.cx.count(p + 1)), (
                name,
                p,
            )
            if cq.cx.count(p) <= 100:
                dense = [
                    [cq._delta_cols[p][j].get(i, Fraction(0)) for j in range(cq.cx.count(p))]
                    for i in range(cq.cx.count(p + 1))
                ]
                assert claimed == bareiss_rank(dense), (name, p)
        invariant = InvariantCohomology(cq, setup.action)
        assert [invariant.invariant_betti(p) for p in range(cq.dim + 1)] == inv, name
    assert time.monotonic() - start < 120.0


# -- criterion 5: hard Lefschetz suite ------------------------------------


def hlt_setup(name):
    setup = build_quotient(catalog_scenario(name))
    invariant = InvariantCohomology(setup.cq, setup.action)
    cycle = fundamental_cycle(setup.cx)
    return setup, invariant, cycle


def test_acceptance_5_hard_lefschetz():
    # football:3 -- k = 1 on a 1x1 block
    setup, inv, cycle = hlt_setup("football:3")
    omega = kahler_class(inv, cycle, 1)
    e = lefschetz_verify(inv, omega, 1)
    assert e.passed and e.detail == "rank=1 dims=1x1"

    # torus7 -- k = 0 identity on H^1 (2x2) and k = 1 from H^0 to H^2
    setup, inv, cycle = hlt_setup("torus7")
    omega = kahler_class(inv, cycle, 1)
    e0 = lefschetz_verify(inv, omega, 0)
    assert e0.passed and e0.detail == "rank=2 dims=2x2"
    e1 = lefschetz_verify(inv, omega, 1)
    assert e1.passed and e1.detail == "rank=1 dims=1x1"

    # T^4 with the trivial group -- k = 1 is 4x4 full rank, k = 2 is 1x1
    setup = build_quotient(t4_trivial_scenario())
    inv = InvariantCohomology(setup.cq, setup.action)
    cycle = fundamental_cycle(setup.cx)
    omega = kahler_class(inv, cycle, 2, explicit=product_sum_kahler(setup))
    assert abs(omega.pairing) == 2  # <omega^2, fundamental> = +/-2
    e1 = lefschetz_verify(inv, omega, 1)
    assert e1.passed and e1.detail == "rank=4 dims=4x4"
    e2 = lefschetz_verify(inv, omega, 2)
    assert e2.passed and e2.detail == "rank=1 dims=1x1"

    # t4-z2 -- k = 2: 1x1; k = 1: 0x0 vacuous; k = 0: 6x6 identity
    setup, inv, cycle = hlt_setup("t4-z2")
    omega = kahler_class(inv, cycle, 2, explicit=product_sum_kahler(setup))
    assert abs(omega.pairing) == 2
    dims = {k: lefschetz_verify(inv, omega, k) for k in (0, 1, 2)}
    assert dims[2].passed and dims[2].detail == "rank=1 dims=1x1"
    assert dims[1].passed and dims[1].detail == "rank=0 dims=0x0"
    assert dims[0].passed and dims[0].detail == "rank=6 dims=6x6"


# -- criterion 6: Poincare duality suite ----------------------------------


def test_acceptance_6_poincare_duality():
    for name in ("octahedron", "torus7", "football:3", "pillowcase", "t4-z2"):
        report = run_pipeline(catalog_scenario(name))
        entries = report_map(report)
        assert entries["pd.fundamental_cycle"][1], name
        pd = {k: v for k, v in entries.items() if k.startswith("pd.p")}
        assert pd, name
        for key, (value, ok) in pd.items():
            assert ok, f"{name}: {key} = {value}"
    # expected-fail fixture
    report = run_pipeline(catalog_scenario("rp2-antipodal"))
    entries = report_map(report)
    value, ok = entries["pd.fundamental_cycle"]
    assert not ok and "NonOrientable" in value
    assert not any(k.startswith("hlt.") for k in entries)


# -- criterion 7: property suites -----------------------------------------


def test_acceptance_7_property_suites():
    start = time.monotonic()

    # equivalent_changes round-trip over all g in Gamma_j, every overlap
    for name in SEIFERT_CATALOG:
        atlas = build_atlas(catalog_scenario(name))
        for change in atlas.changes:
            group = atlas.chart(change.target).group
            for g in group:
                twisted = ChangeOfChart(
                    change.source,
                    change.target,
                    g @ change.linear,
                    g.apply(change.offset),
                    change.source_domain,
                )
                assert equivalent_changes(change, twisted, group) == g

    # P^2 = P on every degree of every catalog quotient
    for name in QUOTIENT_CATALOG:
        setup = build_quotient(catalog_scenario(name))
        inv = InvariantCohomology(setup.cq, setup.action)
        for p in range(setup.cq.dim + 1):
            proj = inv.degree(p).projector
            b = len(proj)
            sq = [
                [sum(proj[i][k] * proj[k][j] for k in range(b)) for j in range(b)]
                for i in range(b)
            ]
            assert sq == proj, (name, p)

    # Betti invariance under 5 random vertex reorderings of torus7
    rng = random.Random(23)
    facets = [
        (i, (i + 1) % 7, (i + 3) % 7) for i in range(7)
    ] + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    for _ in range(5):
        order = list(range(7))
        rng.shuffle(order)
        cq = CochainComplexQ(SimplicialComplex(order, facets))
        assert cq.betti_numbers() == [1, 2, 1]

    # u0 homogeneity for 20 random rational c
    base = [[Fraction(5), Fraction(2)], [Fraction(2), Fraction(4)]]
    u = conformal_factor(base, 2)
    for _ in range(20):
        c = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        scaled = [[c * x for x in row] for row in base]
        assert conformal_factor(scaled, 2) == u / c

    # Lefschetz ranks and dims invariant under omega -> g.omega for all g (t4-z2)
    setup = build_quotient(catalog_scenario("t4-z2"))
    inv = InvariantCohomology(setup.cq, setup.action)
    cycle = fundamental_cycle(setup.cx)
    omega = kahler_class(inv, cycle, 2, explicit=product_sum_kahler(setup))
    base_ranks = {k: lefschetz_verify(inv, omega, k).detail for k in (0, 1, 2)}
    for e in setup.action.elements:
        pulled = setup.action.pullback_cochain(e, omega.cochain, 2)
        power, _ = cup_power(setup.cq.cx, pulled, 2, 2)
        rep = KahlerClassRep(pulled, 2, pair_with_cycle(power, cycle))
        ranks = {k: lefschetz_verify(inv, rep, k).detail for k in (0, 1, 2)}
        assert ranks == base_ranks, e

    assert time.monotonic() - start < 60.0


# -- criterion 8: determinism ---------------------------------------------

# The machine format is the behavioural contract: golden/<entry>.machine
# holds the expected bytes of each catalog entry's report.
GOLDEN = Path(__file__).parent / "golden"


def test_acceptance_8_determinism():
    names = SEIFERT_CATALOG + (
        "pillowcase",
        "torus7",
        "t4-z2",
        "octahedron",
        "rp2-antipodal",
        "weighted-hopf:1:2",
        "weighted-hopf:2:3",
    )
    for name in names:
        first = run_pipeline(catalog_scenario(name)).to_machine()
        second = run_pipeline(catalog_scenario(name)).to_machine()
        assert first == second, name
        assert first.encode("utf-8") == second.encode("utf-8")
        assert first.encode("utf-8") == (GOLDEN / f"{name}.machine").read_bytes(), name
