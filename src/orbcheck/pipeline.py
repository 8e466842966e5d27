"""Pipeline orchestration: scenario -> ordered check report.

Checks run in the construction order of the underlying material:
atlas validation, then the frame-bundle (Seifert) suite, then the
taut/transverse-Kahler suite, then cohomology with the Lefschetz and
duality verdicts.  Failures become report entries, never aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import atlas as atlas_mod
from . import cohomology as coh
from . import foliated as fol
from . import frame_bundle as fb
from . import simplicial as simp
from .cyclotomic import CycMatrix, CyclotomicNumber
from .errors import ClosureExceedsCap, NoKahlerClass, NonOrientable, NonUnitaryGenerator, NotPseudomanifold, OrbcheckError
from .linalg import add_scaled
from .polyform import PolyForm, Polynomial, PolyVectorField
from .scenario import CLOSURE_CAP, ActionSection, ChartSection, ComplexSection, Scenario
from .verdict import Verdict


@dataclass
class ReportEntry:
    key: str
    value: str
    ok: Optional[bool]  # None for informational lines


@dataclass
class Report:
    scenario: str
    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, key: str, value: str, ok: Optional[bool]):
        self.entries.append(ReportEntry(key, value, ok))

    def check(self, key: str, verdict: Verdict):
        word = "PASS" if verdict.passed else "FAIL"
        self.add(key, f"{word} {verdict.detail}" if verdict.detail else word, verdict.passed)

    def info(self, key: str, value: str):
        self.add(key, value, None)

    @property
    def overall(self) -> bool:
        return all(e.ok for e in self.entries if e.ok is not None)

    def to_machine(self) -> str:
        lines = [f"[report {self.scenario}]"]
        for e in self.entries:
            lines.append(f"{e.key} = {e.value}")
        lines.append(f"overall = {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_human(self) -> str:
        lines = [f"Scenario: {self.scenario}"]
        for e in self.entries:
            mark = "  " if e.ok is None else ("ok" if e.ok else "!!")
            lines.append(f"  [{mark}] {e.key} = {e.value}")
        lines.append(f"Overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"


# -- atlas construction ---------------------------------------------------


def build_chart(section: ChartSection) -> atlas_mod.Chart:
    order = section.cyclotomic_order
    gens = []
    for mat in section.generators:
        rows = [[CyclotomicNumber(order, coeffs) for coeffs in row] for row in mat]
        gens.append(CycMatrix(order, rows))
    try:
        group = atlas_mod.group_closure(gens, CLOSURE_CAP) if gens else atlas_mod.FiniteMatrixGroup.trivial(order, section.n)
    except (NonUnitaryGenerator, ClosureExceedsCap) as exc:  # name the chart in a multi-chart file
        raise type(exc)(f"[chart {section.id}] {exc}") from None
    return atlas_mod.Chart(section.id, section.n, order, section.radius, group)


def build_atlas(scenario: Scenario) -> atlas_mod.OrbifoldAtlas:
    charts = [build_chart(c) for c in scenario.charts]
    by_id = {c.id: c for c in charts}
    changes = []
    for ch in scenario.changes:
        order = by_id[ch.source].cyclotomic_order
        linear = CycMatrix(
            order, [[CyclotomicNumber(order, e) for e in row] for row in ch.linear]
        )
        offset = tuple(CyclotomicNumber(order, e) for e in ch.offset)
        center = tuple(CyclotomicNumber(order, e) for e in ch.center)
        changes.append(
            atlas_mod.ChangeOfChart(
                ch.source, ch.target, linear, offset, atlas_mod.Ball(center, ch.radius)
            )
        )
    return atlas_mod.OrbifoldAtlas(charts, changes)


def run_atlas_pipeline(atlas: atlas_mod.OrbifoldAtlas, report: Report):
    verdicts = atlas_mod.validate_atlas(atlas)
    for key, verdict in verdicts:
        report.check(f"atlas.{key}", verdict)
    report.check("atlas.validate", Verdict(all(v.passed for _, v in verdicts)))


# -- Seifert suite --------------------------------------------------------


def run_seifert_pipeline(atlas: atlas_mod.OrbifoldAtlas, report: Report):
    for chart in sorted(atlas.charts, key=lambda c: c.id):
        report.check(f"seifert.free.{chart.id}", fb.check_lifted_action_free(chart.group))
        report.check(f"seifert.equivariance.{chart.id}", fb.check_equivariance(chart.group))
        report.info(f"seifert.fiber.{chart.id}.origin", fb.seifert_fiber_report(chart))
    # a non-unitary change moves frames off the frame bundle and balls
    # onto ellipsoids, so every gluing through its overlap fails unchecked
    broken = {(c.source, c.target): Verdict(False, f"change {c.source}->{c.target} is not unitary")
              for c in atlas.changes if not c.unitary}
    for (i, j) in atlas.overlaps():
        report.check(f"seifert.well_defined.{i}.{j}", broken.get((i, j)) or fb.gluing_well_defined(atlas, i, j))
    overlaps = set(atlas.overlaps())
    triples = sorted(
        (i, j, k)
        for (i, j) in overlaps
        for (j2, k) in overlaps
        if j2 == j and (i, k) in overlaps
    )
    for (i, j, k) in triples:
        shown = next((broken[o] for o in ((i, j), (j, k), (i, k)) if o in broken), None)
        report.check(f"seifert.cocycle.{i}.{j}.{k}", shown or fb.cocycle_check(atlas, i, j, k))


# -- taut / transverse Kahler suite --------------------------------------


def _fixed_set(weights: list[int]) -> Optional[str]:
    """Where the circle fixes points of the unit sphere, or None.

    For the Euclidean metric det M0 = sum_k w_k^2 |z_k|^2 >= min_k w_k^2
    on the unit sphere, so the action is locally free exactly when no
    weight is zero.  Otherwise it fixes the points with z_k = 0 for
    every nonzero weight w_k, and det M0 = 0 there.
    """
    if all(weights):
        return None
    moved = [f"z{k + 1}" for k, w in enumerate(weights) if w]
    where = " = ".join(moved) + " = 0" if moved else "the whole sphere"
    return f"zero weight: the circle fixes {where}, where det M0 = 0"


_EXACT = Verdict(True, "max_dev=0.000e+00")  # an identity holds: no deviation anywhere


def run_taut_pipeline(scenario: Scenario, report: Report):
    """The taut suite, exact for all points.  A zero weight fails
    `taut.detM1`, naming the fixed set, and stops it."""
    geo = scenario.geometry
    fixed = _fixed_set(geo.weights)
    if fixed is not None:
        report.check("taut.detM1", Verdict(False, fixed))
        return
    # M0 > 0 on the sphere, so u0 = 1/M0 and det M1 = u0 M0 = 1 at every
    # point: each orbit's volume is the integral of 1 over the circle, 2 pi
    report.check("taut.detM1", _EXACT)
    report.check("taut.orbit_volume", _EXACT)
    fields = fol.CircleAction(geo.weights).fundamental_fields()
    [[m0]] = fol.gram_matrix(fields)
    one = Polynomial.constant(m0.d, 1)
    for name, verdict in (
        ("u0", fol.orbit_invariance_check(fields[0], one, m0, "u0")),
        ("M0", fol.orbit_invariance_check(fields[0], m0, name="M0")),
    ):
        report.check(f"taut.invariance.{name}", _EXACT if verdict.passed else verdict)

    # chart-level transverse Kahler fixture: (theta, x, y) with the
    # pullback flat Kahler form along the basepoint projection
    omega = PolyForm(3, 2, {(1, 2): Polynomial.constant(3, 1)})
    j_matrix = [[0, 0, 0], [0, 0, 1], [0, -1, 0]]
    vertical = [PolyVectorField.coordinate(3, 0)]
    samples = [[0.0, 0.3, -0.2], [1.0, 0.1, 0.4], [2.0, -0.5, 0.5]]
    for name, verdict in fol.transverse_kahler_check(omega, j_matrix, vertical, samples).items():
        report.check(f"tk.{name}", verdict)


# -- cohomology / HLT / PD suite -----------------------------------------


def build_simplicial(section: ComplexSection) -> simp.SimplicialComplex:
    return simp.SimplicialComplex(section.vertex_order or range(section.vertices), section.facets)


@dataclass
class QuotientSetup:
    cx: simp.SimplicialComplex | simp.ProductComplex
    action: simp.SimplicialGroupAction
    cq: coh.CochainComplexQ
    factor_cq: Optional[tuple[coh.CochainComplexQ, coh.CochainComplexQ]]
    n: int
    product_sum: bool


def seed_product_bases(cq: coh.CochainComplexQ, left_cq: coh.CochainComplexQ, right_cq: coh.CochainComplexQ):
    """The cross products a x b of the factors' representatives realize
    the Kunneth basis exactly."""
    for r in range(cq.dim + 1):
        cands = [
            cq.cx._pullback(a, b)
            for p in range(max(0, r - right_cq.dim), min(r, left_cq.dim) + 1)
            for a in left_cq.cohomology_basis(p).reps
            for b in right_cq.cohomology_basis(r - p).reps
        ]
        cq.cohomology_basis(r, candidates=cands)


def product_sum_kahler(setup: QuotientSetup) -> dict:
    """w_L x 1 + 1 x w_R, where w_L and w_R are degree-2 classes of the two
    factors, each pairing 1 with its factor's fundamental cycle."""
    forms, units = [], []
    for cq in setup.factor_cq:
        cycle = simp.fundamental_cycle(cq.cx)
        units.append(dict.fromkeys(cq.cx.simplices[0], 1))
        for rep in cq.cohomology_basis(2).reps:
            pairing = simp.pair_with_cycle(rep, cycle)
            if pairing:
                # an exact quotient stays an int
                forms.append({s: v / pairing if v % pairing else v // pairing for s, v in rep.items()})
                break
        else:
            raise NoKahlerClass("factor has no degree-2 class pairing with its cycle")
    omega = setup.cx._pullback(forms[0], units[1])
    return add_scaled(omega, setup.cx._pullback(units[0], forms[1]), 1)


def build_quotient(scenario: Scenario) -> QuotientSetup:
    qs = scenario.quotient
    section = scenario.complexes[qs.complex]
    factor_cq = None
    if section.product:
        a, b = section.product
        # T * T shares one factor complex, and one cochain complex below
        left = build_simplicial(scenario.complexes[a])
        right = left if b == a else build_simplicial(scenario.complexes[b])
        cx = simp.product_complex(left, right)
    else:
        cx = build_simplicial(section)

    act_section = scenario.actions[qs.action]
    if act_section.factors:
        left_act, right_act = (
            _build_action(scenario.actions[a], f) for a, f in zip(act_section.factors, (cx.left, cx.right))
        )
        action = simp.ProductAction(cx, left_act, right_act)
    else:
        action = _build_action(act_section, cx)

    cq = coh.CochainComplexQ(cx)
    if section.product:
        left_cq = coh.CochainComplexQ(cx.left)
        right_cq = left_cq if cx.right is cx.left else coh.CochainComplexQ(cx.right)
        seed_product_bases(cq, left_cq, right_cq)
        factor_cq = (left_cq, right_cq)
    return QuotientSetup(cx, action, cq, factor_cq, qs.n, qs.product_sum)


def _build_action(section: ActionSection, cx: simp.SimplicialComplex) -> simp.SimplicialGroupAction:
    """A trivial or cyclic action; `maps` sends vertex v to maps[v]."""
    if section.maps is None:
        return simp.SimplicialGroupAction.trivial(cx)
    return simp.SimplicialGroupAction.cyclic(cx, section.order, dict(enumerate(section.maps)))


def run_quotient_pipeline(scenario: Scenario, report: Report):
    setup = build_quotient(scenario)
    action_verdict = simp.verify_action(setup.action)
    report.check("quotient.action", action_verdict)
    if not action_verdict.passed:
        return
    cq = setup.cq
    betti = cq.betti_numbers()
    report.info("betti.full", ",".join(str(b) for b in betti))
    invariant = coh.InvariantCohomology(cq, setup.action)
    inv_betti = [invariant.invariant_betti(p) for p in range(cq.dim + 1)]
    report.info("betti.inv", ",".join(str(b) for b in inv_betti))

    try:
        # every power of the generator fixes the cycle once it does
        cycle = simp.fundamental_cycle(setup.cx, setup.action)
    except (NonOrientable, NotPseudomanifold) as exc:
        report.check("pd.fundamental_cycle", Verdict(False, type(exc).__name__))
        return
    report.check("pd.fundamental_cycle", Verdict(True))

    n = setup.n
    try:
        explicit = product_sum_kahler(setup) if setup.product_sum else None
        omega = coh.kahler_class(invariant, cycle, n, explicit)
    except OrbcheckError as exc:
        report.check("kahler.class", Verdict(False, type(exc).__name__))
        return
    report.info("kahler.pairing", str(omega.pairing))
    for k in range(n + 1):
        verdict = coh.lefschetz_verify(invariant, omega, k)
        report.add(f"hlt.k{k}", ("ISO " if verdict.passed else "FAIL ") + verdict.detail, verdict.passed)
    for p, verdict in enumerate(coh.poincare_duality_verify(invariant, cycle, n)):
        report.check(f"pd.p{p}", verdict)


# -- entry point ----------------------------------------------------------


def run_pipeline(scenario: Scenario) -> Report:
    report = Report(scenario.name)
    atlas = None
    if "atlas" in scenario.pipelines or "seifert" in scenario.pipelines:
        atlas = build_atlas(scenario)
    if "atlas" in scenario.pipelines:
        run_atlas_pipeline(atlas, report)
    if "seifert" in scenario.pipelines:
        run_seifert_pipeline(atlas, report)
    if "taut" in scenario.pipelines:
        run_taut_pipeline(scenario, report)
    if "quotient" in scenario.pipelines:
        run_quotient_pipeline(scenario, report)
    return report
