"""Unitary frame bundle over flat charts and the Seifert gluing checks.

Frames over a flat chart are identified with exact unitary matrices;
the lift of a unitary-affine map acts on the frame through its linear
part (the derivative), by left multiplication, and U(n) acts by right
multiplication.  Freeness and equivariance of the lifted action are
therefore identities of the chart group, decided once per chart for
every frame.  Unitarity is decided once, where a matrix enters: chart
generators in ``atlas.group_closure`` and changes of charts in
``ChangeOfChart.unitary`` (read by both suites).  Every frame derived
from these (lifts, gluing images) is a product of unitary matrices and
inherits unitarity unchecked.  Since a frame is invertible, two frames
are in one class exactly when h = xi xi'^H lies in the chart group and
carries one basepoint to the other.  A gluing choice, the affine map
x -> Mx + a, is stored as the class of the frame (a, M), the image of
the origin frame (0, I), with its region, balls that meet pairwise; two
choices then agree as classes at every point of both regions exactly
when their frames are in one class.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple, Optional

from .atlas import Ball, Chart, FiniteMatrixGroup, OrbifoldAtlas, carrying_element
from .cyclotomic import CycMatrix, CycVector, vec_sub
from .verdict import Verdict


class UnitaryFrame(NamedTuple):
    chart: str
    basepoint: CycVector
    frame: CycMatrix


def lift_group_action(g: CycMatrix, frame: UnitaryFrame) -> UnitaryFrame:
    """The lifted action: (x, xi) -> (g x, g xi)."""
    return UnitaryFrame(frame.chart, g.apply(frame.basepoint), g @ frame.frame)


def check_lifted_action_free(group: FiniteMatrixGroup) -> Verdict:
    """Freeness of the lifted action on every frame, decided once.

    g.xi = xi with xi invertible forces g = I, so the action is free
    exactly when no element but the identity is the identity matrix:
    when the group's elements are distinct (``group_closure`` collects
    them as a set).
    """
    if len(set(group)) != group.order:
        return Verdict(False, "fixed frame found for non-identity element")
    return Verdict(True, "no non-identity element fixes a frame; g.xi=xi forces g=id")


def check_equivariance(group: FiniteMatrixGroup) -> Verdict:
    """g(xi A) = (g xi) A for every element g, frame xi and A in U(n).

    The lift multiplies a frame on the left and U(n) on the right, so
    the identity is associativity of exact products; it needs only that
    every element is an n x n matrix over the chart's field.
    """
    n, order = group.n, group.cyclotomic_order
    return Verdict(all(g.n == n and g.order == order for g in group))


class FrameClass(NamedTuple):
    """A Gamma_i-class of frames, stored through one representative; a
    gluing choice also carries its label and the balls, in its first
    chart's coordinates and meeting pairwise, on which it applies."""

    chart: str
    representative: UnitaryFrame
    group: FiniteMatrixGroup
    region: frozenset[Ball] = frozenset()
    choice: str = ""

    def same_class(self, other: "FrameClass") -> Optional[CycMatrix]:
        """The group element carrying other's representative to ours, or None."""
        if self.chart != other.chart:
            return None
        ours, theirs = self.representative, other.representative
        return carrying_element(self.group, theirs.frame, theirs.basepoint, ours.frame, ours.basepoint)

    def meets(self, other: "FrameClass") -> bool:
        """Only unshared balls are tested: a shared ball meets every ball of both."""
        return all(a.meets(b) for a in self.region - other.region for b in other.region - self.region)


def identity_class(atlas: OrbifoldAtlas, chart_id: str) -> FrameClass:
    """The identity of chart i as a gluing choice: the origin frame
    (0, I), applying on the chart's ball when it is bounded."""
    chart = atlas.chart(chart_id)
    frame = UnitaryFrame(chart_id, chart.origin, CycMatrix.identity(chart.cyclotomic_order, chart.n))
    region = frozenset() if chart.radius is None else frozenset({Ball(chart.origin, chart.radius)})
    return FrameClass(chart_id, frame, chart.group, region)


def gluing_images(atlas: OrbifoldAtlas, cls: FrameClass, target: str) -> list[FrameClass]:
    """The choices (g, phi) of the gluing from ``cls``'s chart to ``target``:
    g in group order (labelled g<index>), then phi in declaration order
    (#number).  Each g lifts ``cls``'s frame (a, M) once, to (ga, gM);
    B_phi = B(c, r) pulls back to B((gM)^H (c - ga), r), and the choice is
    kept when that ball meets every ball of ``cls``'s region, which it joins."""
    changes = atlas.changes_between(cls.chart, target)
    group = atlas.chart(target).group
    prefix = cls.choice + " then " if cls.choice else ""
    out = []
    for index, g in enumerate(cls.group):
        lifted = lift_group_action(g, cls.representative)
        back = lifted.frame.conjugate_transpose()
        for number, phi in enumerate(changes, 1):
            dom = phi.source_domain
            ball = Ball(back.apply(vec_sub(dom.center, lifted.basepoint)), dom.radius)
            if all(ball.meets(b) for b in cls.region):
                image = UnitaryFrame(target, phi.apply(lifted.basepoint), phi.linear @ lifted.frame)
                label = f"{prefix}g{index} {cls.chart}->{target} #{number}"
                out.append(FrameClass(target, image, group, cls.region | {ball}, label))
    return out


def _ranked(choices: list[FrameClass]) -> list[tuple[FrameClass, int]]:
    """Each choice with the index of its class.  ``same_class`` is an
    equivalence (the group is closed under products and inverses, frames
    are unitary), so one representative per class decides membership."""
    reps: list[FrameClass] = []
    out = []
    for c in choices:
        n = next((n for n, r in enumerate(reps) if r.same_class(c) is not None), len(reps))
        if n == len(reps):
            reps.append(c)
        out.append((c, n))
    return out


def gluing_well_defined(atlas: OrbifoldAtlas, source: str, target: str) -> Verdict:
    """f_ji agrees, at every point, across each pair of choices whose balls
    meet: h.A = A' for one h in Gamma_j.  As that is an equivalence, it
    holds exactly when no two choices of different classes meet."""
    choices = gluing_images(atlas, identity_class(atlas, source), target)
    if not choices:
        return Verdict(False, f"no change {source}->{target} meets the domain of {source}")
    ranked = _ranked(choices)
    for (a, p), (b, q) in combinations(ranked, 2):
        if p != q and a.meets(b):
            return Verdict(False, f"choices {a.choice} and {b.choice} differ where their balls meet")
    return Verdict(True, f"{len(choices)} choices in {ranked[-1][1] + 1} classes; no two of different classes meet")


def common_point(balls: frozenset[Ball]) -> Optional[CycVector]:
    """A point of every ball, certified by ``Ball.contains``, or None: each
    centre, or c + r/(r + r')(c' - c), which lies in both of two that meet.
    None is no proof of an empty intersection: three or more balls can
    share a point that is none of these candidates."""
    candidates = [b.center for b in balls] + [
        tuple(x + (y - x) * (a.radius / (a.radius + b.radius)) for x, y in zip(a.center, b.center))
        for a, b in combinations(balls, 2)
    ]
    return next((p for p in candidates if all(b.contains(p) for b in balls)), None)


def cocycle_check(atlas: OrbifoldAtlas, i: str, j: str, k: str) -> Verdict:
    """f_ki = f_kj . f_ji on the whole triple overlap: no direct choice
    i -> k meets a composite i -> j -> k of another class, and some pair of
    one class has a certified common point.  No meeting pair is an empty
    triple overlap, certified by disjoint balls, and fails.  Composites
    start at the first element of Gamma_i only: precomposing with T in
    Gamma_i relabels g, keeps classes (left cosets) and moves every ball
    by an isometry fixing B_i, so every element has as many choices, and
    each (direct, composite) pair matches one whose composite starts there."""
    start = identity_class(atlas, i)
    direct = gluing_images(atlas, start, k)
    firsts = direct if j == k else gluing_images(atlas, start, j)
    composite = [via for over_j in firsts[:len(firsts) // start.group.order] for via in gluing_images(atlas, over_j, k)]
    ranked = _ranked(direct + composite) if direct and composite else []
    met = witnessed = False
    for (d, p), (c, q) in product(ranked[:len(direct)], ranked[len(direct):]):
        if (p != q or not witnessed) and d.meets(c):
            if p != q:
                return Verdict(False, f"{d.choice} differs from {c.choice} where their balls meet")
            met, witnessed = True, common_point(d.region | c.region) is not None
    counts = f"{len(direct)} direct and {start.group.order * len(composite)} composite choices"
    if not met:
        return Verdict(False, f"empty triple overlap: {counts}, no two with pairwise meeting balls")
    if not witnessed:
        return Verdict(False, f"{counts} agree where they meet, but no common point of their balls is certified")
    return Verdict(True, f"{counts} agree where they meet; a common point is certified")


def seifert_fiber_report(chart: Chart) -> str:
    """The Seifert fiber descriptor over the chart's origin.  Every chart
    element is linear and fixes the origin, so its stabilizer Gamma_x is
    the whole chart group."""
    return f"fiber = Gamma_x\\U({chart.n}) with |Gamma_x| = {chart.group.order}"
