"""Unitary frame bundle over flat charts and the Seifert gluing checks.

Frames over a flat chart are identified with exact unitary matrices;
the lift of a unitary-affine map acts on the frame through its linear
part (the derivative), by left multiplication, and U(n) acts by right
multiplication.  Freeness and equivariance of the lifted action are
therefore identities of the chart group, decided once per chart for
every frame.  Unitarity is decided once, where a matrix enters: chart
generators in ``atlas.group_closure``, changes of charts in
``ChangeOfChart.unitary`` (read by both suites), and the sampled frames
here are zeta-power monomial matrices, unitary by construction.  Every
frame derived from these (lifts, gluing images) is a product of unitary
matrices and inherits unitarity unchecked.  Since a frame is
invertible, two frames are in one class exactly when h = xi xi'^H lies
in the chart group and carries one basepoint to the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .atlas import Chart, FiniteMatrixGroup, OrbifoldAtlas, sample_grid, stabilizer
from .cyclotomic import CycMatrix, CyclotomicNumber, CycVector
from .errors import NoApplicableChange
from .verdict import Verdict


@dataclass(frozen=True)
class UnitaryFrame:
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
    if len(set(group.elements)) != group.order:
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


@dataclass(frozen=True)
class FrameClass:
    """A Gamma_i-class of frames, stored through one representative."""

    chart: str
    representative: UnitaryFrame
    group: FiniteMatrixGroup

    def same_class(self, other: "FrameClass") -> Optional[CycMatrix]:
        """The group element carrying other's representative to ours, or None.

        g xi' = xi leaves one candidate, h = xi xi'^H, as xi' is unitary.
        """
        if self.chart != other.chart:
            return None
        ours, theirs = self.representative, other.representative
        h = ours.frame @ theirs.frame.conjugate_transpose()
        if h in self.group and h.apply(theirs.basepoint) == ours.basepoint:
            return h
        return None


def gluing_images(atlas: OrbifoldAtlas, cls: FrameClass, target: str):
    """The image class over ``target`` for every applicable choice, lazily.

    Choices run through g in the class's group in group order, then each
    declared change to ``target``, in declaration order, whose source
    domain holds g.x; the first image is the gluing's default choice.
    The lifted frame g.xi is formed only once a change applies at g.x.
    """
    changes = atlas.changes_between(cls.chart, target)
    group = atlas.chart(target).group
    rep = cls.representative
    for g in cls.group:
        point = g.apply(rep.basepoint)
        frame = None
        for phi in changes:
            if phi.source_domain.contains(point):
                if frame is None:
                    frame = g @ rep.frame
                image = UnitaryFrame(target, phi.apply(point), phi.linear @ frame)
                yield FrameClass(target, image, group)


def gluing_well_defined(atlas: OrbifoldAtlas, cls: FrameClass, target: str) -> Verdict:
    """Agreement of the gluing across all valid representative/change choices.

    Records the target-group element identifying each output with the first.
    """
    images = list(gluing_images(atlas, cls, target))
    if not images:
        raise NoApplicableChange("class is not over the overlap")
    nontrivial = 0
    for out in images[1:]:
        w = images[0].same_class(out)
        if w is None:
            return Verdict(False, "outputs differ as target-group classes")
        nontrivial += not w.is_identity()
    return Verdict(True, f"{len(images)} choices agree; {nontrivial} nontrivial witnesses")


def cocycle_check(atlas: OrbifoldAtlas, j: str, k: str, classes: list[FrameClass]) -> Verdict:
    """f_ki = f_kj . f_ji, as target-group classes, on the sampled classes
    over chart i that lie in the triple overlap (each gluing's first choice)."""
    agree = 0
    for cls in classes:
        over_j = next(gluing_images(atlas, cls, j), None)
        via = None if over_j is None else next(gluing_images(atlas, over_j, k), None)
        direct = None if via is None else next(gluing_images(atlas, cls, k), None)
        if direct is None:
            continue
        if direct.same_class(via) is None:
            return Verdict(False, f"cocycle identity fails over {cls.chart}")
        agree += 1
    if not agree:
        return Verdict(False, "no sampled class lies in the triple overlap")
    return Verdict(True, f"{agree} sampled classes agree")


def seifert_fiber_report(atlas: OrbifoldAtlas, chart_id: str, point: CycVector) -> tuple[int, str]:
    """Stabilizer order at the point and the Seifert fiber descriptor."""
    chart = atlas.chart(chart_id)
    s = stabilizer(chart.group, point).order
    return s, f"fiber = Gamma_x\\U({chart.n}) with |Gamma_x| = {s}"


def _frames_at(chart: Chart, points: list[CycVector], seed: int) -> list[UnitaryFrame]:
    """One seeded frame per basepoint: a permutation matrix whose entries
    are powers of zeta_N, which is exactly unitary."""
    import random

    rng = random.Random(seed)
    n, order = chart.n, chart.cyclotomic_order
    frames = []
    for p in points:
        perm = list(range(n))
        rng.shuffle(perm)
        rows = []
        for r in range(n):
            row = [CyclotomicNumber.zero(order)] * n
            row[perm[r]] = CyclotomicNumber.zeta(order, rng.randrange(order))
            rows.append(row)
        frames.append(UnitaryFrame(chart.id, p, CycMatrix(order, rows)))
    return frames


def sample_classes(
    atlas: OrbifoldAtlas, source: str, target: str, count: int = 25, seed: int = 11
) -> list[FrameClass]:
    """Deterministic frame classes over chart ``source`` with basepoints on
    a grid in the source domain of the first declared change to ``target``."""
    chart = atlas.chart(source)
    ball = atlas.changes_between(source, target)[0].source_domain
    pts = sample_grid(chart.cyclotomic_order, ball, count)
    return [FrameClass(chart.id, f, chart.group) for f in _frames_at(chart, pts, seed)]
