"""Unitary frame bundle over flat charts and the Seifert gluing checks.

Frames over a flat chart are identified with exact unitary matrices;
the lift of a unitary-affine map acts on the frame through its linear
part (the derivative).  Unitarity is decided once, where a matrix
enters: chart generators in ``atlas.group_closure``, changes of charts
in ``ChangeOfChart.unitary`` (read by both suites), and the sampled frames
here are zeta-power monomial matrices, unitary by construction.  Every
frame derived from these (lifts, right actions, gluing images) is a
product of unitary matrices and inherits unitarity unchecked.  Since a
frame is invertible, two frames are in one class exactly when
h = xi xi'^H lies in the chart group and carries one basepoint to the
other.
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


def right_action(frame: UnitaryFrame, a: CycMatrix) -> UnitaryFrame:
    """Right U(n)-action: basepoint fixed, frame part xi A."""
    return UnitaryFrame(frame.chart, frame.basepoint, frame.frame @ a)


def check_lifted_action_free(group: FiniteMatrixGroup, frames: list[UnitaryFrame]) -> Verdict:
    """Freeness of the lifted action, checked on the sampled frames.

    g.xi = xi with xi invertible forces g = identity, which is the
    algebraic reason PASS is guaranteed: the group's elements are
    distinct matrices.
    """
    ident = group.identity()
    for g in group:
        if g == ident:
            continue
        for fr in frames:
            if lift_group_action(g, fr) == fr:
                return Verdict(False, "fixed frame found for non-identity element")
    return Verdict(True, "no non-identity element fixes a frame; g.xi=xi forces g=id")


def check_equivariance(g: CycMatrix, a: CycMatrix, frame: UnitaryFrame) -> Verdict:
    """g(xi A) = (g xi) A, exactly."""
    lhs = lift_group_action(g, right_action(frame, a))
    rhs = right_action(lift_group_action(g, frame), a)
    return Verdict(lhs == rhs)


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
    """
    changes = atlas.changes_between(cls.chart, target)
    group = atlas.chart(target).group
    for g in cls.group:
        moved = lift_group_action(g, cls.representative)
        for phi in changes:
            if phi.source_domain.contains(moved.basepoint):
                image = UnitaryFrame(target, phi.apply(moved.basepoint), phi.linear @ moved.frame)
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


def sample_frames(chart: Chart, count: int = 10, seed: int = 7) -> list[UnitaryFrame]:
    """Deterministic exact unitary frames at rational grid basepoints."""
    pts = sample_grid(chart.cyclotomic_order, chart.domain, count)
    return _frames_at(chart, [pts[i % len(pts)] for i in range(count)], seed)


def sample_classes(
    atlas: OrbifoldAtlas, source: str, target: str, count: int = 25, seed: int = 11
) -> list[FrameClass]:
    """Deterministic frame classes over chart ``source`` with basepoints on
    a grid in the source domain of the first declared change to ``target``."""
    chart = atlas.chart(source)
    ball = atlas.changes_between(source, target)[0].source_domain
    pts = sample_grid(chart.cyclotomic_order, ball, count)
    return [FrameClass(chart.id, f, chart.group) for f in _frames_at(chart, pts, seed)]
