"""Unitary frame bundle over flat charts and the Seifert gluing checks.

Frames over a flat chart are identified with exact unitary matrices;
the lift of a unitary-affine map acts on the frame through its linear
part (the derivative).  Class equality in the quotient is decided by
enumeration over the finite chart group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .atlas import Ball, ChangeOfChart, Chart, FiniteMatrixGroup, OrbifoldAtlas, sample_grid
from .cyclotomic import CycMatrix, CyclotomicNumber, CycVector
from .errors import BasepointOutsideDomain, NoApplicableChange, NonFaithfulGroup
from .verdict import Verdict


@dataclass(frozen=True)
class UnitaryFrame:
    chart: str
    basepoint: CycVector
    frame: CycMatrix

    def __post_init__(self):
        if not self.frame.is_unitary():
            raise ValueError("frame matrix must be exactly unitary")


def lift_group_action(g: CycMatrix, frame: UnitaryFrame) -> UnitaryFrame:
    """The lifted action: (x, xi) -> (g x, g xi)."""
    return UnitaryFrame(frame.chart, g.apply(frame.basepoint), g @ frame.frame)


def right_action(frame: UnitaryFrame, a: CycMatrix) -> UnitaryFrame:
    """Right U(n)-action: basepoint fixed, frame part xi A."""
    return UnitaryFrame(frame.chart, frame.basepoint, frame.frame @ a)


def lift_change_of_chart(phi: ChangeOfChart, frame: UnitaryFrame) -> UnitaryFrame:
    if not phi.source_domain.contains(frame.basepoint):
        raise BasepointOutsideDomain(
            f"basepoint not in source domain of {phi.source}->{phi.target}"
        )
    return UnitaryFrame(phi.target, phi.apply(frame.basepoint), phi.linear @ frame.frame)


def check_lifted_action_free(group: FiniteMatrixGroup, frames: list[UnitaryFrame]) -> Verdict:
    """Freeness of the lifted action.

    Samples are checked directly; in addition g.xi = xi with xi
    invertible forces g = identity, which is recorded as the algebraic
    reason PASS is guaranteed for faithful groups.
    """
    if len(set(group.elements)) != group.order:
        raise NonFaithfulGroup("group contains duplicate matrices")
    ident = group.identity()
    for g in group:
        if g == ident:
            continue
        for fr in frames:
            moved = lift_group_action(g, fr)
            if moved == fr:
                return Verdict(False, "fixed frame found for non-identity element")
            # algebraic check: g = (g xi) xi^{-1} must differ from identity
            if (g @ fr.frame) @ fr.frame.inverse_unitary() == ident:
                return Verdict(False, "algebraic freeness violated")
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
        """The group element carrying other's representative to ours, or None."""
        if self.chart != other.chart:
            return None
        for g in self.group:
            if lift_group_action(g, other.representative) == self.representative:
                return g
        return None


@dataclass
class SeifertGluing:
    """Gluing data over a chart overlap: all declared changes i -> j."""

    source: str
    target: str
    changes: list[ChangeOfChart]
    source_group: FiniteMatrixGroup
    target_group: FiniteMatrixGroup


def gluing_from_atlas(atlas: OrbifoldAtlas, source: str, target: str) -> SeifertGluing:
    changes = atlas.changes_between(source, target)
    if not changes:
        raise NoApplicableChange(f"no change of charts declared for {source}->{target}")
    return SeifertGluing(
        source,
        target,
        changes,
        atlas.chart(source).group,
        atlas.chart(target).group,
    )


def gluing_choices(gluing: SeifertGluing, cls: FrameClass):
    """All (group element, change) pairs applicable to the class."""
    out = []
    for g in gluing.source_group:
        moved = lift_group_action(g, cls.representative)
        for phi in gluing.changes:
            if phi.source_domain.contains(moved.basepoint):
                out.append((g, phi))
    return out


def gluing_apply(
    gluing: SeifertGluing,
    cls: FrameClass,
    choice: Optional[tuple[CycMatrix, ChangeOfChart]] = None,
) -> FrameClass:
    """Apply the gluing with an explicit or first applicable choice."""
    if choice is None:
        choices = gluing_choices(gluing, cls)
        if not choices:
            raise NoApplicableChange(
                f"no change of charts covers the representative for {gluing.source}->{gluing.target}"
            )
        choice = choices[0]
    g, phi = choice
    moved = lift_group_action(g, cls.representative)
    if not phi.source_domain.contains(moved.basepoint):
        raise NoApplicableChange("chosen representative lies outside the chosen change's domain")
    image = lift_change_of_chart(phi, moved)
    return FrameClass(gluing.target, image, gluing.target_group)


def gluing_well_defined(gluing: SeifertGluing, cls: FrameClass) -> Verdict:
    """Agreement of the gluing across all valid representative/change choices.

    Records the target-group element identifying each pair of outputs.
    """
    choices = gluing_choices(gluing, cls)
    if not choices:
        raise NoApplicableChange("class is not over the overlap")
    outputs = [gluing_apply(gluing, cls, ch) for ch in choices]
    witnesses = []
    base = outputs[0]
    for out in outputs[1:]:
        w = base.same_class(out)
        if w is None:
            return Verdict(False, "outputs differ as target-group classes")
        witnesses.append(w)
    nontrivial = sum(1 for w in witnesses if not w.is_identity())
    return Verdict(True, f"{len(choices)} choices agree; {nontrivial} nontrivial witnesses")


def cocycle_check(
    gluing_ji: SeifertGluing,
    gluing_kj: SeifertGluing,
    gluing_ki: SeifertGluing,
    classes: list[FrameClass],
) -> Verdict:
    """f_ki = f_kj . f_ji on the sampled classes, as target-group classes."""
    if not classes:
        raise ValueError("sample class set must be nonempty")
    for cls in classes:
        direct = gluing_apply(gluing_ki, cls)
        via = gluing_apply(gluing_kj, gluing_apply(gluing_ji, cls))
        if direct.same_class(via) is None:
            return Verdict(False, f"cocycle identity fails over {gluing_ki.source}")
    return Verdict(True, f"{len(classes)} sampled classes agree")


def seifert_fiber_report(atlas: OrbifoldAtlas, chart_id: str, point: CycVector) -> tuple[int, str]:
    """Stabilizer order at the point and the Seifert fiber descriptor."""
    from .atlas import stabilizer

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
    chart: Chart, ball: Ball, count: int = 25, seed: int = 11
) -> list[FrameClass]:
    """Deterministic frame classes with basepoints on a grid in the ball."""
    pts = sample_grid(chart.cyclotomic_order, ball, count)
    return [FrameClass(chart.id, f, chart.group) for f in _frames_at(chart, pts, seed)]
