"""Orbifold atlas data model: charts, finite unitary groups, changes of charts.

Chart metrics are the flat standard Hermitian metric, so holomorphic
isometries fixing the origin are exactly unitary matrices and every
structural check is decidable in exact cyclotomic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .cyclotomic import (
    CycMatrix,
    CyclotomicNumber,
    CycVector,
    compare_real,
    vec,
    vec_norm_sq,
    vec_sub,
)
from .errors import (
    ClosureExceedsCap,
    MultipleWitnesses,
    NonUnitaryGenerator,
)
from .verdict import Verdict


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """A finite set of exact unitary matrices, closed under product."""

    elements: tuple[CycMatrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        return self.elements[0].n

    @property
    def cyclotomic_order(self) -> int:
        return self.elements[0].order

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m: CycMatrix) -> bool:
        return m in self.elements

    @classmethod
    def trivial(cls, order: int, n: int) -> "FiniteMatrixGroup":
        return cls((CycMatrix.identity(order, n),))


def group_closure(generators: list[CycMatrix], cap: int = 256) -> FiniteMatrixGroup:
    """Multiplicative closure of nonempty generators of one shape and order.

    Raises ClosureExceedsCap when enumeration passes the cap (an
    infinite or too-large group) and NonUnitaryGenerator when a
    generator is not exactly unitary.
    """
    n = generators[0].n
    order = generators[0].order
    for g in generators:
        if not g.is_unitary():
            raise NonUnitaryGenerator(f"generator {g!r} is not unitary")
    ident = CycMatrix.identity(order, n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                p = a @ g
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    if len(seen) > cap:
                        raise ClosureExceedsCap(
                            f"closure exceeds cap {cap}; group is too large or infinite"
                        )
        frontier = nxt
    elems = tuple(sorted(seen, key=lambda m: tuple(tuple(c.coeffs for c in row) for row in m.rows)))
    return FiniteMatrixGroup(elems)


def stabilizer(group: FiniteMatrixGroup, point: CycVector) -> FiniteMatrixGroup:
    elems = tuple(g for g in group if g.apply(point) == point)
    return FiniteMatrixGroup(elems)


@dataclass(frozen=True)
class Ball:
    """Origin- or center-offset ball with exact rational radius; None = all of C^n."""

    center: CycVector
    radius: Optional[Fraction]

    @cached_property
    def radius_sq(self) -> Fraction:
        return self.radius * self.radius

    def contains(self, point: CycVector) -> bool:
        if self.radius is None:
            return True
        d2 = vec_norm_sq(vec_sub(point, self.center))
        return compare_real(d2, self.radius_sq) <= 0


@dataclass(frozen=True)
class Chart:
    """A local uniformization: flat ball in C^n with a finite unitary group."""

    id: str
    n: int
    cyclotomic_order: int
    radius: Optional[Fraction]  # None means all of C^n
    group: FiniteMatrixGroup

    @cached_property
    def domain(self) -> Ball:
        origin = vec(self.cyclotomic_order, [0] * self.n)
        return Ball(origin, self.radius)


@dataclass(frozen=True)
class ChangeOfChart:
    """Unitary-affine holomorphic isometry z -> Uz + b between charts."""

    source: str
    target: str
    linear: CycMatrix
    offset: CycVector
    source_domain: Ball

    @cached_property
    def unitary(self) -> bool:  # one verdict for atlas validation and the Seifert suite
        return self.linear.is_unitary()

    def apply(self, point: CycVector) -> CycVector:
        moved = self.linear.apply(point)
        return tuple(a + b for a, b in zip(moved, self.offset))

    def same_source_domain(self, other: "ChangeOfChart") -> bool:
        return (
            self.source == other.source
            and self.source_domain.center == other.source_domain.center
            and self.source_domain.radius == other.source_domain.radius
        )


@dataclass
class OrbifoldAtlas:
    charts: list[Chart]
    changes: list[ChangeOfChart]

    def chart(self, cid: str) -> Chart:
        for c in self.charts:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def changes_between(self, source: str, target: str) -> list[ChangeOfChart]:
        return [c for c in self.changes if c.source == source and c.target == target]

    def overlaps(self) -> list[tuple[str, str]]:
        return sorted({(c.source, c.target) for c in self.changes})


def equivalent_changes(
    phi: ChangeOfChart, phi_prime: ChangeOfChart, group_j: FiniteMatrixGroup
) -> Optional[CycMatrix]:
    """The unique g in Gamma_j with phi' = g . phi, or None.

    Raises MultipleWitnesses when two distinct group elements satisfy
    the identity (a non-faithful configuration).
    """
    if not phi.same_source_domain(phi_prime) or phi.target != phi_prime.target:
        raise ValueError("changes must share source domain and target chart")
    matches = []
    for g in group_j:
        if g @ phi.linear == phi_prime.linear and g.apply(phi.offset) == phi_prime.offset:
            matches.append(g)
    if len(matches) > 1:
        raise MultipleWitnesses(f"{len(matches)} witnesses found")
    return matches[0] if matches else None


def sample_grid(chart_order: int, ball: Ball, count: int = 25) -> list[CycVector]:
    """Deterministic rational sample grid inside a ball.

    Points are center + (a + b*zeta_N) * r/8 * e_k with a, b in -2..2,
    so |offset| <= r/2 and containment is automatic.
    """
    if ball.radius is None:
        r = Fraction(1)
    else:
        r = ball.radius
    zeta = CyclotomicNumber.zeta(chart_order)
    n = len(ball.center)
    pts = []
    span = [-2, -1, 0, 1, 2]
    for a in span:
        for b in span:
            if len(pts) >= count:
                return pts
            coeff = (CyclotomicNumber.from_rational(chart_order, a) + zeta * b) * Fraction(r, 8)
            k = (a + 2 + (b + 2) * 5) % n
            offset = [CyclotomicNumber.zero(chart_order)] * n
            offset[k] = coeff
            pts.append(tuple(c + o for c, o in zip(ball.center, offset)))
    return pts


def validate_atlas(atlas: OrbifoldAtlas, samples: int = 25) -> list[tuple[str, Verdict]]:
    """Structural validation of every change of charts.

    Checks unitarity of linear parts, image containment at the ball
    center and a rational sample grid, and the witness group element
    whenever two changes share a source domain.
    """
    out = []
    for ch in sorted(atlas.changes, key=lambda c: (c.source, c.target)):
        tag = f"{ch.source}.{ch.target}"
        out.append((f"unitary.{tag}", Verdict(ch.unitary)))
        target = atlas.chart(ch.target)
        chart_order = target.cyclotomic_order
        pts = [ch.source_domain.center] + sample_grid(chart_order, ch.source_domain, samples)
        contained = all(target.domain.contains(ch.apply(p)) for p in pts)
        out.append((f"containment.{tag}", Verdict(contained, f"{len(pts)} points")))
    # witness existence for redundant changes over the same source domain
    changes = list(atlas.changes)
    for i in range(len(changes)):
        for j in range(i + 1, len(changes)):
            a, b = changes[i], changes[j]
            if a.same_source_domain(b) and a.target == b.target:
                group_j = atlas.chart(a.target).group
                try:
                    g = equivalent_changes(a, b, group_j)
                    verdict = Verdict(g is not None, "found" if g is not None else "missing")
                except MultipleWitnesses as exc:
                    verdict = Verdict(False, str(exc))
                out.append((f"witness.{a.source}.{a.target}", verdict))
    return out
