"""Orbifold atlas data model: charts, finite unitary groups, changes of charts.

Chart metrics are the flat standard Hermitian metric, so holomorphic
isometries fixing the origin are exactly unitary matrices and every
structural check is decidable in exact cyclotomic arithmetic.  Every
distance decision is ``Ball.meets``, one certified comparison of a
squared distance with a squared radius: a point lies in a ball when the
ball meets the point's ball of radius 0, and an image lies in a chart
when its centre lies in the chart's ball shrunk by the image's radius.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from .cyclotomic import CycMatrix, CycVector, compare_real, vec, vec_norm_sq, vec_sub
from .errors import ClosureExceedsCap, NonUnitaryGenerator
from .verdict import Verdict


class FiniteMatrixGroup(tuple):
    """A finite set of exact unitary matrices, closed under product: the
    tuple of its elements, so iterated, tested and compared through them."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self)

    @property
    def n(self) -> int:
        return self[0].n

    @property
    def cyclotomic_order(self) -> int:
        return self[0].order

    @classmethod
    def trivial(cls, order: int, n: int) -> "FiniteMatrixGroup":
        return cls((CycMatrix.identity(order, n),))


def group_closure(generators: list[CycMatrix], cap: int) -> FiniteMatrixGroup:
    """Multiplicative closure of nonempty generators of one shape and order.

    Raises ClosureExceedsCap when enumeration passes the cap (an
    infinite or too-large group) and NonUnitaryGenerator when a
    generator is not exactly unitary.
    """
    n = generators[0].n
    order = generators[0].order
    for k, g in enumerate(generators, 1):
        if not g.is_unitary():
            raise NonUnitaryGenerator(f"generator {k} is not unitary")
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


class Ball(NamedTuple):
    """Origin- or center-offset ball with exact rational radius."""

    center: CycVector
    radius: Fraction

    def contains(self, point: CycVector) -> bool:
        return self.meets(Ball(point, Fraction(0)))

    def meets(self, other: "Ball") -> bool:
        """Closed balls meet iff |c - c'|^2 <= (r + r')^2, decided exactly."""
        d2 = vec_norm_sq(vec_sub(self.center, other.center))
        return compare_real(d2, (self.radius + other.radius) ** 2) <= 0


class Chart(NamedTuple):
    """A local uniformization: flat ball in C^n with a finite unitary group."""

    id: str
    n: int
    cyclotomic_order: int
    radius: Optional[Fraction]  # None means all of C^n
    group: FiniteMatrixGroup

    @property
    def origin(self) -> CycVector:
        return vec(self.cyclotomic_order, [0] * self.n)


class ChangeOfChart:
    """Unitary-affine holomorphic isometry z -> Uz + b between charts."""

    __slots__ = ("source", "target", "linear", "offset", "source_domain", "_unitary")

    def __init__(self, source: str, target: str, linear: CycMatrix, offset: CycVector, source_domain: Ball):
        self.source, self.target, self.linear, self.offset = source, target, linear, offset
        self.source_domain, self._unitary = source_domain, None

    @property
    def unitary(self) -> bool:  # one verdict for atlas validation and the Seifert suite, on first read
        if self._unitary is None:
            self._unitary = self.linear.is_unitary()
        return self._unitary

    def apply(self, point: CycVector) -> CycVector:
        moved = self.linear.apply(point)
        return tuple(a + b for a, b in zip(moved, self.offset))

    def same_source_domain(self, other: "ChangeOfChart") -> bool:
        return self.source == other.source and self.source_domain == other.source_domain


class OrbifoldAtlas(NamedTuple):
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


def carrying_element(
    group: FiniteMatrixGroup, u: CycMatrix, b: CycVector, u_prime: CycMatrix, b_prime: CycVector
) -> Optional[CycMatrix]:
    """The g in the group with gU = U' and gb = b', or None.  U is
    unitary, so g = U' U^H is the one candidate."""
    g = u_prime @ u.conjugate_transpose()
    return g if g in group and g.apply(b) == b_prime else None


def equivalent_changes(
    phi: ChangeOfChart, phi_prime: ChangeOfChart, group_j: FiniteMatrixGroup
) -> Optional[CycMatrix]:
    """The g in Gamma_j with phi' = g . phi, or None."""
    if not phi.same_source_domain(phi_prime) or phi.target != phi_prime.target:
        raise ValueError("changes must share source domain and target chart")
    if not phi.unitary:
        raise ValueError("the first change's linear part must be unitary")
    return carrying_element(group_j, phi.linear, phi.offset, phi_prime.linear, phi_prime.offset)


def image_containment(change: ChangeOfChart, target: Chart) -> Verdict:
    """The whole image of the change's ball lies in the target chart: a
    unitary U maps B(c, r) onto B(Uc + b, r), inside B(0, R) iff r <= R
    and |Uc + b|^2 <= (R - r)^2, one certified comparison."""
    if not change.unitary:
        return Verdict(False, "linear part is not unitary, so the image is not a ball")
    r, big_r = change.source_domain.radius, target.radius
    if big_r is None:
        return Verdict(True, "target is all of C^n")
    if r > big_r:
        return Verdict(False, f"r = {r} > R = {big_r}")
    inside = Ball(target.origin, big_r - r).contains(change.apply(change.source_domain.center))
    return Verdict(inside, f"|Uc+b|^2 {'<=' if inside else '>'} (R-r)^2 = {(big_r - r) ** 2}")


def validate_atlas(atlas: OrbifoldAtlas) -> list[tuple[str, Verdict]]:
    """Unitarity and image containment of every change of charts, and the
    witness group element whenever two changes share a source domain."""
    out = []
    for ch in sorted(atlas.changes, key=lambda c: (c.source, c.target)):
        tag = f"{ch.source}.{ch.target}"
        out.append((f"unitary.{tag}", Verdict(ch.unitary)))
        out.append((f"containment.{tag}", image_containment(ch, atlas.chart(ch.target))))
    # witness existence for redundant changes over the same source domain
    for a, b in combinations(atlas.changes, 2):
        if a.same_source_domain(b) and a.target == b.target:
            if not a.unitary:
                verdict = Verdict(False, "linear part is not unitary")
            else:
                found = equivalent_changes(a, b, atlas.chart(a.target).group) is not None
                verdict = Verdict(found, "found" if found else "missing")
            out.append((f"witness.{a.source}.{a.target}", verdict))
    return out
