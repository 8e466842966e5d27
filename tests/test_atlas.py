from fractions import Fraction

import pytest
from helpers import DuplicateGroupElement, make_group

from orbcheck.atlas import (
    Ball,
    ChangeOfChart,
    Chart,
    equivalent_changes,
    group_closure,
    sample_grid,
    stabilizer,
    validate_atlas,
)
from orbcheck.catalog import catalog_scenario
from orbcheck.cyclotomic import CycMatrix, CyclotomicNumber, vec
from orbcheck.errors import (
    ClosureExceedsCap,
    MultipleWitnesses,
    NonUnitaryGenerator,
)
from orbcheck.pipeline import build_atlas


def zmat(order, rows):
    return CycMatrix(order, rows)


def test_group_closure_cyclic():
    z = CyclotomicNumber.zeta(5)
    g = group_closure([zmat(5, [[z]])])
    assert g.order == 5


def test_group_closure_quaternion():
    z = CyclotomicNumber.zeta(4)
    gens = [zmat(4, [[z, 0], [0, z * z * z]]), zmat(4, [[0, 1], [z * z, 0]])]
    g = group_closure(gens)
    assert g.order == 8
    # nonabelian: some pair fails to commute
    assert any(a @ b != b @ a for a in g for b in g)


def test_group_closure_rejections():
    with pytest.raises(NonUnitaryGenerator):
        group_closure([zmat(4, [[2]])])
    z = CyclotomicNumber.zeta(7)
    with pytest.raises(ClosureExceedsCap):
        group_closure([zmat(7, [[z]])], cap=3)
    with pytest.raises(DuplicateGroupElement):
        make_group([zmat(4, [[1]]), zmat(4, [[1]])])


def test_stabilizer_orders():
    z = CyclotomicNumber.zeta(4)
    g = group_closure([zmat(4, [[z, 0], [0, 1]])])
    origin = vec(4, [0, 0])
    axis = vec(4, [0, 1])
    off = vec(4, [1, 0])
    assert stabilizer(g, origin).order == 4
    assert stabilizer(g, axis).order == 4
    assert stabilizer(g, off).order == 1


def test_ball_containment_exact():
    b = Ball(vec(4, [1]), Fraction(1, 4))
    assert b.contains(vec(4, [1]))
    assert b.contains(vec(4, [Fraction(5, 4)]))  # boundary point
    assert not b.contains(vec(4, [Fraction(3, 2)]))
    assert Ball(vec(4, [0]), None).contains(vec(4, [100]))


def test_sample_grid_stays_inside_ball():
    b = Ball(vec(8, [1, 0]), Fraction(1, 2))
    pts = sample_grid(8, b, 25)
    assert len(pts) == 25
    assert all(b.contains(p) for p in pts)


def test_equivalent_changes_witness_and_absence():
    z = CyclotomicNumber.zeta(3)
    group = group_closure([zmat(3, [[z]])])
    ball = Ball(vec(3, [1]), Fraction(1, 4))
    phi = ChangeOfChart("A", "B", zmat(3, [[1]]), vec(3, [0]), ball)
    phi2 = ChangeOfChart("A", "B", zmat(3, [[z]]), vec(3, [0]), ball)
    w = equivalent_changes(phi, phi2, group)
    assert w is not None and w == zmat(3, [[z]])
    shifted = ChangeOfChart("A", "B", zmat(3, [[1]]), vec(3, [Fraction(1, 7)]), ball)
    assert equivalent_changes(phi, shifted, group) is None


def test_multiple_witnesses_detected():
    # a duplicated element makes the witness non-unique
    ident = zmat(3, [[1]])
    ball = Ball(vec(3, [0]), Fraction(1, 4))
    phi = ChangeOfChart("A", "B", ident, vec(3, [0]), ball)
    trivial_group = make_group([ident])
    assert equivalent_changes(phi, phi, trivial_group) == ident
    from orbcheck.atlas import FiniteMatrixGroup

    g = FiniteMatrixGroup((ident, ident))
    with pytest.raises(MultipleWitnesses):
        equivalent_changes(phi, phi, g)


def test_validate_catalog_atlases_pass():
    for name in ("football:2", "football:3", "football:4", "quaternion-chart"):
        atlas = build_atlas(catalog_scenario(name))
        verdicts = validate_atlas(atlas)
        assert verdicts
        assert all(v.passed for _, v in verdicts), [k for k, v in verdicts if not v.passed]


def test_validate_flags_broken_containment():
    group = make_group([zmat(4, [[1]])])
    chart = Chart("A", 1, 4, Fraction(1, 2), group)
    ball = Ball(vec(4, [0]), Fraction(1, 4))
    change = ChangeOfChart("A", "A", zmat(4, [[1]]), vec(4, [2]), ball)
    from orbcheck.atlas import OrbifoldAtlas

    verdicts = dict(validate_atlas(OrbifoldAtlas([chart], [change])))
    assert verdicts["unitary.A.A"].passed
    assert not verdicts["containment.A.A"].passed
