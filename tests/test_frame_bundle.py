import dataclasses
from fractions import Fraction

import pytest
from helpers import same_class_by_scan

from orbcheck.atlas import Ball, ChangeOfChart, OrbifoldAtlas
from orbcheck.catalog import catalog_scenario
from orbcheck.cyclotomic import CycMatrix, CyclotomicNumber, vec
from orbcheck.errors import NoApplicableChange
from orbcheck.frame_bundle import (
    FrameClass,
    UnitaryFrame,
    check_equivariance,
    check_lifted_action_free,
    cocycle_check,
    gluing_images,
    gluing_well_defined,
    lift_group_action,
    right_action,
    sample_classes,
    sample_frames,
    seifert_fiber_report,
)
from orbcheck.pipeline import _equivariance_samples, build_atlas

CATALOG_ATLASES = ("football:2", "football:3", "football:4", "quaternion-chart")


@pytest.fixture(scope="module")
def football3():
    return build_atlas(catalog_scenario("football:3"))


@pytest.fixture(scope="module")
def quaternion():
    return build_atlas(catalog_scenario("quaternion-chart"))


def _classes_and_images(atlas):
    """Per overlap i -> j: the sampled classes over i and all their gluing images."""
    for i, j in atlas.overlaps():
        classes = sample_classes(atlas, i, j)
        yield classes, [out for cls in classes for out in gluing_images(atlas, cls, j)]


@pytest.mark.parametrize("name", CATALOG_ATLASES)
def test_every_frame_the_seifert_suite_builds_is_unitary(name):
    # frames are not re-checked when derived, so each way of making one
    # must keep them unitary
    atlas = build_atlas(catalog_scenario(name))
    built = []
    for chart in atlas.charts:
        frames = sample_frames(chart, 10)
        built += frames
        built += [lift_group_action(g, fr) for g in chart.group for fr in frames]
        built += [right_action(fr, a) for a in _equivariance_samples(chart) for fr in frames]
    for classes, images in _classes_and_images(atlas):
        assert images
        built += [cls.representative for cls in classes + images]
    assert all(fr.frame.is_unitary() for fr in built)


@pytest.mark.parametrize("name", CATALOG_ATLASES)
def test_same_class_matches_the_group_scan(name):
    atlas = build_atlas(catalog_scenario(name))
    matched = unmatched = 0
    for classes, images in _classes_and_images(atlas):
        for pool in (classes, images):
            for a in pool:
                for b in pool:
                    witness = a.same_class(b)
                    assert witness == same_class_by_scan(a, b)
                    matched += witness is not None
                    unmatched += witness is None
    assert matched and unmatched


def test_lift_acts_through_linear_part(football3):
    chart = football3.chart("A")
    g = next(m for m in chart.group if not m.is_identity())
    frame = sample_frames(chart, 1)[0]
    moved = lift_group_action(g, frame)
    assert moved.basepoint == g.apply(frame.basepoint)
    assert moved.frame == g @ frame.frame


def test_free_and_equivariant_on_catalog(football3, quaternion):
    for atlas in (football3, quaternion):
        for chart in atlas.charts:
            frames = sample_frames(chart, 10)
            assert check_lifted_action_free(chart.group, frames).passed
            a = CycMatrix.identity(chart.cyclotomic_order, chart.n)
            for g in chart.group:
                for fr in frames:
                    assert check_equivariance(g, a, fr).passed


def _class_at(atlas, chart_id, point):
    chart = atlas.chart(chart_id)
    order = chart.cyclotomic_order
    frame = UnitaryFrame(chart_id, vec(order, point), CycMatrix.identity(order, chart.n))
    return FrameClass(chart_id, frame, chart.group)


def test_change_applies_only_inside_its_source_domain(football3):
    # A -> C is declared on the ball of radius 1/4 about 1; Gamma_A is Z/3
    inside = list(gluing_images(football3, _class_at(football3, "A", [Fraction(9, 8)]), "C"))
    assert len(inside) == 1  # only the identity keeps 9/8 in the ball
    image = inside[0].representative
    assert image.chart == "C" and image.basepoint == vec(3, [Fraction(9, 8)])
    far = _class_at(football3, "A", [Fraction(7, 4)])
    assert list(gluing_images(football3, far, "C")) == []


def test_gluing_well_defined_sees_redundant_change(football3):
    assert len(football3.changes_between("A", "B")) == 2
    cls = sample_classes(football3, "A", "B", 1)[0]
    images = list(gluing_images(football3, cls, "B"))
    assert len(images) == 2  # both declared changes, identity representative
    verdict = gluing_well_defined(football3, cls, "B")
    assert verdict.passed
    assert verdict.detail == "2 choices agree; 1 nontrivial witnesses"


def test_off_overlap_class_raises_no_applicable_change(football3):
    off_overlap = _class_at(football3, "A", [0])
    with pytest.raises(NoApplicableChange):
        gluing_well_defined(football3, off_overlap, "B")


def test_cocycle_holds_on_football_triple(football3):
    classes = sample_classes(football3, "A", "B", 25)
    verdict = cocycle_check(football3, "C", "B", classes)
    assert verdict.passed and verdict.detail == "25 sampled classes agree"


def test_cocycle_detects_broken_gluing(football3):
    # sabotage the direct gluing A -> B with a translation
    direct = football3.changes_between("A", "B")[0]
    order = football3.chart("A").cyclotomic_order
    broken = ChangeOfChart("A", "B", direct.linear, vec(order, [Fraction(1, 8)]), direct.source_domain)
    kept = [c for c in football3.changes if (c.source, c.target) != ("A", "B")]
    sabotaged = OrbifoldAtlas(football3.charts, kept + [broken])
    classes = sample_classes(sabotaged, "A", "B", 5)
    assert cocycle_check(football3, "C", "B", classes).passed
    verdict = cocycle_check(sabotaged, "C", "B", classes)
    assert not verdict.passed and verdict.detail == "cocycle identity fails over A"


def test_cocycle_skips_classes_off_the_triple_overlap(football3):
    # shrink the A -> C ball to radius 1/32: a 9/8 class is still over
    # A -> B but no longer over A -> C, a 65/64 class is over both
    narrowed = OrbifoldAtlas(football3.charts, [
        dataclasses.replace(c, source_domain=Ball(c.source_domain.center, Fraction(1, 32)))
        if (c.source, c.target) == ("A", "C") else c
        for c in football3.changes
    ])
    inside = _class_at(narrowed, "A", [Fraction(65, 64)])
    outside = _class_at(narrowed, "A", [Fraction(9, 8)])
    assert list(gluing_images(narrowed, outside, "B"))
    assert not list(gluing_images(narrowed, outside, "C"))
    verdict = cocycle_check(narrowed, "C", "B", [outside, inside, outside])
    assert verdict.passed and verdict.detail == "1 sampled classes agree"
    verdict = cocycle_check(narrowed, "C", "B", [outside])
    assert not verdict.passed
    assert verdict.detail == "no sampled class lies in the triple overlap"
    assert not cocycle_check(narrowed, "C", "B", []).passed


def test_seifert_fiber_orders(football3, quaternion):
    s, desc = seifert_fiber_report(football3, "A", vec(3, [0]))
    assert s == 3 and "3" in desc
    s, _ = seifert_fiber_report(football3, "C", vec(3, [0]))
    assert s == 1
    s, _ = seifert_fiber_report(quaternion, "Q", vec(4, [0, 0]))
    assert s == 8


def test_right_action_commutes_pointwise(quaternion):
    chart = quaternion.chart("Q")
    frame = sample_frames(chart, 1)[0]
    z = CyclotomicNumber.zeta(4)
    a = CycMatrix(4, [[z, 0], [0, 1]])
    for g in chart.group:
        lhs = lift_group_action(g, right_action(frame, a))
        rhs = right_action(lift_group_action(g, frame), a)
        assert lhs == rhs
