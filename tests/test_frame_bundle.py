import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from helpers import (
    cocycle_by_full_walk,
    equivariance_samples,
    gluing_images_by_preimage,
    matmul_by_polynomials,
    right_action,
    same_class_by_scan,
    sample_frames,
)

from orbcheck.atlas import Ball, ChangeOfChart, Chart, FiniteMatrixGroup, OrbifoldAtlas
from orbcheck.catalog import catalog_scenario, catalog_text
from orbcheck import frame_bundle
from orbcheck.cyclotomic import CycMatrix, CyclotomicNumber, vec
from orbcheck.frame_bundle import (
    FrameClass,
    UnitaryFrame,
    check_equivariance,
    check_lifted_action_free,
    cocycle_check,
    common_point,
    gluing_images,
    gluing_well_defined,
    identity_class,
    lift_group_action,
    seifert_fiber_report,
)
from orbcheck.pipeline import build_atlas, run_pipeline
from orbcheck.scenario import parse_scenario
from orbcheck.verdict import Verdict

CATALOG_ATLASES = ("football:2", "football:3", "football:4", "quaternion-chart")


@pytest.fixture(scope="module")
def football3():
    return build_atlas(catalog_scenario("football:3"))


@pytest.fixture(scope="module")
def quaternion():
    return build_atlas(catalog_scenario("quaternion-chart"))


def _choices(atlas):
    """Per overlap i -> j: the gluing's choices from chart i's identity,
    then every composite choice i -> j -> k through a further overlap."""
    overlaps = atlas.overlaps()
    for i, j in overlaps:
        choices = list(gluing_images(atlas, identity_class(atlas, i), j))
        yield choices
        for j2, k in overlaps:
            if j2 == j:
                yield [via for c in choices for via in gluing_images(atlas, c, k)]


@pytest.mark.parametrize("name", CATALOG_ATLASES)
def test_every_frame_the_seifert_suite_builds_is_unitary(name):
    # frames are not re-checked when derived, so each way of making one
    # (and the right action the equivariance verdict covers) must keep
    # them unitary
    atlas = build_atlas(catalog_scenario(name))
    built = []
    for chart in atlas.charts:
        frames = sample_frames(chart, 10)
        built += frames
        built += [lift_group_action(g, fr) for g in chart.group for fr in frames]
        built += [right_action(fr, a) for a in equivariance_samples(chart) for fr in frames]
    for choices in _choices(atlas):
        assert choices
        built += [c.representative for c in choices]
    assert all(fr.frame.is_unitary() for fr in built)


@pytest.mark.parametrize("name", CATALOG_ATLASES)
def test_same_class_matches_the_group_scan(name):
    atlas = build_atlas(catalog_scenario(name))
    # seeded frame classes over each chart, and the gluings' choices
    pools = [[FrameClass(c.id, fr, c.group) for fr in sample_frames(c, 10)] for c in atlas.charts]
    matched = unmatched = 0
    for pool in pools + list(_choices(atlas)):
        for a in pool:
            for b in pool:
                witness = a.same_class(b)
                assert witness == same_class_by_scan(a, b)
                matched += witness is not None
                unmatched += witness is None
    assert matched and unmatched


def test_lift_acts_through_linear_part(football3):
    chart = football3.chart("A")
    g = next(m for m in chart.group if m != CycMatrix.identity(3, 1))
    frame = sample_frames(chart, 1)[0]
    moved = lift_group_action(g, frame)
    assert moved.basepoint == g.apply(frame.basepoint)
    assert moved.frame == g @ frame.frame


def test_free_and_equivariant_on_catalog(football3, quaternion):
    # each verdict is decided once per chart; the seeded frames, which
    # the suite no longer builds, confirm what it holds for every frame
    for atlas in (football3, quaternion):
        for chart in atlas.charts:
            free = check_lifted_action_free(chart.group)
            assert free.passed
            assert free.detail == "no non-identity element fixes a frame; g.xi=xi forces g=id"
            assert check_equivariance(chart.group) == Verdict(True)
            frames = sample_frames(chart, 10)
            for g in chart.group:
                for fr in frames:
                    assert (lift_group_action(g, fr) == fr) == (g == CycMatrix.identity(g.order, g.n))
                    for a in equivariance_samples(chart):
                        lhs = lift_group_action(g, right_action(fr, a))
                        assert lhs == right_action(lift_group_action(g, fr), a)


def test_freeness_fails_when_an_element_repeats():
    # a group listing I twice has a non-identity element fixing every frame
    ident = CycMatrix.identity(4, 2)
    z = CyclotomicNumber.zeta(4)
    twice = FiniteMatrixGroup((ident, CycMatrix(4, [[z, 0], [0, 1]]), ident))
    verdict = check_lifted_action_free(twice)
    assert not verdict.passed
    assert verdict.detail == "fixed frame found for non-identity element"


def test_equivariance_fails_on_mismatched_shapes():
    sizes = FiniteMatrixGroup((CycMatrix.identity(4, 2), CycMatrix.identity(4, 1)))
    fields = FiniteMatrixGroup((CycMatrix.identity(4, 1), CycMatrix.identity(3, 1)))
    assert not check_equivariance(sizes).passed
    assert not check_equivariance(fields).passed


@pytest.mark.parametrize("name", CATALOG_ATLASES)
def test_frame_products_are_associative_against_the_oracle(name):
    # g(xi A) = (g xi) A is what the equivariance verdict rests on
    atlas = build_atlas(catalog_scenario(name))
    for chart in atlas.charts:
        order = chart.cyclotomic_order
        for fr in sample_frames(chart, 10):
            for g in chart.group:
                g_xi = g @ fr.frame
                assert [[c.coeffs for c in row] for row in g_xi.rows] == matmul_by_polynomials(g, fr.frame)
                for a in equivariance_samples(chart):
                    xi_a = fr.frame @ a
                    left, right = g @ xi_a, g_xi @ a
                    assert left == right
                    want = matmul_by_polynomials(g_xi, a)
                    assert [[c.coeffs for c in row] for row in left.rows] == want
                    assert matmul_by_polynomials(g, xi_a) == want


def _shifted(name, old, new):
    text = catalog_text(name)
    assert old in text
    return text.replace(old, new, 1)


EAGER_TEXTS = [catalog_text(name) for name in CATALOG_ATLASES] + [
    # offsets, so that composites pull balls back through a moved origin
    _shifted("football:3", "[change A -> C]\nlinear = [[1]]\noffset = [0]", "[change A -> C]\nlinear = [[1]]\noffset = [1/16]"),
    _shifted("quaternion-chart", "linear = [[z, 0], [0, z^3]]\noffset = [0, 0]", "linear = [[z, 0], [0, z^3]]\noffset = [1/8, 0]"),
]


def _images_agree(atlas) -> tuple[int, int]:
    """The pre-image reference M^H (g^H c - a), lifting only the choices
    that pass, against the package's walk, which lifts once per g: from
    each chart's identity, and again from every choice, so that classes
    with an offset and a non-identity frame are pulled back.  Returns the
    number of second-level images and of first-level choices whose frame
    is no declared linear part."""
    seen = moved = 0
    for i, j in atlas.overlaps():
        firsts = gluing_images(atlas, identity_class(atlas, i), j)
        assert firsts == gluing_images_by_preimage(atlas, identity_class(atlas, i), j)
        for cls in firsts:
            for k in {t for s, t in atlas.overlaps() if s == j}:
                images = gluing_images(atlas, cls, k)
                assert images == gluing_images_by_preimage(atlas, cls, k)
                seen += len(images)
        # choices lifted by a non-identity g carry a frame that is no declared linear part
        declared = {phi.linear for phi in atlas.changes_between(i, j)}
        moved += sum(c.representative.frame not in declared for c in firsts)
    return seen, moved


@pytest.mark.parametrize("text", EAGER_TEXTS, ids=[*CATALOG_ATLASES, "football:3-offset", "quaternion-offset"])
def test_lazy_gluing_images_match_the_eager_lift(text):
    seen, moved = _images_agree(build_atlas(parse_scenario(text)))
    assert seen and moved


def test_change_applies_only_inside_its_source_domain(football3):
    # A -> C is declared on B(1, 1/4); Gamma_A = Z/3 gives one choice per
    # g, applying on g^-1 B(1, 1/4) and acting by x -> g x
    chart = football3.chart("A")
    choices = list(gluing_images(football3, identity_class(football3, "A"), "C"))
    assert [c.choice for c in choices] == ["g0 A->C #1", "g1 A->C #1", "g2 A->C #1"]
    for g, c in zip(chart.group, choices):
        assert c.region == {Ball(chart.origin, chart.radius), Ball(g.conjugate_transpose().apply(vec(3, [1])), Fraction(1, 4))}
        assert c.representative.basepoint == vec(3, [0]) and c.representative.frame == g
        assert c.group == football3.chart("C").group


def test_change_whose_ball_misses_the_chart_has_no_choice():
    # B(1, 1/4) misses a chart A of radius 1/2, so no choice of A -> C applies
    scenario = catalog_scenario("football:3")
    scenario.charts[0] = scenario.charts[0]._replace(radius=Fraction(1, 2))
    atlas = build_atlas(scenario)
    assert list(gluing_images(atlas, identity_class(atlas, "A"), "C")) == []
    assert gluing_well_defined(atlas, "A", "C") == Verdict(False, "no change A->C meets the domain of A")


def test_gluing_well_defined_sees_redundant_change(football3):
    # the two A -> B changes share their ball, so each g pairs them, by zeta
    assert len(football3.changes_between("A", "B")) == 2
    choices = list(gluing_images(football3, identity_class(football3, "A"), "B"))
    assert len(choices) == 6
    verdict = gluing_well_defined(football3, "A", "B")
    assert verdict == Verdict(True, "6 choices in 1 classes; no two of different classes meet")
    h = choices[0].same_class(choices[1])
    assert h is not None and h != CycMatrix.identity(3, 1)


def test_well_defined_compares_choices_by_different_elements(football3):
    # Gamma_A = Z/3 fixes the origin, so every g keeps B(0, 1/4): the three
    # choices meet pairwise and differ by g, which Gamma_B holds and the
    # trivial Gamma_C does not
    centred = [ChangeOfChart("A", t, CycMatrix.identity(3, 1), vec(3, [0]), Ball(vec(3, [0]), Fraction(1, 4))) for t in "BC"]
    atlas = OrbifoldAtlas(football3.charts, centred)
    verdict = gluing_well_defined(atlas, "A", "B")
    assert verdict == Verdict(True, "3 choices in 1 classes; no two of different classes meet")
    verdict = gluing_well_defined(atlas, "A", "C")
    assert verdict == Verdict(False, "choices g0 A->C #1 and g1 A->C #1 differ where their balls meet")


def test_well_defined_fails_off_the_old_sample_grid(football3):
    # a third A -> B change on B(11/8, 1/4) shifts by 1/16 and meets the
    # first ball only at distance > r/2 from its centre
    first = football3.changes_between("A", "B")[0]
    third = ChangeOfChart("A", "B", first.linear, vec(3, [Fraction(1, 16)]), Ball(vec(3, [Fraction(11, 8)]), Fraction(1, 4)))
    atlas = OrbifoldAtlas(football3.charts, football3.changes + [third])
    verdict = gluing_well_defined(atlas, "A", "B")
    assert verdict == Verdict(False, "choices g0 A->B #1 and g0 A->B #3 differ where their balls meet")


def test_cocycle_holds_on_football_triple(football3):
    verdict = cocycle_check(football3, "A", "C", "B")
    assert verdict == Verdict(True, "6 direct and 3 composite choices agree where they meet; a common point is certified")


def test_cocycle_detects_broken_gluing(football3):
    # sabotage the direct gluing A -> B with a translation
    direct = football3.changes_between("A", "B")[0]
    order = football3.chart("A").cyclotomic_order
    broken = ChangeOfChart("A", "B", direct.linear, vec(order, [Fraction(1, 8)]), direct.source_domain)
    kept = [c for c in football3.changes if (c.source, c.target) != ("A", "B")]
    sabotaged = OrbifoldAtlas(football3.charts, kept + [broken])
    assert cocycle_check(football3, "A", "C", "B").passed
    verdict = cocycle_check(sabotaged, "A", "C", "B")
    assert verdict == Verdict(False, "g0 A->B #1 differs from g0 A->C #1 then g0 C->B #1 where their balls meet")


def test_cocycle_skips_classes_off_the_triple_overlap(football3):
    # shrink the A -> C ball to radius 1/32: each composite still meets
    # the direct choice by the same g, and no other
    narrowed = OrbifoldAtlas(football3.charts, [
        ChangeOfChart(c.source, c.target, c.linear, c.offset, Ball(c.source_domain.center, Fraction(1, 32)))
        if (c.source, c.target) == ("A", "C") else c
        for c in football3.changes
    ])
    verdict = cocycle_check(narrowed, "A", "C", "B")
    assert verdict == Verdict(True, "6 direct and 3 composite choices agree where they meet; a common point is certified")
    # an A -> C ball about -1 parts every composite from every direct choice
    apart = OrbifoldAtlas(football3.charts, [
        ChangeOfChart(c.source, c.target, c.linear, c.offset, Ball(vec(3, [-1]), Fraction(1, 4)))
        if (c.source, c.target) == ("A", "C") else c
        for c in football3.changes
    ])
    verdict = cocycle_check(apart, "A", "C", "B")
    assert verdict == Verdict(False, "empty triple overlap: 6 direct and 0 composite choices, no two with pairwise meeting balls")


def test_cocycle_compares_only_meeting_pairs_of_different_classes(football3):
    # direct A -> B balls shrunk to B(1, 1/16); C -> B shifts by 1/16 on
    # B(5/4, 1/8), so its composites differ from every direct choice, but
    # their centres lie 1/4 > 1/16 + 1/8 from the direct ones
    one = Ball(vec(3, [1]), Fraction(1, 16))
    shift = ChangeOfChart("C", "B", CycMatrix.identity(3, 1), vec(3, [Fraction(1, 16)]),
                          Ball(vec(3, [Fraction(5, 4)]), Fraction(1, 8)))
    direct = [ChangeOfChart(c.source, c.target, c.linear, c.offset, one) for c in football3.changes_between("A", "B")]
    via_c = football3.changes_between("A", "C")
    apart = OrbifoldAtlas(football3.charts, direct + via_c + [shift])
    verdict = cocycle_check(apart, "A", "C", "B")
    assert verdict == Verdict(False, "empty triple overlap: 6 direct and 3 composite choices, no two with pairwise meeting balls")
    # the identity on B(1, 1/16) adds composites of the direct choices' class
    same = ChangeOfChart("C", "B", CycMatrix.identity(3, 1), vec(3, [0]), one)
    verdict = cocycle_check(OrbifoldAtlas(football3.charts, direct + via_c + [same, shift]), "A", "C", "B")
    assert verdict == Verdict(True, "6 direct and 6 composite choices agree where they meet; a common point is certified")


TRIANGLE = """
[scenario]
name = triangle
pipelines = atlas, seifert

[chart A]
n = 1
radius = 2
cyclotomic_order = 3
generators =

[chart B]
n = 1
radius = 2
cyclotomic_order = 3
generators =

[chart C]
n = 1
radius = 2
cyclotomic_order = 3
generators =

[change A -> B]
linear = [[1]]
offset = [0]
center = [1]
radius = 9/10

[change A -> C]
linear = [[1]]
offset = [0]
center = [z]
radius = 9/10

[change C -> B]
linear = [[1]]
offset = [0]
center = [z^2]
radius = 9/10
"""


def test_cocycle_needs_a_certified_common_point():
    # balls of radius 9/10 about 1, zeta and zeta^2 meet pairwise (|1 - zeta|
    # = sqrt 3 < 9/5) but share no point (each centre is 1 from the origin)
    atlas = build_atlas(parse_scenario(TRIANGLE))
    verdict = cocycle_check(atlas, "A", "C", "B")
    assert verdict == Verdict(False, "1 direct and 1 composite choices agree where they meet, "
                                    "but no common point of their balls is certified")
    balls = [Ball(vec(3, [c]), Fraction(9, 10)) for c in (1, CyclotomicNumber.zeta(3), CyclotomicNumber.zeta(3, 2))]
    assert all(a.meets(b) for a in balls for b in balls)
    assert common_point(tuple(balls)) is None
    assert common_point(tuple(balls[:2])) is not None


LENS = TRIANGLE.replace("cyclotomic_order = 3", "cyclotomic_order = 4").replace("radius = 2", "radius = 3")
for old, ball in (("center = [1]", "center = [0]\nradius = 1"),
                  ("center = [z]", "center = [9/5]\nradius = 1"),
                  ("center = [z^2]", "center = [13/10 z + 9/10]\nradius = 9/10")):
    LENS = LENS.replace(f"{old}\nradius = 9/10", ball)


def test_cocycle_fails_where_no_candidate_lies_in_a_nonempty_overlap():
    # a known gap: B(0, 1), B(9/5, 1) and B(9/10 + 13/10 i, 9/10) share
    # 9/10 + 21/50 i, but no centre or weighted point of two lies in all
    # three, so an atlas of identity changes, valid, reads FAIL
    atlas = build_atlas(parse_scenario(LENS))
    balls = [Ball(vec(4, [c]), r) for c, r in (
        (0, Fraction(1)), (Fraction(9, 5), Fraction(1)),
        (CyclotomicNumber.zeta(4) * Fraction(13, 10) + Fraction(9, 10), Fraction(9, 10)))]
    shared = vec(4, [CyclotomicNumber.zeta(4) * Fraction(21, 50) + Fraction(9, 10)])
    assert all(b.contains(shared) for b in balls)
    assert common_point(tuple(balls)) is None
    verdict = cocycle_check(atlas, "A", "C", "B")
    assert verdict == Verdict(False, "1 direct and 1 composite choices agree where they meet, "
                                     "but no common point of their balls is certified")


Z64 = """
[scenario]
name = z64
pipelines = atlas, seifert

[chart A]
n = 1
radius = 2
cyclotomic_order = 64
generators = [[z]]

[change A -> A]
linear = [[1]]
offset = [0]
center = [1]
radius = 1/64

[change A -> A]
linear = [[z]]
offset = [0]
center = [1]
radius = 1/64
"""

COCYCLE_TEXTS = {
    **dict(zip([*CATALOG_ATLASES, "football:3-offset", "quaternion-offset"], EAGER_TEXTS)),
    "z64": Z64,
    # a change of another class that meets the first: composites differ
    "quaternion-swap": _shifted("quaternion-chart", "linear = [[z, 0], [0, z^3]]", "linear = [[0, 1], [1, 0]]"),
    # A -> C about -1: no composite meets a direct choice
    "football:3-apart": _shifted("football:3", "[change A -> C]\nlinear = [[1]]\noffset = [0]\ncenter = [1]",
                                 "[change A -> C]\nlinear = [[1]]\noffset = [0]\ncenter = [-1]"),
    "triangle": TRIANGLE,
    "lens": LENS,
}


def _triples(atlas):
    overlaps = set(atlas.overlaps())
    return sorted((i, j, k) for i, j in overlaps for j2, k in overlaps if j2 == j and (i, k) in overlaps)


def _full_walks(atlas) -> list:
    """The full walk's verdict on every triple, once ``cocycle_check`` is
    seen to agree with it.  Precomposing with an element of Gamma_i
    carries every (direct, composite) pair to one whose composite starts
    at the first element, so a "differs" FAIL may name another pair of
    the same orbit."""
    out = []
    for triple in _triples(atlas):
        got, want = cocycle_check(atlas, *triple), cocycle_by_full_walk(atlas, *triple)
        if " differs from " in want.detail:
            assert not got.passed and " differs from " in got.detail, (triple, got, want)
        else:
            assert got == want, (triple, got, want)
        out.append(want)
    return out


def test_cocycle_through_the_first_element_matches_the_full_walk():
    differs = " differs from "
    fails = {"football:3-offset": differs, "quaternion-offset": differs, "quaternion-swap": differs,
             "football:3-apart": "empty triple overlap", "triangle": "no common point", "lens": "no common point"}
    for name, text in COCYCLE_TEXTS.items():
        for want in _full_walks(build_atlas(parse_scenario(text))):
            assert want.passed if name not in fails else fails[name] in want.detail, (name, want)


def test_every_region_the_walk_builds_meets_pairwise(monkeypatch):
    built = []

    def recorded(atlas, cls, target):
        images = gluing_images(atlas, cls, target)
        built.extend(c.region for c in images)
        return images

    monkeypatch.setattr(frame_bundle, "gluing_images", recorded)
    for text in COCYCLE_TEXTS.values():
        atlas = build_atlas(parse_scenario(text))
        for i, j in atlas.overlaps():
            gluing_well_defined(atlas, i, j)
        for triple in _triples(atlas):
            cocycle_check(atlas, *triple)
    assert built
    for region in built:
        assert isinstance(region, frozenset)
        assert all(a.meets(b) for a, b in combinations(region, 2))


# -- the Seifert corpus: seeded monomial atlases against the oracles --------
#
# A monomial matrix is (perm, exps): row i holds zeta_N^exps[i] in column
# perm[i] and zeros elsewhere, so it is unitary by construction.


def _mono(m, order: int) -> CycMatrix:
    perm, exps = m
    return CycMatrix(order, [[CyclotomicNumber.zeta(order, e) if c == p else 0 for c in range(len(perm))]
                             for p, e in zip(perm, exps)])


def _mono_group(gen, order: int) -> FiniteMatrixGroup:
    """The cyclic group of a monomial matrix, closed on (perm, exps)."""
    n = len(gen[0])
    elements = [(tuple(range(n)), (0,) * n)]
    while True:
        (pa, ea), (pb, eb) = elements[-1], gen
        step = (tuple(pb[p] for p in pa), tuple((e + eb[p]) % order for p, e in zip(pa, ea)))
        if step == elements[0]:
            return FiniteMatrixGroup(_mono(m, order) for m in elements)
        elements.append(step)


def _random_mono(rng, n: int, order: int):
    return tuple(rng.sample(range(n), n)), tuple(rng.randrange(order) for _ in range(n))


def _random_atlas(rng, order: int) -> OrbifoldAtlas:
    """One to three charts of one dimension n <= 2 sharing a cyclic group
    of order <= 4, and zero to two changes per ordered pair of charts,
    self-overlaps included.  A change has a linear part in the group or,
    one time in four, any monomial one; an offset 0 or, one time in four,
    zeta^e / 16; and a ball of radius 1/4 or 1/2 about a point zeta^e q,
    with q = 0, 1/2 or 1."""
    n = rng.choice((1, 2))
    group = _mono_group(_random_mono(rng, n, order), order)
    while group.order > 4:
        group = _mono_group(_random_mono(rng, n, order), order)
    ids = "ABC"[:rng.randint(1, 3)]
    charts = [Chart(cid, n, order, rng.choice((Fraction(2), Fraction(2), None)), group) for cid in ids]

    def point(scale):
        out = [0] * n
        out[rng.randrange(n)] = CyclotomicNumber.zeta(order, rng.randrange(order)) * scale
        return vec(order, out)

    def linear():
        return _mono(_random_mono(rng, n, order), order) if rng.random() < 1 / 4 else rng.choice(group)

    changes = [
        ChangeOfChart(s, t, linear(), point(Fraction(1, 16) if rng.random() < 1 / 4 else 0),
                      Ball(point(rng.choice((0, Fraction(1, 2), 1))), rng.choice((Fraction(1, 4), Fraction(1, 2)))))
        for s in ids for t in ids for _ in range(rng.choice((0, 0, 1, 2)))
    ]
    return OrbifoldAtlas(charts, changes)


def _triangle(order: int, powers: tuple, radius: Fraction, turn: int) -> OrbifoldAtlas:
    """Identity changes A -> B, A -> C, C -> B on balls of one radius r < 1
    about zeta^p for p in ``powers``, all turned by zeta^turn.  The balls
    meet pairwise, but when the origin lies in the centres' convex hull,
    sum_i t_i c_i = 0, every point x has sum_i t_i |x - c_i|^2 = |x|^2 + 1
    > r^2, so no point lies in all three."""
    group = FiniteMatrixGroup.trivial(order, 1)
    charts = [Chart(cid, 1, order, Fraction(2), group) for cid in "ABC"]
    ident = CycMatrix.identity(order, 1)
    return OrbifoldAtlas(charts, [
        ChangeOfChart(s, t, ident, vec(order, [0]), Ball(vec(order, [CyclotomicNumber.zeta(order, p + turn)]), radius))
        for (s, t), p in zip((("A", "B"), ("A", "C"), ("C", "B")), powers)
    ])


def test_seifert_corpus_matches_the_oracles():
    # 24 seeded atlases over zeta_8 and zeta_12 (75 triples: 28 PASS, 32
    # "differs" and 15 empty triple overlaps), then triangles that meet
    # pairwise around the origin, which both sides FAIL until a common
    # point of three balls is decided exactly
    rng = random.Random(9)
    kinds = Counter()
    for order in (8, 12):
        for _ in range(12):
            atlas = _random_atlas(rng, order)
            _images_agree(atlas)
            kinds.update("PASS" if w.passed else "differs" if " differs from " in w.detail else w.detail.split(":")[0]
                         for w in _full_walks(atlas))
    assert set(kinds) == {"PASS", "differs", "empty triple overlap"} and min(kinds.values()) >= 10, kinds
    for order, powers, radius in ((8, (0, 3, 5), Fraction(19, 20)), (12, (0, 4, 8), Fraction(9, 10))):
        for turn in rng.sample(range(order), 2):
            atlas = _triangle(order, powers, radius, turn)
            balls = [c.source_domain for c in atlas.changes]
            assert all(a.meets(b) for a, b in combinations(balls, 2))
            [want] = _full_walks(atlas)
            assert not want.passed and "no common point" in want.detail, want


def test_hashed_records_compare_and_hash_by_value(football3):
    # Ball, UnitaryFrame and FrameClass are named tuples: their fields are
    # read-only, so a record cannot change its hash inside a frozenset
    ball, twin = (Ball(vec(3, [1]), Fraction(1, 4)) for _ in range(2))
    assert ball is not twin and ball == twin and hash(ball) == hash(twin)
    assert len(frozenset({ball, twin})) == 1
    group = football3.chart("A").group

    def choice():
        frame = UnitaryFrame("A", vec(3, [0]), CycMatrix(3, [[1]]))
        return FrameClass("A", frame, FiniteMatrixGroup(tuple(group)), frozenset({Ball(vec(3, [1]), Fraction(1, 4))}), "g0")

    first, second = choice(), choice()
    assert first.group is not second.group and first.representative is not second.representative
    assert first == second and hash(first) == hash(second) and len(frozenset({first, second})) == 1
    assert first != first._replace(choice="g1")
    with pytest.raises(AttributeError):
        ball.radius = Fraction(1, 2)
    with pytest.raises(AttributeError):
        first.region = frozenset()
    # a change compares its ball by value, not by identity
    change = football3.changes_between("A", "B")[0]
    copy = ChangeOfChart("A", "B", change.linear, change.offset, Ball(*change.source_domain))
    assert copy.source_domain is not change.source_domain and copy.same_source_domain(change)
    assert not copy.same_source_domain(ChangeOfChart("A", "B", change.linear, change.offset, ball._replace(radius=Fraction(1, 8))))


def test_cocycle_decides_the_z64_atlas_in_few_ball_tests(monkeypatch):
    # the full walk makes 33,032 ball tests here: 128 x 128 composites
    atlas = build_atlas(parse_scenario(Z64))
    calls = []
    meets = Ball.meets
    monkeypatch.setattr(Ball, "meets", lambda self, other: calls.append(1) or meets(self, other))
    verdict = cocycle_check(atlas, "A", "A", "A")
    assert verdict == Verdict(True, "128 direct and 256 composite choices agree where they meet; a common point is certified")
    assert len(calls) <= 1000


def test_self_overlap_cocycle_walks_the_direct_choices_once(monkeypatch, quaternion):
    # on Q.Q.Q the first level i -> j is the direct walk i -> k, so it is
    # lifted once: 8 lifts for it (one per element of the chart's group),
    # and 16 for the composites through the first element's 2 choices;
    # walking the first level twice made 32
    lifts = []
    monkeypatch.setattr(frame_bundle, "lift_group_action", lambda g, fr: lifts.append(1) or lift_group_action(g, fr))
    verdict = cocycle_check(quaternion, "Q", "Q", "Q")
    assert verdict == Verdict(True, "16 direct and 32 composite choices agree where they meet; a common point is certified")
    assert len(lifts) == 24


def test_catalog_football_shrinks_change_balls_that_would_meet_their_rotations():
    # |1 - zeta_13|^2 = 2 - 2 cos(2 pi/13) < (1/2)^2, so B(1, 1/4) meets its
    # Gamma_A-rotation, and the trivial Gamma_C cannot carry one image to
    # the other; the catalog's balls have radius 1/k from k = 13 on
    text = catalog_text("football:13")
    assert text.count("radius = 1/13") == 4
    assert gluing_well_defined(build_atlas(parse_scenario(text)), "A", "C").passed
    old = parse_scenario(text.replace("radius = 1/13", "radius = 1/4"))
    verdict = gluing_well_defined(build_atlas(old), "A", "C")
    assert verdict == Verdict(False, "choices g0 A->C #1 and g1 A->C #1 differ where their balls meet")
    assert catalog_text("football:12").count("radius = 1/4") == 4
    assert gluing_well_defined(build_atlas(catalog_scenario("football:12")), "A", "C").passed


@pytest.mark.parametrize("k", [13, 24, 64])
def test_catalog_football_passes_from_13_on(k):
    report = run_pipeline(catalog_scenario(f"football:{k}"))
    assert report.overall, report.to_machine()


def test_common_point_lies_in_every_ball():
    # the weighted point c + r/(r + r')(c' - c) of two tangent balls is
    # their one common point; a centre inside every ball comes first
    a, b = Ball(vec(4, [0]), Fraction(1, 4)), Ball(vec(4, [1]), Fraction(3, 4))
    assert common_point((a, b)) == vec(4, [Fraction(1, 4)])
    inner = Ball(vec(4, [Fraction(1, 4)]), Fraction(1, 8))
    assert common_point((Ball(vec(4, [0]), Fraction(1)), inner)) == inner.center
    assert common_point((a, Ball(vec(4, [2]), Fraction(1, 2)))) is None


def test_seifert_fiber_orders(football3, quaternion):
    # the origin's stabilizer is the whole chart group
    assert seifert_fiber_report(football3.chart("A")) == "fiber = Gamma_x\\U(1) with |Gamma_x| = 3"
    assert seifert_fiber_report(football3.chart("C")).endswith("|Gamma_x| = 1")
    assert seifert_fiber_report(quaternion.chart("Q")) == "fiber = Gamma_x\\U(2) with |Gamma_x| = 8"


def test_right_action_commutes_pointwise(quaternion):
    chart = quaternion.chart("Q")
    frame = sample_frames(chart, 1)[0]
    z = CyclotomicNumber.zeta(4)
    a = CycMatrix(4, [[z, 0], [0, 1]])
    for g in chart.group:
        lhs = lift_group_action(g, right_action(frame, a))
        rhs = right_action(lift_group_action(g, frame), a)
        assert lhs == rhs
