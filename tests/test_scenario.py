from fractions import Fraction

import pytest

from orbcheck.catalog import CATALOG_NAMES, catalog_scenario, catalog_text
from orbcheck.errors import (
    MissingSection,
    ParseError,
    UnknownCatalogEntry,
    UnknownPipeline,
)
from orbcheck.scenario import (
    parse_matrix,
    parse_rational,
    parse_scenario,
    parse_z_polynomial,
)

MINIMAL = """
[scenario]
name = demo
pipelines = taut

[action]
type = circle
weights = 1, 2

[metric]
kind = round
"""


def test_parse_rational_and_polynomial():
    assert parse_rational("-3/4", 1) == Fraction(-3, 4)
    assert parse_z_polynomial("z^2 + 1/2", 1) == [Fraction(1, 2), Fraction(0), Fraction(1)]
    assert parse_z_polynomial("-z", 1) == [Fraction(0), Fraction(-1)]
    assert parse_z_polynomial("3", 1) == [Fraction(3)]


def test_parse_matrix_nested():
    m = parse_matrix("[[z, 0], [0, z^3]]", 1)
    assert len(m) == 2 and len(m[0]) == 2
    assert m[1][1] == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]


def test_minimal_scenario_roundtrip():
    s = parse_scenario(MINIMAL)
    assert s.name == "demo"
    assert s.geometry.weights == [1, 2]


def test_parse_errors_carry_line_numbers():
    bad = "[scenario]\nname = x\npipelines = taut\n\n[action]\ntype = circle\nweights = 1, banana\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(bad)
    assert exc.value.line == 7

    with pytest.raises(ParseError) as exc:
        parse_scenario("stray line\n")
    assert exc.value.line == 1

    dup = MINIMAL.replace("kind = round", "kind = round\nkind = round")
    with pytest.raises(ParseError):
        parse_scenario(dup)


def test_unknown_keys_and_blocks_rejected():
    with pytest.raises(ParseError):
        parse_scenario(MINIMAL + "\n[mystery]\nfoo = 1\n")
    with pytest.raises(ParseError):
        parse_scenario(MINIMAL.replace("kind = round", "kind = round\nshine = yes"))


def test_unknown_pipeline_rejected():
    with pytest.raises(UnknownPipeline):
        parse_scenario(MINIMAL.replace("pipelines = taut", "pipelines = warp"))


def test_quotient_presentation_required():
    text = """
[scenario]
name = teardrop-like
pipelines = quotient
"""
    with pytest.raises(MissingSection, match="quotient presentation required"):
        parse_scenario(text)


def test_catalog_texts_all_parse():
    for name in ("football:2", "football:3", "football:4", "pillowcase", "torus7",
                 "t4-z2", "octahedron", "weighted-hopf:1:2", "weighted-hopf:2:3",
                 "rp2-antipodal", "quaternion-chart"):
        s = catalog_scenario(name)
        assert s.name == name


def test_catalog_unknown_entries():
    with pytest.raises(UnknownCatalogEntry):
        catalog_text("moebius")
    with pytest.raises(UnknownCatalogEntry):
        catalog_text("football:one")
    with pytest.raises(UnknownCatalogEntry):
        catalog_text("weighted-hopf:0:1")
    assert any(n.startswith("football") for n in CATALOG_NAMES)
