from collections import Counter

import pytest

from orbcheck.catalog import catalog_scenario
from orbcheck.cyclotomic import CycMatrix
from orbcheck.errors import MissingSection, ParseError
from orbcheck.pipeline import Report, build_atlas, build_quotient, run_pipeline
from orbcheck.scenario import parse_scenario
from orbcheck.verdict import Verdict


def test_report_formats():
    r = Report("demo")
    r.check("alpha", Verdict(True, "fine"))
    r.info("beta", "42")
    r.check("gamma", Verdict(False))
    machine = r.to_machine()
    assert machine.splitlines() == [
        "[report demo]",
        "alpha = PASS fine",
        "beta = 42",
        "gamma = FAIL",
        "overall = FAIL",
    ]
    human = r.to_human()
    assert "[ok] alpha" in human and "[!!] gamma" in human
    assert not r.overall


def test_overall_ignores_informational_lines():
    r = Report("demo")
    r.info("only", "info")
    assert r.overall  # vacuous pass


def test_taut_rejects_torus_type():
    text = """
[scenario]
name = torus-metric
pipelines = taut

[action]
type = torus
weights = 1, 1

[metric]
kind = round
"""
    with pytest.raises(ParseError, match="line 7: taut pipeline currently handles circle actions"):
        run_pipeline(parse_scenario(text))


@pytest.mark.parametrize("name, changes", [("football:3", 4), ("quaternion-chart", 2)])
def test_seifert_suite_decides_unitarity_once_per_change(monkeypatch, name, changes):
    # both scenarios run the atlas and the Seifert pipelines, which read
    # one verdict per change; the generators are decided at group closure
    scenario = catalog_scenario(name)
    assert {"atlas", "seifert"} <= set(scenario.pipelines)
    generators = sum(len(c.generators) for c in scenario.charts)
    declared = [c.linear for c in build_atlas(scenario).changes]
    assert len(declared) == changes
    calls = []
    is_unitary = CycMatrix.is_unitary

    def counted(self):
        calls.append(self)
        return is_unitary(self)

    monkeypatch.setattr(CycMatrix, "is_unitary", counted)
    report = run_pipeline(scenario)
    assert report.overall
    assert len(calls) == generators + changes
    assert Counter(calls[generators:]) == Counter(declared)


def test_rp2_skips_hlt_after_orientation_failure():
    report = run_pipeline(catalog_scenario("rp2-antipodal"))
    keys = [e.key for e in report.entries]
    assert "pd.fundamental_cycle" in keys
    assert not any(k.startswith("hlt.") for k in keys)
    assert not any(k.startswith("pd.p") for k in keys)


def test_build_quotient_validates_product_factors():
    text = """
[scenario]
name = broken-product
pipelines = quotient

[complex P]
product = A * B

[action I]
group = trivial

[quotient]
complex = P
action = I
complex_dim_n = 1
"""
    with pytest.raises(MissingSection):
        build_quotient(parse_scenario(text))
