"""The benchmark's Seifert, taut and quotient verdicts hold under pytest.

Every seifert-cyclo text at seeds 1-3, and every many-small text that
runs the Seifert suite, goes through ``run_pipeline`` and the
benchmark's own oracle, and so does every taut-hopf text and every
many-small text that runs the taut suite, and every quotient-t4 and
many-small text that runs the quotient suite.  A flipped verdict fails here
before it fails the benchmark's correctness gate.  The generator and the
oracle are read as text and run in fresh module objects: nothing under
perfbench/ is imported from disk or written.
"""

import sys
import types
from pathlib import Path

import pytest

from orbcheck.catalog import catalog_text
from orbcheck.pipeline import run_pipeline
from orbcheck.scenario import parse_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


workloads = _load("workloads")
oracle = _load("oracle")


def _items(workload: str, seed: int, pipeline: str) -> list:
    items = workloads.generate(workload, seed, catalog_text)
    return [(it, sc) for it in items if pipeline in (sc := parse_scenario(it.text)).pipelines]


def _wrong(items) -> dict:
    """The oracle's problems with each report that has any."""
    wrong = {}
    for item, scenario in items:
        problems = oracle.check(item.name, run_pipeline(scenario).to_machine(), item.expect)
        if problems:
            wrong[item.name] = problems
    return wrong


@pytest.mark.parametrize("workload", ["seifert-cyclo", "many-small"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_seifert_reports_pass_the_oracle(workload, seed):
    items = _items(workload, seed, "seifert")
    assert items
    assert _wrong(items) == {}


@pytest.mark.parametrize("workload", ["taut-hopf", "many-small"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_taut_reports_pass_the_oracle(workload, seed):
    items = _items(workload, seed, "taut")
    assert items
    assert _wrong(items) == {}


@pytest.mark.parametrize("workload", ["quotient-t4", "many-small"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_quotient_reports_pass_the_oracle(workload, seed):
    items = _items(workload, seed, "quotient")
    assert items
    assert _wrong(items) == {}
