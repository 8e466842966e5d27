"""The benchmark's Seifert, taut and quotient verdicts hold under pytest.

Every seifert-cyclo text at seeds 1-3, and every many-small text that
runs the Seifert suite, goes through ``run_pipeline`` and the
benchmark's own oracle, and so does every taut-hopf text and every
many-small text that runs the taut suite, and every quotient-t4 and
many-small text that runs the quotient suite.  A flipped verdict fails here
before it fails the benchmark's correctness gate.  golden/perfbench.digest
pins the bytes of every benchmark report at seeds 1-3, and running this
module as a script (with src/ on the path) rewrites it.  The generator
and the oracle are read as text and run in fresh module objects:
nothing under perfbench/ is imported from disk or written.
"""

import sys
import types
from functools import cache
from hashlib import sha256
from pathlib import Path

import pytest

from orbcheck.catalog import catalog_text
from orbcheck.pipeline import run_pipeline
from orbcheck.scenario import parse_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGEST = Path(__file__).resolve().parent / "golden" / "perfbench.digest"
SEEDS = (1, 2, 3)


def _load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


workloads = _load("workloads")
oracle = _load("oracle")


@cache
def _reports(workload: str, seed: int) -> list:
    """(item, scenario, machine report) for every text of the workload."""
    out = []
    for item in workloads.generate(workload, seed, catalog_text):
        scenario = parse_scenario(item.text)
        out.append((item, scenario, run_pipeline(scenario).to_machine()))
    return out


def _items(workload: str, seed: int, pipeline: str) -> list:
    return [r for r in _reports(workload, seed) if pipeline in r[1].pipelines]


def _wrong(items) -> dict:
    """The oracle's problems with each report that has any."""
    wrong = {}
    for item, _, machine in items:
        problems = oracle.check(item.name, machine, item.expect)
        if problems:
            wrong[item.name] = problems
    return wrong


def _digest() -> dict:
    """'<workload> <seed> <name>' -> the first 16 hex digits of the
    report's sha256, for every benchmark text at the pinned seeds."""
    return {
        f"{workload} {seed} {item.name}": sha256(machine.encode("utf-8")).hexdigest()[:16]
        for workload in workloads.WORKLOADS
        for seed in SEEDS
        for item, _, machine in _reports(workload, seed)
    }


@pytest.mark.parametrize("workload", ["seifert-cyclo", "many-small"])
@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_seifert_reports_pass_the_oracle(workload, seed):
    items = _items(workload, seed, "seifert")
    assert items
    assert _wrong(items) == {}


@pytest.mark.parametrize("workload", ["taut-hopf", "many-small"])
@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_taut_reports_pass_the_oracle(workload, seed):
    items = _items(workload, seed, "taut")
    assert items
    assert _wrong(items) == {}


@pytest.mark.parametrize("workload", ["quotient-t4", "many-small"])
@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_quotient_reports_pass_the_oracle(workload, seed):
    items = _items(workload, seed, "quotient")
    assert items
    assert _wrong(items) == {}


def test_benchmark_reports_keep_their_bytes():
    pinned = dict(line.rsplit(" ", 1) for line in DIGEST.read_text(encoding="utf-8").splitlines())
    now = _digest()
    moved = sorted(key for key in pinned.keys() | now.keys() if pinned.get(key) != now.get(key))
    assert moved == []


if __name__ == "__main__":
    DIGEST.write_text("".join(f"{key} {digest}\n" for key, digest in _digest().items()), encoding="utf-8")
