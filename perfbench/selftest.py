"""Self-tests of the benchmark itself (not of orbcheck).

    python3 perfbench/selftest.py

Run from the repository root; takes about half a minute.  Checks that
the generator is seeded, that the oracle counts corrupted reports as
wrong, that an untraced pass reports the reference loop's time for every
scenario, that traced counts repeat exactly and spans nest, and that the
benchmark refuses to run without the orbcheck sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from orbcheck.catalog import catalog_text  # noqa: E402
from orbcheck.pipeline import run_pipeline  # noqa: E402
from orbcheck.scenario import parse_scenario  # noqa: E402


def _texts(workload: str, seed: int) -> list:
    return [it.text for it in workloads.generate(workload, seed, catalog_text)]


def test_seed_changes_texts():
    for name in workloads.WORKLOADS:
        assert _texts(name, 1) == _texts(name, 1), f"{name}: seed 1 is not reproducible"
        assert _texts(name, 1) != _texts(name, 2), f"{name}: seeds 1 and 2 give the same texts"


def test_mirrored_order_reverses_under_negation():
    import random

    for n in (7, 9):
        order = workloads.mirrored_order(n, random.Random(n))
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[(-v) % n] == n - 1 - pos[v] for v in range(n))


def _report(item) -> str:
    return run_pipeline(parse_scenario(item.text)).to_machine()


def _item(workload: str, name: str):
    return next(it for it in workloads.generate(workload, 1, catalog_text) if it.name == name)


def test_oracle_accepts_true_reports():
    for workload, name in (("quotient-t4", "torus7"), ("quotient-t4", "rp2-antipodal"),
                           ("many-small", "football:2")):
        item = _item(workload, name)
        assert oracle.check(item.name, _report(item), item.expect) == [], name


def test_oracle_counts_corrupted_reports():
    torus = _item("quotient-t4", "torus7")
    football = _item("many-small", "football:2")
    rp2 = _item("quotient-t4", "rp2-antipodal")
    good = {it.name: _report(it) for it in (torus, football, rp2)}
    corruptions = {
        "flipped PASS": (football, "seifert.equivariance.A = PASS", "seifert.equivariance.A = FAIL"),
        "altered Betti string": (torus, "betti.full = 1,2,1", "betti.full = 1,3,1"),
        "dropped line": (torus, "hlt.k1 = ISO rank=1 dims=1x1\n", ""),
        "flipped expected FAIL": (rp2, "pd.fundamental_cycle = FAIL NonOrientable",
                                  "pd.fundamental_cycle = PASS"),
    }
    for label, (item, old, new) in corruptions.items():
        assert old in good[item.name], f"{label}: {old!r} is not in the report"
        bad = good[item.name].replace(old, new)
        assert oracle.check(item.name, bad, item.expect), f"{label} was not counted as wrong"


def test_judge_counts_raising_scenarios():
    item = _item("quotient-t4", "torus7")
    wrong = run._judge([item], {"reports": [None], "errors": ["ValueError: boom"]})
    assert wrong == [("torus7", ["ValueError: boom"])]


def test_untraced_pass_samples_the_reference_loop():
    items = workloads.generate("taut-hopf", 1, catalog_text)[:1]
    run.OUT.mkdir(exist_ok=True)
    items_file = run.OUT / "selftest-plain.json"
    items_file.write_text(json.dumps([{"name": it.name, "text": it.text} for it in items]))
    result = run._worker("pass", items_file)
    assert len(result["refs"]) == len(result["times"]) == 1
    # a scenario of about a second spans dozens of 20 ms samples of a
    # 1 ms loop, so its ratio is far above one
    ref, time = result["refs"][0], result["times"][0]
    assert 0 < ref < time / 20, (ref, time)


def test_traced_counts_repeat_and_spans_nest():
    items = workloads.generate("many-small", 3, catalog_text)
    run.OUT.mkdir(exist_ok=True)
    items_file = run.OUT / "selftest-items.json"
    items_file.write_text(json.dumps([{"name": it.name, "text": it.text} for it in items]))
    a = run._worker("pass", items_file, run.OUT / "selftest-a.jsonl")
    b = run._worker("pass", items_file, run.OUT / "selftest-b.jsonl")
    counts = [m for m, (unit, how) in spans.METRICS.items() if unit != "s" and how[0] != "overhead"]
    differ = [m for m in counts if a["layers"][m] != b["layers"][m]]
    assert not differ, f"counts differ between traced runs: {differ}"
    assert a["layers"]["scenario.parse_calls"] == len(items)

    recorded = [json.loads(line) for line in (run.OUT / "selftest-a.jsonl").open()]
    by_id = {s[0]: s for s in recorded}
    for span_id, parent, scenario, name, start, end in recorded:
        assert start <= end
        if parent is None:
            assert name == "bench.scenario", f"{name} has no parent span"
            continue
        p = by_id[parent]
        assert p[4] <= start and end <= p[5], f"{name} is not inside its parent {p[3]}"
        assert p[2] == scenario, "parent and child spans of different scenarios"


def test_refuses_to_run_without_sources():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "many-small", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok    {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
