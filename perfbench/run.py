"""Benchmark for orbcheck: time to verdict on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  The seed generates the workload's
scenario texts (see workloads.py); orbcheck sees only those texts.
Every pass is a closed loop, one scenario after another, in a fresh
worker process, so no warm cache or memory peak carries over from
another pass or workload.  Every report is checked against the
expected verdicts of its construction (oracle.py).

``--trace 0`` runs passes until ``--seconds`` is used up (at least
two), and before each pass times ``setup_s`` in a few fresh
interpreters.  Other load on the shared host this was built on slows
every process by up to 2x, in spells from seconds to minutes, so a raw
time moves with the host more than with the program.  An untraced pass
therefore samples a fixed reference loop every few milliseconds
(``worker.reference``) and reports each scenario's time in units of the
loop's time during it.  ``wall_ref`` and ``scenario_max_ref`` are the
medians over passes of the sum and the largest of those ratios.  The
raw ``wall_s`` and ``scenario_max_s`` of the median pass are printed in
the summary.  ``setup_s`` is timed the same way, and converted to
seconds at a nominal reference-loop time of 1 ms.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of spans.py from the fastest traced pass.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUPS_PER_PASS = 3
# setup_s must read in seconds: set-up time in reference-loop times,
# times this nominal loop time (the loop takes about 0.75 ms on the
# unloaded 2.1 GHz Xeon this was built on)
REFERENCE_S = 1e-3
MIN_PASSES = 2
WORKER_TIMEOUT_S = 80

END_TO_END = {
    "wall_ref": "ref",
    "scenario_max_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _worker(mode: str, items_file: Path, spans_file=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(items_file)]
    if spans_file:
        cmd += ["--spans", str(spans_file)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran over {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _judge(items: list, result: dict) -> list:
    """(scenario, reasons) of every wrong or raising scenario in a pass."""
    wrong = []
    for item, report, error in zip(items, result["reports"], result["errors"]):
        reasons = [error] if error else oracle.check(item.name, report, item.expect)
        if reasons:
            wrong.append((item.name, reasons))
    return wrong


def _passes(items, items_file, seconds, start, kinds, setups=None) -> tuple:
    """Run passes, cycling through ``kinds`` ("plain"/"traced"), until
    every kind ran MIN_PASSES // len(kinds) times or more and the next
    pass would end past ``seconds``.  With a ``setups`` list, time
    SETUPS_PER_PASS fresh set-ups into it before each pass."""
    runs = {k: [] for k in kinds}
    last = {}
    wrong, attempted, i = [], 0, 0
    while True:
        kind = kinds[i % len(kinds)]
        enough = all(len(r) >= max(1, MIN_PASSES // len(kinds)) for r in runs.values())
        if enough and monotonic() - start + last.get(kind, 0.0) > seconds:
            break
        t0 = monotonic()
        if setups is not None:
            setups += [_worker("setup", items_file) for _ in range(SETUPS_PER_PASS)]
        spans_file = None
        if kind == "traced":
            spans_file = OUT / f"spans-{items_file.stem}-{len(runs[kind])}.jsonl"
        result = _worker("pass", items_file, spans_file)
        last[kind] = monotonic() - t0
        runs[kind].append(result)
        attempted += len(items)
        wrong += _judge(items, result)
        i += 1
    return runs, attempted, wrong


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from orbcheck.catalog import catalog_text

    start = monotonic()
    items = workloads.generate(workload, seed, catalog_text)
    OUT.mkdir(exist_ok=True)
    items_file = OUT / f"{workload}-seed{seed}.json"
    items_file.write_text(json.dumps([{"name": it.name, "text": it.text} for it in items]))

    if trace:
        runs, attempted, wrong = _passes(items, items_file, seconds, start, ("plain", "traced"))
        metrics, problems, shares = _layer_metrics(runs)
        setups, raw = [], {}
    else:
        _worker("setup", items_file)  # unmeasured: byte-compiles and warms the file cache
        setups = []
        runs, attempted, wrong = _passes(items, items_file, seconds, start, ("plain",), setups)
        plain = runs["plain"]
        values = {
            "wall_ref": statistics.median(sum(_in_ref(r)) for r in plain),
            "scenario_max_ref": statistics.median(max(_in_ref(r)) for r in plain),
            "setup_s": statistics.median(r["setup_s"] / r["ref_s"] for r in setups) * REFERENCE_S,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        raw = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "scenario_max_s": statistics.median(max(r["times"]) for r in plain),
            "reference_s": statistics.median(statistics.mean(r["refs"]) for r in plain),
            "setup_raw_s": statistics.median(r["setup_s"] for r in setups),
        }
        problems, shares = [], {}
    return {
        "workload": workload,
        "scenarios": len(items),
        "passes": {k: len(v) for k, v in runs.items()},
        "setup_reps": len(setups),
        "attempted": attempted,
        "wrong": wrong,
        "problems": problems,
        "metrics": metrics,
        "shares": shares,
        "raw": raw,
    }


def _in_ref(result: dict) -> list:
    """Each scenario's time over the reference loop's time during it."""
    return [t / ref for t, ref in zip(result["times"], result["refs"])]


def _layer_metrics(runs: dict) -> tuple:
    """Per-layer metrics of the fastest traced pass; counts must agree
    across all traced passes."""
    traced = runs["traced"]
    best = min(traced, key=lambda r: r["wall_s"])
    problems = []
    metrics = {}
    for name, (unit, how) in spans.METRICS.items():
        if how[0] == "overhead":
            value = (statistics.median(r["wall_s"] for r in traced)
                     / statistics.median(r["wall_s"] for r in runs["plain"]))
        else:
            value = best["layers"][name]
            seen = [r["layers"][name] for r in traced]
            if unit != "s" and any(v != value for v in seen):
                problems.append(f"{name} differs between traced passes: {seen}")
        metrics[name] = {"value": value, "unit": unit}
    layers = {p[0].split(".")[0] for p in spans.PROBES} | set(best["layer_self_s"])
    shares = {layer: best["layer_self_s"].get(layer, 0.0) / best["wall_s"] for layer in layers}
    return metrics, problems, shares


def _print_summary(res: dict):
    passes = ", ".join(f"{n} {k}" for k, n in res["passes"].items())
    print(f"== {res['workload']}: {res['scenarios']} scenarios, {passes} passes, "
          f"{res['setup_reps']} setup reps")
    for name, m in res["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    for name, value in res["raw"].items():
        print(f"  {name:45s} {value:.6g} s (raw median)")
    failed = len(res["wrong"])
    print(f"  {'error_rate':45s} {failed / res['attempted']:.6g} ratio "
          f"({failed} of {res['attempted']} scenarios wrong)")
    if res["shares"]:
        print("  self-time share of traced wall time, by layer:")
        for layer, share in sorted(res["shares"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:14s} {100 * share:5.1f} %")
    for name, reasons in res["wrong"][:10]:
        print(f"  WRONG {name}: {reasons}")
    for problem in res["problems"]:
        print(f"  PROBLEM {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "orbcheck" / "pipeline.py").is_file():
        print(f"orbcheck sources not found under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    try:
        results = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for res in results:
        _print_summary(res)
    failed = sum(len(r["wrong"]) for r in results)
    problems = sum(len(r["problems"]) for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps({
        "correct": failed == 0 and problems == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and problems == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
