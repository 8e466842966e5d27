"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1 --repeat 10 [--seconds S] [--out FILE]
    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--out FILE]

Runs ``run.py --trace 0`` ``--repeat`` times per seed, one run after
another.  One seed repeated gives the run-to-run noise of the
measurement alone; one run per seed adds the difference in work between
seeds.  It prints for each metric the median, the quartiles and the
spread: the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``).  With ``--out``
the runs and the summary are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    runs = []
    for seed in [s for s in _seeds(args.seeds) for _ in range(args.repeat)]:
        start = monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, run_s=monotonic() - start)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} run {result['run_s']:.1f} s", flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"  {name:16s} median {s['median']:.5g} {s['unit']}  "
              f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
