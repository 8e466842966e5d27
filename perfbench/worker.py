"""One measured process of the benchmark.

    python3 perfbench/worker.py setup ITEMS
    python3 perfbench/worker.py pass ITEMS [--spans FILE]

ITEMS is a JSON list of {"name", "text"} scenario texts.  ``setup``
times, in this fresh interpreter, importing orbcheck and parsing every
text, and the host's speed during it.  ``pass`` feeds the texts one
after another through ``parse_scenario`` -> ``run_pipeline`` and
returns each machine-format report with its time and the host's speed
during it (see ``reference``); with ``--spans`` the pass is traced
instead and the spans are written to FILE when it ends.  The result is
one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_PERIOD_S = 0.02


def setup(texts: list) -> dict:
    # set-up lasts tens of milliseconds, so it samples the host faster
    samples = [reference()]
    _sample(samples, SAMPLE_PERIOD_S / 4)
    start = perf_counter()
    import orbcheck.pipeline  # noqa: F401  (what the CLI imports)
    from orbcheck.scenario import parse_scenario

    for text in texts:
        parse_scenario(text)
    elapsed = perf_counter() - start
    during = samples[1:]
    _sample(samples, 0)
    samples.append(reference())
    return {"setup_s": elapsed - sum(during), "ref_s": statistics.mean(samples)}


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop of dict updates,
    Fraction sums and float products, about a millisecond long.

    Other load on a shared host slows every process by up to 2x, in
    spells from seconds to minutes.  An untraced pass times this loop
    every SAMPLE_PERIOD_S from a timer signal, and each scenario's time
    is reported with the mean loop time during it: the host slows both
    alike, so their ratio measures the program and not the host.  A
    set-up is timed the same way."""
    t0 = perf_counter()
    d = {}
    acc, x = Fraction(0), 0.0
    for i in range(1, 300):
        d[i % 97] = d.get(i % 97, 0) + i * i
        acc += Fraction(i % 7, 3)
        v = 1.0
        for _ in range(i % 5):
            v *= 1.0001
        x += v
    return perf_counter() - t0


def _sample(samples: list, period: float):
    """Append a reference() time to ``samples`` every ``period`` seconds
    from a timer signal; a period of 0 stops the sampling."""
    signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(reference()))
    signal.setitimer(signal.ITIMER_REAL, period, period)


def run_pass(texts: list, spans_file) -> dict:
    import orbcheck.pipeline
    import orbcheck.scenario

    recorder = None
    samples = [reference()]
    if spans_file:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    else:
        _sample(samples, SAMPLE_PERIOD_S)

    def one(text):
        scenario = orbcheck.scenario.parse_scenario(text)
        return orbcheck.pipeline.run_pipeline(scenario).to_machine()

    if recorder:
        one = recorder.wrap("bench.scenario", one)

    reports, errors, times, refs = [], [], [], []
    for i, text in enumerate(texts):
        if recorder:
            recorder.scenario = i
        a = len(samples)
        t0 = perf_counter()
        try:
            reports.append(one(text))
            errors.append(None)
        except Exception as exc:  # a raising scenario is counted as wrong
            reports.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - t0
        during = samples[a:]
        # the sampler's own time is not the scenario's; a scenario shorter
        # than the sampling period takes the last samples before it
        times.append(elapsed - sum(during))
        refs.append(statistics.mean(during or samples[-5:]))
    _sample(samples, 0)
    out = {
        "wall_s": sum(times),
        "times": times,
        "refs": refs,
        "reports": reports,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder:
        out["layers"] = recorder.metrics()
        out["layer_self_s"] = recorder.layer_self_seconds()
        with open(spans_file, "w", encoding="utf-8") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("items")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    with open(args.items, encoding="utf-8") as fh:
        texts = [it["text"] for it in json.load(fh)]
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "setup":
        result = setup(texts)
    else:
        result = run_pass(texts, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
