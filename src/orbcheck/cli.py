"""Command line interface.

Exit codes: 0 all checks pass, 1 a check fails, 2 usage or input error.
Machine output is line oriented and deterministic.
"""

from __future__ import annotations

import argparse
import math
import sys

from .catalog import CATALOG_NAMES, catalog_scenario
from .errors import OrbcheckError, ParseError
from .pipeline import run_pipeline
from .scenario import parse_scenario

EXPLANATIONS = {
    "atlas.unitary": "Linear parts of changes of charts are exactly unitary.",
    "atlas.containment": "Change images stay inside the target chart domain.",
    "atlas.witness": "Redundant changes over one overlap differ by a group element.",
    "seifert.free": (
        "The lifted action on frames has no fixed points off the identity. Decided once "
        "per chart and exact for every frame: g.xi = xi with xi invertible forces g = I, "
        "so the check is that the chart group's elements are distinct matrices."
    ),
    "seifert.equivariance": (
        "The lifted left action commutes with the right U(n) action on frames. Decided "
        "once per chart and exact for every frame and every A: g(xi A) = (g xi) A is "
        "associativity of exact matrix products, so the check is that every element is "
        "an n x n matrix over the chart's field."
    ),
    "seifert.well_defined": "Gluing output is independent of representative and change.",
    "seifert.cocycle": "Composite gluings satisfy f_ki = f_kj . f_ji on the sampled classes in the triple overlap.",
    "seifert.fiber": "Stabilizer order at the basepoint (Seifert fiber descriptor).",
    "taut.detM1": (
        "Rescaled Gram matrices of fundamental fields have determinant one. "
        "Local freeness is decided exactly first: det M0 = sum w_k^2 |z_k|^2 >= min w_k^2 "
        "on the unit sphere, so a zero weight fails, naming the fixed set. "
        "Once M0 > 0, det M1 = 1 is an identity of u0 = det(M0)^(-1/m): the float "
        "deviation on the samples measures rounding only. The load-bearing facts are "
        "exact local freeness and the invariance of M0 (taut.invariance)."
    ),
    "taut.orbit_volume": (
        "Orbit volumes in the rescaled metric equal 2*pi. Once M0 > 0 this is an "
        "identity (det M1 = 1 along the orbit), so the deviation measures rounding "
        "only; see taut.detM1 for the load-bearing facts."
    ),
    "taut.invariance": "u0 and M0 are constant along each sampled orbit.",
    "tk.closed": (
        "The transverse form is closed: d omega = 0 exactly. Checked on a chart-level "
        "local model (theta, x, y) that does not depend on the scenario."
    ),
    "tk.kernel": (
        "Vertical contractions of the transverse form vanish exactly. Checked on a "
        "chart-level local model (theta, x, y) that does not depend on the scenario."
    ),
    "tk.positive": (
        "omega(J.,.) is positive definite transversally at samples. Checked on a "
        "chart-level local model (theta, x, y) that does not depend on the scenario."
    ),
    "betti.full": "Rational Betti numbers of the covering complex.",
    "betti.inv": "Dimensions of the group-invariant cohomology.",
    "kahler.pairing": "Top cup power of the chosen class against the cycle.",
    "hlt": "Cup with omega^k maps invariant H^(n-k) isomorphically onto H^(n+k).",
    "pd": "The cup pairing to the fundamental class is nondegenerate.",
}


def _read_scenario(target: str):
    if target.startswith("catalog:"):
        return catalog_scenario(target.split(":", 1)[1])
    with open(target, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number of at least 0, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="orbcheck", description="Orbifold structure checks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file or catalog entry")
    run.add_argument("target", help="scenario file path, or catalog:<name>")
    run.add_argument("--format", choices=("human", "machine"), default="human")
    samples_help = "override the taut sample count; also sets the atlas and Seifert grid size (default 25)"
    run.add_argument("--samples", type=_positive_int, default=None, help=samples_help)
    run.add_argument("--tol", type=_tolerance, default=None, help="override numeric tolerance")

    sub.add_parser("list-catalog", help="list built-in scenarios")

    explain = sub.add_parser("explain", help="describe a check id")
    explain.add_argument("check", help="check id, e.g. seifert.cocycle")

    args = parser.parse_args(argv)

    if args.command == "list-catalog":
        for name in CATALOG_NAMES:
            print(name)
        return 0

    if args.command == "explain":
        key = args.check
        while key and key not in EXPLANATIONS:
            key = key.rsplit(".", 1)[0] if "." in key else ""
        if not key:
            print(f"unknown check id {args.check!r}", file=sys.stderr)
            return 2
        print(f"{key}: {EXPLANATIONS[key]}")
        return 0

    try:
        scenario = _read_scenario(args.target)
        report = run_pipeline(scenario, samples=args.samples, tol=args.tol)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError:
        print(f"no such scenario file: {args.target}", file=sys.stderr)
        return 2
    except OrbcheckError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out = report.to_machine() if args.format == "machine" else report.to_human()
    sys.stdout.write(out)
    return 0 if report.overall else 1


if __name__ == "__main__":
    sys.exit(main())
