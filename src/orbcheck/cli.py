"""Command line interface.

Exit codes: 0 all checks pass, 1 a check fails, 2 usage or input error.
Machine output is line oriented and deterministic.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import CATALOG_NAMES, catalog_scenario
from .errors import OrbcheckError, ParseError
from .pipeline import run_pipeline
from .scenario import parse_scenario

EXPLANATIONS = {
    "atlas.unitary": "Linear parts of changes of charts are exactly unitary.",
    "atlas.containment": (
        "Change images stay inside the target chart domain, exact for all points: U maps "
        "B(c, r) onto B(Uc + b, r), inside B(0, R) iff r <= R and |Uc + b|^2 <= (R - r)^2."
    ),
    "atlas.witness": (
        "Redundant changes over one overlap differ by a group element: with U unitary, gU = U' "
        "leaves one candidate g = U'U^H, kept when it lies in Gamma_j and g b = b'."
    ),
    "atlas.validate": "Every atlas.unitary, atlas.containment and atlas.witness check passes.",
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
    "seifert.well_defined": (
        "Gluing output is independent of representative and change, exact for all points: choice "
        "(g, phi) acts by x -> U_phi g x + b_phi on g^-1 B_phi, and no two choices of different "
        "target-group classes may meet: balls (the chart's too) pairwise |c - c'|^2 <= (r + r')^2, "
        "at least as strict as the exact region test."
    ),
    "seifert.cocycle": (
        "f_ki = f_kj . f_ji on the whole triple overlap, exact for all points: no direct choice meets "
        "a composite of another class (pairwise, at least as strict as the exact region test), some "
        "pair of one class has a common point among the centres and two-ball weighted points (which "
        "can miss an overlap of three balls), and an empty overlap (disjoint balls) fails."
    ),
    "seifert.fiber": "Stabilizer order at the basepoint (Seifert fiber descriptor).",
    "taut.detM1": (
        "Rescaled Gram matrices of fundamental fields have determinant one, exact for all "
        "points. Local freeness is decided first: det M0 = sum w_k^2 |z_k|^2 >= min w_k^2 on "
        "the unit sphere, so a zero weight fails, naming the fixed set. Once M0 > 0, "
        "det M1 = u0 M0 = 1 is an identity of u0 = 1/M0."
    ),
    "taut.orbit_volume": (
        "Orbit volumes in the rescaled metric equal 2*pi, exact for all points: the "
        "integrand (det M1)^(1/2) is 1 by the identity det M1 = u0 M0 = 1 once M0 > 0."
    ),
    "taut.invariance": (
        "u0 and M0 are constant along the orbits, exact for all points: X(M0) = "
        "sum_i X_i dM0/dx_i is the zero polynomial (X is a Killing field), and "
        "X(1/M0) = -X(M0)/M0^2. A FAIL prints the nonzero derivative."
    ),
    "tk.closed": (
        "The transverse form is closed: d omega = 0, exact for all points. Checked on a "
        "chart-level local model (theta, x, y) that does not depend on the scenario."
    ),
    "tk.kernel": (
        "Vertical contractions of the transverse form vanish, exact for all points. Checked "
        "on a chart-level local model (theta, x, y) that does not depend on the scenario."
    ),
    "tk.positive": (
        "omega(J.,.) is positive definite transversally: float, on three fixed fixture "
        "points of a chart-level local model (theta, x, y) that does not depend on the scenario."
    ),
    "quotient.action": (
        "Z/k acts through the powers of one vertex permutation, and the generator decides it: "
        "it is a permutation, its k-th power is the identity, and it maps every facet to a "
        "simplex (so every power maps every simplex onto a simplex)."
    ),
    "betti.full": "Rational Betti numbers of the covering complex.",
    "betti.inv": "Dimensions of the group-invariant cohomology.",
    "kahler.class": (
        "On each orbit of the connected components, some invariant degree-2 cocycle (the product-sum "
        "class first, when asked for) restricted to the orbit has a top cup power pairing nonzero with "
        "the cycle; omega sums those restrictions. A FAIL names the error, e.g. NoKahlerClass."
    ),
    "kahler.pairing": "Top cup power of the chosen class against the cycle.",
    "hlt": "Cup with omega^k maps invariant H^(n-k) isomorphically onto H^(n+k).",
    "pd.fundamental_cycle": (
        "The complex is an oriented pseudomanifold and the group keeps its orientation: it is pure, every "
        "ridge lies in two facets, the facet signs agree across every ridge, and the generator keeps the "
        "orientation on each orbit of the ridge-connected components."
    ),
    "pd": "The cup pairing to the fundamental class is nondegenerate.",
    "overall": "PASS when every check of the report passes.",
}


def _read_scenario(target: str):
    if target.startswith("catalog:"):
        return catalog_scenario(target.split(":", 1)[1])
    with open(target, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="orbcheck", description="Orbifold structure checks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file or catalog entry")
    run.add_argument("target", help="scenario file path, or catalog:<name>")
    run.add_argument("--format", choices=("human", "machine"), default="human")

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
        report = run_pipeline(scenario)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError:
        print(f"no such scenario file: {args.target}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read scenario file {args.target}: {exc.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"cannot read scenario file {args.target}: not UTF-8 at byte {exc.start}", file=sys.stderr)
        return 2
    except OrbcheckError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out = report.to_machine() if args.format == "machine" else report.to_human()
    sys.stdout.write(out)
    return 0 if report.overall else 1


if __name__ == "__main__":
    sys.exit(main())
