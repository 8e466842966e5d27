"""Span recorder that wraps orbcheck's public functions from outside.

``install()`` patches each probed function or method wherever callers
look it up: every ``orbcheck.*`` module global bound to the original
(``cohomology`` imports ``reduce_against`` by name, for example) and
every alias in the owning class (``__rmul__ = __mul__``).  Nothing under
``src/`` changes.  Patching is permanent for the process, so a traced
pass runs in its own worker process.

Span probes record (id, parent, scenario, name, start, end) in memory.
Hot probes (per-element calls such as ``CyclotomicNumber.__mul__``)
record only a count and their self time.  Self time is a call's duration
minus the union of its children's intervals; on one thread the children
of a call run one after another, so that union is the sum of their
durations, kept on the call stack as the children return.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

SPAN, HOT = "span", "hot"


def _irrational_arg(args) -> bool:
    return not args[0].is_rational()


def _group_order(args, result) -> int:
    return result.order


def _column_count(args, result) -> int:
    return len(args[0])


def _echelon_rank(args, result) -> int:
    return result[1]


def _kernel_rank(args, result) -> int:
    return result


def _simplex_count(args, result) -> int:
    return sum(len(s) for s in args[0].simplices.values())


# (probe, module, attribute path, mode, extras).  Several attributes may
# feed one probe; their calls and times add up.  ``extras`` maps a value
# name to a function of (args, result) whose results are summed, or, for
# the ``"when"`` key, a predicate on args counted as ``<probe>.when``.
PROBES = [
    ("pipeline.build_atlas", "pipeline", "build_atlas", SPAN, {}),
    ("pipeline.atlas", "pipeline", "run_atlas_pipeline", SPAN, {}),
    ("pipeline.seifert", "pipeline", "run_seifert_pipeline", SPAN, {}),
    ("pipeline.taut", "pipeline", "run_taut_pipeline", SPAN, {}),
    ("pipeline.build_quotient", "pipeline", "build_quotient", SPAN, {}),
    ("pipeline.seed_product_bases", "pipeline", "seed_product_bases", SPAN, {}),
    ("pipeline.quotient", "pipeline", "run_quotient_pipeline", SPAN, {}),
    ("scenario.parse", "scenario", "parse_scenario", SPAN, {}),
    ("cyclotomic.num_mul", "cyclotomic", "CyclotomicNumber.__mul__", HOT, {}),
    ("cyclotomic.matmul", "cyclotomic", "CycMatrix.__matmul__", SPAN, {}),
    ("cyclotomic.apply", "cyclotomic", "CycMatrix.apply", HOT, {}),
    ("cyclotomic.compare_real", "cyclotomic", "compare_real", HOT, {"when": _irrational_arg}),
    ("atlas.group_closure", "atlas", "group_closure", SPAN, {"atlas.group_order": _group_order}),
    ("atlas.trivial_group", "atlas", "FiniteMatrixGroup.trivial", SPAN, {"atlas.group_order": _group_order}),
    ("atlas.validate", "atlas", "validate_atlas", SPAN, {}),
    ("atlas.ball_contains", "atlas", "Ball.contains", HOT, {}),
    ("atlas.equivalent_changes", "atlas", "equivalent_changes", SPAN, {}),
    ("frame_bundle.free", "frame_bundle", "check_lifted_action_free", SPAN, {}),
    ("frame_bundle.equivariance", "frame_bundle", "check_equivariance", SPAN, {}),
    ("frame_bundle.well_defined", "frame_bundle", "gluing_well_defined", SPAN, {}),
    ("frame_bundle.cocycle", "frame_bundle", "cocycle_check", SPAN, {}),
    ("frame_bundle.same_class", "frame_bundle", "FrameClass.same_class", HOT, {}),
    ("frame_bundle.lift", "frame_bundle", "lift_group_action", HOT, {}),
    ("linalg.reduce", "linalg", "reduce_against", HOT, {}),
    ("linalg.build_echelon", "linalg", "build_echelon", SPAN,
     {"linalg.echelon_cols": _column_count, "linalg.rank_sum": _echelon_rank}),
    ("linalg.kernel_search", "linalg", "kernel_search", SPAN, {"linalg.rank_sum": _kernel_rank}),
    ("linalg.dense", "linalg", "dense_rank", SPAN, {}),
    ("linalg.dense", "linalg", "dense_det", SPAN, {}),
    ("linalg.dense", "linalg", "dense_solve", SPAN, {}),
    ("simplicial.complex_build", "simplicial", "SimplicialComplex.__init__", SPAN,
     {"simplicial.simplices": _simplex_count}),
    ("simplicial.product_complex", "simplicial", "product_complex", SPAN, {}),
    ("simplicial.pullback", "simplicial", "SimplicialGroupAction.pullback_cochain", SPAN, {}),
    ("simplicial.pullback", "simplicial", "ProductComplex._pullback", SPAN, {}),
    ("simplicial.map_simplex", "simplicial", "SimplicialGroupAction.map_simplex", HOT, {}),
    ("simplicial.verify_action", "simplicial", "verify_action", SPAN, {}),
    ("simplicial.fundamental_cycle", "simplicial", "fundamental_cycle", SPAN, {}),
    ("cohomology.complex_init", "cohomology", "CochainComplexQ.__init__", SPAN, {}),
    ("cohomology.betti", "cohomology", "CochainComplexQ.betti", SPAN, {}),
    ("cohomology.basis", "cohomology", "CochainComplexQ.cohomology_basis", SPAN, {}),
    ("cohomology.coords", "cohomology", "CochainComplexQ.coords", SPAN, {}),
    ("cohomology.invariant", "cohomology", "InvariantCohomology.degree", SPAN, {}),
    ("cohomology.cup", "cohomology", "cup_product", SPAN, {}),
    ("cohomology.kahler", "cohomology", "kahler_class", SPAN, {}),
    ("cohomology.lefschetz", "cohomology", "lefschetz_verify", SPAN, {}),
    ("cohomology.pd", "cohomology", "poincare_duality_verify", SPAN, {}),
    ("polyform.poly_eval", "polyform", "Polynomial.evaluate", HOT, {}),
    ("polyform.field_eval", "polyform", "PolyVectorField.evaluate", HOT, {}),
    ("polyform.form_ops", "polyform", "PolyForm.wedge", SPAN, {}),
    ("polyform.form_ops", "polyform", "PolyForm.exterior_derivative", SPAN, {}),
    ("polyform.form_ops", "polyform", "PolyForm.contract", SPAN, {}),
    ("polyform.form_ops", "polyform", "PolyForm.evaluate_two_form", SPAN, {}),
    ("foliated.gram", "foliated", "gram_matrix", HOT, {}),
    ("foliated.rescaled_gram", "foliated", "rescaled_gram", SPAN, {}),
    ("foliated.orbit_volume", "foliated", "orbit_volume", SPAN, {}),
    ("foliated.invariance", "foliated", "orbit_invariance_check", SPAN, {}),
    ("foliated.tk", "foliated", "transverse_kahler_check", SPAN, {}),
]

# per-layer metric -> (unit, how it is computed from the probes)
#   ("calls", probe)       number of calls
#   ("incl", probe)        union of the probe's span intervals, seconds
#   ("self", probe)        summed self time, seconds
#   ("value", name)        summed extra value
#   ("ratio", num, den)    quotient of two extra values
#   ("overhead",)          filled in by the caller from untraced passes
METRICS = {
    "pipeline.build_atlas_s": ("s", ("incl", "pipeline.build_atlas")),
    "pipeline.atlas_s": ("s", ("incl", "pipeline.atlas")),
    "pipeline.seifert_s": ("s", ("incl", "pipeline.seifert")),
    "pipeline.taut_s": ("s", ("incl", "pipeline.taut")),
    "pipeline.build_quotient_s": ("s", ("incl", "pipeline.build_quotient")),
    "pipeline.seed_product_bases_s": ("s", ("incl", "pipeline.seed_product_bases")),
    "pipeline.quotient_s": ("s", ("incl", "pipeline.quotient")),
    "scenario.parse_calls": ("count", ("calls", "scenario.parse")),
    "scenario.parse_s": ("s", ("incl", "scenario.parse")),
    "cyclotomic.num_mul_calls": ("count", ("calls", "cyclotomic.num_mul")),
    "cyclotomic.num_mul_self_s": ("s", ("self", "cyclotomic.num_mul")),
    "cyclotomic.matmul_calls": ("count", ("calls", "cyclotomic.matmul")),
    "cyclotomic.matmul_self_s": ("s", ("self", "cyclotomic.matmul")),
    "cyclotomic.apply_calls": ("count", ("calls", "cyclotomic.apply")),
    "cyclotomic.compare_real_calls": ("count", ("calls", "cyclotomic.compare_real")),
    "cyclotomic.compare_real_irrational_calls": ("count", ("value", "cyclotomic.compare_real.when")),
    "atlas.group_closure_s": ("s", ("incl", "atlas.group_closure")),
    "atlas.group_order_n": ("count", ("value", "atlas.group_order")),
    "atlas.validate_s": ("s", ("incl", "atlas.validate")),
    "atlas.ball_contains_calls": ("count", ("calls", "atlas.ball_contains")),
    "atlas.equivalent_changes_s": ("s", ("incl", "atlas.equivalent_changes")),
    "frame_bundle.free_s": ("s", ("incl", "frame_bundle.free")),
    "frame_bundle.equivariance_calls": ("count", ("calls", "frame_bundle.equivariance")),
    "frame_bundle.equivariance_s": ("s", ("incl", "frame_bundle.equivariance")),
    "frame_bundle.well_defined_s": ("s", ("incl", "frame_bundle.well_defined")),
    "frame_bundle.cocycle_s": ("s", ("incl", "frame_bundle.cocycle")),
    "frame_bundle.same_class_calls": ("count", ("calls", "frame_bundle.same_class")),
    "frame_bundle.lift_calls": ("count", ("calls", "frame_bundle.lift")),
    "frame_bundle.lifts_per_same_class": (
        "ratio", ("ratio", "frame_bundle.same_class_lifts", "frame_bundle.same_class_matched")),
    "linalg.reduce_calls": ("count", ("calls", "linalg.reduce")),
    "linalg.reduce_self_s": ("s", ("self", "linalg.reduce")),
    "linalg.build_echelon_s": ("s", ("incl", "linalg.build_echelon")),
    "linalg.echelon_cols_n": ("count", ("value", "linalg.echelon_cols")),
    "linalg.rank_sum_n": ("count", ("value", "linalg.rank_sum")),
    "linalg.kernel_search_s": ("s", ("incl", "linalg.kernel_search")),
    "linalg.dense_calls": ("count", ("calls", "linalg.dense")),
    "linalg.dense_s": ("s", ("incl", "linalg.dense")),
    "simplicial.complex_build_s": ("s", ("incl", "simplicial.complex_build")),
    "simplicial.simplices_n": ("count", ("value", "simplicial.simplices")),
    "simplicial.product_complex_s": ("s", ("incl", "simplicial.product_complex")),
    "simplicial.pullback_calls": ("count", ("calls", "simplicial.pullback")),
    "simplicial.pullback_self_s": ("s", ("self", "simplicial.pullback")),
    "simplicial.map_simplex_calls": ("count", ("calls", "simplicial.map_simplex")),
    "simplicial.verify_action_s": ("s", ("incl", "simplicial.verify_action")),
    "simplicial.fundamental_cycle_s": ("s", ("incl", "simplicial.fundamental_cycle")),
    "cohomology.complex_init_s": ("s", ("incl", "cohomology.complex_init")),
    "cohomology.betti_s": ("s", ("incl", "cohomology.betti")),
    "cohomology.basis_s": ("s", ("incl", "cohomology.basis")),
    "cohomology.coords_calls": ("count", ("calls", "cohomology.coords")),
    "cohomology.invariant_s": ("s", ("incl", "cohomology.invariant")),
    "cohomology.cup_calls": ("count", ("calls", "cohomology.cup")),
    "cohomology.cup_self_s": ("s", ("self", "cohomology.cup")),
    "cohomology.kahler_s": ("s", ("incl", "cohomology.kahler")),
    "cohomology.lefschetz_s": ("s", ("incl", "cohomology.lefschetz")),
    "cohomology.pd_s": ("s", ("incl", "cohomology.pd")),
    "polyform.poly_eval_calls": ("count", ("calls", "polyform.poly_eval")),
    "polyform.poly_eval_self_s": ("s", ("self", "polyform.poly_eval")),
    "polyform.field_eval_calls": ("count", ("calls", "polyform.field_eval")),
    "polyform.form_ops_s": ("s", ("incl", "polyform.form_ops")),
    "foliated.gram_calls": ("count", ("calls", "foliated.gram")),
    "foliated.gram_self_s": ("s", ("self", "foliated.gram")),
    "foliated.rescaled_gram_s": ("s", ("incl", "foliated.rescaled_gram")),
    "foliated.orbit_volume_s": ("s", ("incl", "foliated.orbit_volume")),
    "foliated.invariance_s": ("s", ("incl", "foliated.invariance")),
    "foliated.tk_s": ("s", ("incl", "foliated.tk")),
    "trace.overhead_ratio": ("ratio", ("overhead",)),
}


class Recorder:
    """In-memory spans, call counts, self times and summed values."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, scenario, name, start, end)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.values: Counter = Counter()
        self.scenario = None
        self._stack: list[list] = []  # [child seconds, span id to parent under]
        self._next_id = 1

    def _wrap(self, probe: str, fn, mode: str, extras: dict):
        stack, calls, self_s, values = self._stack, self.calls, self.self_s, self.values
        record = mode == SPAN
        when = extras.get("when")
        sums = [(k, f) for k, f in extras.items() if k != "when"]
        # the waste ratio needs the lifts made inside each matching same_class call
        same_class = probe == "frame_bundle.same_class"

        def wrapper(*args, **kwargs):
            if record:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = None
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id if record else parent]
            stack.append(frame)
            if when is not None and when(args):
                values[probe + ".when"] += 1
            lifts = calls["frame_bundle.lift"] if same_class else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                calls[probe] += 1
                self_s[probe] += dur - frame[0]
                if record:
                    self.spans.append((span_id, parent, self.scenario, probe, start, end))
            for key, f in sums:
                values[key] += f(args, result)
            if same_class and result is not None:
                values["frame_bundle.same_class_lifts"] += calls["frame_bundle.lift"] - lifts
                values["frame_bundle.same_class_matched"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, name: str, fn):
        """A span probe around a function of the benchmark's own."""
        return self._wrap(name, fn, SPAN, {})

    def install(self):
        """Patch every probe wherever orbcheck looks it up."""
        mods = {
            name: importlib.import_module(f"orbcheck.{name}")
            for name in sorted({p[1] for p in PROBES})
        }
        loaded = [m for n, m in list(sys.modules.items()) if n.startswith("orbcheck")]
        for probe, mod, path, mode, extras in PROBES:
            owner = mods[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                raw = owner.__dict__[attr]
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                wrapped = self._wrap(probe, fn, mode, extras)
                wrapped = kind(wrapped) if kind else wrapped
                for name, value in list(owner.__dict__.items()):
                    if value is raw:
                        setattr(owner, name, wrapped)
            else:
                fn = getattr(owner, attr)
                wrapped = self._wrap(probe, fn, mode, extras)
                for m in loaded:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, name, wrapped)

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        incl = _inclusive(self.spans)
        out = {}
        for metric, (_, how) in METRICS.items():
            kind = how[0]
            if kind == "calls":
                out[metric] = self.calls[how[1]]
            elif kind == "incl":
                out[metric] = incl.get(how[1], 0.0)
            elif kind == "self":
                out[metric] = self.self_s[how[1]]
            elif kind == "value":
                out[metric] = self.values[how[1]]
            elif kind == "ratio":
                den = self.values[how[2]]
                out[metric] = self.values[how[1]] / den if den else 0.0
        return out

    def layer_self_seconds(self) -> dict:
        """Self time per layer (module), from every probe."""
        out = Counter()
        for probe, secs in self.self_s.items():
            out[probe.split(".", 1)[0]] += secs
        return dict(out)


def _inclusive(spans) -> dict:
    """Union of interval lengths per probe name (nested calls count once)."""
    by_name: dict[str, list] = {}
    for _, _, _, name, start, end in spans:
        by_name.setdefault(name, []).append((start, end))
    out = {}
    for name, ivs in by_name.items():
        ivs.sort()
        total, cur_s, cur_e = 0.0, None, None
        for s, e in ivs:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        total += cur_e - cur_s
        out[name] = total
    return out
