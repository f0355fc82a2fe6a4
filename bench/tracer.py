"""Spans around the public functions of each ``bimoment`` module.

The tracer patches functions from outside the package: every module-level
function is replaced in each ``bimoment`` namespace that holds it (so
``bimoment.cli.load_edge_list`` and ``bimoment.data.load_edge_list`` count
as one function), and methods are replaced on their class.  Spans
``(op, parent, name, layer, start, end)`` stay in memory until the run
writes them out.  ``uninstall`` puts every original back, so traced and
untraced operations can alternate in one process.
"""

from __future__ import annotations

import functools
import gzip
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# (layer, module, public functions).  ``inference.write_report`` is left
# unwrapped on purpose: report writing is counted in ``cli.self_s``.
FUNCTIONS = (
    ("data", "bimoment.data", ("load_edge_list", "load_attribute_table",
                               "filter_by_degree", "build_match_covariates", "degrees")),
    ("fitter", "bimoment.fitter", ("fit", "solve_degree_params", "profiled_residuals",
                                   "degree_residuals", "covariate_residuals",
                                   "build_jacobian", "profile_jacobian",
                                   "mixed_moment_derivative", "solve_structured")),
    ("inference", "bimoment.inference", ("approx_inverse", "node_standard_errors",
                                         "score_terms", "coefficient_covariance",
                                         "incidental_bias_expfam", "incidental_bias_general",
                                         "bias_corrected_coefficients",
                                         "coefficient_inference", "components_from_fit",
                                         "wald_from_components", "wald_test",
                                         "report_rows", "exact_inverse_apply")),
    ("simlab", "bimoment.simlab", ("run_replication", "generate_truth",
                                   "generate_covariates", "simulate_network")),
    ("cli", "bimoment.cli", ("main",)),
)
# (layer, module, class, span prefix, methods); a constructor's span is
# named by the prefix alone, a method's by ``prefix.method``.
METHODS = (
    ("fitter", "bimoment.fitter", "StructuredJacobian", "fitter.StructuredJacobian",
     ("__init__", "solve", "inverse_blocks")),
    ("fitter", "bimoment.fitter", "ParameterSet", "fitter", ("linear_predictor",)),
    ("families", "bimoment.families", "LogisticFamily", "families",
     ("mean", "mean_d1", "mean_d2", "variance")),
    ("families", "bimoment.families", "PoissonFamily", "families",
     ("mean", "mean_d1", "mean_d2", "variance")),
)
FAMILY_EVALS = ("mean", "mean_d1", "mean_d2", "variance")
GENERATORS = ("simlab.generate_truth", "simlab.generate_covariates",
              "simlab.simulate_network")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes") or metric.endswith("bytes_computed"):
        return "bytes"
    return "count"


class Tracer:
    """Collects spans and counts while installed; ``op`` tags each span
    with the operation it belongs to."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._patches = []
        self._factored = weakref.WeakSet()

    # -- patching -----------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "bimoment" or name.startswith("bimoment.")]
        for layer, module, names in FUNCTIONS:
            for name in names:
                original = getattr(sys.modules[module], name)
                wrapper = self._wrap(original, f"{layer}.{name}", layer)
                for ns in namespaces:
                    if ns.__dict__.get(name) is original:
                        self._patches.append((ns, name, original))
                        setattr(ns, name, wrapper)
        for layer, module, cls_name, prefix, names in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            for name in names:
                original = cls.__dict__[name]
                label = prefix if name == "__init__" else f"{prefix}.{name}"
                self._patches.append((cls, name, original))
                setattr(cls, name, self._wrap(original, label, layer))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _wrap(self, fn, name, layer):
        on_exit = _ON_EXIT.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[sid] = (tracer.op, parent, name, layer, start, end)
            if on_exit is not None:
                on_exit(tracer, args, result)
            return result

        return wrapper

    # -- output ---------------------------------------------------------
    def write(self, path, origin: float):
        """Write every span as a tab-separated row, times relative to
        ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tlayer\tstart_s\tend_s\n")
            for sid, (op, parent, name, layer, start, end) in enumerate(self.spans):
                fh.write(f"{sid}\t{op}\t{parent}\t{name}\t{layer}\t"
                         f"{start - origin:.9f}\t{end - origin:.9f}\n")

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation means of the per-layer metrics over ``n_ops``
        traced operations."""
        total = defaultdict(float)     # inclusive seconds per span name
        calls = Counter()              # calls per span name
        child = defaultdict(float)     # seconds covered by direct children
        for op, parent, name, layer, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for sid, (op, parent, name, layer, start, end) in enumerate(self.spans):
            self_time[layer] += (end - start) - child[sid]
        c = self.counts
        evals = [f"families.{e}" for e in FAMILY_EVALS]
        per_op = {
            "data.load_edge_list_s": total["data.load_edge_list"],
            "data.filter_covariates_s": total["data.filter_by_degree"]
            + total["data.load_attribute_table"] + total["data.build_match_covariates"],
            "data.degrees_calls": calls["data.degrees"],
            "fitter.fit_s": total["fitter.fit"],
            "fitter.self_s": self_time["fitter"],
            "fitter.outer_iterations": c["outer_iterations"],
            "fitter.inner_iterations": c["inner_iterations"],
            "fitter.inner_solves": calls["fitter.solve_degree_params"],
            "fitter.residual_evals": calls["fitter.degree_residuals"],
            "fitter.jacobians_built": calls["fitter.StructuredJacobian"],
            "fitter.jacobians_factored": c["jacobians_factored"],
            "fitter.structured_solve_s": total["fitter.StructuredJacobian.solve"],
            "fitter.profile_jacobian_calls": calls["fitter.profile_jacobian"],
            "fitter.profile_jacobian_s": total["fitter.profile_jacobian"],
            "fitter.linear_predictor_calls": calls["fitter.linear_predictor"],
            "families.evals": sum(calls[e] for e in evals),
            "families.eval_s": sum(total[e] for e in evals),
            "families.bytes_computed": c["family_bytes"],
            "inference.coefficient_inference_calls": calls["inference.coefficient_inference"],
            "inference.coefficient_inference_s": total["inference.coefficient_inference"],
            "inference.inverse_blocks_calls": calls["fitter.StructuredJacobian.inverse_blocks"],
            "inference.inverse_blocks_s": total["fitter.StructuredJacobian.inverse_blocks"],
            "inference.report_rows_s": total["inference.report_rows"],
            "inference.components_from_fit_s": total["inference.components_from_fit"],
            "inference.node_standard_errors_s": total["inference.node_standard_errors"],
            "inference.self_s": self_time["inference"],
            "simlab.run_replication_s": total["simlab.run_replication"],
            "simlab.generate_s": sum(total[g] for g in GENERATORS),
            "simlab.self_s": self_time["simlab"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_time["cli"],
            "cli.output_bytes": c["output_bytes"],
        }
        out = {name: value / n_ops for name, value in per_op.items()}
        edge_time = total["data.load_edge_list"]
        out["data.edges_per_s"] = c["edges_loaded"] / edge_time if edge_time else 0.0
        return out


def _count_fit(tracer, args, result):
    tracer.counts["outer_iterations"] += max(rec.outer_iteration for rec in result.trace)
    tracer.counts["inner_iterations"] += sum(rec.inner_iterations for rec in result.trace)


def _count_factored(tracer, args, result):
    jac = args[0]
    if jac not in tracer._factored:
        tracer._factored.add(jac)
        tracer.counts["jacobians_factored"] += 1


def _count_family_bytes(tracer, args, result):
    eta = args[1]
    tracer.counts["family_bytes"] += getattr(eta, "nbytes", 8) + getattr(result, "nbytes", 8)


def _count_edges(tracer, args, result):
    tracer.counts["edges_loaded"] += int((result.weights != 0).sum())


_ON_EXIT = {
    "fitter.fit": _count_fit,
    "fitter.StructuredJacobian.solve": _count_factored,
    "fitter.StructuredJacobian.inverse_blocks": _count_factored,
    "data.load_edge_list": _count_edges,
    **{f"families.{e}": _count_family_bytes for e in FAMILY_EVALS},
}
