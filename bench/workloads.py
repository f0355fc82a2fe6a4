"""The three benchmark workloads.

Each workload is a closed loop (one caller, one operation at a time) and
provides:

* ``generate(k)``  builds its inputs from the benchmark seed (repeatable,
  timed as part of set-up);
* ``warm_up()``    one call on a small fixed input, so lazy first-call
  work lands in set-up rather than in an operation;
* ``round()``      the operations of one round, as ``(op, check)`` pairs:
  ``op()`` is timed, ``check(result)`` is not and returns ``True`` when the
  result is correct;
* ``verify()``     the independent correctness checks and their self-test,
  run once after the timed phase; returns failure messages.

Package functions are always looked up through their module at call time
(``fitter.fit``, never a name imported from it), so the tracer's patches
are seen.
"""

from __future__ import annotations

import filecmp
import json
import shutil
from pathlib import Path

import numpy as np

import checks
import inputs
from bimoment import cli, data, families, fitter, inference, simlab


class Workload:
    name = ""
    tracer = None   # set by the runner around traced rounds

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.root, self.seed, self.work_dir = root, seed, work_dir


class CliFitRatings(Workload):
    """``bimoment fit`` in-process on a 700 x 760 ratings-style data set."""

    name = "cli_fit_ratings"

    def generate(self, k):
        self.data = inputs.make_ratings(self.work_dir / f"inputs{k}", self.seed)
        self.ops = 0
        self.reference = None

    def _argv(self, src, min_degree, out):
        return ["fit", str(src.edges), "--actor-attrs", str(src.actor_attrs),
                "--event-attrs", str(src.event_attrs), "--mapping", str(src.mapping),
                "--min-degree", str(min_degree), "--method", "fisher",
                "--bias-correct", "--out-dir", str(out)]

    def warm_up(self):
        small = inputs.make_ratings(self.work_dir / "warm", seed=0, m=150, n=160, n_planted=2)
        rc = cli.main(self._argv(small, 10, self.work_dir / "warm" / "out"))
        if rc != 0:
            raise RuntimeError(f"warm-up fit exited with code {rc}")

    def round(self):
        out = self.work_dir / "out" / f"op{self.ops}"
        self.ops += 1
        argv = self._argv(self.data, inputs.RATINGS_MIN_DEGREE, out)
        return [(lambda: (cli.main(argv), out), self._check)]

    def _check(self, result):
        rc, out = result
        if self.tracer is not None:
            self.tracer.counts["output_bytes"] += sum(
                f.stat().st_size for f in out.iterdir())
        if rc != 0:
            return False
        if self.reference is None:
            self.reference = out     # verified in full by verify()
            return True
        # the fit is deterministic: every run must reproduce the first
        same = all(filecmp.cmp(self.reference / f, out / f, shallow=False)
                   for f in ("report.tsv", "fit.json", "trace.tsv"))
        shutil.rmtree(out)
        return same

    def verify(self):
        src, out = self.data, self.reference
        if out is None:
            return ["no operation succeeded"]
        sidecar = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        rows = {}
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        for line in lines[2:]:
            name, label, est, se = line.split("\t")[:4]
            rows[name] = (label, float(est), float(se))
        actors, events = sidecar["actor_labels"], sidecar["event_labels"]
        m, n = len(actors), len(events)
        failures = []

        # the degree filter removes exactly the planted nodes
        kept_a = [u for u, d in zip(src.users, src.weights.sum(axis=1))
                  if d > inputs.RATINGS_MIN_DEGREE]
        kept_e = [f for f, d in zip(src.movies, src.weights.sum(axis=0))
                  if d > inputs.RATINGS_MIN_DEGREE]
        if set(kept_a) != set(src.users) - src.planted_actors or \
                set(kept_e) != set(src.movies) - src.planted_events:
            failures.append("input: planted nodes are not exactly the low-degree nodes")
        if set(actors) != set(kept_a) or set(events) != set(kept_e):
            failures.append(f"degree filter kept {m} x {n} nodes, expected "
                            f"{len(kept_a)} x {len(kept_e)} (all but the planted ones)")
            return failures

        a_pos = {u: i for i, u in enumerate(src.users)}
        e_pos = {f: j for j, f in enumerate(src.movies)}
        ai = np.array([a_pos[u] for u in actors])
        ej = np.array([e_pos[f] for f in events])
        x = src.weights[np.ix_(ai, ej)]
        z = inputs.match_covariates(src.sex[ai], src.age[ai], src.genre[ej])
        alpha, beta = np.array(sidecar["alpha"]), np.array(sidecar["beta"])
        gamma = np.array(sidecar["gamma"])

        names_a = [f"alpha:{i + 1}" for i in range(m)]
        names_b = [f"beta:{j + 1}" for j in range(n - 1)]
        names_g = [f"gamma:{k + 1}" for k in range(gamma.size)]
        names_bc = [f"gamma_bc:{k + 1}" for k in range(gamma.size)]
        if [rows[k][0] for k in names_a] != actors or \
                [rows[k][0] for k in names_b] != events[:-1]:
            failures.append("report.tsv labels do not match fit.json")

        def est(names):
            return np.array([rows[k][1] for k in names])

        def se(names):
            return np.array([rows[k][2] for k in names])

        failures += checks.check_close("report.tsv estimates vs fit.json",
                                       np.concatenate([est(names_a), est(names_b), est(names_g)]),
                                       np.concatenate([alpha, beta[:-1], gamma]),
                                       checks.REPORT_RTOL, atol=1e-12)
        ref = checks.DenseReference(z, alpha, beta, gamma)
        args = (x, z, alpha, beta, gamma, se(names_g), est(names_bc), src.gamma)
        kwargs = dict(ref=ref, alpha_se=se(names_a), beta_se=se(names_b))
        return failures + checks.check_estimate(*args, **kwargs) + checks.self_test(*args, **kwargs)


class SimulateReplications(Workload):
    """``simlab.run_replication`` over consecutive replication indices."""

    name = "simulate_100x100"
    scenario_file = Path("scenarios") / "logistic_100x100_L0.json"

    def generate(self, k):
        raw = json.loads((self.root / self.scenario_file).read_text(encoding="utf-8"))
        raw["seed"] = self.seed
        self.scenario = simlab.Scenario.from_dict(raw)
        self.records = []
        self.next_rep = 0

    def warm_up(self):
        self.first_record = simlab.run_replication(self.scenario, 0)

    def round(self):
        rep = self.next_rep
        self.next_rep += 1
        return [(lambda: simlab.run_replication(self.scenario, rep), self._check)]

    def _check(self, record):
        self.records.append(record)
        return record.converged

    def verify(self):
        sc, records = self.scenario, self.records
        good = [rec for rec in records if rec.converged]
        failures = []
        if len(good) < len(records):
            failures.append(f"{len(records) - len(good)} of {len(records)} replications "
                            "did not converge")
        if not good:
            return failures + ["no replication converged"]
        # Bias correction restores nominal coverage; the uncorrected interval
        # is shifted by the incidental-parameter bias, so it may only fall short.
        low, high = checks.binomial_band(0.95, len(good))
        for k in range(1, len(sc.gamma_star) + 1):
            bc = np.mean([rec.ci_hits[f"gamma_bc:{k}"] for rec in good])
            raw = np.mean([rec.ci_hits[f"gamma:{k}"] for rec in good])
            if not low <= bc <= high:
                failures.append(f"gamma_bc:{k} coverage {bc:.3f} outside [{low:.3f}, {high:.3f}]")
            if raw > high:
                failures.append(f"gamma:{k} coverage {raw:.3f} above {high:.3f}")
        for rec in good:
            for k in range(1, len(sc.gamma_star) + 1):
                hit = rec.abs_errors[f"gamma:{k}"] <= rec.ci_lengths[f"gamma:{k}"] / 2.0
                if hit != rec.ci_hits[f"gamma:{k}"]:
                    failures.append(f"replication {rec.replication}: gamma:{k} hit "
                                    "disagrees with its error and interval length")
        again = simlab.run_replication(sc, 0)
        if not (again == records[0] == self.first_record):
            failures.append("replication 0 does not reproduce its record")
        return failures + self._verify_instance()

    def _verify_instance(self):
        """Fit one graph of the scenario's shape, drawn by the benchmark, the
        way a replication does, and check the estimate independently."""
        sc = self.scenario
        rng = np.random.default_rng([self.seed, 3])
        z = inputs.sign_product_covariates(sc.m, sc.n, rng)
        truth = np.array(sc.gamma_star)
        alpha = (sc.m - 1.0 - np.arange(sc.m)) * sc.L / (sc.m - 1.0)
        beta = (sc.n - 1.0 - np.arange(sc.n)) * sc.L / (sc.n - 1.0)
        eta = alpha[:, None] + beta[None, :]
        x = (rng.random((sc.m, sc.n)) < checks.logistic(eta + z @ truth)).astype(float)
        result = fitter.fit(_graph(x), data.CovariateTensor(z, bound=1.0),
                            families.get_family(sc.family))
        node = inference.node_standard_errors(result)
        coef = inference.coefficient_inference(result)
        p = result.params
        args = (x, z, p.alpha, p.beta, p.gamma, coef.standard_errors, coef.estimate_bc, truth)
        kwargs = dict(ref=checks.DenseReference(z, p.alpha, p.beta, p.gamma),
                      alpha_se=node.alpha, beta_se=node.beta)
        return checks.check_estimate(*args, **kwargs) + checks.self_test(*args, **kwargs)


class FitWide(Workload):
    """Library ``fit`` + ``coefficient_inference`` at (m, n) = (100, 1500)."""

    name = "fit_wide_100x1500"
    graphs_per_round = 2

    def generate(self, k):
        raw = inputs.make_wide_graphs(self.seed, self.graphs_per_round)
        self.graphs = [(x, z, _graph(x), data.CovariateTensor(z, bound=1.0)) for x, z in raw]
        self.family = families.get_family("logistic")
        self.reference = [None] * len(self.graphs)

    def warm_up(self):
        (x, z), = inputs.make_wide_graphs(0, 1, m=20, n=300)
        result = fitter.fit(_graph(x), data.CovariateTensor(z, bound=1.0), self.family)
        inference.coefficient_inference(result)

    def round(self):
        return [(lambda g=g: self._op(g), lambda res, g=g: self._check(g, res))
                for g in range(len(self.graphs))]

    def _op(self, g):
        _, _, graph, cov = self.graphs[g]
        result = fitter.fit(graph, cov, self.family)
        return result, inference.coefficient_inference(result)

    def _check(self, g, res):
        result, coef = res
        if not result.converged:
            return False
        if self.reference[g] is None:
            self.reference[g] = res     # verified in full by verify()
            return True
        ref = self.reference[g][1]
        return all(np.array_equal(getattr(coef, f), getattr(ref, f))
                   for f in ("estimate", "standard_errors", "estimate_bc"))

    def verify(self):
        failures = []
        for g, ((x, z, _, _), res) in enumerate(zip(self.graphs, self.reference)):
            if res is None:
                failures.append(f"graph {g}: no operation succeeded")
                continue
            result, coef = res
            p = result.params
            args = (x, z, p.alpha, p.beta, p.gamma, coef.standard_errors,
                    coef.estimate_bc, inputs.WIDE_GAMMA)
            ref = checks.DenseReference(z, p.alpha, p.beta, p.gamma)
            failures += [f"graph {g}: {msg}" for msg in
                         checks.check_estimate(*args, ref=ref) + checks.self_test(*args, ref=ref)]
        return failures


def _graph(x):
    m, n = x.shape
    return data.BipartiteGraph(x, tuple(f"a{i + 1}" for i in range(m)),
                               tuple(f"e{j + 1}" for j in range(n)))


WORKLOADS = {w.name: w for w in (CliFitRatings, SimulateReplications, FitWide)}
