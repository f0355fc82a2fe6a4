"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single ``[ACCEPTANCE nn] PASS/FAIL`` line (run with ``-s`` to see
them as they complete).  The three Monte-Carlo table scenarios are shared
module fixtures; everything is seeded and deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from bimoment import (
    CovariateTensor,
    FitOptions,
    ParameterSet,
    Scenario,
    approx_inverse,
    fit,
    get_family,
    incidental_bias_expfam,
    incidental_bias_general,
    ks_normality,
    run_scenario,
)
from bimoment.cli import EXIT_OK, main
from bimoment.errors import FitError, IllPosedError
from bimoment.fitter import build_jacobian, profile_jacobian
from bimoment.fixtures import make_ratings_fixture

import conftest
import oracles
from conftest import dense_approx_inverse, feasible_instance

LOGISTIC = get_family("logistic")
POISSON = get_family("poisson")

SEED = 20260810
REPLICATIONS = 500
RUNTIME_BUDGET_S = 15 * 60


def report(criterion: int, passed: bool, detail: str):
    line = f"[ACCEPTANCE {criterion:>2}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {criterion}: {detail}"


def above_roundoff(value: float, floor: str) -> str:
    """``value`` to three digits, or ``< floor (roundoff floor)`` when it is
    below ``floor``: there it is summation-order noise, and printing it
    would rewrite the line whenever the arithmetic is reordered."""
    return f"< {floor} (roundoff floor)" if value < float(floor) else f"{value:.2e}"


@pytest.fixture(scope="module")
def table_runs():
    """The three Monte-Carlo scenarios behind criteria 1-5, run once."""
    runs = {}
    started = time.perf_counter()
    runs["100_L0"] = run_scenario(Scenario(
        m=100, n=100, L=0.0, gamma_star=(0.5, 1.0),
        replications=REPLICATIONS, seed=SEED))
    runs["100_Lneg"] = run_scenario(Scenario(
        m=100, n=100, L=-0.2 * math.log(100), gamma_star=(0.5, 1.0),
        replications=REPLICATIONS, seed=SEED))
    runs["runtime_100_pair_s"] = time.perf_counter() - started
    runs["300_L0"] = run_scenario(Scenario(
        m=300, n=100, L=0.0, gamma_star=(0.5, 1.0),
        replications=REPLICATIONS, seed=SEED))
    return runs


def test_criterion_01_table1_reproduction(table_runs):
    details = []
    ok = True
    for key, label in (("100_L0", "L=0"), ("100_Lneg", "L=-0.2logm")):
        summary = table_runs[key]
        g1 = summary.mae["gamma:1"]
        a1 = summary.mae["alpha:1"]
        ok &= 0.018 <= g1 <= 0.030
        ok &= 0.23 <= a1 <= 0.31
        ok &= summary.nonconvergence_rate < 0.01
        details.append(f"{label}: |g1 err|={g1:.4f} in [0.018,0.030], "
                       f"|a1 err|={a1:.4f} in [0.23,0.31]")
    runtime = table_runs["runtime_100_pair_s"]
    ok &= runtime <= RUNTIME_BUDGET_S
    details.append(f"runtime {runtime:.0f}s <= {RUNTIME_BUDGET_S}s")
    report(1, ok, "; ".join(details))


def test_criterion_02_table1_size_ordering(table_runs):
    small = table_runs["100_L0"]
    large = table_runs["300_L0"]
    # tracked positions: first/middle/last per side plus both coefficients
    pairs = []
    for side, idx_small, idx_large in (
        ("alpha", (1, 50, 100), (1, 150, 300)),
        ("beta", (1, 50, 99), (1, 50, 99)),
    ):
        for a, b in zip(idx_small, idx_large):
            pairs.append((f"{side}:{a}", f"{side}:{b}"))
    pairs += [("gamma:1", "gamma:1"), ("gamma:2", "gamma:2")]
    ok = True
    worst = ""
    for key_small, key_large in pairs:
        lo, hi = large.mae[key_large], small.mae[key_small]
        if not lo < hi:
            ok = False
            worst += f" {key_small}:{hi:.4f}!>{lo:.4f}"
    ok &= large.nonconvergence_rate < 0.01
    # coefficient errors sit far below the degree-parameter errors
    ok &= large.mae["gamma:2"] < 0.5 * large.mae["alpha:1"]
    report(2, ok, "every tracked MAE strictly smaller at (300,100)" + worst)


def test_criterion_03_table2_coverage(table_runs):
    summary = table_runs["100_L0"]
    cov = summary.coverage["alpha:1-alpha:2"]
    length = summary.ci_length["alpha:1-alpha:2"]
    ok = 92.5 <= cov <= 97.5 and abs(length - 1.28) <= 0.128
    report(3, ok, f"coverage {cov:.1f}% in [92.5,97.5], "
                  f"CI length {length:.3f} within 10% of 1.28")


def test_criterion_04_table3_bias_correction(table_runs):
    summary = table_runs["300_L0"]
    raw = summary.coverage["gamma:2"]
    corrected = summary.coverage["gamma_bc:2"]
    ok = raw < 90.0 and 92.5 <= corrected <= 97.5
    report(4, ok, f"uncorrected gamma_2 coverage {raw:.1f}% < 90, "
                  f"corrected {corrected:.1f}% in [92.5,97.5]")


def test_criterion_05_normalized_statistic_normality(table_runs):
    samples = table_runs["300_L0"].zeta_samples["alpha:1"]
    stat, p = ks_normality(samples)
    ok = p > 0.01
    report(5, ok, f"KS stat {stat:.4f}, p={p:.3f} > 0.01 over {samples.size} "
                  "normalized estimates")


def test_criterion_06_mle_equivalence():
    worst = 0.0
    checked = 0
    for fam_id, family in enumerate((LOGISTIC, POISSON)):
        collected = 0
        seed = 0
        while collected < 20:
            rng = np.random.default_rng([1000, fam_id, seed])
            seed += 1
            assert seed < 500, "instance generation stalled"
            m = int(rng.integers(3, 9))
            n = int(rng.integers(2, 7))
            p = int(rng.integers(0, 3))
            try:
                graph, cov, _ = feasible_instance(rng, m, n, p, family,
                                                  theta_scale=0.3,
                                                  gamma_scale=0.3)
                result = fit(graph, cov, family,
                             FitOptions(tol=1e-12))
            except (FitError, IllPosedError, RuntimeError):
                continue
            fitted_all = np.concatenate([result.params.theta,
                                         result.params.gamma])
            if np.abs(fitted_all).max() > 10.0:
                # quasi-separated configuration: the estimator sits at the
                # saturation scale, the residual ridge is machine-flat, and
                # no finite maximizer is identified; regenerate
                continue
            oracle = oracles.likelihood_maximizer(graph.weights, cov.values,
                                                  family.name)
            fitted = np.concatenate([result.params.theta, result.params.gamma])
            worst = max(worst, float(np.abs(fitted - oracle).max()))
            collected += 1
            checked += 1
    ok = checked == 40 and worst < 1e-6
    report(6, ok, f"{checked} instances, worst sup-norm gap to the "
                  f"likelihood maximizer {worst:.2e} < 1e-6")


def test_criterion_07_information_matrix_validation():
    worst_rel = 0.0
    all_spd = True
    for k in range(10):
        rng = np.random.default_rng([2000, k])
        m = int(rng.integers(5, 10))
        n = int(rng.integers(4, 8))
        p = int(rng.integers(1, 3))
        graph, cov, truth = feasible_instance(rng, m, n, p, LOGISTIC)
        gamma = truth.gamma
        # the profiled residuals and the point H is evaluated at come from
        # the oracle's dense degree solve, H from the package
        theta = oracles.degree_solve(graph.weights, cov.values, gamma, "logistic")
        params = ParameterSet.from_theta(theta, gamma, m, n)
        h = profile_jacobian(params, cov, LOGISTIC)
        all_spd &= bool(np.abs(h - h.T).max() < 1e-10)
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            all_spd = False
        step = 1e-5
        fd = np.zeros_like(h)
        for col in range(p):
            bump = np.zeros(p)
            bump[col] = step
            q_hi = oracles.profiled_covariate_residuals(
                graph.weights, cov.values, gamma + bump, "logistic")
            q_lo = oracles.profiled_covariate_residuals(
                graph.weights, cov.values, gamma - bump, "logistic")
            fd[:, col] = (q_hi - q_lo) / (2.0 * step)
        worst_rel = max(worst_rel, float(np.abs(fd - h).max() / np.abs(h).max()))
    ok = worst_rel < 1e-4 and all_spd
    report(7, ok, f"10 instances: H vs central differences rel err "
                  f"{above_roundoff(worst_rel, '1e-9')}, pass threshold 1e-4; "
                  f"symmetric PD on all")


def test_criterion_08_inverse_approximation_decay():
    errors = []
    for n in (20, 40, 80):
        params = ParameterSet.zeros(n, n, 0)
        jac = build_jacobian(params, CovariateTensor.empty(n, n), LOGISTIC)
        s = dense_approx_inverse(approx_inverse(jac))
        v_inv = np.linalg.inv(jac.dense())
        errors.append(float(np.abs(v_inv - s).max()))
    ok = errors[0] > errors[1] > errors[2]
    report(8, ok, "max-norm inverse-approximation error decreases: "
                  + " > ".join(f"{e:.2e}" for e in errors))


def test_criterion_09_bias_formula_cross_check():
    worst = 0.0
    cases = [(LOGISTIC, 8, 6, 2), (LOGISTIC, 6, 4, 1), (POISSON, 8, 6, 2),
             (POISSON, 10, 5, 2)]
    for family, m, n, p in cases:
        rng = np.random.default_rng([3000, m, n, p])
        graph, cov, _ = feasible_instance(rng, m, n, p, family,
                                          theta_scale=0.3, gamma_scale=0.3)
        result = fit(graph, cov, family)
        b_exp = incidental_bias_expfam(result)
        b_gen = incidental_bias_general(result)
        rel = float(np.abs(b_exp - b_gen).max() / max(np.abs(b_exp).max(), 1e-30))
        worst = max(worst, rel)
    ok = worst < 1e-6
    report(9, ok, f"exponential-family vs general bias forms agree to "
                  f"rel err {above_roundoff(worst, '1e-12')}, pass threshold 1e-6, "
                  f"on {len(cases)} instances")


def test_criterion_10_poisson_third_moment():
    rng = np.random.default_rng(SEED)
    draws = POISSON.sample(np.zeros(100_000), rng)
    third = float(np.mean(draws**3))
    expected = 1.0 + 3.0 + 1.0  # lambda^3 + 3 lambda^2 + lambda at lambda=1
    ok = abs(third - expected) / expected <= 0.05
    report(10, ok, f"sampled third raw moment {third:.3f} within 5% of "
                   f"{expected}")


def test_criterion_11_offline_pipeline(tmp_path):
    fixture = make_ratings_fixture(tmp_path / "fixture")
    out = tmp_path / "out"
    rc = main([
        "fit", str(fixture.edges),
        "--actor-attrs", str(fixture.actor_attrs),
        "--event-attrs", str(fixture.event_attrs),
        "--mapping", str(fixture.mapping),
        "--min-degree", str(fixture.min_degree),
        "--out-dir", str(out),
    ])
    ok = rc == EXIT_OK
    detail = [f"exit code {rc}"]
    if ok:
        sidecar = json.loads((out / "fit.json").read_text())
        gamma = sidecar["gamma"]
        gamma_bc = sidecar.get("gamma_bc", [])
        ok &= len(gamma) == 2 and len(gamma_bc) == 2
        detail.append(f"gamma=({gamma[0]:.3f}, {gamma[1]:.3f}) with correction")
        rows = [line.split("\t") for line in
                (out / "report.tsv").read_text().splitlines()
                if line and not line.startswith(("#", "name\t"))]
        ses = {r[0]: float(r[3]) for r in rows}
        pvals = [float(r[5]) for r in rows]
        ok &= ses["gamma:1"] > 0 and ses["gamma:2"] > 0
        ok &= all(0.0 <= p <= 1.0 and np.isfinite(p) for p in pvals)
        detail.append(f"{len(pvals)} well-formed p-values")
        removed_actors = {f"u{i + 1:04d}" for i in range(200)} - set(
            sidecar["actor_labels"])
        removed_events = {f"f{j + 1:04d}" for j in range(150)} - set(
            sidecar["event_labels"])
        ok &= removed_actors == set(fixture.planted_actors)
        ok &= removed_events == set(fixture.planted_events)
        detail.append("degree filter removed exactly the planted nodes")
    report(11, ok, "; ".join(detail))
