"""Simulation laboratory: truth profiles, the sign-product covariate
scheme, forward sampling, replication bookkeeping, determinism, and the
normality check."""

import json
import math
import os
import pickle
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bimoment import (
    ConfigError,
    CovariateTensor,
    Scenario,
    generate_covariates,
    generate_truth,
    get_family,
    ks_normality,
    run_scenario,
    simulate_network,
)
from bimoment import simlab
from bimoment.errors import IllPosedError, ModelDegeneracyError, SingularJacobianError
from bimoment.fitter import fit
from bimoment.inference import coefficient_inference, components_from_fit
from bimoment.simlab import (
    Z_95,
    run_replication,
    tracked_indices,
)

LOGISTIC = get_family("logistic")
POISSON = get_family("poisson")
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestTruthProfiles:
    def test_flat_at_zero_level(self):
        truth = generate_truth(5, 4, 0.0, (0.5, 1.0))
        assert not truth.alpha.any() and not truth.beta.any()

    def test_three_actor_profile(self):
        truth = generate_truth(3, 3, 1.0, ())
        np.testing.assert_allclose(truth.alpha, [1.0, 0.5, 0.0])

    def test_log_level_leading_value(self):
        level = 0.2 * math.log(100)
        truth = generate_truth(100, 100, level, ())
        assert truth.alpha[0] == pytest.approx(0.9210, abs=2e-4)

    def test_last_event_parameter_exactly_zero(self):
        truth = generate_truth(7, 9, -1.3, ())
        assert truth.beta[-1] == 0.0


class TestCovariateScheme:
    def test_entries_are_sign_products(self, rng):
        cov = generate_covariates(50, 40, "sign-product-2d", rng)
        assert cov.p == 2
        assert set(np.unique(cov.values)) <= {-1.0, 1.0}
        assert cov.bound == 1.0

    def test_first_coordinate_mean(self):
        rng = np.random.default_rng(123)
        cov = generate_covariates(500, 500, "sign-product-2d", rng)
        # E[z1] = (2*0.3 - 1)(2*0.6 - 1) = -0.08; SE over 500x500 products
        # of node-level signs is dominated by the node count
        mean = cov.values[:, :, 0].mean()
        # node-level averaging: 500 actor signs and 500 event signs
        se = math.sqrt(1.0 / 500 + 1.0 / 500)
        assert abs(mean + 0.08) <= 4.0 * se

    def test_rank_one_sign_structure(self, rng):
        cov = generate_covariates(10, 10, "sign-product-2d", rng)
        z1 = cov.values[:, :, 0]
        for i, i2, j, j2 in ((0, 3, 1, 4), (2, 7, 0, 9)):
            assert z1[i, j] * z1[i2, j] * z1[i, j2] * z1[i2, j2] == 1.0

    def test_none_scheme(self, rng):
        cov = generate_covariates(5, 4, "none", rng)
        assert cov.p == 0

    def test_unknown_scheme(self, rng):
        with pytest.raises(ConfigError):
            generate_covariates(5, 4, "sign-product-3d", rng)


class TestForwardSampling:
    def test_logistic_density_at_flat_truth(self):
        rng = np.random.default_rng(7)
        truth = generate_truth(200, 200, 0.0, ())
        cov = CovariateTensor.empty(200, 200)
        graph = simulate_network(truth, cov, LOGISTIC, rng)
        density = graph.weights.mean()
        se = 0.5 / 200.0
        assert abs(density - 0.5) <= 4.0 * se

    def test_poisson_mean_weight(self):
        rng = np.random.default_rng(8)
        truth = generate_truth(200, 200, 0.0, ())
        cov = CovariateTensor.empty(200, 200)
        graph = simulate_network(truth, cov, POISSON, rng)
        se = 1.0 / 200.0
        assert abs(graph.weights.mean() - 1.0) <= 4.0 * se

    def test_fixed_seed_reproduces_bitwise(self):
        truth = generate_truth(30, 20, 0.1, ())
        cov = CovariateTensor.empty(30, 20)
        g1 = simulate_network(truth, cov, LOGISTIC, np.random.default_rng(99))
        g2 = simulate_network(truth, cov, LOGISTIC, np.random.default_rng(99))
        assert np.array_equal(g1.weights, g2.weights)


class TestScenario:
    def test_from_dict_with_log_factor(self):
        s = Scenario.from_dict(
            {"m": 100, "n": 50, "L_factor": 0.2, "gamma_star": [0.5, 1.0],
             "replications": 3, "seed": 1}
        )
        assert s.L == pytest.approx(0.2 * math.log(100))

    def test_from_dict_rejects_both_level_forms(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict({"m": 10, "n": 10, "L": 0.0, "L_factor": 0.2,
                                "gamma_star": []})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict({"m": 10, "n": 10, "L": 0.0, "gamma_star": [],
                                "bogus": 1})

    def test_out_of_domain_poisson_truth_rejected(self):
        # 2 * 15 + 5 + 5 = 40 exceeds the family's predictor cap of 30
        with pytest.raises(ConfigError):
            Scenario(m=20, n=20, L=15.0, gamma_star=(5.0, 5.0), family="poisson",
                     replications=3, seed=1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(m=10, n=10, L=0.0, gamma_star=(), family="probit")

    @pytest.mark.parametrize("m, n", [(10**400, 10), (2**32, 2**32)],
                             ids=["400-digit-m", "2**32-square"])
    def test_oversized_scenario_rejected(self, m, n):
        # construction allocates nothing; only a study would
        with pytest.raises(ConfigError, match="the most entries one float64 array"):
            Scenario(m=m, n=n, L=0.0, gamma_star=(), scheme="none")

    def test_tracked_indices(self):
        t = tracked_indices(100, 100)
        assert t["alpha"] == (1, 50, 100)
        assert t["beta"] == (1, 50, 99)
        assert t["alpha_pairs"] == ((1, 2), (50, 51), (99, 100))

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")),
                             ids=lambda path: path.name)
    def test_scenario_file_parses_and_runs(self, path):
        scenario = Scenario.from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert run_replication(scenario, 0).converged

    def test_scenario_files_are_found(self):
        assert {p.name for p in SCENARIO_DIR.glob("*.json")} >= {
            "logistic_100x100_L0.json", "logistic_100x100_sparse.json",
            "logistic_300x100_L0.json"}


class TestRunScenario:
    SMALL = Scenario(m=30, n=24, L=0.0, gamma_star=(0.5, 1.0),
                     replications=6, seed=31)

    def test_single_replication_summary_equals_record(self):
        scenario = Scenario(m=30, n=24, L=0.0, gamma_star=(0.5, 1.0),
                            replications=1, seed=5)
        record = run_replication(scenario, 0)
        summary = run_scenario(scenario)
        assert record.converged
        for key, value in record.abs_errors.items():
            assert summary.mae[key] == pytest.approx(value)
        for key, hit in record.ci_hits.items():
            assert summary.coverage[key] == pytest.approx(100.0 * hit)

    def test_replication_reads_variances_from_the_jacobian(self, monkeypatch):
        # an exponential family's variances are the fit's slopes, so a
        # replication evaluates no variance function and one curvature
        # (the bias term's)
        calls = {"variance": 0, "mean_d2": 0}
        family_class = type(LOGISTIC)
        for name in calls:
            original = getattr(family_class, name)

            def counted(self, eta, name=name, original=original):
                calls[name] += 1
                return original(self, eta)

            monkeypatch.setattr(family_class, name, counted)
        assert run_replication(self.SMALL, 0).converged
        assert calls == {"variance": 0, "mean_d2": 1}

    def test_scenario_invariants_are_shared_read_only(self):
        truth = simlab._scenario_truth(self.SMALL)
        assert simlab._scenario_truth(self.SMALL) is truth
        for arr in (truth.alpha, truth.beta, truth.gamma):
            assert not arr.flags.writeable
        expected = generate_truth(self.SMALL.m, self.SMALL.n, self.SMALL.L,
                                  self.SMALL.gamma_star)
        assert np.array_equal(truth.alpha, expected.alpha)
        assert np.array_equal(truth.beta, expected.beta)
        assert np.array_equal(truth.gamma, expected.gamma)
        actors, events = simlab._node_labels(3, 2)
        assert (actors, events) == (("a1", "a2", "a3"), ("e1", "e2"))
        assert simlab._node_labels(3, 2)[0] is actors

    def test_replication_does_not_load_scipy_special(self):
        # scipy.special and its compiled modules load only for p-values and
        # the KS test, and a serial study starts no process pool
        src = Path(simlab.__file__).resolve().parents[1]
        code = ("import sys; "
                "from bimoment.simlab import Scenario, run_replication, run_scenario; "
                "scenario = Scenario(m=12, n=10, L=0.0, gamma_star=(0.5, 1.0), seed=2, "
                "replications=2); "
                "assert run_replication(scenario, 0).converged; "
                "run_scenario(scenario, workers=1); "
                "print(*sorted(m for m in sys.modules if m.startswith('scipy.special') "
                "or m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert run.stdout.strip() == ""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
    def test_replication_reuses_the_freed_heap(self):
        # glibc returns the heap a (100, 100) replication frees to the kernel,
        # unless its trim threshold was raised (see the block bimoment.fitter
        # frees at import); the next replication would fault ~120 pages back in
        src = Path(simlab.__file__).resolve().parents[1]
        code = ("import resource; from bimoment.simlab import Scenario, run_replication; "
                "s = Scenario(m=100, n=100, L=0.0, gamma_star=(0.5, 1.0), seed=3); "
                "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
                "[run_replication(s, r) for r in range(20)]; before = faults(); "
                "[run_replication(s, r) for r in range(20, 60)]; "
                "print((faults() - before) / 40)")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert float(run.stdout) < 10

    def test_deterministic_rerun(self):
        a = run_scenario(self.SMALL)
        b = run_scenario(self.SMALL)
        assert a.mae == b.mae
        assert a.coverage == b.coverage
        for key in a.zeta_samples:
            assert np.array_equal(a.zeta_samples[key], b.zeta_samples[key])

    def test_worker_count_does_not_change_results(self):
        # three chunks of replications, so both workers get some
        scenario = Scenario(m=30, n=24, L=0.0, gamma_star=(0.5, 1.0),
                            replications=20, seed=31)
        serial = run_scenario(scenario, workers=1)
        parallel = run_scenario(scenario, workers=2)
        assert serial.converged == parallel.converged
        assert serial.mae == parallel.mae
        assert serial.coverage == parallel.coverage
        assert serial.ci_length == parallel.ci_length
        assert serial.zeta_samples.keys() == parallel.zeta_samples.keys()
        for key, samples in serial.zeta_samples.items():
            assert samples.tobytes() == parallel.zeta_samples[key].tobytes()

    def test_pool_never_outnumbers_the_chunks(self, monkeypatch):
        # a pool starts all its workers at once, so a stub records how many
        # a study asks for instead of starting them
        import concurrent.futures

        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, chunksize):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # 17 replications make three chunks of 8; 3 make one, run serially
        for replications in (17, 3):
            scenario = Scenario(m=12, n=10, L=0.0, gamma_star=(), scheme="none",
                                replications=replications, seed=2)
            assert run_scenario(scenario, workers=5000).replications == replications
        assert started == [3]

    def test_nonconverged_replications_excluded_but_counted(self):
        # very sparse tiny graphs frequently have zero-degree nodes
        scenario = Scenario(m=8, n=6, L=-0.8, gamma_star=(), scheme="none",
                            replications=40, seed=12)
        summary = run_scenario(scenario)
        assert 0.0 < summary.nonconvergence_rate < 1.0
        assert summary.converged == round(
            (1.0 - summary.nonconvergence_rate) * 40)
        # aggregates exist and are finite despite failures
        assert all(np.isfinite(v) for v in summary.mae.values())

    def test_model_degeneracy_is_a_failed_replication(self, monkeypatch):
        def degenerate_fit(*args):
            raise ModelDegeneracyError("mean slopes must be strictly positive")

        monkeypatch.setattr(simlab, "fit", degenerate_fit)
        record = run_replication(self.SMALL, 0)
        assert not record.converged

    @pytest.mark.parametrize("error", [IllPosedError, SingularJacobianError])
    def test_failed_inference_is_a_failed_replication(self, monkeypatch, error):
        # the inference at the estimate can fail after the fit succeeded:
        # the information H, or the exact factorization of the Jacobian
        calls = []

        def failing_inference(result, method="fisher"):
            calls.append(method)
            if len(calls) % 3 == 0:
                raise error("inference at the estimate failed")
            return coefficient_inference(result, method)

        monkeypatch.setattr(simlab, "coefficient_inference", failing_inference)
        scenario = Scenario(m=30, n=24, L=0.0, gamma_star=(0.5, 1.0),
                            replications=30, seed=31)
        summary = run_scenario(scenario)
        assert len(calls) == 30
        assert summary.converged == 20
        assert summary.nonconvergence_rate == pytest.approx(1.0 / 3.0)

    def test_replication_without_covariates(self, monkeypatch):
        # an empty bias term evaluates no curvature
        monkeypatch.setattr(type(LOGISTIC), "mean_d2", None)
        scenario = Scenario(m=20, n=16, L=0.0, gamma_star=(), scheme="none", seed=4)
        record = run_replication(scenario, 0)
        assert record.converged
        degree_keys = ["alpha:1", "alpha:10", "alpha:20", "beta:1", "beta:8", "beta:15"]
        assert list(record.abs_errors) == degree_keys
        assert list(record.zeta) == degree_keys
        pairs = ["alpha:1-alpha:2", "alpha:10-alpha:11", "alpha:19-alpha:20"]
        assert list(record.ci_hits) == pairs
        assert list(record.ci_lengths) == pairs

    def test_coefficient_error_much_smaller_than_node_error(self):
        scenario = Scenario(m=60, n=50, L=0.0, gamma_star=(0.5, 1.0),
                            replications=15, seed=77)
        summary = run_scenario(scenario)
        gamma_mae = max(summary.mae["gamma:1"], summary.mae["gamma:2"])
        alpha_mae = summary.mae["alpha:1"]
        assert gamma_mae < 0.5 * alpha_mae


def record_dicts_per_key(scenario, replication):
    """Oracle: a converged replication's four record fields as dicts built
    one tracked index at a time, with scalar arithmetic, where a repeated
    index writes its key again in place."""
    rng = np.random.default_rng([scenario.seed, replication])
    family = get_family(scenario.family)
    truth = generate_truth(scenario.m, scenario.n, scenario.L, scenario.gamma_star)
    cov = generate_covariates(scenario.m, scenario.n, scenario.scheme, rng)
    result = fit(simulate_network(truth, cov, family, rng), cov, family)
    comp, est = components_from_fit(result), result.params
    tracked = tracked_indices(scenario.m, scenario.n)
    abs_errors, zeta, ci_hits, ci_lengths = {}, {}, {}, {}
    for side, offset in (("alpha", 0), ("beta", scenario.m)):
        for i in tracked[side]:
            err = getattr(est, side)[i - 1] - getattr(truth, side)[i - 1]
            abs_errors[f"{side}:{i}"] = abs(float(err))
            zeta[f"{side}:{i}"] = float(err / comp.degree_se(offset + i - 1))
    for i, j in tracked["alpha_pairs"]:
        se = float(comp.degree_se(i - 1, j - 1))
        err = (est.alpha[i - 1] - est.alpha[j - 1]) - (truth.alpha[i - 1] - truth.alpha[j - 1])
        ci_hits[f"alpha:{i}-alpha:{j}"] = bool(abs(err) <= Z_95 * se)
        ci_lengths[f"alpha:{i}-alpha:{j}"] = 2.0 * Z_95 * se
    coef = coefficient_inference(result)
    for k, true in enumerate(scenario.gamma_star):
        se = coef.standard_errors[k]
        abs_errors[f"gamma:{k + 1}"] = abs(float(coef.estimate[k] - true))
        ci_hits[f"gamma:{k + 1}"] = bool(abs(coef.estimate[k] - true) <= Z_95 * se)
        ci_hits[f"gamma_bc:{k + 1}"] = bool(abs(coef.estimate_bc[k] - true) <= Z_95 * se)
        ci_lengths[f"gamma:{k + 1}"] = 2.0 * Z_95 * float(se)
    return dict(abs_errors=abs_errors, zeta=zeta, ci_hits=ci_hits, ci_lengths=ci_lengths)


class TestRecordLayout:
    # at m = n = 3 the tracked indices repeat alpha:1, beta:1 and the pair
    # alpha:1-alpha:2, so each field keeps fewer keys than it tracks
    SCENARIO = Scenario(m=3, n=3, L=0.0, gamma_star=(0.5, 1.0), replications=20, seed=1)
    FIELDS = ("abs_errors", "zeta", "ci_hits", "ci_lengths")

    @pytest.fixture(scope="class")
    def records(self):
        return [run_replication(self.SCENARIO, r) for r in range(20)]

    def test_views_equal_dicts_built_per_key(self, records):
        converged = [rec for rec in records if rec.converged]
        assert converged
        for rec in converged:
            want = record_dicts_per_key(self.SCENARIO, rec.replication)
            assert len(rec.abs_errors) == 6
            for name in self.FIELDS:
                view = getattr(rec, name)
                assert list(view) == list(want[name])
                # repr tells a bool from a float and -0.0 from 0.0
                assert {k: repr(v) for k, v in view.items()} == {
                    k: repr(v) for k, v in want[name].items()}

    def test_record_holds_one_buffer(self, records):
        for rec in records:
            again = pickle.loads(pickle.dumps(rec))
            assert again == rec
            if rec.converged:
                assert len(rec.values) == 8 * sum(len(getattr(rec, f)) for f in self.FIELDS)
                with pytest.raises(TypeError):
                    rec.abs_errors["alpha:1"] = 0.0
            else:
                assert rec.values == b""
                assert all(getattr(rec, f) == {} for f in self.FIELDS)
        assert not all(rec.converged for rec in records)


class TestNormalityCheck:
    def test_null_calibration(self):
        rng = np.random.default_rng(2)
        _, p = ks_normality(rng.normal(size=5000))
        assert p > 0.01

    def test_detects_location_shift(self):
        rng = np.random.default_rng(3)
        stat, p = ks_normality(rng.normal(0.5, 1.0, size=5000))
        assert p < 0.01
        assert stat == pytest.approx(0.19, abs=0.03)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ks_normality([])
        with pytest.raises(ValueError):
            ks_normality(np.zeros(10))

    def test_normal_functions_match_norm(self):
        # the package takes the standard normal from scipy.special;
        # scipy.stats.norm is the oracle it must match to the bit
        from scipy.stats import norm

        assert Z_95 == float(norm.ppf(0.975))
        x = np.sort(np.random.default_rng(5).normal(size=400))
        cdf = norm.cdf(x)
        grid = np.arange(1, x.size + 1) / x.size
        expected = max(float(np.max(grid - cdf)),
                       float(np.max(cdf - (grid - 1.0 / x.size))))
        assert ks_normality(x)[0] == expected

    def test_statistic_matches_reference_implementation(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(4)
        x = rng.normal(size=800)
        stat, p = ks_normality(x)
        ref = kstest(x, "norm", mode="asymp")
        assert stat == pytest.approx(ref.statistic, rel=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-6)
