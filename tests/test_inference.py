"""Inference tests: the closed-form inverse approximation against dense
oracles, standard-error arithmetic, Fisher/sandwich agreement, both bias
formulas with their cross-checks, and Wald tests."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from bimoment import (
    CovariateTensor,
    FitOptions,
    IllPosedError,
    MomentResiduals,
    ParameterSet,
    approx_inverse,
    bias_corrected_coefficients,
    build_jacobian,
    coefficient_covariance,
    coefficient_inference,
    fit,
    get_family,
    incidental_bias_expfam,
    incidental_bias_general,
    node_standard_errors,
    parse_contrast,
    report_rows,
    score_terms,
    simulate_network,
    wald_test,
    write_report,
)
from bimoment.errors import ConfigError
from bimoment.fitter import FitResult, profile_jacobian
from bimoment.inference import REPORT_HEADER, components_from_fit, wald_from_components

from conftest import checkerboard_graph, feasible_instance

LOGISTIC = get_family("logistic")
POISSON = get_family("poisson")


def synthetic_fit(graph, cov, family, params):
    """Assemble a FitResult at given parameters (residuals marked zero),
    for inference formulas that only read the fitted point."""
    return FitResult(
        params=params,
        residuals=MomentResiduals(degree=np.zeros(graph.m + graph.n - 1),
                                  covariate=np.zeros(cov.p)),
        converged=True,
        trace=(),
        jacobian_summary={},
        graph=graph,
        covariates=cov,
        family=family,
        options=FitOptions(),
    )


class TestInverseApproximation:
    def test_two_by_two_logistic_at_zero(self):
        params = ParameterSet.zeros(2, 2, 0)
        jac = build_jacobian(params, CovariateTensor.empty(2, 2), LOGISTIC)
        approx = approx_inverse(jac)
        # v_ii = 2 * 0.25 = 0.5 for actor rows; the dropped-event total is
        # the sum of the two last-column slopes
        assert np.allclose(jac.diag, [0.5, 0.5, 0.5])
        assert jac.v_tail == pytest.approx(0.5)
        s = approx.materialize()
        v_inv_coupling = 1.0 / 0.5
        for i in range(2):
            for j in range(2):
                expected = (1.0 / 0.5 if i == j else 0.0) + v_inv_coupling
                assert s[i, j] == pytest.approx(expected)
        assert s[0, 2] == pytest.approx(-v_inv_coupling)

    def test_sign_pattern(self, rng):
        graph, cov, truth = feasible_instance(rng, 5, 4, 1, LOGISTIC)
        jac = build_jacobian(truth, cov, LOGISTIC)
        approx = approx_inverse(jac)
        s = approx.materialize()
        c = approx.inv_coupling
        m = 5
        # actor-block off-diagonals are +c, actor-event entries are -c
        assert s[0, 1] == pytest.approx(c)
        assert s[m, m + 1] == pytest.approx(c)
        assert s[0, m] == pytest.approx(-c)
        assert s[m, 0] == pytest.approx(-c)

    def test_apply_matches_materialized(self, rng):
        graph, cov, truth = feasible_instance(rng, 6, 5, 2, POISSON)
        jac = build_jacobian(truth, cov, POISSON)
        approx = approx_inverse(jac)
        vec = rng.normal(size=jac.dim)
        np.testing.assert_allclose(approx.apply(vec), approx.materialize() @ vec,
                                   atol=1e-12)

    def test_error_decays_on_random_instances(self):
        errors = []
        for k, n in enumerate((20, 40, 80)):
            rng = np.random.default_rng(100 + k)
            graph, cov, truth = feasible_instance(rng, n, n, 1, LOGISTIC,
                                                  theta_scale=0.2,
                                                  gamma_scale=0.2)
            jac = build_jacobian(truth, cov, LOGISTIC)
            s = approx_inverse(jac).materialize()
            v_inv = np.linalg.inv(jac.dense())
            errors.append(np.abs(v_inv - s).max())
        assert errors[0] > errors[1] > errors[2]

    def test_reconstruction_approaches_identity(self):
        deviations = []
        for n in (20, 40, 80):
            params = ParameterSet.zeros(n, n, 0)
            jac = build_jacobian(params, CovariateTensor.empty(n, n), LOGISTIC)
            s = approx_inverse(jac).materialize()
            dev = np.abs(s @ jac.dense() - np.eye(jac.dim)).max()
            deviations.append(dev)
        assert deviations[0] > deviations[1] > deviations[2]


class TestExactInverse:
    def test_inverse_definition(self, rng):
        graph, cov, truth = feasible_instance(rng, 6, 5, 1, LOGISTIC)
        jac = build_jacobian(truth, cov, LOGISTIC)
        for k in (0, 3, jac.dim - 1):
            e = np.zeros(jac.dim)
            e[k] = 1.0
            x = jac.solve(e)
            assert np.abs(jac.dense() @ x - e).max() < 1e-10

    def test_symmetry(self, rng):
        graph, cov, truth = feasible_instance(rng, 6, 5, 1, POISSON)
        jac = build_jacobian(truth, cov, POISSON)
        x = rng.normal(size=jac.dim)
        y = rng.normal(size=jac.dim)
        lhs = float(jac.solve(x) @ y)
        rhs = float(x @ jac.solve(y))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_agrees_with_dense_inverse(self, rng):
        graph, cov, truth = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        jac = build_jacobian(truth, cov, LOGISTIC)
        v_inv = np.linalg.inv(jac.dense())
        vec = rng.normal(size=jac.dim)
        np.testing.assert_allclose(jac.solve(vec), v_inv @ vec,
                                   atol=1e-10)

    def test_inverse_blocks_match_dense(self, rng):
        graph, cov, truth = feasible_instance(rng, 7, 5, 1, LOGISTIC)
        jac = build_jacobian(truth, cov, LOGISTIC)
        v_inv = np.linalg.inv(jac.dense())
        inv_alpha_diag, inv_cross, inv_beta = jac.inverse_blocks()
        np.testing.assert_allclose(inv_alpha_diag, np.diag(v_inv)[:7], atol=1e-10)
        np.testing.assert_allclose(inv_cross, v_inv[:7, 7:], atol=1e-10)
        np.testing.assert_allclose(inv_beta, v_inv[7:, 7:], atol=1e-10)


class TestNodeStandardErrors:
    def test_balanced_graph_arithmetic(self):
        # checkerboard: zero parameters solve the equations, every diagonal
        # is 25 and the dropped-event total is 25
        graph = checkerboard_graph(100, 100)
        result = fit(graph, None, LOGISTIC)
        assert np.abs(result.params.theta).max() < 1e-9
        jac = result.jacobian
        assert np.allclose(jac.diag, 25.0)
        assert jac.v_tail == pytest.approx(25.0)
        se = node_standard_errors(result)
        expected = math.sqrt(1.0 / 25.0 + 1.0 / 25.0)
        assert np.allclose(se.alpha, expected)
        assert np.allclose(se.beta, expected)

    def test_requires_convergence(self, rng):
        graph, cov, truth = feasible_instance(rng, 4, 3, 0, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        broken = synthetic_fit(graph, cov, LOGISTIC, result.params)
        object.__setattr__(broken, "converged", False)
        with pytest.raises(ValueError, match="converged"):
            node_standard_errors(broken)


class TestCoefficientCovariance:
    def test_fisher_equals_sandwich_for_exponential_families(self, rng):
        graph, cov, _ = feasible_instance(rng, 10, 8, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        fisher = coefficient_covariance(result, "fisher")
        sandwich = coefficient_covariance(result, "sandwich")
        assert np.abs(fisher - sandwich).max() / np.abs(fisher).max() < 1e-6

    def test_score_covariance_equals_information(self, rng):
        graph, cov, _ = feasible_instance(rng, 9, 7, 2, POISSON)
        result = fit(graph, cov, POISSON)
        sigma = score_terms(result).sigma
        h = profile_jacobian(result.params, cov, POISSON)
        assert np.abs(sigma - h).max() / np.abs(h).max() < 1e-10

    def test_degenerate_covariates_ill_posed(self, rng):
        graph, _, _ = feasible_instance(rng, 5, 4, 0, LOGISTIC)
        zeros = CovariateTensor(np.zeros((5, 4, 1)))
        params = ParameterSet.zeros(5, 4, 1)
        synthetic = synthetic_fit(graph, zeros, LOGISTIC, params)
        with pytest.raises(IllPosedError):
            coefficient_covariance(synthetic, "fisher")

    def test_unknown_method(self, rng):
        graph, cov, _ = feasible_instance(rng, 5, 4, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        with pytest.raises(ConfigError):
            coefficient_covariance(result, "bootstrap")


class TestIncidentalBias:
    def test_zero_curvature_gives_zero_bias(self, rng):
        # logistic curvature vanishes at zero parameters
        graph = checkerboard_graph(8, 8)
        cov = CovariateTensor(rng.choice([-1.0, 1.0], (8, 8, 2)))
        params = ParameterSet.zeros(8, 8, 2)
        synthetic = synthetic_fit(graph, cov, LOGISTIC, params)
        np.testing.assert_allclose(incidental_bias_expfam(synthetic), 0.0,
                                   atol=1e-15)

    def test_poisson_approx_form_is_weighted_mean(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 1, POISSON)
        result = fit(graph, cov, POISSON)
        slopes = result.jacobian.slopes  # equals the curvature for poisson
        z = cov.values[:, :, 0]
        weighted = (
            np.sum((z * slopes).sum(axis=1) / slopes.sum(axis=1))
            + np.sum((z * slopes).sum(axis=0) / slopes.sum(axis=0))
        ) / (2.0 * math.sqrt(30))
        approx = incidental_bias_expfam(result, use_approx=True)
        assert approx[0] == pytest.approx(weighted, rel=1e-12)

    @pytest.mark.parametrize("family", [LOGISTIC, POISSON], ids=lambda f: f.name)
    def test_general_form_equals_expfam_form(self, rng, family):
        graph, cov, _ = feasible_instance(rng, 8, 6, 2, family)
        result = fit(graph, cov, family)
        b_exp = incidental_bias_expfam(result)
        b_gen = incidental_bias_general(result)
        assert np.abs(b_exp - b_gen).max() <= 1e-6 * max(np.abs(b_exp).max(), 1e-12)

    def test_all_zero_covariates_give_zero_general_bias(self, rng):
        graph, _, _ = feasible_instance(rng, 5, 4, 0, LOGISTIC)
        zeros = CovariateTensor(np.zeros((5, 4, 1)))
        params = ParameterSet.zeros(5, 4, 1)
        synthetic = synthetic_fit(graph, zeros, LOGISTIC, params)
        np.testing.assert_allclose(incidental_bias_general(synthetic), 0.0,
                                   atol=1e-15)

    def test_curvature_rows_match_finite_differences(self, rng):
        # the second derivatives of the covariate residuals enter the
        # general bias; check them against finite differences of the mixed
        # first-derivative matrix
        from bimoment.fitter import mixed_moment_derivative

        graph, cov, truth = feasible_instance(rng, 5, 4, 2, LOGISTIC)
        m, n = 5, 4
        step = 1e-5

        def mixed_at(theta):
            params = ParameterSet.from_theta(theta, truth.gamma, m, n)
            slopes = LOGISTIC.mean_d1(params.linear_predictor(cov))
            return mixed_moment_derivative(cov, slopes)

        theta0 = truth.theta
        curvature = LOGISTIC.mean_d2(truth.linear_predictor(cov))
        for k in (0, 2, m + 1):
            bump = np.zeros_like(theta0)
            bump[k] = step
            fd = (mixed_at(theta0 + bump) - mixed_at(theta0 - bump)) / (2 * step)
            # analytic: d2 Q_a / d theta_k d theta_l = sum_ij z_a mu'' t_k t_l
            analytic = np.zeros_like(fd)
            for i in range(m):
                for j in range(n):
                    t = np.zeros(m + n - 1)
                    t[i] = 1.0
                    if j < n - 1:
                        t[m + j] = 1.0
                    if t[k]:
                        analytic += np.outer(cov.values[i, j] * curvature[i, j], t)
            scale = max(np.abs(analytic).max(), 1e-6)
            assert np.abs(fd - analytic).max() / scale < 1e-4

    def test_correction_magnitude_shrinks_with_size(self):
        sizes = ((50, 50), (200, 200))
        mean_corrections = []
        for m, n in sizes:
            shifts = []
            for seed in range(20):
                rng = np.random.default_rng([m, seed])
                graph, cov, truth = feasible_instance(
                    rng, m, n, 2, LOGISTIC, theta_scale=0.3, gamma_scale=0.5)
                result = fit(graph, cov, LOGISTIC)
                ci = coefficient_inference(result)
                shifts.append(np.abs(ci.estimate_bc - ci.estimate).max())
            mean_corrections.append(np.mean(shifts))
        assert mean_corrections[1] < mean_corrections[0]

    def test_zero_bias_leaves_estimate_unchanged(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        h_bar = profile_jacobian(result.params, cov, LOGISTIC) / 30.0
        unchanged = bias_corrected_coefficients(result, np.zeros(2), h_bar)
        np.testing.assert_allclose(unchanged, result.params.gamma)


class TestWaldTests:
    def test_difference_contrast_arithmetic(self):
        graph = checkerboard_graph(40, 40)
        result = fit(graph, None, LOGISTIC)
        test = wald_test(result, "alpha:1-alpha:2")
        expected_se = math.sqrt(2.0 / result.jacobian.diag[0])
        assert test.standard_error == pytest.approx(expected_se, rel=1e-10)

    def test_self_contrast_is_zero(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        test = wald_test(result, "alpha:1-alpha:1")
        assert test.statistic == 0.0
        assert test.p_value == pytest.approx(1.0)

    def test_null_at_estimate_gives_zero(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        est = float(result.params.alpha[0])
        test = wald_test(result, "alpha:1", null_value=est)
        assert test.statistic == 0.0
        assert test.p_value == pytest.approx(1.0)

    def test_null_calibration_monte_carlo(self):
        # under a true null the contrast statistics should look standard
        # normal across replications
        from bimoment.simlab import ks_normality

        m = n = 60
        cov = CovariateTensor.empty(m, n)
        truth = ParameterSet.zeros(m, n, 0)
        stats = []
        for seed in range(200):
            rng = np.random.default_rng([4242, seed])
            graph = simulate_network(truth, cov, LOGISTIC, rng)
            try:
                result = fit(graph, cov, LOGISTIC)
            except Exception:
                continue
            stats.append(wald_test(result, "alpha:1-alpha:2").statistic)
        assert len(stats) >= 190
        _, p = ks_normality(np.array(stats))
        assert p > 0.01

    def test_strong_effect_power(self):
        rng = np.random.default_rng(8)
        m, n = 100, 100
        cov = CovariateTensor(rng.choice([-1.0, 1.0], (m, n, 1)))
        truth = ParameterSet(alpha=np.zeros(m), beta=np.zeros(n),
                             gamma=np.array([0.5]))
        graph = simulate_network(truth, cov, LOGISTIC, rng)
        result = fit(graph, cov, LOGISTIC)
        test = wald_test(result, "gamma:1=0")
        assert test.p_value < 1e-3

    def test_contrast_parsing(self):
        c = parse_contrast("alpha:3-alpha:7")
        assert (c.kind, c.index, c.other_index) == ("alpha", 3, 7)
        c = parse_contrast("gamma:2=0.5")
        assert c.kind == "gamma" and c.null_value == 0.5
        with pytest.raises(ConfigError):
            parse_contrast("delta:1")
        with pytest.raises(ConfigError):
            parse_contrast("alpha:1-beta:2")
        with pytest.raises(ConfigError):
            parse_contrast("gamma:1-gamma:2")

    def test_index_validation(self, rng):
        graph, cov, _ = feasible_instance(rng, 5, 4, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        with pytest.raises(ConfigError, match="out of range"):
            wald_test(result, "alpha:6")
        with pytest.raises(ConfigError, match="pinned"):
            wald_test(result, "beta:4")  # the pinned event
        with pytest.raises(ConfigError, match="out of range"):
            wald_test(result, "gamma:2")

    def test_components_round_trip(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        comp = components_from_fit(result)
        direct = wald_test(result, "beta:1-beta:2")
        via_components = wald_from_components(comp, "beta:1-beta:2")
        assert direct == via_components


class TestReports:
    def test_rows_cover_all_free_parameters(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        rows = report_rows(result)
        names = [r.name for r in rows]
        assert names.count("alpha:1") == 1
        assert f"beta:{5}" not in names  # pinned parameter excluded
        assert "gamma:2" in names and "gamma_bc:2" in names
        assert len(rows) == 6 + 4 + 2 + 2
        for r in rows:
            assert 0.0 <= r.p_value <= 1.0
            assert r.ci_low < r.ci_high
            assert r.se > 0

    def test_bias_correction_rows_optional(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        rows = report_rows(result, bias_correct=False)
        assert not any(r.name.startswith("gamma_bc") for r in rows)

    def test_serialization_stable(self, rng, tmp_path):
        graph, cov, _ = feasible_instance(rng, 5, 4, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        rows = report_rows(result)
        write_report(rows, tmp_path / "a.tsv")
        write_report(rows, tmp_path / "b.tsv")
        a = (tmp_path / "a.tsv").read_bytes()
        assert a == (tmp_path / "b.tsv").read_bytes()
        header = a.decode().splitlines()[0]
        assert header.split("\t") == list(REPORT_HEADER)

    def test_confidence_level_quantile(self, rng):
        graph, cov, _ = feasible_instance(rng, 5, 4, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        rows = report_rows(result, level=0.9)
        z = norm.ppf(0.95)
        r = rows[0]
        assert r.ci_high - r.estimate == pytest.approx(z * r.se, rel=1e-9)
