"""Inference tests: the closed-form inverse approximation against dense
oracles, standard-error arithmetic, Fisher/sandwich agreement, both bias
formulas with their cross-checks, and Wald tests."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from bimoment import (
    CovariateTensor,
    IllPosedError,
    ModelDegeneracyError,
    ModelFamily,
    MomentResiduals,
    ParameterSet,
    StructuredJacobian,
    approx_inverse,
    bias_corrected_coefficients,
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
)
from bimoment import data, fitter, inference
from bimoment.errors import ConfigError
from bimoment.fitter import (
    FitResult,
    build_jacobian,
    mixed_moment_derivative,
    profile_jacobian,
)
from bimoment.inference import (
    InferenceComponents,
    components_from_fit,
    wald_from_components,
)

from conftest import checkerboard_graph, dense_approx_inverse, feasible_instance

LOGISTIC = get_family("logistic")
POISSON = get_family("poisson")


def synthetic_fit(graph, cov, family, params):
    """Assemble a FitResult at given parameters (residuals marked zero),
    for inference formulas that only read the fitted point."""
    pi = params.linear_predictor(cov)
    return FitResult(
        params=params,
        residuals=MomentResiduals(degree=np.zeros(graph.m + graph.n - 1),
                                  covariate=np.zeros(cov.p)),
        trace=(),
        predictor=pi,
        jacobian=StructuredJacobian(family.mean_d1(pi)),
        graph=graph,
        covariates=cov,
        family=family,
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
        s = dense_approx_inverse(approx)
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
        s = dense_approx_inverse(approx)
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
        np.testing.assert_allclose(approx.apply(vec), dense_approx_inverse(approx) @ vec,
                                   atol=1e-12)

    @pytest.mark.parametrize("columns", [None, 1, 3], ids=["vector", "r1", "r3"])
    def test_apply_stacked_columns(self, rng, columns):
        graph, cov, truth = feasible_instance(rng, 6, 5, 2, POISSON)
        jac = build_jacobian(truth, cov, POISSON)
        approx = approx_inverse(jac)
        x = rng.normal(size=jac.dim if columns is None else (jac.dim, columns))
        out = approx.apply(x)
        assert out.shape == x.shape
        np.testing.assert_allclose(out, dense_approx_inverse(approx) @ x, rtol=1e-12,
                                   atol=1e-12)

    def test_importable_from_package_inference_and_fitter(self):
        import bimoment

        assert bimoment.approx_inverse is inference.approx_inverse
        assert inference.approx_inverse is fitter.approx_inverse
        assert bimoment.InverseApproximation is fitter.InverseApproximation

    def test_error_decays_on_random_instances(self):
        errors = []
        for k, n in enumerate((20, 40, 80)):
            rng = np.random.default_rng(100 + k)
            graph, cov, truth = feasible_instance(rng, n, n, 1, LOGISTIC,
                                                  theta_scale=0.2,
                                                  gamma_scale=0.2)
            jac = build_jacobian(truth, cov, LOGISTIC)
            s = dense_approx_inverse(approx_inverse(jac))
            v_inv = np.linalg.inv(jac.dense())
            errors.append(np.abs(v_inv - s).max())
        assert errors[0] > errors[1] > errors[2]

    def test_reconstruction_approaches_identity(self):
        deviations = []
        for n in (20, 40, 80):
            params = ParameterSet.zeros(n, n, 0)
            jac = build_jacobian(params, CovariateTensor.empty(n, n), LOGISTIC)
            s = dense_approx_inverse(approx_inverse(jac))
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
        inv_alpha_diag, inv_cross, inv_beta_diag = jac.inverse_blocks()
        np.testing.assert_allclose(inv_alpha_diag, np.diag(v_inv)[:7], atol=1e-10)
        np.testing.assert_allclose(inv_cross, v_inv[:7, 7:], atol=1e-10)
        np.testing.assert_allclose(inv_beta_diag, np.diag(v_inv)[7:], atol=1e-10)


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
        sigma = score_terms(result)
        h = profile_jacobian(result.params, cov, POISSON)
        assert np.abs(sigma - h).max() / np.abs(h).max() < 1e-10

    def test_degenerate_covariates_ill_posed(self, rng):
        graph, _, _ = feasible_instance(rng, 5, 4, 0, LOGISTIC)
        zeros = CovariateTensor(np.zeros((5, 4, 1)))
        params = ParameterSet.zeros(5, 4, 1)
        synthetic = synthetic_fit(graph, zeros, LOGISTIC, params)
        with pytest.raises(IllPosedError):
            coefficient_covariance(synthetic, "fisher")

    @pytest.mark.parametrize("family", [LOGISTIC, POISSON])
    @pytest.mark.parametrize("method", ["fisher", "sandwich"])
    def test_inference_without_covariates_is_empty(self, rng, monkeypatch, family, method):
        graph, cov, _ = feasible_instance(rng, 6, 5, 0, family)
        result = fit(graph, cov, family)
        # an empty bias term needs neither the curvatures nor V's inverse
        monkeypatch.setattr(StructuredJacobian, "inverse_blocks", None)
        monkeypatch.setattr(type(family), "mean_d2", None)
        ci = coefficient_inference(result, method)
        assert ci.covariance.shape == (0, 0)
        for arr in (ci.estimate, ci.standard_errors, ci.b_star, ci.estimate_bc):
            assert arr.shape == (0,)

    def test_unknown_method(self, rng):
        graph, cov, _ = feasible_instance(rng, 5, 4, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        with pytest.raises(ConfigError):
            coefficient_covariance(result, "bootstrap")

    def test_wide_shape_standard_errors_match_dense_fisher(self, rng):
        # m < n-1: the structured solves factor the actor-side complement
        graph, cov, _ = feasible_instance(rng, 8, 40, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        jac = result.jacobian
        c = mixed_moment_derivative(cov, jac.slopes)
        a = np.einsum("ijk,ijl,ij->kl", cov.values, cov.values, jac.slopes)
        joint_fisher = np.block([[jac.dense(), c.T], [c, a]])
        gamma_cov = np.linalg.inv(joint_fisher)[jac.dim:, jac.dim:]
        np.testing.assert_allclose(
            coefficient_inference(result).standard_errors,
            np.sqrt(np.diag(gamma_cov)), rtol=0, atol=1e-8,
        )

    def test_information_computed_once_per_inference(self, rng, monkeypatch):
        graph, cov, _ = feasible_instance(rng, 10, 8, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        calls = []

        def counting_information(*args):
            calls.append(args)
            return information(*args)

        information = inference.information_at
        monkeypatch.setattr(inference, "information_at", counting_information)
        for method in ("fisher", "sandwich"):
            coefficient_inference(result, method)
            coefficient_covariance(result, method)
            components_from_fit(result, method)
            report_rows(result, method)
        assert len(calls) == 1

    def test_sandwich_report_reads_one_linearization(self, rng, monkeypatch):
        # after the fit, the sandwich report makes one covariate pass for
        # C and A, one for the score covariance, and one exact solve for
        # V^-1 C^T, which H and the score covariance share
        graph, cov, _ = feasible_instance(rng, 60, 60, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        counts = Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        assert fitter.plane_moments is inference.plane_moments is data.plane_moments
        for module in (data, fitter, inference):
            count(module, "plane_moments", "plane_moments")
        count(StructuredJacobian, "solve", "solve")
        report_rows(result, "sandwich")
        assert counts == {"plane_moments": 2, "solve": 1}


class ScaledVarianceLogistic(ModelFamily):
    """A family outside the exponential class: the logistic mean with the
    variance scaled by ``c``.  It implements only the six methods of the
    family contract."""

    name = "scaled-variance-logistic"
    support = "binary"
    exponential_family = False
    c = 1.3

    def mean(self, eta):
        return LOGISTIC.mean(eta)

    def mean_d1(self, eta):
        return LOGISTIC.mean_d1(eta)

    def mean_d1_given_mean(self, eta, mu):
        return LOGISTIC.mean_d1_given_mean(eta, mu)

    def mean_d2(self, eta):
        return LOGISTIC.mean_d2(eta)

    def variance(self, eta):
        mu = LOGISTIC.mean(eta)
        return self.c * mu * (1.0 - mu)

    def sample(self, eta, rng):
        return LOGISTIC.sample(eta, rng)


class TestNonExponentialFamily:
    def test_fit_and_inference_scale_with_the_variance(self, rng):
        # the moment equations read only the mean, so the estimate is the
        # logistic one; the variance, c times the slope, scales the
        # sandwich covariance and the general bias form by c and the node
        # standard errors by sqrt(c)
        family = ScaledVarianceLogistic()
        c = family.c
        graph, cov, _ = feasible_instance(rng, 10, 8, 2, LOGISTIC)
        scaled = fit(graph, cov, family)
        logistic = fit(graph, cov, LOGISTIC)
        for name in ("alpha", "beta", "gamma"):
            assert np.array_equal(getattr(scaled.params, name),
                                  getattr(logistic.params, name))
        fisher = coefficient_covariance(scaled, "fisher")
        assert np.array_equal(fisher, coefficient_covariance(logistic, "fisher"))
        np.testing.assert_allclose(coefficient_covariance(scaled, "sandwich"),
                                   c * fisher, rtol=1e-10)
        np.testing.assert_allclose(coefficient_inference(scaled).b_star,
                                   c * coefficient_inference(logistic).b_star,
                                   rtol=1e-10)
        se, se_logistic = node_standard_errors(scaled), node_standard_errors(logistic)
        np.testing.assert_allclose(se.alpha, math.sqrt(c) * se_logistic.alpha, rtol=1e-12)
        np.testing.assert_allclose(se.beta, math.sqrt(c) * se_logistic.beta, rtol=1e-12)
        for method in ("fisher", "sandwich"):
            rows = report_rows(scaled, method)
            assert len(rows) == graph.m + graph.n - 1 + 2 * cov.p
            assert all(math.isfinite(r.p_value) and r.se > 0 for r in rows)

    @pytest.mark.parametrize("p", [2, 0])
    def test_variance_runs_once_per_fit(self, rng, monkeypatch, p):
        family = ScaledVarianceLogistic()
        graph, cov, _ = feasible_instance(rng, 10, 8, p, LOGISTIC)
        result = fit(graph, cov, family)
        shapes = []
        variance = ScaledVarianceLogistic.variance

        def counted(self, eta):
            shapes.append(eta.shape)
            return variance(self, eta)

        monkeypatch.setattr(ScaledVarianceLogistic, "variance", counted)
        for method in ("fisher", "sandwich"):
            report_rows(result, method)
            components_from_fit(result, method)
            node_standard_errors(result)
            coefficient_inference(result, method)
        assert shapes == [(10, 8)]

    def test_non_positive_variance_is_degenerate(self, rng, monkeypatch):
        graph, cov, _ = feasible_instance(rng, 10, 8, 1, LOGISTIC)
        result = fit(graph, cov, ScaledVarianceLogistic())
        monkeypatch.setattr(ScaledVarianceLogistic, "c", 0.0)
        for read in (node_standard_errors, components_from_fit, score_terms):
            with pytest.raises(ModelDegeneracyError, match="edge variances"):
                read(result)


def from_scratch(result, method):
    """Everything the inference state caches, recomputed from the fitted
    parameters alone with the formulas' own arithmetic: a fresh predictor
    and Jacobian, ``profile_jacobian`` for ``H`` and a fresh
    ``build_jacobian(...).inverse_blocks()`` for the bias term."""
    params, cov, family = result.params, result.covariates, result.family
    m, n, big_n = result.m, result.n, result.n_edges
    pi = params.linear_predictor(cov)
    jac = build_jacobian(params, cov, family)
    var = family.variance(pi)
    u_diag = np.concatenate([var.sum(axis=1), var[:, :-1].sum(axis=0)])
    u_tail = float(var[:, -1].sum())
    node_se = np.sqrt(u_diag / jac.diag**2 + u_tail / jac.v_tail**2)
    out = dict(node_se=node_se, v_diag=jac.diag, v_tail=jac.v_tail,
               u_diag=u_diag, u_tail=u_tail)
    if cov.p == 0:
        return out | dict(covariance=np.zeros((0, 0)), b_star=np.zeros(0),
                          estimate_bc=np.zeros(0))
    h = profile_jacobian(params, cov, family)
    h_inv = np.linalg.inv(h)
    if method == "fisher":
        gamma_cov = h_inv
    else:
        fresh = synthetic_fit(result.graph, cov, family, params)
        gamma_cov = h_inv @ score_terms(fresh) @ h_inv
    gamma_cov = 0.5 * (gamma_cov + gamma_cov.T)
    inv_alpha_diag, inv_cross, inv_beta_diag = \
        build_jacobian(params, cov, family).inverse_blocks()
    q = np.empty((m, n))
    q[:, : n - 1] = inv_alpha_diag[:, None] + 2.0 * inv_cross + inv_beta_diag[None, :]
    q[:, n - 1] = inv_alpha_diag
    b_star = cov.total(family.mean_d2(pi) * q) / (2.0 * math.sqrt(big_n))
    gamma_bc = params.gamma + np.linalg.solve(h / big_n, b_star) / math.sqrt(big_n)
    return out | dict(covariance=gamma_cov, b_star=b_star, estimate_bc=gamma_bc)


class TestInferenceState:
    """Inference reads one state per fit: the fit's own predictor and
    Jacobian and the small quantities derived from them, each computed
    once and bit-identical to a from-scratch recomputation."""

    @pytest.mark.parametrize("family, p", [(LOGISTIC, 2), (POISSON, 1), (LOGISTIC, 0)],
                             ids=["logistic-p2", "poisson-p1", "logistic-p0"])
    def test_cached_state_matches_recomputation(self, rng, family, p):
        graph, cov, _ = feasible_instance(rng, 12, 9, p, family)
        result = fit(graph, cov, family)
        for method in ("fisher", "sandwich"):
            want = from_scratch(result, method)
            for _ in range(2):      # the first call fills the state, the second reads it
                ci = coefficient_inference(result, method)
                comp = components_from_fit(result, method)
                se = node_standard_errors(result)
                assert np.array_equal(ci.covariance, want["covariance"])
                assert np.array_equal(coefficient_covariance(result, method),
                                      want["covariance"])
                assert np.array_equal(ci.standard_errors, np.sqrt(np.diag(want["covariance"])))
                assert np.array_equal(ci.b_star, want["b_star"])
                assert np.array_equal(ci.estimate_bc, want["estimate_bc"])
                assert np.array_equal(comp.gamma_covariance, want["covariance"])
                for name in ("v_diag", "v_tail", "u_diag", "u_tail"):
                    assert np.array_equal(getattr(comp, name), want[name])
                assert np.array_equal(np.concatenate([se.alpha, se.beta]), want["node_se"])

    @pytest.mark.parametrize("family", [LOGISTIC, POISSON], ids=lambda f: f.name)
    def test_exponential_family_variances_read_from_the_jacobian(self, rng, monkeypatch,
                                                                 family):
        graph, cov, _ = feasible_instance(rng, 12, 9, 2, family)
        result = fit(graph, cov, family)
        # the same fit, its variances recomputed by ``family.variance``
        recomputing = type("Recomputing", (type(family),), {"exponential_family": False})
        plain = dataclasses.replace(result, family=recomputing())
        want_sigma = score_terms(plain)
        plain_comp = components_from_fit(plain)
        monkeypatch.setattr(type(family), "variance", None)   # a call would fail
        assert np.array_equal(score_terms(result), want_sigma)
        comp = components_from_fit(result)
        assert np.array_equal(comp.u_diag, plain_comp.u_diag)
        assert comp.u_tail == plain_comp.u_tail
        assert not result.jacobian.diag.flags.writeable
        assert inference._degree_covariance(result) is result.jacobian

    def test_fit_linearization_matches_parameters(self, rng):
        graph, cov, _ = feasible_instance(rng, 10, 14, 2, POISSON)
        result = fit(graph, cov, POISSON)
        pi = result.params.linear_predictor(cov)
        assert np.array_equal(result.predictor, pi)
        assert np.array_equal(result.jacobian.slopes, POISSON.mean_d1(pi))
        assert result.jacobian.summary() == build_jacobian(
            result.params, cov, POISSON).summary()

    def test_state_keeps_only_small_read_only_results(self, rng):
        graph, cov, _ = feasible_instance(rng, 12, 9, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        for method in ("fisher", "sandwich"):
            report_rows(result, method)
            components_from_fit(result, method)

        def arrays_in(value):
            if isinstance(value, np.ndarray):
                return [value]
            if dataclasses.is_dataclass(value):
                value = tuple(vars(value).values())
            if isinstance(value, tuple):
                return [arr for item in value for arr in arrays_in(item)]
            return []

        # the node SEs of both sides, H, X_C, two covariances, b_star,
        # gamma_bc; U is the fit's own Jacobian
        arrays = arrays_in(tuple(result.inference_cache.values()))
        assert len(arrays) == 8
        for arr in arrays:
            assert not arr.flags.writeable
            assert arr.size <= max(cov.p**2, (graph.m + graph.n - 1) * cov.p)
        with pytest.raises(ValueError):
            coefficient_inference(result).covariance[0, 0] = 1.0


class TestIncidentalBias:
    def test_zero_curvature_gives_zero_bias(self, rng):
        # logistic curvature vanishes at zero parameters
        graph = checkerboard_graph(8, 8)
        cov = CovariateTensor(rng.choice([-1.0, 1.0], (8, 8, 2)))
        params = ParameterSet.zeros(8, 8, 2)
        synthetic = synthetic_fit(graph, cov, LOGISTIC, params)
        np.testing.assert_allclose(incidental_bias_expfam(synthetic), 0.0,
                                   atol=1e-15)

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

    def test_components_json_round_trip(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        comp = components_from_fit(fit(graph, cov, LOGISTIC), "sandwich")
        back = InferenceComponents.from_json(comp.to_json())
        for f in dataclasses.fields(InferenceComponents):
            assert np.array_equal(getattr(back, f.name), getattr(comp, f.name)), f.name

    def test_degree_se_is_the_only_degree_standard_error(self, rng):
        graph, cov, _ = feasible_instance(rng, 7, 6, 1, POISSON)
        result = fit(graph, cov, POISSON)
        comp = components_from_fit(result)
        node_se = node_standard_errors(result)
        assert np.array_equal(comp.degree_se(slice(None)),
                              np.concatenate([node_se.alpha, node_se.beta]))
        for i in range(result.m):
            assert comp.degree_se(i) == node_se.alpha[i]
            assert wald_test(result, f"alpha:{i + 1}").standard_error == node_se.alpha[i]
        for j in range(result.n - 1):
            assert comp.degree_se(result.m + j) == node_se.beta[j]
        # a difference drops the coupling term of each single variance
        diff = comp.degree_se(result.m, result.m + 1)
        assert wald_test(result, "beta:1-beta:2").standard_error == diff
        coupling = comp.u_tail / comp.v_tail**2
        assert diff**2 == pytest.approx(node_se.beta[0]**2 + node_se.beta[1]**2
                                        - 2.0 * coupling, rel=1e-12)

    @pytest.mark.parametrize("contrast, null_value", [
        ("alpha:1", math.nan), ("beta:1-beta:2", math.inf), ("gamma:1=1e999", None),
    ], ids=["nan", "inf", "overflowing-contrast"])
    def test_non_finite_null_is_config_error(self, rng, contrast, null_value):
        graph, cov, _ = feasible_instance(rng, 6, 5, 1, LOGISTIC)
        comp = components_from_fit(fit(graph, cov, LOGISTIC))
        with pytest.raises(ConfigError, match="finite"):
            wald_from_components(comp, contrast, null_value)


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

    @pytest.mark.parametrize("bias_correct", [True, False])
    def test_rows_without_covariates(self, rng, bias_correct):
        graph, cov, _ = feasible_instance(rng, 6, 5, 0, LOGISTIC)
        rows = report_rows(fit(graph, cov, LOGISTIC), bias_correct=bias_correct)
        assert [r.name for r in rows] == (
            [f"alpha:{i}" for i in range(1, 7)] + [f"beta:{j}" for j in range(1, 5)])

    def test_bias_correction_rows_optional(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        rows = report_rows(result, bias_correct=False)
        assert not any(r.name.startswith("gamma_bc") for r in rows)

    def test_confidence_bounds_use_the_95_quantile(self, rng):
        assert inference.Z_95 == float(ndtri(0.975))
        graph, cov, _ = feasible_instance(rng, 5, 4, 1, LOGISTIC)
        for r in report_rows(fit(graph, cov, LOGISTIC)):
            assert r.ci_low == r.estimate - inference.Z_95 * r.se, r.name
            assert r.ci_high == r.estimate + inference.Z_95 * r.se, r.name


def same_bits(a, b):
    """Equal to the bit, signed zeros included; NaNs only need to sit at
    the same places (their payloads are not part of the contract)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


class TestNormalFunctions:
    """The package takes the standard normal from ``scipy.special``;
    ``scipy.stats.norm`` is the oracle it must match to the bit."""

    def test_special_functions_match_norm(self):
        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
        x = np.concatenate([edges, np.linspace(-40.0, 40.0, 4001),
                            np.logspace(-300.0, 3.0, 500)])
        assert same_bits(ndtr(-np.abs(x)), norm.sf(np.abs(x)))
        assert same_bits(ndtr(x), norm.cdf(x))
        q = np.concatenate([[0.0, -0.0, 1.0, math.nan, 5e-324, 1.0 - 2.0**-53],
                            np.linspace(0.0, 1.0, 4001), np.logspace(-300.0, 0.0, 500)])
        assert same_bits(ndtri(q), norm.ppf(q))

    def test_report_rows_match_norm(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        rows = report_rows(fit(graph, cov, LOGISTIC))
        z = norm.ppf(0.975)
        for r in rows:
            assert r.p_value == 2.0 * norm.sf(abs(r.statistic)), r.name
            assert r.ci_low == r.estimate - z * r.se, r.name
            assert r.ci_high == r.estimate + z * r.se, r.name

    def test_wald_p_value_matches_norm(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 1, LOGISTIC)
        comp = components_from_fit(fit(graph, cov, LOGISTIC))
        for contrast in ("alpha:1", "beta:1-beta:2", "gamma:1=0.3"):
            test = wald_from_components(comp, contrast)
            assert test.p_value == 2.0 * float(norm.sf(abs(test.statistic))), contrast

    def test_public_ndtr_when_direct_load_fails(self, rng, monkeypatch):
        import scipy.special
        graph, cov, _ = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        comp = components_from_fit(result)
        want = ([r.p_value for r in report_rows(result)],
                wald_from_components(comp, "gamma:1").p_value)

        tried = []

        def no_module(name):
            tried.append(name)
            raise ImportError(name)

        monkeypatch.setattr(inference, "load_compiled", no_module)
        inference._ndtr.cache_clear()
        try:
            assert inference._ndtr() is scipy.special.ndtr
            assert tried == ["scipy.special._special_ufuncs"]
            got = ([r.p_value for r in report_rows(result)],
                   wald_from_components(comp, "gamma:1").p_value)
        finally:
            inference._ndtr.cache_clear()
        assert got == want
