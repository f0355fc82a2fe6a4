"""Fitter tests: residual evaluation against brute-force loops, the
structured Jacobian and its Schur solve against dense oracles, its
conjugate-gradient solve against the Schur solve, the inner Newton solve
against a generic root-finder, and the full fit against a generic
likelihood maximizer (below the CG gate) and against the factored fit
(above it)."""

import math
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from bimoment import (
    BipartiteGraph,
    ConfigError,
    CovariateTensor,
    DataError,
    DomainError,
    FitError,
    FitOptions,
    IllPosedError,
    NonExistenceError,
    ParameterSet,
    SingularJacobianError,
    coefficient_inference,
    degrees,
    fit,
    generate_covariates,
    generate_truth,
    get_family,
    simulate_network,
)
from bimoment import fitter
from bimoment.families import LogisticFamily, PoissonFamily
from bimoment.fitter import (
    StructuredJacobian,
    build_jacobian,
    covariate_residuals,
    degree_residuals,
    mixed_moment_derivative,
    profile_jacobian,
    profiled_residuals,
    solve_degree_params,
)
from bimoment.simlab import Scenario, run_replication

import oracles
from conftest import dense_approx_inverse, feasible_instance

LOGISTIC = get_family("logistic")
POISSON = get_family("poisson")

# A Poisson scenario whose truth reaches a predictor of 28, close to the
# family's cap of 30: Newton trials from the starting point overshoot it.
EXTREME_POISSON = Scenario(m=20, n=20, L=10.0, gamma_star=(4.0, 4.0),
                           family="poisson", replications=10, seed=3)


def brute_force_residuals(params, graph, cov, family):
    """Double-loop evaluation of the degree and covariate residuals."""
    m, n, p = graph.m, graph.n, cov.p
    f = np.zeros(m + n - 1)
    q = np.zeros(p)
    for i in range(m):
        for j in range(n):
            eta = params.alpha[i] + params.beta[j]
            if p:
                eta += float(cov.values[i, j] @ params.gamma)
            mu = family.mean(eta)
            f[i] += mu
            if j < n - 1:
                f[m + j] += mu
            if p:
                q += cov.values[i, j] * (mu - graph.weights[i, j])
    deg = degrees(graph)
    f[:m] -= deg.d
    f[m:] -= deg.b[:-1]
    return f, q


class TestResiduals:
    def test_balanced_logistic_rows_vanish(self):
        # every actor sees exactly n/2 edges, so expected degree n*mu(0) = d_i
        weights = np.tile([1.0, 0.0, 1.0, 0.0], (3, 1))
        graph = BipartiteGraph(weights, ("a", "b", "c"), ("w", "x", "y", "z"))
        params = ParameterSet.zeros(3, 4, 0)
        f = degree_residuals(params, graph, CovariateTensor.empty(3, 4), LOGISTIC)
        assert np.allclose(f[:3], 0.0)

    def test_zero_graph_poisson(self):
        graph = BipartiteGraph(np.zeros((3, 4)), "abc", "wxyz")
        params = ParameterSet.zeros(3, 4, 0)
        f = degree_residuals(params, graph, CovariateTensor.empty(3, 4), POISSON)
        assert np.allclose(f[:3], 4.0)  # sum_k e^0 - 0

    def test_matches_brute_force(self, rng):
        graph, cov, _truth = feasible_instance(rng, 4, 3, 2, LOGISTIC)
        params = ParameterSet(
            alpha=rng.normal(0, 0.5, 4),
            beta=np.append(rng.normal(0, 0.5, 2), 0.0),
            gamma=rng.normal(0, 0.5, 2),
        )
        f = degree_residuals(params, graph, cov, LOGISTIC)
        q = covariate_residuals(params, graph, cov, LOGISTIC)
        f_ref, q_ref = brute_force_residuals(params, graph, cov, LOGISTIC)
        np.testing.assert_allclose(f, f_ref, atol=1e-12)
        np.testing.assert_allclose(q, q_ref, atol=1e-12)

    def test_covariate_residuals_edge_cases(self, rng):
        graph, _, _ = feasible_instance(rng, 4, 3, 0, LOGISTIC)
        params = ParameterSet.zeros(4, 3, 0)
        assert covariate_residuals(
            params, graph, CovariateTensor.empty(4, 3), LOGISTIC
        ).shape == (0,)
        zeros = CovariateTensor(np.zeros((4, 3, 2)))
        params2 = ParameterSet.zeros(4, 3, 2)
        assert np.array_equal(
            covariate_residuals(params2, graph, zeros, LOGISTIC), np.zeros(2)
        )


class TestStructuredJacobian:
    def test_logistic_values_at_zero(self):
        params = ParameterSet.zeros(3, 3, 0)
        jac = build_jacobian(params, CovariateTensor.empty(3, 3), LOGISTIC)
        assert np.allclose(jac.diag_alpha, 0.75)
        assert np.allclose(jac.cross, 0.25)

    def test_poisson_values_at_zero(self):
        params = ParameterSet.zeros(2, 2, 0)
        jac = build_jacobian(params, CovariateTensor.empty(2, 2), POISSON)
        assert jac.diag_alpha[0] == pytest.approx(2.0)

    def test_class_membership(self, rng):
        graph, cov, truth = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        jac = build_jacobian(truth, cov, LOGISTIC)
        dense = jac.dense()
        m, n = 6, 5
        assert np.allclose(dense, dense.T)
        # within-block off-diagonals vanish
        assert np.allclose(dense[:m, :m] - np.diag(np.diag(dense[:m, :m])), 0.0)
        assert np.allclose(dense[m:, m:] - np.diag(np.diag(dense[m:, m:])), 0.0)
        # cross entries strictly positive
        assert (dense[:m, m:] > 0).all()
        # diagonal dominance: exact equality on event rows, a surplus of
        # the dropped column's slope on actor rows
        offdiag = np.abs(dense).sum(axis=1) - np.diag(dense)
        np.testing.assert_allclose(offdiag[m:], np.diag(dense)[m:], rtol=1e-12)
        np.testing.assert_allclose(
            np.diag(dense)[:m] - offdiag[:m], jac.slopes[:, -1], rtol=1e-12
        )
        # positive definite
        np.linalg.cholesky(dense)

    def test_nonpositive_slope_is_a_fit_error(self):
        with pytest.raises(FitError):
            StructuredJacobian([[0.1, 0.0], [0.2, 0.3]])


class TestStructuredSolve:
    def test_decoupled_limit_is_pure_diagonal(self):
        # with a single event there is no cross block at all, so the solve
        # must reduce to division by the diagonal exactly; this is the only
        # fully decoupled member of the matrix class (the event diagonal
        # always equals its cross-column sum)
        jac = StructuredJacobian(np.array([[0.5], [0.25], [0.125], [2.0]]))
        rhs = np.arange(1.0, 5.0)
        np.testing.assert_allclose(jac.solve(rhs), rhs / jac.diag, rtol=1e-14)

    def test_residual_small(self, rng):
        graph, cov, truth = feasible_instance(rng, 5, 4, 1, LOGISTIC)
        jac = build_jacobian(truth, cov, LOGISTIC)
        rhs = rng.normal(size=jac.dim)
        x = jac.solve(rhs)
        assert np.abs(jac.dense() @ x - rhs).max() < 1e-10

    def test_agrees_with_dense_solver(self, rng):
        graph, cov, truth = feasible_instance(rng, 8, 6, 2, POISSON)
        jac = build_jacobian(truth, cov, POISSON)
        rhs = rng.normal(size=(jac.dim, 3))
        x = jac.solve(rhs)
        x_ref = np.linalg.solve(jac.dense(), rhs)
        assert np.abs(x - x_ref).max() < 1e-10

    def test_single_event_edge_case(self):
        jac = StructuredJacobian(np.full((3, 1), 0.2))
        x = jac.solve(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, np.array([5.0, 10.0, 15.0]))

    # m < n-1, the boundary m == n-1 and m = 1 keep the actor block;
    # m > n-1 and the single event keep the event block; n = 2 keeps one
    # event, or one actor when m = 1
    @pytest.mark.parametrize("shape", [(3, 9), (5, 6), (6, 5), (9, 3), (1, 5), (4, 1),
                                       (5, 2), (1, 2)])
    def test_both_elimination_sides_match_dense_inverse(self, rng, shape):
        m = shape[0]
        jac = StructuredJacobian(rng.uniform(0.05, 0.25, size=shape))
        dense = jac.dense()
        kept, elim = (slice(0, m), slice(m, jac.dim)) if m <= shape[1] - 1 else \
            (slice(m, jac.dim), slice(0, m))
        complement = jac.schur_complement()
        assert np.array_equal(complement, complement.T)
        np.testing.assert_allclose(
            complement,
            dense[kept, kept] - dense[kept, elim] @ np.linalg.solve(dense[elim, elim],
                                                                    dense[elim, kept]),
            rtol=0, atol=1e-12,
        )
        v_inv = np.linalg.inv(dense)
        vec = rng.normal(size=jac.dim)
        stacked = rng.normal(size=(jac.dim, 3))
        np.testing.assert_allclose(jac.solve(vec), v_inv @ vec, rtol=0, atol=1e-10)
        np.testing.assert_allclose(jac.solve(stacked), v_inv @ stacked, rtol=0,
                                   atol=1e-10)
        inv_alpha_diag, inv_cross, inv_beta_diag = jac.inverse_blocks()
        np.testing.assert_allclose(inv_alpha_diag, np.diag(v_inv)[:m], rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(inv_cross, v_inv[:m, m:], rtol=0, atol=1e-10)
        np.testing.assert_allclose(inv_beta_diag, np.diag(v_inv)[m:], rtol=0,
                                   atol=1e-10)


class ChoJacobian(StructuredJacobian):
    """The exact solves through scipy's ``cho_factor``/``cho_solve``
    wrappers, and the complement's inverse through ``cho_factor`` and the
    public ``scipy.linalg.lapack.dpotri``: the reference for the direct
    LAPACK calls."""

    @cached_property
    def _schur_factor(self):
        return scipy.linalg.cho_factor(self.schur_complement(), lower=True)

    def _complement_solve(self, rhs):
        return scipy.linalg.cho_solve(self._schur_factor, rhs)

    def _complement_inverse(self):
        factor, lower = self._schur_factor
        inverse = np.tril(scipy.linalg.lapack.dpotri(factor, lower=lower)[0])
        return inverse + np.tril(inverse, -1).T


class TestDirectLapack:
    """``dpotrf``/``dpotrs``/``dpotri`` called directly give the very bits
    of scipy's ``cho_factor``/``cho_solve`` and its public ``dpotri``."""

    # kept side of 1, 2 and 100 nodes, keeping the actors (m <= n-1) and
    # keeping the events
    @pytest.mark.parametrize("shape", [(1, 5), (2, 7), (100, 130),
                                       (6, 2), (7, 3), (130, 101)])
    def test_exact_solves_match_cho_wrappers(self, rng, shape):
        slopes = rng.uniform(0.05, 0.25, size=shape)
        jac, ref = StructuredJacobian(slopes), ChoJacobian(slopes)
        vec = rng.normal(size=jac.dim)
        stacked = rng.normal(size=(jac.dim, 3))
        for rhs in (vec, stacked, stacked[:, :1]):
            before = rhs.copy()
            assert np.array_equal(jac.solve(rhs), ref.solve(rhs))
            assert np.array_equal(rhs, before)   # the caller's right-hand side is kept
        for got, expected in zip(jac.inverse_blocks(), ref.inverse_blocks()):
            assert np.array_equal(got, expected)
        # the mirrored dpotri inverse is exactly symmetric, and the cached
        # factor it copies still gives the same solves
        inverse = jac._complement_inverse()
        assert np.array_equal(inverse, inverse.T)
        assert np.array_equal(jac.solve(stacked), ref.solve(stacked))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_newton_direction_matches_cho_wrappers(self, rng, p):
        graph, cov, truth = feasible_instance(rng, 9, 7, p, LOGISTIC)
        slopes = LOGISTIC.mean_d1(truth.linear_predictor(cov))
        res = fitter.MomentResiduals(degree=rng.normal(size=graph.m + graph.n - 1),
                                     covariate=rng.normal(size=p))
        dtheta, dgamma, _ = fitter._newton_direction(slopes, cov, res)
        # the same block elimination, its p x p solve by the scipy wrappers
        c, a = fitter.covariate_moments(cov, slopes)
        x = ChoJacobian(slopes).solve(np.column_stack([res.degree, c.T]))
        x_f, x_c = x[:, 0], x[:, 1:]
        h = a - c @ x_c
        h = 0.5 * (h + h.T)
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(h, lower=True),
                                      res.covariate - c @ x_f)
        assert np.array_equal(dgamma, want)
        assert np.array_equal(dtheta, x_f - x_c @ want)

    @pytest.mark.parametrize("shape", [(3, 9), (9, 3)])
    def test_non_pd_complement_is_singular(self, rng, monkeypatch, shape):
        k = min(shape[0], shape[1] - 1)
        indefinite = np.eye(k)
        indefinite[-1, -1] = -1.0
        monkeypatch.setattr(StructuredJacobian, "schur_complement",
                            lambda self: indefinite.copy())
        jac = StructuredJacobian(rng.uniform(0.05, 0.25, size=shape))
        with pytest.raises(SingularJacobianError, match="not PD"):
            jac.solve(np.ones(jac.dim))
        with pytest.raises(SingularJacobianError):
            StructuredJacobian(jac.slopes).inverse_blocks()

    # a small fit whose Schur complement dpotrf factors, its estimate in hex
    FIT_BITS = (
        "import numpy as np\n"
        "from bimoment import fit, generate_covariates, generate_truth, get_family,"
        " simulate_network\n"
        "rng = np.random.default_rng(7)\n"
        "truth = generate_truth(12, 10, 0.0, (0.5, 1.0))\n"
        "cov = generate_covariates(12, 10, 'sign-product-2d', rng)\n"
        "graph = simulate_network(truth, cov, get_family('logistic'), rng)\n"
        "res = fit(graph, cov, get_family('logistic'))\n"
        "print(np.concatenate([res.params.theta, res.params.gamma]).tobytes().hex())\n"
    )

    @staticmethod
    def run_fresh(code):
        src = Path(fitter.__file__).resolve().parents[1]
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout

    @pytest.mark.parametrize("first, second", [("scipy.linalg", "bimoment"),
                                               ("bimoment", "scipy.linalg"),
                                               ("scipy.special", "bimoment"),
                                               ("bimoment", "scipy.special")])
    def test_routines_are_scipy_exports(self, first, second):
        # each compiled module is loaded once, whichever package imports it
        # first; inference loads ndtr on first use, so it is taken between
        self.run_fresh(
            f"import {first}\n"
            "import bimoment.inference as inference\n"
            "ndtr = inference._ndtr()\n"
            f"import {second}\n"
            "import scipy.linalg.lapack as lapack, scipy.special as special\n"
            "import bimoment.fitter as fitter\n"
            "assert fitter.dpotrf is lapack.dpotrf and fitter.dpotrs is lapack.dpotrs\n"
            "assert fitter.dpotri is lapack.dpotri\n"
            "assert ndtr is special.ndtr\n")

    def test_public_import_when_direct_load_fails(self):
        # a lookup that finds no scipy directory makes the direct load fail
        out = self.run_fresh(
            "import importlib.util, sys\n"
            "find_spec = importlib.util.find_spec\n"
            "importlib.util.find_spec = lambda name, package=None: (\n"
            "    None if name == 'scipy' else find_spec(name, package))\n"
            "import bimoment.fitter as fitter\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "import scipy.linalg.lapack as lapack\n"
            "assert fitter.dpotrf is lapack.dpotrf and fitter.dpotrs is lapack.dpotrs\n"
            "assert fitter.dpotri is lapack.dpotri\n"
            + self.FIT_BITS)
        assert out == self.run_fresh(self.FIT_BITS)


class TestInnerSolve:
    def test_matches_generic_root_finder(self, rng):
        graph, cov, truth = feasible_instance(rng, 3, 2, 0, LOGISTIC)
        gamma = np.zeros(0)

        def fun(theta):
            params = ParameterSet.from_theta(theta, gamma, 3, 2)
            f, _ = brute_force_residuals(params, graph, cov, LOGISTIC)
            return f

        generic = scipy.optimize.root(fun, np.zeros(4), method="hybr", tol=1e-12)
        assert generic.success
        params, _ = solve_degree_params(
            gamma, graph, cov, LOGISTIC, FitOptions(tol=1e-12)
        )
        assert np.abs(params.theta - generic.x).max() < 1e-8

    def test_zero_degree_actor_is_nonexistent(self):
        weights = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        graph = BipartiteGraph(weights, "abc", "xy")
        with pytest.raises(NonExistenceError, match="degree 0"):
            solve_degree_params(np.zeros(0), graph, CovariateTensor.empty(3, 2),
                                LOGISTIC)

    def test_out_of_domain_start_is_nonexistent(self, rng):
        # on the +-1 covariates the start predictor reaches +-31, past
        # POISSON_ETA_CAP = 30
        graph, cov, _ = feasible_instance(rng, 5, 4, 1, POISSON)
        with pytest.raises(NonExistenceError, match="working domain"):
            solve_degree_params(np.array([31.0]), graph, cov, POISSON)

    def test_saturated_actor_is_nonexistent(self):
        weights = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        graph = BipartiteGraph(weights, "abc", "xy")
        with pytest.raises(NonExistenceError):
            solve_degree_params(np.zeros(0), graph, CovariateTensor.empty(3, 2),
                                LOGISTIC)

    @pytest.mark.parametrize("weights, message", [
        ([[0, 0], [1, 1], [1, 0]], "actor 'a' has degree 0"),   # b is full: zeros first
        ([[1, 0, 1], [0, 0, 1], [1, 0, 0]], "event 'y' has degree 0"),
        ([[1, 1], [1, 0], [0, 1]], "actor 'a' is connected to every event"),
        ([[1, 0, 0], [1, 1, 0], [1, 0, 1]], "event 'x' is connected to every actor"),
    ])
    def test_infeasible_degrees_name_the_first_node(self, weights, message):
        graph = BipartiteGraph(np.array(weights, dtype=float), "abc", "xyz"[:len(weights[0])])
        cov = CovariateTensor.empty(graph.m, graph.n)
        expected = f"^{message}; the degree equations have no finite solution$"
        for solve in (lambda: solve_degree_params(np.zeros(0), graph, cov, LOGISTIC),
                      lambda: fit(graph, cov, LOGISTIC)):
            with pytest.raises(NonExistenceError, match=expected):
                solve()

    def test_transposed_covariates_are_a_data_error(self, rng):
        # the (6, 4) planes hold as many entries as the (4, 6) graph, so
        # without the shape check the predictor would reshape them silently
        graph, cov, _ = feasible_instance(rng, 4, 6, 1, LOGISTIC)
        transposed = CovariateTensor(np.swapaxes(cov.values, 0, 1))
        for solve in (lambda: solve_degree_params(np.zeros(1), graph, transposed, LOGISTIC),
                      lambda: fit(graph, transposed, LOGISTIC)):
            with pytest.raises(DataError, match=r"\(6, 4\) do not match .*\(4, 6\)"):
                solve()

    def test_non_binary_weights_under_logistic_are_a_data_error(self, rng):
        graph, cov, _ = feasible_instance(rng, 5, 4, 0, POISSON)
        assert not graph.is_binary
        for solve in (lambda: solve_degree_params(np.zeros(0), graph, cov, LOGISTIC),
                      lambda: fit(graph, cov, LOGISTIC)):
            with pytest.raises(DataError, match="0/1 weight matrix"):
                solve()

    def test_mismatched_lengths_are_a_data_error(self, rng):
        graph, cov, _ = feasible_instance(rng, 5, 4, 1, LOGISTIC)
        with pytest.raises(DataError, match=r"^gamma has length 2, expected covariates\.p = 1$"):
            solve_degree_params(np.zeros(2), graph, cov, LOGISTIC)

    def test_consistency_rate_monte_carlo(self):
        # at zero truth the shipped-family rate constant is
        # slope_max^2 * subexp / slope_min^3 = (1/16) / (1/64) = 4
        m = n = 50
        threshold = 4.0 * 4.0 * math.sqrt(math.log(m) / m)
        cov = CovariateTensor.empty(m, n)
        truth = ParameterSet.zeros(m, n, 0)
        hits = 0
        total = 100
        for seed in range(total):
            rng = np.random.default_rng([2024, seed])
            graph = simulate_network(truth, cov, LOGISTIC, rng)
            try:
                params, _ = solve_degree_params(np.zeros(0), graph, cov, LOGISTIC)
            except NonExistenceError:
                continue
            if np.abs(params.theta).max() <= threshold:
                hits += 1
        assert hits >= 95


class TestProfiledResiduals:
    def test_empty_coefficient_vector(self, rng):
        graph, cov, _ = feasible_instance(rng, 4, 3, 0, LOGISTIC)
        q = profiled_residuals(np.zeros(0), graph, cov, LOGISTIC)
        assert q.shape == (0,)

    def test_composition_oracle(self, rng):
        graph, cov, truth = feasible_instance(rng, 5, 4, 2, LOGISTIC)
        gamma = np.array([0.2, -0.1])
        opts = FitOptions(tol=1e-12)
        q = profiled_residuals(gamma, graph, cov, LOGISTIC, opts)
        params, _ = solve_degree_params(gamma, graph, cov, LOGISTIC, opts)
        _, q_ref = brute_force_residuals(params, graph, cov, LOGISTIC)
        np.testing.assert_allclose(q, q_ref, atol=1e-9)

    def test_residuals_small_at_fitted_gamma(self, rng):
        graph, cov, truth = feasible_instance(rng, 12, 10, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        q = profiled_residuals(result.params.gamma, graph, cov, LOGISTIC)
        assert np.abs(q).max() <= FitOptions.tol * 10


class TestJointSolver:
    def test_profile_api_agrees_with_fit(self, rng):
        graph, cov, _ = feasible_instance(rng, 15, 12, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        gamma = result.params.gamma
        q = profiled_residuals(gamma, graph, cov, LOGISTIC)
        assert np.abs(q).max() <= FitOptions.tol
        params, _ = solve_degree_params(gamma, graph, cov, LOGISTIC,
                                        FitOptions(tol=1e-12))
        assert np.abs(params.theta - result.params.theta).max() < 1e-9

    def test_few_joint_steps_on_dense_logistic(self):
        class CountingLogistic(LogisticFamily):
            slope_evals = 0
            mean_d1_evals = 0

            def mean_d1_given_mean(self, eta, mu):
                self.slope_evals += 1
                return super().mean_d1_given_mean(eta, mu)

            def mean_d1(self, eta):
                self.mean_d1_evals += 1
                return super().mean_d1(eta)

        rng = np.random.default_rng([20260810, 100])
        truth = generate_truth(100, 100, 0.0, (0.5, 1.0))
        cov = generate_covariates(100, 100, "sign-product-2d", rng)
        graph = simulate_network(truth, cov, LOGISTIC, rng)
        family = CountingLogistic()
        result = fit(graph, cov, family)
        steps = result.trace[-1].outer_iteration
        assert [rec.outer_iteration for rec in result.trace] == list(range(steps + 1))
        assert steps <= 8
        # one linearization per joint step, plus one at the estimate, each
        # from the mean its point already computed
        assert family.slope_evals == steps + 1
        assert family.mean_d1_evals == 0

    def test_out_of_domain_trials_are_halved(self):
        class CountingPoisson(PoissonFamily):
            domain_errors = 0

            def mean(self, eta):
                try:
                    return super().mean(eta)
                except DomainError:
                    self.domain_errors += 1
                    raise

        sc = EXTREME_POISSON
        rng = np.random.default_rng([sc.seed, 8])
        truth = generate_truth(sc.m, sc.n, sc.L, sc.gamma_star)
        cov = generate_covariates(sc.m, sc.n, sc.scheme, rng)
        family = CountingPoisson()
        graph = simulate_network(truth, cov, family, rng)
        try:
            fit(graph, cov, family)
        except FitError:
            pass
        assert family.domain_errors > 0

    def test_out_of_domain_replication_is_recorded(self):
        record = run_replication(EXTREME_POISSON, 8)
        assert record.replication == 8
        assert not record.converged

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("p", [0, 2])
    def test_non_finite_direction_is_a_stall(self, rng, monkeypatch, bad, p):
        graph, cov, _ = feasible_instance(rng, 6, 5, p, LOGISTIC)

        def non_finite_direction(slopes, covariates, res):
            dtheta = np.zeros(graph.m + graph.n - 1)
            dtheta[0] = bad
            return dtheta, np.zeros(covariates.p), 0

        monkeypatch.setattr(fitter, "_newton_direction", non_finite_direction)
        with pytest.raises(NonExistenceError, match="stalled"):
            fit(graph, cov, LOGISTIC)


# Shapes for the iterative-solve parity test: one actor, two events, and
# skewed both ways.
SKEWED_SHAPES = [(1, 2), (1, 40), (2, 40), (40, 2), (40, 3), (12, 2)]
SLOPE_MAX = 0.25   # the largest logistic slope


@st.composite
def slopes_and_rhs(draw):
    """Positive slopes whose range starts anywhere in [1e-8, 0.25] and
    spans at most three decades, with 1 or 3 right-hand sides or a
    vector.  Wider spreads within one matrix make ``V`` itself so
    ill-conditioned (condition ~1e7 at seven decades) that the exact
    solve and CG both lose digits against a 50-digit reference, and the
    exact solve stops being a 1e-10 oracle."""
    shape = draw(st.one_of(st.sampled_from(SKEWED_SHAPES),
                           st.tuples(st.integers(1, 12), st.integers(2, 12))))
    low = draw(st.floats(-8.0, math.log10(SLOPE_MAX)))
    high = min(low + draw(st.floats(0.0, 3.0)), math.log10(SLOPE_MAX))
    columns = draw(st.sampled_from((None, 1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slopes = 10.0 ** rng.uniform(low, high, size=shape)
    dim = shape[0] + shape[1] - 1
    rhs = rng.normal(size=dim if columns is None else (dim, columns))
    return slopes, rhs


def product_widths(monkeypatch):
    """Record the number of columns of every product with ``V`` that
    ``pcg_solve`` makes."""
    widths = []
    original = StructuredJacobian._product

    def recorded(jac, x):
        widths.append(x.shape[1])
        return original(jac, x)

    monkeypatch.setattr(StructuredJacobian, "_product", recorded)
    return widths


def above_the_gate(family, p):
    """A seeded (300, 320) instance: its kept side, 300 nodes, is past
    ``PCG_MIN_KEPT``."""
    return feasible_instance(np.random.default_rng(300 + p), 300, 320, p, family)


class TestIterativeSolve:
    # kept sides of 6 and 256 nodes (PCG_MIN_KEPT), keeping the actors
    # (m <= n-1) and keeping the events
    @pytest.mark.parametrize("shape", [(6, 10), (10, 7), (256, 300), (300, 257)])
    def test_product_matches_dense(self, rng, shape):
        jac = StructuredJacobian(rng.uniform(1e-3, 0.25, size=shape))
        dense = jac.dense()
        stacked = rng.normal(size=(jac.dim, 3))
        for x in (stacked[:, :1], stacked):
            np.testing.assert_allclose(jac._product(x), dense @ x, rtol=1e-13,
                                       atol=1e-13 * np.abs(dense @ x).max())

    @settings(max_examples=200, deadline=None)
    @given(slopes_and_rhs())
    def test_matches_exact_solve(self, case):
        slopes, rhs = case
        jac = StructuredJacobian(slopes)
        with np.errstate(all="raise"):
            x, iterations = jac.pcg_solve(rhs)
        assert iterations < fitter.PCG_MAX_ITER   # CG converged; no fallback
        exact = jac.solve(rhs)
        assert x.shape == exact.shape
        err = np.abs(x - exact).max(axis=0) / np.abs(exact).max(axis=0)
        assert (err <= 1e-10).all()

    def test_zero_column_returns_exact_zeros(self, rng, monkeypatch):
        jac = StructuredJacobian(rng.uniform(1e-3, 0.25, size=(9, 7)))
        rhs = rng.normal(size=(jac.dim, 3))
        rhs[:, 1] = 0.0
        widths = product_widths(monkeypatch)
        with np.errstate(all="raise"):
            x, _ = jac.pcg_solve(rhs)
            others, _ = jac.pcg_solve(rhs[:, [0, 2]])
        assert np.array_equal(x[:, 1], np.zeros(jac.dim))
        # BLAS may round a product of two columns differently from one of
        # three, so the other columns agree to roundoff, not bit for bit
        np.testing.assert_allclose(x[:, [0, 2]], others, rtol=1e-12, atol=0)
        assert max(widths) == 2   # the zero column never enters a product

    def test_converged_columns_stop_updating(self, rng, monkeypatch):
        # the first column is V v for an eigenvector v of the preconditioned
        # matrix, which CG solves in one iteration; the random second
        # column takes several, and the zero third none
        jac = StructuredJacobian(rng.uniform(1e-3, 0.25, size=(30, 25)))
        v = jac.dense()
        precond = np.linalg.inv(dense_approx_inverse(fitter.approx_inverse(jac)))
        eigvec = scipy.linalg.eigh(v, precond)[1][:, 5]
        rhs = np.column_stack([v @ eigvec, rng.normal(size=jac.dim),
                               np.zeros(jac.dim)])
        widths = product_widths(monkeypatch)
        with np.errstate(all="raise"):
            x, iterations = jac.pcg_solve(rhs)
        assert iterations > 2
        assert widths == [2] + [1] * (iterations - 1)
        np.testing.assert_allclose(x[:, 0], eigvec, rtol=0,
                                   atol=1e-12 * np.abs(eigvec).max())
        np.testing.assert_allclose(x, jac.solve(rhs), rtol=0,
                                   atol=1e-10 * np.abs(x).max())


class TestIterativeNewton:
    """``fit`` above the CG gate against ``fit`` with the gate raised so
    every step factors the Schur complement.  Acceptance 6 (the
    likelihood oracle) runs only below the gate; these tie the CG path
    to the factored one."""

    @pytest.mark.parametrize("family, p", [(LOGISTIC, 2), (POISSON, 1)],
                             ids=["logistic-p2", "poisson-p1"])
    def test_matches_factored_fit(self, family, p, monkeypatch):
        graph, cov, _ = above_the_gate(family, p)
        shipped = fit(graph, cov, family)
        monkeypatch.setattr(fitter, "PCG_MIN_KEPT", 10**9)
        factored = fit(graph, cov, family)
        assert [r.inner_iterations for r in shipped.trace] == \
            [r.inner_iterations for r in factored.trace]
        # the preconditioner keeps every step far from the fallback cap
        # (it takes 2 iterations at the start and 7-8 after)
        assert all(0 < r.linear_iterations <= 12 for r in shipped.trace[1:])
        assert all(r.linear_iterations == 0 for r in factored.trace)
        assert shipped.trace[0].linear_iterations == 0
        for name in ("alpha", "beta", "gamma"):
            np.testing.assert_allclose(getattr(shipped.params, name),
                                       getattr(factored.params, name),
                                       rtol=0, atol=1e-10)
        assert shipped.residuals.degree_norm <= FitOptions.tol
        assert shipped.residuals.covariate_norm <= FitOptions.tol
        np.testing.assert_allclose(
            coefficient_inference(shipped).standard_errors,
            coefficient_inference(factored).standard_errors, rtol=1e-10)

    def test_capped_cg_falls_back_to_the_factorization(self, monkeypatch):
        graph, cov, _ = above_the_gate(LOGISTIC, 2)
        solves = []
        original = StructuredJacobian.solve

        def counted(jac, rhs):
            solves.append(rhs.shape)
            return original(jac, rhs)

        monkeypatch.setattr(StructuredJacobian, "solve", counted)
        monkeypatch.setattr(fitter, "PCG_MAX_ITER", 1)
        capped = fit(graph, cov, LOGISTIC)
        steps = len(capped.trace) - 1
        assert len(solves) == steps   # every step fell back
        assert all(r.linear_iterations == 1 for r in capped.trace[1:])
        monkeypatch.setattr(fitter, "PCG_MIN_KEPT", 10**9)
        factored = fit(graph, cov, LOGISTIC)
        assert np.array_equal(capped.params.theta, factored.params.theta)
        assert np.array_equal(capped.params.gamma, factored.params.gamma)


class TestProfileJacobian:
    def test_degenerate_covariates_raise(self, rng):
        graph, _, _ = feasible_instance(rng, 4, 3, 0, LOGISTIC)
        zeros = CovariateTensor(np.zeros((4, 3, 1)))
        params = ParameterSet.zeros(4, 3, 1)
        with pytest.raises(IllPosedError):
            profile_jacobian(params, zeros, LOGISTIC)

    def test_finite_difference_oracle(self, rng):
        graph, cov, truth = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        h = profile_jacobian(result.params, cov, LOGISTIC)
        opts = FitOptions(tol=1e-13)
        step = 1e-5
        fd = np.zeros_like(h)
        for k in range(2):
            delta = np.zeros(2)
            delta[k] = step
            q_hi = profiled_residuals(result.params.gamma + delta, graph, cov,
                                      LOGISTIC, opts)
            q_lo = profiled_residuals(result.params.gamma - delta, graph, cov,
                                      LOGISTIC, opts)
            fd[:, k] = (q_hi - q_lo) / (2.0 * step)
        assert np.abs(fd - h).max() / np.abs(h).max() < 1e-4

    def test_single_covariate_matches_three_term_form(self, rng):
        # the closed-form three-term expression is exactly the information
        # matrix with the inverse approximation substituted for the exact
        # inverse (the rank-one coupling telescopes into the dropped-event
        # term), so it must agree with the exact value to within the
        # approximation error
        from bimoment.inference import approx_inverse

        graph, cov, truth = feasible_instance(rng, 40, 40, 1, LOGISTIC)
        slopes = LOGISTIC.mean_d1(truth.linear_predictor(cov))
        z = cov.values[:, :, 0]
        zw = z * slopes
        v_alpha = slopes.sum(axis=1)
        v_beta_full = np.append(slopes[:, :-1].sum(axis=0), slopes[:, -1].sum())
        three_term = (
            (z * zw).sum()
            - np.sum(zw.sum(axis=1) ** 2 / v_alpha)
            - np.sum(zw.sum(axis=0) ** 2 / v_beta_full)
        )
        jac = build_jacobian(truth, cov, LOGISTIC)
        c = mixed_moment_derivative(cov, slopes)
        s = dense_approx_inverse(approx_inverse(jac))
        h_with_s = float((np.einsum("ijk,ijl,ij->kl", cov.values, cov.values,
                                    slopes) - c @ s @ c.T)[0, 0])
        h_exact = profile_jacobian(truth, cov, LOGISTIC)[0, 0]
        # exact identity with the substituted inverse...
        assert three_term == pytest.approx(h_with_s, rel=1e-10)
        # ...and close to the exact value at the approximation's accuracy
        assert abs(three_term - h_exact) / abs(h_exact) < 0.05


class TestFitOptions:
    def test_defaults(self):
        assert FitOptions() == FitOptions(tol=1e-8, max_iter=50)

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")},
        {"tol": "1e-8"}, {"max_iter": 0}, {"max_iter": 2.5},
    ])
    def test_bad_values_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            FitOptions(**kwargs)


def offset_start(monkeypatch, seed, scale=0.5):
    """Make ``fit`` start its Newton iteration from a seeded normal offset
    of the zero start, in theta and in gamma."""
    offsets = np.random.default_rng(seed)
    damped_newton = fitter._damped_newton

    def shifted(graph, covariates, family, deg, theta, gamma, *args, **kwargs):
        theta = theta + scale * offsets.standard_normal(theta.shape)
        gamma = gamma + scale * offsets.standard_normal(gamma.shape)
        return damped_newton(graph, covariates, family, deg, theta, gamma,
                             *args, **kwargs)

    monkeypatch.setattr(fitter, "_damped_newton", shifted)


class TestFit:
    def test_pure_degree_model_matches_observed_degrees(self, rng):
        graph, cov, _ = feasible_instance(rng, 10, 8, 0, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        mu = LOGISTIC.mean(result.predictor)
        deg = degrees(graph)
        assert np.abs(mu.sum(axis=1) - deg.d).max() <= FitOptions.tol
        assert np.abs(mu.sum(axis=0) - deg.b).max() <= (10 + 8) * FitOptions.tol

    def test_dropped_degree_equation_holds_automatically(self, rng):
        graph, cov, _ = feasible_instance(rng, 9, 7, 2, POISSON)
        result = fit(graph, cov, POISSON)
        mu = POISSON.mean(result.predictor)
        b_last = degrees(graph).b[-1]
        tol = FitOptions.tol
        assert abs(mu[:, -1].sum() - b_last) <= (9 + 7) * tol

    def test_covariate_moment_identity_at_solution(self, rng):
        graph, cov, _ = feasible_instance(rng, 8, 6, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        mu = LOGISTIC.mean(result.predictor)
        lhs = np.einsum("ijk,ij->k", cov.values, mu)
        rhs = np.einsum("ijk,ij->k", cov.values, graph.weights)
        assert np.abs(lhs - rhs).max() <= FitOptions.tol

    def test_poisson_small_instance_matches_mle(self, rng):
        graph, cov, _ = feasible_instance(rng, 4, 3, 1, POISSON)
        result = fit(graph, cov, POISSON)
        mle = oracles.likelihood_maximizer(graph.weights, cov.values, "poisson")
        fitted = np.concatenate([result.params.theta, result.params.gamma])
        assert np.abs(fitted - mle).max() < 1e-6

    def test_warm_and_cold_start_agree(self, rng, monkeypatch):
        graph, cov, _ = feasible_instance(rng, 10, 8, 2, LOGISTIC)
        tol = 1e-10
        cold = fit(graph, cov, LOGISTIC, FitOptions(tol=tol))
        offset_start(monkeypatch, seed=5)
        warm = fit(graph, cov, LOGISTIC, FitOptions(tol=tol))
        assert warm.trace[0].degree_norm != cold.trace[0].degree_norm
        assert np.abs(cold.params.theta - warm.params.theta).max() < 10 * tol
        assert np.abs(cold.params.gamma - warm.params.gamma).max() < 10 * tol

    def test_reparameterization_invariance(self, rng, monkeypatch):
        # shifting truth by (+c, -c) leaves the edge distribution unchanged,
        # so the same seed gives the same graph and the same fitted means
        m, n = 8, 6
        cov = CovariateTensor(
            np.random.default_rng(3).choice([-1.0, 1.0], (m, n, 1)))
        base = ParameterSet(
            alpha=np.linspace(-0.3, 0.3, m),
            beta=np.append(np.linspace(0.4, -0.2, n - 1), 0.0),
            gamma=np.array([0.25]),
        )
        shift = 0.7
        shifted = ParameterSet(
            alpha=base.alpha + shift,
            beta=np.append(base.beta[:-1] - shift, 0.0),
            gamma=base.gamma,
        )
        # identical predictors except through beta_n, which the pin breaks:
        # regenerate under both and compare the sampled graphs via the
        # fitted means of whichever graphs admit a fit
        g1 = simulate_network(base, cov, LOGISTIC, np.random.default_rng(11))
        mu_base = LOGISTIC.mean(base.linear_predictor(cov))
        mu_shift = LOGISTIC.mean(shifted.linear_predictor(cov))
        # the shifted truth is NOT the same distribution (beta_n pinned), but
        # the alpha+beta sums agree away from the pinned column
        np.testing.assert_allclose(mu_base[:, :-1], mu_shift[:, :-1], atol=1e-12)
        result = fit(g1, cov, LOGISTIC)
        # fitted means are a function of the data alone, not of the start
        offset_start(monkeypatch, seed=7)
        refit = fit(g1, cov, LOGISTIC)
        assert refit.trace[0].degree_norm != result.trace[0].degree_norm
        np.testing.assert_allclose(
            LOGISTIC.mean(result.predictor), LOGISTIC.mean(refit.predictor),
            atol=1e-7,
        )

    def test_binary_family_rejects_weighted_graph(self):
        graph = BipartiteGraph(np.array([[2.0, 1.0], [1.0, 1.0]]), "ab", "xy")
        with pytest.raises(DataError, match="binary"):
            fit(graph, None, LOGISTIC)

    def test_trace_and_summary_populated(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 2, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        assert result.trace[-1].covariate_norm <= FitOptions.tol
        summary = result.jacobian.summary()
        assert summary["slope_min"] > 0
        assert summary["v_tail"] > 0

    def test_jacobian_in_class_at_solution(self, rng):
        graph, cov, _ = feasible_instance(rng, 6, 5, 1, LOGISTIC)
        result = fit(graph, cov, LOGISTIC)
        jac = result.jacobian
        assert (jac.slopes > 0).all()
        np.linalg.cholesky(jac.dense())


class TestParameterSet:
    def test_pin_enforced(self):
        with pytest.raises(ValueError, match="pin"):
            ParameterSet(alpha=np.zeros(2), beta=np.array([0.1, 0.2]),
                         gamma=np.zeros(0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ParameterSet(alpha=np.array([np.inf]), beta=np.zeros(2),
                         gamma=np.zeros(0))

    def test_theta_round_trip(self):
        ps = ParameterSet(alpha=np.array([1.0, 2.0]),
                          beta=np.array([3.0, 4.0, 0.0]),
                          gamma=np.array([5.0]))
        rebuilt = ParameterSet.from_theta(ps.theta, ps.gamma, 2, 3)
        assert np.array_equal(rebuilt.alpha, ps.alpha)
        assert np.array_equal(rebuilt.beta, ps.beta)

    def test_linear_predictor_matches_loops(self, rng):
        cov = CovariateTensor(rng.normal(size=(3, 4, 2)))
        ps = ParameterSet(alpha=rng.normal(size=3),
                          beta=np.append(rng.normal(size=3), 0.0),
                          gamma=rng.normal(size=2))
        pi = ps.linear_predictor(cov)
        for i in range(3):
            for j in range(4):
                expected = ps.alpha[i] + ps.beta[j] + cov.values[i, j] @ ps.gamma
                assert pi[i, j] == pytest.approx(expected)


def test_mixed_derivative_matches_brute_force(rng):
    graph, cov, truth = feasible_instance(rng, 5, 4, 2, LOGISTIC)
    slopes = LOGISTIC.mean_d1(truth.linear_predictor(cov))
    c = mixed_moment_derivative(cov, slopes)
    m, n = 5, 4
    ref = np.zeros_like(c)
    for i in range(m):
        for j in range(n):
            ref[:, i] += cov.values[i, j] * slopes[i, j]
            if j < n - 1:
                ref[:, m + j] += cov.values[i, j] * slopes[i, j]
    np.testing.assert_allclose(c, ref, atol=1e-12)
