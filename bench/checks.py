"""Correctness checks computed apart from the program, with numpy only.

Each check takes the estimate or standard errors the program reported and
returns a list of failure messages (empty when it passes).  The reference
values come from the benchmark's own inputs and dense linear algebra: the
moment equations, the closed-form node standard errors, the inverse of the
dense joint Fisher information, and the analytic bias term built from a
dense inverse of the degree-equation Jacobian.  ``self_test`` feeds
perturbed values through the same checks and reports any check that
accepts them.
"""

from __future__ import annotations

import math

import numpy as np

# The fitter stops at sup-norm residuals of 1e-8; recomputing the
# residuals in another order moves them by far less than this.
MOMENT_TOL = 1e-6
# report.tsv carries ten significant digits.
REPORT_RTOL = 1e-8
# Dense and structured linear algebra agree to far better than this.
DENSE_RTOL = 1e-6
# "Within a few standard errors of the truth".
TRUTH_SES = 5.0
Z_95 = 1.959963984540054


def logistic(eta):
    return 1.0 / (1.0 + np.exp(-eta))


def moment_residuals(x, z, alpha, beta, gamma):
    """Sup norms of the degree residuals (every actor and every event) and
    of the covariate residuals at ``(alpha, beta, gamma)``."""
    mu = logistic(alpha[:, None] + beta[None, :] + z @ gamma)
    degree = np.concatenate([mu.sum(axis=1) - x.sum(axis=1), mu.sum(axis=0) - x.sum(axis=0)])
    covariate = np.einsum("ijk,ij->k", z, mu - x)
    return float(np.abs(degree).max()), float(np.abs(covariate).max())


def check_moments(x, z, alpha, beta, gamma, tol=MOMENT_TOL):
    deg, cov = moment_residuals(x, z, alpha, beta, gamma)
    if deg <= tol and cov <= tol:
        return []
    return [f"moment equations fail: degree residual {deg:.3g}, "
            f"covariate residual {cov:.3g} (tolerance {tol:g})"]


def node_standard_errors(w):
    """``sqrt(1/v_ii + 1/v_tail)`` for every actor and events 1..n-1,
    from the slopes ``w`` (``v_ii`` the row or column total, ``v_tail``
    the last event's total)."""
    v_tail = w[:, -1].sum()
    return (np.sqrt(1.0 / w.sum(axis=1) + 1.0 / v_tail),
            np.sqrt(1.0 / w[:, :-1].sum(axis=0) + 1.0 / v_tail))


def check_close(what, reported, expected, rtol, atol=0.0):
    reported, expected = np.asarray(reported, float), np.asarray(expected, float)
    if reported.shape != expected.shape:
        return [f"{what}: shape {reported.shape} != {expected.shape}"]
    err = np.abs(reported - expected)
    bad = err > atol + rtol * np.abs(expected)
    if not bad.any():
        return []
    k = int(np.argmax(err - rtol * np.abs(expected)))
    return [f"{what}: {int(bad.sum())} of {bad.size} differ, e.g. #{k}: "
            f"{reported.flat[k]!r} vs {expected.flat[k]!r}"]


class DenseReference:
    """Inference quantities at an estimate, from dense matrices.

    ``cov_gamma`` is the coefficient block of the inverse of the joint
    Fisher information of ``(alpha, beta_1..beta_{n-1}, gamma)``;
    ``gamma_bc`` adds the analytic bias correction
    ``sqrt(N) cov_gamma b`` with
    ``b = sum_ij z_ij mu''_ij q_ij / (2 sqrt(N))`` and ``q_ij`` the
    quadratic form of the dense inverse Jacobian in the two degree
    coordinates that edge (i, j) feeds.
    """

    def __init__(self, z, alpha, beta, gamma):
        m, n, p = z.shape
        mu = logistic(alpha[:, None] + beta[None, :] + z @ gamma)
        w = mu * (1.0 - mu)
        d = m + n - 1
        info = np.zeros((d + p, d + p))
        info[np.arange(m), np.arange(m)] = w.sum(axis=1)
        info[np.arange(m, d), np.arange(m, d)] = w[:, :-1].sum(axis=0)
        info[:m, m:d] = w[:, :-1]
        info[m:d, :m] = w[:, :-1].T
        cross = np.concatenate([np.einsum("ijk,ij->ki", z, w),
                                np.einsum("ijk,ij->kj", z[:, :-1], w[:, :-1])], axis=1)
        info[d:, :d] = cross
        info[:d, d:] = cross.T
        info[d:, d:] = np.einsum("ijk,ijl,ij->kl", z, z, w)
        self.cov_gamma = np.linalg.inv(info)[d:, d:]
        self.se_gamma = np.sqrt(np.diag(self.cov_gamma))

        v_inv = np.linalg.inv(info[:d, :d])
        diag = np.diag(v_inv)
        q = np.empty((m, n))
        q[:, :-1] = diag[:m, None] + 2.0 * v_inv[:m, m:] + diag[None, m:]
        q[:, -1] = diag[:m]
        root_n = math.sqrt(m * n)
        b = np.einsum("ijk,ij->k", z, w * (1.0 - 2.0 * mu) * q) / (2.0 * root_n)
        self.gamma = gamma
        self.gamma_bc = gamma + root_n * self.cov_gamma @ b
        self.w = w


def check_gamma_se(ref: DenseReference, reported_se):
    return check_close("gamma standard errors vs dense Fisher inverse",
                       reported_se, ref.se_gamma, DENSE_RTOL)


def check_gamma_bc(ref: DenseReference, reported_bc):
    # compare the corrections, which are small next to the estimates
    return check_close("bias-corrected gamma vs dense bias term",
                       np.asarray(reported_bc) - ref.gamma, ref.gamma_bc - ref.gamma,
                       DENSE_RTOL, atol=1e-10)


def check_node_se(w, alpha_se, beta_se, rtol=REPORT_RTOL):
    exp_a, exp_b = node_standard_errors(w)
    return (check_close("alpha standard errors", alpha_se, exp_a, rtol)
            + check_close("beta standard errors", beta_se, exp_b, rtol))


def check_truth(what, estimate, se, truth, k=TRUTH_SES):
    dev = np.abs(np.asarray(estimate) - np.asarray(truth)) / np.asarray(se)
    if np.all(dev <= k):
        return []
    return [f"{what} {np.round(estimate, 5).tolist()} is {dev.max():.1f} standard "
            f"errors from the truth {list(truth)}"]


def check_estimate(x, z, alpha, beta, gamma, se_gamma, gamma_bc, truth,
                   ref: DenseReference = None, alpha_se=None, beta_se=None):
    """All estimate-level checks; ``ref`` is computed when not given."""
    if ref is None:
        ref = DenseReference(z, alpha, beta, gamma)
    failures = (check_moments(x, z, alpha, beta, gamma)
                + check_gamma_se(ref, se_gamma)
                + check_gamma_bc(ref, gamma_bc)
                + check_truth("gamma", gamma, se_gamma, truth)
                + check_truth("gamma_bc", gamma_bc, se_gamma, truth))
    if alpha_se is not None:
        failures += check_node_se(ref.w, alpha_se, beta_se)
    return failures


def self_test(x, z, alpha, beta, gamma, se_gamma, gamma_bc, truth,
              ref: DenseReference, alpha_se=None, beta_se=None):
    """Perturb one reported quantity at a time; every perturbation must be
    caught.  Returns messages for the perturbations that went unnoticed."""
    se = np.asarray(se_gamma)
    bumped = alpha.copy()
    bumped[0] += 1e-4
    cases = {
        "alpha_1 + 1e-4": lambda: check_moments(x, z, bumped, beta, gamma),
        "gamma + 1e-4": lambda: check_moments(x, z, alpha, beta, gamma + 1e-4),
        "gamma + 10 se": lambda: check_truth("gamma", gamma + 10 * se, se, truth),
        "gamma se x 1.01": lambda: check_gamma_se(ref, se * 1.01),
        "gamma_bc + 0.1 se": lambda: check_gamma_bc(ref, np.asarray(gamma_bc) + 0.1 * se),
    }
    if alpha_se is not None:
        cases["alpha se x 1.001"] = lambda: check_node_se(
            ref.w, np.asarray(alpha_se) * 1.001, beta_se)
    return [f"self-test: check accepted perturbed {label}"
            for label, run in cases.items() if not run()]


def binomial_band(rate: float, trials: int, k: float = 4.0):
    """``rate`` plus and minus ``k`` binomial standard errors."""
    half = k * math.sqrt(rate * (1.0 - rate) / trials)
    return rate - half, rate + half
