"""Independent reference computations for the test suite.

Nothing here calls ``bimoment``: each oracle takes its data as plain
arrays (the m x n weights, the (m, n, p) covariates) and works from its
own log densities and means with dense linear algebra or a generic
optimizer, so the package is checked against code it does not share.
Families are named by string: ``"logistic"`` or ``"poisson"``.
"""

import numpy as np
import scipy.optimize
from scipy.special import gammaln


def _logistic_log_density(x, eta):
    # log mu = -log1p(e^-eta), log(1 - mu) = -log1p(e^eta)
    return -(x * np.log1p(np.exp(-eta)) + (1.0 - x) * np.log1p(np.exp(eta)))


def _logistic_mean(eta):
    return 1.0 / (1.0 + np.exp(-eta))


def _logistic_slope(eta):
    mu = _logistic_mean(eta)
    return mu * (1.0 - mu)


def _poisson_log_density(x, eta):
    return x * eta - np.exp(eta) - gammaln(x + 1.0)


# name -> (log density, mean, derivative of the mean)
_FAMILIES = {
    "logistic": (_logistic_log_density, _logistic_mean, _logistic_slope),
    "poisson": (_poisson_log_density, np.exp, np.exp),
}


def log_density(family: str, x, eta):
    """Log probability (mass) of weight ``x`` at predictor ``eta``."""
    return _FAMILIES[family][0](np.asarray(x, dtype=float), np.asarray(eta, dtype=float))


def _predictor(theta, gamma, z):
    """``alpha_i + beta_j + z_ij @ gamma`` with ``theta = (alpha,
    beta[:-1])`` and ``beta[-1] = 0``."""
    m = z.shape[0]
    beta = np.append(theta[m:], 0.0)
    return theta[:m, None] + beta[None, :] + z @ gamma


def _degree_sums(x):
    return np.concatenate([x.sum(axis=1), x[:, :-1].sum(axis=0)])


def likelihood_maximizer(weights, z, family: str) -> np.ndarray:
    """Maximizer ``(theta, gamma)`` of the summed log density over all
    free parameters, by BFGS from zero and once more from its result."""
    weights, z = np.asarray(weights, dtype=float), np.asarray(z, dtype=float)
    density, mean, _slope = _FAMILIES[family]
    m, n, p = z.shape

    def negative_loglik(x):
        theta, gamma = x[: m + n - 1], x[m + n - 1 :]
        eta = _predictor(theta, gamma, z)
        resid = mean(eta) - weights
        grad = np.concatenate([_degree_sums(resid), np.einsum("ijk,ij->k", z, resid)])
        return -density(weights, eta).sum(), grad

    best = np.zeros(m + n - 1 + p)
    for _attempt in range(2):
        best = scipy.optimize.minimize(
            negative_loglik, best, jac=True, method="BFGS",
            options={"gtol": 1e-13, "maxiter": 10000},
        ).x
    return best


def degree_solve(weights, z, gamma, family: str, tol=1e-13, max_iter=100) -> np.ndarray:
    """Degree parameters ``theta`` that solve the degree equations at
    fixed ``gamma``: Newton on the dense (m+n-1) x (m+n-1) Jacobian from
    zero, each step halved until the residual sup norm decreases, until
    that norm is at most ``tol``."""
    weights, z = np.asarray(weights, dtype=float), np.asarray(z, dtype=float)
    _density, mean, slope = _FAMILIES[family]
    m, n = weights.shape
    observed = _degree_sums(weights)

    def residual(theta):
        return _degree_sums(mean(_predictor(theta, gamma, z))) - observed

    theta = np.zeros(m + n - 1)
    f = residual(theta)
    for _step in range(max_iter):
        if np.abs(f).max() <= tol:
            return theta
        w = slope(_predictor(theta, gamma, z))
        jac = np.diag(_degree_sums(w))
        jac[:m, m:] = w[:, :-1]
        jac[m:, :m] = w[:, :-1].T
        direction = np.linalg.solve(jac, f)
        for halvings in range(60):
            trial = theta - 0.5**halvings * direction
            f_trial = residual(trial)
            if np.abs(f_trial).max() < np.abs(f).max():
                break
        else:
            raise RuntimeError("degree solve stalled")
        theta, f = trial, f_trial
    raise RuntimeError(f"degree solve took more than {max_iter} steps")


def profiled_covariate_residuals(weights, z, gamma, family: str) -> np.ndarray:
    """Covariate-weighted expected-minus-observed edge totals at ``gamma``
    and the degree parameters ``degree_solve`` finds there."""
    weights, z = np.asarray(weights, dtype=float), np.asarray(z, dtype=float)
    mean = _FAMILIES[family][1]
    theta = degree_solve(weights, z, gamma, family)
    return np.einsum("ijk,ij->k", z, mean(_predictor(theta, gamma, z)) - weights)
