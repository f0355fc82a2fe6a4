"""Moment-equation fitter for covariate-adjusted bipartite network models.

The model gives every actor ``i`` a heterogeneity parameter ``alpha_i``,
every event ``j`` a parameter ``beta_j`` (with ``beta_n`` pinned to zero
for identifiability), and the edge covariates a coefficient vector
``gamma``.  Edge weights are drawn independently from a family whose
mean at predictor ``pi_ij = alpha_i + beta_j + z_ij @ gamma`` is
``mu(pi_ij)``.

Fitting equates observed degrees and covariate-weighted edge totals with
their model expectations:

    sum_k mu(pi_ik) = d_i                 (one equation per actor)
    sum_k mu(pi_kj) = b_j                 (events 1..n-1; the n-th
                                           equation is linearly dependent
                                           through the total-weight
                                           identity and is dropped)
    sum_ij z_ij mu(pi_ij) = sum_ij z_ij x_ij

The solver is one damped Newton iteration on the joint vector
``(theta, gamma)`` (``theta``: alpha, then beta[:-1]).  Each step solves
the degree block, diagonally dominant with two diagonal blocks plus a
dense cross block, exactly via a Schur complement on the actor block, and
eliminates ``gamma`` through the p x p information matrix ``H``.  The
degree solve at fixed ``gamma`` and the profiled covariate residuals stay
as the profile API, the reference against which ``H`` is checked.

A solution need not exist (a zero-degree actor under a positive mean
function, for instance); divergence is detected and reported as
``NonExistenceError`` rather than looping forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .data import BipartiteGraph, CovariateTensor, DegreeVector, degrees
from .errors import (
    DataError,
    DomainError,
    IllPosedError,
    MaxIterationsError,
    ModelDegeneracyError,
    NonExistenceError,
    SingularJacobianError,
)
from .families import ModelFamily

# Divergence guard: beyond this magnitude every shipped family is fully
# saturated, so a parameter escaping it signals nonexistence.
PARAM_CAP = 40.0


@dataclass(frozen=True)
class ParameterSet:
    """Model parameters (alpha, beta, gamma) with ``beta[-1]`` pinned to 0."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        for name, arr in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if beta[-1] != 0.0:
            raise ValueError("beta[-1] must be exactly 0 (identifiability pin)")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @property
    def m(self) -> int:
        return self.alpha.shape[0]

    @property
    def n(self) -> int:
        return self.beta.shape[0]

    @property
    def p(self) -> int:
        return self.gamma.shape[0]

    @property
    def theta(self) -> np.ndarray:
        """Free degree parameters: alpha followed by beta[:-1]."""
        return np.concatenate([self.alpha, self.beta[:-1]])

    @classmethod
    def zeros(cls, m: int, n: int, p: int) -> "ParameterSet":
        return cls(alpha=np.zeros(m), beta=np.zeros(n), gamma=np.zeros(p))

    @classmethod
    def from_theta(cls, theta: np.ndarray, gamma: np.ndarray, m: int, n: int) -> "ParameterSet":
        theta = np.asarray(theta, dtype=float)
        beta = np.zeros(n)
        beta[: n - 1] = theta[m:]
        return cls(alpha=theta[:m], beta=beta, gamma=gamma)

    def linear_predictor(self, covariates: CovariateTensor) -> np.ndarray:
        """The m x n matrix pi_ij = alpha_i + beta_j + z_ij @ gamma."""
        pi = self.alpha[:, None] + self.beta[None, :]
        if self.p:
            pi = pi + covariates.values @ self.gamma
        return pi


@dataclass(frozen=True)
class FitOptions:
    """Solver controls.  Tolerances are sup-norm residual bounds:
    ``tol_inner`` on the degree residuals, ``tol_outer`` on the covariate
    residuals.  ``max_outer`` caps the Newton steps of ``fit``,
    ``max_inner`` those of ``solve_degree_params``."""

    tol_inner: float = 1e-8
    tol_outer: float = 1e-8
    max_inner: int = 100
    max_outer: int = 50
    max_halvings: int = 30
    init: str = "zero"  # "zero" | "degree"

    def __post_init__(self):
        if self.tol_inner <= 0 or self.tol_outer <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.init not in ("zero", "degree"):
            raise ValueError(f"unknown init rule {self.init!r}")


@dataclass(frozen=True)
class MomentResiduals:
    """Degree residuals (length m+n-1) and covariate residuals (length p)."""

    degree: np.ndarray
    covariate: np.ndarray

    @property
    def degree_norm(self) -> float:
        return float(np.abs(self.degree).max()) if self.degree.size else 0.0

    @property
    def covariate_norm(self) -> float:
        return float(np.abs(self.covariate).max()) if self.covariate.size else 0.0


class StructuredJacobian:
    """Jacobian of the degree residuals in its structured form.

    With slopes ``w_ij = mu'(pi_ij) > 0`` the matrix is

        [ diag(row sums of w)      w[:, :n-1]          ]
        [ w[:, :n-1]^T             diag(col sums of w) ]

    which is symmetric, nonnegative, diagonally dominant (the actor rows
    carry a surplus of ``w_in``, the dropped event column) and therefore
    positive definite.  Solves go through the Schur complement on the
    actor block: only the dense (n-1) x (n-1) complement is factored.
    """

    def __init__(self, slopes: np.ndarray):
        slopes = np.asarray(slopes, dtype=float)
        if slopes.ndim != 2:
            raise ValueError("slopes must be an m x n matrix")
        if not np.all(np.isfinite(slopes)) or np.any(slopes <= 0.0):
            raise ModelDegeneracyError(
                "mean slopes must be strictly positive over all pairs"
            )
        self.slopes = slopes
        self.m, self.n = slopes.shape
        self.dim = self.m + self.n - 1

    @cached_property
    def diag_alpha(self) -> np.ndarray:
        return self.slopes.sum(axis=1)

    @cached_property
    def diag_beta(self) -> np.ndarray:
        return self.slopes[:, :-1].sum(axis=0)

    @property
    def cross(self) -> np.ndarray:
        return self.slopes[:, :-1]

    @cached_property
    def diag(self) -> np.ndarray:
        """All m+n-1 diagonal entries."""
        return np.concatenate([self.diag_alpha, self.diag_beta])

    @cached_property
    def tail_weights(self) -> np.ndarray:
        """Per-row diagonal surplus (the implicit coupling to the dropped
        event): ``mu'(pi_in)`` for actor rows, zero for event rows."""
        return np.concatenate([self.slopes[:, -1], np.zeros(self.n - 1)])

    @cached_property
    def v_tail(self) -> float:
        """Total coupling weight, i.e. the dropped event's diagonal entry."""
        return float(self.slopes[:, -1].sum())

    @cached_property
    def _schur_factor(self):
        """Cholesky factor of diag_beta - cross^T diag_alpha^{-1} cross."""
        if self.n == 1:
            return None
        g = self.cross / self.diag_alpha[:, None]
        complement = np.diag(self.diag_beta) - self.cross.T @ g
        try:
            return scipy.linalg.cho_factor(complement, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"Schur complement not PD: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``V x = rhs`` exactly; accepts a vector or a matrix of
        stacked right-hand sides."""
        rhs = np.asarray(rhs, dtype=float)
        vector_in = rhs.ndim == 1
        r = rhs.reshape(self.dim, -1)
        ra, rb = r[: self.m], r[self.m :]
        xa0 = ra / self.diag_alpha[:, None]
        if self.n == 1:
            x = xa0
        else:
            xb = scipy.linalg.cho_solve(self._schur_factor, rb - self.cross.T @ xa0)
            xa = xa0 - (self.cross @ xb) / self.diag_alpha[:, None]
            x = np.vstack([xa, xb])
        return x[:, 0] if vector_in else x

    def inverse_blocks(self):
        """Blocks of the exact inverse needed by the inference formulas:
        the actor-diagonal, the dense actor-event block, and the dense
        event block.  Returns ``(inv_alpha_diag, inv_cross, inv_beta)``.
        """
        if self.n == 1:
            return 1.0 / self.diag_alpha, np.zeros((self.m, 0)), np.zeros((0, 0))
        inv_beta = scipy.linalg.cho_solve(self._schur_factor, np.eye(self.n - 1))
        g = self.cross / self.diag_alpha[:, None]
        inv_cross = -g @ inv_beta
        inv_alpha_diag = 1.0 / self.diag_alpha + np.einsum(
            "ij,ij->i", g @ inv_beta, g
        )
        return inv_alpha_diag, inv_cross, inv_beta

    def dense(self) -> np.ndarray:
        """Materialize the full (m+n-1) x (m+n-1) matrix (for tests and
        small-scale oracles)."""
        v = np.zeros((self.dim, self.dim))
        v[: self.m, : self.m] = np.diag(self.diag_alpha)
        v[self.m :, self.m :] = np.diag(self.diag_beta)
        v[: self.m, self.m :] = self.cross
        v[self.m :, : self.m] = self.cross.T
        return v

    def summary(self) -> dict:
        """Diagnostics: slope range and diagonal range at this point."""
        return {
            "slope_min": float(self.slopes.min()),
            "slope_max": float(self.slopes.max()),
            "diag_min": float(self.diag.min()),
            "diag_max": float(self.diag.max()),
            "v_tail": self.v_tail,
        }


@dataclass(frozen=True)
class IterationRecord:
    """One convergence-trace row: the Newton step index (0 for the start),
    the step halvings that step needed, and the residual sup norms at the
    accepted point."""

    outer_iteration: int
    inner_iterations: int
    degree_norm: float
    covariate_norm: float


@dataclass(frozen=True)
class FitResult:
    """A fitted model together with everything inference needs."""

    params: ParameterSet
    residuals: MomentResiduals
    converged: bool
    trace: tuple
    jacobian_summary: dict
    graph: BipartiteGraph
    covariates: CovariateTensor
    family: ModelFamily
    options: FitOptions

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def n_edges(self) -> int:
        """Total number of dyads N = m * n."""
        return self.graph.m * self.graph.n

    @cached_property
    def predictor(self) -> np.ndarray:
        return self.params.linear_predictor(self.covariates)

    @cached_property
    def jacobian(self) -> StructuredJacobian:
        return build_jacobian(self.params, self.covariates, self.family)


def degree_residuals(
    params: ParameterSet,
    graph: BipartiteGraph,
    covariates: CovariateTensor,
    family: ModelFamily,
) -> np.ndarray:
    """Expected-minus-observed degrees for all actors and events 1..n-1."""
    mu = family.mean(params.linear_predictor(covariates))
    deg = degrees(graph)
    return np.concatenate(
        [mu.sum(axis=1) - deg.d, mu[:, :-1].sum(axis=0) - deg.b[:-1]]
    )


def covariate_residuals(
    params: ParameterSet,
    graph: BipartiteGraph,
    covariates: CovariateTensor,
    family: ModelFamily,
) -> np.ndarray:
    """Covariate-weighted expected-minus-observed edge totals (length p)."""
    if covariates.p == 0:
        return np.zeros(0)
    mu = family.mean(params.linear_predictor(covariates))
    return np.einsum("ijk,ij->k", covariates.values, mu - graph.weights)


def build_jacobian(
    params: ParameterSet, covariates: CovariateTensor, family: ModelFamily
) -> StructuredJacobian:
    """Structured Jacobian of the degree residuals at ``params``."""
    slopes = family.mean_d1(params.linear_predictor(covariates))
    return StructuredJacobian(slopes)


def solve_structured(jacobian: StructuredJacobian, rhs: np.ndarray) -> np.ndarray:
    """Alias of ``StructuredJacobian.solve``, left out of the package
    exports; ``bench/tracer.py`` still wraps it by name."""
    return jacobian.solve(rhs)


def _check_feasible_degrees(graph, deg: DegreeVector, family: ModelFamily):
    """Fail fast on degree configurations that rule out a finite solution.

    Any family here has strictly positive means, so zero degrees are
    unreachable; for binary support, saturated degrees are as well.  The
    event-n equation is dropped from the system but is implied by the
    others, so its degree is checked too.
    """
    zero_d = np.nonzero(deg.d == 0)[0]
    zero_b = np.nonzero(deg.b == 0)[0]
    if zero_d.size:
        raise NonExistenceError(
            f"actor {graph.actor_labels[zero_d[0]]!r} has degree 0; "
            "the degree equations have no finite solution"
        )
    if zero_b.size:
        raise NonExistenceError(
            f"event {graph.event_labels[zero_b[0]]!r} has degree 0; "
            "the degree equations have no finite solution"
        )
    if family.support == "binary":
        full_d = np.nonzero(deg.d == graph.n)[0]
        full_b = np.nonzero(deg.b == graph.m)[0]
        if full_d.size:
            raise NonExistenceError(
                f"actor {graph.actor_labels[full_d[0]]!r} is connected to every "
                "event; the degree equations have no finite solution"
            )
        if full_b.size:
            raise NonExistenceError(
                f"event {graph.event_labels[full_b[0]]!r} is connected to every "
                "actor; the degree equations have no finite solution"
            )


def _initial_theta(graph, deg: DegreeVector, family: ModelFamily, init: str):
    """Starting degree parameters: zeros, or a method-of-moments guess."""
    m, n = graph.m, graph.n
    if init == "zero":
        return np.zeros(m + n - 1)
    if family.support == "binary":
        eps = 1.0 / (2.0 * max(m, n))
        pa = np.clip(deg.d / n, eps, 1 - eps)
        pb = np.clip(deg.b / m, eps, 1 - eps)
        alpha = np.log(pa / (1 - pa))
        beta_full = np.log(pb / (1 - pb))
    else:
        alpha = np.log((deg.d + 1.0) / n)
        beta_full = np.log((deg.b + 1.0) / m)
    beta_free = beta_full[:-1] - beta_full[-1]
    return np.concatenate([alpha / 2.0, beta_free / 2.0])


def solve_degree_params(
    gamma: np.ndarray,
    graph: BipartiteGraph,
    covariates: CovariateTensor,
    family: ModelFamily,
    options: FitOptions = FitOptions(),
    warm_start: np.ndarray = None,
) -> tuple:
    """Newton solve of the degree equations at fixed ``gamma``.

    Returns ``(params, trace)`` where ``trace`` is the sup-norm residual
    per iteration.  Raises ``NonExistenceError`` when the iteration
    diverges or the iteration cap is hit: by the theory a finite solution
    exists only with high probability, and divergence is the observable
    signature of the exceptional event.
    """
    deg = degrees(graph)
    _check_feasible_degrees(graph, deg, family)
    if warm_start is not None:
        theta = np.array(warm_start, dtype=float)
    else:
        theta = _initial_theta(graph, deg, family, options.init)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    params, _pi, _res, trace = _damped_newton(
        graph, covariates, family, deg, theta, gamma, options, free_gamma=False
    )
    return params, tuple(rec.degree_norm for rec in trace)


def profiled_residuals(
    gamma: np.ndarray,
    graph: BipartiteGraph,
    covariates: CovariateTensor,
    family: ModelFamily,
    options: FitOptions = FitOptions(),
    warm_start: np.ndarray = None,
) -> np.ndarray:
    """Covariate residuals evaluated at the profiled degree parameters
    (the degree solve at this ``gamma``)."""
    params, _trace = solve_degree_params(
        gamma, graph, covariates, family, options, warm_start
    )
    return covariate_residuals(params, graph, covariates, family)


def profile_jacobian(
    params: ParameterSet, covariates: CovariateTensor, family: ModelFamily
) -> np.ndarray:
    """Jacobian of the profiled covariate residuals with respect to gamma.

    For exponential families this is the Fisher information of the
    concentrated likelihood, and its inverse is the asymptotic covariance
    of the coefficient estimate.  Assembled with exact structured solves:

        H = sum_ij z z^T mu'  -  C V^{-1} C^T

    where ``C`` collects the mixed derivatives of the covariate residuals
    in the degree parameters.  Raises ``IllPosedError`` if the result is
    not symmetric positive definite.
    """
    if covariates.p == 0:
        return np.zeros((0, 0))
    slopes = family.mean_d1(params.linear_predictor(covariates))
    jac = StructuredJacobian(slopes)
    c = mixed_moment_derivative(covariates, slopes)
    h, _chol = _information(covariates, slopes, c, jac.solve(c.T))
    return h


def _information(covariates, slopes, c, x_c) -> tuple:
    """``H = A - C X_C`` with ``A = sum_ij z z^T mu'`` and ``X_C = V^{-1}
    C^T``, plus its lower Cholesky factor.  Raises ``IllPosedError``
    unless ``H`` is symmetric positive definite."""
    z = covariates.values
    h = np.einsum("ijk,ijl,ij->kl", z, z, slopes) - c @ x_c
    h = 0.5 * (h + h.T)
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise IllPosedError(
            "profiled information matrix is not positive definite; "
            "the coefficient estimate is ill-posed (degenerate covariates?)"
        ) from exc
    return h, chol


def mixed_moment_derivative(
    covariates: CovariateTensor, slopes: np.ndarray
) -> np.ndarray:
    """The p x (m+n-1) matrix of covariate-residual derivatives in the
    degree parameters: column i is ``sum_j z_ij mu'_ij``, column m+j is
    ``sum_i z_ij mu'_ij`` (events 1..n-1)."""
    z = covariates.values
    cols_alpha = np.einsum("ijk,ij->ki", z, slopes)
    cols_beta = np.einsum("ijk,ij->kj", z[:, :-1, :], slopes[:, :-1])
    return np.concatenate([cols_alpha, cols_beta], axis=1)


def fit(
    graph: BipartiteGraph,
    covariates: CovariateTensor = None,
    family: ModelFamily = None,
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Fit the model by the method of moments.

    One damped Newton iteration on ``(theta, gamma)``.  With degree and
    covariate residuals ``f`` and ``q``, the structured Jacobian ``V``,
    mixed derivatives ``C`` and ``A = sum_ij z z^T mu'``, each step solves

        [ V  C^T ] [dtheta]   [f]
        [ C   A  ] [dgamma] = [q]

    by eliminating the degree block: one stacked solve ``V [x_f, X_C] =
    [f, C^T]`` (a single Schur factorization), then ``dgamma = H^{-1} (q -
    C x_f)`` with ``H = A - C X_C`` and ``dtheta = x_f - X_C dgamma``.  The
    step is halved until ``max(|f|_inf, |q|_inf)`` decreases; a trial
    point outside the family's working domain counts as a failed trial.
    With ``p = 0`` this is Newton's method on the degree equations alone.

    It stops once ``|f|_inf <= tol_inner`` and ``|q|_inf <= tol_outer``.
    Raises ``NonExistenceError`` for infeasible degrees, a stall under
    full damping or degree parameters escaping ``PARAM_CAP``,
    ``MaxIterationsError`` after ``max_outer`` steps, and
    ``IllPosedError`` when ``H`` is not positive definite.
    """
    if family is None:
        raise ValueError("family is required")
    if covariates is None:
        covariates = CovariateTensor.empty(graph.m, graph.n)
    if (covariates.m, covariates.n) != (graph.m, graph.n):
        raise DataError(
            f"covariate dimensions {(covariates.m, covariates.n)} do not match "
            f"graph dimensions {(graph.m, graph.n)}"
        )
    if family.support == "binary" and not graph.is_binary:
        raise DataError("binary family requires a 0/1 weight matrix")

    deg = degrees(graph)
    _check_feasible_degrees(graph, deg, family)
    theta = _initial_theta(graph, deg, family, options.init)
    params, pi, residuals, trace = _damped_newton(
        graph, covariates, family, deg, theta, np.zeros(covariates.p), options,
        free_gamma=True,
    )
    return FitResult(
        params=params,
        residuals=residuals,
        converged=True,
        trace=tuple(trace),
        jacobian_summary=StructuredJacobian(family.mean_d1(pi)).summary(),
        graph=graph,
        covariates=covariates,
        family=family,
        options=options,
    )


def _damped_newton(graph, covariates, family, deg, theta, gamma, options, free_gamma):
    """Damped Newton on the moment equations from ``(theta, gamma)``.

    With ``free_gamma`` all m+n-1+p equations are solved (``fit``; at most
    ``max_outer`` steps, then ``MaxIterationsError``); otherwise ``gamma``
    stays fixed and only the degree equations are solved, so the
    residuals carry no covariate part (``solve_degree_params``; at most
    ``max_inner`` steps, then ``NonExistenceError``).  Returns ``(params,
    predictor, residuals, trace)`` at the last accepted point.
    """
    m, n = graph.m, graph.n
    observed_degrees = np.concatenate([deg.d, deg.b[:-1]])
    if free_gamma:
        observed_totals = np.einsum("ijk,ij->k", covariates.values, graph.weights)
        max_steps, cap_error = options.max_outer, MaxIterationsError
    else:
        max_steps, cap_error = options.max_inner, NonExistenceError

    def evaluate(theta, gamma):
        params = ParameterSet.from_theta(theta, gamma, m, n)
        pi = params.linear_predictor(covariates)
        mu = family.mean(pi)
        f = np.concatenate([mu.sum(axis=1), mu[:, :-1].sum(axis=0)]) - observed_degrees
        if free_gamma:
            q = np.einsum("ijk,ij->k", covariates.values, mu) - observed_totals
        else:
            q = np.zeros(0)
        return params, pi, MomentResiduals(degree=f, covariate=q)

    def merit(res):
        return max(res.degree_norm, res.covariate_norm)

    def merit_trace():
        return [max(rec.degree_norm, rec.covariate_norm) for rec in trace]

    try:
        params, pi, res = evaluate(theta, gamma)
    except DomainError as exc:
        raise NonExistenceError(
            f"starting point lies outside the family's working domain: {exc}"
        ) from exc
    trace = [IterationRecord(0, 0, res.degree_norm, res.covariate_norm)]
    while res.degree_norm > options.tol_inner or res.covariate_norm > options.tol_outer:
        step_index = len(trace)
        if step_index > max_steps:
            raise cap_error(
                f"Newton iteration did not reach tolerance in {max_steps} steps",
                trace=merit_trace(),
            )
        dtheta, dgamma = _newton_direction(family.mean_d1(pi), covariates, res)
        for halvings in range(options.max_halvings + 1):
            scale = 0.5**halvings
            trial_theta, trial_gamma = theta - scale * dtheta, gamma - scale * dgamma
            try:
                trial = evaluate(trial_theta, trial_gamma)
            except DomainError:
                continue  # trial point left the family's working domain
            if merit(trial[2]) < merit(res):
                break
        else:
            raise NonExistenceError(
                "Newton iteration stalled under full damping; "
                "no finite solution found",
                trace=merit_trace(),
            )
        theta, gamma = trial_theta, trial_gamma
        params, pi, res = trial
        trace.append(
            IterationRecord(step_index, halvings, res.degree_norm, res.covariate_norm)
        )
        if np.abs(theta).max() > PARAM_CAP:
            raise NonExistenceError(
                f"degree parameter escaped [-{PARAM_CAP:g}, {PARAM_CAP:g}]; "
                "the moment equations appear to have no finite solution",
                trace=merit_trace(),
            )
    return params, pi, res, trace


def _newton_direction(slopes, covariates: CovariateTensor, res: MomentResiduals):
    """Newton direction ``(dtheta, dgamma)`` at a point with mean slopes
    ``slopes`` and residuals ``res``, by block elimination of the degree
    equations (see ``fit``).  Residuals without a covariate part (``p =
    0``, or ``gamma`` held fixed) give the degree-only direction."""
    jac = StructuredJacobian(slopes)
    if res.covariate.size == 0:
        return jac.solve(res.degree), np.zeros(covariates.p)
    c = mixed_moment_derivative(covariates, slopes)
    x = jac.solve(np.column_stack([res.degree, c.T]))
    x_f, x_c = x[:, 0], x[:, 1:]
    _h, chol = _information(covariates, slopes, c, x_c)
    dgamma = scipy.linalg.cho_solve((chol, True), res.covariate - c @ x_f)
    return x_f - x_c @ dgamma, dgamma
