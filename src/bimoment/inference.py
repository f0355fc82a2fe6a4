"""Asymptotic inference for fitted bipartite network models.

Everything here is a pure function of an immutable :class:`FitResult`
evaluated at the fitted parameters: standard errors for the degree
parameters, a closed-form approximation to the inverse of the structured
Jacobian, the coefficient covariance (Fisher or sandwich form), the
analytic incidental-parameter bias of the coefficient estimate with its
plug-in correction, and Wald-type tests.

Scaling conventions, fixed once here so they do not leak:  ``N = m*n``
is the dyad count, ``H`` is the unscaled p x p information matrix of the
profiled system, ``h_bar = H / N``, and the bias-corrected coefficients
are ``gamma + solve(h_bar, b_star) / sqrt(N)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import ConfigError
from .fitter import (
    FitResult,
    StructuredJacobian,
    mixed_moment_derivative,
    profile_jacobian,
)


def _require_converged(fit: FitResult):
    if not fit.converged:
        raise ValueError("inference requires a converged fit")


@dataclass(frozen=True)
class InverseApproximation:
    """Closed-form approximation to the inverse of the structured Jacobian.

    The approximation is a diagonal part plus a rank-one coupling through
    the total weight of the dropped event column:  entry (i, j) equals
    ``delta_ij / v_ii`` plus ``1 / v_tail`` with a positive sign inside
    the actor block and the event block and a negative sign across them.
    """

    inv_diag: np.ndarray
    inv_coupling: float
    n_actors: int

    @property
    def _signs(self) -> np.ndarray:
        s = np.ones(self.inv_diag.shape[0])
        s[self.n_actors :] = -1.0
        return s

    def materialize(self) -> np.ndarray:
        s = self._signs
        return np.diag(self.inv_diag) + self.inv_coupling * np.outer(s, s)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product without materializing the full matrix."""
        s = self._signs
        return self.inv_diag * vec + self.inv_coupling * s * (s @ vec)


def approx_inverse(jacobian: StructuredJacobian) -> InverseApproximation:
    """Build the diagonal-plus-coupling inverse approximation."""
    return InverseApproximation(
        inv_diag=1.0 / jacobian.diag,
        inv_coupling=1.0 / jacobian.v_tail,
        n_actors=jacobian.m,
    )


def exact_inverse_apply(jacobian: StructuredJacobian, vec: np.ndarray) -> np.ndarray:
    """Alias of ``StructuredJacobian.solve``, left out of the package
    exports; ``bench/tracer.py`` still wraps it by name."""
    return jacobian.solve(vec)


def _degree_variances(fit: FitResult):
    """Entries of Cov(degree vector) at the fitted parameters: per-row
    diagonal ``u_diag`` (length m+n-1) and ``u_tail`` for the dropped
    event.  Coincides with the Jacobian diagonal for exponential
    families."""
    var = fit.family.variance(fit.predictor)
    u_diag = np.concatenate([var.sum(axis=1), var[:, :-1].sum(axis=0)])
    return u_diag, float(var[:, -1].sum())


@dataclass(frozen=True)
class NodeStandardErrors:
    """Asymptotic standard errors for the degree parameters."""

    alpha: np.ndarray
    beta: np.ndarray  # events 1..n-1; the n-th parameter is pinned


def node_standard_errors(fit: FitResult) -> NodeStandardErrors:
    """Standard errors of the fitted degree parameters.

    The general form is ``sqrt(u_ii / v_ii^2 + u_tail / v_tail^2)``; for
    exponential families ``u = v`` and it collapses to
    ``sqrt(1 / v_ii + 1 / v_tail)``.
    """
    _require_converged(fit)
    jac = fit.jacobian
    u_diag, u_tail = _degree_variances(fit)
    se = np.sqrt(u_diag / jac.diag**2 + u_tail / jac.v_tail**2)
    return NodeStandardErrors(alpha=se[: fit.m], beta=se[fit.m :])


@dataclass(frozen=True)
class ScoreTermSet:
    """Per-edge score directions and their accumulated covariance.

    ``adjusted_covariates[i, j]`` is the covariate vector corrected for
    the feedback of the edge through the degree equations; ``sigma`` is
    ``sum_ij Var(x_ij) ztilde ztilde^T``.
    """

    adjusted_covariates: np.ndarray
    sigma: np.ndarray


def score_terms(fit: FitResult) -> ScoreTermSet:
    """Assemble the score covariance with exact inverse applications."""
    jac = fit.jacobian
    z = fit.covariates.values
    m, n, p = fit.m, fit.n, fit.covariates.p
    c = mixed_moment_derivative(fit.covariates, jac.slopes)
    k = jac.solve(c.T).T  # p x (m+n-1)
    ztilde = z.copy()
    ztilde -= k[:, :m].T[:, None, :]
    ztilde[:, : n - 1, :] -= k[:, m:].T[None, :, :]
    var = fit.family.variance(fit.predictor)
    sigma = np.einsum("ijk,ijl,ij->kl", ztilde, ztilde, var)
    sigma = 0.5 * (sigma + sigma.T)
    return ScoreTermSet(adjusted_covariates=ztilde, sigma=sigma)


def coefficient_covariance(fit: FitResult, method: str = "fisher") -> np.ndarray:
    """Covariance matrix of the fitted coefficients.

    ``fisher`` inverts the profiled information matrix (exact for
    exponential families); ``sandwich`` wraps the score covariance in the
    inverse information and agrees with ``fisher`` whenever the variance
    function equals the mean slope.
    """
    _require_converged(fit)
    if method not in ("fisher", "sandwich"):
        raise ConfigError(f"unknown covariance method {method!r}")
    p = fit.covariates.p
    if p == 0:
        return np.zeros((0, 0))
    h = profile_jacobian(fit.params, fit.covariates, fit.family)
    h_inv = np.linalg.inv(h)
    if method == "fisher":
        cov = h_inv
    else:
        cov = h_inv @ score_terms(fit).sigma @ h_inv
    return 0.5 * (cov + cov.T)


def _pair_inverse_quadratics(fit: FitResult, use_approx: bool) -> np.ndarray:
    """The m x n matrix of quadratic forms ``t_ij^T W t_ij`` where
    ``t_ij`` selects the degree coordinates edge (i, j) feeds and ``W``
    is the exact inverse of the structured Jacobian (or its closed-form
    approximation, under which the coupling terms cancel and the form
    reduces to ``1/v_ii + 1/v_jj``)."""
    jac = fit.jacobian
    m, n = fit.m, fit.n
    q = np.empty((m, n))
    if use_approx:
        inv_alpha = 1.0 / jac.diag_alpha
        inv_beta = np.concatenate([1.0 / jac.diag_beta, [1.0 / jac.v_tail]])
        q[:] = inv_alpha[:, None] + inv_beta[None, :]
    else:
        inv_alpha_diag, inv_cross, inv_beta = jac.inverse_blocks()
        q[:, : n - 1] = (
            inv_alpha_diag[:, None] + 2.0 * inv_cross + np.diag(inv_beta)[None, :]
        )
        q[:, n - 1] = inv_alpha_diag
    return q


def incidental_bias_expfam(fit: FitResult, use_approx: bool = False) -> np.ndarray:
    """Analytic bias term of the scaled coefficient estimate for
    exponential families (degree-vector covariance equals the Jacobian).

    The plug-in value is ``(1 / (2 sqrt(N))) sum_ij z_ij mu''_ij q_ij``
    with ``q_ij`` the inverse quadratic form of the edge.  With
    ``use_approx`` the closed-form inverse approximation is substituted,
    which turns each event (and actor) contribution into a ratio of
    curvature to slope totals, the form the asymptotics are stated in.
    """
    _require_converged(fit)
    if not fit.family.exponential_family:
        raise ConfigError("exponential-family bias form needs an exponential family")
    if fit.covariates.p == 0:
        return np.zeros(0)
    mu2 = fit.family.mean_d2(fit.predictor)
    q = _pair_inverse_quadratics(fit, use_approx)
    total = np.einsum("ijk,ij->k", fit.covariates.values, mu2 * q)
    return total / (2.0 * math.sqrt(fit.n_edges))


def incidental_bias_general(fit: FitResult, use_approx: bool = False) -> np.ndarray:
    """Analytic bias term for a general family.

    Contracts the curvature of the covariate residuals against
    ``V^{-1} U V^{-1}`` (``U`` = degree-vector covariance from the
    variance function), which reduces to the exponential-family form when
    ``U = V``.  Dense at desk scale; ``use_approx`` substitutes the
    closed-form inverse approximation on both sides.
    """
    _require_converged(fit)
    if fit.covariates.p == 0:
        return np.zeros(0)
    jac = fit.jacobian
    m, n = fit.m, fit.n
    u = StructuredJacobian(fit.family.variance(fit.predictor)).dense()
    if use_approx:
        s = approx_inverse(jac).materialize()
        w = s @ u @ s
    else:
        v_inv = jac.solve(np.eye(jac.dim))
        w = v_inv @ u @ v_inv
    w = 0.5 * (w + w.T)
    q = np.empty((m, n))
    idx_a = np.arange(m)
    idx_b = m + np.arange(n - 1)
    q[:, : n - 1] = (
        w[idx_a, idx_a][:, None]
        + 2.0 * w[np.ix_(idx_a, idx_b)]
        + w[idx_b, idx_b][None, :]
    )
    q[:, n - 1] = w[idx_a, idx_a]
    mu2 = fit.family.mean_d2(fit.predictor)
    total = np.einsum("ijk,ij->k", fit.covariates.values, mu2 * q)
    return total / (2.0 * math.sqrt(fit.n_edges))


def bias_corrected_coefficients(
    fit: FitResult, b_star: np.ndarray, h_bar: np.ndarray
) -> np.ndarray:
    """Corrected coefficients ``gamma + h_bar^{-1} b_star / sqrt(N)``.

    ``h_bar`` is the dyad-scaled information matrix ``H / N``; the scaled
    estimate has asymptotic mean shift ``-h_bar^{-1} b_star``, so this
    undoes the implied bias of ``gamma`` itself.
    """
    if fit.covariates.p == 0:
        return np.zeros(0)
    return fit.params.gamma + np.linalg.solve(h_bar, b_star) / math.sqrt(fit.n_edges)


@dataclass(frozen=True)
class GammaInference:
    """Coefficient estimates with covariance, bias term, and correction."""

    estimate: np.ndarray
    covariance: np.ndarray
    standard_errors: np.ndarray
    b_star: np.ndarray
    estimate_bc: np.ndarray
    method: str


def coefficient_inference(fit: FitResult, method: str = "fisher") -> GammaInference:
    """One-stop coefficient inference: covariance, SEs, bias correction."""
    _require_converged(fit)
    cov = coefficient_covariance(fit, method)
    p = fit.covariates.p
    if p == 0:
        empty = np.zeros(0)
        return GammaInference(empty, cov, empty, empty, empty, method)
    if fit.family.exponential_family:
        b_star = incidental_bias_expfam(fit)
    else:
        b_star = incidental_bias_general(fit)
    h_bar = profile_jacobian(fit.params, fit.covariates, fit.family) / fit.n_edges
    gamma_bc = bias_corrected_coefficients(fit, b_star, h_bar)
    return GammaInference(
        estimate=fit.params.gamma.copy(),
        covariance=cov,
        standard_errors=np.sqrt(np.diag(cov)),
        b_star=b_star,
        estimate_bc=gamma_bc,
        method=method,
    )


_CONTRAST_RE = re.compile(
    r"^\s*(alpha|beta|gamma):(\d+)"
    r"(?:\s*-\s*(alpha|beta|gamma):(\d+))?"
    r"(?:\s*=\s*(-?[0-9.eE+-]+))?\s*$"
)


@dataclass(frozen=True)
class Contrast:
    """A testable contrast: one parameter, or a within-side difference."""

    kind: str
    index: int  # 1-based
    other_index: int = None
    null_value: float = 0.0

    def describe(self) -> str:
        first = f"{self.kind}:{self.index}"
        if self.other_index is not None:
            return f"{first}-{self.kind}:{self.other_index} = {self.null_value:g}"
        return f"{first} = {self.null_value:g}"


def parse_contrast(spec: str) -> Contrast:
    """Parse ``"alpha:1"``, ``"alpha:1-alpha:2"`` or ``"gamma:2=0.5"``."""
    match = _CONTRAST_RE.match(spec)
    if not match:
        raise ConfigError(f"cannot parse contrast {spec!r}")
    kind, idx, kind2, idx2, null = match.groups()
    if kind2 is not None and kind2 != kind:
        raise ConfigError("differences must compare parameters of the same kind")
    if kind2 == "gamma":
        raise ConfigError("coefficient differences are not supported")
    try:
        null_value = float(null) if null is not None else 0.0
    except ValueError:
        raise ConfigError(f"bad null value in contrast {spec!r}") from None
    return Contrast(
        kind=kind,
        index=int(idx),
        other_index=int(idx2) if idx2 is not None else None,
        null_value=null_value,
    )


@dataclass(frozen=True)
class WaldTest:
    """Two-sided Wald test of a single contrast against a point null."""

    statistic: float
    p_value: float
    standard_error: float
    estimate: float
    null_value: float
    description: str


def _check_index(kind: str, index: int, limit: int, what: str):
    if not 1 <= index <= limit:
        raise ConfigError(f"{kind}:{index} out of range (valid: 1..{limit}, {what})")


@dataclass(frozen=True)
class InferenceComponents:
    """The minimal, serializable state Wald tests are computed from.

    Extracted from a converged fit (degree-parameter estimates, Jacobian
    diagonal, degree-variance diagonal, the coupling totals, and the
    coefficient covariance), so tests can run later without the graph.
    """

    m: int
    n: int
    theta: np.ndarray
    gamma: np.ndarray
    v_diag: np.ndarray
    v_tail: float
    u_diag: np.ndarray
    u_tail: float
    gamma_covariance: np.ndarray

    def __post_init__(self):
        for name in ("theta", "gamma", "v_diag", "u_diag", "gamma_covariance"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def components_from_fit(fit: FitResult, method: str = "fisher") -> InferenceComponents:
    """Extract the Wald-test components from a converged fit."""
    _require_converged(fit)
    jac = fit.jacobian
    u_diag, u_tail = _degree_variances(fit)
    return InferenceComponents(
        m=fit.m,
        n=fit.n,
        theta=fit.params.theta,
        gamma=fit.params.gamma,
        v_diag=jac.diag,
        v_tail=jac.v_tail,
        u_diag=u_diag,
        u_tail=u_tail,
        gamma_covariance=coefficient_covariance(fit, method),
    )


def wald_from_components(
    comp: InferenceComponents, contrast, null_value: float = None
) -> WaldTest:
    """Wald test of a parameter (or within-side difference) contrast.

    Single degree parameters use the diagonal-plus-coupling variance;
    differences of two degree parameters drop the shared coupling term.
    Coefficient contrasts take their standard error from the stored
    coefficient covariance.
    """
    if isinstance(contrast, str):
        contrast = parse_contrast(contrast)
    if null_value is None:
        null_value = contrast.null_value
    m, n = comp.m, comp.n

    def theta_slot(kind, index):
        if kind == "alpha":
            _check_index(kind, index, m, "actors")
            return index - 1
        _check_index(kind, index, n - 1, "the last event parameter is pinned to 0")
        return m + index - 1

    if contrast.kind == "gamma":
        if contrast.other_index is not None:
            raise ConfigError("coefficient differences are not supported")
        _check_index("gamma", contrast.index, comp.gamma.shape[0], "coefficients")
        k = contrast.index - 1
        estimate = float(comp.gamma[k])
        se = math.sqrt(float(comp.gamma_covariance[k, k]))
    elif contrast.other_index is None:
        slot = theta_slot(contrast.kind, contrast.index)
        estimate = float(comp.theta[slot])
        se = math.sqrt(
            comp.u_diag[slot] / comp.v_diag[slot] ** 2
            + comp.u_tail / comp.v_tail**2
        )
    else:
        slot_a = theta_slot(contrast.kind, contrast.index)
        slot_b = theta_slot(contrast.kind, contrast.other_index)
        estimate = float(comp.theta[slot_a] - comp.theta[slot_b])
        se = math.sqrt(
            comp.u_diag[slot_a] / comp.v_diag[slot_a] ** 2
            + comp.u_diag[slot_b] / comp.v_diag[slot_b] ** 2
        )
    statistic = (estimate - null_value) / se
    p_value = 2.0 * float(norm.sf(abs(statistic)))
    described = Contrast(
        kind=contrast.kind,
        index=contrast.index,
        other_index=contrast.other_index,
        null_value=null_value,
    )
    return WaldTest(
        statistic=float(statistic),
        p_value=p_value,
        standard_error=float(se),
        estimate=estimate,
        null_value=float(null_value),
        description=described.describe(),
    )


def wald_test(
    fit: FitResult, contrast, null_value: float = None, method: str = "fisher"
) -> WaldTest:
    """Wald test computed directly from a converged fit."""
    return wald_from_components(
        components_from_fit(fit, method), contrast, null_value
    )


@dataclass(frozen=True)
class ReportRow:
    """One serialized inference record."""

    name: str
    label: str
    estimate: float
    se: float
    statistic: float
    p_value: float
    ci_low: float
    ci_high: float


def report_rows(
    fit: FitResult,
    method: str = "fisher",
    level: float = 0.95,
    bias_correct: bool = True,
) -> list:
    """Full inference report: every free parameter plus (optionally)
    bias-corrected coefficients, each with estimate, SE, Wald statistic
    against zero, p-value, and confidence bounds."""
    _require_converged(fit)
    zcrit = float(norm.ppf(0.5 * (1.0 + level)))
    node_se = node_standard_errors(fit)
    rows = []

    def add(name, label, estimate, se):
        stat = (estimate - 0.0) / se
        rows.append(
            ReportRow(
                name=name,
                label=label,
                estimate=float(estimate),
                se=float(se),
                statistic=float(stat),
                p_value=2.0 * float(norm.sf(abs(stat))),
                ci_low=float(estimate - zcrit * se),
                ci_high=float(estimate + zcrit * se),
            )
        )

    for i in range(fit.m):
        add(f"alpha:{i + 1}", fit.graph.actor_labels[i], fit.params.alpha[i],
            node_se.alpha[i])
    for j in range(fit.n - 1):
        add(f"beta:{j + 1}", fit.graph.event_labels[j], fit.params.beta[j],
            node_se.beta[j])
    if fit.covariates.p:
        ci = coefficient_inference(fit, method)
        for k in range(fit.covariates.p):
            add(f"gamma:{k + 1}", fit.covariates.names[k], ci.estimate[k],
                ci.standard_errors[k])
        if bias_correct:
            for k in range(fit.covariates.p):
                add(f"gamma_bc:{k + 1}", fit.covariates.names[k], ci.estimate_bc[k],
                    ci.standard_errors[k])
    return rows


REPORT_HEADER = ("name", "label", "estimate", "se", "statistic", "p_value",
                 "ci_low", "ci_high")


def write_report(rows, path, pinned_note: str = None):
    """Serialize report rows as tab-separated text (stable formatting, so
    identical runs produce identical bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        if pinned_note:
            fh.write(f"# {pinned_note}\n")
        fh.write("\t".join(REPORT_HEADER) + "\n")
        for r in rows:
            fh.write(
                f"{r.name}\t{r.label}\t{r.estimate:.10g}\t{r.se:.10g}\t"
                f"{r.statistic:.10g}\t{r.p_value:.10g}\t{r.ci_low:.10g}\t"
                f"{r.ci_high:.10g}\n"
            )
