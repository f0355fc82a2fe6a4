"""Asymptotic inference for fitted bipartite network models.

Everything here is read from one state computed once per fit: the
predictor and structured Jacobian ``V`` that ``fit`` leaves at the
estimate, and ``FitResult.inference_cache``, which keeps read-only, from
their first request on, the covariance ``U`` of the degree vector, the
profiled information ``H`` with the solve ``X_C = V^{-1} C^T`` it is
formed from, the coefficient covariance of each method asked for, the
bias term ``b_star`` with the corrected coefficients and the node
standard errors.  Every variance is read from ``U``.  For exponential
families ``U = V``, so ``U`` is the fit's own Jacobian and the state
holds only small results (at most (m+n-1) x p); for other families
``U`` holds the m x n edge variances, the one m x n array kept.

The module provides standard errors for the degree parameters, the
coefficient covariance (Fisher or sandwich form), the analytic
incidental-parameter bias of the coefficient estimate with its plug-in
correction, and Wald-type tests.  ``score_terms`` returns the p x p
score covariance ``sigma`` of the sandwich form.  The closed-form
approximation to the inverse of the structured Jacobian
(``approx_inverse``) lives in ``bimoment.fitter``, which also uses it to
precondition the Newton solves; it is importable from here as well.

Scaling conventions, fixed once here so they do not leak:  ``N = m*n``
is the dyad count, ``H`` is the unscaled p x p information matrix of the
profiled system, ``h_bar = H / N``, and the bias-corrected coefficients
are ``gamma + solve(h_bar, b_star) / sqrt(N)``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .data import plane_moments
from .errors import ConfigError, IllPosedError, ModelDegeneracyError
from .fitter import (
    FitResult,
    StructuredJacobian,
    approx_inverse,  # noqa: F401  re-exported; bench/tracer.py wraps it here by name
    information_at,
    load_compiled,
)

# ndtri(0.975), the two-sided 95% normal quantile, written out so that
# importing the module does not load scipy.special
Z_95 = 1.959963984540054


@functools.cache
def _ndtr():
    """scipy's standard normal CDF ``ndtr``, the function ``scipy.stats.norm``
    evaluates itself, loaded on first use from its compiled module so that
    no scipy.special package ``__init__`` runs; where that module is missing
    or has no ``ndtr`` (older scipy), from ``scipy.special``."""
    try:
        return load_compiled("scipy.special._special_ufuncs").ndtr
    except (ImportError, AttributeError):
        from scipy.special import ndtr
        return ndtr


def _once_per_fit(compute):
    """Keep ``compute(fit, *args)`` in ``fit.inference_cache``: the first
    request computes it, later ones read it.  A failed computation is not
    kept."""

    @functools.wraps(compute)
    def cached(fit, *args):
        key = (compute.__name__, *args)
        cache = fit.inference_cache
        if key not in cache:
            cache[key] = compute(fit, *args)
        return cache[key]

    return cached


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def exact_inverse_apply(jacobian: StructuredJacobian, vec: np.ndarray) -> np.ndarray:
    """Alias of ``StructuredJacobian.solve``, left out of the package
    exports; ``bench/tracer.py`` still wraps it by name."""
    return jacobian.solve(vec)


@_once_per_fit
def _degree_covariance(fit: FitResult) -> StructuredJacobian:
    """``U``, the covariance of the degree vector at the estimate, in the
    structured form of ``V`` with the edge variances as its slopes.  For
    exponential families the variance function is the mean slope, so
    ``U = V`` is the fit's own Jacobian; otherwise ``family.variance``
    runs once per fit, and a variance that is not strictly positive
    raises ``ModelDegeneracyError``."""
    if fit.family.exponential_family:
        return fit.jacobian
    try:
        return StructuredJacobian(fit.family.variance(fit.predictor))
    except ModelDegeneracyError:
        raise ModelDegeneracyError(
            "edge variances must be finite and strictly positive over all pairs"
        ) from None


def _degree_se(u_diag, v_diag, u_tail, v_tail, slot, other=None):
    """Standard error of ``theta[slot]`` (``slot`` an index, an index
    array or a slice): ``sqrt(u_ii / v_ii^2 + u_tail / v_tail^2)``, for
    exponential families (``u = v``) ``sqrt(1 / v_ii + 1 / v_tail)``.
    With ``other``, of the within-side difference ``theta[slot] -
    theta[other]``: the shared coupling term drops out, and the other
    parameter's ``u_kk / v_kk^2`` takes its place."""

    def own(k):
        return u_diag[k] / np.square(v_diag[k])

    # a numpy scalar, so a tail whose square under- or overflows gives an
    # infinite or zero standard error where a Python float raises; ``**``
    # keeps the bits of C ``pow``, which ``np.square`` does not.  Such a
    # standard error is the answer, so numpy does not warn about it.
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        tail = u_tail / np.float64(v_tail) ** 2
        return np.sqrt(own(slot) + (tail if other is None else own(other)))


@dataclass(frozen=True)
class NodeStandardErrors:
    """Asymptotic standard errors for the degree parameters."""

    alpha: np.ndarray
    beta: np.ndarray  # events 1..n-1; the n-th parameter is pinned


@_once_per_fit
def node_standard_errors(fit: FitResult) -> NodeStandardErrors:
    """Standard errors of the fitted degree parameters, as
    ``InferenceComponents.degree_se`` computes each."""
    jac, u = fit.jacobian, _degree_covariance(fit)
    se = _read_only(_degree_se(u.diag, jac.diag, u.v_tail, jac.v_tail, slice(None)))
    return NodeStandardErrors(alpha=se[: fit.m], beta=se[fit.m :])


def score_terms(fit: FitResult) -> np.ndarray:
    """The score covariance ``sigma = sum_ij Var(x_ij) ztilde_ij
    ztilde_ij^T`` (p x p), where ``ztilde_ij = z_ij - X_C^T t_ij`` is the
    covariate vector corrected for the feedback of edge (i, j) through
    the degree equations (``t_ij`` selects the degree coordinates the
    edge feeds).  ``X_C`` comes from the cached linearization; ``ztilde``
    is built as (p, m, n) planes, like ``CovariateTensor.planes``, and
    ``sigma`` is their per-plane gram (``data.plane_moments``), exactly
    symmetric."""
    m = fit.m
    k = _linearization(fit)[1].T  # p x (m+n-1)
    ztilde = fit.covariates.planes - k[:, :m, None]
    ztilde[:, :, :-1] -= k[:, None, m:]
    _actor, _event, sigma = plane_moments(ztilde, _degree_covariance(fit).slopes)
    return sigma


def coefficient_covariance(fit: FitResult, method: str = "fisher") -> np.ndarray:
    """Covariance matrix of the fitted coefficients.

    ``fisher`` inverts the profiled information matrix (exact for
    exponential families); ``sandwich`` wraps the score covariance in the
    inverse information and agrees with ``fisher`` whenever the variance
    function equals the mean slope.
    """
    return _covariance(fit, method)


@_once_per_fit
def _linearization(fit: FitResult) -> tuple:
    """``(H, X_C)`` at the fit's own Jacobian (``fitter.information_at``):
    the profiled information (p x p) and ``V^{-1} C^T`` ((m+n-1) x p)."""
    h, x_c = information_at(fit.jacobian, fit.covariates)
    return _read_only(h), _read_only(x_c)


@_once_per_fit
def _covariance(fit: FitResult, method: str) -> np.ndarray:
    """``coefficient_covariance`` from the fit's information ``H``."""
    h = _linearization(fit)[0]
    if method not in ("fisher", "sandwich"):
        raise ConfigError(f"unknown covariance method {method!r}")
    try:
        h_inv = np.linalg.inv(h)
    except np.linalg.LinAlgError:  # dpotrf passed H on a pivot that rounded above 0
        raise IllPosedError("profiled information matrix is singular; the coefficient "
                            "estimate is ill-posed (degenerate covariates?)") from None
    if method == "fisher":
        cov = h_inv
    else:
        cov = h_inv @ score_terms(fit) @ h_inv
    return _read_only(0.5 * (cov + cov.T))


def _pair_quadratics(w_alpha_diag, w_cross, w_beta_diag) -> np.ndarray:
    """The m x n matrix of quadratic forms ``t_ij^T W t_ij`` (``t_ij``
    selects the degree coordinates edge (i, j) feeds), ``w_alpha_ii + 2
    w_cross_ij + w_beta_jj`` and ``w_alpha_ii`` for the dropped event,
    from the diagonals of W's actor and event blocks and its actor-event
    block, summed in place to spare the peak memory two m x n
    temporaries."""
    m, n = w_alpha_diag.shape[0], w_beta_diag.shape[0] + 1
    q = np.empty((m, n))
    free = q[:, : n - 1]
    np.multiply(w_cross, 2.0, out=free)
    free += w_alpha_diag[:, None]
    free += w_beta_diag[None, :]
    q[:, n - 1] = w_alpha_diag
    return q


def _bias_sum(fit: FitResult, mu2: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The bias term ``sum_ij z_ij mu''_ij q_ij / (2 sqrt(N))`` from the
    curvatures ``mu2`` and the pair quadratic forms ``q``, which it
    overwrites.  Callers evaluate ``mu2`` before ``q``: the temporaries of
    ``mean_d2`` then never share the peak with ``W``'s blocks."""
    q *= mu2
    return fit.covariates.total(q) / (2.0 * math.sqrt(fit.n_edges))


def incidental_bias_expfam(fit: FitResult) -> np.ndarray:
    """Analytic bias term of the scaled coefficient estimate for
    exponential families (degree-vector covariance equals the Jacobian).

    The plug-in value is ``(1 / (2 sqrt(N))) sum_ij z_ij mu''_ij q_ij``
    with ``q_ij`` the quadratic form of the edge in the exact inverse of
    the Jacobian.
    """
    if not fit.family.exponential_family:
        raise ConfigError("exponential-family bias form needs an exponential family")
    mu2 = fit.family.mean_d2(fit.predictor)
    return _bias_sum(fit, mu2, _pair_quadratics(*fit.jacobian.inverse_blocks()))


def incidental_bias_general(fit: FitResult) -> np.ndarray:
    """Analytic bias term for a general family.

    Contracts the curvature of the covariate residuals against ``W = V^{-1}
    U V^{-1}`` (``U`` = degree-vector covariance from the variance
    function), which reduces to the exponential-family form when ``U =
    V``.  Dense at desk scale.
    """
    jac = fit.jacobian
    m = fit.m
    u = _degree_covariance(fit).dense()
    v_inv = jac.solve(np.eye(jac.dim))
    w = v_inv @ u @ v_inv
    w = 0.5 * (w + w.T)
    w_diag = np.diag(w)
    mu2 = fit.family.mean_d2(fit.predictor)
    return _bias_sum(fit, mu2, _pair_quadratics(w_diag[:m], w[:m, m:], w_diag[m:]))


def bias_corrected_coefficients(
    fit: FitResult, b_star: np.ndarray, h_bar: np.ndarray
) -> np.ndarray:
    """Corrected coefficients ``gamma + h_bar^{-1} b_star / sqrt(N)``.

    ``h_bar`` is the dyad-scaled information matrix ``H / N``; the scaled
    estimate has asymptotic mean shift ``-h_bar^{-1} b_star``, so this
    undoes the implied bias of ``gamma`` itself.
    """
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


@_once_per_fit
def _bias_correction(fit: FitResult) -> tuple:
    """``(b_star, gamma_bc)``: the analytic bias term of the family's form
    (exact inverse) and the coefficients it corrects.  Without covariates
    the bias term is empty, and the bias forms, which would still evaluate
    ``mean_d2`` and factor the Jacobian, are not called."""
    if not fit.covariates.p:
        b_star = np.zeros(0)
    elif fit.family.exponential_family:
        b_star = incidental_bias_expfam(fit)
    else:
        b_star = incidental_bias_general(fit)
    h_bar = _linearization(fit)[0] / fit.n_edges
    gamma_bc = bias_corrected_coefficients(fit, b_star, h_bar)
    return _read_only(b_star), _read_only(gamma_bc)


def coefficient_inference(fit: FitResult, method: str = "fisher") -> GammaInference:
    """One-stop coefficient inference: covariance, SEs, bias correction.
    Without covariates every array is empty.  Raises what the information
    at the estimate raises: ``IllPosedError`` when ``H`` is not positive
    definite and ``SingularJacobianError`` when the exact factorization of
    the fit's Jacobian fails; a Monte-Carlo replication counts either as
    not converged (``simlab.run_replication``)."""
    cov = _covariance(fit, method)
    b_star, gamma_bc = _bias_correction(fit)
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
    try:
        index, other_index = int(idx), int(idx2) if idx2 is not None else None
    except ValueError:      # more digits than ``int`` converts from text
        raise ConfigError(f"index too long in contrast {spec[:40]!r}...") from None
    return Contrast(kind=kind, index=index, other_index=other_index,
                    null_value=null_value)


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
    coefficient covariance), so tests can run later without the graph;
    ``to_json`` gives the ``fit.json`` entries ``from_json`` reads back.
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

    def degree_se(self, slot, other=None):
        """Standard error of ``theta[slot]`` or ``theta[slot] - theta[other]``."""
        return _degree_se(self.u_diag, self.v_diag, self.u_tail, self.v_tail,
                          slot, other)

    def to_json(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out

    @classmethod
    def from_json(cls, raw: dict) -> "InferenceComponents":
        """The components in ``raw``, a mapping with at least the keys
        ``to_json`` writes.  A missing or malformed field raises
        ``ConfigError`` naming it: ``m`` and ``n`` must be integers >= 1;
        ``theta``, ``v_diag`` and ``u_diag`` finite 1-d arrays of length
        m+n-1, the variances positive; ``v_tail`` and ``u_tail`` finite
        and positive; ``gamma`` finite and 1-d, and ``gamma_covariance`` a
        finite p x p matrix with a positive diagonal."""
        if not isinstance(raw, dict):
            raise ConfigError("fit report must be a JSON object")
        try:
            values = {f.name: raw[f.name] for f in dataclasses.fields(cls)}
        except KeyError as exc:
            raise ConfigError(f"fit report is missing field {exc}") from None

        def bad(name, expected):
            return ConfigError(f"fit report field {name!r} must be {expected}")

        for name in ("m", "n"):
            value = values[name]
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise bad(name, f"an integer >= 1, got {value!r}")
        for name in ("v_tail", "u_tail"):
            value = values[name]
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value <= 0):
                raise bad(name, f"a finite number > 0, got {value!r}")

        def finite_array(name, ndim):
            try:
                value = np.asarray(values[name], dtype=float)
            except (TypeError, ValueError):
                value = None
            if value is None or value.ndim != ndim or not np.isfinite(value).all():
                raise bad(name, f"a finite {ndim}-d array of numbers")
            return value

        length = values["m"] + values["n"] - 1
        for name in ("theta", "v_diag", "u_diag"):
            value = finite_array(name, 1)
            if value.shape[0] != length:
                raise bad(name, f"of length m+n-1 = {length}, got {value.shape[0]}")
            if name != "theta" and not (value > 0).all():
                raise bad(name, "positive")
            values[name] = value
        p = finite_array("gamma", 1).shape[0]
        if p == 0 and values["gamma_covariance"] == []:
            # JSON cannot hold a 0 x 0 shape: it writes the empty matrix as []
            values["gamma_covariance"] = np.zeros((0, 0))
        covariance = finite_array("gamma_covariance", 2)
        if covariance.shape != (p, p) or not (covariance.diagonal() > 0).all():
            raise bad("gamma_covariance", f"a {p} x {p} matrix with a positive diagonal")
        return cls(**values)


def components_from_fit(fit: FitResult, method: str = "fisher") -> InferenceComponents:
    """Extract the Wald-test components from a converged fit."""
    jac, u = fit.jacobian, _degree_covariance(fit)
    return InferenceComponents(
        m=fit.m,
        n=fit.n,
        theta=fit.params.theta,
        gamma=fit.params.gamma,
        v_diag=jac.diag,
        v_tail=jac.v_tail,
        u_diag=u.diag,
        u_tail=u.v_tail,
        gamma_covariance=_covariance(fit, method),
    )


def wald_from_components(
    comp: InferenceComponents, contrast, null_value: float = None
) -> WaldTest:
    """Wald test of a parameter (or within-side difference) contrast.

    Degree parameters and their differences take their standard error
    from ``comp.degree_se``, coefficient contrasts from the stored
    coefficient covariance.  A null value that is not finite raises
    ``ConfigError``.
    """
    if isinstance(contrast, str):
        contrast = parse_contrast(contrast)
    if null_value is None:
        null_value = contrast.null_value
    if not math.isfinite(null_value):
        raise ConfigError(f"null value must be finite, got {null_value!r}")
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
        se = comp.degree_se(slot)
    else:
        slot_a = theta_slot(contrast.kind, contrast.index)
        slot_b = theta_slot(contrast.kind, contrast.other_index)
        estimate = float(comp.theta[slot_a] - comp.theta[slot_b])
        se = comp.degree_se(slot_a, slot_b)
    statistic = (estimate - null_value) / se
    p_value = 2.0 * float(_ndtr()(-abs(statistic)))
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
    """One row of the inference report; the field names are the columns
    of the ``report.tsv`` that ``bimoment.cli`` writes."""

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
    bias_correct: bool = True,
) -> list:
    """Full inference report: every free parameter plus (optionally)
    bias-corrected coefficients, each with estimate, SE, Wald statistic
    against zero, p-value, and 95% confidence bounds."""
    node_se = node_standard_errors(fit)
    names = [f"alpha:{i + 1}" for i in range(fit.m)]
    names += [f"beta:{j + 1}" for j in range(fit.n - 1)]
    labels = list(fit.graph.actor_labels) + list(fit.graph.event_labels[:-1])
    estimates = [fit.params.alpha, fit.params.beta[: fit.n - 1]]
    ses = [node_se.alpha, node_se.beta]
    ci = coefficient_inference(fit, method)
    blocks = [("gamma", ci.estimate)]
    if bias_correct:
        blocks.append(("gamma_bc", ci.estimate_bc))
    for prefix, estimate in blocks:
        names += [f"{prefix}:{k + 1}" for k in range(fit.covariates.p)]
        labels += list(fit.covariates.names)
        estimates.append(estimate)
        ses.append(ci.standard_errors)
    estimate = np.concatenate(estimates)
    se = np.concatenate(ses)
    stat = estimate / se
    return list(map(
        ReportRow,
        names,
        labels,
        estimate.tolist(),
        se.tolist(),
        stat.tolist(),
        (2.0 * _ndtr()(-np.abs(stat))).tolist(),
        (estimate - Z_95 * se).tolist(),
        (estimate + Z_95 * se).tolist(),
    ))

