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
dense cross block, in one of two ways chosen from its shape.  While the
smaller side k = min(m, n-1) has fewer than ``PCG_MIN_KEPT`` nodes, it
is solved exactly: the larger diagonal block is eliminated and the
Schur complement of the smaller one factored, O(mn k + k^3) per step.
On larger node sets it is solved matrix-free by preconditioned
conjugate gradients, O(mn) per iteration, preconditioned by the
closed-form diagonal-plus-coupling inverse (``approx_inverse``), with
the exact solve as fallback.  ``gamma`` is eliminated through the p x p
information matrix ``H``.  The Jacobian at the estimate, which inference
reads, is always factored exactly.  The profile API (the degree solve
at fixed ``gamma``, the profiled covariate residuals and
``profile_jacobian``) and the stand-alone residual and Jacobian builders
are not exported from ``bimoment`` and no command runs them;
``bench/tracer.py`` wraps them by name.

Every covariate sum over dyads (``z @ gamma`` in the predictor, the
totals ``sum_ij z_ij w_ij``, ``A`` and the mixed derivatives ``C``) is a
BLAS product on the per-covariate planes of ``CovariateTensor``, which
says which product each one is; ``C`` and ``A`` share one pass.

The factorizations and their solves call LAPACK ``dpotrf``/``dpotrs``
from scipy's compiled module ``scipy.linalg._flapack``, which
``load_compiled`` reads from its file so that importing the package runs
no scipy package ``__init__``; inference takes the normal tail ``ndtr``
from ``scipy.special._special_ufuncs`` through the same loader.

A solution need not exist (a zero-degree actor under a positive mean
function, for instance); divergence is detected and reported as
``NonExistenceError`` rather than looping forever.
"""

from __future__ import annotations

import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .data import BipartiteGraph, CovariateTensor, DegreeVector, degrees, plane_moments
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    IllPosedError,
    MaxIterationsError,
    ModelDegeneracyError,
    NonExistenceError,
    SingularJacobianError,
)
from .families import ModelFamily


def load_compiled(name: str):
    """The compiled scipy module ``name`` (such as ``scipy.linalg._flapack``),
    loaded from its file so that no scipy package ``__init__`` runs
    (``scipy.linalg``'s and ``scipy.special``'s load scipy's array-API
    layer, which would double a process's start-up time and memory).  The
    module is registered under its own name, so the package exports the
    same objects whichever is imported first.  Raises ``ImportError`` where
    there is no such file; the callers then use the public import, as they
    must where scipy's ``__init__`` first sets up library paths."""
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None or not scipy_spec.submodule_search_locations:
            raise ImportError("scipy is not installed as a package directory")
        directory = os.path.join(scipy_spec.submodule_search_locations[0],
                                 *name.split(".")[1:-1])
        finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            raise ImportError(f"{name} not found in {directory}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


try:
    _flapack = load_compiled("scipy.linalg._flapack")
    dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs
except ImportError:
    from scipy.linalg.lapack import dpotrf, dpotrs

# glibc's malloc raises its heap trim threshold to twice the largest
# mmap-backed block freed so far.  Below about 1 MB, the heap a (100, 100)
# replication frees is returned to the kernel after every replication and
# faulted back in by the next: 123 minor faults and 0.1-0.5 ms more per
# replication, measured with one BLAS thread.  scipy.linalg's package import,
# which the direct load skips, frees a large enough block as a side effect;
# one untouched 4 MB block does it here.  Other allocators are unaffected.
_block = np.empty(1 << 19)
del _block

# Divergence guard: beyond this magnitude every shipped family is fully
# saturated, so a parameter escaping it signals nonexistence.
PARAM_CAP = 40.0

# Step halvings before a Newton step counts as stalled under full damping.
MAX_HALVINGS = 30

# Newton directions go to preconditioned CG (``StructuredJacobian.pcg_solve``)
# once the side the Schur complement keeps, k = min(m, n-1), has this many
# nodes.  Measured with one BLAS thread on logistic slopes at L = 0 and
# L = -log m, per solve of 3 right-hand sides, factored vs CG: (200, 200)
# 1.1-1.4 vs 1.2-1.7 ms, (256, 256) 1.6-2.1 vs 1.2-1.6 ms, (300, 300)
# 2.5-4.0 vs 1.5-1.8 ms, (695, 755) 29-43 vs 12-14 ms, and (100, 1500),
# which stays factored, 1.6-1.7 vs 2.5-3.3 ms.  With one right-hand side
# the crossover is near k = 150-200.
PCG_MIN_KEPT = 256
# Each column is solved to this relative residual, in the preconditioned
# norm.  No inexact-Newton forcing: a looser solve saves a few O(mn)
# products per step but risks extra Newton steps, each a full m x n pass.
PCG_RTOL = 1e-12
# CG iterations before a solve falls back to the exact factorization; the
# preconditioner needs about 6-11 at the shapes measured above.
PCG_MAX_ITER = 50


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
        if self.p:  # without covariates, skip an m x n pass that adds zeros
            pi += (self.gamma @ covariates.rows).reshape(self.m, self.n)
        return pi


@dataclass(frozen=True)
class FitOptions:
    """Solver controls: ``fit`` and ``solve_degree_params`` stop once every
    moment residual, degree and covariate alike, is at most ``tol`` in
    absolute value, and fail after ``max_iter`` Newton steps.  Raises
    ``ConfigError`` unless ``0 < tol < inf`` and ``max_iter >= 1``."""

    tol: float = 1e-8
    max_iter: int = 50

    def __post_init__(self):
        if not (isinstance(self.tol, numbers.Real) and 0 < self.tol < math.inf):
            raise ConfigError(f"tol must be finite and > 0, got {self.tol!r}")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ConfigError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


def _sup_norm(x: np.ndarray) -> float:
    return float(np.abs(x).max()) if x.size else 0.0


@dataclass(frozen=True)
class MomentResiduals:
    """Degree residuals (length m+n-1) and covariate residuals (length p),
    with the sup norm of each, computed once at construction, and the
    Newton merit ``max(degree_norm, covariate_norm)``."""

    degree: np.ndarray
    covariate: np.ndarray
    degree_norm: float = field(init=False)
    covariate_norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "degree_norm", _sup_norm(self.degree))
        object.__setattr__(self, "covariate_norm", _sup_norm(self.covariate))

    @property
    def merit(self) -> float:
        return max(self.degree_norm, self.covariate_norm)


class StructuredJacobian:
    """Jacobian of the degree residuals in its structured form.

    With slopes ``w_ij = mu'(pi_ij) > 0`` the matrix is

        [ diag(row sums of w)      w[:, :n-1]          ]
        [ w[:, :n-1]^T             diag(col sums of w) ]

    which is symmetric, nonnegative, diagonally dominant (the actor rows
    carry a surplus of ``w_in``, the dropped event column) and therefore
    positive definite.  ``solve`` and ``inverse_blocks`` are exact: they
    eliminate the larger diagonal block and factor the Schur complement
    of the smaller one, the m x m complement ``diag_alpha - W
    diag_beta^{-1} W^T`` (``W = cross``) when ``m <= n-1``, the (n-1) x
    (n-1) complement on the event side otherwise.  ``pcg_solve`` factors
    nothing: it runs preconditioned conjugate gradients on products with
    ``V``, O(mn) each.
    """

    def __init__(self, slopes: np.ndarray):
        slopes = np.asarray(slopes, dtype=float)
        if slopes.ndim != 2:
            raise ValueError("slopes must be an m x n matrix")
        if not np.isfinite(slopes).all() or (slopes <= 0.0).any():
            raise ModelDegeneracyError(
                "mean slopes must be strictly positive over all pairs"
            )
        self.slopes = slopes
        self.m, self.n = slopes.shape
        self.dim = self.m + self.n - 1
        self._keeps_actors = self.m <= self.n - 1

    @cached_property
    def diag(self) -> np.ndarray:
        """All m+n-1 diagonal entries, ``degree_sums(slopes)``, read-only:
        inference shares it as the degree variances of exponential
        families."""
        d = degree_sums(self.slopes)
        d.setflags(write=False)
        return d

    @property
    def diag_alpha(self) -> np.ndarray:
        return self.diag[: self.m]

    @property
    def diag_beta(self) -> np.ndarray:
        return self.diag[self.m :]

    @property
    def cross(self) -> np.ndarray:
        return self.slopes[:, :-1]

    @cached_property
    def v_tail(self) -> float:
        """Total coupling weight, i.e. the dropped event's diagonal entry."""
        return float(self.slopes[:, -1].sum())

    @cached_property
    def _sides(self) -> tuple:
        """``(kept, elim, d_kept, d_elim, cross_ke)``: the coordinate slices
        of the kept (smaller) and the eliminated block, their diagonals,
        and the cross block oriented kept x eliminated."""
        actors, events = slice(0, self.m), slice(self.m, self.dim)
        if self._keeps_actors:
            return actors, events, self.diag_alpha, self.diag_beta, self.cross
        return events, actors, self.diag_beta, self.diag_alpha, self.cross.T

    def schur_complement(self) -> np.ndarray:
        """The kept block's Schur complement ``diag(d_kept) - s s^T`` with
        ``s = cross_ke diag(d_elim)^{-1/2}``: ``s s^T`` is one BLAS syrk,
        half the flops of a general product, and exactly symmetric."""
        _kept, _elim, d_kept, d_elim, cross_ke = self._sides
        s = cross_ke / np.sqrt(d_elim)
        complement = np.diag(d_kept)
        complement -= s @ s.T
        return complement

    @cached_property
    def _schur_factor(self):
        """Lower Cholesky factor of ``schur_complement`` by LAPACK
        ``dpotrf``, or ``None`` when the kept block is empty (a single
        event).  The complement is exactly symmetric, so its transpose is
        the same matrix in Fortran order, factored in place."""
        if self.n == 1:
            return None
        factor, info = dpotrf(self.schur_complement().T, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise SingularJacobianError(
                f"Schur complement not PD: its leading minor of order {info} is not"
                " positive"
            )
        return factor

    def _complement_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``rhs`` (a vector or stacked columns, a temporary of the caller)
        solved against the Schur complement by LAPACK ``dpotrs``, in place
        when ``rhs`` is in Fortran order.  ``dpotrs`` flags only malformed
        arguments, which its wrapper's shape checks already reject."""
        if self._schur_factor is None:
            return rhs
        return dpotrs(self._schur_factor, rhs, lower=1, overwrite_b=1)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``V x = rhs`` exactly; accepts a vector or a matrix of
        stacked right-hand sides."""
        rhs = np.asarray(rhs, dtype=float)
        vector_in = rhs.ndim == 1
        r = rhs.reshape(self.dim, -1)
        kept, elim, _d_kept, d_elim, cross_ke = self._sides
        x_e0 = r[elim] / d_elim[:, None]
        x_k = self._complement_solve(r[kept] - cross_ke @ x_e0)
        x = np.empty_like(r)
        x[kept] = x_k
        x[elim] = x_e0 - (cross_ke.T @ x_k) / d_elim[:, None]
        return x[:, 0] if vector_in else x

    def inverse_blocks(self):
        """The parts of the exact inverse the inference formulas read:
        ``(inv_alpha_diag, inv_cross, inv_beta_diag)``, the diagonal of the
        actor block (length m), the dense actor-event block (m x (n-1)) and
        the diagonal of the event block (length n-1)."""
        _kept, _elim, d_kept, d_elim, cross_ke = self._sides
        inv_kept = self._complement_solve(np.eye(d_kept.size, order="F"))
        g = cross_ke.T / d_elim[:, None]
        g_inv = g @ inv_kept
        inv_elim_diag = 1.0 / d_elim + np.einsum("ij,ij->i", g_inv, g)
        inv_kept_diag = np.diag(inv_kept).copy()
        inv_cross = np.negative(g_inv, out=g_inv)   # in place: one m x n block less
        if self._keeps_actors:
            return inv_kept_diag, inv_cross.T, inv_elim_diag
        return inv_elim_diag, inv_cross, inv_kept_diag

    def pcg_solve(self, rhs: np.ndarray) -> tuple:
        """Solve ``V x = rhs`` by preconditioned conjugate gradients;
        returns ``(x, iterations)``.  Accepts a vector or a matrix of
        stacked right-hand sides.

        The columns run as one batched CG: each keeps its own CG scalars,
        and all share one product with ``V`` per iteration (two passes
        over the cross block).  The preconditioner is the closed-form
        inverse approximation (``approx_inverse``).  A column stops
        updating once its residual, in the preconditioner's norm, is at
        most ``PCG_RTOL`` times its initial one; a zero column never
        starts, so it returns exact zeros.  If a column is still short of
        that after ``PCG_MAX_ITER`` iterations, the whole solve is redone
        exactly by ``solve``.
        """
        rhs = np.asarray(rhs, dtype=float)
        b = rhs.reshape(self.dim, -1)
        precond = approx_inverse(self)
        x = np.zeros_like(b)
        z = precond.apply(b)
        rz = _column_dots(b, z)
        stop = PCG_RTOL**2 * rz
        active = np.flatnonzero(rz > stop)
        r, d, rz = b[:, active], z[:, active], rz[active]
        iterations = 0
        while active.size:
            if iterations == PCG_MAX_ITER:
                return self.solve(rhs), iterations
            iterations += 1
            vd = self._product(d)
            step = rz / _column_dots(d, vd)
            x[:, active] += step * d
            r = r - step * vd
            z = precond.apply(r)
            rz_next = _column_dots(r, z)
            going = rz_next > stop[active]
            d = z[:, going] + (rz_next[going] / rz[going]) * d[:, going]
            active, r, rz = active[going], r[:, going], rz_next[going]
        return (x[:, 0] if rhs.ndim == 1 else x), iterations

    def _product(self, x: np.ndarray) -> np.ndarray:
        """``V @ x`` for stacked columns, from the slopes: two BLAS
        products with the cross block, no matrix formed.  The event side
        is computed as ``(x_a^T W)^T``: with a few columns OpenBLAS runs
        that about twice as fast as ``W^T x_a``."""
        actors, events = x[: self.m], x[self.m :]
        out = np.empty_like(x)
        out[: self.m] = self.cross @ events
        out[: self.m] += self.diag_alpha[:, None] * actors
        out[self.m :] = (actors.T @ self.cross).T
        out[self.m :] += self.diag_beta[:, None] * events
        return out

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


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each column of ``a`` with the same column of ``b``."""
    return np.einsum("ij,ij->j", a, b)


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

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Product with a vector, or with stacked columns (dim x r),
        without materializing the full matrix."""
        vec = np.asarray(vec, dtype=float)
        s = self._signs
        column = (-1,) + (1,) * (vec.ndim - 1)
        coupled = self.inv_coupling * (s @ vec)   # a scalar, or one per column
        return self.inv_diag.reshape(column) * vec + s.reshape(column) * coupled


def approx_inverse(jacobian: StructuredJacobian) -> InverseApproximation:
    """Build the diagonal-plus-coupling inverse approximation."""
    return InverseApproximation(
        inv_diag=1.0 / jacobian.diag,
        inv_coupling=1.0 / jacobian.v_tail,
        n_actors=jacobian.m,
    )


@dataclass(frozen=True)
class IterationRecord:
    """One convergence-trace row, one line of ``trace.tsv``: field
    ``outer_iteration`` is column ``step`` (the Newton step index, 0 for
    the start), ``inner_iterations`` is column ``halvings`` (the step
    halvings that step needed), and the other fields are the columns of
    their names: the residual sup norms at the accepted point and the
    conjugate-gradient iterations of the step's degree solve (0 for the
    start and for a step that factored the Schur complement; a step whose
    CG reached ``PCG_MAX_ITER`` also factored).  ``bench/tracer.py`` reads
    the fields by these names."""

    outer_iteration: int
    inner_iterations: int
    degree_norm: float
    covariate_norm: float
    linear_iterations: int


@dataclass(frozen=True)
class FitResult:
    """A converged estimate (``fit`` raises ``FitError`` rather than
    return any other) together with everything inference needs.

    ``predictor`` is the linear predictor at the estimate and
    ``jacobian`` the structured Jacobian there, both as ``fit`` computed
    them at its last accepted point; nothing rebuilds them from
    ``params``.  ``inference_cache`` starts empty: ``bimoment.inference``
    keeps there the quantities it derives from this linearization, each
    computed on its first request.
    """

    params: ParameterSet
    residuals: MomentResiduals
    trace: tuple
    predictor: np.ndarray
    jacobian: StructuredJacobian
    graph: BipartiteGraph
    covariates: CovariateTensor
    family: ModelFamily
    inference_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def converged(self) -> bool:
        """Always true; the benchmark's ``fit_wide_100x1500`` check reads it."""
        return True

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


def degree_sums(x: np.ndarray) -> np.ndarray:
    """Row sums of the m x n matrix ``x`` followed by its column sums over
    events 1..n-1: the layout of ``theta``, of the degree equations and
    of the diagonal of ``V``."""
    return np.concatenate([x.sum(axis=1), x[:, :-1].sum(axis=0)])


def degree_residuals(
    params: ParameterSet,
    graph: BipartiteGraph,
    covariates: CovariateTensor,
    family: ModelFamily,
) -> np.ndarray:
    """Expected-minus-observed degrees for all actors and events 1..n-1."""
    mu = family.mean(params.linear_predictor(covariates))
    deg = degrees(graph)
    return degree_sums(mu) - np.concatenate([deg.d, deg.b[:-1]])


def covariate_residuals(
    params: ParameterSet,
    graph: BipartiteGraph,
    covariates: CovariateTensor,
    family: ModelFamily,
) -> np.ndarray:
    """Covariate-weighted expected-minus-observed edge totals (length p)."""
    mu = family.mean(params.linear_predictor(covariates))
    return covariates.total(mu - graph.weights)


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


def _checked_degrees(graph: BipartiteGraph, covariates: CovariateTensor,
                     family: ModelFamily) -> DegreeVector:
    """The degree vector of ``graph``, after the input checks that ``fit``
    and ``solve_degree_params`` share.

    In this order: covariates whose (m, n) is not the graph's raise
    ``DataError``, and so do weights other than 0 and 1 under a binary
    family.  A node of degree 0 raises ``NonExistenceError``, and under a
    binary family so does a node connected to every node of the other
    side: every family here has strictly positive means, binary ones below
    1, so no finite parameters reach those degrees.  Each degree rule
    checks the actors, then the events, and names the first node that
    breaks it; the dropped event-n equation is implied by the others, so
    its degree is checked too.
    """
    if (covariates.m, covariates.n) != (graph.m, graph.n):
        raise DataError(
            f"covariate dimensions {(covariates.m, covariates.n)} do not match "
            f"graph dimensions {(graph.m, graph.n)}"
        )
    binary = family.support == "binary"
    if binary and not graph.is_binary:
        raise DataError("binary family requires a 0/1 weight matrix")
    deg = degrees(graph)
    sides = (("actor", graph.actor_labels, deg.d, "event", graph.n),
             ("event", graph.event_labels, deg.b, "actor", graph.m))
    for saturated in (False, True) if binary else (False,):
        for kind, labels, counts, other, size in sides:
            bad = np.flatnonzero(counts == (size if saturated else 0))
            if bad.size:
                what = f"is connected to every {other}" if saturated else "has degree 0"
                raise NonExistenceError(
                    f"{kind} {labels[bad[0]]!r} {what}; "
                    "the degree equations have no finite solution"
                )
    return deg


def solve_degree_params(
    gamma: np.ndarray,
    graph: BipartiteGraph,
    covariates: CovariateTensor,
    family: ModelFamily,
    options: FitOptions = FitOptions(),
    warm_start: np.ndarray = None,
) -> tuple:
    """Newton solve of the degree equations at fixed ``gamma``, from
    ``warm_start`` or else from zero degree parameters.

    It stops once ``|f|_inf <= options.tol``.  Returns ``(params, trace)``
    where ``trace`` is the sup-norm residual per iteration.  Its input is
    checked as ``fit`` checks it (``_checked_degrees``), and a ``gamma``
    not of length ``covariates.p`` or a ``warm_start`` not of length
    m+n-1 raises ``DataError``.  Raises ``NonExistenceError`` when the
    iteration diverges or takes more than ``options.max_iter`` steps: by
    the theory a finite solution exists only with high probability, and
    divergence is the observable signature of the exceptional event.
    """
    deg = _checked_degrees(graph, covariates, family)
    dim = graph.m + graph.n - 1
    theta = np.zeros(dim) if warm_start is None else np.array(warm_start, dtype=float)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    if gamma.shape != (covariates.p,):
        raise DataError(f"gamma has length {gamma.shape[0]}, expected covariates.p = "
                        f"{covariates.p}")
    if theta.shape != (dim,):
        raise DataError(f"warm_start has shape {theta.shape}, expected length m+n-1 = {dim}")
    params, _pi, _mu, _res, trace = _damped_newton(
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
    """Jacobian of the profiled covariate residuals with respect to gamma,
    rebuilt from ``params``.

    For exponential families this is the Fisher information of the
    concentrated likelihood, and its inverse is the asymptotic covariance
    of the coefficient estimate.  Assembled with exact structured solves:

        H = sum_ij z z^T mu'  -  C V^{-1} C^T

    where ``C`` collects the mixed derivatives of the covariate residuals
    in the degree parameters.  Raises ``IllPosedError`` if the result is
    not symmetric positive definite.  Inference applies ``information_at``
    to the fit's own Jacobian instead (``bimoment.inference``); this
    stand-alone form, which rebuilds the Jacobian, is the reference it is
    checked against.
    """
    slopes = family.mean_d1(params.linear_predictor(covariates))
    h, _x_c = information_at(StructuredJacobian(slopes), covariates)
    return h


def information_at(jac: StructuredJacobian, covariates: CovariateTensor) -> tuple:
    """``(H, X_C)`` at the point whose structured Jacobian is ``jac``:
    ``H`` as in ``profile_jacobian`` and the solve ``X_C = V^{-1} C^T`` it
    is formed from, by one ``covariate_moments`` pass and one exact solve."""
    if covariates.p == 0:  # skips the exact solve, which would factor V for no columns
        return np.zeros((0, 0)), np.zeros((jac.dim, 0))
    c, a = covariate_moments(covariates, jac.slopes)
    x_c = jac.solve(c.T)
    h, _chol = _information(a, c, x_c)
    return h, x_c


def _information(a, c, x_c) -> tuple:
    """``H = A - C X_C`` with ``A = sum_ij z z^T mu'`` and ``X_C = V^{-1}
    C^T``, plus its lower Cholesky factor.  Raises ``IllPosedError``
    unless ``H`` is symmetric positive definite."""
    h = a - c @ x_c
    h = 0.5 * (h + h.T)
    chol, info = dpotrf(h, lower=1)
    if info > 0:
        raise IllPosedError(
            "profiled information matrix is not positive definite; "
            "the coefficient estimate is ill-posed (degenerate covariates?)"
        )
    return h, chol


def mixed_moment_derivative(
    covariates: CovariateTensor, slopes: np.ndarray
) -> np.ndarray:
    """The p x (m+n-1) matrix ``C`` of covariate-residual derivatives in
    the degree parameters: column i is ``sum_j z_ij mu'_ij``, column m+j
    is ``sum_i z_ij mu'_ij`` (events 1..n-1)."""
    return covariate_moments(covariates, slopes)[0]


def covariate_moments(covariates: CovariateTensor, slopes: np.ndarray) -> tuple:
    """``(C, A)``, ``C`` as in ``mixed_moment_derivative`` and ``A =
    sum_ij z_ij z_ij^T mu'_ij``, from one ``plane_moments`` pass; the
    dropped event's sum is computed and discarded."""
    actor, event, a = plane_moments(covariates.planes, slopes)
    return np.concatenate([actor, event[:, :-1]], axis=1), a


def fit(
    graph: BipartiteGraph,
    covariates: CovariateTensor = None,
    family: ModelFamily = None,
    options: FitOptions = FitOptions(),
) -> FitResult:
    """Fit the model by the method of moments.

    One damped Newton iteration on ``(theta, gamma)``, started at zero.
    With degree and covariate residuals ``f`` and ``q``, the structured
    Jacobian ``V``, mixed derivatives ``C`` and ``A = sum_ij z z^T mu'``,
    each step solves

        [ V  C^T ] [dtheta]   [f]
        [ C   A  ] [dgamma] = [q]

    by eliminating the degree block: one stacked solve ``V [x_f, X_C] =
    [f, C^T]``, then ``dgamma = H^{-1} (q - C x_f)`` with ``H = A - C
    X_C`` and ``dtheta = x_f - X_C dgamma``.  The stacked solve factors
    the Schur complement once while the smaller side min(m, n-1) is below
    ``PCG_MIN_KEPT`` nodes, and otherwise runs one batched preconditioned
    CG over its p + 1 columns (``StructuredJacobian.pcg_solve``), each
    column to ``PCG_RTOL``, falling back to the factorization if CG
    reaches ``PCG_MAX_ITER`` iterations.  The step is halved until
    ``max(|f|_inf, |q|_inf)`` decreases; a trial point that is not finite
    or lies outside the family's working domain counts as a failed trial.
    With ``p = 0`` this is Newton's method on the degree equations alone.

    It stops once ``max(|f|_inf, |q|_inf) <= options.tol``.
    The result carries the predictor at the accepted point and one
    structured Jacobian there, its slopes derived from the mean that the
    last trial already computed; inference reuses both, and factors that
    Jacobian exactly whatever its size.  The trace records, per step, the
    halvings and the CG iterations of the degree solve.
    Raises ``DataError`` or ``NonExistenceError`` for input that fails
    ``_checked_degrees``, ``NonExistenceError`` for a stall under
    full damping or degree parameters escaping ``PARAM_CAP``,
    ``MaxIterationsError`` after ``options.max_iter`` steps, and
    ``IllPosedError`` when ``H`` is not positive definite.
    """
    if family is None:
        raise ValueError("family is required")
    if covariates is None:
        covariates = CovariateTensor.empty(graph.m, graph.n)
    deg = _checked_degrees(graph, covariates, family)
    params, pi, mu, residuals, trace = _damped_newton(
        graph, covariates, family, deg, np.zeros(graph.m + graph.n - 1),
        np.zeros(covariates.p), options, free_gamma=True,
    )
    return FitResult(
        params=params,
        residuals=residuals,
        trace=tuple(trace),
        predictor=pi,
        jacobian=StructuredJacobian(family.mean_d1_given_mean(pi, mu)),
        graph=graph,
        covariates=covariates,
        family=family,
    )


def _damped_newton(graph, covariates, family, deg, theta, gamma, options, free_gamma):
    """Damped Newton on the moment equations from ``(theta, gamma)``.

    With ``free_gamma`` all m+n-1+p equations are solved (``fit``);
    otherwise ``gamma`` stays fixed and only the degree equations are
    solved, so the residuals carry no covariate part
    (``solve_degree_params``).  Either stops once the merit ``max(|f|_inf,
    |q|_inf)`` is at most ``options.tol``, and takes at most
    ``options.max_iter`` steps, then raises ``MaxIterationsError``
    (``fit``) or ``NonExistenceError`` (profile).  Each step halves up to
    ``MAX_HALVINGS`` times.  Returns ``(params, predictor, mean,
    residuals, trace)`` at the last accepted point.  A step's slopes come
    from the mean its accepted point already computed.
    """
    m, n = graph.m, graph.n
    observed_degrees = np.concatenate([deg.d, deg.b[:-1]])
    cap_error = MaxIterationsError if free_gamma else NonExistenceError
    if free_gamma:
        observed_totals = covariates.total(graph.weights)

    def evaluate(theta, gamma):
        params = ParameterSet.from_theta(theta, gamma, m, n)
        pi = params.linear_predictor(covariates)
        mu = family.mean(pi)
        f = degree_sums(mu) - observed_degrees
        if free_gamma:
            q = covariates.total(mu) - observed_totals
        else:
            q = np.zeros(0)
        return params, pi, mu, MomentResiduals(degree=f, covariate=q)

    def merit_trace():
        return [max(rec.degree_norm, rec.covariate_norm) for rec in trace]

    try:
        params, pi, mu, res = evaluate(theta, gamma)
    except DomainError as exc:
        raise NonExistenceError(
            f"starting point lies outside the family's working domain: {exc}"
        ) from exc
    trace = [IterationRecord(0, 0, res.degree_norm, res.covariate_norm, 0)]
    while res.merit > options.tol:
        step_index = len(trace)
        if step_index > options.max_iter:
            raise cap_error(
                f"Newton iteration did not reach tolerance in {options.max_iter} steps",
                trace=merit_trace(),
            )
        dtheta, dgamma, linear_iterations = _newton_direction(
            family.mean_d1_given_mean(pi, mu), covariates, res
        )
        del mu  # not needed past the direction; keeps the trials' peak memory down
        for halvings in range(MAX_HALVINGS + 1):
            scale = 0.5**halvings
            trial_theta, trial_gamma = theta - scale * dtheta, gamma - scale * dgamma
            if not (np.isfinite(trial_theta).all() and np.isfinite(trial_gamma).all()):
                continue  # a non-finite direction gives no trial point at any scale
            try:
                trial = evaluate(trial_theta, trial_gamma)
            except DomainError:
                continue  # trial point left the family's working domain
            if trial[-1].merit < res.merit:
                break
        else:
            raise NonExistenceError(
                "Newton iteration stalled under full damping; "
                "no finite solution found",
                trace=merit_trace(),
            )
        theta, gamma = trial_theta, trial_gamma
        params, pi, mu, res = trial
        trace.append(
            IterationRecord(step_index, halvings, res.degree_norm,
                            res.covariate_norm, linear_iterations)
        )
        if np.abs(theta).max() > PARAM_CAP:
            raise NonExistenceError(
                f"degree parameter escaped [-{PARAM_CAP:g}, {PARAM_CAP:g}]; "
                "the moment equations appear to have no finite solution",
                trace=merit_trace(),
            )
    return params, pi, mu, res, trace


def _newton_direction(slopes, covariates: CovariateTensor, res: MomentResiduals):
    """Newton direction ``(dtheta, dgamma)`` at a point with mean slopes
    ``slopes`` and residuals ``res``, by block elimination of the degree
    equations (see ``fit``), and the CG iterations of its degree solve
    (``_degree_solve``).  Residuals without a covariate part (``p = 0``,
    or ``gamma`` held fixed) give the degree-only direction."""
    jac = StructuredJacobian(slopes)
    # the degree-only branch also serves a fixed gamma, and with p = 0 the
    # general one would hand dpotrs a 0 x 0 factor, which it rejects
    if res.covariate.size == 0:
        x_f, iterations = _degree_solve(jac, res.degree)
        return x_f, np.zeros(covariates.p), iterations
    c, a = covariate_moments(covariates, slopes)
    x, iterations = _degree_solve(jac, np.column_stack([res.degree, c.T]))
    x_f, x_c = x[:, 0], x[:, 1:]
    _h, chol = _information(a, c, x_c)
    dgamma = dpotrs(chol, res.covariate - c @ x_f, lower=1, overwrite_b=1)[0]
    return x_f - x_c @ dgamma, dgamma, iterations


def _degree_solve(jac: StructuredJacobian, rhs: np.ndarray) -> tuple:
    """``(V^{-1} rhs, CG iterations)``: ``pcg_solve`` once the kept side
    min(m, n-1) reaches ``PCG_MIN_KEPT`` nodes, otherwise the exact Schur
    solve, which takes no CG iterations."""
    if min(jac.m, jac.n - 1) >= PCG_MIN_KEPT:
        return jac.pcg_solve(rhs)
    return jac.solve(rhs), 0
