"""Edge-weight distribution families.

Each family models the conditional distribution of an edge weight given
its linear predictor ``eta = alpha_i + beta_j + z_ij @ gamma`` and
exposes what the fitter and the inference formulas need: the mean
function, its first two derivatives (the first also from an already
computed mean), the variance function and a reproducible sampler.  The
estimator solves moment equations, so no family computes a likelihood.

Families are stateless and immutable; sampler randomness lives entirely
in the caller-supplied ``numpy.random.Generator``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import ConfigError, DomainError

# Logistic saturates to machine precision well before |eta| = 35, so the
# clamp changes nothing representable while keeping exp() safe on the
# extreme degree configurations the fitter can visit.
LOGISTIC_ETA_CAP = 35.0

# exp(30) ~ 1.07e13 edge-weight mean; beyond that a Poisson fit has left
# any plausible data scale, so fail loudly instead of overflowing.
POISSON_ETA_CAP = 30.0


def _as_finite_array(eta) -> np.ndarray:
    arr = np.asarray(eta, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("linear predictor contains non-finite values")
    return arr


class ModelFamily(ABC):
    """Abstract edge-weight family.

    Subclasses set ``name``, ``support`` (one of ``binary``, ``count``,
    ``continuous-nonnegative``) and ``exponential_family``, and must keep
    ``mean_d1`` and ``variance`` strictly positive on the working domain:
    the degree-equation Jacobian's matrix class depends on it.  Both are
    checked where they are read: a slope that is not strictly positive
    raises ``ModelDegeneracyError`` when the fit builds its Jacobian, and
    a variance that is not, when inference first reads the degree-vector
    covariance of a family outside the exponential class (for an
    exponential family the variance is the slope and is not evaluated).
    """

    name: str
    support: str
    exponential_family: bool

    @abstractmethod
    def mean(self, eta):
        """Expected edge weight at predictor ``eta``."""

    @abstractmethod
    def mean_d1(self, eta):
        """First derivative of the mean function."""

    @abstractmethod
    def mean_d1_given_mean(self, eta, mu):
        """``mean_d1(eta)`` when ``mu = mean(eta)`` is already at hand, with
        the very values ``mean_d1`` gives.  Where the slope is a function
        of the mean this skips a second pass of the mean function."""

    @abstractmethod
    def mean_d2(self, eta):
        """Second derivative of the mean function."""

    @abstractmethod
    def variance(self, eta):
        """Edge-weight variance at predictor ``eta``."""

    @abstractmethod
    def sample(self, eta, rng: np.random.Generator):
        """Draw edge weights at ``eta`` using the supplied generator."""

    def __repr__(self):
        return f"{type(self).__name__}()"


class LogisticFamily(ModelFamily):
    """Bernoulli edges with logit link: mean ``e^eta / (1 + e^eta)``.

    Both mean derivatives are bounded by 1/4 in absolute value, which the
    property tests pin down.
    """

    name = "logistic"
    support = "binary"
    exponential_family = True

    def _mu(self, eta) -> np.ndarray:
        # 1 / (1 + exp(-x)), each step in place in the clipped copy; ``[()]``
        # returns a 0-d predictor's mean as a numpy float
        x = np.asarray(np.clip(_as_finite_array(eta), -LOGISTIC_ETA_CAP, LOGISTIC_ETA_CAP))
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1.0
        return np.divide(1.0, x, out=x)[()]

    def mean(self, eta):
        return self._mu(eta)

    def mean_d1(self, eta):
        return self.mean_d1_given_mean(eta, self._mu(eta))

    def mean_d1_given_mean(self, eta, mu):
        # mu (1 - mu), formed in the one array ``1 - mu``; ``mu`` is kept
        slope = np.subtract(1.0, mu)
        slope *= mu
        return slope[()]

    def mean_d2(self, eta):
        # mu (1 - mu) (1 - 2 mu), in two arrays: the slope, and the mean
        # turned in place into 1 - 2 mu (-2 mu + 1 is exact as 1 - 2 mu is)
        mu = self._mu(eta)
        curvature = self.mean_d1_given_mean(eta, mu)
        mu *= -2.0
        mu += 1.0
        curvature *= mu
        return curvature[()]

    def variance(self, eta):
        return self.mean_d1(eta)

    def sample(self, eta, rng):
        mu = self._mu(eta)
        return (rng.random(size=np.shape(mu)) < mu).astype(float)


class PoissonFamily(ModelFamily):
    """Poisson edge counts with log link: mean ``e^eta``.

    Mean, variance and both derivatives coincide at ``e^eta``.  Rejects
    ``eta > 30`` with a domain error rather than overflowing silently.
    """

    name = "poisson"
    support = "count"
    exponential_family = True

    def _lam(self, eta) -> np.ndarray:
        x = _as_finite_array(eta)
        if np.any(x > POISSON_ETA_CAP):
            raise DomainError(
                f"poisson predictor exceeds {POISSON_ETA_CAP:g}; the implied "
                "mean is outside the working domain"
            )
        return np.exp(x)

    def mean(self, eta):
        return self._lam(eta)

    def mean_d1(self, eta):
        return self._lam(eta)

    def mean_d1_given_mean(self, eta, mu):
        return mu

    def mean_d2(self, eta):
        return self._lam(eta)

    def variance(self, eta):
        return self._lam(eta)

    def sample(self, eta, rng):
        # ``rng.poisson`` returns a Python int for a scalar mean
        return np.asarray(rng.poisson(self._lam(eta)), dtype=float)[()]


_FAMILIES = {
    "logistic": LogisticFamily(),
    "poisson": PoissonFamily(),
}


def get_family(name: str) -> ModelFamily:
    """Look up a family by name ("logistic" or "poisson")."""
    try:
        return _FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ConfigError(f"unknown family {name!r}; known families: {known}") from None
