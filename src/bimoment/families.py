"""Edge-weight distribution families.

Each family models the conditional distribution of an edge weight given
its linear predictor ``eta = alpha_i + beta_j + z_ij @ gamma`` and
exposes everything the fitter and the inference formulas need: the mean
function, its first three derivatives (the first also from an already
computed mean), the variance function, a reproducible sampler, and a
log density.  The log density exists only
for the likelihood oracle used in tests; the production fitter solves
moment equations and never touches it.

Families are stateless and immutable; sampler randomness lives entirely
in the caller-supplied ``numpy.random.Generator``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
from scipy.special import gammaln

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
    if not np.all(np.isfinite(arr)):
        raise DomainError("linear predictor contains non-finite values")
    return arr


def _like(eta, out: np.ndarray):
    """Return a float for scalar input, an array otherwise."""
    if np.isscalar(eta) or getattr(eta, "ndim", 1) == 0:
        return float(out)
    return out


class ModelFamily(ABC):
    """Abstract edge-weight family.

    Subclasses set ``name``, ``support`` (one of ``binary``, ``count``,
    ``continuous-nonnegative``) and ``exponential_family``, and must keep
    ``mean_d1`` and ``variance`` strictly positive on the working domain:
    the degree-equation Jacobian's matrix class depends on it.
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
    def mean_d3(self, eta):
        """Third derivative of the mean function."""

    @abstractmethod
    def variance(self, eta):
        """Edge-weight variance at predictor ``eta``."""

    @abstractmethod
    def sample(self, eta, rng: np.random.Generator):
        """Draw edge weights at ``eta`` using the supplied generator."""

    @abstractmethod
    def log_density(self, x, eta):
        """Log probability (mass) of weight ``x`` at predictor ``eta``."""

    def __repr__(self):
        return f"{type(self).__name__}()"


class LogisticFamily(ModelFamily):
    """Bernoulli edges with logit link: mean ``e^eta / (1 + e^eta)``.

    All three mean derivatives are bounded by 1/4 in absolute value,
    which the property tests pin down.
    """

    name = "logistic"
    support = "binary"
    exponential_family = True

    def _mu(self, eta) -> np.ndarray:
        x = np.clip(_as_finite_array(eta), -LOGISTIC_ETA_CAP, LOGISTIC_ETA_CAP)
        return 1.0 / (1.0 + np.exp(-x))

    def mean(self, eta):
        return _like(eta, self._mu(eta))

    def mean_d1(self, eta):
        mu = self._mu(eta)
        return _like(eta, mu * (1.0 - mu))

    def mean_d1_given_mean(self, eta, mu):
        return _like(eta, mu * (1.0 - mu))

    def mean_d2(self, eta):
        mu = self._mu(eta)
        return _like(eta, mu * (1.0 - mu) * (1.0 - 2.0 * mu))

    def mean_d3(self, eta):
        mu = self._mu(eta)
        return _like(eta, mu * (1.0 - mu) * (1.0 - 6.0 * mu + 6.0 * mu * mu))

    def variance(self, eta):
        mu = self._mu(eta)
        return _like(eta, mu * (1.0 - mu))

    def sample(self, eta, rng):
        mu = self._mu(eta)
        draw = (rng.random(size=np.shape(mu)) < mu).astype(float)
        return _like(eta, draw)

    def log_density(self, x, eta):
        xa = np.asarray(x, dtype=float)
        if not np.all((xa == 0.0) | (xa == 1.0)):
            raise DomainError("logistic weights must be 0 or 1")
        h = np.clip(_as_finite_array(eta), -LOGISTIC_ETA_CAP, LOGISTIC_ETA_CAP)
        # log mu = -log1p(e^-eta), log(1-mu) = -log1p(e^eta)
        out = -(xa * np.log1p(np.exp(-h)) + (1.0 - xa) * np.log1p(np.exp(h)))
        return _like(x, out)


class PoissonFamily(ModelFamily):
    """Poisson edge counts with log link: mean ``e^eta``.

    Mean, variance and all derivatives coincide at ``e^eta``.  Rejects
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
        return _like(eta, self._lam(eta))

    def mean_d1(self, eta):
        return _like(eta, self._lam(eta))

    def mean_d1_given_mean(self, eta, mu):
        return mu

    def mean_d2(self, eta):
        return _like(eta, self._lam(eta))

    def mean_d3(self, eta):
        return _like(eta, self._lam(eta))

    def variance(self, eta):
        return _like(eta, self._lam(eta))

    def sample(self, eta, rng):
        lam = self._lam(eta)
        return _like(eta, rng.poisson(lam).astype(float))

    def log_density(self, x, eta):
        xa = np.asarray(x, dtype=float)
        if np.any(xa < 0) or not np.all(xa == np.floor(xa)):
            raise DomainError("poisson weights must be nonnegative integers")
        h = _as_finite_array(eta)
        lam = self._lam(eta)
        out = xa * h - lam - gammaln(xa + 1.0)
        return _like(x, out)


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
