"""Monte-Carlo laboratory: truth generation, replicated fitting, and
coverage/error aggregation.

A :class:`Scenario` pins everything a study needs: sizes, the linear
truth profile, the coefficient truth, the covariate scheme, the
replication count, and a master seed.  Replications are deterministic
functions of ``(master seed, replication index)``, so summaries are
bit-for-bit reproducible regardless of how many workers execute them.

Tracked quantities mirror the usual reporting conventions for this model
class: mean absolute errors at the first, middle, and last parameter of
each side, coverage and interval length for neighbouring-parameter
contrasts, coverage for the coefficients with and without bias
correction, and normalized per-replication statistics for QQ-style
normality checks.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .data import BipartiteGraph, CovariateTensor
from .errors import ConfigError, FitError, IllPosedError
from .families import POISSON_ETA_CAP, ModelFamily, get_family
from .fitter import FitOptions, FitResult, ParameterSet, fit
from .inference import Z_95, coefficient_inference, components_from_fit

# covariate scheme -> number of covariates it draws
COVARIATE_SCHEMES = {"sign-product-2d": 2, "none": 0}


def _integer(name: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"scenario {name} must be an integer >= {least}, got {value!r}")
    return value


def _finite(name: str, value) -> float:
    try:
        number = math.nan if isinstance(value, bool) or not isinstance(
            value, numbers.Real) else float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"scenario {name} must be a finite number, got {value!r}")
    return number


@dataclass(frozen=True)
class Scenario:
    """One simulation design point; a malformed field raises ``ConfigError``."""

    m: int
    n: int
    L: float
    gamma_star: tuple
    family: str = "logistic"
    scheme: str = "sign-product-2d"
    replications: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, least in (("m", 2), ("n", 2), ("replications", 1), ("seed", 0)):
            _integer(name, getattr(self, name), least)
        if self.m * self.n > sys.maxsize // 8:
            raise ConfigError(f"scenario m x n must be at most {sys.maxsize // 8}, the most "
                              f"entries one float64 array can address")
        if self.replications > sys.maxsize // 8:
            raise ConfigError(f"scenario replications must be at most {sys.maxsize // 8}, "
                              f"the most records one list can hold")
        _finite("L", self.L)
        gamma_star = tuple(_finite("gamma_star", g) for g in self.gamma_star)
        object.__setattr__(self, "gamma_star", gamma_star)
        family = get_family(self.family)  # validate eagerly
        if self.scheme not in COVARIATE_SCHEMES:
            raise ConfigError(
                f"unknown covariate scheme {self.scheme!r}; "
                f"known: {', '.join(COVARIATE_SCHEMES)}"
            )
        if len(gamma_star) != COVARIATE_SCHEMES[self.scheme]:
            raise ConfigError(f"scheme {self.scheme!r} draws {COVARIATE_SCHEMES[self.scheme]} "
                              f"covariates, but gamma_star has {len(gamma_star)} values")
        # generate_truth multiplies L by k - 1 before it divides by k - 1, so
        # its first alpha and beta, the largest in size, can overflow where L
        # does not.  The covariates are +-1 (or absent), so the truth's
        # predictor is at most |alpha_1| + |beta_1| + sum |gamma*| in size
        # and reaches 2 max(L, 0) + sum |gamma*| upward.
        alpha_1, beta_1 = ((k - 1.0) * self.L / (k - 1.0) for k in (self.m, self.n))
        if not math.isfinite(abs(alpha_1) + abs(beta_1) + sum(abs(g) for g in gamma_star)):
            raise ConfigError(f"scenario L={self.L:g} overflows the truth at ({self.m}, {self.n})")
        largest = 2.0 * max(self.L, 0.0) + sum(abs(g) for g in self.gamma_star)
        if family.name == "poisson" and largest > POISSON_ETA_CAP:
            raise ConfigError(
                f"poisson truth reaches a predictor of {largest:g}, beyond the "
                f"family's working cap of {POISSON_ETA_CAP:g}"
            )

    @classmethod
    def from_dict(cls, raw: Mapping) -> "Scenario":
        """Build from a parsed config mapping.  The density level may be
        given directly (``L``) or as a multiple of ``log m``
        (``L_factor``)."""
        if not isinstance(raw, Mapping):
            raise ConfigError(f"a scenario must be a JSON object, got {type(raw).__name__}")
        d = dict(raw)
        if "L_factor" in d:
            if "L" in d:
                raise ConfigError("give either L or L_factor, not both")
            d["L"] = _finite("L_factor", d.pop("L_factor")) * math.log(
                _integer("m", d.get("m"), 2))
        unknown = set(d) - {
            "m", "n", "L", "gamma_star", "family", "scheme", "replications", "seed",
        }
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(f"bad scenario: {exc}") from None


def generate_truth(m: int, n: int, L: float, gamma_star) -> ParameterSet:
    """Linear truth profiles: the degree parameters decay linearly from
    ``L`` down to 0 across each side (the last event parameter lands on
    the identifiability pin exactly)."""
    if m < 2 or n < 2:
        raise ConfigError("linear truth profiles need m >= 2 and n >= 2")
    alpha = (m - 1.0 - np.arange(m)) * L / (m - 1.0)
    beta = (n - 1.0 - np.arange(n)) * L / (n - 1.0)
    beta[-1] = 0.0
    return ParameterSet(alpha=alpha, beta=beta, gamma=np.asarray(gamma_star, dtype=float))


def generate_covariates(
    m: int, n: int, scheme: str, rng: np.random.Generator
) -> CovariateTensor:
    """Draw edge covariates for a scheme.

    ``sign-product-2d``: two coordinates, each the product of an actor-level and
    an event-level sign.  The first pair of signs is +1 with probability
    0.3 (actors) and 0.6 (events); the second pair is balanced.  All
    draws are independent.
    """
    if scheme == "none":
        return CovariateTensor.empty(m, n)
    if scheme != "sign-product-2d":
        raise ConfigError(f"unknown covariate scheme {scheme!r}")

    def sign(count, prob_plus):
        return np.where(rng.random(count) < prob_plus, 1.0, -1.0)

    a1 = sign(m, 0.3)
    e1 = sign(n, 0.6)
    a2 = sign(m, 0.5)
    e2 = sign(n, 0.5)
    planes = np.stack([np.outer(a1, e1), np.outer(a2, e2)])
    return CovariateTensor(values=np.moveaxis(planes, 0, 2), bound=1.0, names=("z1", "z2"))


def simulate_network(
    truth: ParameterSet,
    covariates: CovariateTensor,
    family: ModelFamily,
    rng: np.random.Generator,
) -> BipartiteGraph:
    """Draw one graph from the model at the given truth."""
    pi = truth.linear_predictor(covariates)
    weights = family.sample(pi, rng)
    actor_labels, event_labels = _node_labels(truth.m, truth.n)
    return BipartiteGraph(
        weights=weights, actor_labels=actor_labels, event_labels=event_labels
    )


@functools.lru_cache(maxsize=16)
def _node_labels(m: int, n: int) -> tuple:
    """``(actor labels, event labels)`` of a simulated m x n graph, built
    once per shape and process."""
    return tuple(f"a{i + 1}" for i in range(m)), tuple(f"e{j + 1}" for j in range(n))


@functools.lru_cache(maxsize=16)
def _scenario_truth(scenario: Scenario) -> ParameterSet:
    """The scenario's truth, built once per scenario and process and
    shared by its replications, so its arrays are read-only."""
    truth = generate_truth(scenario.m, scenario.n, scenario.L, scenario.gamma_star)
    for arr in (truth.alpha, truth.beta, truth.gamma):
        arr.setflags(write=False)
    return truth


def tracked_indices(m: int, n: int) -> dict:
    """1-based tracked parameter indices and neighbouring contrasts."""
    return {
        "alpha": (1, m // 2, m),
        "beta": (1, n // 2, n - 1),
        "alpha_pairs": ((1, 2), (m // 2, m // 2 + 1), (m - 1, m)),
    }


@dataclass(frozen=True)
class _RecordLayout:
    """Where each tracked value of an (m, n, p) replication sits in a
    record's buffer: the tracked degree parameters and neighbouring actor
    pairs as indices into ``theta``, each once, and per record field the
    slot of each key.  The fields follow one another in the buffer in
    the order ``abs_errors``, ``zeta``, ``ci_hits``, ``ci_lengths``."""

    shape: tuple
    degree: np.ndarray
    pairs: tuple
    slots: dict


@functools.lru_cache(maxsize=16)
def _record_layout(m: int, n: int, p: int) -> _RecordLayout:
    """The layout every record of an (m, n, p) study shares, built once
    per shape and process.  Where tracked indices coincide (m or n below
    4) a key is kept once, at its first place."""
    tracked = tracked_indices(m, n)
    alpha, beta, pairs = (tuple(dict.fromkeys(tracked[name]))
                          for name in ("alpha", "beta", "alpha_pairs"))
    degree_keys = [f"alpha:{i}" for i in alpha] + [f"beta:{j}" for j in beta]
    pair_keys = [f"alpha:{i}-alpha:{j}" for i, j in pairs]
    gamma_keys = [f"gamma:{k}" for k in range(1, p + 1)]
    fields = {
        "abs_errors": degree_keys + gamma_keys,
        "zeta": degree_keys,
        "ci_hits": pair_keys + [key for k in range(1, p + 1)
                                for key in (f"gamma:{k}", f"gamma_bc:{k}")],
        "ci_lengths": pair_keys + gamma_keys,
    }
    slots, start = {}, 0
    for name, keys in fields.items():
        slots[name] = {key: start + s for s, key in enumerate(keys)}
        start += len(keys)
    degree = np.array(alpha + tuple(m + j for j in beta), dtype=np.intp) - 1
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2) - 1
    return _RecordLayout(shape=(m, n, p), degree=degree, pairs=(pairs[:, 0], pairs[:, 1]),
                         slots=slots)


class _RecordView(Mapping):
    """A read-only mapping over one field of a record's buffer."""

    __slots__ = ("_slots", "_values", "_as_bool")

    def __init__(self, slots: dict, values: memoryview, as_bool: bool):
        self._slots, self._values, self._as_bool = slots, values, as_bool

    def __getitem__(self, key):
        value = self._values[self._slots[key]]
        return bool(value) if self._as_bool else value

    def __iter__(self):
        return iter(self._slots)

    def __len__(self):
        return len(self._slots)


@dataclass(frozen=True, slots=True)
class ReplicationRecord:
    """Everything retained from one replication.

    A converged record holds its tracked values as one float64 buffer
    (``values``, 8 bytes per value) in the layout ``_record_layout(*shape)``
    that every record of an (m, n, p) study shares.  ``abs_errors``,
    ``zeta``, ``ci_hits`` (as ``bool``) and ``ci_lengths`` are read-only
    mappings over it, keyed ``alpha:i``, ``beta:j``, ``gamma:k``,
    ``gamma_bc:k`` and ``alpha:i-alpha:j``.  A record that did not
    converge holds no values, and its four mappings are empty."""

    replication: int
    converged: bool
    shape: tuple = ()
    values: bytes = b""

    def _view(self, name: str, as_bool: bool = False) -> _RecordView:
        slots = _record_layout(*self.shape).slots[name] if self.converged else {}
        return _RecordView(slots, memoryview(self.values).cast("d"), as_bool)

    abs_errors = property(lambda self: self._view("abs_errors"))
    zeta = property(lambda self: self._view("zeta"))
    ci_hits = property(lambda self: self._view("ci_hits", as_bool=True))
    ci_lengths = property(lambda self: self._view("ci_lengths"))


def run_replication(scenario: Scenario, replication: int) -> ReplicationRecord:
    """Simulate, fit, and score one replication (deterministic in
    ``(scenario.seed, replication)``).  A replication whose fit fails, or
    whose inference at the estimate fails (``H`` not positive definite,
    or the exact factorization of the Jacobian there failing), is
    recorded as not converged."""
    rng = np.random.default_rng([scenario.seed, replication])
    family = get_family(scenario.family)
    truth = _scenario_truth(scenario)
    covariates = generate_covariates(scenario.m, scenario.n, scenario.scheme, rng)
    graph = simulate_network(truth, covariates, family, rng)
    try:
        result = fit(graph, covariates, family, FitOptions())
        return _score_replication(scenario, replication, truth, result)
    except (FitError, IllPosedError):
        return ReplicationRecord(replication=replication, converged=False)


def _score_replication(
    scenario: Scenario, replication: int, truth: ParameterSet, result: FitResult
) -> ReplicationRecord:
    layout = _record_layout(scenario.m, scenario.n, len(scenario.gamma_star))
    comp = components_from_fit(result)
    theta, true_theta = result.params.theta, truth.theta
    err = theta[layout.degree] - true_theta[layout.degree]
    first, second = layout.pairs
    pair_se = comp.degree_se(first, second)
    pair_err = (theta[first] - theta[second]) - (true_theta[first] - true_theta[second])

    coef = coefficient_inference(result, method="fisher")
    err_g = coef.estimate - truth.gamma
    half_g = Z_95 * coef.standard_errors
    gamma_hits = np.column_stack((np.abs(err_g) <= half_g,
                                  np.abs(coef.estimate_bc - truth.gamma) <= half_g))
    values = np.concatenate((
        np.abs(err), np.abs(err_g), err / comp.degree_se(layout.degree),  # abs_errors, zeta
        np.abs(pair_err) <= Z_95 * pair_se, gamma_hits.ravel(),             # ci_hits
        2.0 * Z_95 * pair_se, 2.0 * Z_95 * coef.standard_errors,            # ci_lengths
    ), dtype=float)
    return ReplicationRecord(replication=replication, converged=True,
                             shape=layout.shape, values=values.tobytes())


@dataclass(frozen=True)
class ScenarioSummary:
    """Aggregates over the converged replications of one scenario."""

    scenario: Scenario
    replications: int
    converged: int
    nonconvergence_rate: float
    mae: dict
    coverage: dict       # percent, 0..100
    ci_length: dict
    zeta_samples: dict   # key -> np.ndarray of normalized statistics

    def rows(self):
        """Flatten to (metric, key, value) rows, the lines of ``summary.tsv``."""
        out = [("replications", "", float(self.replications)),
               ("converged", "", float(self.converged)),
               ("nonconvergence_rate", "", self.nonconvergence_rate)]
        for key in sorted(self.mae):
            out.append(("mae", key, self.mae[key]))
        for key in sorted(self.coverage):
            out.append(("coverage", key, self.coverage[key]))
        for key in sorted(self.ci_length):
            out.append(("ci_length", key, self.ci_length[key]))
        return out


def run_scenario(scenario: Scenario, workers: int = 1) -> ScenarioSummary:
    """Run all replications and aggregate.

    A replication whose fit or whose inference at the estimate fails
    counts as not converged (``run_replication``).  Nonconverged
    replications are excluded from every aggregate and surface only
    through the reported nonconvergence rate.  The reduction is ordered
    by replication index (``pool.map`` returns results in input order),
    so worker count never changes the result.  Fewer than one worker
    raises ``ConfigError``.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    reps = range(scenario.replications)
    chunksize = 8
    # a pool starts all its workers at once: no more than the study has chunks
    workers = min(workers, -(-scenario.replications // chunksize))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial study never loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_replication, [scenario] * scenario.replications,
                                    reps, chunksize=chunksize))
    else:
        records = [run_replication(scenario, r) for r in reps]
    good = [rec for rec in records if rec.converged]
    mae, coverage, ci_length, zeta_samples = {}, {}, {}, {}
    if good:
        slots = _record_layout(scenario.m, scenario.n, len(scenario.gamma_star)).slots
        # one contiguous row per tracked value, so np.mean sums each in the
        # same pairwise order as an array built from a list of the records
        columns = np.frombuffer(b"".join(rec.values for rec in good)).reshape(
            len(good), -1).T.copy()
        mae = {key: float(np.mean(columns[s])) for key, s in slots["abs_errors"].items()}
        coverage = {key: 100.0 * float(np.mean(columns[s]))
                    for key, s in slots["ci_hits"].items()}
        ci_length = {key: float(np.mean(columns[s])) for key, s in slots["ci_lengths"].items()}
        zeta_samples = {key: columns[s] for key, s in slots["zeta"].items()}
    return ScenarioSummary(
        scenario=scenario,
        replications=scenario.replications,
        converged=len(good),
        nonconvergence_rate=1.0 - len(good) / scenario.replications,
        mae=mae,
        coverage=coverage,
        ci_length=ci_length,
        zeta_samples=zeta_samples,
    )


def ks_normality(samples) -> tuple:
    """One-sample Kolmogorov-Smirnov test against the standard normal.

    Returns ``(statistic, p_value)`` with the asymptotic p-value.  Needs
    at least 30 samples for the asymptotic formula to be meaningful.
    """
    # the public import: kolmogorov's compiled module, scipy.special._ufuncs,
    # imports from itself as it loads, so it cannot be loaded from its file
    from scipy.special import kolmogorov, ndtr

    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size < 30:
        raise ValueError(f"need at least 30 samples, got {x.size}")
    x = np.sort(x)
    k = x.size
    cdf = ndtr(x)
    grid = np.arange(1, k + 1) / k
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / k)))
    statistic = max(d_plus, d_minus)
    p_value = float(kolmogorov(math.sqrt(k) * statistic))
    return statistic, p_value

