"""Shared helpers for the test suite."""

import os

# One BLAS thread unless the caller chose otherwise: set before numpy loads
# its BLAS, and inherited by the processes the tests start.  A threaded BLAS
# only adds start-up and contention to the suite's small products (Tier-1
# ran 2.6 times slower unpinned on a 2-vCPU VM).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest

from bimoment import (
    BipartiteGraph,
    CovariateTensor,
    ParameterSet,
    degrees,
    simulate_network,
)

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def feasible_instance(rng, m, n, p, family, theta_scale=0.4, gamma_scale=0.4,
                      max_tries=2000):
    """Draw (graph, covariates, truth) with degrees that admit a finite
    solution: no zero degree anywhere, and no saturated degree for binary
    support.  Rejection-samples until feasible."""
    for _ in range(max_tries):
        alpha = rng.normal(0.0, theta_scale, m)
        beta = np.append(rng.normal(0.0, theta_scale, n - 1), 0.0)
        gamma = rng.normal(0.0, gamma_scale, p)
        if p:
            cov = CovariateTensor(rng.choice([-1.0, 1.0], size=(m, n, p)))
        else:
            cov = CovariateTensor.empty(m, n)
        truth = ParameterSet(alpha=alpha, beta=beta, gamma=gamma)
        graph = simulate_network(truth, cov, family, rng)
        deg = degrees(graph)
        ok = (deg.d > 0).all() and (deg.b > 0).all()
        if family.support == "binary":
            ok = ok and (deg.d < n).all() and (deg.b < m).all()
        if ok:
            return graph, cov, truth
    raise RuntimeError("could not draw a feasible instance")


def checkerboard_graph(m, n):
    """Binary graph with ones where i+j is even: every row has n/2 ones
    and every column m/2 (for even m, n), so the zero parameter vector
    solves the degree equations exactly."""
    i, j = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    weights = ((i + j) % 2 == 0).astype(float)
    return BipartiteGraph(
        weights=weights,
        actor_labels=tuple(f"a{k}" for k in range(m)),
        event_labels=tuple(f"e{k}" for k in range(n)),
    )


def dense_approx_inverse(approx):
    """The dense matrix of an ``InverseApproximation``: ``diag(inv_diag) +
    inv_coupling * s s'`` with ``s`` +1 on the actors and -1 on the
    events."""
    s = np.ones(approx.inv_diag.shape[0])
    s[approx.n_actors :] = -1.0
    return np.diag(approx.inv_diag) + approx.inv_coupling * np.outer(s, s)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
