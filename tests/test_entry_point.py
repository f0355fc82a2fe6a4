"""The ``bimoment`` command in real processes: fit, test and simulate on a
small fixture, an exit status, and stderr without a traceback.

Every other CLI check calls ``cli.main`` in process (``test_cli.py``).
This file also runs against an installed package, from outside the
source tree and without ``PYTHONPATH``:

    cd "$(mktemp -d)" && python -m pytest -q /path/to/repo/tests/test_entry_point.py
"""

import json
import shutil
import subprocess
import sys

import pytest

from bimoment.cli import EXIT_CONFIG, EXIT_OK
from bimoment.fixtures import make_ratings_fixture

# the console script that pyproject.toml installs, else the module it runs
SCRIPT = shutil.which("bimoment")
COMMAND = [SCRIPT] if SCRIPT else [sys.executable, "-m", "bimoment.cli"]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    return make_ratings_fixture(tmp_path_factory.mktemp("fixture"), m=60, n=50, n_planted=2)


def bimoment(*args):
    """Run the command with ``args``; its stderr never shows a traceback."""
    run = subprocess.run([*COMMAND, *map(str, args)], capture_output=True, text=True,
                         timeout=120)
    assert "Traceback" not in run.stderr
    return run


def test_fit_test_simulate(fixture_dir, tmp_path):
    f = fixture_dir
    fit = bimoment("fit", f.edges, "--actor-attrs", f.actor_attrs,
                   "--event-attrs", f.event_attrs, "--mapping", f.mapping,
                   "--min-degree", f.min_degree, "--out-dir", tmp_path / "fit")
    assert fit.returncode == EXIT_OK, fit.stderr
    assert {p.name for p in (tmp_path / "fit").iterdir()} == {
        "report.tsv", "trace.tsv", "fit.json", "manifest.json"}

    test = bimoment("test", tmp_path / "fit" / "fit.json", "--contrast", "alpha:1-alpha:2",
                    "--contrast", "gamma:1=0", "--out-dir", tmp_path / "test")
    assert test.returncode == EXIT_OK, test.stderr
    # tests.tsv and stdout are one formatted body: a header and a row per contrast
    assert (tmp_path / "test" / "tests.tsv").read_text() == test.stdout
    assert test.stdout.count("\n") == 3

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"m": 20, "n": 16, "L": 0.0, "gamma_star": [0.5, 1.0],
                                    "replications": 3, "seed": 5}))
    sim = bimoment("simulate", scenario, "--out-dir", tmp_path / "sim")
    assert sim.returncode == EXIT_OK, sim.stderr
    summary = (tmp_path / "sim" / "summary.tsv").read_text().splitlines()
    assert summary[:2] == ["metric\tkey\tvalue", "replications\t\t3"]


def test_usage_error_is_exit_status_2(tmp_path):
    # an unknown family is rejected before any input is read
    out = tmp_path / "out"
    run = bimoment("fit", tmp_path / "missing.tsv", "--family", "bogus", "--out-dir", out)
    assert run.returncode == EXIT_CONFIG
    assert run.stderr.startswith("error: unknown family 'bogus'")
    assert not out.exists()
