"""Command-line pipeline: exit codes, report files, manifests, byte-level
reproducibility, and environment-variable overrides."""

import json
import time

import numpy as np
import pytest

from bimoment.cli import (
    EXIT_CONFIG,
    EXIT_ILL_POSED,
    EXIT_NONEXISTENT,
    EXIT_OK,
    main,
)
from bimoment.fixtures import make_ratings_fixture


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    return make_ratings_fixture(tmp_path_factory.mktemp("fixture"))


@pytest.fixture(scope="module")
def fit_run(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit_run")
    rc = main([
        "fit", str(fixture_dir.edges),
        "--actor-attrs", str(fixture_dir.actor_attrs),
        "--event-attrs", str(fixture_dir.event_attrs),
        "--mapping", str(fixture_dir.mapping),
        "--min-degree", str(fixture_dir.min_degree),
        "--out-dir", str(out),
    ])
    assert rc == EXIT_OK
    return out


def read_report(path):
    rows = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("name\t"):
            continue
        parts = line.split("\t")
        rows[parts[0]] = dict(
            label=parts[1], estimate=float(parts[2]), se=float(parts[3]),
            statistic=float(parts[4]), p_value=float(parts[5]),
            ci_low=float(parts[6]), ci_high=float(parts[7]),
        )
    return rows


class TestFitCommand:
    def test_outputs_exist(self, fit_run):
        for name in ("report.tsv", "trace.tsv", "fit.json", "manifest.json"):
            assert (fit_run / name).exists()

    def test_report_has_coefficients_with_correction(self, fit_run):
        rows = read_report(fit_run / "report.tsv")
        for name in ("gamma:1", "gamma:2", "gamma_bc:1", "gamma_bc:2"):
            assert name in rows
            assert rows[name]["se"] > 0
            assert 0.0 <= rows[name]["p_value"] <= 1.0
        # sanity on the scale of the standard errors for a fixture this size
        assert 0.005 < rows["gamma:1"]["se"] < 0.05
        assert 0.005 < rows["gamma:2"]["se"] < 0.05

    def test_all_p_values_well_formed(self, fit_run):
        rows = read_report(fit_run / "report.tsv")
        assert all(0.0 <= r["p_value"] <= 1.0 for r in rows.values())
        assert all(np.isfinite(r["statistic"]) for r in rows.values())

    def test_filter_removed_exactly_planted_nodes(self, fit_run, fixture_dir):
        sidecar = json.loads((fit_run / "fit.json").read_text())
        all_users = {f"u{i + 1:04d}" for i in range(200)}
        all_movies = {f"f{j + 1:04d}" for j in range(150)}
        removed_actors = all_users - set(sidecar["actor_labels"])
        removed_events = all_movies - set(sidecar["event_labels"])
        assert removed_actors == set(fixture_dir.planted_actors)
        assert removed_events == set(fixture_dir.planted_events)

    def test_manifest_records_digests_and_version(self, fit_run, fixture_dir):
        manifest = json.loads((fit_run / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert str(fixture_dir.edges) in manifest["inputs"]
        assert all(len(d) == 64 for d in manifest["inputs"].values())
        assert manifest["version"]
        assert manifest["wall_clock_s"] >= 0

    def test_rerun_is_byte_identical(self, fixture_dir, fit_run, tmp_path):
        out2 = tmp_path / "again"
        rc = main([
            "fit", str(fixture_dir.edges),
            "--actor-attrs", str(fixture_dir.actor_attrs),
            "--event-attrs", str(fixture_dir.event_attrs),
            "--mapping", str(fixture_dir.mapping),
            "--min-degree", str(fixture_dir.min_degree),
            "--out-dir", str(out2),
        ])
        assert rc == EXIT_OK
        for name in ("report.tsv", "trace.tsv", "fit.json"):
            assert (out2 / name).read_bytes() == (fit_run / name).read_bytes()

    def test_pure_degree_model_run(self, fixture_dir, tmp_path):
        rc = main([
            "fit", str(fixture_dir.edges),
            "--min-degree", str(fixture_dir.min_degree),
            "--out-dir", str(tmp_path),
        ])
        assert rc == EXIT_OK
        rows = read_report(tmp_path / "report.tsv")
        assert not any(name.startswith("gamma") for name in rows)

    def test_corrupted_edge_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("u1\tm1\nnot a row at all\n")
        rc = main(["fit", str(bad), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "line 2" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\nu2\tm2\n")
        rc = main(["fit", str(edges), "--family", "probit",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_nonexistent_solution_exit_code(self, tmp_path):
        # an actor connected to every event has no finite estimate
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\nu1\tm2\nu2\tm1\nu3\tm2\n")
        rc = main(["fit", str(edges), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_NONEXISTENT

    def test_degenerate_covariates_exit_code(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\nu1\tm2\nu2\tm1\nu2\tm3\nu3\tm2\nu3\tm3\n")
        users = tmp_path / "users.tsv"
        users.write_text("id\tsex\nu1\tX\nu2\tX\nu3\tX\n")
        movies = tmp_path / "movies.tsv"
        movies.write_text("id\tgenre\nm1\tg\nm2\tg\nm3\tg\n")
        mapping = tmp_path / "mapping.json"
        # single group nobody matches: all-zero covariates
        mapping.write_text(json.dumps({"mappings": [{
            "name": "never", "actor_attr": "sex", "event_attr": "genre",
            "groups": {"g": "Y"},
        }]}))
        rc = main(["fit", str(edges), "--actor-attrs", str(users),
                   "--event-attrs", str(movies), "--mapping", str(mapping),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_ILL_POSED


class TestTestCommand:
    def test_contrasts_on_fit_report(self, fit_run, capsys):
        rc = main(["test", str(fit_run / "fit.json"),
                   "--contrast", "alpha:1-alpha:2",
                   "--contrast", "gamma:1=0",
                   "--contrast", "gamma:2=0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("contrast\t")
        assert len(lines) == 4

    def test_distinct_degree_actors_give_large_statistic(self, fit_run, capsys):
        sidecar = json.loads((fit_run / "fit.json").read_text())
        alpha = np.array(sidecar["alpha"])
        hi = int(np.argmax(alpha)) + 1
        lo = int(np.argmin(alpha)) + 1
        rc = main(["test", str(fit_run / "fit.json"),
                   "--contrast", f"alpha:{hi}-alpha:{lo}"])
        assert rc == EXIT_OK
        stat = float(capsys.readouterr().out.strip().splitlines()[1].split("\t")[3])
        assert abs(stat) > 4.0

    def test_self_contrast(self, fit_run, capsys):
        rc = main(["test", str(fit_run / "fit.json"),
                   "--contrast", "alpha:1-alpha:1"])
        assert rc == EXIT_OK
        fields = capsys.readouterr().out.strip().splitlines()[1].split("\t")
        assert float(fields[3]) == 0.0
        assert float(fields[4]) == pytest.approx(1.0)

    def test_strong_coefficient_is_significant(self, fit_run, capsys):
        rc = main(["test", str(fit_run / "fit.json"), "--contrast", "gamma:1=0"])
        assert rc == EXIT_OK
        p = float(capsys.readouterr().out.strip().splitlines()[1].split("\t")[4])
        assert p < 1e-3

    def test_unknown_parameter_name(self, fit_run, capsys):
        rc = main(["test", str(fit_run / "fit.json"),
                   "--contrast", "alpha:9999"])
        assert rc == EXIT_CONFIG

    def test_written_test_report(self, fit_run, tmp_path):
        out = tmp_path / "tests_out"
        rc = main(["test", str(fit_run / "fit.json"),
                   "--contrast", "gamma:1", "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert (out / "tests.tsv").exists()
        assert (out / "manifest.json").exists()


class TestSimulateCommand:
    def scenario_file(self, tmp_path, **overrides):
        raw = {"m": 24, "n": 20, "L": 0.0, "gamma_star": [0.5, 1.0],
               "replications": 3, "seed": 7}
        raw.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        return path

    def test_summary_and_qq_outputs(self, tmp_path):
        path = self.scenario_file(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", str(path), "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert (out / "summary.tsv").exists()
        assert (out / "qq_alpha_1.txt").exists()
        assert (out / "manifest.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        path = self.scenario_file(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", str(path), "--out-dir", str(out1)]) == EXIT_OK
        assert main(["simulate", str(path), "--out-dir", str(out2)]) == EXIT_OK
        assert (out1 / "summary.tsv").read_bytes() == (out2 / "summary.tsv").read_bytes()
        assert (out1 / "qq_alpha_1.txt").read_bytes() == (out2 / "qq_alpha_1.txt").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = self.scenario_file(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", str(path), "--out-dir", str(out1)])
        main(["simulate", str(path), "--seed", "8", "--out-dir", str(out2)])
        assert (out1 / "summary.tsv").read_bytes() != (out2 / "summary.tsv").read_bytes()

    def test_unknown_family_in_scenario(self, tmp_path):
        path = self.scenario_file(tmp_path, family="probit")
        rc = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        rc = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_single_replication_smoke_is_fast(self, tmp_path):
        path = self.scenario_file(tmp_path, m=50, n=50, replications=1)
        started = time.perf_counter()
        rc = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
        elapsed = time.perf_counter() - started
        assert rc == EXIT_OK
        assert elapsed < 5.0


class TestEnvironmentOverrides:
    def test_family_from_environment(self, tmp_path, monkeypatch):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\t2\nu1\tm2\t1\nu2\tm1\t1\nu2\tm2\t3\n")
        monkeypatch.setenv("BIMOMENT_FAMILY", "poisson")
        out = tmp_path / "out"
        rc = main(["fit", str(edges), "--count-mode", "--out-dir", str(out)])
        assert rc == EXIT_OK
        sidecar = json.loads((out / "fit.json").read_text())
        assert sidecar["family"] == "poisson"

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\nu2\tm2\nu1\tm2\nu2\tm1\n")
        monkeypatch.setenv("BIMOMENT_FAMILY", "poisson")
        rc = main(["fit", str(edges), "--family", "logistic",
                   "--out-dir", str(tmp_path / "out")])
        # logistic on a graph where every degree is balanced: converges
        assert rc == EXIT_NONEXISTENT  # saturated actors: u1 and u2 see all events

    def test_boolean_flag_from_environment(self, tmp_path, monkeypatch):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\t5\nu1\tm2\t1\nu2\tm1\t1\nu2\tm2\t4\n")
        # ratings-style weights only load in binary mode once binarized
        monkeypatch.setenv("BIMOMENT_BINARIZE", "1")
        rc = main(["fit", str(edges), "--family", "poisson",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK
        sidecar = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert sidecar["m"] == 2 and sidecar["n"] == 2

    @pytest.mark.parametrize("variable, argv", [
        ("BIMOMENT_TOL", ["fit", "edges.tsv"]),
        ("BIMOMENT_MAX_ITER", ["fit", "edges.tsv"]),
        ("BIMOMENT_SEED", ["fit", "edges.tsv"]),
        ("BIMOMENT_THREADS", ["fit", "edges.tsv"]),
        ("BIMOMENT_THREADS", ["simulate", "scenario.json"]),
    ])
    def test_malformed_numeric_environment_is_usage_error(
        self, monkeypatch, capsys, variable, argv
    ):
        monkeypatch.setenv(variable, "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "invalid" in err and "'abc'" in err
        assert "Traceback" not in err
