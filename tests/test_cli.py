"""Command-line pipeline: exit codes, report files, manifests, byte-level
reproducibility, and environment-variable overrides."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bimoment
from bimoment import FitOptions, ParameterSet, StructuredJacobian, cli, fitter
from bimoment.cli import (
    EXIT_CONFIG,
    EXIT_ILL_POSED,
    EXIT_NONEXISTENT,
    EXIT_OK,
    main,
)
from bimoment.data import load_edge_list
from bimoment.families import get_family
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

    def test_trace_records_linear_iterations(self, fit_run):
        header, *rows = (fit_run / "trace.tsv").read_text().splitlines()
        assert header.split("\t") == ["step", "halvings", "degree_norm",
                                      "covariate_norm", "linear_iterations"]
        assert len(rows) >= 2
        # the filtered fixture's smaller side is below the CG gate, so
        # every step factors the Schur complement
        assert all(row.split("\t")[4] == "0" for row in rows)

    def test_report_header(self, fit_run):
        note, header, first = (fit_run / "report.tsv").read_text().splitlines()[:3]
        assert note.startswith("# beta:") and note.endswith(" pinned to 0")
        assert header.split("\t") == ["name", "label", "estimate", "se", "statistic",
                                      "p_value", "ci_low", "ci_high"]
        assert first.startswith("alpha:1\t")

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

    @pytest.mark.parametrize("covariates, flags, crlf", [
        (True, [], False),
        (True, ["--method", "sandwich", "--bias-correct"], False),
        # without covariates (p = 0) the general inference code runs on
        # empty arrays, and the sandwich builds its score covariance from
        # 0-size planes
        (False, [], False),
        (False, ["--method", "sandwich"], False),
        # the rerun reads the edges with CRLF line ends and space-padded ids
        (True, [], True),
    ], ids=["fisher", "sandwich-bias-correct", "p0-fisher", "p0-sandwich", "crlf-padded-ids"])
    def test_rerun_is_byte_identical(self, fixture_dir, tmp_path, covariates, flags, crlf):
        edges = [fixture_dir.edges, fixture_dir.edges]
        if crlf:
            edges[1] = tmp_path / "crlf.tsv"
            edges[1].write_bytes(b"".join(
                b"  %s \t %s  \r\n" % tuple(line.split(b"\t"))
                for line in fixture_dir.edges.read_bytes().splitlines()))
        outs = [tmp_path / "first", tmp_path / "again"]
        for path, out in zip(edges, outs):
            argv = ["fit", str(path), "--min-degree", str(fixture_dir.min_degree),
                    "--out-dir", str(out), *flags]
            if covariates:
                argv += ["--actor-attrs", str(fixture_dir.actor_attrs),
                         "--event-attrs", str(fixture_dir.event_attrs),
                         "--mapping", str(fixture_dir.mapping)]
            assert main(argv) == EXIT_OK
        for name in ("report.tsv", "trace.tsv", "fit.json"):
            assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()

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
        assert not (tmp_path / "out").exists()

    def test_unknown_family(self, tmp_path, capsys):
        # checked before the edge list is read or the output directory made
        out = tmp_path / "out"
        rc = main(["fit", str(tmp_path / "missing.tsv"), "--family", "bogus",
                   "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert "unknown family 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_count_family_reads_weights_as_counts(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\t2\nu1\tm2\t1\nu1\tm3\t4\nu2\tm1\t3\nu2\tm2\t1\n"
                         "u3\tm2\t5\nu3\tm3\t2\n")
        out = tmp_path / "out"
        assert main(["fit", str(edges), "--family", "poisson", "--out-dir", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "fit.json").read_text())
        want = fitter.fit(load_edge_list(edges, mode="count"), None, get_family("poisson"))
        assert sidecar["alpha"] == want.params.alpha.tolist()
        assert sidecar["beta"] == want.params.beta.tolist()

    def test_count_family_sums_duplicates_on_request(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\t1\nu1\tm2\nu2\tm1\nu2\tm2\t2\nu1\tm1\t1\n")
        summed = tmp_path / "summed.tsv"
        summed.write_text("u1\tm1\t2\nu1\tm2\nu2\tm1\nu2\tm2\t2\n")
        argv = ["fit", "--family", "poisson"]
        assert main([*argv, str(edges), "--out-dir", str(tmp_path / "dup")]) == EXIT_CONFIG
        assert "line 5: duplicate edge (u1, m1); pass sum_duplicates" in capsys.readouterr().err
        assert main([*argv, str(edges), "--sum-duplicates",
                     "--out-dir", str(tmp_path / "a")]) == EXIT_OK
        assert main([*argv, str(summed), "--out-dir", str(tmp_path / "b")]) == EXIT_OK
        assert ((tmp_path / "a" / "report.tsv").read_bytes()
                == (tmp_path / "b" / "report.tsv").read_bytes())

    def test_count_mode_flag_is_unknown(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\t2\nu2\tm2\t1\n")
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(edges), "--family", "poisson", "--count-mode",
                  "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

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

    def test_one_linearization_at_the_estimate(self, fixture_dir, tmp_path, monkeypatch):
        # the estimate's Jacobian is built once, by fit, and every output
        # (report, sidecar, components) reads the same inference state
        counts = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(StructuredJacobian, "__init__")
        count(StructuredJacobian, "inverse_blocks")
        count(ParameterSet, "linear_predictor")
        count(fitter, "profile_jacobian")
        rc = main([
            "fit", str(fixture_dir.edges),
            "--actor-attrs", str(fixture_dir.actor_attrs),
            "--event-attrs", str(fixture_dir.event_attrs),
            "--mapping", str(fixture_dir.mapping),
            "--min-degree", str(fixture_dir.min_degree),
            "--out-dir", str(tmp_path),
        ])
        assert rc == EXIT_OK
        trace = (tmp_path / "trace.tsv").read_text().splitlines()[1:]
        halvings = [int(line.split("\t")[1]) for line in trace[1:]]
        assert counts["__init__"] == len(halvings) + 1
        assert counts["inverse_blocks"] == 1
        assert counts["profile_jacobian"] == 0
        # one predictor pass per evaluated point: the start and every trial
        assert counts["linear_predictor"] == 1 + sum(h + 1 for h in halvings)

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_min_degree_is_usage_error(self, fixture_dir, tmp_path, capsys, value):
        out = tmp_path / "out"
        rc = main(["fit", str(fixture_dir.edges), f"--min-degree={value}",
                   "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"min_degree must be a number >= 0, got {float(value)!r}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("mappings", 5), ("mappings", None), ("groups", "abc"), ("groups", ["abc"]),
        ("name", 5), ("actor_attr", ["sex"]), ("event_attr", ["genre"]),
    ], ids=["mappings-int", "mappings-null", "groups-string", "groups-list",
            "name-int", "actor_attr-list", "event_attr-list"])
    def test_malformed_mapping_file_is_usage_error(self, fixture_dir, tmp_path, capsys,
                                                   field, value):
        raw = json.loads(fixture_dir.mapping.read_text())
        if field == "mappings":
            raw["mappings"] = value
        else:
            raw["mappings"][0][field] = value
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps(raw))
        out = tmp_path / "out"
        rc = main([
            "fit", str(fixture_dir.edges),
            "--actor-attrs", str(fixture_dir.actor_attrs),
            "--event-attrs", str(fixture_dir.event_attrs),
            "--mapping", str(mapping), "--out-dir", str(out),
        ])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--actor-attrs", "--event-attrs"), ("--actor-attrs",), ("--event-attrs",),
    ], ids=["both", "actors", "events"])
    def test_attribute_tables_without_mapping_are_usage_error(
            self, fixture_dir, tmp_path, capsys, flags):
        tables = {"--actor-attrs": fixture_dir.actor_attrs,
                  "--event-attrs": fixture_dir.event_attrs}
        out = tmp_path / "out"
        argv = ["fit", str(fixture_dir.edges), "--out-dir", str(out)]
        for flag in flags:
            argv += [flag, str(tables[flag])]
        assert main(argv) == EXIT_CONFIG
        assert "--actor-attrs and --event-attrs require --mapping" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_delimiter_is_usage_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\n")
        rc = main(["fit", str(edges), "--delimiter", "", "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "delimiter must not be empty" in err
        assert "Traceback" not in err


def _small_inputs(tmp_path) -> dict:
    """A valid run's inputs: edges, both attribute tables, a mapping, a
    scenario and a fit report from a fit of the others."""
    paths = {name: tmp_path / name for name in (
        "edges.tsv", "users.tsv", "movies.tsv", "mapping.json", "scenario.json")}
    paths["edges.tsv"].write_text(
        "u1\tm1\nu1\tm2\nu2\tm2\nu2\tm3\nu3\tm1\nu3\tm3\n")
    paths["users.tsv"].write_text("id\tsex\nu1\tM\nu2\tF\nu3\tM\n")
    paths["movies.tsv"].write_text("id\tgenre\nm1\ta\nm2\tb\nm3\ta\n")
    paths["mapping.json"].write_text(json.dumps({"mappings": [{
        "name": "match", "actor_attr": "sex", "event_attr": "genre",
        "groups": {"a": "M", "b": "F"},
    }]}))
    paths["scenario.json"].write_text(json.dumps({
        "m": 10, "n": 10, "L": 0.0, "gamma_star": [0.5, 1.0], "replications": 1}))
    assert main(["fit", str(paths["edges.tsv"]), "--out-dir", str(tmp_path / "fit")]) \
        == EXIT_OK
    paths["fit.json"] = tmp_path / "fit" / "fit.json"
    return paths


class TestInputEncoding:
    """An input file that is not valid UTF-8 is an input error (exit 2)
    naming the file and where the bad byte is, never a traceback."""

    @pytest.mark.parametrize("corrupt, where", [
        ("edges.tsv", "line 3: "),
        ("users.tsv", "line 3: "),
        ("movies.tsv", "line 3: "),
        ("mapping.json", "position 12"),
        ("scenario.json", "position 12"),
        ("fit.json", "position 12"),
    ])
    def test_byte_ff_is_an_input_error(self, tmp_path, capsys, corrupt, where):
        paths = _small_inputs(tmp_path)
        raw = paths[corrupt].read_bytes()
        if corrupt.endswith(".tsv"):    # at the start of line 3
            cut = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        else:                           # at byte offset 12
            cut = 12
        paths[corrupt].write_bytes(raw[:cut] + b"\xff" + raw[cut:])
        capsys.readouterr()
        if corrupt == "scenario.json":
            argv = ["simulate", str(paths[corrupt])]
        elif corrupt == "fit.json":
            argv = ["test", str(paths[corrupt]), "--contrast", "alpha:1"]
        else:
            argv = ["fit", str(paths["edges.tsv"]),
                    "--actor-attrs", str(paths["users.tsv"]),
                    "--event-attrs", str(paths["movies.tsv"]),
                    "--mapping", str(paths["mapping.json"])]
        rc = main(argv + ["--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(paths[corrupt]) in err
        assert where in err
        assert "0xff" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("argv", [
        ["--contrast", "alpha:1", "--null", "nan"],
        ["--contrast", "alpha:1-alpha:2", "--null", "inf"],
        ["--contrast", "gamma:1=1e999"],
    ], ids=["null-nan", "null-inf", "overflowing-contrast"])
    def test_non_finite_null_is_usage_error(self, fit_run, capsys, argv):
        rc = main(["test", str(fit_run / "fit.json"), *argv])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "null value must be finite" in err
        assert "Traceback" not in err

    def test_sidecar_missing_a_component_is_usage_error(self, fit_run, tmp_path, capsys):
        sidecar = json.loads((fit_run / "fit.json").read_text())
        del sidecar["u_tail"]
        broken = tmp_path / "fit.json"
        broken.write_text(json.dumps(sidecar))
        rc = main(["test", str(broken), "--contrast", "alpha:1"])
        assert rc == EXIT_CONFIG
        assert "missing field 'u_tail'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, edit", [
        ("theta", lambda v: "abc"),
        ("theta", lambda v: v[:5]),
        ("gamma_covariance", lambda v: [1.0]),
        ("gamma_covariance", lambda v: [[0.0, *v[0][1:]], *v[1:]]),
        ("gamma_covariance", lambda v: [[-1.0, *v[0][1:]], *v[1:]]),
        ("m", lambda v: "x"),
        ("v_diag", lambda v: None),
        ("v_tail", lambda v: -1),
    ], ids=["theta-string", "theta-short", "covariance-flat", "covariance-zero-variance",
            "covariance-negative-variance", "m-string", "v_diag-null", "v_tail-negative"])
    def test_sidecar_malformed_component_is_usage_error(
            self, fit_run, tmp_path, capsys, field, edit):
        sidecar = json.loads((fit_run / "fit.json").read_text())
        sidecar[field] = edit(sidecar[field])
        broken = tmp_path / "fit.json"
        broken.write_text(json.dumps(sidecar))
        # a gamma contrast reads the coefficient variance
        rc = main(["test", str(broken), "--contrast", "gamma:1"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert f"field {field!r}" in err
        assert "Traceback" not in err

    def test_sidecar_with_the_former_converged_key(self, fit_run, tmp_path, capsys):
        # a fit.json written before the key was dropped carries
        # "converged": true and must give the same test output
        sidecar = json.loads((fit_run / "fit.json").read_text())
        assert "converged" not in sidecar
        old = tmp_path / "old_fit.json"
        old.write_text(json.dumps({**sidecar, "converged": True}, indent=2,
                                  sort_keys=True) + "\n")
        outputs = []
        for k, path in enumerate((fit_run / "fit.json", old)):
            out = tmp_path / f"out{k}"
            rc = main(["test", str(path), "--contrast", "alpha:1-alpha:2",
                       "--contrast", "gamma:1=0", "--out-dir", str(out)])
            assert rc == EXIT_OK
            outputs.append((capsys.readouterr().out, (out / "tests.tsv").read_bytes()))
        assert outputs[0] == outputs[1]

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
        lines = (out / "summary.tsv").read_text().splitlines()
        assert lines[0] == "metric\tkey\tvalue"
        assert any(line.startswith("mae\talpha:1\t") for line in lines)
        converged = next(int(line.split("\t")[2]) for line in lines
                         if line.startswith("converged\t"))
        qq = sorted(out.glob("qq_*.txt"))
        assert len(qq) == 6  # three tracked alphas + three tracked betas
        assert out / "qq_alpha_1.txt" in qq
        assert all(len(path.read_text().splitlines()) == converged for path in qq)
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("threads, overrides", [
        (1, {}),
        # a study keeps per-process caches; forked workers must still
        # write what one process writes
        (2, {"m": 30, "n": 24, "replications": 40, "seed": 5}),
        (2, {"m": 40, "n": 30, "gamma_star": [], "scheme": "none",
             "replications": 40, "seed": 3}),
    ], ids=["serial", "two-workers", "two-workers-p0"])
    def test_rerun_byte_identical(self, tmp_path, threads, overrides):
        path = self.scenario_file(tmp_path, **overrides)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", str(path), "--out-dir", str(out1)]) == EXIT_OK
        assert main(["simulate", str(path), "--threads", str(threads),
                     "--out-dir", str(out2)]) == EXIT_OK
        names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
        assert "summary.tsv" in names and "qq_beta_1.txt" in names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = self.scenario_file(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", str(path), "--out-dir", str(out1)])
        main(["simulate", str(path), "--seed", "8", "--out-dir", str(out2)])
        assert (out1 / "summary.tsv").read_bytes() != (out2 / "summary.tsv").read_bytes()

    @pytest.mark.parametrize("argv, env", [
        (["--threads", "0"], None), (["--threads", "-3"], None), ([], "0"),
    ], ids=["threads-0", "threads-negative", "env-threads-0"])
    def test_fewer_than_one_worker_is_usage_error(self, tmp_path, capsys,
                                                  monkeypatch, argv, env):
        if env is not None:
            monkeypatch.setenv("BIMOMENT_THREADS", env)
        out = tmp_path / "out"
        rc = main(["simulate", str(self.scenario_file(tmp_path)), *argv,
                   "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_family_in_scenario(self, tmp_path):
        path = self.scenario_file(tmp_path, family="probit")
        rc = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        rc = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, argv", [
        ({"seed": -3}, []),
        ({}, ["--seed", "-1"]),
        ({"seed": 1.5}, []),
        ({"m": 10.5}, []),
        ({"replications": 2.5}, []),
        ({"L": float("nan")}, []),
        ({"gamma_star": [float("nan"), 1.0]}, []),
        ({"L": None, "L_factor": "a"}, []),
        ({"gamma_star": [0.5]}, []),
        ({"gamma_star": [0.5, 1.0], "scheme": "none"}, []),
        (None, []),
        # finite L whose truth (alpha_1 = 9 L / 9) or predictor overflows
        ({"L": 1e308}, []),
        ({"L": -1e308}, []),
        ({"m": 2, "n": 2, "L": 1e308}, []),
        # too large for a float, and for any m x n array
        ({"m": 10**400}, []),
    ], ids=["negative-seed", "negative-seed-flag", "fractional-seed",
            "fractional-m", "fractional-replications", "nan-L", "nan-gamma",
            "string-L_factor", "gamma-short-for-scheme", "gamma-long-for-scheme",
            "json-list", "huge-L", "huge-negative-L", "huge-L-2x2", "400-digit-m"])
    def test_malformed_scenario_is_config_error(self, tmp_path, capsys,
                                                overrides, argv):
        raw = {"m": 10, "n": 10, "L": 0.0, "gamma_star": [0.5, 1.0],
               "replications": 1, "seed": 7}
        if overrides is None:
            raw = [raw]
        else:
            raw.update(overrides)   # an override of None drops the key
            raw = {k: v for k, v in raw.items() if v is not None}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        rc = main(["simulate", str(path), *argv, "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_single_replication_smoke_is_fast(self, tmp_path):
        path = self.scenario_file(tmp_path, m=50, n=50, replications=1)
        started = time.perf_counter()
        rc = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
        elapsed = time.perf_counter() - started
        assert rc == EXIT_OK
        assert elapsed < 5.0


def test_table_format():
    # floats to 10 significant digits, anything else as str gives it
    rows = [("a", 7, 1 / 3), (1e-300, 123456789.123, "b")]
    body = "a\t7\t0.3333333333\n1e-300\t123456789.1\tb\n"
    assert cli._table(rows) == body
    assert cli._table(rows, ("x", "y", "z")) == "x\ty\tz\n" + body
    assert cli._table(rows, ("x", "y", "z"), comment="note") == "# note\nx\ty\tz\n" + body


class TestSolverOptions:
    """A ``--tol`` that is not finite and positive, or a ``--max-iter``
    below 1, is a configuration error (exit 2) whether it comes as a flag
    or from the environment, and nothing is fitted or written."""

    @pytest.mark.parametrize("flag, value", [
        ("tol", "0"), ("tol", "-1"), ("tol", "nan"), ("tol", "inf"),
        ("max-iter", "0"),
    ])
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_bad_solver_option_is_config_error(self, tmp_path, monkeypatch, capsys,
                                               flag, value, source):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\nu1\tm2\nu2\tm2\nu2\tm3\nu3\tm1\nu3\tm3\n")
        out = tmp_path / "out"
        argv = ["fit", str(edges), "--out-dir", str(out)]
        if source == "flag":
            argv.append(f"--{flag}={value}")
        else:
            monkeypatch.setenv("BIMOMENT_" + flag.replace("-", "_").upper(), value)
        rc = main(argv)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert flag.replace("-", "_") in err
        assert "Traceback" not in err
        assert not out.exists()


class TestEnvironmentOverrides:
    def test_solver_defaults_are_fit_options_defaults(self, monkeypatch):
        for variable in ("BIMOMENT_TOL", "BIMOMENT_MAX_ITER"):
            monkeypatch.delenv(variable, raising=False)
        args = cli.build_parser().parse_args(["fit", "edges.tsv"])
        assert FitOptions(tol=args.tol, max_iter=args.max_iter) == FitOptions()

    def test_family_from_environment(self, tmp_path, monkeypatch):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\t2\nu1\tm2\t1\nu2\tm1\t1\nu2\tm2\t3\n")
        monkeypatch.setenv("BIMOMENT_FAMILY", "poisson")
        out = tmp_path / "out"
        rc = main(["fit", str(edges), "--out-dir", str(out)])
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

    def test_numeric_environment_default_is_converted(self, monkeypatch):
        monkeypatch.setenv("BIMOMENT_MIN_DEGREE", "40")
        args = cli.build_parser().parse_args(["fit", "edges.tsv"])
        assert args.min_degree == 40.0 and isinstance(args.min_degree, float)

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("TRUE", True), ("Yes", True), (" on ", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False),
    ])
    def test_boolean_environment_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("BIMOMENT_BIAS_CORRECT", value)
        args = cli.build_parser().parse_args(["fit", "edges.tsv"])
        assert args.bias_correct is expected

    @pytest.mark.parametrize("variable, value", [
        ("BIMOMENT_BIAS_CORRECT", "ture"),
        ("BIMOMENT_BIAS_CORRECT", ""),
        ("BIMOMENT_BINARIZE", "2"),
        ("BIMOMENT_SUM_DUPLICATES", "enabled"),
        ("BIMOMENT_PERMISSIVE", "nein"),
    ])
    def test_malformed_boolean_environment_is_usage_error(
        self, tmp_path, monkeypatch, capsys, variable, value
    ):
        edges = tmp_path / "edges.tsv"
        edges.write_text("u1\tm1\nu1\tm2\nu2\tm2\nu2\tm3\nu3\tm1\nu3\tm3\n")
        out = tmp_path / "out"
        monkeypatch.setenv(variable, value)
        rc = main(["fit", str(edges), "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {variable} must be one of")
        assert repr(value) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("variable, argv", [
        ("BIMOMENT_TOL", ["fit", "edges.tsv"]),
        ("BIMOMENT_MAX_ITER", ["fit", "edges.tsv"]),
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


def loaded_modules(code):
    """The scipy, concurrent and multiprocessing modules a fresh process
    has loaded after running ``code``."""
    src = Path(bimoment.__file__).resolve().parents[1]
    code += ("\nimport sys; print('loaded:', *sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return run.stdout.splitlines()[-1].split()[1:]


def test_import_set():
    # the only scipy module the package loads is the compiled LAPACK module,
    # straight from its file: scipy.linalg's package __init__ (through
    # scipy._lib's array-API layer) would double a process's start-up time
    # and memory, and scipy.stats is used only in the tests.  The process
    # pool loads only for a study that uses one.
    assert loaded_modules("import bimoment, bimoment.cli") == ["scipy.linalg._flapack"]


def _direct_ndtr():
    try:
        import scipy.special._special_ufuncs as ufuncs
    except ImportError:
        return False
    return hasattr(ufuncs, "ndtr")


@pytest.mark.skipif(not _direct_ndtr(), reason="this scipy has no ndtr in "
                    "scipy.special._special_ufuncs, so p-values import scipy.special")
def test_fit_and_test_import_set(fixture_dir, tmp_path):
    # the p-values of a report and of a Wald test take ndtr from its compiled
    # module, straight from its file like LAPACK: scipy.special's package
    # __init__ loads the same array-API layer as scipy.linalg's
    fit_args = ["fit", str(fixture_dir.edges), "--actor-attrs", str(fixture_dir.actor_attrs),
                "--event-attrs", str(fixture_dir.event_attrs), "--mapping",
                str(fixture_dir.mapping), "--min-degree", str(fixture_dir.min_degree),
                "--out-dir", str(tmp_path / "fit")]
    test_args = ["test", str(tmp_path / "fit" / "fit.json"), "--contrast", "gamma:1=0",
                 "--contrast", "alpha:1-alpha:2", "--out-dir", str(tmp_path / "test")]
    code = (f"from bimoment.cli import main\n"
            f"assert main({fit_args!r}) == 0 and main({test_args!r}) == 0")
    assert loaded_modules(code) == ["scipy.linalg._flapack", "scipy.special._special_ufuncs"]
    assert (tmp_path / "test" / "tests.tsv").read_text().count("\n") == 3
