"""Config parsing, experiment runners, output files, and the CLI."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deepmatch
from deepmatch import experiments
from deepmatch.cli import main
from deepmatch.data import SwissRollConfig, gen_swiss_roll
from deepmatch.experiments import (
    EXPERIMENTS,
    ConfigError,
    GradcheckRun,
    PropensityRun,
    StageError,
    SwissRollRun,
    parse_propensity,
    parse_swissroll,
    prepare_out_dir,
    run_gradcheck,
    run_propensity,
    run_swissroll,
)
from deepmatch.metrics import REFERENCE_MISASSIGNMENT
from deepmatch.network import TrainConfig
from deepmatch.propensity import PropensityFitConfig

SR_SMALL = {
    "version": 1,
    "experiment": "swissroll",
    "dataset": {"n": 120},
    "autoencoder": {"epochs": 20},
}

PS_SMALL = {
    "version": 1,
    "experiment": "propensity",
    "dataset": {"n_pairs": 60},
    "net": {"batch_size": 16},
}

GRADCHECK = EXPERIMENTS["gradcheck"]


class TestParseSwissroll:
    def test_empty_doc_gives_defaults(self):
        assert parse_swissroll({}) == SwissRollRun()

    def test_seed_override_flows_into_dataset(self, tmp_path, monkeypatch):
        cfg = parse_swissroll(
            {"seed": 3, "dataset": {"n": 100}, "methods": ["raw_knn"]}, seed_override=7
        )
        assert cfg.seed == 7
        draws = []

        def recording_gen_swiss_roll(dataset, seed):
            draws.append((dataset, seed))
            return gen_swiss_roll(dataset, seed)

        monkeypatch.setattr(experiments, "gen_swiss_roll", recording_gen_swiss_roll)
        run_swissroll(cfg, tmp_path / "out")
        assert draws == [(cfg.dataset, 7)]

    def test_unknown_keys_rejected_at_each_level(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_swissroll({"bogus": 1})
        with pytest.raises(ConfigError, match="config.dataset"):
            parse_swissroll({"dataset": {"jitter": 1}})
        with pytest.raises(ConfigError, match="config.autoencoder"):
            parse_swissroll({"autoencoder": {"lr": 0.1}})
        with pytest.raises(ConfigError, match="config.lle"):
            parse_swissroll({"lle": {"neighbours": 5}})

    def test_version_mismatch_rejected(self):
        for version in (2, True, 1.0, "1"):
            with pytest.raises(ConfigError, match="config.version"):
                parse_swissroll({"version": version})

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="swissroll"):
            parse_swissroll({"experiment": "propensity"})

    def test_bool_rejected_where_int_expected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_swissroll({"seed": True})

    def test_methods_subset_kept_in_order(self):
        cfg = parse_swissroll({"methods": ["pca", "raw_knn"]})
        assert cfg.methods == ("pca", "raw_knn")

    def test_methods_validation(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_swissroll({"methods": ["umap"]})
        with pytest.raises(ConfigError, match="duplicate"):
            parse_swissroll({"methods": ["pca", "pca"]})
        with pytest.raises(ConfigError, match="non-empty"):
            parse_swissroll({"methods": []})

    def test_test_fraction_bounds(self):
        with pytest.raises(ConfigError, match="test_fraction"):
            parse_swissroll({"test_fraction": 0.0})
        with pytest.raises(ConfigError, match="test_fraction"):
            parse_swissroll({"test_fraction": 1.0})

    def test_hidden_must_be_positive_ints(self):
        with pytest.raises(ConfigError, match="hidden"):
            parse_swissroll({"autoencoder": {"hidden": [4, -1]}})
        with pytest.raises(ConfigError, match="hidden"):
            parse_swissroll({"autoencoder": {"hidden": [4, True]}})

    def test_resolved_config_reparses_identically(self):
        cfg = parse_swissroll(
            {
                "seed": 5,
                "dataset": {"n": 200, "noise_sigma": 0.1, "coeff_treated": [3, 1, 1]},
                "methods": ["lle", "pca"],
                "embed_dim": 2,
                "twin_mode": True,
                "autoencoder": {"epochs": 50, "hidden": [6]},
                "lle": {"k_neighbors": 8, "reg": 1e-2},
            }
        )
        assert parse_swissroll(EXPERIMENTS["swissroll"].resolve(cfg)) == cfg

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_swissroll([1, 2])


class TestParsePropensity:
    def test_empty_doc_gives_defaults(self):
        assert parse_propensity({}) == PropensityRun()

    def test_resolved_config_reparses_identically(self):
        cfg = parse_propensity(
            {
                "seed": 2,
                "dataset": {"n_pairs": 80, "jitter_sigma": 0.05},
                "methods": ["logistic"],
                "include_outcome": True,
                "query_arm": 0,
                "threshold": 0.4,
                "net": {"epochs": 3, "batch_size": 64},
                "logistic": {"l2": 0.1, "max_iter": 500, "grad_tol": 1e-6},
            }
        )
        assert parse_propensity(EXPERIMENTS["propensity"].resolve(cfg)) == cfg

    def test_query_arm_validated(self):
        with pytest.raises(ConfigError, match="query_arm"):
            parse_propensity({"query_arm": 2})

    def test_threshold_bounds(self):
        with pytest.raises(ConfigError, match="threshold"):
            parse_propensity({"threshold": 1.0})

    def test_unknown_nested_keys_rejected(self):
        with pytest.raises(ConfigError, match="config.net"):
            parse_propensity({"net": {"lr": 0.1}})
        with pytest.raises(ConfigError, match="config.logistic"):
            parse_propensity({"logistic": {"penalty": "l1"}})

    def test_n_pairs_minimum(self):
        with pytest.raises(ConfigError, match="n_pairs"):
            parse_propensity({"dataset": {"n_pairs": 1}})


class TestParseGradcheck:
    def test_empty_doc_gives_defaults(self):
        assert GRADCHECK.parse({}) == GradcheckRun()

    def test_resolved_config_reparses_identically(self):
        cfg = GRADCHECK.parse({"seed": 4, "count": 6, "step": 1e-6, "tolerance": 1e-3})
        assert GRADCHECK.parse(GRADCHECK.resolve(cfg)) == cfg

    def test_positivity_validated(self):
        with pytest.raises(ConfigError, match="step"):
            GRADCHECK.parse({"step": 0.0})
        with pytest.raises(ConfigError, match="tolerance"):
            GRADCHECK.parse({"tolerance": -1.0})
        with pytest.raises(ConfigError, match="count"):
            GRADCHECK.parse({"count": 0})

    def test_corrupt_must_be_bool(self):
        with pytest.raises(ConfigError, match="corrupt"):
            GRADCHECK.parse({"corrupt": 1})


class TestPrepareOutDir:
    def test_creates_nested_directories(self, tmp_path):
        out = prepare_out_dir(tmp_path / "a" / "b")
        assert out.is_dir()

    def test_empty_existing_dir_accepted(self, tmp_path):
        assert prepare_out_dir(tmp_path) == tmp_path

    def test_non_empty_requires_force(self, tmp_path):
        (tmp_path / "old.txt").write_text("x")
        with pytest.raises(ConfigError, match="force"):
            prepare_out_dir(tmp_path)
        assert prepare_out_dir(tmp_path, force=True) == tmp_path

    def test_file_path_rejected(self, tmp_path):
        target = tmp_path / "plain.txt"
        target.write_text("x")
        with pytest.raises(ConfigError, match="not a directory"):
            prepare_out_dir(target)


class TestRunSwissroll:
    def test_output_contract(self, tmp_path):
        cfg = parse_swissroll(SR_SMALL)
        reports = run_swissroll(cfg, tmp_path / "out")
        assert [r.method for r in reports] == list(cfg.methods)

        out = tmp_path / "out"
        for method in cfg.methods:
            assert (out / f"embedding_{method}.csv").exists()
        payload = json.loads((out / "reports.json").read_text())
        assert payload["experiment"] == "swissroll"
        assert payload["seed"] == 0
        assert len(payload["reports"]) == 4
        for entry in payload["reports"]:
            assert set(entry) == {"method", "mean_abs_ite_error", "ate_error", "n_test", "seed"}

        pca_lines = (out / "embedding_pca.csv").read_text().splitlines()
        assert pca_lines[0] == "index,split,group,w,z1,z2"
        assert len(pca_lines) == 121
        raw_header = (out / "embedding_raw_knn.csv").read_text().splitlines()[0]
        assert raw_header.endswith("z1,z2,z3")

        comparison = (out / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "method,mean_abs_ite_error,ate_error,n_test,seed"
        assert len(comparison) == 5

        resolved = json.loads((out / "resolved_config.json").read_text())
        assert parse_swissroll(resolved) == cfg

    def test_methods_filtering(self, tmp_path):
        cfg = parse_swissroll({"dataset": {"n": 100}, "methods": ["pca"]})
        reports = run_swissroll(cfg, tmp_path / "out")
        assert len(reports) == 1 and reports[0].method == "pca"
        out = tmp_path / "out"
        assert (out / "embedding_pca.csv").exists()
        assert not (out / "embedding_lle.csv").exists()
        assert not (out / "embedding_autoencoder.csv").exists()

    def test_pca_keeps_every_covariate(self, tmp_path):
        cfg = parse_swissroll({"dataset": {"n": 100}, "methods": ["raw_knn", "pca"], "embed_dim": 3})
        run_swissroll(cfg, tmp_path / "out")
        header = (tmp_path / "out" / "embedding_pca.csv").read_text().splitlines()[0]
        assert header == "index,split,group,w,z1,z2,z3"

    def test_twin_mode_recovers_effects_exactly(self, tmp_path):
        cfg = parse_swissroll(
            {
                "dataset": {"n": 150},
                "twin_mode": True,
                "autoencoder": {"epochs": 60},
            }
        )
        reports = run_swissroll(cfg, tmp_path / "out")
        assert len(reports) == 4
        for r in reports:
            assert r.mean_abs_ite_error == 0.0
            assert r.ate_error == 0.0
            assert r.n_test == 300

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_swissroll({"dataset": {"n": 100}, "methods": ["raw_knn", "pca"]})
        run_swissroll(cfg, tmp_path / "one")
        run_swissroll(cfg, tmp_path / "two")
        for name in ("reports.json", "comparison.csv", "embedding_pca.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_stage_error_names_failing_stage(self, tmp_path):
        docs = [
            {"dataset": {"n": 100}, "methods": ["lle"], "lle": {"k_neighbors": 200}},
            # raw_knn and pca finish before fit:lle fails; their files are not written
            {"dataset": {"n": 12}, "lle": {"k_neighbors": 10}},
        ]
        for i, doc in enumerate(docs):
            out = tmp_path / f"out{i}"
            with pytest.raises(StageError, match="fit:lle"):
                run_swissroll(parse_swissroll(doc), out)
            assert list(out.iterdir()) == []

    def test_forced_rerun_removes_stale_method_files(self, tmp_path):
        out = tmp_path / "out"
        run_swissroll(parse_swissroll({"dataset": {"n": 100}, "methods": ["raw_knn", "pca"]}), out)
        (out / "my_config.json").write_text("{}")  # a file of the user's own is kept
        run_swissroll(parse_swissroll({"dataset": {"n": 100}, "methods": ["raw_knn"]}), out, force=True)
        assert sorted(p.name for p in out.iterdir()) == [
            "comparison.csv", "embedding_raw_knn.csv", "my_config.json", "reports.json",
            "resolved_config.json",
        ]

    def test_refuses_non_empty_out_dir(self, tmp_path):
        (tmp_path / "stale.txt").write_text("x")
        with pytest.raises(ConfigError, match="not empty"):
            run_swissroll(parse_swissroll({"dataset": {"n": 100}, "methods": ["pca"]}), tmp_path)


class TestRunPropensity:
    def test_output_contract(self, tmp_path, monkeypatch):
        scored = []
        match = experiments.propensity_match

        def capture(scores, w, query_arm=1):
            scored.append(np.array(scores))
            return match(scores, w, query_arm=query_arm)

        monkeypatch.setattr(experiments, "propensity_match", capture)
        cfg = parse_propensity(PS_SMALL)
        reports = run_propensity(cfg, tmp_path / "out")
        assert [r.method for r in reports] == ["logistic", "propensity_net"]

        out = tmp_path / "out"
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert comparison[0] == (
            "method,Mean absolute misclassification error(%),"
            "Number of mis-assignments (%),Accuracy(%)"
        )
        assert len(comparison) == 3

        for method, scores in zip(cfg.methods, scored, strict=True):
            lines = (out / f"matched_pairs_{method}.csv").read_text().splitlines()
            assert lines[0] == (
                "query_index,score,x1,x2,y_obs,matched_index,matched_score,pair_index"
            )
            assert len(lines) == 61  # one row per treated query
            header = lines[0].split(",")
            for line in lines[1:]:
                # int() and float() reject a numpy repr such as "np.float64(0.5)"
                row = {
                    name: int(cell) if name.endswith("index") else float(cell)
                    for name, cell in zip(header, line.split(","), strict=True)
                }
                assert row["score"] == scores[row["query_index"]]
                assert row["matched_score"] == scores[row["matched_index"]]

        payload = json.loads((out / "reports.json").read_text())
        assert payload["experiment"] == "propensity"
        reference = payload["reference"]
        assert reference["logistic"]["Accuracy(%)"] == REFERENCE_MISASSIGNMENT["logistic"][2]
        assert (
            reference["propensity_net"]["Number of mis-assignments (%)"]
            == REFERENCE_MISASSIGNMENT["propensity_net"][1]
        )

        resolved = json.loads((out / "resolved_config.json").read_text())
        assert parse_propensity(resolved) == cfg

    def test_reports_within_percent_range(self, tmp_path):
        reports = run_propensity(parse_propensity(PS_SMALL), tmp_path / "out")
        for r in reports:
            for value in (
                r.mean_abs_misassignment_error_pct,
                r.misassignment_rate_pct,
                r.accuracy_pct,
            ):
                assert 0.0 <= value <= 100.0

    def test_include_outcome_adds_feature(self, tmp_path):
        doc = dict(PS_SMALL, include_outcome=True)
        cfg = parse_propensity(doc)
        run_propensity(cfg, tmp_path / "out")
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["include_outcome"] is True

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_propensity(PS_SMALL)
        run_propensity(cfg, tmp_path / "one")
        run_propensity(cfg, tmp_path / "two")
        assert (tmp_path / "one" / "reports.json").read_bytes() == (
            tmp_path / "two" / "reports.json"
        ).read_bytes()

    def test_stage_error_names_failing_stage(self, tmp_path):
        docs = [
            dict(PS_SMALL, logistic={"max_iter": 1}),
            # propensity_net finishes before fit:logistic fails; its file is not written
            {"dataset": {"n_pairs": 200}, "methods": ["propensity_net", "logistic"],
             "logistic": {"max_iter": 1}},
        ]
        for i, doc in enumerate(docs):
            out = tmp_path / f"out{i}"
            with pytest.raises(StageError, match="fit:logistic"):
                run_propensity(parse_propensity(doc), out)
            assert list(out.iterdir()) == []


class TestRunGradcheck:
    def test_default_grid_passes(self, tmp_path):
        results, all_pass = run_gradcheck(GRADCHECK.parse({"count": 6}), tmp_path / "out")
        assert all_pass is True
        assert len(results) == 6
        names = [r["name"] for r in results]
        assert len(set(names)) == 6
        for r in results:
            assert r["pass"] is True
            assert r["max_relative_error"] < 1e-4

        out = tmp_path / "out"
        payload = json.loads((out / "reports.json").read_text())
        assert set(payload) == {"experiment", "seed", "tolerance", "all_pass", "cases"}
        assert payload["all_pass"] is True
        assert len((out / "comparison.csv").read_text().splitlines()) == 7

    def test_corrupt_gradient_fails(self, tmp_path):
        results, all_pass = run_gradcheck(
            GRADCHECK.parse({"count": 3, "corrupt": True}), tmp_path / "out"
        )
        assert all_pass is False
        assert any(not r["pass"] for r in results)


# One bad value of every numeric config field, and the whole of stderr it gives.
_BAD_NUMERIC_VALUES = [
    ("swissroll", {"seed": -1},
     "error: config.seed must be >= 0, got -1\n"),
    ("swissroll", {"dataset": {"n": 1}},
     "error: config.dataset.n: n must be >= 2, got 1\n"),
    ("swissroll", {"dataset": {"noise_sigma": -0.1}},
     "error: config.dataset.noise_sigma: noise_sigma must be >= 0, got -0.1\n"),
    ("swissroll", {"dataset": {"coeff_control": [1, 2]}},
     "error: config.dataset.coeff_control must be a list of 3 values\n"),
    ("swissroll", {"dataset": {"coeff_treated": [1, math.nan, 2]}},
     "error: config.dataset.coeff_treated[1] must be a finite number, got nan\n"),
    ("swissroll", {"dataset": {"outcome_noise_sigma": -1}},
     "error: config.dataset.outcome_noise_sigma: outcome_noise_sigma must be >= 0, got -1.0\n"),
    ("swissroll", {"dataset": {"p_treat": 1.5}},
     "error: config.dataset.p_treat: p_treat must be in [0, 1], got 1.5\n"),
    ("swissroll", {"test_fraction": 1.0},
     "error: config.test_fraction must be in (0, 1), got 1.0\n"),
    ("swissroll", {"k_matches": 0},
     "error: config.k_matches must be >= 1, got 0\n"),
    ("swissroll", {"embed_dim": 0},
     "error: config.embed_dim must be >= 1, got 0\n"),
    ("swissroll", {"autoencoder": {"epochs": 0}},
     "error: config.autoencoder.epochs: epochs must be >= 1, got 0\n"),
    ("swissroll", {"autoencoder": {"batch_size": 0}},
     "error: config.autoencoder.batch_size: batch_size must be >= 1, got 0\n"),
    ("swissroll", {"autoencoder": {"hidden": [4, 0]}},
     "error: config.autoencoder.hidden must be >= 1, got 0\n"),
    ("swissroll", {"lle": {"k_neighbors": 0}},
     "error: config.lle.k_neighbors must be >= 1, got 0\n"),
    ("swissroll", {"lle": {"reg": 0}},
     "error: config.lle.reg must be > 0, got 0.0\n"),
    ("propensity", {"seed": -1},
     "error: config.seed must be >= 0, got -1\n"),
    ("propensity", {"dataset": {"n_pairs": 1}},
     "error: config.dataset.n_pairs must be >= 2, got 1\n"),
    ("propensity", {"dataset": {"jitter_sigma": 0}},
     "error: config.dataset.jitter_sigma must be > 0, got 0.0\n"),
    ("propensity", {"test_fraction": 1.5},
     "error: config.test_fraction: test_fraction must be in (0, 1), got 1.5\n"),
    ("propensity", {"query_arm": 2},
     "error: config.query_arm must be <= 1, got 2\n"),
    ("propensity", {"query_arm": -1},
     "error: config.query_arm must be >= 0, got -1\n"),
    ("propensity", {"threshold": 0},
     "error: config.threshold must be in (0, 1), got 0.0\n"),
    ("propensity", {"net": {"epochs": 0}},
     "error: config.net.epochs: epochs must be >= 1, got 0\n"),
    ("propensity", {"net": {"batch_size": -3}},
     "error: config.net.batch_size: batch_size must be >= 1, got -3\n"),
    ("propensity", {"logistic": {"l2": -1}},
     "error: config.logistic.l2: l2 must be >= 0, got -1.0\n"),
    ("propensity", {"logistic": {"max_iter": 0}},
     "error: config.logistic.max_iter: max_iter must be >= 1, got 0\n"),
    ("propensity", {"logistic": {"grad_tol": 0}},
     "error: config.logistic.grad_tol: grad_tol must be > 0, got 0.0\n"),
    ("gradcheck", {"seed": -2},
     "error: config.seed must be >= 0, got -2\n"),
    ("gradcheck", {"count": 0},
     "error: config.count must be >= 1, got 0\n"),
    ("gradcheck", {"step": -1e-05},
     "error: config.step must be > 0, got -1e-05\n"),
    ("gradcheck", {"tolerance": 0},
     "error: config.tolerance must be > 0, got 0.0\n"),
]


def _one_value(doc) -> str:
    """"section.key=value" of a document that sets one value."""
    ((key, value),) = doc.items()
    return f"{key}.{_one_value(value)}" if isinstance(value, dict) else f"{key}={value}"


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_gradcheck_success_exit_0(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"experiment": "gradcheck", "count": 6})
        rc = main(["gradcheck", "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "6/6 cases passed" in captured.out
        assert "wrote" in captured.out

    def test_corrupt_gradcheck_exit_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"experiment": "gradcheck", "count": 3, "corrupt": True})
        rc = main(["gradcheck", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "failed" in capsys.readouterr().err

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"bogus": 1})
        rc = main(["swissroll", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["propensity", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file_exit_1(self, tmp_path, capsys):
        rc = main(
            ["gradcheck", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]
        )
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_bad_arguments_exit_1(self, tmp_path, capsys):
        assert main(["swissroll"]) == 1  # missing --out
        assert main([]) == 1  # missing subcommand
        capsys.readouterr()

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "swissroll" in capsys.readouterr().out

    def test_swissroll_run_prints_report_lines(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, {"experiment": "swissroll", "dataset": {"n": 100}, "methods": ["pca"]}
        )
        out = tmp_path / "out"
        rc = main(["swissroll", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "swissroll seed=0 pca:" in captured.out
        assert (out / "reports.json").exists()

    def test_propensity_run_prints_report_lines(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, PS_SMALL)
        rc = main(["propensity", "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "propensity seed=0 logistic:" in captured.out
        assert "propensity seed=0 propensity_net:" in captured.out

    def test_force_flag_allows_rerun(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"experiment": "gradcheck", "count": 2})
        out = str(tmp_path / "out")
        assert main(["gradcheck", "--config", cfg, "--out", out]) == 0
        assert main(["gradcheck", "--config", cfg, "--out", out]) == 1
        assert main(["gradcheck", "--config", cfg, "--out", out, "--force"]) == 0
        capsys.readouterr()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"experiment": "gradcheck", "count": 2, "seed": 1})
        out = tmp_path / "out"
        rc = main(["gradcheck", "--config", cfg, "--out", str(out), "--seed", "9"])
        capsys.readouterr()
        assert rc == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 9

    @pytest.mark.parametrize(
        "command, text, extra, path",
        [
            ("swissroll", '{"dataset": {"n": 1}}', [], "config.dataset.n"),
            ("swissroll", '{"dataset": {"noise_sigma": NaN}}', [], "config.dataset.noise_sigma"),
            ("swissroll", '{"dataset": {"p_treat": 1.5}}', [], "config.dataset.p_treat"),
            ("swissroll", "{}", ["--seed", "-1"], "config.seed"),
            ("propensity", '{"logistic": {"l2": -10}}', [], "config.logistic.l2"),
            ("swissroll", '{"lle": {"reg": NaN}}', [], "config.lle.reg"),
            ("gradcheck", '{"tolerance": NaN}', [], "config.tolerance"),
            ("gradcheck", '{"step": Infinity}', [], "config.step"),
            ("propensity", '{"dataset": {"jitter_sigma": -1}}', [], "config.dataset.jitter_sigma"),
            ("propensity", '{"dataset": {"jitter_sigma": NaN}}', [], "config.dataset.jitter_sigma"),
            ("propensity", '{"logistic": {"grad_tol": -1}}', [], "config.logistic.grad_tol"),
            ("propensity", "{}", ["--seed", "-1"], "config.seed"),
            ("gradcheck", "{}", ["--seed", "-1"], "config.seed"),
            ("gradcheck", "null", [], "config must be a JSON object"),
            ("swissroll", '{"dataset": null}', [], "config.dataset must be a JSON object"),
            ("gradcheck", '{"count": 2, "count": 3}', [], "config: duplicate key 'count'"),
            # appended last: the ids of the cases with an `extra` list count their position
            ("propensity", '{"logistic": {"max_iter": 0}}', [], "config.logistic.max_iter"),
            ("propensity", '{"net": {"batch_size": 0}}', [], "config.net.batch_size"),
            ("swissroll", '{"autoencoder": {"epochs": 0}}', [], "config.autoencoder.epochs: epochs"),
            # bounds between values, checked before the output directory is made
            ("swissroll", '{"embed_dim": 4, "methods": ["raw_knn", "pca"]}', [], "config.embed_dim"),
            ("swissroll", '{"embed_dim": 3}', [], "config.embed_dim must be <= 2 for lle"),
            ("swissroll", '{"lle": {"k_neighbors": 2}}', [], "config.lle.k_neighbors"),
        ],
    )
    def test_bad_values_rejected_at_parse_exit_1(self, tmp_path, capsys, command, text, extra, path):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *extra])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, doc, stderr", _BAD_NUMERIC_VALUES,
        ids=[f"{command}-{_one_value(doc)}" for command, doc, _ in _BAD_NUMERIC_VALUES],
    )
    def test_bad_numeric_value_gives_exactly_its_message(self, tmp_path, capsys, command, doc,
                                                         stderr):
        # the whole of stderr is pinned, so that any change to a message shows
        rc = main([command, "--config", self.write_config(tmp_path, doc),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == stderr


@pytest.mark.parametrize(
    "cfg",
    [
        SwissRollRun(
            seed=5,
            dataset=SwissRollConfig(n=300),
            autoencoder=TrainConfig(epochs=3, batch_size=16),
        ),
        PropensityRun(seed=4, fit=PropensityFitConfig(net=TrainConfig(epochs=1, batch_size=64))),
    ],
    ids=["swissroll", "propensity"],
)
def test_run_built_in_python_round_trips(tmp_path, cfg):
    # each value of a run record is stored once, so a record built in Python
    # resolves to a document that parses back to it and runs to the same bytes
    experiment = EXPERIMENTS["swissroll" if isinstance(cfg, SwissRollRun) else "propensity"]
    reparsed = experiment.parse(experiment.resolve(cfg))
    assert reparsed == cfg
    experiment.run(cfg, tmp_path / "built")
    experiment.run(reparsed, tmp_path / "parsed")
    names = sorted(p.name for p in (tmp_path / "built").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "parsed").iterdir())
    for name in names:
        assert (tmp_path / "built" / name).read_bytes() == (tmp_path / "parsed" / name).read_bytes()


@pytest.mark.parametrize(
    "name, doc",
    [("swissroll", SR_SMALL), ("propensity", PS_SMALL), ("gradcheck", {"count": 2})],
    ids=["swissroll", "propensity", "gradcheck"],
)
def test_write_is_the_one_last_stage(tmp_path, monkeypatch, name, doc):
    # every stage but the last runs before any file exists
    out = tmp_path / "out"
    stages = []
    stage = experiments._stage

    def recording_stage(stage_name):
        stages.append((stage_name, any(out.iterdir())))
        return stage(stage_name)

    monkeypatch.setattr(experiments, "_stage", recording_stage)
    experiment = EXPERIMENTS[name]
    experiment.run(experiment.parse(doc), out)
    names = [stage_name for stage_name, _ in stages]
    assert names[-1] == "write" and names.count("write") == 1
    assert not [n for n in names if n.startswith("write:")]
    assert not any(wrote for _, wrote in stages)
    assert (out / "reports.json").exists()


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: SwissRollRun(methods=()), "config.methods must be a non-empty list"),
        (lambda: SwissRollRun(methods=("pca", "pca")), "config.methods: duplicate methods"),
        (lambda: PropensityRun(threshold=5.0), "config.threshold must be in (0, 1)"),
        (lambda: GradcheckRun(tolerance=-1.0), "config.tolerance must be > 0"),
        (lambda: GradcheckRun(tolerance=float("nan")), "config.tolerance must be > 0"),
        (lambda: GradcheckRun(step=0.0), "config.step must be > 0"),
    ],
    ids=["no-methods", "repeated-method", "threshold", "negative-tolerance", "nan-tolerance",
         "zero-step"],
)
def test_run_record_checks_its_bounds_when_built(build, key):
    # a record built in Python is held to the bounds a parsed config is
    with pytest.raises(ConfigError, match=re.escape(key)):
        build()


@pytest.mark.parametrize(
    "build, error, key",
    [
        (lambda: SwissRollRun(k_matches=1.5), ConfigError,
         "config.k_matches must be an integer, got 1.5"),
        (lambda: GradcheckRun(count=2.5), ConfigError, "config.count must be an integer, got 2.5"),
        (lambda: SwissRollRun(seed=1.5), ConfigError, "config.seed must be an integer, got 1.5"),
        (lambda: SwissRollRun(twin_mode=1), ConfigError,
         "config.twin_mode must be true or false, got 1"),
        (lambda: SwissRollRun(methods=["raw_knn"]), ConfigError, "config.methods must be a tuple"),
        # a nested domain dataclass rejects a float count itself, before any record exists
        (lambda: SwissRollRun(autoencoder=TrainConfig(epochs=2.5)), ValueError,
         "epochs must be an integer, got 2.5"),
        (lambda: SwissRollRun(dataset=SwissRollConfig(n=2.5)), ValueError,
         "n must be an integer, got 2.5"),
        (lambda: PropensityRun(fit=PropensityFitConfig(max_iter=2.5)), ValueError,
         "max_iter must be an integer, got 2.5"),
    ],
    ids=["float-k", "float-count", "float-seed", "int-flag", "list-methods", "nested-epochs",
         "nested-n", "nested-max-iter"],
)
def test_run_record_checks_its_kinds_when_built(build, error, key):
    # a record built in Python is held to the kinds a parsed config is; at
    # the parent each of these was accepted, to fail at a stage or not at all
    with pytest.raises(error, match=re.escape(key)):
        build()


def test_readme_config_blocks_are_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    docs = [json.loads(chunk) for chunk in re.split(r"^//.*$", block, flags=re.M) if chunk.strip()]
    parsers = {name: experiment.parse for name, experiment in EXPERIMENTS.items()}
    defaults = {"swissroll": SwissRollRun(), "propensity": PropensityRun(), "gradcheck": GradcheckRun()}
    assert sorted(d["experiment"] for d in docs) == sorted(parsers)
    for doc in docs:
        assert parsers[doc["experiment"]](doc) == defaults[doc["experiment"]]


# Byte identity is promised at a fixed BLAS thread count. Across counts a
# product in LLE's block Cholesky may round differently (from about n =
# 3,500 on this design), and the Ritz vectors inherit it: at seed 7 the
# largest change was 1.7e-8, with coordinates up to 0.040. The bound below,
# 1e-5 of the largest coordinate, leaves a factor of 20 on that.
BLAS_EMBEDDING_TOLERANCE = 1e-5


def test_blas_thread_count_keeps_reports_and_bounds_embeddings(tmp_path):
    cfg = tmp_path / "swissroll.json"
    cfg.write_text(json.dumps({"dataset": {"n": 3500}, "autoencoder": {"epochs": 20}}))
    src = str(Path(deepmatch.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"threads_{threads}")
        done = subprocess.run(
            [sys.executable, "-m", "deepmatch.cli", "swissroll", "--config", str(cfg),
             "--seed", "7", "--out", str(outs[-1])],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
    assert (outs[0] / "reports.json").read_bytes() == (outs[1] / "reports.json").read_bytes()
    for method in SwissRollRun().methods:
        one, two = (np.genfromtxt(out / f"embedding_{method}.csv", delimiter=",", dtype=str)
                    for out in outs)
        assert (one[:, :4] == two[:, :4]).all(), method  # header, index, split, group, arm
        z1, z2 = one[1:, 4:].astype(float), two[1:, 4:].astype(float)
        assert np.abs(z1 - z2).max() <= BLAS_EMBEDDING_TOLERANCE * np.abs(z1).max(), method


@pytest.mark.parametrize("n_rows", [5, 0])
def test_csv_bytes_are_the_row_join_of_each_value_str(tmp_path, n_rows):
    header = ["i", "arm", "flag", "x"]
    columns = (
        np.arange(5),
        np.array(["treated", "control", "a b", "", "x"], dtype=object),
        np.array([True, False, True, True, False]),
        np.array([-0.0, 0.1, 1e-5, 1e16, 5e-324]),
    )
    columns = [c[:n_rows] for c in columns]
    experiments._write_csv(tmp_path / "t.csv", header, columns)
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    want = "\n".join([",".join(header), *(",".join(map(str, row)) for row in rows)]) + "\n"
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
