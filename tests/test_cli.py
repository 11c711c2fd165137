"""Config parsing, CLI verbs, artifacts, exit codes, reproducibility."""

import argparse
import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from fedmvc import cli, federation
from fedmvc.cli import build_parser, main, run_experiment, run_sweep
from fedmvc.config import (
    PAIR_RULES,
    RULES,
    ExperimentConfig,
    config_from_mapping,
    load_config,
    parse_field,
)
from fedmvc.data import (
    ClientShard,
    MultiViewDataset,
    assign_views,
    dirichlet_partition,
    generate_blobs,
    load_dataset,
    save_dataset,
)
from fedmvc.errors import ConfigError
from fedmvc.evaluation import eval_view_order, kmeans, kmeans_best
from fedmvc.federation import compute_weights
from fedmvc.model import Architecture, init_params, load_checkpoint, save_checkpoint

TINY = dict(seed=3, n_clusters=2, n_samples=30, view_dims=(4, 3),
            separation=5.0, noise_sigma=1.0, n_clients=2, mixed_counts=(2, 0, 0),
            dirichlet_beta=1.0, rounds=2, warmup_epochs=1, local_epochs=1,
            batch_size=16, latent_dim=4, high_dim=4, hidden=6, eval_restarts=2)


def tiny_config(out_dir, **overrides):
    cfg = dict(TINY, output_dir=str(out_dir))
    cfg.update(overrides)
    return ExperimentConfig(**cfg)


def write_kv_config(path, out_dir, **overrides):
    cfg = dict(TINY, output_dir=str(out_dir))
    cfg.update(overrides)
    lines = ["# tiny experiment"]
    for key, value in cfg.items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestConfigParsing:
    def test_defaults_match_documented_values(self):
        cfg = ExperimentConfig()
        assert cfg.alpha == 0.5
        assert cfg.mu == 0.01
        assert cfg.tau == 0.5
        assert cfg.dirichlet_beta == 10.0

    def test_key_value_file(self, tmp_path):
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out",
                               alpha=0.25, dirichlet_beta="iid")
        cfg = load_config(path)
        assert cfg.alpha == 0.25
        assert cfg.dirichlet_beta is None
        assert cfg.view_dims == (4, 3)

    def test_json_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"alpha": 0.75, "view_dims": [3, 3, 3],
                                    "mixed_counts": [1, 1, 1], "n_clients": 3}))
        cfg = load_config(path)
        assert cfg.alpha == 0.75
        assert cfg.view_dims == (3, 3, 3)
        assert cfg.mixed_counts == (1, 1, 1)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"not_a_knob": 1})

    def test_validation_names_field(self):
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig(alpha=1.5).validate()
        with pytest.raises(ConfigError, match="tau"):
            ExperimentConfig(tau=0.0).validate()
        with pytest.raises(ConfigError, match="mixed_counts"):
            ExperimentConfig(n_clients=4, mixed_counts=(1, 1, 1)).validate()

    def test_bad_value_parse(self):
        with pytest.raises(ConfigError, match="rounds"):
            config_from_mapping({"rounds": "many"})

    @pytest.mark.parametrize("name,value", [
        ("rounds", 2.9), ("seed", 1.5), ("rounds", True), ("hidden", False),
        ("rounds", "2.9"), ("view_dims", [4, 2.5]), ("mixed_counts", [1, True, 1]),
        ("eval_views", "0,1.5")])
    def test_int_fields_reject_bools_and_fractions(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name}: could not parse"):
            parse_field(name, value)

    @pytest.mark.parametrize("name,value", [
        ("alpha", True), ("lr", False), ("dirichlet_beta", True),
        ("standardize", 2), ("standardize", 1), ("no_drift", 0),
        ("no_drift", 1.0), ("standardize", "maybe"), ("no_contrast", [True])])
    def test_float_and_bool_fields_reject_mistyped_values(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name}: could not parse"):
            parse_field(name, value)

    @pytest.mark.parametrize("name,value,expected", [
        ("rounds", 3.0, 3), ("rounds", "4", 4), ("seed", -2, -2),
        ("view_dims", [2.0, 3], (2, 3)), ("standardize", "off", False),
        ("alpha", 1, 1.0), ("dirichlet_beta", "iid", None),
        ("standardize", True, True), ("no_drift", " Yes ", True),
        ("alpha", "0.25", 0.25), ("dirichlet_beta", 2, 2.0)])
    def test_whole_values_parse(self, name, value, expected):
        got = parse_field(name, value)
        assert got == expected and type(got) is type(expected)

    def test_json_fractional_rounds_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"rounds": 2.9}))
        with pytest.raises(ConfigError, match="rounds"):
            load_config(path)

    def test_readme_config_block_loads(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config files", 1)[1].split("```")[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block, encoding="utf-8")
        cfg = load_config(path)
        cfg.validate()
        assert cfg.n_clusters == 3 and cfg.mixed_counts == (2, 2, 2)
        assert cfg.alpha_c_mode == "linear"
        assert cfg.no_contrast is False

    def test_comment_starts_at_line_start_or_after_whitespace(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# a run\nrounds = 4\t# R\n  # indented\n"
                        "output_dir = runs/a#1 # the # after 'a' is part of the path\n")
        cfg = load_config(path)
        assert cfg.rounds == 4 and cfg.output_dir == "runs/a#1"


# a value each rule rejects, for every rule of the table (a list gives several)
BAD_VALUES = {
    "seed": 1.5, "n_clusters": 0, "view_dims": (3, 0), "separation": -1.0,
    "noise_sigma": -0.5, "n_clients": 0,
    "mixed_counts": (3, -1, 4), "dirichlet_beta": 0.0, "rounds": -1,
    "warmup_epochs": -1, "local_epochs": -1, "batch_size": 0, "lr": 0.0,
    "optimizer": "rmsprop", "latent_dim": 0, "high_dim": 0, "hidden": 0,
    "tau": 0.0, "alpha": 1.5, "mu": -0.1, "sigma_noise": -1.0,
    "alpha_c_mode": ["cubic", "quadratic", "binary"], "eval_restarts": 0, "eval_every": 0,
    "eval_views": [(), (0, 0)], "checkpoint_every": -1,
}

_POINTS = np.arange(8.0).reshape(4, 2)

# the library entries that take each value from outside the config
LIBRARY_ENTRIES = {
    "n_clusters": [
        lambda v: Architecture((2,), v, 4, 4, 6),
        lambda v: MultiViewDataset([_POINTS], None, v),
        lambda v: generate_blobs(v, 10, (2,), 1.0, 1.0),
        lambda v: kmeans(_POINTS, v)],
    "view_dims": [
        lambda v: Architecture(v, 2, 4, 4, 6),
        lambda v: generate_blobs(2, 10, v, 1.0, 1.0)],
    "separation": [lambda v: generate_blobs(2, 10, (2,), v, 1.0)],
    "noise_sigma": [lambda v: generate_blobs(2, 10, (2,), 1.0, v)],
    "n_clients": [
        lambda v: dirichlet_partition(np.zeros(10), v, 1.0),
        lambda v: dirichlet_partition(np.zeros(10), v, None),
        lambda v: assign_views(v, 3)],
    "mixed_counts": [lambda v: assign_views(6, 3, counts=v)],
    "dirichlet_beta": [lambda v: dirichlet_partition(np.zeros(10), 2, v)],
    "latent_dim": [lambda v: Architecture((2,), 2, v, 4, 6)],
    "high_dim": [lambda v: Architecture((2,), 2, 4, v, 6)],
    "hidden": [lambda v: Architecture((2,), 2, 4, 4, v)],
    "alpha_c_mode": [
        lambda v: compute_weights([ClientShard(0, (0,), np.arange(5))], 1, v)],
    "eval_restarts": [lambda v: kmeans_best(_POINTS, 2, n_restarts=v)],
    "eval_views": [lambda v: eval_view_order(v, 3)],
}

# fields no rule constrains; n_samples has a pair rule only
UNCONSTRAINED = {"data_path", "standardize", "no_drift", "no_contrast",
                 "resume_from", "output_dir"}


def _message(call) -> str:
    with pytest.raises(ConfigError) as err:
        call()
    return str(err.value)


class TestRuleTable:
    @pytest.mark.parametrize("field", sorted(RULES))
    def test_rule_rejects_alike_everywhere(self, field):
        values = BAD_VALUES[field]
        for bad in values if isinstance(values, list) else [values]:
            expected = _message(ExperimentConfig(**{field: bad}).validate)
            assert expected == f"{field}: {RULES[field][1]} (got {bad!r})"
            for entry in LIBRARY_ENTRIES.get(field, []):
                assert _message(lambda: entry(bad)) == expected

    @pytest.mark.parametrize("fields,entries", [
        ({"n_samples": 2, "n_clusters": 3},
         [lambda: generate_blobs(3, 2, (2,), 1.0, 1.0),
          lambda: kmeans(_POINTS[:2], 3)]),
        ({"mixed_counts": (1, 1, 1), "n_clients": 4},
         [lambda: assign_views(4, 3, counts=(1, 1, 1))]),
    ], ids=[rule[0] for rule in PAIR_RULES])
    def test_pair_rule_rejects_alike_everywhere(self, fields, entries):
        field, other = next((f, o) for f, o, _, _ in PAIR_RULES if f in fields)
        expected = _message(ExperimentConfig(**fields).validate)
        assert expected.startswith(f"{field}: ") and f"{other}={fields[other]}" in expected
        for entry in entries:
            assert _message(entry) == expected

    def test_every_field_has_a_rule_or_is_listed_unconstrained(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        ruled = set(RULES) | {name for rule in PAIR_RULES for name in rule[:2]}
        assert ruled <= fields
        assert not UNCONSTRAINED & set(RULES)
        assert fields == ruled | UNCONSTRAINED

    @pytest.mark.parametrize("command,names,own", [
        ("run", None, {"config"}),
        ("sweep", None, {"config", "param", "values"}),
        ("gen-data", {"seed", "n_clusters", "n_samples", "view_dims", "separation",
                      "noise_sigma"}, {"out"}),
        ("eval", {"seed", "eval_restarts", "eval_views", "standardize"},
         {"checkpoint", "data"}),
        ("inspect", set(), {"checkpoint"}),
    ], ids=["run", "sweep", "gen-data", "eval", "inspect"])
    def test_every_field_has_one_flag_of_the_kind_its_default_implies(
            self, command, names, own):
        # each command has a flag for exactly the config fields it reads
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[command]
        fields = [f for f in dataclasses.fields(ExperimentConfig)
                  if names is None or f.name in names]
        assert ({a.dest for a in parser._actions}
                == {f.name for f in fields} | {"help"} | own)
        for f in fields:
            (action,) = [a for a in parser._actions if a.dest == f.name]
            assert "--" + f.name.replace("_", "-") in action.option_strings
            kind = (argparse._StoreTrueAction if f.default is False
                    else argparse.BooleanOptionalAction if f.default is True
                    else argparse._StoreAction)
            assert type(action) is kind, f.name


class TestRunExperiment:
    def test_artifacts_and_final_metrics(self, tmp_path):
        out = tmp_path / "out"
        result = run_experiment(tiny_config(out))
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "model.ckpt").exists()
        assert (out / "config.json").exists()
        csv = (out / "metrics.csv").read_text().splitlines()
        assert csv[0] == "round,seed,acc,nmi,ari,kmeans_objective"
        assert len(csv) == 1 + 2  # header + one row per round
        assert 0.0 <= result.final.acc <= 1.0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final"]["acc"] == result.final.acc
        assert len(summary["rounds"]) == 2

    def test_rerun_byte_identical_csv(self, tmp_path):
        a = run_experiment(tiny_config(tmp_path / "a"))
        b = run_experiment(tiny_config(tmp_path / "b"))
        assert a.csv_path.read_bytes() == b.csv_path.read_bytes()

    def test_resolved_config_reproduces_run(self, tmp_path):
        first = run_experiment(tiny_config(tmp_path / "a"))
        resolved = load_config(tmp_path / "a" / "config.json")
        second = run_experiment(resolved.replace(output_dir=str(tmp_path / "b")))
        assert first.csv_path.read_bytes() == second.csv_path.read_bytes()

    def test_zero_rounds_still_evaluates(self, tmp_path):
        result = run_experiment(tiny_config(tmp_path / "out", rounds=0,
                                            warmup_epochs=0))
        csv = result.csv_path.read_text().splitlines()
        assert len(csv) == 2 and csv[1].startswith("0,")

    def test_zero_rounds_warm_up_no_client(self, tmp_path, monkeypatch):
        # no round would read a warm-up's result, so a run of no rounds runs
        # none, and writes what a run without warm-up writes
        real, calls = federation.pretrain_client, []

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(federation, "pretrain_client", recording)
        warmed = run_experiment(tiny_config(tmp_path / "a", rounds=0, warmup_epochs=3))
        unwarmed = run_experiment(tiny_config(tmp_path / "b", rounds=0,
                                              warmup_epochs=0))
        assert calls == []
        for name in ("metrics.csv", "model.ckpt"):
            assert (warmed.out_dir / name).read_bytes() == \
                (unwarmed.out_dir / name).read_bytes()

    def test_eval_views_restricts_evaluation(self, tmp_path):
        full = run_experiment(tiny_config(tmp_path / "a", rounds=1,
                                          warmup_epochs=0))
        restricted = run_experiment(tiny_config(tmp_path / "b", rounds=1,
                                                warmup_epochs=0,
                                                eval_views=(0,)))
        assert full.final.kmeans_objective != restricted.final.kmeans_objective

    def test_per_round_checkpoints(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(tiny_config(out, checkpoint_every=1))
        assert (out / "round_0001.ckpt").exists()
        assert (out / "round_0002.ckpt").exists()

    def test_checkpoint_loadable_and_resumable(self, tmp_path):
        result = run_experiment(tiny_config(tmp_path / "a"))
        params = load_checkpoint(result.out_dir / "model.ckpt")
        assert params.arch.view_dims == (4, 3)
        resumed = run_experiment(tiny_config(
            tmp_path / "b", rounds=1,
            resume_from=str(result.out_dir / "model.ckpt")))
        assert resumed.final.kmeans_objective > 0


class TestSweep:
    def test_single_value_equals_plain_run(self, tmp_path):
        cfg = tiny_config(tmp_path / "sweep")
        run_sweep(cfg, "alpha", ["0.5"])
        plain = run_experiment(tiny_config(tmp_path / "plain", alpha=0.5))
        sub_csv = (tmp_path / "sweep" / "alpha=0.5" / "metrics.csv").read_bytes()
        assert sub_csv == plain.csv_path.read_bytes()

    def test_grid_layout(self, tmp_path):
        # the canonical balance-factor grid: five sub-runs, one combined row each
        values = ["0.1", "0.3", "0.5", "0.7", "0.9"]
        cfg = tiny_config(tmp_path / "sweep", rounds=1, warmup_epochs=0)
        path = run_sweep(cfg, "alpha", values)
        lines = path.read_text().splitlines()
        assert lines[0] == "param,value,round,seed,acc,nmi,ari,kmeans_objective"
        assert len(lines) == 1 + len(values)
        assert {(tmp_path / "sweep" / f"alpha={v}").exists()
                for v in values} == {True}

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="values"):
            run_sweep(tiny_config(tmp_path), "alpha", [])

    def test_unknown_param_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="param"):
            run_sweep(tiny_config(tmp_path), "rounds", ["1"])


class TestMainExitCodes:
    def test_run_success(self, tmp_path, capsys):
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out")
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ACC=" in out and "NMI=" in out and "ARI=" in out

    def test_invalid_alpha_exit_2(self, tmp_path, capsys):
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out")
        assert main(["run", str(path), "--alpha", "1.5"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_out_of_range_eval_views_exit_2(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(federation, "local_train_round",
                            lambda *args: calls.append(args))
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out",
                               rounds=4, eval_every=4)
        assert main(["run", str(path), "--eval-views", "7"]) == 2
        assert "eval_views" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out",
                               data_path="/nope/missing.mvd")
        assert main(["run", str(path)]) == 2
        assert "missing.mvd" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, capsys):
        assert main(["run", "/nope/absent.cfg"]) == 2
        assert "absent.cfg" in capsys.readouterr().err

    def test_training_blowup_exit_1_with_context(self, tmp_path, capsys):
        # weights of about 1e50 overflow the reconstruction loss to inf
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out",
                               lr=1e50, warmup_epochs=0)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "round 1" in err and "client" in err

    @pytest.mark.parametrize("line", ["threads = 2", "deterministic = true",
                                      "fedavg = true", "alpha_c_mode = quadratic",
                                      "alpha_c_mode = binary", "scenario = mixed",
                                      "kmeans_max_iter = 10", "kmeans_tol = 1e-3"])
    def test_removed_knob_in_config_file_exit_2(self, tmp_path, capsys, line):
        # a removed key is unknown; a removed value breaks its field's rule
        key, value = (part.strip() for part in line.split("="))
        expected = f"{key}: " if key in RULES else f"unknown config key '{key}'"
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out")
        path.write_text(path.read_text() + line + "\n")
        old_json = tmp_path / "config.json"
        old_json.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"),
                                            **{key: value})))
        for config_file in (path, old_json):
            assert main(["run", str(config_file)]) == 2
            assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_in_config_file_exit_2(self, tmp_path, capsys):
        path = write_kv_config(tmp_path / "dup.cfg", tmp_path / "out")
        n_lines = len(path.read_text().splitlines())
        path.write_text(path.read_text() + "alpha = 0.3\nalpha = 0.7\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:{n_lines + 2}: duplicate config key 'alpha'" in err
        assert f"(first set on line {n_lines + 1})" in err
        assert not (tmp_path / "out").exists()

    def test_duplicate_key_in_json_config_exit_2(self, tmp_path, capsys):
        text = json.dumps(dict(TINY, output_dir=str(tmp_path / "out"), alpha=0.3))
        path = tmp_path / "dup.json"
        path.write_text(text[:-1] + ', "alpha": 0.7}')
        assert main(["run", str(path)]) == 2
        assert f"{path}: duplicate config key 'alpha'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--threads", "2"], ["--deterministic"],
                                       ["--no-deterministic"], ["--fedavg"],
                                       ["--scenario", "full_only"],
                                       ["--kmeans-max-iter", "10"],
                                       ["--kmeans-tol", "1e-3"]])
    def test_removed_knob_flag_exit_2(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["run", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--kmeans-max-iter", "10"],
                                       ["--kmeans-tol", "1e-3"]])
    def test_removed_k_means_flag_on_eval_exit_2(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", "m.ckpt", "--data", "d.mvd", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--rounds", "3"], ["--data-path", "x"]])
    def test_gen_data_flag_it_does_not_read_exit_2(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out", str(tmp_path / "d.mvd"), *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "d.mvd").exists()

    def test_resume_from_another_architecture_exit_2(self, tmp_path, capsys):
        result = run_experiment(tiny_config(tmp_path / "a", rounds=0, warmup_epochs=0))
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "b")
        assert main(["run", str(path), "--resume-from", str(result.out_dir / "model.ckpt"),
                     "--latent-dim", str(TINY["latent_dim"] + 1)]) == 2
        err = capsys.readouterr().err
        ckpt = result.out_dir / "model.ckpt"
        assert err.startswith(f"configuration error: resume_from: {ckpt}: checkpoint "
                              "architecture")
        assert "does not match" in err
        assert not (tmp_path / "b").exists()

    def test_truncated_resume_checkpoint_exit_2(self, tmp_path, capsys):
        result = run_experiment(tiny_config(tmp_path / "a", rounds=0, warmup_epochs=0))
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((result.out_dir / "model.ckpt").read_bytes()[:10])
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "b",
                               resume_from=str(cut))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: resume_from: {cut}: truncated checkpoint while "
            "reading header\n")
        assert not (tmp_path / "b").exists()

    def test_missing_resume_checkpoint_exit_2(self, tmp_path, capsys):
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out",
                               resume_from=str(tmp_path / "absent.ckpt"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: resume_from: ")
        assert "absent.ckpt" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("counts", ["none", "2,0,0", "0,0,2"])
    def test_one_view_run_succeeds(self, tmp_path, capsys, counts):
        # on a one-view dataset every client holds one view and trains as a
        # single-view client, whatever the mix calls it
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out", view_dims=(4,))
        assert main(["run", str(path), "--mixed-counts", counts]) == 0
        assert "ACC=" in capsys.readouterr().out

    @pytest.mark.parametrize("beta", ["iid", "1.0"])
    def test_more_clients_than_samples_exit_2(self, tmp_path, capsys, beta):
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out",
                               dirichlet_beta=beta)
        assert main(["run", str(path), "--n-clients", "50", "--mixed-counts", "50,0,0",
                     "--n-samples", "40"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        beta_text = "None" if beta == "iid" else beta
        assert f"beta={beta_text}, n_clients=50, n_samples=40" in err

    def test_flag_overrides_win(self, tmp_path):
        path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out",
                               rounds=1, warmup_epochs=0)
        assert main(["run", str(path), "--rounds", "0",
                     "--output-dir", str(tmp_path / "o2")]) == 0
        csv = (tmp_path / "o2" / "metrics.csv").read_text().splitlines()
        assert csv[1].startswith("0,")

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDMVC_OUT", str(tmp_path / "root"))
        path = write_kv_config(tmp_path / "exp.cfg", "rel_out", rounds=1,
                               warmup_epochs=0)
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "root" / "rel_out" / "metrics.csv").exists()


class TestDataVerbs:
    def test_gen_data_eval_inspect(self, tmp_path, capsys):
        data_path = tmp_path / "blobs.mvd"
        assert main(["gen-data", "--out", str(data_path), "--n-samples", "40",
                     "--n-clusters", "2", "--view-dims", "4,3", "--seed", "1"]) == 0
        ds = load_dataset(data_path)
        assert ds.n_samples == 40 and ds.view_dims == (4, 3)

        out = tmp_path / "out"
        cfg_path = write_kv_config(tmp_path / "exp.cfg", out,
                                   data_path=str(data_path))
        assert main(["run", str(cfg_path)]) == 0

        assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(data_path), "--eval-restarts", "2"]) == 0
        assert "ACC=" in capsys.readouterr().out

        assert main(["inspect", "--checkpoint", str(out / "model.ckpt")]) == 0
        text = capsys.readouterr().out
        assert "views: 2" in text and "parameters:" in text

    def test_eval_seeds_k_means_as_run_does(self, tmp_path, capsys):
        data_path = tmp_path / "blobs.mvd"
        save_dataset(generate_blobs(6, 60, (4, 3), 3.0, 1.0, seed=5), data_path)
        out = tmp_path / "out"
        # one evaluation, so the run's k-means restarts are the first ones
        # drawn from its evaluation seed
        result = run_experiment(tiny_config(out, data_path=str(data_path),
                                            eval_every=2, eval_restarts=1))
        acc, nmi, ari, objective = result.csv_path.read_text().splitlines()[-1].split(",")[2:]
        assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(data_path), "--eval-restarts", "1",
                     "--seed", str(TINY["seed"])]) == 0
        assert capsys.readouterr().out.strip() == (
            f"ACC={acc} NMI={nmi} ARI={ari} objective={objective}")

    def test_eval_no_standardize_reproduces_an_unstandardized_run(self, tmp_path, capsys):
        data_path = tmp_path / "blobs.mvd"
        save_dataset(generate_blobs(6, 60, (4, 3), 3.0, 1.0, seed=5), data_path)
        out = tmp_path / "out"
        result = run_experiment(tiny_config(out, data_path=str(data_path),
                                            eval_every=2, eval_restarts=1,
                                            standardize=False))
        acc, nmi, ari, objective = result.csv_path.read_text().splitlines()[-1].split(",")[2:]
        row = f"ACC={acc} NMI={nmi} ARI={ari} objective={objective}"
        command = ["eval", "--checkpoint", str(out / "model.ckpt"), "--data",
                   str(data_path), "--eval-restarts", "1", "--seed", str(TINY["seed"])]
        assert main(command + ["--no-standardize"]) == 0
        assert capsys.readouterr().out.strip() == row
        assert main(command) == 0
        assert capsys.readouterr().out.strip() != row

    @pytest.mark.parametrize("flag,bad", [
        ("--eval-restarts", "1.5"), ("--eval-restarts", "0"), ("--seed", "1.5"),
        ("--seed", "true"), ("--eval-views", "x"), ("--eval-views", "")])
    def test_eval_flags_reject_as_run_does(self, tmp_path, capsys, flag, bad):
        arch = Architecture((4, 3), 2, latent_dim=4, high_dim=4, hidden=6)
        save_checkpoint(init_params(arch, seed=0), tmp_path / "model.ckpt")
        save_dataset(generate_blobs(2, 20, (4, 3), 4.0, 1.0, seed=0),
                     tmp_path / "d.mvd")
        assert main(["run", "--output-dir", str(tmp_path / "out"), flag, bad]) == 2
        expected = capsys.readouterr().err
        assert expected.startswith("configuration error: " + flag[2:].replace("-", "_"))
        assert main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(tmp_path / "d.mvd"), flag, bad]) == 2
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out").exists()

    def test_eval_missing_files_exit_2(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", "/nope.ckpt",
                     "--data", "/nope.mvd"]) == 2

    def test_eval_mismatches_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_experiment(tiny_config(out, rounds=0, warmup_epochs=0))
        wrong = generate_blobs(2, 20, (7, 2), 4.0, 1.0, seed=0)
        save_dataset(wrong, tmp_path / "wrong.mvd")
        assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(tmp_path / "wrong.mvd")]) == 2
        assert "does not fit" in capsys.readouterr().err
        right = generate_blobs(2, 20, (4, 3), 4.0, 1.0, seed=0)
        save_dataset(right, tmp_path / "right.mvd")
        assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(tmp_path / "right.mvd"),
                     "--eval-views", "9"]) == 2
        assert "out of range" in capsys.readouterr().err
        assert main(["eval", "--checkpoint", str(out / "model.ckpt"),
                     "--data", str(tmp_path / "right.mvd"),
                     "--eval-views", ","]) == 2
        assert "eval_views: must list at least one view" in capsys.readouterr().err

    # inference overflows on the way without a warning; k-means is where
    # it is caught and named
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e80, 1e160])
    def test_eval_of_overflowing_features_exit_2(self, tmp_path, capsys, scale):
        arch = Architecture((4, 3), 2, latent_dim=4, high_dim=4, hidden=6)
        params = init_params(arch, seed=0)
        params.vector *= scale
        save_checkpoint(params, tmp_path / "model.ckpt")
        save_dataset(generate_blobs(2, 20, (4, 3), 4.0, 1.0, seed=0),
                     tmp_path / "d.mvd")
        assert main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--data", str(tmp_path / "d.mvd")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: k-means points: row 0 of 20 ")

    def test_gen_data_writes_the_dataset_run_generates(self, tmp_path, monkeypatch):
        data_path = tmp_path / "blobs.mvd"
        # the data fields of TINY, which the run below generates from
        assert main(["gen-data", "--out", str(data_path), "--n-samples", "30",
                     "--n-clusters", "2", "--view-dims", "4,3", "--separation",
                     "5.0", "--noise-sigma", "1.0", "--seed", "3"]) == 0

        generated = []
        run_federation = cli.run_federation

        def capture(config, dataset, **kwargs):
            generated.append(dataset)
            return run_federation(config, dataset, **kwargs)

        monkeypatch.setattr(cli, "run_federation", capture)
        cfg_path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out",
                                   rounds=0, warmup_epochs=0)
        assert main(["run", str(cfg_path)]) == 0
        save_dataset(generated[0], tmp_path / "run.mvd")
        assert data_path.read_bytes() == (tmp_path / "run.mvd").read_bytes()

    def test_run_on_non_finite_dataset_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d.mvd"
        save_dataset(generate_blobs(2, 30, (4, 3), 5.0, 1.0, seed=2), path)
        blob = bytearray(path.read_bytes())
        # header: magic, u32 version, u32 V, u64 N, u32 K, u8 labels; u32 D_0
        first_value = 4 + 21 + 4
        blob[first_value:first_value + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        cfg_path = write_kv_config(tmp_path / "exp.cfg", tmp_path / "out",
                                   data_path=str(path))
        assert main(["run", str(cfg_path)]) == 2
        assert "view 0" in capsys.readouterr().err

    def test_run_on_saved_dataset_matches_labels(self, tmp_path):
        ds = generate_blobs(2, 30, (4, 3), 5.0, 1.0, seed=2)
        path = tmp_path / "d.mvd"
        save_dataset(ds, path)
        result = run_experiment(tiny_config(tmp_path / "out", rounds=1,
                                            warmup_epochs=0,
                                            data_path=str(path)))
        assert result.final.acc is not None

    @pytest.mark.parametrize("fault,message", [
        ("count", "parameter vector has"), ("nan", "non-finite value at index 3")])
    def test_malformed_checkpoint_exit_2(self, tmp_path, capsys, fault, message):
        arch = Architecture((4, 3), 2, latent_dim=4, high_dim=4, hidden=6)
        params = init_params(arch, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        count_at = 4 + 8 + 4 * 2 + 16  # magic, version and V, dims, 4 x u32
        if fault == "count":
            struct.pack_into("<Q", blob, count_at, params.vector.size - 1)
            del blob[-8:]
        else:
            struct.pack_into("<d", blob, count_at + 8 + 8 * 3, float("nan"))
        path.write_bytes(bytes(blob))
        save_dataset(generate_blobs(2, 20, (4, 3), 4.0, 1.0, seed=0),
                     tmp_path / "d.mvd")
        assert main(["inspect", "--checkpoint", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(tmp_path / "d.mvd"), "--eval-restarts", "1"]) == 2
        assert message in capsys.readouterr().err
