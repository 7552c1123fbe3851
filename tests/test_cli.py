import argparse
import csv
import dataclasses
import importlib
import inspect
import io
import itertools
import json
import math
import os
import pkgutil
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survrnc
from survrnc import heads, nn, pairsets, trainer
from survrnc.cli import build_parser, main
from survrnc.data import load_csv, save_csv, SynthConfig, generate_synthetic
from survrnc.core import Dataset, Patient
from survrnc.trainer import TrainConfig

from oracles import build_pair_sets


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    ds, _ = generate_synthetic(
        SynthConfig(n=60, d_in=3, target_censoring=0.3, seed=31))
    save_csv(ds, path)
    return path


@pytest.fixture(scope="module")
def config_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "epochs": 2, "batch_size": 8, "num_bins": 4,
        "hidden_widths": [8], "d_emb": 4,
        "loss": {"temperature": 2.0, "lambda": 0.5, "beta": 1.0},
        "augment": {"noise_std": 0.1, "feature_dropout_prob": 0.1, "seed": 0},
    }))
    return path


class TestGenerate:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        rc = main(["generate", "--n", "40", "--d-in", "3",
                   "--target-censoring", "0.3", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        ds = load_csv(out)
        assert len(ds) == 40
        sidecar = json.loads((tmp_path / "synth.meta.json").read_text())
        assert sidecar["config"]["seed"] == 5
        assert len(sidecar["true_risks"]) == 40
        assert set(sidecar["true_risks"]) == set(ds.ids())

    def test_sidecar_is_pinned(self, tmp_path):
        out = tmp_path / "g.csv"
        main(["generate", "--n", "4", "--d-in", "2", "--risk-model", "quadratic",
              "--base-rate", "0.2", "--target-censoring", "0.25", "--seed", "5",
              "--out", str(out)])
        assert (tmp_path / "g.meta.json").read_text() == """\
{
  "config": {
    "base_rate": 0.2,
    "d_in": 2,
    "n": 4,
    "risk_model": "quadratic",
    "seed": 5,
    "target_censoring": 0.25
  },
  "true_risks": {
    "p0": -0.2832176692491494,
    "p1": -0.6199607815921728,
    "p2": 1.1744079721109617,
    "p3": -1.1742017697446516
  }
}
"""


class TestTrain:
    def test_writes_history_and_checkpoint(self, data_csv, config_json,
                                           tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc = main(["train", "--data", str(data_csv), "--config",
                   str(config_json), "--seed", "7", "--out-dir", str(out_dir)])
        assert rc == 0
        history = json.loads((out_dir / "history.json").read_text())
        assert len(history["epochs"]) == 2
        assert history["config"]["seed"] == 7
        ckpt = json.loads((out_dir / "checkpoint.json").read_text())
        assert ckpt["train_config"]["head"] == "mtlr"

    def test_seed_is_mandatory(self, data_csv, config_json, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--data", str(data_csv), "--config",
                  str(config_json), "--out-dir", str(tmp_path)])

    def test_flag_overrides_config(self, data_csv, config_json, tmp_path):
        out_dir = tmp_path / "run"
        main(["train", "--data", str(data_csv), "--config", str(config_json),
              "--seed", "7", "--epochs", "1", "--lambda", "0.9",
              "--out-dir", str(out_dir)])
        history = json.loads((out_dir / "history.json").read_text())
        assert len(history["epochs"]) == 1
        assert history["config"]["loss"]["lambda"] == 0.9

    def test_determinism_byte_for_byte(self, data_csv, config_json, tmp_path):
        args = ["train", "--data", str(data_csv), "--config", str(config_json),
                "--seed", "11"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        main(args + ["--out-dir", str(d1)])
        main(args + ["--out-dir", str(d2)])
        assert (d1 / "history.json").read_bytes() == (d2 / "history.json").read_bytes()
        assert (d1 / "checkpoint.json").read_bytes() == (d2 / "checkpoint.json").read_bytes()


def _subcommand(name: str) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


# the TrainConfig flags of train and lambda-sweep, in --help order:
# (flag, dest, choices)
CONFIG_FLAGS = [
    ("--config", "config", None),
    ("--epochs", "epochs", None),
    ("--batch-size", "batch_size", None),
    ("--lr", "lr", None),
    ("--weight-decay", "weight_decay", None),
    ("--head", "head", ("mtlr", "deephit")),
    ("--temperature", "temperature", None),
    ("--lambda", "lam", None),
    ("--beta", "beta", None),
    ("--num-bins", "num_bins", None),
    ("--noise-std", "noise_std", None),
    ("--feature-dropout-prob", "feature_dropout_prob", None),
    ("--sampler", "sampler", ("uniform", "event_balanced")),
    ("--hidden-widths", "hidden_widths", None),
    ("--d-emb", "d_emb", None),
    ("--deephit-sigma", "deephit_sigma", None),
    ("--deephit-rank-weight", "deephit_rank_weight", None),
]

# every config flag away from its default (and from the config file below)
CONFIG_ARGS = [
    "--epochs", "1", "--batch-size", "8", "--lr", "0.002",
    "--weight-decay", "0.001", "--head", "deephit", "--temperature", "1.5",
    "--lambda", "0.25", "--beta", "0.75", "--num-bins", "3",
    "--noise-std", "0.05", "--feature-dropout-prob", "0.2",
    "--sampler", "uniform", "--hidden-widths", "6,5", "--d-emb", "3",
    "--deephit-sigma", "0.2", "--deephit-rank-weight", "0.4", "--seed", "13",
]
EXPECTED_CONFIG = {
    "epochs": 1, "batch_size": 8, "lr": 0.002, "weight_decay": 0.001,
    "head": "deephit",
    "loss": {"temperature": 1.5, "lambda": 0.25, "beta": 0.75},
    "num_bins": 3,
    # activation and the augmentation seed have no flag: from the file
    "augment": {"noise_std": 0.05, "feature_dropout_prob": 0.2, "seed": 4},
    "sampler": "uniform", "hidden_widths": [6, 5], "d_emb": 3,
    "activation": "tanh", "deephit_sigma": 0.2, "deephit_rank_weight": 0.4,
    "seed": 13,
}


class TestConfigFlags:
    @pytest.fixture
    def file_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "epochs": 2, "batch_size": 16, "lr": 0.01, "weight_decay": 0.0,
            "head": "mtlr", "num_bins": 5, "sampler": "event_balanced",
            "hidden_widths": [8], "d_emb": 4, "activation": "tanh",
            "deephit_sigma": 0.5, "deephit_rank_weight": 0.9, "seed": 2,
            "loss": {"temperature": 3.0, "lambda": 0.5, "beta": 1.0},
            "augment": {"noise_std": 0.3, "feature_dropout_prob": 0.3, "seed": 4},
        }))
        return path

    @pytest.mark.parametrize("command, own", [
        ("train", [("--data", "data", None), ("--out-dir", "out_dir", None),
                   ("--seed", "seed", None)]),
        ("lambda-sweep", [("--data", "data", None), ("--lambdas", "lambdas", None),
                          ("--out", "out", None), ("--seed", "seed", None)]),
    ])
    def test_help_flags_are_pinned(self, command, own):
        got = [(flag, a.dest, None if a.choices is None else tuple(a.choices))
               for a in _subcommand(command)._actions
               for flag in a.option_strings if flag.startswith("--")]
        assert got == [("--help", "help", None), *own, *CONFIG_FLAGS]

    def test_generate_flags_are_pinned(self):
        got = [(a.option_strings, a.dest, a.choices, a.default, a.required, a.type)
               for a in _subcommand("generate")._actions[1:]]
        assert got == [
            (["--n"], "n", None, None, True, int),
            (["--d-in"], "d_in", None, 10, False, int),
            (["--risk-model"], "risk_model", ("linear", "quadratic"), "linear",
             False, None),
            (["--base-rate"], "base_rate", None, 0.1, False, float),
            (["--target-censoring"], "target_censoring", None, 0.3, False, float),
            (["--seed"], "seed", None, None, True, int),
            (["--out"], "out", None, None, True, Path)]

    def test_every_config_flag_is_exercised(self):
        given = {arg for arg in CONFIG_ARGS if arg.startswith("--")}
        assert given == {flag for flag, _, _ in CONFIG_FLAGS[1:]} | {"--seed"}

    def test_train_flags_reach_written_config(self, data_csv, file_config,
                                              tmp_path):
        main(["train", "--data", str(data_csv), "--config", str(file_config),
              "--out-dir", str(tmp_path), *CONFIG_ARGS])
        history = json.loads((tmp_path / "history.json").read_text())
        assert history["config"] == EXPECTED_CONFIG
        ckpt = json.loads((tmp_path / "checkpoint.json").read_text())
        assert ckpt["train_config"] == EXPECTED_CONFIG

    def test_lambda_sweep_flags_reach_config(self, data_csv, file_config,
                                             tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(trainer, "lambda_sweep",
                            lambda dataset, cfg, lambdas: seen.append(cfg) or [])
        main(["lambda-sweep", "--data", str(data_csv), "--config",
              str(file_config), "--lambdas", "0.3", "--out",
              str(tmp_path / "sweep.json"), *CONFIG_ARGS])
        assert seen == [TrainConfig.from_dict(EXPECTED_CONFIG)]


@pytest.fixture(scope="module")
def trained_dir(data_csv, config_json, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("trained")
    main(["train", "--data", str(data_csv), "--config", str(config_json),
          "--seed", "7", "--out-dir", str(out_dir)])
    return out_dir


@pytest.fixture(scope="module")
def quoted_ids_csv(data_csv, tmp_path_factory):
    """`data_csv` with ids that the csv dialect has to quote."""
    ds = load_csv(data_csv)
    ids = ["a,b", 'say "hi"', "two\nlines", "a\rb", *ds.ids()[4:]]
    path = tmp_path_factory.mktemp("quoted") / "quoted.csv"
    save_csv(Dataset([Patient(pid, p.features, p.event, p.time)
                      for pid, p in zip(ids, ds.patients)], ds.feature_names), path)
    return path


class TestEvaluateAndExport:
    @pytest.mark.parametrize("command", ["train", "evaluate", "export-embeddings"])
    def test_dataset_is_validated_once(self, command, trained_dir, data_csv,
                                       config_json, tmp_path, monkeypatch):
        # building a Dataset validates it, so each build is one validation
        builds = []
        check = Dataset._check
        monkeypatch.setattr(Dataset, "_check",
                            lambda ds, *columns: builds.append(ds) or check(ds, *columns))
        ckpt = str(trained_dir / "checkpoint.json")
        args = {"train": ["--config", str(config_json), "--seed", "7",
                          "--out-dir", str(tmp_path)],
                "evaluate": ["--checkpoint", ckpt, "--out", str(tmp_path / "eval.json")],
                "export-embeddings": ["--checkpoint", ckpt,
                                      "--out", str(tmp_path / "emb.csv")]}[command]
        assert main([command, "--data", str(data_csv), *args]) == 0
        assert len(builds) == 1

    def test_evaluate_writes_report(self, trained_dir, data_csv, tmp_path):
        out = tmp_path / "eval.json"
        rc = main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint.json"),
                   "--data", str(data_csv), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) == {"ci", "auc_25", "auc_50", "auc_75", "ordinality",
                               "ordinality_pairs", "ordinality_exact"}
        assert 0.0 <= report["ci"] <= 1.0

    def test_export_embeddings(self, trained_dir, data_csv, tmp_path):
        out = tmp_path / "emb.csv"
        rc = main(["export-embeddings",
                   "--checkpoint", str(trained_dir / "checkpoint.json"),
                   "--data", str(data_csv), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 61
        assert lines[0].split(",")[:3] == ["id", "time", "event"]

    def test_export_embeddings_reads_back(self, trained_dir, quoted_ids_csv, tmp_path):
        ckpt = trained_dir / "checkpoint.json"
        out = tmp_path / "emb.csv"
        assert main(["export-embeddings", "--checkpoint", str(ckpt),
                     "--data", str(quoted_ids_csv), "--out", str(out)]) == 0
        dataset = load_csv(quoted_ids_csv)
        emb, _ = nn.forward(trainer.load_checkpoint(ckpt).encoder, dataset.feature_matrix())
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {3 + emb.shape[1]}
        assert [row[0] for row in rows[1:]] == dataset.ids()
        back = load_csv(out)
        assert back.ids() == dataset.ids()
        assert np.array_equal(back.times(), dataset.times())
        assert np.array_equal(back.events(), dataset.events())
        assert np.array_equal(back.feature_matrix(), emb)


class TestFeatureNames:
    """Columns are matched by position, so a renamed or reordered CSV must
    be rejected rather than scored."""

    @pytest.fixture
    def renamed_csv(self, data_csv, tmp_path):
        ds = load_csv(data_csv)
        path = tmp_path / "renamed.csv"
        save_csv(Dataset(ds.patients, ("x1", "age", "x3")), path)
        return path

    @pytest.fixture
    def reordered_csv(self, data_csv, tmp_path):
        ds = load_csv(data_csv)
        order = [0, 2, 1]
        patients = [Patient(p.id, p.features[order], p.event, p.time)
                    for p in ds.patients]
        path = tmp_path / "reordered.csv"
        save_csv(Dataset(patients, tuple(ds.feature_names[j] for j in order)), path)
        return path

    @pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
    def test_renamed_column_rejected(self, trained_dir, renamed_csv, tmp_path, capsys,
                                     command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--checkpoint", str(trained_dir / "checkpoint.json"),
                  "--data", str(renamed_csv), "--out", str(out)])
        assert exc.value.code == 2
        assert re.search("column 2 is 'age'.*'x2'", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
    def test_reordered_columns_rejected(self, trained_dir, reordered_csv,
                                       tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--checkpoint", str(trained_dir / "checkpoint.json"),
                  "--data", str(reordered_csv), "--out", str(out)])
        assert exc.value.code == 2
        assert re.search("column 2 is 'x3'.*'x2'", capsys.readouterr().err)
        assert not out.exists()


class TestDataFileErrors:
    """A malformed data file ends the command with one error line and exit
    status 2, not a traceback."""

    @pytest.mark.parametrize("rows, message", [
        ("id,event,time,x1\na,1,3.0,0.5\nb,0,4.0,0.1\n",
         "header must start with id,time,event; got ['id', 'event', 'time']"),
        ("id,time,event,x1\na,-1,1,0.5\nb,4.0,0,0.1\n",
         "NegativeTime(a): time must be finite and >= 0, got -1.0"),
    ])
    @pytest.mark.parametrize("command", ["pairsets", "train"])
    def test_one_error_line(self, tmp_path, capsys, command, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text(rows)
        train_args = ["--seed", "0", "--out-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(path),
                  *(train_args if command == "train" else [])])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"survrnc: error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestInputErrors:
    """A missing or unreadable file, or a config, checkpoint or data set that
    the command cannot take, ends the command with one error line and exit
    status 2, and writes nothing."""

    @pytest.fixture
    def paths(self, data_csv, trained_dir, tmp_path):
        ckpt = trained_dir / "checkpoint.json"
        payload = json.loads(ckpt.read_text())
        no_encoder = {k: v for k, v in payload.items() if k != "encoder"}
        encoder, head = payload["encoder"], payload["head"]  # 3-8-4, 4-5

        def edited(**parts):
            return {**payload, **{part: {**payload[part], **changes}
                                  for part, changes in parts.items()}}

        def filled(part, value):
            return [np.full_like(w, value).tolist() for w in payload[part]["weights"]]

        # checkpoints whose parts do not fit, and models whose outputs overflow
        short_bias = edited(encoder={"biases": [encoder["biases"][0][:5],
                                                encoder["biases"][1]]})
        nan_bias = edited(head={"biases": [[math.nan, *head["biases"][0][1:]]]})
        narrow_head = edited(head={"spec": {**head["spec"], "layer_widths": [2, 5]},
                                   "weights": [[row[:2] for row in head["weights"][0]]]})
        huge = edited(encoder={"weights": filled("encoder", 1e200)},
                      head={"weights": filled("head", 1e200)})
        huge_logit = edited(head={"weights": [[[1e308] * 4, *head["weights"][0][1:]]]})
        configs = {"bad_json": "{bad", "zero_epochs": '{"epochs": 0}',
                   "nested_key": '{"loss": {"bogus": 1}}',
                   "sampler": '{"sampler": "foo"}', "str_epochs": '{"epochs": "3"}',
                   "top_list": "[1]", "null_loss": '{"loss": null}',
                   "str_widths": '{"hidden_widths": "64"}',
                   "zero_width": '{"hidden_widths": [0]}', "zero_emb": '{"d_emb": 0}',
                   "negative_lr": '{"lr": -1}', "negative_decay": '{"weight_decay": -1}',
                   "zero_sigma": '{"head": "deephit", "deephit_sigma": 0}',
                   "negative_rank": '{"deephit_rank_weight": -1}',
                   "lam_key": '{"loss": {"lam": 0.3}}',
                   "version_2": json.dumps({**payload, "version": 2}),
                   "no_encoder": json.dumps(no_encoder),
                   "bad_grid": json.dumps({**payload, "grid": [3.0, 1.0]}),
                   "short_bias": json.dumps(short_bias), "nan_bias": json.dumps(nan_bias),
                   "one_cut": json.dumps({**payload, "grid": [1.0]}),
                   "narrow_head": json.dumps(narrow_head), "huge": json.dumps(huge),
                   "huge_logit": json.dumps(huge_logit),
                   "two_names": json.dumps({**payload, "feature_names": ["x1", "x2"]})}
        for name, text in configs.items():
            (tmp_path / f"{name}.json").write_text(text)
        # held-out sets, times 1..60, on which one metric is undefined: 2
        # events (ordinality), no event by a quarter of the maximum time
        # (AUC at 15), and events only at the last time (concordance)
        ds = load_csv(data_csv)
        times = np.arange(1.0, 61.0)
        labels = {"two_events": (times <= 2, times),
                  "late_events": (times > 15, times),
                  "last_events": (times > 57, np.minimum(times, 58.0))}
        for name, (events, when) in labels.items():
            save_csv(Dataset([Patient(p.id, p.features, int(e), float(t)) for p, e, t
                              in zip(ds.patients, events, when)], ds.feature_names),
                     tmp_path / f"{name}.csv")
        save_csv(Dataset([Patient(p.id, p.features[:2], p.event, p.time)
                          for p in ds.patients], ds.feature_names[:2]),
                 tmp_path / "two_columns.csv")
        # ids and column names that hold a line break
        tables = {"break_id": 'id,time,event,x1\n"two\nlines",-1,1,0.5\np2,3,1,0.1\n',
                  "break_column": 'id,time,event,"a\nb"\np1,1,1,oops\n',
                  "break_duplicate": 'id,time,event,x1\n"d\nup",1,1,0.5\n"d\nup",2,0,0.1\n'}
        for name, text in tables.items():
            (tmp_path / f"{name}.csv").write_text(text)
        return {"data": str(data_csv), "ckpt": str(ckpt),
                "missing": str(tmp_path / "missing.csv"), "dir": str(tmp_path),
                "out": str(tmp_path / "out"), "two_columns": str(tmp_path / "two_columns.csv"),
                **{name: str(tmp_path / f"{name}.json") for name in configs},
                **{name: str(tmp_path / f"{name}.csv") for name in (*labels, *tables)}}

    @pytest.mark.parametrize("argv, message", [
        ("pairsets --data {missing}", "No such file or directory"),
        ("pairsets --data {dir}", "Is a directory"),
        ("train --data {missing} --seed 0 --out-dir {out}", "No such file or directory"),
        ("train --data {data} --config {missing} --seed 0 --out-dir {out}",
         "No such file or directory"),
        ("train --data {data} --config {dir} --seed 0 --out-dir {out}", "Is a directory"),
        ("evaluate --checkpoint {missing} --data {data} --out {out}",
         "No such file or directory"),
        ("evaluate --checkpoint {ckpt} --data {missing} --out {out}",
         "No such file or directory"),
        ("export-embeddings --checkpoint {missing} --data {data} --out {out}",
         "No such file or directory"),
        ("export-embeddings --checkpoint {data} --data {data} --out {out}",
         "Expecting value"),
        ("train --data {data} --config {bad_json} --seed 0 --out-dir {out}",
         "Expecting property name"),
        ("train --data {data} --config {zero_epochs} --seed 0 --out-dir {out}",
         "epochs, batch_size and num_bins must be positive"),
        ("train --data {data} --config {nested_key} --seed 0 --out-dir {out}",
         "unknown config keys: ['loss.bogus']"),
        ("train --data {data} --config {sampler} --seed 0 --out-dir {out}",
         "sampler must be one of"),
        ("train --data {data} --config {str_epochs} --seed 0 --out-dir {out}",
         "config key epochs must be an integer, got a string"),
        ("train --data {data} --config {top_list} --seed 0 --out-dir {out}",
         "config must be a JSON object, got an array"),
        ("train --data {data} --config {null_loss} --seed 0 --out-dir {out}",
         "config key loss must be a JSON object, got null"),
        ("train --data {data} --config {null_loss} --lambda 0.3 --seed 0 --out-dir {out}",
         "config key loss must be a JSON object, got null"),
        ("lambda-sweep --data {data} --config {str_widths} --seed 0 --out {out}",
         "config key hidden_widths must be an array of integers, got a string"),
        ("train --data {data} --config {zero_width} --seed 0 --out-dir {out}",
         "hidden_widths and d_emb must be positive"),
        ("train --data {data} --config {zero_emb} --seed 0 --out-dir {out}",
         "hidden_widths and d_emb must be positive"),
        ("train --data {data} --config {negative_lr} --seed 0 --out-dir {out}",
         "lr must be finite and > 0, got -1"),
        ("train --data {data} --config {negative_decay} --seed 0 --out-dir {out}",
         "weight_decay must be finite and >= 0, got -1"),
        ("train --data {data} --config {zero_sigma} --seed 0 --out-dir {out}",
         "deephit_sigma must be finite and > 0, got 0"),
        ("lambda-sweep --data {data} --config {negative_rank} --seed 0 --out {out}",
         "deephit_rank_weight must be finite and >= 0, got -1"),
        ("train --data {data} --config {lam_key} --seed 0 --out-dir {out}",
         "unknown config keys: ['loss.lam']"),
        ("evaluate --checkpoint {version_2} --data {data} --out {out}",
         "unsupported checkpoint version 2"),
        ("evaluate --checkpoint {no_encoder} --data {data} --out {out}",
         "checkpoint has no key 'encoder'"),
        ("export-embeddings --checkpoint {bad_grid} --data {data} --out {out}",
         "malformed checkpoint: cut points must be strictly increasing"),
        ("evaluate --checkpoint {short_bias} --data {data} --out {out}",
         "malformed checkpoint: checkpoint biases do not match spec"),
        ("evaluate --checkpoint {nan_bias} --data {data} --out {out}",
         "malformed checkpoint: checkpoint parameters contain NaN or infinity"),
        ("evaluate --checkpoint {one_cut} --data {data} --out {out}",
         "head output width 5 is not len(grid) + 1, 2"),
        ("evaluate --checkpoint {narrow_head} --data {data} --out {out}",
         "head input width 2 is not the encoder's output width, 4"),
        ("export-embeddings --checkpoint {narrow_head} --data {data} --out {out}",
         "head input width 2 is not the encoder's output width, 4"),
        ("evaluate --checkpoint {two_names} --data {two_columns} --out {out}",
         "encoder input width 3 is not the number of feature names, 2"),
        ("evaluate --checkpoint {huge} --data {data} --out {out}",
         "the model's embedding of patient 'p"),
        ("export-embeddings --checkpoint {huge} --data {data} --out {out}",
         "the model's embedding of patient 'p"),
        ("evaluate --checkpoint {huge_logit} --data {data} --out {out}",
         "the model's risk of patient 'p"),
        ("train --data {data} --out-dir {out}", "--seed is required for training"),
        ("lambda-sweep --data {data} --out {out}", "--seed is required for training"),
        ("generate --n 2 --seed 0 --out {out}", "n must be >= 4"),
        ("generate --n 200 --seed 0 --base-rate inf --out {out}",
         "base_rate must be finite and > 0, got inf"),
        ("generate --n 200 --seed 0 --base-rate 1e308 --out {out}",
         "base_rate 1e+308 is too large: the event rate base_rate * exp(risk) "
         "overflows for 47 of 200 patients"),
        ("generate --n 200 --seed 0 --base-rate 1e308 --target-censoring 0 --out {out}",
         "base_rate 1e+308 is too large: the event rate base_rate * exp(risk) "
         "overflows for 47 of 200 patients"),
        ("generate --n 200 --seed 0 --base-rate 1e-320 --target-censoring 0 --out {out}",
         "base_rate 1e-320 is too small: the mean event time 1 / (base_rate * exp(risk)) "
         "overflows for 200 of 200 patients"),
        ("generate --n 200 --seed 0 --base-rate 5e-324 --target-censoring 0 --out {out}",
         "base_rate 5e-324 is too small: the mean event time 1 / (base_rate * exp(risk)) "
         "overflows for 200 of 200 patients"),
        ("train --data {data} --noise-std nan --seed 0 --out-dir {out}",
         "noise_std must be finite and >= 0, got nan"),
        ("train --data {data} --noise-std inf --seed 0 --out-dir {out}",
         "noise_std must be finite and >= 0, got inf"),
        ("train --data {data} --temperature inf --seed 0 --out-dir {out}",
         "temperature must be finite and > 0, got inf"),
        ("train --data {data} --beta inf --seed 0 --out-dir {out}",
         "beta must be finite and >= 0, got inf"),
        ("train --data {data} --lr inf --seed 0 --out-dir {out}",
         "lr must be finite and > 0, got inf"),
        ("train --data {data} --weight-decay inf --seed 0 --out-dir {out}",
         "weight_decay must be finite and >= 0, got inf"),
        ("train --data {data} --head deephit --deephit-sigma inf --seed 0 --out-dir {out}",
         "deephit_sigma must be finite and > 0, got inf"),
        ("lambda-sweep --data {data} --deephit-rank-weight inf --seed 0 --out {out}",
         "deephit_rank_weight must be finite and >= 0, got inf"),
        ("evaluate --checkpoint {ckpt} --data {two_events} --out {out}",
         "ordinality needs >= 3 uncensored patients, got 2"),
        ("evaluate --checkpoint {ckpt} --data {late_events} --out {out}",
         "AUC at horizon 15.0: 0 cases, 45 controls"),
        ("evaluate --checkpoint {ckpt} --data {last_events} --out {out}",
         "concordance index: no comparable pairs in the input"),
        ("pairsets --data {break_id}", "NegativeTime('two\\nlines'): time must be"),
        ("pairsets --data {break_column}", "bad value 'oops' (row 2, column 'a\\nb')"),
        ("pairsets --data {break_duplicate}", "DuplicateId('d\\nup'): appears 2 times"),
    ])
    def test_one_error_line(self, paths, capsys, monkeypatch, argv, message):
        trained = []
        monkeypatch.setattr(trainer, "train", lambda *a: trained.append(a))
        with pytest.raises(SystemExit) as exc:
            main(argv.format(**paths).split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("survrnc: error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert not Path(paths["out"]).exists()
        assert trained == []

    def test_input_error_is_the_outside_input_classes(self):
        # which failures end in one error line is stated on each class
        modules = [importlib.import_module(f"survrnc.{m.name}")
                   for m in pkgutil.iter_modules(survrnc.__path__)]
        classes = {obj for module in modules for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__}
        InputError = survrnc.core.InputError
        assert {c.__name__ for c in classes if issubclass(c, InputError)} == {
            "InputError", "ValidationError", "ConfigError", "ParseError",
            "CalibrationFailedError", "CheckpointError", "FeatureMismatchError",
            "NonFiniteLossError", "NoComparablePairsError", "UndefinedAtHorizonError",
            "TooFewUncensoredError"}
        for defect in (nn.ShapeMismatchError, nn.TapeMismatchError,
                       heads.BinWidthMismatchError):
            assert defect in classes and not issubclass(defect, InputError)

    def test_internal_value_error_keeps_its_traceback(self, data_csv, tmp_path,
                                                       monkeypatch):
        def broken(dataset, cfg):
            raise ValueError("a bug")
        monkeypatch.setattr(trainer, "train", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["train", "--data", str(data_csv), "--seed", "0",
                  "--out-dir", str(tmp_path / "out")])


class TestDivergedRuns:
    """A training run that diverges ends with one error line naming the
    step, exit status 2 and no output file, and no numpy warning on the
    way (the suite turns a RuntimeWarning into an error)."""

    @pytest.fixture(scope="class")
    def d60(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("d60") / "d60.csv"
        assert main(["generate", "--n", "60", "--seed", "0", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("flags, message", [
        # the parameters overflow in the update; the epoch's validation
        # risks are the first values computed from them
        ("--lr 1e300 --epochs 2", "non-finite validation risks at step 1"),
        ("--lr 1e300 --batch-size 8 --epochs 1", "non-finite embeddings at step 2"),
        # a gradient above ~1.3e154 makes its AdamW second moment inf, and
        # the parameter would stop moving
        ("--temperature 1e-300 --epochs 2",
         "non-finite gradient (AdamW second moment) at step 1"),
    ])
    def test_one_error_line(self, d60, tmp_path, capsys, flags, message):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(d60), "--seed", "0", "--out-dir", str(out),
                  *flags.split()])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"survrnc: error: {message}\n"
        assert not out.exists()


PINNED_PAIRSETS = """\
a,p,a,b,c,d,e,f,g,h
a,b,.,N,N,D,U,D,U,D
a,c,.,U,N,D,U,D,U,D
a,d,.,U,N,N,U,N,U,D
a,e,.,U,N,N,N,N,U,D
a,f,.,U,N,D,U,N,U,D
a,g,.,N,N,N,N,N,N,N
a,h,.,U,N,N,U,N,U,N
b,a,N,.,U,U,U,U,U,U
b,c,N,.,N,N,N,N,N,N
b,d,U,.,U,N,U,U,U,U
b,e,U,.,U,U,N,U,U,U
b,f,U,.,U,U,U,N,U,U
b,g,U,.,U,U,U,U,N,U
b,h,U,.,U,U,U,U,U,N
c,a,N,U,.,D,U,N,N,D
c,b,N,N,.,N,N,N,N,N
c,d,N,U,.,N,N,N,N,N
c,e,N,U,.,N,N,N,N,N
c,f,D,U,.,D,U,N,U,D
c,g,N,U,.,D,U,N,N,D
c,h,N,U,.,D,U,N,N,N
d,a,N,U,N,.,U,N,N,D
d,b,D,N,N,.,U,N,U,D
d,c,D,U,N,.,U,N,U,D
d,e,N,N,N,.,N,N,N,N
d,f,D,U,D,.,U,N,U,D
d,g,N,U,N,.,U,N,N,D
d,h,N,U,N,.,U,N,N,N
e,a,N,U,N,U,.,U,U,U
e,b,U,N,N,U,.,U,U,U
e,c,U,U,N,U,.,U,U,U
e,d,N,N,N,N,.,N,N,N
e,f,U,U,U,U,.,N,U,U
e,g,U,U,N,U,.,U,N,U
e,h,U,U,N,U,.,U,U,N
f,a,N,U,N,N,U,.,U,N
f,b,D,N,N,D,U,.,U,D
f,c,D,U,N,D,U,.,U,D
f,d,D,U,N,N,U,.,U,D
f,e,D,U,N,N,N,.,U,D
f,g,N,U,N,N,U,.,N,N
f,h,D,U,N,N,U,.,U,N
g,a,N,N,N,N,N,N,.,N
g,b,U,N,N,U,U,U,.,U
g,c,U,U,N,U,U,U,.,U
g,d,U,U,N,N,U,U,.,U
g,e,U,U,N,N,N,U,.,U
g,f,U,U,N,U,U,N,.,U
g,h,U,U,N,N,U,U,.,N
h,a,N,U,N,N,U,N,N,.
h,b,D,N,N,D,U,D,U,.
h,c,D,U,N,D,U,D,U,.
h,d,N,U,N,N,U,N,N,.
h,e,N,U,N,N,N,N,N,.
h,f,D,U,N,D,U,N,U,.
h,g,N,U,N,N,U,N,N,.
"""


class TestPairsetsCommand:
    def test_golden_output(self, tmp_path, capsys):
        path = tmp_path / "batch.csv"
        patients = (
            Patient("a", np.zeros(1), 1, 300.0),
            Patient("p", np.zeros(1), 1, 200.0),
            Patient("n1", np.zeros(1), 1, 450.0),
            Patient("u1", np.zeros(1), 0, 250.0),
            Patient("d1", np.zeros(1), 1, 350.0),
        )
        save_csv(Dataset(patients, ("x1",)), path)
        rc = main(["pairsets", "--data", str(path)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "a,p,a,p,n1,u1,d1"
        assert len(lines) == 1 + 5 * 4
        # the documented window example: anchor a, positive p
        assert lines[1] == "a,p,.,N,N,U,D"

    def test_pinned_output(self, tmp_path, capsys):
        # tied times (d/e, a/g), zero times (b, c), censored anchors and
        # positives (b, e, g)
        path = tmp_path / "batch.csv"
        rows = [("a", 1, 300.0), ("b", 0, 0.0), ("c", 1, 0.0), ("d", 1, 200.0),
                ("e", 0, 200.0), ("f", 1, 450.0), ("g", 0, 300.0), ("h", 1, 250.0)]
        save_csv(Dataset(tuple(Patient(i, np.zeros(1), e, t) for i, e, t in rows),
                         ("x1",)), path)
        assert main(["pairsets", "--data", str(path)]) == 0
        assert capsys.readouterr().out == PINNED_PAIRSETS

    def test_matches_scalar_oracle(self, data_csv, capsys):
        batch = load_csv(data_csv).patients
        lines = ["a,p," + ",".join(p.id for p in batch)]
        for a, p in itertools.permutations(range(len(batch)), 2):
            sets = build_pair_sets(batch, a, p)
            letters = ["." if k == a else "N" if k in sets.negatives
                       else "U" if k in sets.uncertains else "D"
                       for k in range(len(batch))]
            lines.append(f"{batch[a].id},{batch[p].id}," + ",".join(letters))
        assert main(["pairsets", "--data", str(data_csv)]) == 0
        # lists, not one string: a failure then reports the first wrong row
        # instead of diffing 450 kB of text
        assert capsys.readouterr().out.split("\n") == lines + [""]

    def test_row_count_and_classes(self, data_csv, capsys):
        rc = main(["pairsets", "--data", str(data_csv)])
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        n = 60
        assert len(out) == 1 + n * (n - 1)
        for line in out[1:3]:
            classes = line.split(",")[2:]
            assert all(c in {"N", "U", "D", "."} for c in classes)


    def test_quoted_ids_parse(self, quoted_ids_csv, capsys):
        ids = load_csv(quoted_ids_csv).ids()
        n = len(ids)
        assert main(["pairsets", "--data", str(quoted_ids_csv)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
        assert len(rows) == 1 + n * (n - 1)
        assert {len(row) for row in rows} == {n + 2}
        assert rows[0] == ["a", "p", *ids]
        assert [row[:2] for row in rows[1:]] == [
            [ids[a], ids[p]] for a, p in itertools.permutations(range(n), 2)]


class TestLambdaSweepCommand:
    def test_unparsable_lambda_is_a_usage_error(self, data_csv, tmp_path,
                                                monkeypatch):
        calls = []
        monkeypatch.setattr(trainer, "train", lambda *a: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            main(["lambda-sweep", "--data", str(data_csv), "--seed", "7",
                  "--lambdas", "0.5,x", "--out", str(tmp_path / "sweep.json")])
        assert exc.value.code == 2
        assert calls == []

    def test_table_json(self, data_csv, config_json, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(["lambda-sweep", "--data", str(data_csv), "--config",
                   str(config_json), "--seed", "7",
                   "--lambdas", "0.3,0.5", "--out", str(out)])
        assert rc == 0
        table = json.loads(out.read_text())["table"]
        assert [row["lambda"] for row in table] == [0.3, 0.5]
        for row in table:
            assert 0.0 <= row["val_ci"] <= 1.0


def run_python(code, *args, **env_vars) -> str:
    """stdout of `code` run by a fresh interpreter that imports this survrnc,
    with `env_vars` added to the environment."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(survrnc.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


# numpy 2.4 imports numpy.ma (12-20 ms) on the first np.unique of floats
NUMPY_MA_AFTER_CALLS = """
import sys
import numpy as np
from survrnc.core import discretize_time
from survrnc.data import sample_batch, sampling_weights
from survrnc.metrics import concordance_index
rng = np.random.default_rng(0)
times, events = np.ceil(10 * rng.exponential(1.0, 200)), rng.integers(0, 2, 200)
discretize_time(times, events, 8)
concordance_index(rng.standard_normal(200), events, times)
sample_batch(200, 32, sampling_weights(events, "event_balanced"), 0, 0)
print("numpy.ma" in sys.modules)
"""


class TestImportCost:
    def test_package_and_cli_do_not_load_scipy(self):
        code = ("import sys, survrnc, survrnc.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_python(code).strip() == "[]"

    def test_grid_concordance_and_sampling_do_not_load_numpy_ma(self):
        assert run_python(NUMPY_MA_AFTER_CALLS).strip() == "False"


class TestPublicSurface:
    def test_package_exports(self):
        assert survrnc.__all__ == [
            "AugmentConfig", "Dataset", "EmbeddingBatch", "EvalReport",
            "LossConfig", "Patient", "SynthConfig", "TimeGrid", "TrainConfig",
            "TrainHistory", "TrainedModel", "ValidationError",
            "concordance_index", "cumulative_dynamic_auc", "discretize_time",
            "embedding_ordinality", "evaluate", "export_embeddings",
            "generate_synthetic", "horizon_from_fraction", "lambda_sweep",
            "load_checkpoint", "load_csv", "save_checkpoint", "save_csv",
            "survrnc_loss", "survrnc_loss_and_grad", "train",
        ]
        for name in survrnc.__all__:
            assert getattr(survrnc, name) is not None

    def test_pairsets_is_the_vectorized_path(self):
        # the scalar interval classifier is an oracle in tests/oracles.py
        members = vars(pairsets).items()
        assert {name for name, v in members if not name.startswith("_")
                and getattr(v, "__module__", None) == "survrnc.pairsets"} == {
            "anchor_pair_sets", "delta_bound_matrices", "exact_bounds", "pair_set_masks"}
        assert [v.__name__ for _, v in members if inspect.ismodule(v)] == ["numpy"]

    def test_heads_hand_over_plain_arrays(self):
        # five public functions, one softmax, no wrapper classes
        own = [v for v in vars(heads).values()
               if getattr(v, "__module__", None) == "survrnc.heads"]
        assert not any(dataclasses.is_dataclass(v) for v in own)
        assert {v.__name__ for v in own if inspect.isfunction(v)} == {
            "pmf_from_logits", "survival_curve", "risk_score", "mtlr_loss_and_grad",
            "deephit_loss_and_grad", "_softmax", "_likelihood"}


class TestBlasThreads:
    def test_training_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # GEMM makes the loss distances and the layers; 256 views per step
        ds, _ = generate_synthetic(
            SynthConfig(n=1000, d_in=10, target_censoring=0.6, seed=3))
        save_csv(ds, tmp_path / "data.csv")
        train = ("import sys; from survrnc.cli import main; "
                 "sys.exit(main(sys.argv[1:]))")
        for threads in ("1", "2"):
            run_python(train, "train", "--data", str(tmp_path / "data.csv"),
                       "--seed", "0", "--epochs", "2", "--batch-size", "128",
                       "--head", "deephit", "--out-dir", str(tmp_path / threads),
                       OPENBLAS_NUM_THREADS=threads)
        for name in ("history.json", "checkpoint.json"):
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name


# evaluate on a held-out set of about 700 uncensored patients, 245k pairs,
# so that the ordinality passes run on the worker thread, in a child
# pinned to one CPU (before numpy loads, so OpenBLAS takes one thread too)
# or not
EVALUATE_ON_CPUS = """
import os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from survrnc.cli import main
sys.exit(main(sys.argv[2:]))
"""


class TestWorkerThread:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins the child to one CPU")
    def test_evaluate_on_one_cpu_writes_the_same_report(self, tmp_path):
        ds, _ = generate_synthetic(SynthConfig(n=1000, d_in=3, target_censoring=0.3, seed=5))
        save_csv(ds, tmp_path / "data.csv")
        assert main(["train", "--data", str(tmp_path / "data.csv"), "--seed", "0",
                     "--epochs", "1", "--out-dir", str(tmp_path)]) == 0
        for cpus in ("pinned", "all"):
            run_python(EVALUATE_ON_CPUS, cpus, "evaluate",
                       "--checkpoint", str(tmp_path / "checkpoint.json"),
                       "--data", str(tmp_path / "data.csv"),
                       "--out", str(tmp_path / f"{cpus}.json"))
        report = json.loads((tmp_path / "all.json").read_text())
        assert report["ordinality_pairs"] > 2**16 and report["ordinality_exact"]
        assert (tmp_path / "pinned.json").read_bytes() == (tmp_path / "all.json").read_bytes()


FAULTS_DURING_TRAINING = """
import resource, sys
from survrnc import pairsets, trainer
from survrnc.data import SynthConfig, generate_synthetic
if sys.argv[1] == "default":
    trainer._settle_allocator = lambda: None
ds, _ = generate_synthetic(SynthConfig(n=1000, d_in=10, seed=1))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
trainer.train(ds, trainer.TrainConfig(seed=0, epochs=4, batch_size=128))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


# prints how many mmapped chunks one 1 MiB malloc adds: 1 at glibc's
# start thresholds (128 KiB), 0 once `_settle_allocator` has raised them
MMAP_PROBE = """
import ctypes, sys
from survrnc import trainer
if sys.argv[1] == "settled":
    trainer._settle_allocator()
libc = ctypes.CDLL(None)
class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]
libc.mallinfo2.restype = Mallinfo2
libc.malloc.argtypes = (ctypes.c_size_t,)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = (ctypes.c_void_p,)
before = libc.mallinfo2().hblks
block = libc.malloc(1 << 20)
print(libc.mallinfo2().hblks - before)
libc.free(block)
"""


# prints how many heaps (arenas) glibc's malloc_info lists once a second
# thread has taken 1 MiB: 2 at glibc's defaults, where that thread gets an
# arena of its own, 1 once `_settle_allocator` has capped them at one
HEAP_PROBE = """
import ctypes, sys, threading
from survrnc import trainer
if sys.argv[1] == "settled":
    trainer._settle_allocator()
libc = ctypes.CDLL(None)
libc.malloc.argtypes = (ctypes.c_size_t,)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = (ctypes.c_void_p,)
libc.open_memstream.argtypes = (ctypes.POINTER(ctypes.c_char_p),
                                ctypes.POINTER(ctypes.c_size_t))
libc.open_memstream.restype = ctypes.c_void_p
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.fclose.argtypes = (ctypes.c_void_p,)
blocks = []
worker = threading.Thread(target=lambda: blocks.append(libc.malloc(1 << 20)))
worker.start()
worker.join()
text, size = ctypes.c_char_p(), ctypes.c_size_t()
stream = libc.open_memstream(ctypes.byref(text), ctypes.byref(size))
libc.malloc_info(0, stream)
libc.fclose(stream)
print(text.value.decode().count("<heap nr="))
libc.free(blocks[0])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc malloc thresholds")
class TestAllocator:
    def test_a_second_thread_takes_from_the_same_heap(self):
        assert run_python(HEAP_PROBE, "default").strip() == "2"
        assert run_python(HEAP_PROBE, "settled").strip() == "1"

    @pytest.mark.skipif(tuple(int(part) for part in platform.libc_ver()[1].split(".")
                              if part.isdigit()) < (2, 33),
                        reason="mallinfo2 is glibc 2.33 and later")
    def test_settled_heap_serves_a_large_block(self):
        assert run_python(MMAP_PROBE, "default").strip() == "1"
        assert run_python(MMAP_PROBE, "settled").strip() == "0"

    def test_training_steps_keep_their_heap(self):
        # 24 steps of 256 views, called from Python rather than the CLI:
        # with glibc's start thresholds every step faults its temporaries
        # in again
        settled = int(run_python(FAULTS_DURING_TRAINING, "settled"))
        default = int(run_python(FAULTS_DURING_TRAINING, "default"))
        assert settled * 5 < default, (settled, default)
