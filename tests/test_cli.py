import json

import numpy as np
import pytest

from survrnc.cli import main
from survrnc.data import load_csv, save_csv, SynthConfig, generate_synthetic
from survrnc.core import Dataset, Patient
from survrnc.trainer import FeatureMismatchError


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
        assert ckpt["head_kind"] == "mtlr"

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


@pytest.fixture(scope="module")
def trained_dir(data_csv, config_json, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("trained")
    main(["train", "--data", str(data_csv), "--config", str(config_json),
          "--seed", "7", "--out-dir", str(out_dir)])
    return out_dir


class TestEvaluateAndExport:
    def test_evaluate_writes_report(self, trained_dir, data_csv, tmp_path):
        out = tmp_path / "eval.json"
        rc = main(["evaluate", "--checkpoint", str(trained_dir / "checkpoint.json"),
                   "--data", str(data_csv), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) == {"ci", "auc_25", "auc_50", "auc_75", "ordinality"}
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
    def test_renamed_column_rejected(self, trained_dir, renamed_csv, tmp_path,
                                     command):
        out = tmp_path / "out"
        with pytest.raises(FeatureMismatchError, match="column 2 is 'age'.*'x2'"):
            main([command, "--checkpoint", str(trained_dir / "checkpoint.json"),
                  "--data", str(renamed_csv), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
    def test_reordered_columns_rejected(self, trained_dir, reordered_csv,
                                       tmp_path, command):
        out = tmp_path / "out"
        with pytest.raises(FeatureMismatchError, match="column 2 is 'x3'.*'x2'"):
            main([command, "--checkpoint", str(trained_dir / "checkpoint.json"),
                  "--data", str(reordered_csv), "--out", str(out)])
        assert not out.exists()


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

    def test_row_count_and_classes(self, data_csv, capsys):
        rc = main(["pairsets", "--data", str(data_csv)])
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        n = 60
        assert len(out) == 1 + n * (n - 1)
        for line in out[1:3]:
            classes = line.split(",")[2:]
            assert all(c in {"N", "U", "D", "."} for c in classes)


class TestLambdaSweepCommand:
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
