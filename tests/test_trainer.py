import dataclasses
import json

import numpy as np
import pytest

import survrnc.loss as loss_mod
from survrnc.core import LossConfig
from survrnc.data import AugmentConfig, SynthConfig, generate_synthetic
from survrnc.metrics import concordance_index
from survrnc.trainer import (
    NonFiniteLossError,
    TrainConfig,
    evaluate,
    export_embeddings,
    lambda_sweep,
    load_checkpoint,
    save_checkpoint,
    save_history,
    stratified_split,
    train,
)
from survrnc import heads, nn

TINY_CFG = TrainConfig(
    epochs=2, batch_size=8, num_bins=4, hidden_widths=(8,), d_emb=4,
    loss=LossConfig(temperature=2.0, lam=0.5, beta=1.0),
    augment=AugmentConfig(0.1, 0.1, 0), seed=3,
)


@pytest.fixture(scope="module")
def small_dataset():
    ds, _ = generate_synthetic(
        SynthConfig(n=80, d_in=4, target_censoring=0.3, seed=21))
    return ds


class TestTrain:
    def test_smoke_tiny_dataset(self):
        ds, _ = generate_synthetic(SynthConfig(n=8, d_in=3, seed=1))
        cfg = dataclasses.replace(TINY_CFG, epochs=1)
        model, history = train(ds, cfg)
        assert len(history.epochs) == 1
        record = history.epochs[0]
        assert np.isfinite(record["loss_prognosis"])
        assert np.isfinite(record["loss_survrnc"])
        assert np.isfinite(record["loss_total"])
        assert np.isfinite(record["val_ci"])

    def test_history_length_and_additivity(self, small_dataset):
        _, history = train(small_dataset, TINY_CFG)
        assert len(history.epochs) == TINY_CFG.epochs
        beta = TINY_CFG.loss.beta
        for rec in history.steps:
            assert rec["loss_total"] == rec["loss_prognosis"] + beta * rec["loss_survrnc"]
            assert rec["loss_survrnc"] >= 0.0

    def test_reproducible_history(self, small_dataset):
        _, h1 = train(small_dataset, TINY_CFG)
        _, h2 = train(small_dataset, TINY_CFG)
        assert h1.to_dict() == h2.to_dict()

    def test_beta_zero_matches_structurally_removed_term(self, small_dataset,
                                                         monkeypatch):
        cfg = dataclasses.replace(
            TINY_CFG, loss=dataclasses.replace(TINY_CFG.loss, beta=0.0))
        _, with_value = train(small_dataset, cfg)

        # replace the regularizer with a stub: the prognosis trajectory
        # must be bitwise identical, and the gradient path never invoked
        def boom(*args, **kwargs):
            raise AssertionError("survrnc gradient must not run at beta=0")

        monkeypatch.setattr(loss_mod, "survrnc_loss", lambda *a, **k: 0.0)
        monkeypatch.setattr(loss_mod, "survrnc_loss_and_grad", boom)
        monkeypatch.setattr(loss_mod, "survrnc_loss_grad", boom)
        import survrnc.trainer as trainer_mod
        monkeypatch.setattr(trainer_mod.loss_mod, "survrnc_loss", lambda *a, **k: 0.0)
        _, without_term = train(small_dataset, cfg)
        a = [r["loss_prognosis"] for r in with_value.steps]
        b = [r["loss_prognosis"] for r in without_term.steps]
        assert a == b

    def test_lambda_independent_on_uncensored_data(self):
        ds, _ = generate_synthetic(
            SynthConfig(n=60, d_in=3, target_censoring=0.0, seed=2))
        histories = []
        for lam in (0.0, 1.0):
            cfg = dataclasses.replace(
                TINY_CFG, loss=dataclasses.replace(TINY_CFG.loss, lam=lam))
            _, h = train(ds, cfg)
            histories.append(h.to_dict())
        assert histories[0] == histories[1]

    def test_deephit_head_trains(self, small_dataset):
        cfg = dataclasses.replace(TINY_CFG, head="deephit", epochs=1)
        _, history = train(small_dataset, cfg)
        assert np.isfinite(history.epochs[0]["loss_prognosis"])

    def test_divergence_names_the_step(self, small_dataset, monkeypatch):
        # poison the encoder output of step 3 (each step runs the encoder,
        # then the head)
        forward = nn.forward
        calls = []

        def poisoned(params, x):
            out, tape = forward(params, x)
            calls.append(1)
            if len(calls) == 5:
                out = out.copy()
                out[0, 0] = np.nan
            return out, tape

        monkeypatch.setattr(nn, "forward", poisoned)
        with pytest.raises(NonFiniteLossError, match="embeddings") as exc:
            train(small_dataset, dataclasses.replace(TINY_CFG, epochs=1))
        assert exc.value.step == 3

    def test_best_epoch_consistent(self, small_dataset):
        _, history = train(small_dataset, TINY_CFG)
        cis = [rec["val_ci"] for rec in history.epochs]
        assert history.best_val_ci == max(cis)
        assert history.epochs[history.best_epoch - 1]["val_ci"] == history.best_val_ci
        assert history.final_val_ci == cis[-1]


class TestStratifiedSplit:
    def test_partition(self, small_dataset):
        tr, va = stratified_split(small_dataset, seed=0)
        merged = sorted(np.concatenate([tr, va]).tolist())
        assert merged == list(range(len(small_dataset)))

    def test_stratification(self, small_dataset):
        tr, va = stratified_split(small_dataset, seed=0)
        events = small_dataset.events()
        total_uncens = events.sum()
        va_uncens = events[va].sum()
        assert va_uncens == int(np.floor(0.2 * total_uncens))

    def test_deterministic(self, small_dataset):
        a = stratified_split(small_dataset, seed=5)
        b = stratified_split(small_dataset, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestEvaluate:
    def test_untrained_model_near_chance(self):
        ds, _ = generate_synthetic(
            SynthConfig(n=400, d_in=4, target_censoring=0.3, seed=17))
        cfg = dataclasses.replace(TINY_CFG, epochs=1)
        model, _ = train(ds, dataclasses.replace(cfg, epochs=1))
        # fresh untrained params, same architecture
        model.encoder.weights = nn.init_params(model.encoder.spec).weights
        report = evaluate(model, ds)
        assert 0.35 <= report.ci <= 0.65

    def test_pass_through_consistency(self, small_dataset):
        model, _ = train(small_dataset, TINY_CFG)
        report = evaluate(model, small_dataset)
        emb, _ = nn.forward(model.encoder, small_dataset.feature_matrix())
        logits, _ = nn.forward(model.head, emb)
        pmf = heads.pmf_from_logits(heads.HeadOutput(logits))
        risks = heads.risk_score(heads.survival_curve(pmf, model.grid))
        expected = concordance_index(risks, small_dataset.events(),
                                     small_dataset.times())
        assert report.ci == expected

    def test_deterministic(self, small_dataset):
        model, _ = train(small_dataset, TINY_CFG)
        a = evaluate(model, small_dataset).to_dict()
        b = evaluate(model, small_dataset).to_dict()
        assert a == b

    def test_report_fields(self, small_dataset):
        model, _ = train(small_dataset, TINY_CFG)
        payload = evaluate(model, small_dataset).to_dict()
        assert set(payload) == {"ci", "auc_25", "auc_50", "auc_75", "ordinality"}


class TestExportEmbeddings:
    def test_row_and_column_counts(self, small_dataset, tmp_path):
        model, _ = train(small_dataset, TINY_CFG)
        path = tmp_path / "emb.csv"
        export_embeddings(model, small_dataset, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(small_dataset) + 1
        header = lines[0].split(",")
        assert header[:3] == ["id", "time", "event"]
        assert len(header) == 3 + TINY_CFG.d_emb

    def test_deterministic_bytes(self, small_dataset, tmp_path):
        model, _ = train(small_dataset, TINY_CFG)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_embeddings(model, small_dataset, p1)
        export_embeddings(model, small_dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lossless_reload(self, small_dataset, tmp_path):
        model, _ = train(small_dataset, TINY_CFG)
        path = tmp_path / "emb.csv"
        export_embeddings(model, small_dataset, path)
        emb, _ = nn.forward(model.encoder, small_dataset.feature_matrix())
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
        reloaded = np.array([[float(v) for v in row[3:]] for row in rows])
        assert np.array_equal(reloaded, emb)


class TestLambdaSweep:
    def test_single_row(self, small_dataset):
        table = lambda_sweep(small_dataset, TINY_CFG, [0.5])
        assert len(table) == 1
        assert table[0]["lambda"] == 0.5

    def test_uncensored_data_identical_ci(self):
        ds, _ = generate_synthetic(
            SynthConfig(n=60, d_in=3, target_censoring=0.0, seed=2))
        table = lambda_sweep(ds, TINY_CFG, [0.3, 0.5, 0.7, 1.0])
        cis = {row["val_ci"] for row in table}
        assert len(cis) == 1

    def test_requires_values(self, small_dataset):
        with pytest.raises(ValueError):
            lambda_sweep(small_dataset, TINY_CFG, [])


class TestCheckpoint:
    def test_round_trip(self, small_dataset, tmp_path):
        model, _ = train(small_dataset, TINY_CFG)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, TINY_CFG, path)
        loaded = load_checkpoint(path)
        assert loaded.head_kind == model.head_kind
        assert np.array_equal(loaded.grid.cut_points, model.grid.cut_points)
        for a, b in zip(model.encoder.weights, loaded.encoder.weights):
            assert np.array_equal(a, b)
        a = evaluate(model, small_dataset).to_dict()
        b = evaluate(loaded, small_dataset).to_dict()
        assert a == b


class TestTrainConfigDict:
    def test_round_trip(self):
        cfg = TrainConfig(seed=9, loss=LossConfig(1.5, 0.3, 2.0))
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_lambda_key_accepted(self):
        cfg = TrainConfig.from_dict({"loss": {"lambda": 0.7}, "seed": 1})
        assert cfg.loss.lam == 0.7

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"nope": 1})


class TestHistorySerialization:
    def test_identical_bytes_for_identical_runs(self, small_dataset, tmp_path):
        p1, p2 = tmp_path / "h1.json", tmp_path / "h2.json"
        _, h1 = train(small_dataset, TINY_CFG)
        save_history(h1, TINY_CFG, p1)
        _, h2 = train(small_dataset, TINY_CFG)
        save_history(h2, TINY_CFG, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_embedded(self, small_dataset, tmp_path):
        path = tmp_path / "h.json"
        _, h = train(small_dataset, TINY_CFG)
        save_history(h, TINY_CFG, path)
        payload = json.loads(path.read_text())
        assert payload["config"]["seed"] == TINY_CFG.seed
        assert payload["config"]["loss"]["lambda"] == TINY_CFG.loss.lam
