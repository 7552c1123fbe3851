import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import survrnc.loss as loss_mod
from survrnc.core import ConfigError, Dataset, LossConfig, discretize_time
from survrnc.data import AugmentConfig, SynthConfig, generate_synthetic, two_view_augment
from survrnc.metrics import concordance_index
from survrnc.trainer import (
    NonFiniteLossError,
    TrainConfig,
    evaluate,
    export_embeddings,
    init_model,
    lambda_sweep,
    load_checkpoint,
    save_checkpoint,
    save_history,
    stratified_split,
    train,
    train_step,
)
from survrnc import heads, metrics, nn, trainer

from oracles import spearman_ordinality

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

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_history_length_and_additivity(self, small_dataset, beta):
        cfg = dataclasses.replace(
            TINY_CFG, loss=dataclasses.replace(TINY_CFG.loss, beta=beta))
        _, history = train(small_dataset, cfg)
        assert len(history.epochs) == cfg.epochs
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

    def test_starts_from_init_model(self, small_dataset, monkeypatch):
        # the parameters the first step sees are the ones `init_model` builds
        first = []

        def step(encoder, head, *args):
            if not first:
                first.extend((encoder, head))
            return train_step(encoder, head, *args)

        monkeypatch.setattr(trainer, "train_step", step)
        cfg = dataclasses.replace(TINY_CFG, epochs=1)
        model, _ = train(small_dataset, cfg)
        built = init_model(cfg, len(small_dataset.feature_names), model.grid.num_bins)
        for params, trained in zip(built, first):
            assert params.spec == trained.spec
            for a, b in zip(params.weights + params.biases,
                            trained.weights + trained.biases):
                assert a.tobytes() == b.tobytes()

    def test_best_epoch_consistent(self, small_dataset):
        _, history = train(small_dataset, TINY_CFG)
        cis = [rec["val_ci"] for rec in history.epochs]
        assert history.best_val_ci == max(cis)
        assert history.epochs[history.best_epoch - 1]["val_ci"] == history.best_val_ci
        assert history.final_val_ci == cis[-1]


class TestTrainStep:
    """The whole step against central differences of its total loss, at one
    fixed two-view batch: each head's, the kernel's and the MLP's gradients
    have their own tests, but not their composition, the head's input
    gradient flowing into the encoder with beta times the contrastive one."""

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("head_kind", ["mtlr", "deephit"])
    def test_gradients_match_finite_differences(self, head_kind, lam):
        cfg = TrainConfig(head=head_kind, num_bins=4, hidden_widths=(6,), d_emb=3,
                          activation="tanh",
                          loss=LossConfig(temperature=2.0, lam=lam, beta=0.7))
        rng = np.random.default_rng(5)
        views, events, times = two_view_augment(
            rng.normal(size=(8, 3)), np.array([1, 0, 1, 1, 0, 0, 1, 0]),
            rng.integers(1, 6, 8), AugmentConfig(0.1, 0.1, 0))
        grid = discretize_time(times, events, cfg.num_bins)
        encoder, head = init_model(cfg, 3, grid.num_bins)

        def step():
            return train_step(encoder, head, views, events, times, grid, cfg, 1)

        _, enc_grads, head_grads = step()
        h = 1e-6
        for params, (wg, bg) in ((encoder, enc_grads), (head, head_grads)):
            for array, grad in zip(params.weights + params.biases, wg + bg):
                fd = np.empty_like(array)
                for i in np.ndindex(array.shape):
                    saved = array[i]
                    array[i] = saved + h
                    up = step()[0][2]
                    array[i] = saved - h
                    down = step()[0][2]
                    array[i] = saved
                    fd[i] = (up - down) / (2 * h)
                np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-8)


class TestPinnedTraining:
    """Per head: loss_prognosis and loss_survrnc of 4 steps, val CI of 2 epochs."""

    PINNED = {
        "mtlr": ([1.1990780731176152, 1.1527245302896272, 1.2295538948282407,
                  1.175942554375614],
                 [3.504418625887138, 3.5514109847760453, 3.5484688852391666,
                  3.559437175852561],
                 [0.5138888888888888, 0.6527777777777778]),
        "deephit": ([1.747708248019917, 1.6790954185215674, 1.7485768863950781,
                     1.6745650139292156],
                    [3.504418625887138, 3.5518437656629542, 3.549434703666818,
                     3.5606899810578696],
                    [0.5138888888888888, 0.5694444444444444]),
    }

    @pytest.mark.parametrize("head", ["mtlr", "deephit"])
    def test_step_losses_and_val_ci(self, small_dataset, head):
        cfg = dataclasses.replace(TINY_CFG, head=head, batch_size=32, lr=0.01)
        _, history = train(small_dataset, cfg)
        got = ([r["loss_prognosis"] for r in history.steps],
               [r["loss_survrnc"] for r in history.steps],
               [e["val_ci"] for e in history.epochs])
        for values, pinned in zip(got, self.PINNED[head]):
            assert values == pytest.approx(pinned, rel=1e-12)


class TestBenchmarkNames:
    """The benchmark times each public function a survrnc module defines,
    as module.function, and reads per-layer metrics off some of those
    names: the contrastive loss by the prefix loss.survrnc_loss, a heads.*
    span as head-loss time only when its name holds "loss", the pair-set
    mix from pair_set_masks. Renaming or hiding one of them would silently
    zero its metric."""

    @pytest.mark.parametrize("module, name", [
        ("loss", "survrnc_loss"),
        ("loss", "survrnc_loss_and_grad"),
        ("pairsets", "pair_set_masks"),
        ("pairsets", "delta_bound_matrices"),
        ("heads", "mtlr_loss_and_grad"),
        ("heads", "deephit_loss_and_grad"),
    ])
    def test_timed_functions_are_public(self, module, name):
        mod = importlib.import_module(f"survrnc.{module}")
        fn = getattr(mod, name)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__

    @pytest.mark.parametrize("head", ["mtlr", "deephit"])
    def test_training_calls_them_by_name(self, small_dataset, monkeypatch, head):
        calls = []

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(heads, f"{head}_loss_and_grad")
        counted(loss_mod, "survrnc_loss_and_grad")
        steps = len(train(small_dataset, dataclasses.replace(
            TINY_CFG, head=head, epochs=1))[1].steps)
        assert sorted(calls) == sorted(
            [f"{head}_loss_and_grad", "survrnc_loss_and_grad"] * steps)

    def test_dataset_calls_the_benchmark_makes(self, small_dataset):
        # bench/run.py::build_inputs splits one generated dataset in two
        k = 50
        part = Dataset(small_dataset.patients[:k], small_dataset.feature_names)
        assert len(part) == k
        assert part.ids() == small_dataset.ids()[:k]
        assert np.array_equal(part.events(), small_dataset.events()[:k])
        assert np.array_equal(part.times(), small_dataset.times()[:k])
        assert np.array_equal(part.feature_matrix(),
                              small_dataset.feature_matrix()[:k])


class TestStratifiedSplit:
    def test_partition(self, small_dataset):
        tr, va = stratified_split(small_dataset.events(), seed=0)
        merged = sorted(np.concatenate([tr, va]).tolist())
        assert merged == list(range(len(small_dataset)))

    def test_stratification(self, small_dataset):
        tr, va = stratified_split(small_dataset.events(), seed=0)
        events = small_dataset.events()
        total_uncens = events.sum()
        va_uncens = events[va].sum()
        assert va_uncens == int(np.floor(0.2 * total_uncens))

    def test_deterministic(self, small_dataset):
        a = stratified_split(small_dataset.events(), seed=5)
        b = stratified_split(small_dataset.events(), seed=5)
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
        pmf = heads.pmf_from_logits(logits)
        risks = heads.risk_score(heads.survival_curve(pmf), model.grid)
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
        assert set(payload) == {"ci", "auc_25", "auc_50", "auc_75", "ordinality",
                                "ordinality_pairs", "ordinality_exact"}
        m = int(small_dataset.events().sum())
        assert payload["ordinality_pairs"] == m * (m - 1) // 2
        assert payload["ordinality_exact"] is True

    def test_ordinality_cap_recorded(self, small_dataset, monkeypatch):
        model, _ = train(small_dataset, TINY_CFG)
        monkeypatch.setattr(metrics, "ORDINALITY_MAX_PAIRS", 50)
        report = evaluate(model, small_dataset)
        assert report.ordinality_pairs == 45  # k = 10: 45 <= 50 < 55
        assert report.ordinality_exact is False
        assert evaluate(model, small_dataset).ordinality == report.ordinality
        idx = metrics.ordinality_subset(small_dataset.events())
        assert len(set(idx)) == 10 and np.all(small_dataset.events()[idx] == 1)
        emb, _ = nn.forward(model.encoder, small_dataset.feature_matrix())
        want = spearman_ordinality(emb[idx], small_dataset.events()[idx],
                                   small_dataset.times()[idx])
        assert abs(report.ordinality - want) <= 1e-12


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


class TestDatasetReuse:
    def test_second_run_on_one_dataset_writes_the_same_files(self, tmp_path):
        # the dataset's columns are read-only, so no command leaves a mark
        ds, _ = generate_synthetic(SynthConfig(n=80, d_in=4, target_censoring=0.3, seed=21))
        runs = []
        for k in range(2):
            model, history = train(ds, TINY_CFG)
            save_history(history, TINY_CFG, tmp_path / f"history{k}.json")
            save_checkpoint(model, TINY_CFG, tmp_path / f"checkpoint{k}.json")
            export_embeddings(model, ds, tmp_path / f"emb{k}.csv")
            runs.append([evaluate(model, ds).to_dict()] + [
                (tmp_path / f"{name}{k}.{ext}").read_bytes() for name, ext in
                (("history", "json"), ("checkpoint", "json"), ("emb", "csv"))])
        assert runs[0] == runs[1]

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

    def test_bad_lambda_fails_before_training(self, small_dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(trainer, "train", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="lam must be in"):
            lambda_sweep(small_dataset, TINY_CFG, [0.5, 1.5])
        assert calls == []


class TestCheckpoint:
    def test_round_trip(self, small_dataset, tmp_path):
        cfg = dataclasses.replace(TINY_CFG, head="deephit", deephit_sigma=0.2,
                                  deephit_rank_weight=0.3)
        model, _ = train(small_dataset, cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, cfg, path)
        payload = json.loads(path.read_text())
        stated = payload["train_config"]
        assert (stated["head"], stated["deephit_sigma"],
                stated["deephit_rank_weight"]) == ("deephit", 0.2, 0.3)
        assert not {"head_kind", "deephit_sigma", "deephit_rank_weight"} & set(payload)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.grid.cut_points, model.grid.cut_points)
        for a, b in zip(model.encoder.weights, loaded.encoder.weights):
            assert np.array_equal(a, b)
        a = evaluate(model, small_dataset).to_dict()
        b = evaluate(loaded, small_dataset).to_dict()
        assert a == b

    def test_older_checkpoint_with_top_level_head_keys_loads(self, small_dataset,
                                                             tmp_path):
        # checkpoints once repeated these train_config values at the top level
        cfg = dataclasses.replace(TINY_CFG, head="deephit")
        model, _ = train(small_dataset, cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, cfg, path)
        payload = json.loads(path.read_text())
        payload.update(head_kind="deephit", deephit_sigma=cfg.deephit_sigma,
                       deephit_rank_weight=cfg.deephit_rank_weight)
        path.write_text(json.dumps(payload))
        loaded = load_checkpoint(path)
        assert (evaluate(loaded, small_dataset).to_dict()
                == evaluate(model, small_dataset).to_dict())

    @pytest.mark.parametrize("text, message", [
        ('{"version": 2}', "unsupported checkpoint version 2"),
        ("[1]", "unsupported checkpoint version None"),
        ('{"version": 1, "head": {}}', "checkpoint has no key 'encoder'"),
        ('{"version": 1, "encoder": [], "head": {}}', "malformed checkpoint"),
    ])
    def test_bad_checkpoint_raises_checkpoint_error(self, tmp_path, text, message):
        path = tmp_path / "ckpt.json"
        path.write_text(text)
        with pytest.raises(trainer.CheckpointError, match=re.escape(message)):
            load_checkpoint(path)


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

    @pytest.mark.parametrize("data, keys", [
        ({"loss": {"bogus": 1}}, ["loss.bogus"]),
        ({"augment": {"noise": 0.1}, "zeta": 2}, ["zeta", "augment.noise"]),
        ({"loss": {"lam": 0.3, "lambda": 0.7}}, ["loss.lam"]),
    ])
    def test_unknown_nested_key_rejected(self, data, keys):
        with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: {keys}")):
            TrainConfig.from_dict(data)

    @pytest.mark.parametrize("name, value", [("sampler", "foo"), ("activation", "gelu"),
                                             ("head", "cox")])
    def test_choice_checked_when_built(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be one of"):
            TrainConfig.from_dict({name: value})

    @pytest.mark.parametrize("data, message", [
        ([1], "config must be a JSON object, got an array"),
        ({"loss": None}, "config key loss must be a JSON object, got null"),
        ({"augment": [0.1]}, "config key augment must be a JSON object, got an array"),
        ({"epochs": "3"}, "config key epochs must be an integer, got a string"),
        ({"epochs": 3.0}, "config key epochs must be an integer, got a number"),
        ({"epochs": True}, "config key epochs must be an integer, got a boolean"),
        ({"lr": None}, "config key lr must be a number, got null"),
        ({"head": 1}, "config key head must be a string, got an integer"),
        ({"loss": {"lambda": "0.5"}}, "config key loss.lambda must be a number, got a string"),
        ({"augment": {"seed": 1.5}}, "config key augment.seed must be an integer, got a number"),
        ({"hidden_widths": [8, "4"]},
         "config key hidden_widths must be an array of integers, got an array"),
    ])
    def test_wrong_json_type_rejected(self, data, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            TrainConfig.from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({"hidden_widths": [0]}, "hidden_widths and d_emb must be positive"),
        ({"hidden_widths": [8, 0, 4]}, "hidden_widths and d_emb must be positive"),
        ({"d_emb": 0}, "hidden_widths and d_emb must be positive"),
        ({"lr": 0}, "lr must be finite and > 0, got 0"),
        ({"lr": -1}, "lr must be finite and > 0, got -1"),
        ({"weight_decay": -1}, "weight_decay must be finite and >= 0, got -1"),
        ({"head": "deephit", "deephit_sigma": 0}, "deephit_sigma must be finite and > 0, got 0"),
        ({"deephit_rank_weight": -1}, "deephit_rank_weight must be finite and >= 0, got -1"),
    ])
    def test_value_out_of_bounds_rejected(self, data, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            TrainConfig.from_dict(data)

    def test_bounds_are_inclusive_where_zero_is_allowed(self):
        cfg = TrainConfig.from_dict({"hidden_widths": [], "weight_decay": 0,
                                     "deephit_rank_weight": 0})
        assert (cfg.hidden_widths, cfg.weight_decay, cfg.deephit_rank_weight) == ((), 0, 0)

    def test_round_trips_through_to_dict(self):
        cfg = TrainConfig(hidden_widths=(8, 4), loss=LossConfig(lam=0.25), seed=3)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_hidden_widths_become_a_tuple(self):
        assert TrainConfig.from_dict({"hidden_widths": [8, 4]}).hidden_widths == (8, 4)


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


@pytest.fixture(scope="module")
def ordering_experiment():
    path = (Path(__file__).resolve().parents[1] / "scripts"
            / "run_ordering_experiment.py")
    spec = importlib.util.spec_from_file_location("run_ordering_experiment", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOrderingClaim:
    """The paper's directional claim at desk scale: the contrastive
    regularizer (beta = 1) leaves a more ordinal latent space than the
    same model trained without it (beta = 0), on the ordering
    experiment's configuration and data, shortened to 20 epochs."""

    @pytest.mark.parametrize("seed", range(4))
    def test_regularizer_raises_ordinality(self, ordering_experiment, seed):
        dataset, _ = generate_synthetic(
            SynthConfig(n=300, d_in=10, risk_model="linear",
                        target_censoring=0.3, seed=100 + seed))
        ordinality = {}
        for beta in (1.0, 0.0):
            cfg = dataclasses.replace(
                ordering_experiment.experiment_config(seed, beta=beta), epochs=20)
            model, _ = train(dataset, cfg)
            ordinality[beta] = ordering_experiment.full_ordinality(
                model.encoder, dataset)
        assert ordinality[1.0] > ordinality[0.0], ordinality
