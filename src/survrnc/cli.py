"""Command-line surface: generate, train, evaluate, export-embeddings,
pairsets, lambda-sweep.

`train` reads an optional JSON config mirroring TrainConfig field names;
every field can be overridden with a flag, and --seed is mandatory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pairsets as ps
from . import trainer
from .data import SynthConfig, load_csv, save_csv, generate_synthetic
from .trainer import TrainConfig

_CLASS_LETTER = {
    ps.PairClass.NEGATIVE: "N",
    ps.PairClass.UNCERTAIN: "U",
    ps.PairClass.DISREGARD: "D",
}


def _add_train_overrides(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--lr", type=float)
    parser.add_argument("--weight-decay", type=float, dest="weight_decay")
    parser.add_argument("--head", choices=("mtlr", "deephit"))
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--lambda", type=float, dest="lam")
    parser.add_argument("--beta", type=float)
    parser.add_argument("--num-bins", type=int, dest="num_bins")
    parser.add_argument("--noise-std", type=float, dest="noise_std")
    parser.add_argument("--feature-dropout-prob", type=float,
                        dest="feature_dropout_prob")
    parser.add_argument("--sampler", choices=("uniform", "event_balanced"))
    parser.add_argument("--hidden-widths", dest="hidden_widths",
                        help="comma-separated, e.g. 64,32")
    parser.add_argument("--d-emb", type=int, dest="d_emb")
    parser.add_argument("--deephit-sigma", type=float, dest="deephit_sigma")
    parser.add_argument("--deephit-rank-weight", type=float,
                        dest="deephit_rank_weight")


def _resolve_config(args: argparse.Namespace, require_seed: bool) -> TrainConfig:
    raw: dict = {}
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    loss_d = dict(raw.get("loss", {}))
    aug_d = dict(raw.get("augment", {}))
    for key in ("temperature", "beta"):
        value = getattr(args, key, None)
        if value is not None:
            loss_d[key] = value
    if getattr(args, "lam", None) is not None:
        loss_d.pop("lambda", None)
        loss_d["lam"] = args.lam
    for key in ("noise_std", "feature_dropout_prob"):
        value = getattr(args, key, None)
        if value is not None:
            aug_d[key] = value
    for key in ("epochs", "batch_size", "lr", "weight_decay", "head",
                "num_bins", "sampler", "d_emb", "deephit_sigma",
                "deephit_rank_weight", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    if getattr(args, "hidden_widths", None) is not None:
        raw["hidden_widths"] = [int(w) for w in args.hidden_widths.split(",")]
    if require_seed and raw.get("seed") is None:
        raise SystemExit("error: --seed is required for training")
    raw["loss"] = loss_d
    raw["augment"] = aug_d
    return TrainConfig.from_dict(raw)


def _cmd_generate(args) -> int:
    cfg = SynthConfig(n=args.n, d_in=args.d_in, risk_model=args.risk_model,
                      base_rate=args.base_rate,
                      target_censoring=args.target_censoring, seed=args.seed)
    dataset, risks = generate_synthetic(cfg)
    out = Path(args.out)
    save_csv(dataset, out)
    sidecar = out.with_suffix(".meta.json")
    payload = {
        "config": {"n": cfg.n, "d_in": cfg.d_in, "risk_model": cfg.risk_model,
                   "base_rate": cfg.base_rate,
                   "target_censoring": cfg.target_censoring, "seed": cfg.seed},
        "true_risks": {p.id: float(r) for p, r in zip(dataset.patients, risks)},
    }
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    censored = 1.0 - dataset.events().mean()
    print(f"wrote {len(dataset)} patients to {out} "
          f"(censored fraction {censored:.3f}); ground truth in {sidecar}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args, require_seed=True)
    dataset = load_csv(args.data)
    model, history = trainer.train(dataset, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trainer.save_history(history, cfg, out_dir / "history.json")
    trainer.save_checkpoint(model, cfg, out_dir / "checkpoint.json")
    print(f"trained {cfg.epochs} epochs; "
          f"final val CI {history.final_val_ci:.4f} "
          f"(best {history.best_val_ci:.4f} at epoch {history.best_epoch}); "
          f"outputs in {out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    model = trainer.load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    report = trainer.evaluate(model, dataset)
    payload = report.to_dict()
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_export_embeddings(args) -> int:
    model = trainer.load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    trainer.export_embeddings(model, dataset, args.out)
    print(f"wrote embeddings for {len(dataset)} patients to {args.out}")
    return 0


def _cmd_pairsets(args) -> int:
    dataset = load_csv(args.data)
    batch = dataset.patients
    n = len(batch)
    print("a,p," + ",".join(p.id for p in batch))
    for a in range(n):
        for p in range(n):
            if p == a:
                continue
            sets = ps.build_pair_sets(batch, a, p)
            letters = []
            for k in range(n):
                if k == a:
                    letters.append(".")
                elif k in sets.negatives:
                    letters.append("N")
                elif k in sets.uncertains:
                    letters.append("U")
                else:
                    letters.append("D")
            print(f"{batch[a].id},{batch[p].id}," + ",".join(letters))
    return 0


def _cmd_lambda_sweep(args) -> int:
    cfg = _resolve_config(args, require_seed=True)
    dataset = load_csv(args.data)
    lambdas = [float(x) for x in args.lambdas.split(",")]
    table = trainer.lambda_sweep(dataset, cfg, lambdas)
    payload = {"table": table}
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    for row in table:
        print(f"lambda={row['lambda']:g} val_ci={row['val_ci']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survrnc",
        description="Ordinal contrastive survival prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d-in", type=int, dest="d_in", default=10)
    gen.add_argument("--risk-model", choices=("linear", "quadratic"),
                     default="linear", dest="risk_model")
    gen.add_argument("--base-rate", type=float, default=0.1, dest="base_rate")
    gen.add_argument("--target-censoring", type=float, default=0.3,
                     dest="target_censoring")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", type=Path, required=True)
    gen.set_defaults(func=_cmd_generate)

    tr = sub.add_parser("train", help="train encoder + head on a CSV dataset")
    tr.add_argument("--data", type=Path, required=True)
    tr.add_argument("--out-dir", type=Path, default=Path("."), dest="out_dir")
    tr.add_argument("--seed", type=int)
    _add_train_overrides(tr)
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("evaluate", help="evaluate a checkpoint on a CSV dataset")
    ev.add_argument("--checkpoint", type=Path, required=True)
    ev.add_argument("--data", type=Path, required=True)
    ev.add_argument("--out", type=Path, required=True)
    ev.set_defaults(func=_cmd_evaluate)

    ex = sub.add_parser("export-embeddings",
                        help="write per-patient embeddings to CSV")
    ex.add_argument("--checkpoint", type=Path, required=True)
    ex.add_argument("--data", type=Path, required=True)
    ex.add_argument("--out", type=Path, required=True)
    ex.set_defaults(func=_cmd_export_embeddings)

    pr = sub.add_parser("pairsets",
                        help="print the pair classification matrix of a CSV batch")
    pr.add_argument("--data", type=Path, required=True)
    pr.set_defaults(func=_cmd_pairsets)

    sw = sub.add_parser("lambda-sweep",
                        help="train once per lambda and tabulate validation CI")
    sw.add_argument("--data", type=Path, required=True)
    sw.add_argument("--lambdas", default="0.3,0.5,0.7,1.0")
    sw.add_argument("--out", type=Path, required=True)
    sw.add_argument("--seed", type=int)
    _add_train_overrides(sw)
    sw.set_defaults(func=_cmd_lambda_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    trainer._settle_allocator()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
