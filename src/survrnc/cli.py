"""Command-line surface: generate, train, evaluate, export-embeddings,
pairsets, lambda-sweep.

`train` and `lambda-sweep` read an optional JSON config mirroring the
TrainConfig field names; every field but `activation` and the
augmentation seed can be overridden with a flag, and --seed is mandatory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from . import pairsets as ps
from . import trainer
from .core import ConfigError, InputError
from .data import (_RISK_MODELS, SynthConfig, csv_cell, generate_synthetic,
                   load_csv, save_csv)
from .trainer import TrainConfig

# The train and lambda-sweep flags come from the TrainConfig fields, with
# LossConfig and AugmentConfig flattened into them: one flag per field,
# spelled as the field's key in a config file with dashes and routed to
# the same place in the config. The exceptions:
_FLAG_CHOICES = {**trainer._CHOICES, "risk_model": _RISK_MODELS}
_NO_FLAG = {("activation",), ("augment", "seed")}
# --hidden-widths takes a comma-separated list, and each subcommand
# declares --seed itself. generate's flags come from the SynthConfig
# fields the same way, but with these defaults (MISSING: required):
_GENERATE_DEFAULTS = {"d_in": 10, "seed": dataclasses.MISSING}


def _config_fields(cls=TrainConfig, path=()):
    """(path, default) of every config field that a flag can set."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default):
            yield from _config_fields(type(f.default), path + (f.name,))
        elif path + (f.name,) not in _NO_FLAG:
            yield path + (f.name,), f.default


def _widths(text: str) -> list[int]:
    return [int(w) for w in text.split(",")]


def _lambdas(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _add_train_overrides(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, help="JSON config file")
    for path, default in _config_fields():
        if path == ("seed",):
            continue
        name = path[-1]
        flag = "--" + trainer._JSON_KEYS.get(name, name).replace("_", "-")
        if name in _FLAG_CHOICES:
            parser.add_argument(flag, dest=name, choices=_FLAG_CHOICES[name])
        elif isinstance(default, tuple):
            parser.add_argument(flag, dest=name, type=_widths,
                                help="comma-separated, e.g. 64,32")
        else:
            parser.add_argument(flag, dest=name, type=type(default))


def _add_generate_flags(parser: argparse.ArgumentParser):
    types = typing.get_type_hints(SynthConfig)
    for f in dataclasses.fields(SynthConfig):
        default = _GENERATE_DEFAULTS.get(f.name, f.default)
        required = default is dataclasses.MISSING
        kind = ({"choices": _FLAG_CHOICES[f.name]} if f.name in _FLAG_CHOICES
                else {"type": types[f.name]})
        parser.add_argument("--" + f.name.replace("_", "-"), required=required,
                            default=None if required else default, **kind)


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    raw: dict = {}
    if args.config is not None:
        raw = trainer._json_object(
            "config", json.loads(Path(args.config).read_text(encoding="utf-8")))
    for (*parents, name), _ in _config_fields():
        value = getattr(args, name)
        if value is not None:
            node = raw
            for key in parents:
                node = node.setdefault(key, {})
            if isinstance(node, dict):  # else TrainConfig.from_dict names it
                node[trainer._JSON_KEYS.get(name, name)] = value
    if raw.get("seed") is None:
        raise ConfigError("--seed is required for training")
    return TrainConfig.from_dict(raw)


def _cmd_generate(args) -> int:
    cfg = SynthConfig(**{f.name: getattr(args, f.name)
                         for f in dataclasses.fields(SynthConfig)})
    dataset, risks = generate_synthetic(cfg)
    out = Path(args.out)
    save_csv(dataset, out)
    sidecar = out.with_suffix(".meta.json")
    payload = {"config": dataclasses.asdict(cfg),
               "true_risks": dict(zip(dataset.ids(), risks.tolist()))}
    trainer._write_json(payload, sidecar)
    censored = 1.0 - dataset.events().mean()
    print(f"wrote {len(dataset)} patients to {out} "
          f"(censored fraction {censored:.3f}); ground truth in {sidecar}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
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
    sys.stdout.write(trainer._write_json(report.to_dict(), args.out))
    return 0


def _cmd_export_embeddings(args) -> int:
    model = trainer.load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    trainer.export_embeddings(model, dataset, args.out)
    print(f"wrote embeddings for {len(dataset)} patients to {args.out}")
    return 0


def _cmd_pairsets(args) -> int:
    dataset = load_csv(args.data)
    ids = [csv_cell(pid) for pid in dataset.ids()]
    n = len(ids)
    print("a,p," + ",".join(ids))
    # one anchor's (n, n) letters at a time: O(n^2) memory, not O(n^3)
    for a, (neg, unc) in enumerate(ps.anchor_pair_sets(dataset.events(),
                                                       dataset.times())):
        letters = np.full((n, n), ord("D"), dtype=np.uint8)
        letters[unc] = ord("U")
        letters[neg] = ord("N")
        letters[:, a] = ord(".")  # k = a
        sys.stdout.write("".join(
            f"{ids[a]},{ids[p]},{','.join(letters[p].tobytes().decode())}\n"
            for p in range(n) if p != a))
    return 0


def _cmd_lambda_sweep(args) -> int:
    cfg = _resolve_config(args)
    dataset = load_csv(args.data)
    table = trainer.lambda_sweep(dataset, cfg, args.lambdas)
    trainer._write_json({"table": table}, args.out)
    for row in table:
        print(f"lambda={row['lambda']:g} val_ci={row['val_ci']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survrnc",
        description="Ordinal contrastive survival prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    _add_generate_flags(gen)
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
    sw.add_argument("--lambdas", type=_lambdas, default="0.3,0.5,0.7,1.0")
    sw.add_argument("--out", type=Path, required=True)
    sw.add_argument("--seed", type=int)
    _add_train_overrides(sw)
    sw.set_defaults(func=_cmd_lambda_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trainer._settle_allocator()
    try:
        return args.func(args)
    # a file that cannot be read, or an input the command cannot take
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, InputError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    # an input too large for this machine: the allocation fails while the
    # command computes, before it writes anything
    except MemoryError as exc:
        parser.exit(2, f"{parser.prog}: error: out of memory{': ' if str(exc) else ''}{exc}\n")


if __name__ == "__main__":
    sys.exit(main())
