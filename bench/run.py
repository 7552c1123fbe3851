"""survrnc benchmark: the quick-start pipeline, timed end to end and by layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation is the README's pipeline on inputs built from `--seed`:
`survrnc train` on a synthetic training CSV, then `survrnc evaluate` and
`survrnc export-embeddings` of the new checkpoint on a held-out CSV drawn
from the same generator call. Each operation runs in a fresh child
process (bench/child.py) that caps its own address space and calls
`survrnc.cli.main` once per command, with the argv the CLI gets.
Operations run closed loop, one at a time, until the next one would end
after `--seconds`.

Workloads (all d_in = 10, n_train = 2000):
  train_b64_mtlr      30% censoring, default TrainConfig (32 patients, so
                      64 views per step, mtlr head), 4 epochs; held-out 2000
  train_b256_deephit  60% censoring, batch 128 (256 views), deephit head,
                      2 epochs; held-out 2000
  score_n5k           30% censoring, default TrainConfig, 2 epochs;
                      held-out 5000, so evaluate and export dominate

`--trace 0` prints the end-to-end metrics of BENCHMARK.json, each the
median over the run's operations:
  setup_s            per command, from its start (the child's spawn for the
                     first) to its call into trainer.train / evaluate /
                     export_embeddings, summed over the three commands
  train_views_per_s  steps * 2 * batch_size / wall time of trainer.train
  evaluate_s         evaluate command after setup (evaluate + report write)
  peak_rss_mb        the child's peak RSS
`--trace 1` alternates plain and traced operations: a traced child wraps
every public function of every survrnc module, and the per-layer metrics
come from its spans (medians over traced operations, percentiles over
pooled steps and calls).

The first operation's outputs are checked by oracles (bench/checks.py)
and, for seeds in bench/fingerprints.json (bench/record.py), against the
recorded val_ci, ci and ordinality; every later operation, traced or not,
must write byte-identical files. An operation whose child fails, runs out
of memory, times out or writes a wrong answer is counted as failed, with
the tail of its stderr. `--smoke` shrinks the inputs for bench/selftest.py.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Names, units and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
FINGERPRINTS = BENCH / "fingerprints.json"

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: idle OpenBLAS workers spin after each call and take a
# core from the Python thread; on 2 cores every end-to-end metric was
# faster with one thread than with nproc (which is also allowed).
BLAS_THREADS = 1
# well above the ~0.8 GB peak of evaluate at n = 5000, well below 7 GB
RLIMIT_AS_MB = 3072
# a run must end within 180 s, whatever --seconds says
RUN_DEADLINE_S = 165.0
D_IN = 10
FINGERPRINT_TOL = 1e-6
OUTPUTS = ("history.json", "checkpoint.json", "eval.json", "emb.csv")

WORKLOADS = {
    "train_b64_mtlr": {"censoring": 0.3, "n_train": 2000, "n_heldout": 2000,
                       "train": ["--epochs", "4"]},
    "train_b256_deephit": {"censoring": 0.6, "n_train": 2000, "n_heldout": 2000,
                           "train": ["--epochs", "2", "--batch-size", "128",
                                     "--head", "deephit"]},
    "score_n5k": {"censoring": 0.3, "n_train": 2000, "n_heldout": 5000,
                  "train": ["--epochs", "2"]},
}
SMOKE = {"n_train": 240, "n_heldout": 300, "epochs": "1"}


# ---------------------------------------------------------------- inputs

def build_inputs(workload: str, seed: int, workdir: Path, smoke: bool) -> dict:
    """Training and held-out CSVs from one generator call (off the clock)."""
    from survrnc.core import Dataset
    from survrnc.data import SynthConfig, generate_synthetic, save_csv

    spec = dict(WORKLOADS[workload])
    train_args = list(spec["train"])
    if smoke:
        spec.update(n_train=SMOKE["n_train"], n_heldout=SMOKE["n_heldout"])
        train_args[train_args.index("--epochs") + 1] = SMOKE["epochs"]
    n_train = spec["n_train"]
    data, _ = generate_synthetic(SynthConfig(
        n=n_train + spec["n_heldout"], d_in=D_IN,
        target_censoring=spec["censoring"], seed=seed))
    train = Dataset(data.patients[:n_train], data.feature_names)
    heldout = Dataset(data.patients[n_train:], data.feature_names)
    save_csv(train, workdir / "train.csv")
    save_csv(heldout, workdir / "heldout.csv")
    return {
        "workload": workload, "seed": seed, "smoke": smoke, "workdir": workdir,
        "train_args": train_args,
        "train": {"events": train.events(), "times": train.times()},
        "heldout": {"ids": heldout.ids(), "events": heldout.events(),
                    "times": heldout.times(), "features": heldout.feature_matrix()},
    }


def commands(inputs: dict, opdir: Path) -> list[list[str]]:
    """The operation's CLI calls: train, evaluate, export-embeddings."""
    work = inputs["workdir"]
    ckpt = str(opdir / "checkpoint.json")
    heldout = str(work / "heldout.csv")
    return [
        ["train", "--data", str(work / "train.csv"), "--seed", str(inputs["seed"]),
         "--out-dir", str(opdir), *inputs["train_args"]],
        ["evaluate", "--checkpoint", ckpt, "--data", heldout,
         "--out", str(opdir / "eval.json")],
        ["export-embeddings", "--checkpoint", ckpt, "--data", heldout,
         "--out", str(opdir / "emb.csv")],
    ]


# ------------------------------------------------------------ operations

def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def tail(path: Path, lines: int = 12) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").splitlines()
    return "\n".join(text[-lines:])


def run_child(commands: list[list[str]], trace: bool, opdir: Path,
              timeout: float):
    """Spawn one child for the commands; (result, None) or (None, error)."""
    spec_path, out_path = opdir / "spec.json", opdir / "result.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC), "commands": commands, "trace": int(trace),
        "rlimit_as_mb": RLIMIT_AS_MB, "out": str(out_path)}), encoding="utf-8")
    stderr_path = opdir / "stderr"
    with (opdir / "stdout").open("w") as so, stderr_path.open("w") as se:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            stdout=so, stderr=se, cwd=ROOT, env=child_env())
        try:
            rc = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, f"timed out after {timeout:.0f} s\n{tail(stderr_path)}"
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
    if rc != 0 or not out_path.exists():
        return None, f"exit code {rc}\n{tail(stderr_path)}"
    result = json.loads(out_path.read_text(encoding="utf-8"))
    result["spawn"] = spawn
    return result, None


def span_named(result: dict, name: str, nth: int = 0) -> list:
    return [s for s in result["spans"] if s[0] == name][nth]


def e2e_metrics(result: dict, opdir: Path) -> dict:
    """setup_s adds, per command, the time from its start (the child's
    spawn for the first) to its call into the timed work."""
    mains = [s for s in result["spans"] if s[0] == "cli.main"]
    s_train = span_named(result, "trainer.train")
    s_eval = span_named(result, "trainer.evaluate")
    s_export = span_named(result, "trainer.export_embeddings")
    history = json.loads((opdir / "history.json").read_text(encoding="utf-8"))
    report = json.loads((opdir / "eval.json").read_text(encoding="utf-8"))
    views = s_train[4]["steps"] * 2 * s_train[4]["batch_size"]
    return {
        "setup_s": (s_train[1] - result["spawn"]) + (s_eval[1] - mains[1][1])
        + (s_export[1] - mains[2][1]),
        "train_views_per_s": views / (s_train[2] - s_train[1]),
        "evaluate_s": mains[1][2] - s_eval[1],
        "export_s": mains[2][2] - s_export[1],
        "peak_rss_mb": result["maxrss_mb"],
        "val_ci": history["final_val_ci"],
        "ci": report["ci"],
        "ordinality": report["ordinality"],
    }


def digests(opdir: Path) -> dict:
    return {name: hashlib.sha256((opdir / name).read_bytes()).hexdigest()
            for name in OUTPUTS}


def check_first(inputs: dict, opdir: Path, e2e: dict) -> list[str]:
    """Full oracle checks of one operation's outputs."""
    import checks

    ckpt = json.loads((opdir / "checkpoint.json").read_text(encoding="utf-8"))
    errors = checks.check_history(opdir / "history.json")
    errors += checks.check_evaluate(opdir / "eval.json", ckpt, inputs["heldout"])
    errors += checks.check_export(opdir / "emb.csv", ckpt, inputs["heldout"])
    if not inputs["smoke"] and FINGERPRINTS.exists():
        table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
        recorded = table.get(inputs["workload"], {}).get(str(inputs["seed"]))
        for key, want in (recorded or {}).items():
            if abs(e2e[key] - want) > FINGERPRINT_TOL:
                errors.append(f"fingerprint: {key} = {e2e[key]!r}, "
                              f"recorded {want!r} for seed {inputs['seed']}")
    return errors


class Operation:
    def __init__(self, index: int, traced: bool):
        self.index, self.traced = index, traced
        self.result: dict | None = None
        self.e2e: dict | None = None
        self.error: str | None = None
        self.seconds = 0.0


def run_operation(inputs: dict, index: int, traced: bool, deadline: float,
                  reference: dict) -> Operation:
    """One pipeline; the first good operation is checked by the oracles,
    every later one must write byte-identical outputs."""
    op = Operation(index, traced)
    opdir = inputs["workdir"] / f"op{index}"
    opdir.mkdir()
    start = time.monotonic()
    op.result, op.error = run_child(commands(inputs, opdir), traced, opdir,
                                    deadline - time.monotonic())
    op.seconds = time.monotonic() - start
    if op.error:
        return op
    op.e2e = e2e_metrics(op.result, opdir)
    got = digests(opdir)
    if not reference:
        errors = check_first(inputs, opdir, op.e2e)
        if errors:
            op.error = "wrong output:\n" + "\n".join(errors)
        else:
            reference.update(got)
    else:
        differ = [name for name in got if got[name] != reference[name]]
        if differ:
            op.error = ("output differs from the checked operation "
                        f"(same inputs): {', '.join(differ)}")
    return op


# ------------------------------------------------------------ layer metrics

def _walk(spans: list) -> list[dict]:
    """Per span: its name, layer, duration, and whether an enclosing span
    has the same name or the same layer."""
    info = []
    for name, start, end, parent, attrs in spans:
        layer = name.split(".")[0]
        names, layers = set(), set()
        p = parent
        while p >= 0:
            names.add(spans[p][0])
            layers.add(spans[p][0].split(".")[0])
            p = spans[p][3]
        info.append({"name": name, "layer": layer, "start": start, "dur": end - start,
                     "parent": parent, "attrs": attrs or {},
                     "top_name": name not in names, "top_layer": layer not in layers})
    return info


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least 10 samples beyond it."""
    fitting = [p for p in (50, 75, 90, 95, 99, 99.9) if n * (1 - p / 100) >= 10]
    return fitting[-1] if fitting else 50


class LayerSample:
    """Per-layer numbers of one traced operation (its three commands)."""

    def __init__(self, op: Operation):
        self.scalars: dict[str, float] = {}
        self.step_ms: list[float] = []
        self.loss_ms: list[float] = []
        self.head_step_ms: list[float] = []
        every = _walk(op.result["spans"])

        def top(name):
            return [s for s in every if s["name"] == name and s["top_name"]]

        def busy(name):
            return sum(s["dur"] for s in top(name))

        def calls(name):
            return float(len(top(name)))

        def self_time(name):
            """Span time not covered by its child spans."""
            total = 0.0
            for i, s in enumerate(every):
                if s["name"] == name and s["top_name"]:
                    total += s["dur"] - sum(
                        c["dur"] for c in every if c["parent"] == i)
            return total

        sc = self.scalars
        sc["survrnc.import_s"] = op.result["import_s"]
        for name in ("core.validate_dataset", "nn.forward", "nn.backward",
                     "nn.adam_step", "metrics.concordance_index"):
            sc[f"{name}.calls"] = calls(name)
        for name in ("core.validate_dataset", "core.discretize_time",
                     "data.load_csv", "data.sample_batch", "data.two_view_augment",
                     "pairsets.delta_bound_matrices", "nn.forward", "nn.backward",
                     "nn.adam_step", "metrics.concordance_index",
                     "metrics.cumulative_dynamic_auc", "metrics.embedding_ordinality",
                     "trainer.train", "trainer.export_embeddings",
                     "trainer.save_checkpoint", "trainer.load_checkpoint"):
            sc[f"{name}.busy_s"] = busy(name)
        rows = sum(s["attrs"].get("rows", 0) for s in top("data.load_csv"))
        sc["data.load_csv.rows_per_s"] = rows / sc["data.load_csv.busy_s"]
        ci_n = [s["attrs"]["n"] for s in top("metrics.concordance_index")]
        sc["metrics.concordance_index.n"] = statistics.median(ci_n) if ci_n else 0.0
        ordinality = top("metrics.embedding_ordinality")
        sc["metrics.embedding_ordinality.pairs"] = float(
            sum(s["attrs"]["pairs"] for s in ordinality))
        sc["metrics.embedding_ordinality.rss_delta_mb"] = max(
            (s["attrs"]["rss_delta_mb"] for s in ordinality), default=0.0)
        sc["trainer.train.self_s"] = self_time("trainer.train")
        sc["trainer.evaluate.self_s"] = self_time("trainer.evaluate")

        loss = [s for s in every
                if s["name"].startswith("loss.survrnc_loss") and s["top_layer"]]
        sc["loss.loss_and_grad.calls"] = float(len(loss))
        sc["loss.loss_and_grad.busy_s"] = sum(s["dur"] for s in loss)
        self.loss_ms = [1e3 * s["dur"] for s in loss]
        sc["loss.dense_path.calls"] = float(sum(
            1 for s in every if s["name"] == "loss.dense_path"
            and s["attrs"].get("B", 0) > 16))
        heads = [s for s in every if s["name"].startswith("heads.") and s["top_layer"]]
        head_loss = [s for s in heads if "loss" in s["name"]]
        sc["heads.loss_and_grad.busy_s"] = sum(s["dur"] for s in head_loss)
        sc["heads.risk.busy_s"] = sum(s["dur"] for s in heads if "loss" not in s["name"])

        mix = op.result["pair_mix"] or {}
        for kind in ("negative", "uncertain", "disregard"):
            sc[f"pairsets.{kind}_share"] = mix.get(kind, 0.0)

        # steps: from one sample_batch entry to the next (the last one ends
        # with trainer.train), so an epoch's validation lands in a step
        s_train = top("trainer.train")[0]
        train_end = s_train["start"] + s_train["dur"]
        starts = sorted(s["start"] for s in top("data.sample_batch")
                        if s_train["start"] <= s["start"] <= train_end)
        bounds = starts + [train_end]
        self.step_ms = [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
        per_step = [0.0] * len(starts)
        for s in head_loss:
            if s_train["start"] <= s["start"] <= train_end:
                per_step[bisect_right(starts, s["start"]) - 1] += 1e3 * s["dur"]
        self.head_step_ms = per_step


def layer_metrics(traced: list[Operation], plain: list[Operation]) -> dict:
    samples = [LayerSample(op) for op in traced]
    out = {key: statistics.median(s.scalars[key] for s in samples)
           for key in samples[0].scalars}
    steps = [x for s in samples for x in s.step_ms]
    pct = tail_percentile(len(steps))
    out["trainer.step_ms_p50"] = percentile(steps, 50)
    out["trainer.step_ms_tail"] = percentile(steps, pct)
    out["trainer.step_tail_pct"] = float(pct)
    out["trainer.steps"] = float(len(samples[0].step_ms))
    loss_ms = [x for s in samples for x in s.loss_ms]
    out["loss.loss_and_grad.ms_p50"] = percentile(loss_ms, 50) if loss_ms else 0.0
    head_ms = [x for s in samples for x in s.head_step_ms]
    out["heads.loss_and_grad.ms_p50"] = percentile(head_ms, 50) if head_ms else 0.0
    for name in ("val_ci", "ci", "ordinality"):
        out[f"quality.{name}"] = traced[0].e2e[name]
    plain_vps = statistics.median(op.e2e["train_views_per_s"] for op in plain)
    traced_vps = statistics.median(op.e2e["train_views_per_s"] for op in traced)
    out["trace.overhead_pct"] = 100.0 * (plain_vps - traced_vps) / plain_vps
    return out


# ------------------------------------------------------------ reporting

def descriptors(inputs: dict, ops: list[Operation]) -> dict:
    import numpy
    import scipy

    def side(arrays):
        events = arrays["events"]
        m = int(events.sum())
        return {"n": int(events.size), "censoring": float(1 - events.mean()),
                "uncensored_pairs": m * (m - 1) // 2}

    train_args = inputs["train_args"]
    batch = int(train_args[train_args.index("--batch-size") + 1]) \
        if "--batch-size" in train_args else 32
    head = train_args[train_args.index("--head") + 1] \
        if "--head" in train_args else "mtlr"
    events = inputs["train"]["events"]
    # the trainer's event-stratified 80/20 split
    val_n = sum(int(0.2 * int((events == cls).sum())) for cls in (0, 1))
    good = [op for op in ops if op.e2e]
    out = {
        "workload": inputs["workload"], "seed": inputs["seed"], "d_in": D_IN,
        "train": side(inputs["train"]), "heldout": side(inputs["heldout"]),
        "validation_n": val_n, "views_per_step": 2 * batch, "head": head,
        "train_args": train_args,
        "steps": span_named(good[0].result, "trainer.train")[4]["steps"]
        if good else None,
        "operations": len(ops), "traced_operations": sum(op.traced for op in ops),
        "nproc": NPROC, "blas_threads": BLAS_THREADS, "rlimit_as_mb": RLIMIT_AS_MB,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    out["per_operation"] = [
        {"traced": op.traced, "seconds": round(op.seconds, 3),
         **({k: round(v, 4) for k, v in op.e2e.items()} if op.e2e else {})}
        for op in ops]
    traced = [op for op in good if op.traced]
    if traced:
        out["pair_mix"] = traced[0].result["pair_mix"]
    return out


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def prepare() -> dict | None:
    """BENCHMARK.json, once the sources are found and this process uses
    the children's thread count; None (reported) when they are missing."""
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "survrnc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no survrnc sources under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return None
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    for path in (SRC, BENCH):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return json.loads(spec_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, no fingerprint check (bench/selftest.py)")
    args = parser.parse_args(argv)
    run_start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanups

    spec = prepare()
    if spec is None:
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = build_inputs(args.workload, args.seed, workdir, args.smoke)
        deadline = run_start + RUN_DEADLINE_S
        ops: list[Operation] = []
        reference: dict = {}
        loop_start = time.monotonic()
        durations: list[float] = []
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            op = run_operation(inputs, len(ops), traced, deadline, reference)
            ops.append(op)
            if op.error:
                print(f"operation {op.index} failed: {op.error}", file=sys.stderr)
            durations.append(op.seconds)
            expected = statistics.median(durations)
            now = time.monotonic()
            need_traced = args.trace and not any(o.traced for o in ops)
            if now + max(durations) > deadline:
                break
            if not need_traced and now - loop_start + expected > args.seconds:
                break
        desc = descriptors(inputs, ops)
    finally:
        remove_workdir(workdir)

    good = [op for op in ops if not op.error]
    plain = [op for op in good if not op.traced]
    traced = [op for op in good if op.traced]
    failed = len(ops) - len(good)
    key = "per_layer" if args.trace else "end_to_end"
    values: dict = {}
    if plain and (traced or not args.trace):
        if args.trace:
            values = layer_metrics(traced, plain)
        else:
            values = {name: statistics.median(op.e2e[name] for op in plain)
                      for name in plain[0].e2e}
    metrics = {}
    for m in spec[key]:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:44s} {value:14.6g} {m['unit']:8s} ({m['better']} is better)")
    print("descriptors " + json.dumps(desc, sort_keys=True))
    unmeasured = [m["name"] for m in spec[key] if m["name"] not in values]
    if unmeasured:
        print(f"not measured: {', '.join(unmeasured)}", file=sys.stderr)
    correct = failed == 0 and not unmeasured
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
