"""Byte evidence for a change: the benchmark's outputs in this tree and at REF.

Usage (from anywhere inside the repository):

    python scripts/compare.py --base REF [--train-args "ARGS"]

REF is checked out with `git worktree add` under a temporary directory,
and the worktree is removed afterwards. In that tree and in this one
(uncommitted edits included), each workload of `bench/run.py` builds its
training and held-out CSVs with `build_inputs` and runs its `commands`
(`train`, `evaluate`, `export-embeddings`) through `survrnc.cli.main` at
seed 1, each tree with its own `src/` and `bench/`, in the environment of
the bench's `child_env` (OpenBLAS at 1 thread, PYTHONHASHSEED 0).
`--train-args` is appended to every `train` call, for example
"--lambda 0" or "--config /abs/cfg.json" (each tree's runs start in that
tree, so give a config by its absolute path).

Each file a workload leaves is then reported as "identical", or by the
largest absolute and relative drift over the numbers it holds (the text
between the numbers must match). The exit status is 0 when every file is
identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import run  # noqa: E402  (bench/run.py)

SEED = 1
# a decimal or exponent number; a non-finite one (NaN, inf) counts as text
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# Run in a fresh interpreter inside one tree: argv is the workload, the
# seed, the output directory and the extra train arguments.
RUN_WORKLOAD = """
import contextlib, io, sys
from pathlib import Path
import run
from survrnc.cli import main
workload, seed, out, extra = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4:]
out.mkdir(parents=True)
inputs = run.build_inputs(workload, seed, out, smoke=False)
inputs["train_args"] = [*inputs["train_args"], *extra]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in run.commands(inputs, out):
        if main(argv):
            sys.exit(f"failed: {argv}")
"""


def drift(a: Path, b: Path) -> tuple[float, float] | None:
    """None when the files are byte for byte the same; else the largest
    absolute and relative difference between their numbers, taken in the
    order they appear. Raises ValueError when the files differ elsewhere
    than in their numbers."""
    bytes_a, bytes_b = a.read_bytes(), b.read_bytes()
    if bytes_a == bytes_b:
        return None
    text_a, text_b = bytes_a.decode(), bytes_b.decode()
    if NUMBER.split(text_a) != NUMBER.split(text_b):
        raise ValueError("differs beyond its numbers")
    worst_abs = worst_rel = 0.0
    for x, y in zip(map(float, NUMBER.findall(text_a)), map(float, NUMBER.findall(text_b))):
        if x != y:
            worst_abs = max(worst_abs, abs(x - y))
            worst_rel = max(worst_rel, abs(x - y) / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def describe(a: Path, b: Path) -> str:
    """One line for the pair of files: identical, their drift, or why not."""
    if not (a.exists() and b.exists()):
        return f"missing in {'base' if not a.exists() else 'this tree'}"
    try:
        found = drift(a, b)
    except ValueError as exc:
        return str(exc)
    return "identical" if found is None else (
        f"max abs drift {found[0]:.3g}, max rel drift {found[1]:.3g}")


def run_workload(tree: Path, workload: str, out: Path, extra: list[str]):
    env = {**run.child_env(),
           "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "bench")])}
    subprocess.run([sys.executable, "-c", RUN_WORKLOAD, workload, str(SEED), str(out),
                    *extra], cwd=tree, env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--train-args", type=shlex.split, default=[],
                        help="arguments appended to every train call")
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="survrnc-compare-"))
    base = tmp / "tree"
    all_identical = True
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base), args.base], check=True)
        for workload in run.WORKLOADS:
            outs = {}
            for side, tree in (("base", base), ("this", ROOT)):
                outs[side] = tmp / "out" / side / workload
                run_workload(tree, workload, outs[side], args.train_args)
            for name in sorted({p.name for out in outs.values() for p in out.iterdir()}):
                line = describe(outs["base"] / name, outs["this"] / name)
                all_identical &= line == "identical"
                print(f"{workload}/{name}: {line}", flush=True)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                       stderr=subprocess.DEVNULL, check=False)
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
