"""The benchmark's own tests. Run from the repository root:

    python3 bench/selftest.py

1. Smoke: every workload, tiny inputs, --trace 0 and 1. The last stdout
   line must have exactly correct/attempted/failed/metrics, pass its
   checks, and carry every metric BENCHMARK.json lists for that mode,
   with its unit; the table above it must show each metric's direction.
2. Corruption: outputs of a real operation are perturbed one at a time
   (a CI, an AUC, an exported vector, the export's row order, a loss, a
   recorded fingerprint, the bytes of a repeated operation); each must
   be reported as a failure.
3. No sources: run.py in a directory holding only BENCHMARK.json and
   bench/ must exit non-zero without printing a result.
Exits non-zero on the first failed test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

class SelfTestFailure(Exception):
    pass


def require(ok, message) -> None:
    if not ok:
        raise SelfTestFailure(message)


SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def smoke(workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    where = f"{workload} --trace {trace}"
    require(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    require(result["correct"] is True and result["failed"] == 0,
            f"{where}: {result}\n{proc.stderr}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, where)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    require(set(result["metrics"]) == {m["name"] for m in listed}, where)
    for m in listed:
        got = result["metrics"][m["name"]]
        require(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
                f"{where}: {m['name']} {got}")
        require(isinstance(got["value"], (int, float)), f"{where}: {m['name']}")
        row = next(line for line in lines if line.split()[:1] == [m["name"]])
        require(row.endswith(f"({m['better']} is better)"), f"{where}: {row}")
    print(f"ok  smoke {where}: {result['attempted']} operation(s)")


def expect_failure(what: str, errors) -> None:
    require(errors, f"corrupted {what} was not reported")
    print(f"ok  corrupted {what} reported: {str(errors)[:90]}")


def corruption() -> None:
    import checks

    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        require(run.prepare() is not None, "sources not found")
        inputs = run.build_inputs("train_b64_mtlr", 0, workdir, smoke=True)
        reference: dict = {}
        op = run.run_operation(inputs, 0, False, run.time.monotonic() + 120,
                               reference)
        require(op.error is None and reference, op.error)
        opdir = workdir / "op0"
        ckpt = json.loads((opdir / "checkpoint.json").read_text(encoding="utf-8"))
        heldout = inputs["heldout"]
        for errors in (checks.check_evaluate(opdir / "eval.json", ckpt, heldout),
                       checks.check_export(opdir / "emb.csv", ckpt, heldout),
                       checks.check_history(opdir / "history.json")):
            require(not errors, f"correct output reported as wrong: {errors}")

        def edited(name, edit):
            path = opdir / name
            original = path.read_text(encoding="utf-8")
            path.write_text(edit(original), encoding="utf-8")
            return path, original

        for key in ("ci", "auc_50"):
            def bump(text, key=key):
                report = json.loads(text)
                report[key] += 1e-3
                return json.dumps(report)
            path, original = edited("eval.json", bump)
            expect_failure(key, checks.check_evaluate(path, ckpt, heldout))
            path.write_text(original, encoding="utf-8")

        def bump_vector(text):
            lines = text.splitlines()
            cells = lines[1].split(",")
            cells[3] = repr(float(cells[3]) + 1e-6)
            lines[1] = ",".join(cells)
            return "\n".join(lines) + "\n"

        def swap_rows(text):
            lines = text.splitlines()
            lines[1], lines[2] = lines[2], lines[1]
            return "\n".join(lines) + "\n"

        for what, edit in (("exported vector", bump_vector),
                           ("export row order", swap_rows)):
            path, original = edited("emb.csv", edit)
            expect_failure(what, checks.check_export(path, ckpt, heldout))
            path.write_text(original, encoding="utf-8")

        def nan_loss(text):
            history = json.loads(text)
            history["steps"][0]["loss_total"] = float("nan")
            return json.dumps(history)

        path, original = edited("history.json", nan_loss)
        expect_failure("loss", checks.check_history(path))
        path.write_text(original, encoding="utf-8")

        table = workdir / "fingerprints.json"
        table.write_text(json.dumps({"train_b64_mtlr": {"0": {
            "val_ci": op.e2e["val_ci"] + 0.01}}}), encoding="utf-8")
        saved, run.FINGERPRINTS = run.FINGERPRINTS, table
        inputs["smoke"] = False
        try:
            expect_failure("fingerprint", run.check_first(inputs, opdir, op.e2e))
        finally:
            run.FINGERPRINTS, inputs["smoke"] = saved, True

        reference["eval.json"] = "0" * 64
        again = run.run_operation(inputs, 1, True, run.time.monotonic() + 120,
                                  reference)
        expect_failure("repeated operation bytes", again.error)
    finally:
        run.remove_workdir(workdir)


def no_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "score_n5k", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        require(proc.returncode != 0, "run.py without sources exited 0")
        require('"correct"' not in proc.stdout, "run.py without sources printed a result")
        print(f"ok  no sources: exit {proc.returncode}, {proc.stderr.strip()[:70]}")
    finally:
        run.remove_workdir(bare)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            smoke(workload, trace)
    corruption()
    no_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
