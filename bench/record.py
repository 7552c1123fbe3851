"""Record the quality fingerprints that bench/run.py checks.

    python3 bench/record.py --seeds 0-19 [--workloads NAME,NAME]

For every workload and seed not yet in bench/fingerprints.json, runs one
plain operation (with the full oracle checks) and stores its val_ci, ci
and ordinality. A later run on a recorded seed must reproduce them
within run.FINGERPRINT_TOL. Re-record only for a change that is meant to
alter what training or evaluation computes, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 0-19")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    if run.prepare() is None:
        return 2
    table = (json.loads(run.FINGERPRINTS.read_text(encoding="utf-8"))
             if run.FINGERPRINTS.exists() else {})
    workdir = run.WORK / f"record-{os.getpid()}"
    try:
        for workload in args.workloads.split(","):
            rows = table.setdefault(workload, {})
            for seed in range(first, last + 1):
                if str(seed) in rows:
                    continue
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                inputs = run.build_inputs(workload, seed, workdir, smoke=False)
                op = run.run_operation(inputs, 0, False,
                                       time.monotonic() + run.RUN_DEADLINE_S, {})
                if op.error:
                    print(f"{workload} seed {seed}: {op.error}", file=sys.stderr)
                    return 1
                rows[str(seed)] = {key: op.e2e[key]
                                   for key in ("val_ci", "ci", "ordinality")}
                print(workload, seed, rows[str(seed)], flush=True)
                run.FINGERPRINTS.write_text(
                    json.dumps(table, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    finally:
        run.remove_workdir(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
