"""One benchmark operation in a fresh process, for bench/run.py.

Usage: python3 bench/child.py SPEC.json

SPEC is a JSON object with:
  src            directory that holds the `survrnc` package
  commands       a list of CLI argument lists, as `survrnc` would get them
  trace          1 to wrap every public function of every module, 0 to
                 wrap only the entry points the end-to-end metrics need
  rlimit_as_mb   address-space cap the child sets on itself
  out            where to write the result JSON

The child caps its address space, imports survrnc, runs
`survrnc.cli.main(argv)` for each command in turn (stopping at the first
non-zero exit code) and writes its result once, at the end: the exit
code, the import time, the peak RSS, and the spans
[name, start, end, parent, attrs] the wrappers kept in memory. Times are
CLOCK_MONOTONIC seconds, so the parent can compare them with the moment
it spawned the child. A crash (MemoryError included) leaves no result
file and a non-zero exit code; the parent reports it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
from pathlib import Path

LAYERS = ("core", "data", "pairsets", "loss", "heads", "nn", "metrics",
          "trainer", "cli")
# the calls that bound each command and its timed work
ENTRY_POINTS = (("cli", "main"), ("trainer", "train"), ("trainer", "evaluate"),
                ("trainer", "export_embeddings"))
# private functions that a layer metric needs: (module, attribute, span)
PRIVATE = (("loss", "_loss_and_grad_dense", "loss.dense_path"),)
PAIR_MIX_BATCHES = 4


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Keeps spans in memory; each wrapper pushes itself as the parent of
    the spans its callee opens."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.batches: list[tuple] = []

    def wrap(self, name, fn, attrs=None, before=None):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before() if before is not None else None
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result, pre)
            return result

        return wrapper

    # attribute extractors, run after the span has closed
    def _loss_attrs(self, args, kwargs, result, pre):
        batch = args[0]
        if len(self.batches) < PAIR_MIX_BATCHES:
            self.batches.append((batch.events.copy(), batch.times.copy()))
        return {"B": int(batch.size)}

    def attr_functions(self) -> dict:
        def arg(args, kwargs, i, key):
            return args[i] if len(args) > i else kwargs[key]

        def ordinality(args, kwargs, result, pre):
            m = int((arg(args, kwargs, 1, "events") == 1).sum())
            return {"pairs": m * (m - 1) // 2,
                    "rss_delta_mb": max(0.0, _maxrss_mb() - pre)}

        return {
            "trainer.train": lambda a, k, r, p: {
                "steps": len(r[1].steps),
                "batch_size": int(arg(a, k, 1, "cfg").batch_size)},
            "loss.survrnc_loss_and_grad": self._loss_attrs,
            "loss.survrnc_loss": self._loss_attrs,
            "loss.dense_path": lambda a, k, r, p: {"B": int(a[0].size)},
            "metrics.concordance_index": lambda a, k, r, p: {
                "n": len(arg(a, k, 0, "risks"))},
            "metrics.embedding_ordinality": ordinality,
            "data.load_csv": lambda a, k, r, p: {"rows": len(r)},
        }


def install(tracer: Tracer, survrnc, full: bool) -> None:
    """Replace each wrapped function wherever a caller looks it up.

    A function is wrapped once, and every survrnc module attribute bound
    to it (the defining module, `from x import f` copies, the package
    re-exports) is rebound to the one wrapper.
    """
    modules = {name: importlib.import_module(f"survrnc.{name}")
               for name in LAYERS}
    targets: dict[int, tuple] = {}

    def add(fn, span):
        targets[id(fn)] = (fn, span)

    for layer, name in ENTRY_POINTS:
        add(getattr(modules[layer], name), f"{layer}.{name}")
    if full:
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    add(fn, f"{layer}.{name}")
        for layer, name, span in PRIVATE:
            fn = getattr(modules[layer], name, None)
            if fn is not None:
                add(fn, span)
    attrs = tracer.attr_functions()
    before = {"metrics.embedding_ordinality": _rss_mb}
    wrappers = {key: tracer.wrap(span, fn, attrs.get(span), before.get(span))
                for key, (fn, span) in targets.items()}
    for module in (survrnc, *modules.values()):
        for name, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and targets[id(value)][0] is value:
                setattr(module, name, wrapper)


def pair_mix(survrnc, batches) -> dict | None:
    """Shares of negative, uncertain and disregarded (a, p, k) triples,
    k != a != p, over the captured batches; computed after the command."""
    masks = getattr(survrnc.pairsets, "pair_set_masks", None)
    if masks is None or not batches:
        return None
    masks = getattr(masks, "__wrapped__", masks)  # untimed, unrecorded
    neg = unc = total = 0
    for events, times in batches:
        n_mask, u_mask = masks(events, times)
        b = len(times)
        neg += int(n_mask.sum())
        unc += int(u_mask.sum())
        total += b * (b - 1) * (b - 1)
    return {"negative": neg / total, "uncertain": unc / total,
            "disregard": 1.0 - (neg + unc) / total}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cap = int(spec["rlimit_as_mb"]) * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    src = str(Path(spec["src"]).resolve())
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import survrnc
    import_s = time.monotonic() - t0
    if not str(Path(survrnc.__file__).resolve()).startswith(src):
        raise SystemExit(f"survrnc imported from {survrnc.__file__}, not {src}")

    tracer = Tracer()
    install(tracer, survrnc, bool(spec["trace"]))
    rc = 0
    for argv in spec["commands"]:
        rc = survrnc.cli.main(argv)
        if rc:
            break
    result = {
        "rc": rc,
        "import_s": import_s,
        "maxrss_mb": _maxrss_mb(),  # before pair_mix allocates its masks
        "spans": tracer.spans,
        "pair_mix": pair_mix(survrnc, tracer.batches) if spec["trace"] else None,
    }
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return int(rc or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
