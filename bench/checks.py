"""Output checks for the benchmark, written without survrnc's own code.

Each check returns a list of error strings; an empty list means the
output is correct. The oracles recompute what the CLI wrote from the
checkpoint JSON and the held-out inputs: an MLP forward pass, the
softmax-PMF risk score, Harrell's C by pair counting, and the horizon
AUC by case/control counting.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

HORIZON_FRACTIONS = (0.25, 0.5, 0.75)
# A risk computed here may differ from the CLI's in the last bits; one
# near-tied pair flipping moves C or an AUC by far less than this.
METRIC_TOL = 1e-6
EMBED_TOL = 1e-9


def mlp_forward(params: dict, x: np.ndarray) -> np.ndarray:
    """Affine layers with the spec's activation between them."""
    act = params["spec"]["activation"]
    layers = list(zip(params["weights"], params["biases"]))
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ np.asarray(w, dtype=float).T + np.asarray(b, dtype=float)
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0) if act == "relu" else np.tanh(h)
    return h


def risk_scores(ckpt: dict, x: np.ndarray) -> np.ndarray:
    """Negative restricted mean survival time over the checkpoint's grid."""
    logits = mlp_forward(ckpt["head"], mlp_forward(ckpt["encoder"], x))
    z = logits - logits.max(axis=1, keepdims=True)
    pmf = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    # S(cut_k) = mass of the bins after bin k
    surv = 1.0 - np.cumsum(pmf, axis=1)[:, :-1]
    cuts = np.asarray(ckpt["grid"], dtype=float)
    widths = np.diff(cuts, prepend=0.0)
    return -(surv * widths).sum(axis=1)


def harrell_c(risks, events, times, chunk: int = 256) -> float:
    """(i, j) is comparable when i had the event and T_i < T_j, or T_i = T_j
    and j is censored; concordant when risk_i > risk_j, ties count 0.5."""
    num = 0.0
    den = 0
    idx = np.flatnonzero(events == 1)
    for start in range(0, idx.size, chunk):
        i = idx[start:start + chunk]
        ti, ri = times[i][:, None], risks[i][:, None]
        comp = (times[None, :] > ti) | ((times[None, :] == ti) & (events[None, :] == 0))
        den += int(comp.sum())
        num += float((comp & (ri > risks[None, :])).sum())
        num += 0.5 * float((comp & (ri == risks[None, :])).sum())
    return num / den


def horizon_auc(risks, events, times, horizon: float) -> float:
    cases = risks[(times <= horizon) & (events == 1)]
    controls = np.sort(risks[times > horizon])
    below = np.searchsorted(controls, cases, side="left")
    upto = np.searchsorted(controls, cases, side="right")
    wins = below.sum() + 0.5 * (upto - below).sum()
    return float(wins / (cases.size * controls.size))


def check_history(path: Path) -> list[str]:
    history = json.loads(path.read_text(encoding="utf-8"))
    errors = []
    for record in history["steps"] + history["epochs"]:
        for key, value in record.items():
            if key.startswith("loss") and not math.isfinite(value):
                errors.append(f"history: {key} = {value} at {record}")
                break
    if not 0.0 <= history["final_val_ci"] <= 1.0:
        errors.append(f"history: final_val_ci {history['final_val_ci']} outside [0, 1]")
    return errors


def check_evaluate(path: Path, ckpt: dict, heldout: dict) -> list[str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    risks = risk_scores(ckpt, heldout["features"])
    events, times = heldout["events"], heldout["times"]
    expected = {"ci": harrell_c(risks, events, times)}
    for frac in HORIZON_FRACTIONS:
        expected[f"auc_{int(round(frac * 100))}"] = horizon_auc(
            risks, events, times, frac * float(times.max()))
    errors = []
    for key, want in expected.items():
        got = report.get(key)
        if got is None or abs(got - want) > METRIC_TOL:
            errors.append(f"evaluate: {key} = {got}, oracle {want}")
    ordinality = report.get("ordinality")
    if ordinality is None or not -1.0 <= ordinality <= 1.0:
        errors.append(f"evaluate: ordinality = {ordinality} outside [-1, 1]")
    return errors


def check_export(path: Path, ckpt: dict, heldout: dict) -> list[str]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    emb = mlp_forward(ckpt["encoder"], heldout["features"])
    want_header = ["id", "time", "event"] + [f"v_{j + 1}" for j in range(emb.shape[1])]
    if header != want_header:
        return [f"export: header {header[:5]}... != {want_header[:5]}..."]
    if len(body) != len(heldout["ids"]):
        return [f"export: {len(body)} rows for {len(heldout['ids'])} patients"]
    ids = [r[0] for r in body]
    if ids != heldout["ids"]:
        first = next(i for i, (a, b) in enumerate(zip(ids, heldout["ids"])) if a != b)
        return [f"export: row {first + 2} has id {ids[first]}, "
                f"expected {heldout['ids'][first]}"]
    got = np.array([[float(c) for c in r[1:]] for r in body])
    errors = []
    if not np.array_equal(got[:, 0], heldout["times"]):
        errors.append("export: time column differs from the input")
    if not np.array_equal(got[:, 1], heldout["events"]):
        errors.append("export: event column differs from the input")
    err = np.abs(got[:, 2:] - emb) / (1.0 + np.abs(emb))
    if not err.max() <= EMBED_TOL:
        row = int(np.argmax(err.max(axis=1)))
        errors.append(f"export: row {row + 2} ({ids[row]}) differs from the "
                      f"encoder forward pass by {err.max():.3g}")
    return errors
