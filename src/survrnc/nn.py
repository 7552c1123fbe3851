"""Minimal feed-forward encoder with exact reverse-mode gradients and AdamW.

Double precision throughout: finite-difference verifiability matters more
than speed at this scale. Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_ACTIVATIONS = ("relu", "tanh")


class ShapeMismatchError(ValueError):
    pass


class TapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths from input to embedding, activation, and init seed."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"need >= 2 positive widths, got {widths}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        object.__setattr__(self, "layer_widths", widths)


@dataclass
class ModelParams:
    spec: MlpSpec
    weights: list[np.ndarray]  # per layer, shape (out, in)
    biases: list[np.ndarray]   # per layer, shape (out,)


@dataclass
class Tape:
    """Intermediates of one forward pass, enough to run backward."""

    spec: MlpSpec
    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]  # post-activation of each hidden layer


def init_params(spec: MlpSpec) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(spec, weights, biases)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, post: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(float)
    return 1.0 - post * post


def forward(params: ModelParams, inputs: np.ndarray):
    """Affine + activation per hidden layer, final layer affine only.

    Returns (outputs, tape); the tape feeds `backward`.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.spec.layer_widths[0]:
        raise ShapeMismatchError(
            f"expected (B, {params.spec.layer_widths[0]}) inputs, got {x.shape}")
    pre, post = [], []
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre.append(z)
        if i < last:
            h = _activate(z, params.spec.activation)
            post.append(h)
        else:
            h = z
    return h, Tape(params.spec, x, pre, post)


def backward(params: ModelParams, tape: Tape, upstream: np.ndarray):
    """Exact reverse-mode gradients for one forward pass.

    Returns (weight_grads, bias_grads, input_grads), matching the layout
    of `params` and the forward inputs.
    """
    g = np.asarray(upstream, dtype=float)
    if tape.spec is not params.spec and tape.spec != params.spec:
        raise TapeMismatchError("tape was recorded with a different spec")
    if g.shape != tape.pre_activations[-1].shape:
        raise TapeMismatchError(
            f"upstream shape {g.shape} does not match output "
            f"{tape.pre_activations[-1].shape}")
    weight_grads = [np.empty(0)] * len(params.weights)
    bias_grads = [np.empty(0)] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        layer_in = tape.inputs if i == 0 else tape.activations[i - 1]
        weight_grads[i] = g.T @ layer_in
        bias_grads[i] = g.sum(axis=0)
        g = g @ params.weights[i]
        if i > 0:
            g = g * _activate_grad(tape.pre_activations[i - 1],
                                   tape.activations[i - 1],
                                   params.spec.activation)
    return weight_grads, bias_grads, g


@dataclass
class AdamState:
    """First and second moments, one array per array of `weights + biases`."""

    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]


def init_adam_state(params: ModelParams) -> AdamState:
    arrays = params.weights + params.biases
    return AdamState(0, [np.zeros_like(p) for p in arrays],
                     [np.zeros_like(p) for p in arrays])


def adam_step(params: ModelParams, weight_grads: Sequence[np.ndarray],
              bias_grads: Sequence[np.ndarray], state: AdamState,
              lr: float, weight_decay: float = 0.0):
    """One AdamW update; decay is decoupled, applied multiplicatively.

    Pure: returns a fresh (ModelParams, AdamState) pair.
    """
    t = state.step + 1
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    decay = 1.0 - lr * weight_decay
    new_p, new_state = [], AdamState(t, [], [])
    for p, g, m, v in zip(params.weights + params.biases,
                          [*weight_grads, *bias_grads], state.m, state.v):
        m_new = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v_new = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        step = lr * (m_new / c1) / (np.sqrt(v_new / c2) + ADAM_EPS)
        new_p.append(p * decay - step)
        new_state.m.append(m_new)
        new_state.v.append(v_new)
    n = len(params.weights)
    return ModelParams(params.spec, new_p[:n], new_p[n:]), new_state


def params_to_dict(params: ModelParams) -> dict:
    """JSON-ready container; float round-trip is exact via repr."""
    return {
        "spec": {
            "layer_widths": list(params.spec.layer_widths),
            "activation": params.spec.activation,
            "seed": params.spec.seed,
        },
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def params_from_dict(data: dict) -> ModelParams:
    spec = MlpSpec(tuple(data["spec"]["layer_widths"]),
                   data["spec"]["activation"], data["spec"]["seed"])
    weights = [np.array(w, dtype=float) for w in data["weights"]]
    biases = [np.array(b, dtype=float) for b in data["biases"]]
    outs = spec.layer_widths[1:]
    if [w.shape for w in weights] != list(zip(outs, spec.layer_widths[:-1])):
        raise ShapeMismatchError("checkpoint weights do not match spec")
    if [b.shape for b in biases] != [(out,) for out in outs]:
        raise ShapeMismatchError("checkpoint biases do not match spec")
    if not all(np.isfinite(p).all() for p in weights + biases):
        raise ValueError("checkpoint parameters contain NaN or infinity")
    return ModelParams(spec, weights, biases)
