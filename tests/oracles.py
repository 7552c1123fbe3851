"""Reference implementations the production code is checked against.

`dense_loss_and_grad` evaluates the contrastive loss over explicit
(B, B, B) membership tensors in O(B^3) time and memory, and
`pair_likelihood` evaluates one (anchor, positive) pair from its index
sets. Neither is fast; both are direct transcriptions of the definition.
"""

from __future__ import annotations

import numpy as np

from survrnc.core import LossConfig
from survrnc.loss import EmbeddingBatch, similarity
from survrnc.pairsets import PairSets, pair_set_masks


def pair_likelihood(batch: EmbeddingBatch, a: int, p: int, sets: PairSets,
                    cfg: LossConfig) -> float:
    """Normalized likelihood of the (a, p) pair against its ranked sets.

    exp(sim(a,p)/tau) over the negative-set sum plus lambda times the
    uncertain-set sum. Always in (0, 1] because p itself sits in the
    negatives.
    """
    if not sets.negatives:
        raise ValueError("negatives must be nonempty (p is always promoted)")
    v = batch.embeddings
    tau = cfg.temperature
    neg = sorted(sets.negatives)
    unc = sorted(sets.uncertains)
    x_neg = np.array([similarity(v[a], v[k]) / tau for k in neg])
    x_p = similarity(v[a], v[p]) / tau
    if cfg.lam > 0 and unc:
        x_unc = np.array([similarity(v[a], v[k]) / tau for k in unc])
        m = max(x_neg.max(), x_unc.max())
        denom = np.exp(x_neg - m).sum() + cfg.lam * np.exp(x_unc - m).sum()
    else:
        m = x_neg.max()
        denom = np.exp(x_neg - m).sum()
    return float(np.exp(x_p - m) / denom)


def dense_loss_and_grad(batch: EmbeddingBatch, cfg: LossConfig):
    """(loss, d loss / d embeddings) from the full membership tensors."""
    v = batch.embeddings
    n = batch.size
    tau = cfg.temperature
    diff = v[:, None, :] - v[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    x = -dist / tau  # sim / tau for every (a, k)

    neg, unc = pair_set_masks(batch.events, batch.times)
    active = (neg | unc) if cfg.lam > 0 else neg

    # stable log-denominator: max over active members only, so lambda = 0
    # cannot leak an uncertain member's similarity into the shift
    x_bc = np.broadcast_to(x[:, None, :], (n, n, n))
    m = np.max(x_bc, axis=2, where=active, initial=-np.inf)
    wexp = np.zeros((n, n, n))
    np.subtract(x_bc, m[:, :, None], out=wexp, where=active)
    np.exp(wexp, out=wexp, where=active)  # inactive slots stay 0
    if 0.0 < cfg.lam != 1.0:
        wexp[unc] *= cfg.lam
    denom = wexp.sum(axis=2)
    idx = np.arange(n)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = -x + m + np.log(denom)
    terms[idx, idx] = 0.0  # p = a is not a pair
    num_pairs = n * (n - 1)
    value = float(terms.sum() / num_pairs)

    safe_denom = denom.copy()
    safe_denom[idx, idx] = 1.0
    wexp /= safe_denom[:, :, None]  # now q[a, p, k]
    wexp[idx, idx, :] = 0.0
    # coefficient of each similarity x[a, k] in the summed loss
    coeff = wexp.sum(axis=1)
    coeff -= 1.0  # the -x[a, p] numerator term, once per valid (a, p)
    coeff[idx, idx] = 0.0
    coeff /= tau * num_pairs

    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(dist[:, :, None] > 0, diff / dist[:, :, None], 0.0)
    grad = -np.einsum("ak,akd->ad", coeff, unit) + np.einsum("ak,akd->kd", coeff, unit)
    return value, grad
