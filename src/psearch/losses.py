"""Loss functions: online-pairing metric loss, priority-class softmax
losses (classifier-score and class-center variants), combined objective,
and triplet/contrastive baselines for ablations.

Every loss works on one iteration's rows at once: a feature (or score)
matrix with one row per proposal and an int label array. Features are
unit-norm float64. Gradients are reported at the normalized-feature (or
score) level as one matrix matching the input rows; stored dictionary
features and class centers are constants in every backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import ClassCenterTable, HyperParams
from .errors import EmptyPool, EmptySubgroups, UninitializedCenter
from .numerics import softmax


@dataclass
class OlpResult:
    loss: float
    q: np.ndarray                 # (m,) positive-pair probability per subgroup
    q_hat: np.ndarray             # (m, K) negative-pair probabilities, 0 where masked
    anchor_gradients: np.ndarray  # (m, dim) d(loss_i)/d(anchor_i), unaveraged
    hard_ranked: np.ndarray       # negative labels by descending anchor similarity


@dataclass
class LossBreakdown:
    det: float
    olp: float
    id_loss: float
    total: float


def olp_loss(anchors, positives, anchor_labels, negatives, negative_labels) -> OlpResult:
    """Softmax metric loss: each positive pair against the dictionary.

    Row i of anchors/positives is one subgroup. negatives is the whole
    dictionary in insertion order; its entries labeled anchor_labels[i]
    are masked out of row i (entries labeled -1 always qualify). Per
    subgroup the positive-pair similarity competes with every remaining
    negative-pair similarity in one softmax; the loss is the mean
    negative log of the positive share. The anchor gradient is
    (q - 1) * positive + sum_k q_hat_k * negative_k. hard_ranked lists the
    labels of every unmasked (subgroup, negative) similarity, highest
    first; ties keep subgroup, then dictionary, order.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    if len(anchors) == 0:
        raise EmptySubgroups("need at least one subgroup")
    negatives = np.reshape(negatives, (-1, anchors.shape[1]))
    negative_labels = np.asarray(negative_labels)
    keep = negative_labels[None, :] != np.asarray(anchor_labels)[:, None]
    sims = anchors @ negatives.T
    d_pos = np.einsum("ij,ij->i", anchors, positives)
    probs = softmax(np.column_stack([d_pos, np.where(keep, sims, -np.inf)]))
    q, q_hat = probs[:, 0], probs[:, 1:]
    grads = (q - 1.0)[:, None] * positives + q_hat @ negatives
    order = np.argsort(-sims[keep], kind="stable")
    ranked = np.broadcast_to(negative_labels, sims.shape)[keep][order]
    return OlpResult(loss=math.fsum(-np.log(q)) / len(anchors), q=q, q_hat=q_hat,
                     anchor_gradients=grads, hard_ranked=ranked)


def _pooled_cross_entropy(scores, pos, n):
    """Cross-entropy of score rows against column pos of each row, summed
    and divided by n; returns (loss, d loss / d scores)."""
    probs = softmax(scores)
    rows = np.arange(len(pos))
    loss = math.fsum(-np.log(probs[rows, pos])) / n
    probs[rows, pos] -= 1.0
    return loss, probs / n


def hep_loss(scores, labels, pool) -> tuple[float, np.ndarray]:
    """Cross-entropy over classifier score rows restricted to the pool, a
    sorted int array of class labels.

    Row i holds the C+1 scores (identities plus background) of a sample
    labeled labels[i]. Samples whose label is outside the pool contribute
    zero loss and zero gradient but still count in the normalization,
    which divides by the total sample count.
    """
    pooled = np.asarray(pool, dtype=np.int64)
    if pooled.size == 0:
        raise EmptyPool("priority pool is empty")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    grads = np.zeros_like(scores)
    inside = np.flatnonzero(np.isin(labels, pooled))
    if inside.size == 0:
        return 0.0, grads
    loss, sub_grads = _pooled_cross_entropy(
        scores[np.ix_(inside, pooled)], np.searchsorted(pooled, labels[inside]), len(labels))
    grads[np.ix_(inside, pooled)] = sub_grads
    return loss, grads


def c2hep_loss(
    features,
    labels,
    pool,
    table: ClassCenterTable,
    lam: float,
) -> tuple[float, np.ndarray]:
    """Center-based pooled softmax loss with temperature lam.

    Scores are lam * cosine(feature row, class center) over the pool
    classes (a sorted int array); cross-entropy against the row's own
    class. Pool classes whose center is still uninitialized are skipped
    (they have no score source yet); a sample whose own label lacks a
    center is an error. Gradients flow to features only; centers are
    constants here and update separately.
    """
    pooled = np.asarray(pool, dtype=np.int64)
    if pooled.size == 0:
        raise EmptyPool("priority pool is empty")
    pooled = pooled[(pooled >= 0) & (pooled < table.num_classes)]
    pooled = pooled[table.seen[pooled]]
    if pooled.size == 0:
        raise EmptyPool("no pooled class has an initialized center")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    missing = np.setdiff1d(labels, pooled)
    if missing.size:
        raise UninitializedCenter(f"sample label {missing[0]} not in pool")
    center_mat = table.centers[pooled]
    center_mat /= np.linalg.norm(center_mat, axis=1, keepdims=True)  # scores stay cosines
    loss, dscores = _pooled_cross_entropy(
        lam * (features @ center_mat.T), np.searchsorted(pooled, labels), len(labels))
    return loss, lam * (dscores @ center_mat)


def triplet_loss(features, labels, margin: float = 0.3) -> tuple[float, np.ndarray]:
    """Mean cosine hinge max(0, margin - d(a,p) + d(a,n)) over every
    in-batch triplet: anchor a labeled >= 0, positive p != a with a's
    label, negative n with any other label (-1 included). Returns
    (loss, feature gradients); (0, zeros) when no triplet exists."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    pos = same & (labels[:, None] >= 0) & ~np.eye(len(labels), dtype=bool)
    triplets = pos[:, :, None] & ~same[:, None, :]
    if not triplets.any():
        return 0.0, np.zeros_like(features)
    gram = features @ features.T
    hinge = margin - gram[:, :, None] + gram[:, None, :]
    n = int(triplets.sum())
    active = triplets & (hinge > 0.0)
    # d/d a = x_n - x_p, d/d p = -x_a, d/d n = x_a, per active triplet
    weight = active.sum(axis=1) - active.sum(axis=2)
    grads = (weight + weight.T) @ features / n
    return math.fsum(np.maximum(hinge[triplets], 0.0)) / n, grads


def contrastive_loss(features, labels, margin: float = 0.5) -> tuple[float, np.ndarray]:
    """In-batch contrastive loss over rows labeled >= 0: 1 - d for
    same-identity pairs, max(0, d - margin) for different ones.

    Positive and negative pairs are averaged separately so the few
    same-identity pairs are not drowned out by the quadratic number of
    different-identity pairs. Returns (loss, feature gradients).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    upper = np.triu(np.ones((len(labels), len(labels)), dtype=bool), 1)
    upper &= (labels[:, None] >= 0) & (labels[None, :] >= 0)
    same = labels[:, None] == labels[None, :]
    pos, neg = upper & same, upper & ~same
    gram = features @ features.T
    loss = 0.0
    weight = np.zeros_like(gram)  # d loss / d gram over pairs i < j
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos:
        loss += math.fsum(1.0 - gram[pos]) / n_pos
        weight -= pos / n_pos
    if n_neg:
        hinge = gram - margin
        loss += math.fsum(np.maximum(hinge[neg], 0.0)) / n_neg
        weight += (neg & (hinge > 0.0)) / n_neg
    return loss, (weight + weight.T) @ features


def combined_loss(det: float, olp: float, id_loss: float, hp: HyperParams) -> LossBreakdown:
    """Weighted total: det + alpha * metric loss + beta * identity loss."""
    total = det + hp.alpha * olp + hp.beta * id_loss
    return LossBreakdown(det=det, olp=olp, id_loss=id_loss, total=total)
