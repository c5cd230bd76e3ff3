"""Loss functions: online-pairing metric loss, priority-class softmax
losses (classifier-score and class-center variants), and
triplet/contrastive baselines for ablations.

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

from .dictionaries import ClassCenterTable
from .errors import DimensionMismatch, EmptyPool, EmptySubgroups, InvalidLabel, UninitializedCenter
from .numerics import softmax


@dataclass
class OlpResult:
    loss: float
    q: np.ndarray                 # (m,) positive-pair probability per subgroup
    q_hat: np.ndarray             # (m, K) negative-pair probabilities, 0 where masked
    anchor_gradients: np.ndarray  # (m, dim) d(loss_i)/d(anchor_i), unaveraged
    hard_ranked: np.ndarray       # distinct negative labels, hardest first


def olp_loss(anchors, positives, anchor_labels, negatives, negative_labels) -> OlpResult:
    """Softmax metric loss: each positive pair against the dictionary.

    Row i of anchors/positives is one subgroup. negatives is the whole
    dictionary; its entries labeled anchor_labels[i] are masked out of
    row i (entries labeled -1 always qualify). Per subgroup the
    positive-pair similarity competes with every remaining
    negative-pair similarity in one softmax; the loss is the mean
    negative log of the positive share. The anchor gradient is
    (q - 1) * positive + sum_k q_hat_k * negative_k. hard_ranked lists each
    distinct label of the unmasked (subgroup, negative) similarities once,
    by the label's highest such similarity, descending; equal ones go in
    label order. negative_labels must be >= -1 (InvalidLabel otherwise);
    the ranking's per-label table is sized by the largest of them.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    if len(anchors) == 0:
        raise EmptySubgroups("need at least one subgroup")
    negatives = np.reshape(negatives, (-1, anchors.shape[1]))
    negative_labels = np.asarray(negative_labels, dtype=np.int64)
    if negative_labels.min(initial=-1) < -1:
        raise InvalidLabel(f"negative label {negative_labels.min()} below -1")
    scores = np.empty((len(anchors), 1 + len(negatives)))
    np.einsum("ij,ij->i", anchors, positives, out=scores[:, 0])
    sims = np.matmul(anchors, negatives.T, out=scores[:, 1:])
    np.copyto(sims, -np.inf, where=negative_labels == np.asarray(anchor_labels)[:, None])
    probs = softmax(scores)
    q, q_hat = probs[:, 0], probs[:, 1:]
    grads = (q - 1.0)[:, None] * positives + q_hat @ negatives
    # each label's best unmasked similarity, indexed by label + 1; present is in label order
    lab = negative_labels + 1
    best = np.full(lab.max(initial=0) + 1, -np.inf)
    np.maximum.at(best, lab, sims.max(axis=0))
    present = (best > -np.inf).nonzero()[0]
    ranked = present[np.argsort(-best[present], kind="stable")] - 1
    return OlpResult(math.fsum(-np.log(q)) / len(anchors), q, q_hat, grads, ranked)


def _pooled_cross_entropy(scores, labels, pooled, missing_error):
    """Cross-entropy of score rows, one column per pooled class (a sorted
    int array), against the column of each row's label; the loss is the
    mean over rows. Returns (loss, d loss / d scores). A label that is not
    a pooled class raises missing_error, naming the smallest such label."""
    labels = np.asarray(labels)
    pos = pooled.searchsorted(labels)
    missing = labels[pooled[np.minimum(pos, pooled.size - 1)] != labels]
    if missing.size:
        raise missing_error(f"sample label {missing.min()} not in pool")
    probs = softmax(scores)
    rows = np.arange(len(pos))
    loss = math.fsum(-np.log(probs[rows, pos])) / len(pos)
    probs[rows, pos] -= 1.0
    return loss, probs / len(pos)


def hep_loss(scores, labels, pool) -> tuple[float, np.ndarray]:
    """Cross-entropy over classifier score rows, one column per class of
    the pool, a sorted int array of class labels (DimensionMismatch
    otherwise); classes outside the pool have no loss term.

    Row i holds the scores of a sample labeled labels[i]. Every label must
    be a pool class, as select_priority_pool guarantees for ground truth
    and the background class; InvalidLabel names the smallest one that is
    not. The loss is the mean over samples.
    """
    pooled = np.asarray(pool, dtype=np.int64)
    if pooled.size == 0:
        raise EmptyPool("priority pool is empty")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[1:] != pooled.shape:
        raise DimensionMismatch(f"score rows {scores.shape[1:]} for {pooled.size} pool classes")
    return _pooled_cross_entropy(scores, labels, pooled, InvalidLabel)


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
    centers = table.centers[pooled]
    # each score column is divided by its center's norm: lam * cosines, centers read as stored
    scale = lam / np.sqrt(np.einsum("ij,ij->i", centers, centers))
    scores = (np.asarray(features, dtype=np.float64) @ centers.T) * scale
    loss, dscores = _pooled_cross_entropy(scores, labels, pooled, UninitializedCenter)
    dscores *= scale
    return loss, dscores @ centers


def triplet_loss(features, labels, margin: float = 0.3) -> tuple[float, np.ndarray]:
    """Mean cosine hinge max(0, margin - d(a,p) + d(a,n)) over every
    in-batch triplet: anchor a labeled >= 0, positive p != a with a's
    label, negative n with any other label (-1 included). Returns
    (loss, feature gradients); (0, zeros) when no triplet exists."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    pos = same & (labels[:, None] >= 0)
    pos.flat[::len(labels) + 1] = False  # no row is its own positive
    triplets = pos[:, :, None] & ~same[:, None, :]
    n = int(np.count_nonzero(triplets))
    if not n:
        return 0.0, np.zeros(features.shape)
    gram = features @ features.T
    hinge = margin - gram[:, :, None] + gram[:, None, :]
    active = triplets & (hinge > 0.0)
    # d/d a = x_n - x_p, d/d p = -x_a, d/d n = x_a, per active triplet
    weight = np.add.reduce(active, axis=1) - np.add.reduce(active, axis=2)
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
