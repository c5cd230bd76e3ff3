"""Loss functions: online-pairing metric loss, priority-class softmax
losses (classifier-score and class-center variants), combined objective,
and triplet/contrastive baselines for ablations.

All losses take unit-norm float64 features. Gradients are reported at
the normalized-feature level; stored dictionary features and class
centers are constants in every backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import ClassCenterTable, HyperParams
from .errors import EmptyPool, EmptySubgroups, UninitializedCenter
from .numerics import l2_normalize, softmax
from .pairing import PriorityPool, Subgroup


@dataclass
class OlpResult:
    loss: float
    q: list[float]                      # positive-pair probability per subgroup
    q_hat: list[np.ndarray]             # negative-pair probabilities per subgroup
    negative_sims: list[np.ndarray]     # anchor-negative cosines per subgroup
    anchor_gradients: list[np.ndarray]  # d(loss_i)/d(anchor_i), unaveraged


@dataclass
class ClassifierScores:
    scores: np.ndarray  # length C+1, identities plus background
    label: int


@dataclass
class LossBreakdown:
    det: float
    olp: float
    id_loss: float
    total: float


def olp_loss(subgroups: list[Subgroup]) -> OlpResult:
    """Softmax metric loss: one positive pair against K dictionary negatives.

    Per subgroup the positive-pair similarity competes with every
    negative-pair similarity in one softmax; the loss is the mean
    negative log of the positive share. The anchor gradient is
    (q - 1) * positive + sum_k q_hat_k * negative_k.
    """
    if not subgroups:
        raise EmptySubgroups("need at least one subgroup")
    losses = []
    qs: list[float] = []
    qhats: list[np.ndarray] = []
    neg_sims: list[np.ndarray] = []
    grads: list[np.ndarray] = []
    for sg in subgroups:
        d_pos = float(np.dot(sg.anchor, sg.positive))
        if len(sg.negatives):
            neg_mat = np.asarray(sg.negatives)
            d_negs = neg_mat @ sg.anchor
        else:
            neg_mat = np.zeros((0, sg.anchor.size))
            d_negs = np.zeros(0)
        probs = softmax(np.concatenate(([d_pos], d_negs)))
        q = float(probs[0])
        q_hat = probs[1:]
        losses.append(-math.log(q))
        grad = (q - 1.0) * sg.positive + neg_mat.T @ q_hat
        qs.append(q)
        qhats.append(q_hat)
        neg_sims.append(d_negs)
        grads.append(grad)
    loss = math.fsum(losses) / len(subgroups)
    return OlpResult(loss=loss, q=qs, q_hat=qhats, negative_sims=neg_sims,
                     anchor_gradients=grads)


def hep_loss(
    samples: list[ClassifierScores],
    pool: PriorityPool,
) -> tuple[float, list[np.ndarray]]:
    """Cross-entropy over classifier scores restricted to the pool classes.

    Samples whose label is outside the pool contribute zero loss and
    zero gradient but still count in the normalization, which divides
    by the total sample count.
    """
    if len(pool) == 0:
        raise EmptyPool("priority pool is empty")
    pooled = pool.sorted_labels()
    pos_of = {lab: i for i, lab in enumerate(pooled)}
    n = len(samples)
    terms = []
    grads = []
    for s in samples:
        grad = np.zeros_like(np.asarray(s.scores, dtype=np.float64))
        if s.label in pool:
            sub = np.asarray(s.scores, dtype=np.float64)[pooled]
            probs = softmax(sub)
            idx = pos_of[s.label]
            terms.append(-math.log(float(probs[idx])))
            sub_grad = probs.copy()
            sub_grad[idx] -= 1.0
            grad[pooled] = sub_grad / n
        grads.append(grad)
    loss = math.fsum(terms) / n if n else 0.0
    return loss, grads


def c2hep_loss(
    features: list[tuple[np.ndarray, int]],
    pool: PriorityPool,
    table: ClassCenterTable,
    lam: float,
) -> tuple[float, list[np.ndarray]]:
    """Center-based pooled softmax loss with temperature lam.

    Scores are lam * cosine(feature, class center) over the pool
    classes; cross-entropy against the sample's own class. Pool classes
    whose center is still uninitialized are skipped (they have no score
    source yet); a sample whose own label lacks a center is an error.
    Gradients flow to features only; centers are constants here and
    update separately.
    """
    if len(pool) == 0:
        raise EmptyPool("priority pool is empty")
    pooled = [lab for lab in pool.sorted_labels() if lab >= 0 and table.has(lab)]
    if not pooled:
        raise EmptyPool("no pooled class has an initialized center")
    center_mat = np.stack([l2_normalize(table.get(lab)) for lab in pooled])
    pos_of = {lab: i for i, lab in enumerate(pooled)}
    n = len(features)
    terms = []
    grads = []
    for x, label in features:
        if label not in pos_of:
            raise UninitializedCenter(f"sample label {label} not in pool")
        probs = softmax(lam * (center_mat @ x))
        idx = pos_of[label]
        terms.append(-math.log(float(probs[idx])))
        coeff = probs.copy()
        coeff[idx] -= 1.0
        grads.append(lam * (center_mat.T @ coeff) / n)
    return math.fsum(terms) / n, grads


def triplet_loss(a, p, n, margin: float = 0.3) -> float:
    """Cosine-similarity hinge: max(0, margin - d(a,p) + d(a,n))."""
    d_ap = float(np.dot(a, p))
    d_an = float(np.dot(a, n))
    return max(0.0, margin - d_ap + d_an)


def contrastive_loss(x1, x2, same_identity: bool, margin: float = 0.5) -> float:
    """Same identity: 1 - d; different: max(0, d - margin)."""
    d = float(np.dot(x1, x2))
    if same_identity:
        return 1.0 - d
    return max(0.0, d - margin)


def combined_loss(det: float, olp: float, id_loss: float, hp: HyperParams) -> LossBreakdown:
    """Weighted total: det + alpha * metric loss + beta * identity loss."""
    total = det + hp.alpha * olp + hp.beta * id_loss
    return LossBreakdown(det=det, olp=olp, id_loss=id_loss, total=total)
