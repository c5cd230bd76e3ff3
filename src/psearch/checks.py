"""Self-check suites: gradient cross-checks, brute-force retrieval
oracles, and randomized invariant sweeps. Used by the `check` CLI
subcommand and reused by the test suite.

Also holds scalar reference loops of the losses, one subgroup, sample,
triplet or pair at a time; the array losses in losses.py are tested
against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import ClassCenterTable, FeatureDictionary
from .evaluation import ap_from_hit_ranks, average_precision, cmc_topk, hit_ranks
from .losses import c2hep_loss, olp_loss
from .numerics import check_gradient, l2_normalize, make_rng, softmax
from .pairing import select_priority_pool


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def ap_oracle(ranked, relevant) -> float:
    """Brute-force AP: walk the ranking, recomputing precision from
    scratch at every relevant hit."""
    precisions = []
    for rank in range(1, len(ranked) + 1):
        idx = int(ranked[rank - 1])
        if idx in relevant:
            num_relevant_so_far = sum(
                1 for r in range(rank) if int(ranked[r]) in relevant
            )
            precisions.append(num_relevant_so_far / rank)
    return sum(precisions) / len(relevant)


def cmc_oracle(ranked, relevant, k) -> bool:
    found = False
    for r in range(min(k, len(ranked))):
        if int(ranked[r]) in relevant:
            found = True
    return found


def single_subgroup_olp(anchor, positive, negatives) -> float:
    """Direct evaluation of the one-subgroup metric loss, used as the
    finite-difference target for the analytic gradient."""
    d_pos = float(np.dot(anchor, positive))
    terms = [math.exp(d_pos)] + [math.exp(float(np.dot(anchor, n))) for n in negatives]
    return -math.log(math.exp(d_pos) / math.fsum(terms))


def olp_oracle(anchors, positives, anchor_labels, dictionary: FeatureDictionary):
    """Per-subgroup olp_loss: each subgroup copies its negatives out of
    the dictionary and runs its own softmax. Returns (loss, anchor
    gradients, hard ranking by a stable sort of (similarity, label))."""
    losses, grads, ranked = [], [], []
    for anchor, positive, label in zip(anchors, positives, anchor_labels):
        negs, neg_labels = dictionary.negatives(int(label))
        sims = [float(np.dot(anchor, n)) for n in negs]
        probs = softmax([float(np.dot(anchor, positive)), *sims])
        losses.append(-math.log(probs[0]))
        grad = (probs[0] - 1.0) * positive
        for n, p in zip(negs, probs[1:]):
            grad = grad + p * n
        grads.append(grad)
        ranked += zip(sims, neg_labels)
    ranked.sort(key=lambda t: -t[0])
    return math.fsum(losses) / len(losses), np.array(grads), [lab for _, lab in ranked]


def hep_oracle(scores, labels, pool):
    """Per-sample hep_loss; returns (loss, score gradient rows)."""
    pooled = sorted(pool.tolist())
    terms, grads = [], []
    for row, label in zip(scores, labels):
        grad = np.zeros(len(row))
        if label in pool:
            probs = softmax(np.asarray(row)[pooled])
            idx = pooled.index(label)
            terms.append(-math.log(probs[idx]))
            probs[idx] -= 1.0
            grad[pooled] = probs / len(labels)
        grads.append(grad)
    return math.fsum(terms) / len(labels), np.array(grads)


def c2hep_oracle(features, labels, pool, table: ClassCenterTable, lam: float):
    """Per-sample c2hep_loss; returns (loss, feature gradient rows)."""
    pooled = [lab for lab in sorted(pool.tolist())
              if 0 <= lab < table.num_classes and table.seen[lab]]
    centers = [l2_normalize(table.centers[lab]) for lab in pooled]
    terms, grads = [], []
    for x, label in zip(features, labels):
        probs = softmax([lam * float(np.dot(c, x)) for c in centers])
        idx = pooled.index(label)
        terms.append(-math.log(probs[idx]))
        probs[idx] -= 1.0
        grads.append(lam * sum(p * c for p, c in zip(probs, centers)) / len(labels))
    return math.fsum(terms) / len(labels), np.array(grads)


def triplet_oracle(features, labels, margin: float):
    """Per-triplet triplet_loss; returns (loss, feature gradient rows)."""
    rows = range(len(labels))
    terms, active = [], []
    for a in rows:
        for p in rows:
            if labels[a] < 0 or p == a or labels[p] != labels[a]:
                continue
            for n in rows:
                if labels[n] == labels[a]:
                    continue
                val = max(0.0, margin - float(np.dot(features[a], features[p]))
                          + float(np.dot(features[a], features[n])))
                terms.append(val)
                if val > 0.0:
                    active.append((a, p, n))
    grads = np.zeros((len(labels), np.shape(features)[-1]))
    for a, p, n in active:
        grads[a] += (features[n] - features[p]) / len(terms)
        grads[p] -= features[a] / len(terms)
        grads[n] += features[a] / len(terms)
    return (math.fsum(terms) / len(terms) if terms else 0.0), grads


def contrastive_oracle(features, labels, margin: float):
    """Per-pair contrastive_loss; returns (loss, feature gradient rows)."""
    labeled = [i for i in range(len(labels)) if labels[i] >= 0]
    pairs = list(itertools.combinations(labeled, 2))
    grads = np.zeros((len(labels), np.shape(features)[-1]))
    loss = 0.0
    for same in (True, False):
        chosen = [(i, j) for i, j in pairs if (labels[i] == labels[j]) == same]
        terms = []
        for i, j in chosen:
            d = float(np.dot(features[i], features[j]))
            terms.append(1.0 - d if same else max(0.0, d - margin))
            if same or d - margin > 0.0:
                sign = -1.0 if same else 1.0
                grads[i] += sign * features[j] / len(chosen)
                grads[j] += sign * features[i] / len(chosen)
        if chosen:
            loss += math.fsum(terms) / len(chosen)
    return loss, grads


def run_gradient_checks(trials: int = 100, seed: int = 12345) -> CheckResult:
    """Analytic anchor gradient vs central differences over random
    configurations (dimension 8..256, negatives 1..64)."""
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(8, 257))
        k = int(rng.integers(1, 65))
        anchor = l2_normalize(rng.normal(size=dim))
        positive = l2_normalize(rng.normal(size=dim))
        negatives = [l2_normalize(rng.normal(size=dim)) for _ in range(k)]
        result = olp_loss(anchor[None], positive[None], [0], np.array(negatives), [1] * k)
        err = check_gradient(
            lambda a: single_subgroup_olp(a, positive, negatives),
            anchor,
            result.anchor_gradients[0],
            h=1e-6,
        )
        worst = max(worst, err)
    return CheckResult(
        name="olp-gradient-vs-finite-differences",
        passed=worst < 1e-6,
        detail=f"max relative error {worst:.3e} over {trials} trials",
    )


def run_oracle_checks(max_gallery: int = 6) -> CheckResult:
    """Exhaustive AP/CMC agreement with the brute-force oracle over every
    relevance pattern for galleries up to max_gallery items, both from the
    full ranking and from the hit ranks that evaluation scores."""
    checked = 0
    for size in range(1, max_gallery + 1):
        keys = -(np.arange(size) // 2)  # tied in pairs; the stable order is not 0..size-1
        ranked = np.argsort(keys, kind="stable")
        for pattern in itertools.product([False, True], repeat=size):
            relevant = {i for i, rel in enumerate(pattern) if rel}
            if not relevant:
                continue
            hits = hit_ranks(keys[None], np.array([pattern]))[0]
            aps = (average_precision(ranked, relevant), ap_from_hit_ranks(hits, len(hits)))
            if max(abs(ap - ap_oracle(ranked, relevant)) for ap in aps) > 1e-12:
                return CheckResult("map-cmc-oracle", False,
                                   f"AP mismatch at size {size} pattern {pattern}")
            for k in range(1, size + 1):
                want = cmc_oracle(ranked, relevant, k)
                if not cmc_topk(ranked, relevant, k) == (hits[0] <= k) == want:
                    return CheckResult("map-cmc-oracle", False,
                                       f"CMC mismatch at size {size} k {k}")
            checked += 1
    return CheckResult("map-cmc-oracle", True,
                       f"{checked} relevance patterns, galleries <= {max_gallery}")


def run_invariant_checks(trials: int = 1000, seed: int = 777) -> list[CheckResult]:
    """Randomized invariant sweeps over the core primitives."""
    rng = make_rng(seed)
    results = []

    # softmax normalization: q + sum(q_hat) = 1
    worst = 0.0
    for _ in range(trials):
        scores = rng.uniform(-700, 700, size=int(rng.integers(1, 20)))
        worst = max(worst, abs(float(np.sum(softmax(scores))) - 1.0))
    results.append(CheckResult("softmax-normalization", worst <= 1e-12,
                               f"max |sum - 1| = {worst:.3e}"))

    # FIFO capacity bound and recency, pushed in batches of 0..9 rows
    ok = True
    for _ in range(trials):
        cap = int(rng.integers(1, 16))
        d = FeatureDictionary(cap)
        pushed = np.zeros((0, 4))
        for _ in range(int(rng.integers(0, 6))):
            batch = rng.normal(size=(int(rng.integers(0, 10)), 4))
            batch /= np.linalg.norm(batch, axis=1, keepdims=True)
            d.push(batch, rng.integers(-1, 5, size=len(batch)))
            pushed = np.concatenate([pushed, batch])
        n = len(pushed)
        if len(d) != min(cap, n) or not np.array_equal(d.matrix()[0].reshape(-1, 4),
                                                       pushed[n - len(d):]):
            ok = False
            break
    results.append(CheckResult("fifo-capacity-and-recency", ok, f"{trials} trials"))

    # priority pool size and forced membership
    ok = True
    for _ in range(trials):
        num_classes = int(rng.integers(2, 50))
        t_size = int(rng.integers(1, 30))
        gt = set(int(v) for v in rng.choice(num_classes,
                 size=int(rng.integers(0, min(5, num_classes) + 1)), replace=False))
        hard = [int(v) for v in rng.integers(-1, num_classes, size=6)]
        pool = select_priority_pool(gt, hard, t_size, 3, num_classes, rng)
        if not gt <= set(pool.tolist()):
            ok = False
            break
        expected = min(t_size, num_classes)
        if len(gt) <= t_size and len(pool) != expected:
            ok = False
            break
    results.append(CheckResult("priority-pool-rules", ok, f"{trials} trials"))

    # center-scale invariance of the center-based loss
    worst = 0.0
    for _ in range(trials // 10):
        dim = 8
        table = ClassCenterTable(num_classes=4)
        rows = rng.normal(size=(4, dim))
        table.update(np.arange(4), rows / np.linalg.norm(rows, axis=1, keepdims=True))
        x = l2_normalize(rng.normal(size=dim))
        pool = np.arange(4)
        base, _ = c2hep_loss(x[None], [2], pool, table, lam=10.0)
        table.centers[1] = table.centers[1] * 3.0
        scaled, _ = c2hep_loss(x[None], [2], pool, table, lam=10.0)
        worst = max(worst, abs(base - scaled))
    results.append(CheckResult("center-scale-invariance", worst <= 1e-9,
                               f"max |delta| = {worst:.3e}"))

    # AP never increases when a non-relevant distractor is inserted
    ok = True
    for _ in range(trials):
        size = int(rng.integers(2, 8))
        sims = rng.uniform(-1, 1, size=size)
        relevant = {i for i in range(size) if rng.random() < 0.5}
        if not relevant:
            relevant = {0}
        ranked = np.argsort(-sims, kind="stable")
        ap_before = average_precision(ranked, relevant)
        new_sim = rng.uniform(-1, 1)
        sims2 = np.append(sims, new_sim)
        ranked2 = np.argsort(-sims2, kind="stable")
        ap_after = average_precision(ranked2, relevant)
        if ap_after > ap_before + 1e-12:
            ok = False
            break
    results.append(CheckResult("ap-distractor-monotonicity", ok, f"{trials} trials"))
    return results


SUITES = {
    "gradients": lambda: [run_gradient_checks()],
    "oracles": lambda: [run_oracle_checks()],
    "invariants": run_invariant_checks,
}


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown check suite {suite!r}")
    return SUITES[suite]()
