"""Subgroup construction and priority-class pool selection.

A subgroup is one anchor proposal and its positive partner (same
identity); the metric loss scores it against every dictionary entry of
another label. The priority pool is the set of class labels used by the
restricted-softmax identity losses: ground-truth labels, the hardest
negative classes, and random fill.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams


def build_subgroups(labels: np.ndarray) -> np.ndarray:
    """(anchor, positive) row pairs of one iteration's subgroups, as an
    (m, 2) int array.

    labels is the (images, proposals) label matrix; images 2t and 2t+1
    form a pair, and the returned rows index labels.ravel(). Every two
    distinct proposals of one pair sharing an identity label >= 0 yield
    two subgroups, each member anchoring once, ordered by pair, then by
    first and second member. Background (-2) and unlabeled (-1)
    proposals never pair.
    """
    if len(labels) % 2:
        raise InvalidParams(f"images must come in pairs, got {len(labels)}")
    flat = labels.ravel()
    pair = np.arange(flat.size) // (2 * labels.shape[1])
    same = (flat[:, None] == flat) & (pair[:, None] == pair) & (flat[:, None] >= 0)
    pairs = np.argwhere(np.triu(same, 1))
    return np.stack([pairs, pairs[:, ::-1]], axis=1).reshape(-1, 2)


def select_priority_pool(
    gt_labels,
    hard_negative_labels,
    pool_size: int,
    top_negatives: int,
    num_classes: int,
    rng: np.random.Generator,
    extra_labels: set[int] = frozenset(),
) -> np.ndarray:
    """Ground-truth labels + top-r hard negatives + random fill, as a
    sorted int array.

    hard_negative_labels must be ranked by descending cosine similarity
    to their anchors; only its head is read. Labels -1 in the ranking are
    skipped. extra_labels (non-negative, e.g. a background class index)
    are always included. If ground truth alone exceeds pool_size the pool keeps
    everything and may exceed the target; train() counts those
    iterations and logs them once per run.
    """
    gt = np.fromiter(gt_labels, dtype=np.int64)
    outside = gt[(gt < 0) | (gt >= num_classes)]
    if outside.size:
        raise InvalidParams(f"ground-truth label {outside[0]} outside [0, {num_classes})")
    # pool membership by label, extra labels past the classes included
    member = np.zeros(max(num_classes, max(extra_labels, default=-1) + 1), dtype=bool)
    member[gt] = True
    member[list(extra_labels)] = True
    size = int(np.count_nonzero(member))
    target = min(pool_size, num_classes + len(extra_labels))
    taken = 0
    for lab in hard_negative_labels:
        if taken >= top_negatives or size >= target:
            break
        if lab < 0 or (lab < member.size and member[lab]):
            continue
        if lab >= num_classes:
            raise InvalidParams(f"hard-negative label {lab} outside [0, {num_classes})")
        member[lab] = True
        size += 1
        taken += 1
    remaining = np.flatnonzero(~member[:num_classes])
    need = target - size
    if need > 0 and remaining.size > 0:
        member[rng.choice(remaining, size=min(need, remaining.size), replace=False)] = True
    return np.flatnonzero(member).astype(np.int64, copy=False)
