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


def build_subgroups(image_labels: list[np.ndarray]) -> np.ndarray:
    """(anchor, positive) row pairs of one iteration's subgroups, as an
    (m, 2) int array.

    image_labels holds one label array per image; images 2t and 2t+1
    form a pair, and rows count through all images in order. Every two
    distinct proposals of one pair sharing an identity label >= 0 yield
    two subgroups, each member anchoring once, ordered by pair, then by
    first and second member. Background (-2) and unlabeled (-1)
    proposals never pair.
    """
    if len(image_labels) % 2:
        raise InvalidParams(f"images must come in pairs, got {len(image_labels)}")
    subgroups = [np.zeros((0, 2), dtype=np.int64)]
    start = 0
    for first, second in zip(image_labels[::2], image_labels[1::2]):
        labels = np.concatenate([first, second])
        same = np.triu(labels[:, None] == labels[None, :], 1) & (labels[:, None] >= 0)
        pairs = np.argwhere(same) + start
        subgroups.append(np.stack([pairs, pairs[:, ::-1]], axis=1).reshape(-1, 2))
        start += labels.size
    return np.concatenate(subgroups)


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
    skipped. extra_labels (e.g. a background class index) are always
    included. If ground truth alone exceeds pool_size the pool keeps
    everything and may exceed the target; train() counts those
    iterations and logs them once per run.
    """
    for lab in gt_labels:
        if not (0 <= lab < num_classes):
            raise InvalidParams(f"ground-truth label {lab} outside [0, {num_classes})")
    pool = set(gt_labels) | set(extra_labels)
    target = min(pool_size, num_classes + len(extra_labels))
    taken = 0
    for lab in hard_negative_labels:
        if taken >= top_negatives or len(pool) >= target:
            break
        if lab < 0 or lab in pool:
            continue
        if lab >= num_classes:
            raise InvalidParams(f"hard-negative label {lab} outside [0, {num_classes})")
        pool.add(lab)
        taken += 1
    remaining = np.array(sorted(set(range(num_classes)) - pool), dtype=np.int64)
    need = target - len(pool)
    if need > 0 and remaining.size > 0:
        pool.update(rng.choice(remaining, size=min(need, remaining.size), replace=False).tolist())
    return np.array(sorted(pool), dtype=np.int64)
