"""Subgroup construction and priority-class pool selection.

A subgroup is one anchor, its positive partner (same identity), and all
eligible dictionary negatives. The priority pool is the set of class
labels used by the restricted-softmax identity losses: ground-truth
labels, the hardest negative classes, and random fill.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dictionaries import FeatureDictionary
from .errors import InvalidParams

log = logging.getLogger(__name__)


@dataclass
class Subgroup:
    anchor: np.ndarray
    positive: np.ndarray
    negatives: list[np.ndarray]
    anchor_label: int
    negative_labels: list[int]


@dataclass
class PriorityPool:
    labels: set[int]
    target_size: int

    def __contains__(self, label: int) -> bool:
        return label in self.labels

    def sorted_labels(self) -> list[int]:
        return sorted(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


def same_label_pairs(labels: list[int]) -> list[tuple[int, int]]:
    """Index pairs i < j of proposals sharing an identity label >= 0, in
    the order build_subgroups forms their subgroups."""
    return [(i, j) for i in range(len(labels)) if labels[i] >= 0
            for j in range(i + 1, len(labels)) if labels[j] == labels[i]]


def build_subgroups(
    batch: list[list[tuple[np.ndarray, int]]],
    dictionary: FeatureDictionary,
) -> list[Subgroup]:
    """Form symmetric subgroups from a two-image proposal batch.

    Every pair of distinct proposals sharing an identity label >= 0
    yields two subgroups (each member as anchor once). Background (-2)
    and unlabeled (-1) proposals never pair. Negatives come from the
    dictionary; same-label entries are excluded there.
    """
    if len(batch) != 2:
        raise InvalidParams(f"batch must hold exactly two images, got {len(batch)}")
    proposals = [p for image in batch for p in image]
    subgroups: list[Subgroup] = []
    neg_cache: dict[int, tuple] = {}
    for i, j in same_label_pairs([lab for _, lab in proposals]):
        (fi, label), (fj, _) = proposals[i], proposals[j]
        if label not in neg_cache:
            neg_cache[label] = dictionary.negatives(label)
        negs, neg_labels = neg_cache[label]
        subgroups.append(Subgroup(fi, fj, negs, label, neg_labels))
        subgroups.append(Subgroup(fj, fi, negs, label, neg_labels))
    return subgroups


def select_priority_pool(
    gt_labels: set[int],
    hard_negative_labels: list[int],
    pool_size: int,
    top_negatives: int,
    num_classes: int,
    rng: np.random.Generator,
    extra_labels: set[int] = frozenset(),
) -> PriorityPool:
    """Ground-truth labels + top-r hard negatives + random fill.

    hard_negative_labels must be ranked by descending cosine similarity
    to their anchors. Labels -1 in the ranking are skipped. extra_labels
    (e.g. a background class index) are always included. If ground truth
    alone exceeds pool_size the pool keeps everything and may exceed the
    target; the event is logged, never silently dropped.
    """
    for lab in gt_labels:
        if not (0 <= lab < num_classes):
            raise InvalidParams(f"ground-truth label {lab} outside [0, {num_classes})")
    pool = set(gt_labels) | set(extra_labels)
    target = min(pool_size, num_classes + len(extra_labels))
    if len(pool) > target:
        log.warning(
            "priority pool overfull: %d forced members exceed target %d",
            len(pool), target,
        )
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
        fill = rng.choice(remaining, size=min(need, remaining.size), replace=False)
        pool.update(int(v) for v in fill)
    return PriorityPool(labels=pool, target_size=pool_size)
