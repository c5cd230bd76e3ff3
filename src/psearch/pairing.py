"""Subgroup construction and priority-class pool selection.

A subgroup is one anchor proposal and its positive partner (same
identity); the metric loss scores it against every dictionary entry of
another label. The priority pool is the set of class labels used by the
restricted-softmax identity losses: ground-truth labels, the hardest
negative classes, and random fill.
"""

from __future__ import annotations

import numpy as np

from .dictionaries import int_labels
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
    width = 2 * labels.shape[1]
    rows = labels.reshape(len(labels) // 2, width, 1)  # one column of labels per pair
    col = np.arange(width)
    # members i < j of pair t with one identity label, in (t, i, j) order
    t, i, j = ((rows == rows.transpose(0, 2, 1)) & (rows >= 0) & (col[:, None] < col)).nonzero()
    first, second = t * width + i, t * width + j
    return np.array([first, second, second, first]).T.reshape(-1, 2)


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
    skipped; every other label must lie in [0, num_classes), as olp_loss's
    ranking of dictionary labels does. A label of any of the three kinds
    that is not an integer raises InvalidLabel before any draw. extra_labels
    (non-negative, e.g. a background class) are always included. If ground
    truth alone exceeds pool_size the pool keeps everything and may exceed
    the target; train() counts those iterations and logs them once per run.
    """
    gt = int_labels(gt_labels if isinstance(gt_labels, np.ndarray) else list(gt_labels))
    extras = int_labels(list(extra_labels)).tolist() if extra_labels else []
    if np.minimum.reduce(gt, initial=0) < 0 or np.maximum.reduce(gt, initial=-1) >= num_classes:
        outside = gt[(gt < 0) | (gt >= num_classes)]
        raise InvalidParams(f"ground-truth label {outside[0]} outside [0, {num_classes})")
    # pool membership by label, extra labels past the classes included
    member = np.zeros(max(num_classes, max(extras, default=-1) + 1), dtype=bool)
    member[gt] = True
    if extras:
        member[extras] = True
    size = int(np.add.reduce(member))
    target = min(pool_size, num_classes + len(extras))
    stop = min(target, size + top_negatives)  # at most top_negatives hard negatives
    for lab in int_labels(hard_negative_labels).tolist():
        if size >= stop:
            break
        if lab < 0 or (lab < member.size and member[lab]):
            continue
        member[lab] = True
        size += 1
    remaining = (~member[:num_classes]).nonzero()[0]
    need = target - size
    if need > 0 and remaining.size > 0:
        picked = rng.choice(remaining.size, size=min(need, remaining.size), replace=False)
        member[remaining[picked]] = True
    return member.nonzero()[0]
