"""Feature dictionary (FIFO negative store) and class-center table.

The feature dictionary keeps the most recent labeled features and serves
them as negatives across iterations. The center table keeps one running
center per identity, blended progressively and renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateUpdate, InvalidLabel
from .numerics import ZERO_NORM_EPS, l2_normalize

LABEL_UNIDENTIFIED = -1  # person without identity annotation
LABEL_BACKGROUND = -2    # never stored in any dictionary


@dataclass
class HyperParams:
    alpha: float = 1.0
    beta: float = 1.0
    lam: float = 10.0
    phi: float = 0.5
    pool_size: int = 100       # T
    top_negatives: int = 10    # r
    triplet_margin: float = 0.3
    contrastive_margin: float = 0.5

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ValueError("alpha and beta must be >= 0")
        if not self.lam > 0:
            raise ValueError("lambda must be > 0")
        if not (0.0 < self.phi < 1.0):
            raise ValueError("phi must be in (0, 1)")
        if not self.pool_size >= 1:
            raise ValueError("pool_size must be >= 1")
        if not self.top_negatives >= 0:
            raise ValueError("top_negatives must be >= 0")


class FeatureDictionary:
    """Fixed-capacity FIFO buffer of (feature, label) entries.

    Backed by a ring buffer that is read back as one stacked matrix;
    entries are always exposed in insertion order.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._feats: Optional[np.ndarray] = None  # (capacity, dim)
        self._labels = np.empty(capacity, dtype=np.int64)
        self._size = 0
        self._head = 0  # slot of the oldest entry once full

    def __len__(self) -> int:
        return self._size

    def _order(self) -> np.ndarray:
        """Ring slots in insertion order."""
        if self._size < self.capacity:
            return np.arange(self._size)
        return np.concatenate([np.arange(self._head, self.capacity),
                               np.arange(self._head)])

    def push(self, feature, label: int) -> None:
        """Append an entry, evicting the oldest when over capacity."""
        if label < LABEL_UNIDENTIFIED:
            raise InvalidLabel(f"label {label} not storable")
        feat = l2_normalize(feature)
        if self._feats is None:
            self._feats = np.empty((self.capacity, feat.size))
        if self._size < self.capacity:
            slot = self._size
            self._size += 1
        else:
            slot = self._head
            self._head = (self._head + 1) % self.capacity
        self._feats[slot] = feat
        self._labels[slot] = int(label)

    def matrix(self):
        """Every entry in insertion order: (feature matrix, label array)."""
        if self._size == 0:
            return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        order = self._order()
        return self._feats[order], self._labels[order]

    def negatives(self, anchor_label: int):
        """Features of entries whose label differs from anchor_label.

        Entries labeled -1 always qualify. Insertion order preserved.
        Returns (feature matrix, label list).
        """
        if anchor_label < 0:
            raise InvalidLabel("anchor must carry an identity label")
        feats, labels = self.matrix()
        keep = labels != anchor_label
        return feats[keep], labels[keep].tolist()


@dataclass
class ClassCenterTable:
    """Per-identity running centers, blended by phi and renormalized."""

    num_classes: int
    phi: float = 0.5
    centers: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.phi < 1.0):
            raise ValueError("phi must be in (0, 1)")

    @property
    def observed(self) -> set[int]:
        return set(self.centers)

    def has(self, label: int) -> bool:
        return label in self.centers

    def get(self, label: int) -> np.ndarray:
        return self.centers[label]

    def update(self, label: int, x) -> None:
        """Blend x into the stored center and renormalize.

        First observation of a label installs x directly. A blend that
        cancels to (near) zero keeps the old center and raises
        DegenerateUpdate so the caller can log the event.
        """
        if not (0 <= label < self.num_classes):
            raise InvalidLabel(f"label {label} outside [0, {self.num_classes})")
        x = l2_normalize(x)
        if label not in self.centers:
            self.centers[label] = x
            return
        raw = self.phi * self.centers[label] + (1.0 - self.phi) * x
        if float(np.linalg.norm(raw)) < ZERO_NORM_EPS:
            raise DegenerateUpdate(f"center update for label {label} cancelled")
        self.centers[label] = l2_normalize(raw)
