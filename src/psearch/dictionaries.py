"""Feature dictionary (FIFO negative store) and class-center table.

The feature dictionary keeps the most recent labeled features and serves
them as negatives across iterations. The center table keeps one running
center per identity, blended progressively and renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidLabel
from .numerics import ZERO_NORM_EPS

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
        if not (0.0 <= self.triplet_margin <= 2.0 and -1.0 <= self.contrastive_margin <= 1.0):
            raise ValueError("triplet_margin must be in [0, 2], contrastive_margin in [-1, 1]")


def _rows_for(labels: np.ndarray, features) -> np.ndarray:
    """features as a float matrix with one row per label."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or len(features) != labels.size:
        raise DimensionMismatch(f"{labels.size} labels but features of shape {features.shape}")
    return features


class FeatureDictionary:
    """Fixed-capacity FIFO buffer of (feature, label) entries.

    Backed by a ring buffer that each push writes in one assignment and
    that is read back as one stacked matrix; entries are always exposed
    in insertion order.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._feats: Optional[np.ndarray] = None  # (capacity, dim)
        self._labels = np.empty(capacity, dtype=np.int64)
        self._pushed = 0  # rows ever pushed; row t lives in slot t % capacity

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def push(self, features, labels) -> None:
        """Append one feature row per label, evicting the oldest entries
        when over capacity. Rows must be unit-norm; they are stored as
        given."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size == 0:
            return
        if labels.min() < LABEL_UNIDENTIFIED:
            raise InvalidLabel(f"label {labels.min()} not storable")
        features = _rows_for(labels, features)
        if self._feats is None:
            self._feats = np.empty((self.capacity, features.shape[1]))
        # of a push larger than the buffer only its last `capacity` rows survive
        slots = (self._pushed + np.arange(labels.size))[-self.capacity:] % self.capacity
        self._feats[slots] = features[-self.capacity:]
        self._labels[slots] = labels[-self.capacity:]
        self._pushed += labels.size

    def matrix(self):
        """Every entry in insertion order: (feature matrix, label array)."""
        if self._feats is None:
            return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        order = (max(self._pushed - self.capacity, 0) + np.arange(len(self))) % self.capacity
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


class ClassCenterTable:
    """Per-identity running centers, blended by phi and renormalized: one
    (num_classes, dim) matrix, allocated at the first update, and a mask
    of the labels that have a center."""

    def __init__(self, num_classes: int, phi: float = 0.5):
        if not (0.0 < phi < 1.0):
            raise ValueError("phi must be in (0, 1)")
        self.num_classes = num_classes
        self.phi = phi
        self.centers: Optional[np.ndarray] = None
        self.seen = np.zeros(num_classes, dtype=bool)

    def update(self, labels, features) -> int:
        """Blend each unit-norm feature row into its label's center, in row
        order, and renormalize.

        The first row of an unseen label installs it. A blend that cancels
        to (near) zero keeps the old center; returns how many rows did.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and not (labels.min() >= 0 and labels.max() < self.num_classes):
            raise InvalidLabel(f"labels {labels} outside [0, {self.num_classes})")
        features = _rows_for(labels, features)
        if self.centers is None:
            self.centers = np.zeros((self.num_classes, features.shape[1]))
        # round r blends the r-th row of every label, so rows of one label go in row order
        order = np.argsort(labels, kind="stable")
        occurrence = np.empty_like(order)
        occurrence[order] = np.arange(labels.size) - np.searchsorted(labels[order], labels[order])
        degenerate = 0
        for r in range(occurrence.max(initial=-1) + 1):
            rows = np.flatnonzero(occurrence == r)
            lab, x = labels[rows], features[rows]
            raw = np.where(self.seen[lab, None],
                           self.phi * self.centers[lab] + (1.0 - self.phi) * x, x)
            norm = np.sqrt(np.einsum("ij,ij->i", raw, raw))
            ok = norm >= ZERO_NORM_EPS
            self.centers[lab[ok]] = raw[ok] / norm[ok, None]
            self.seen[lab[ok]] = True
            degenerate += int(np.count_nonzero(~ok))
        return degenerate
