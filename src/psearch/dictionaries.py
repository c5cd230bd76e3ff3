"""Feature dictionary (FIFO negative store) and class-center table.

The feature dictionary keeps the most recent labeled features and serves
them as negatives across iterations. The center table keeps one running
center per identity, blended progressively and renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidLabel, InvalidParams
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
        # written so that NaN fails every comparison; inf fails the upper bounds
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise InvalidParams("alpha and beta must be finite and >= 0")
        if not 0 < self.lam < math.inf:
            raise InvalidParams("lambda must be finite and > 0")
        if not (0.0 < self.phi < 1.0):
            raise InvalidParams("phi must be in (0, 1)")
        if not self.pool_size >= 1:
            raise InvalidParams("pool_size must be >= 1")
        if not self.top_negatives >= 0:
            raise InvalidParams("top_negatives must be >= 0")
        if not (0.0 <= self.triplet_margin <= 2.0 and -1.0 <= self.contrastive_margin <= 1.0):
            raise InvalidParams("triplet_margin must be in [0, 2], contrastive_margin in [-1, 1]")


def _rows_for(labels: np.ndarray, features, dim: int) -> np.ndarray:
    """features as a float matrix with one row of width dim per label."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (labels.size, dim):
        raise DimensionMismatch(f"{labels.size} rows of width {dim} wanted, got {features.shape}")
    return features


class FeatureDictionary:
    """Fixed-capacity FIFO buffer of (feature, label) entries.

    Backed by a mirrored ring buffer: slot s is stored twice, at rows s
    and s + capacity, so the entries in insertion order are always one
    contiguous slice, read in place without a copy.
    """

    def __init__(self, capacity: int, dim: int):
        """The buffer of capacity rows of width dim is allocated now."""
        self.capacity = capacity
        self._feats = np.empty((2 * capacity, dim))
        self._labels = np.empty(2 * capacity, dtype=np.int64)
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
        features = _rows_for(labels, features, self._feats.shape[1])
        # of a push larger than the buffer only its last `capacity` rows survive
        slots = (self._pushed + np.arange(labels.size))[-self.capacity:] % self.capacity
        self._feats[slots] = self._feats[slots + self.capacity] = features[-self.capacity:]
        self._labels[slots] = self._labels[slots + self.capacity] = labels[-self.capacity:]
        self._pushed += labels.size

    def matrix(self):
        """Every entry in insertion order: (feature matrix, label array),
        read-only views of the buffer."""
        start = max(self._pushed - self.capacity, 0) % self.capacity
        feats, labels = self._feats[start:start + len(self)], self._labels[start:start + len(self)]
        feats.flags.writeable = labels.flags.writeable = False
        return feats, labels

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
    (num_classes, dim) matrix, allocated now, and a mask of the labels
    that have a center."""

    def __init__(self, num_classes: int, dim: int, phi: float = 0.5):
        self.num_classes = num_classes
        self.phi = phi
        self.centers = np.zeros((num_classes, dim))
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
        features = _rows_for(labels, features, self.centers.shape[1])
        if labels.size == 0:
            return 0
        # round r blends the r-th row of every label, so rows of one label go in row order
        order = labels.argsort(kind="stable")
        ordered = labels[order]
        occurrence = np.empty_like(order)
        occurrence[order] = np.arange(labels.size) - ordered.searchsorted(ordered)
        degenerate = 0
        for r in range(occurrence.max() + 1):
            rows = (occurrence == r).nonzero()[0]
            lab, x = labels[rows], features[rows]
            seen = self.seen[lab]
            raw = self.phi * self.centers[lab] + (1.0 - self.phi) * x
            if not seen.all():  # an unseen label installs its row as given
                raw[~seen] = x[~seen]
            norm = np.sqrt(np.einsum("ij,ij->i", raw, raw))
            ok = norm >= ZERO_NORM_EPS
            if not ok.all():  # a degenerate row leaves its label as it was
                degenerate += int(ok.size - np.count_nonzero(ok))
                lab, raw, norm = lab[ok], raw[ok], norm[ok]
            raw /= norm[:, None]
            self.centers[lab] = raw
            self.seen[lab] = True
        return degenerate
