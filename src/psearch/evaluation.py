"""Retrieval evaluation: ranking, average precision, CMC, and
gallery-size sweeps."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EmptyGallery, NoRelevant, SizeTooLarge

log = logging.getLogger(__name__)

QUERY_BLOCK = 32  # queries ranked per call: bounds the (queries, gallery) similarity block
HIT_BLOCK = 16  # relevant items ranked per pass: bounds the (hits, gallery) comparisons
TOP_KS = (1, 5, 10)  # the CMC top-k rates reported


def item_dtype(dim: int) -> np.dtype:
    """A retrieval item's record; it unpacks as a (feature, id) pair."""
    return np.dtype([("feat", np.float64, (dim,)), ("id", np.int64)])


class HitTable(NamedTuple):
    """Every hit (relevant column) of some rows of keys, row after row, each
    row's hits in rank order."""

    ranks: np.ndarray  # each hit's 1-based rank in its row's stable ascending order
    ahead: np.ndarray  # the columns ranked ahead of each hit (rank - 1 of them), hit after hit
    counts: np.ndarray  # hits per row


@dataclass(frozen=True)
class RetrievalSet:
    """Queries and gallery as read-only record arrays of item_dtype, so the
    hit table scored from them on first use cannot go stale."""

    queries: np.ndarray
    gallery: np.ndarray

    def __post_init__(self):
        for name in ("queries", "gallery"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @cached_property
    def hits(self) -> HitTable:
        """The hits of every query with >= 1 relevant gallery item, from one
        Q_block @ G.T per block of such queries, reading the records' fields in
        place; queries without any relevant item are excluded and logged."""
        relevant = self.queries["id"][:, None] == self.gallery["id"]
        answered = np.flatnonzero(relevant.any(axis=1))
        if len(answered) < len(self.queries):
            log.info("excluded %d queries with no relevant gallery item",
                     len(self.queries) - len(answered))
        if not len(answered):
            raise NoRelevant("no query has a relevant gallery item")
        Q, G = self.queries["feat"], self.gallery["feat"]
        blocks = [hit_table(np.negative(Q[block]) @ G.T, relevant[block])
                  for block in np.split(answered, range(QUERY_BLOCK, len(answered), QUERY_BLOCK))]
        return HitTable(*map(np.concatenate, zip(*blocks)))


def rank_gallery(query: np.ndarray, gallery_feats) -> np.ndarray:
    """Gallery indices by descending cosine similarity; ties by index.

    query is one feature vector, or a matrix with one query per row; a
    matrix gives one ranking per row, each equal to that row's
    single-query ranking. The full-ranking definition, kept for the checks
    and the benchmark's tracer.
    """
    if len(gallery_feats) == 0:
        raise EmptyGallery("gallery is empty")
    # negating the query is exact, and spares a negated copy of the similarities
    return np.argsort(np.negative(query) @ np.asarray(gallery_feats).T, axis=-1, kind="stable")


def hit_table(keys: np.ndarray, relevant: np.ndarray) -> HitTable:
    """The hits of each row of keys, its relevant columns (a boolean mask),
    ranked in the row's stable ascending order without sorting it: a hit's
    rank is 1 + the count of keys ahead (smaller, or equal at a lower
    column). The columns ahead are kept in the narrowest type that holds a
    column index. No NaN."""
    rows, cols = np.nonzero(relevant)
    order = np.lexsort((cols, keys[rows, cols], rows))  # each row's hits in rank order
    rows, cols = rows[order], cols[order]
    columns = np.arange(keys.shape[1], dtype=np.min_scalar_type(keys.shape[1]))
    ranks, ahead = np.empty_like(rows), [columns[:0]]  # an empty part: rows may have no hit
    for s in range(0, len(rows), HIT_BLOCK):
        r, c = rows[s:s + HIT_BLOCK], cols[s:s + HIT_BLOCK]
        row_keys, key = keys[r], keys[r, c][:, None]
        is_ahead = (row_keys < key) | ((row_keys == key) & (columns < c[:, None]))
        ranks[s:s + HIT_BLOCK] = 1 + np.count_nonzero(is_ahead, axis=1)
        ahead.append(np.broadcast_to(columns, is_ahead.shape)[is_ahead])
    return HitTable(ranks, np.concatenate(ahead), np.count_nonzero(relevant, axis=1))


def ap_from_hit_ranks(hits: np.ndarray, num_relevant: int) -> float:
    """Non-interpolated AP from the ascending 1-based ranks of the hits:
    mean of precision at each relevant hit."""
    return float(sum((np.arange(1, len(hits) + 1) / hits).tolist()) / num_relevant)


def average_precision(ranked: np.ndarray, relevant: set[int]) -> float:
    """AP of a full ranking: the full-ranking definition, kept for the
    checks and the benchmark's tracer."""
    if not relevant:
        raise NoRelevant("query has no relevant gallery items")
    hits = np.flatnonzero(np.isin(ranked, list(relevant), kind="sort")) + 1
    return ap_from_hit_ranks(hits, len(relevant))


def cmc_topk(ranked: np.ndarray, relevant: set[int], k: int) -> bool:
    """True iff any relevant index appears within the first k ranks: the
    full-ranking definition, kept for the checks and the benchmark's tracer."""
    if not relevant:
        raise NoRelevant("query has no relevant gallery items")
    if k < 1:
        raise ValueError("k must be >= 1")
    return bool(np.isin(ranked[:k], list(relevant), kind="sort").any())


def _score(ranks: np.ndarray, counts: np.ndarray):
    """mAP and CMC top-k rates (TOP_KS) from the ascending hit ranks of
    every answered query, query after query, counts[i] hits for query i."""
    ends = np.cumsum(counts)
    starts = ends - counts
    mAP = float(np.mean([ap_from_hit_ranks(ranks[a:b], b - a)
                         for a, b in zip(starts.tolist(), ends.tolist())]))
    first = ranks[starts]
    return mAP, {k: float(np.mean(first <= k)) for k in TOP_KS}


def evaluate_retrieval(rset: RetrievalSet):
    """mAP and CMC top-k rates (TOP_KS) over all queries with >= 1 relevant
    item; queries without any relevant gallery item are excluded and logged."""
    return _score(rset.hits.ranks, rset.hits.counts)


def gallery_sweep(rset: RetrievalSet, sizes, rng: np.random.Generator):
    """Evaluate at nested gallery sizes: keep every item relevant to some
    query, grow a shared, shuffled distractor prefix. Returns rows of
    (size, mAP, top1, top5, top10).

    Every size is checked before any is scored, and all are scored from the
    set's hit table: a column's depth is 0 for a kept item and 1 + its place
    in the distractor order otherwise, size s holds the columns of depth
    <= s - kept, and a hit's rank in it is 1 + the count of its columns ahead
    that size s holds. Sizes keep index order, so each row equals evaluating
    that sub-gallery on its own."""
    sizes = list(sizes)
    is_kept = np.isin(rset.gallery["id"], rset.queries["id"])
    n_kept = np.count_nonzero(is_kept)
    order = rng.permutation(len(is_kept) - n_kept)
    for size in sizes:
        if size > len(rset.gallery):
            raise SizeTooLarge(f"size {size} exceeds gallery {len(rset.gallery)}")
        if size < n_kept:
            raise SizeTooLarge(f"size {size} cannot hold the {n_kept} relevant items")
    ranks, ahead, counts = rset.hits
    depth = np.zeros(len(is_kept), ahead.dtype)
    depth[np.flatnonzero(~is_kept)[order]] = np.arange(1, len(order) + 1)
    ends = np.cumsum(ranks - 1)  # each hit's columns ahead are ahead[ends - ranks + 1:ends]
    # a running count of the columns held, in ahead's type: it may wrap around,
    # but one hit's count, below the gallery length, is its two ends' difference
    held = np.zeros(len(ahead) + 1, ahead.dtype)
    rows = []
    for size in sizes:
        np.cumsum((depth <= size - n_kept)[ahead], dtype=held.dtype, out=held[1:])
        mAP, cmc = _score(1 + (held[ends] - held[ends - ranks + 1]), counts)
        rows.append((size, mAP, cmc[1], cmc[5], cmc[10]))
    return rows
