"""Retrieval evaluation: ranking, average precision, CMC, and
gallery-size sweeps."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGallery, NoRelevant, SizeTooLarge

log = logging.getLogger(__name__)

QUERY_BLOCK = 32  # queries ranked per call: bounds the (queries, gallery) similarity block
HIT_BLOCK = 16  # relevant items ranked per pass: bounds the (hits, gallery) comparisons
TOP_KS = (1, 5, 10)  # the CMC top-k rates reported


def item_dtype(dim: int) -> np.dtype:
    """A retrieval item's record; it unpacks as a (feature, id) pair."""
    return np.dtype([("feat", np.float64, (dim,)), ("id", np.int64)])


@dataclass
class RetrievalSet:
    queries: np.ndarray  # record arrays of item_dtype
    gallery: np.ndarray


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


def hit_ranks(keys: np.ndarray, relevant: np.ndarray, within=None) -> list[np.ndarray]:
    """Per row of keys, the ascending 1-based ranks of its relevant columns (a
    boolean mask) in the row's stable ascending order, found without sorting:
    1 + the count of keys ahead (smaller, or equal at a lower column). No NaN.

    within, a (columns, galleries) 0/1 float matrix, ranks each hit inside
    several galleries that all hold every relevant column: a row's ranks are
    then (galleries, hits), each counting the keys ahead inside one gallery
    by one (hits, columns) @ within product, exact in float64."""
    rows, cols = np.nonzero(relevant)
    ranks = np.empty(np.shape(within)[1:] + rows.shape, rows.dtype)  # np.shape(None) is ()
    places = np.empty_like(rows)  # hits ahead in its row, the same in every gallery
    for s in range(0, len(rows), HIT_BLOCK):
        r, c = rows[s:s + HIT_BLOCK], cols[s:s + HIT_BLOCK]
        row_keys, key = keys[r], keys[r, c][:, None]
        ahead = (row_keys < key) | ((row_keys == key) & (np.arange(keys.shape[1]) < c[:, None]))
        ranks[..., s:s + HIT_BLOCK] = 1 + (np.count_nonzero(ahead, axis=1) if within is None
                                           else (ahead @ within).T)
        places[s:s + HIT_BLOCK] = np.count_nonzero(ahead & relevant[r], axis=1)
    ordered = np.empty_like(ranks)
    ordered[..., np.searchsorted(rows, rows) + places] = ranks
    return np.split(ordered, np.cumsum(np.count_nonzero(relevant, axis=1))[:-1], axis=-1)


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


def _evaluate(queries, gallery, within=None):
    """One (mAP, CMC) per gallery, from one Q_block @ G.T per block of
    answered queries, reading the records' fields in place: the whole
    gallery, or each column of hit_ranks' within."""
    relevant = queries["id"][:, None] == gallery["id"]
    answered = np.flatnonzero(relevant.any(axis=1))
    if len(answered) < len(queries):
        log.info("excluded %d queries with no relevant gallery item", len(queries) - len(answered))
    if not len(answered):
        raise NoRelevant("no query has a relevant gallery item")
    Q, G = queries["feat"], gallery["feat"]
    hits = []
    for start in range(0, len(answered), QUERY_BLOCK):
        block = answered[start:start + QUERY_BLOCK]
        hits += hit_ranks(np.negative(Q[block]) @ G.T, relevant[block], within)
    results = []
    for per_query in [hits] if within is None else zip(*hits):  # one gallery at a time
        first = np.array([h[0] for h in per_query])
        mAP = float(np.mean([ap_from_hit_ranks(h, len(h)) for h in per_query]))
        results.append((mAP, {k: float(np.mean(first <= k)) for k in TOP_KS}))
    return results


def evaluate_retrieval(rset: RetrievalSet):
    """mAP and CMC top-k rates (TOP_KS) over all queries with >= 1 relevant
    item; queries without any relevant gallery item are excluded and logged."""
    return _evaluate(rset.queries, rset.gallery)[0]


def gallery_sweep(rset: RetrievalSet, sizes, rng: np.random.Generator):
    """Evaluate at nested gallery sizes: keep every item relevant to some
    query, grow a shared, shuffled distractor prefix. Returns rows of
    (size, mAP, top1, top5, top10).

    Every size is checked before any is scored, and all are scored in one
    pass over the whole gallery, read in place: a column's depth is 0 for a
    kept item and 1 + its place in the distractor order otherwise, and size
    s holds the columns of depth <= s - kept. Sizes keep index order, so
    each row equals evaluating that sub-gallery on its own."""
    sizes = list(sizes)
    is_kept = np.isin(rset.gallery["id"], rset.queries["id"])
    n_kept = np.count_nonzero(is_kept)
    order = rng.permutation(len(is_kept) - n_kept)
    for size in sizes:
        if size > len(rset.gallery):
            raise SizeTooLarge(f"size {size} exceeds gallery {len(rset.gallery)}")
        if size < n_kept:
            raise SizeTooLarge(f"size {size} cannot hold the {n_kept} relevant items")
    depth = np.zeros(len(is_kept), dtype=np.int64)
    depth[np.flatnonzero(~is_kept)[order]] = np.arange(1, len(order) + 1)
    within = (depth[:, None] <= np.subtract(sizes, n_kept)).astype(np.float64)
    results = _evaluate(rset.queries, rset.gallery, within)
    return [(size, mAP, cmc[1], cmc[5], cmc[10]) for size, (mAP, cmc) in zip(sizes, results)]
