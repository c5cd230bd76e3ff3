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


@dataclass
class RetrievalSet:
    queries: list[tuple[np.ndarray, int]]
    gallery: list[tuple[np.ndarray, int]]


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


def hit_ranks(keys: np.ndarray, relevant: np.ndarray) -> list[np.ndarray]:
    """Per row of keys, the ascending 1-based ranks of its relevant columns (a
    boolean mask) in the row's stable ascending order, found without sorting:
    1 + the count of keys ahead (smaller, or equal at a lower column). No NaN."""
    rows, cols = np.nonzero(relevant)
    ranks, places = np.empty_like(rows), np.empty_like(rows)  # place: hits ahead in its row
    for s in range(0, len(rows), HIT_BLOCK):
        r, c = rows[s:s + HIT_BLOCK], cols[s:s + HIT_BLOCK]
        row_keys, key = keys[r], keys[r, c][:, None]
        ahead = (row_keys < key) | ((row_keys == key) & (np.arange(keys.shape[1]) < c[:, None]))
        ranks[s:s + HIT_BLOCK] = 1 + np.count_nonzero(ahead, axis=1)
        places[s:s + HIT_BLOCK] = np.count_nonzero(ahead & relevant[r], axis=1)
    ordered = np.empty_like(ranks)
    ordered[np.searchsorted(rows, rows) + places] = ranks
    return np.split(ordered, np.cumsum(np.count_nonzero(relevant, axis=1))[:-1])


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


def _stack(pairs):
    return np.array([f for f, _ in pairs]), np.array([i for _, i in pairs])


def _evaluate(Q, qids, G, gids, ks):
    """mAP and CMC from one Q_block @ G.T per block of answered queries."""
    relevant = qids[:, None] == gids
    answered = np.flatnonzero(relevant.any(axis=1))
    if len(answered) < len(qids):
        log.info("excluded %d queries with no relevant gallery item", len(qids) - len(answered))
    if not len(answered):
        raise NoRelevant("no query has a relevant gallery item")
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    hits = []
    for start in range(0, len(answered), QUERY_BLOCK):
        block = answered[start:start + QUERY_BLOCK]
        hits += hit_ranks(np.negative(Q[block]) @ G.T, relevant[block])
    first = np.array([h[0] for h in hits])
    mAP = float(np.mean([ap_from_hit_ranks(h, len(h)) for h in hits]))
    return mAP, {k: float(np.mean(first <= k)) for k in ks}


def evaluate_retrieval(rset: RetrievalSet, ks=(1, 5, 10)):
    """mAP and CMC top-k rates over all queries with >= 1 relevant item;
    queries without any relevant gallery item are excluded and logged."""
    return _evaluate(*_stack(rset.queries), *_stack(rset.gallery), ks)


def gallery_sweep(rset: RetrievalSet, sizes, rng: np.random.Generator):
    """Evaluate at nested gallery sizes: keep every item relevant to some
    query, grow a shared, shuffled distractor prefix. Returns rows of
    (size, mAP, top1, top5, top10). Each size stacks its own sub-gallery,
    freed before the next, so one gallery matrix is alive at a time."""
    Q, qids = _stack(rset.queries)
    is_kept = np.isin([gid for _, gid in rset.gallery], qids)
    kept, distractors = np.flatnonzero(is_kept), np.flatnonzero(~is_kept)
    order = rng.permutation(len(distractors))
    rows = []
    for size in sizes:
        if size > len(rset.gallery):
            raise SizeTooLarge(f"size {size} exceeds gallery {len(rset.gallery)}")
        if size < len(kept):
            raise SizeTooLarge(f"size {size} cannot hold the {len(kept)} relevant items")
        chosen = np.sort(np.concatenate([kept, distractors[order[: size - len(kept)]]]))
        mAP, cmc = _evaluate(Q, qids, *_stack([rset.gallery[i] for i in chosen]), (1, 5, 10))
        rows.append((size, mAP, cmc[1], cmc[5], cmc[10]))
    return rows
