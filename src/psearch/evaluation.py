"""Retrieval evaluation: ranking, average precision, CMC, and
gallery-size sweeps."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGallery, NoRelevant, SizeTooLarge

log = logging.getLogger(__name__)

QUERY_BLOCK = 32  # queries ranked per call: bounds the (queries, gallery) similarity block


@dataclass
class RetrievalSet:
    queries: list[tuple[np.ndarray, int]]
    gallery: list[tuple[np.ndarray, int]]


def rank_gallery(query: np.ndarray, gallery_feats) -> np.ndarray:
    """Gallery indices by descending cosine similarity; ties by index.

    query is one feature vector, or a matrix with one query per row; a
    matrix gives one ranking per row, each equal to that row's
    single-query ranking.
    """
    if len(gallery_feats) == 0:
        raise EmptyGallery("gallery is empty")
    # negating the query is exact, and spares a negated copy of the similarities
    return np.argsort(np.negative(query) @ np.asarray(gallery_feats).T, axis=-1, kind="stable")


def average_precision(ranked: np.ndarray, relevant: set[int]) -> float:
    """Non-interpolated AP: mean of precision at each relevant hit."""
    if not relevant:
        raise NoRelevant("query has no relevant gallery items")
    hit_ranks = np.flatnonzero(np.isin(ranked, list(relevant), kind="sort")) + 1
    precisions = np.arange(1, len(hit_ranks) + 1) / hit_ranks
    return float(sum(precisions.tolist()) / len(relevant))


def cmc_topk(ranked: np.ndarray, relevant: set[int], k: int) -> bool:
    """True iff any relevant index appears within the first k ranks."""
    if not relevant:
        raise NoRelevant("query has no relevant gallery items")
    if k < 1:
        raise ValueError("k must be >= 1")
    return bool(np.isin(ranked[:k], list(relevant), kind="sort").any())


def evaluate_retrieval(rset: RetrievalSet, ks=(1, 5, 10)):
    """mAP and CMC top-k rates over all queries with >= 1 relevant item.

    Queries without any relevant gallery item are excluded and logged.
    """
    gallery_feats = np.array([g for g, _ in rset.gallery])
    gallery_ids = np.array([i for _, i in rset.gallery])
    relevant = [set(np.flatnonzero(gallery_ids == qid).tolist()) for _, qid in rset.queries]
    answered = [i for i, rel in enumerate(relevant) if rel]
    skipped = len(relevant) - len(answered)
    query_feats = np.array([rset.queries[i][0] for i in answered])
    aps = []
    topk_hits = {k: [] for k in ks}
    for start in range(0, len(answered), QUERY_BLOCK):
        block = answered[start:start + QUERY_BLOCK]
        ranks = rank_gallery(query_feats[start:start + QUERY_BLOCK], gallery_feats)
        for i, ranked in zip(block, ranks):
            aps.append(average_precision(ranked, relevant[i]))
            for k in ks:
                topk_hits[k].append(cmc_topk(ranked, relevant[i], k))
        del ranks, ranked  # one block's ranking alive at a time
    if skipped:
        log.info("excluded %d queries with no relevant gallery item", skipped)
    if not aps:
        raise NoRelevant("no query has a relevant gallery item")
    mAP = float(np.mean(aps))
    cmc = {k: float(np.mean(topk_hits[k])) for k in ks}
    return mAP, cmc


def gallery_sweep(rset: RetrievalSet, sizes, rng: np.random.Generator):
    """Evaluate at nested gallery sizes: keep every item relevant to some
    query, grow a shared, shuffled distractor prefix. Returns rows of
    (size, mAP, top1, top5, top10)."""
    query_ids = [qid for _, qid in rset.queries]
    is_kept = np.isin([gid for _, gid in rset.gallery], query_ids)
    kept, distractors = np.flatnonzero(is_kept), np.flatnonzero(~is_kept)
    order = rng.permutation(len(distractors))
    rows = []
    for size in sizes:
        if size > len(rset.gallery):
            raise SizeTooLarge(f"size {size} exceeds gallery {len(rset.gallery)}")
        if size < len(kept):
            raise SizeTooLarge(
                f"size {size} cannot hold the {len(kept)} relevant items"
            )
        chosen = np.concatenate([kept, distractors[order[: size - len(kept)]]])
        sub = RetrievalSet(
            queries=rset.queries,
            gallery=[rset.gallery[i] for i in np.sort(chosen)],
        )
        mAP, cmc = evaluate_retrieval(sub)
        rows.append((size, mAP, cmc[1], cmc[5], cmc[10]))
    return rows
