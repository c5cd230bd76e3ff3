"""Retrieval evaluation: ranking, average precision, CMC, and
gallery-size sweeps."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGallery, NoRelevant, SizeTooLarge

log = logging.getLogger(__name__)


@dataclass
class RetrievalSet:
    queries: list[tuple[np.ndarray, int]]
    gallery: list[tuple[np.ndarray, int]]


def rank_gallery(query: np.ndarray, gallery_feats) -> np.ndarray:
    """Gallery indices by descending cosine similarity; ties by index."""
    if len(gallery_feats) == 0:
        raise EmptyGallery("gallery is empty")
    return np.argsort(-(np.asarray(gallery_feats) @ query), kind="stable")


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
    aps = []
    topk_hits = {k: [] for k in ks}
    skipped = 0
    for qfeat, qid in rset.queries:
        relevant = set(np.flatnonzero(gallery_ids == qid).tolist())
        if not relevant:
            skipped += 1
            continue
        ranked = rank_gallery(qfeat, gallery_feats)
        aps.append(average_precision(ranked, relevant))
        for k in ks:
            topk_hits[k].append(cmc_topk(ranked, relevant, k))
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
