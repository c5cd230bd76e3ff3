import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from psearch.checks import ap_oracle, cmc_oracle
from psearch.config import ExperimentConfig
from psearch.errors import EmptyGallery, NoRelevant, SizeTooLarge
from psearch.evaluation import (
    QUERY_BLOCK,
    RetrievalSet,
    average_precision,
    cmc_topk,
    evaluate_retrieval,
    gallery_sweep,
    hit_ranks,
    rank_gallery,
)
from psearch.numerics import l2_normalize, make_rng
from psearch.runner import EVAL_SEED_OFFSET, build_retrieval_set
from psearch.simulator import ToyEncoder, generate_world


def unit(*comps):
    return l2_normalize(np.array(comps, dtype=float))


def random_retrieval_set(rng, num_ids, per_id, distractors, dim=8):
    queries = []
    gallery = []
    for ident in range(num_ids):
        base = l2_normalize(rng.normal(size=dim))
        queries.append((l2_normalize(base + 0.3 * rng.normal(size=dim)), ident))
        for _ in range(per_id):
            gallery.append((l2_normalize(base + 0.3 * rng.normal(size=dim)), ident))
    for d in range(distractors):
        gallery.append((l2_normalize(rng.normal(size=dim)), -1000 - d))
    return RetrievalSet(queries=queries, gallery=gallery)


class TestRankGallery:
    def test_descending_similarity(self):
        q = unit(1, 0)
        gallery = [unit(0, 1), unit(1, 0), unit(1, 1)]
        assert rank_gallery(q, gallery).tolist() == [1, 2, 0]

    def test_tie_break_by_index(self):
        q = unit(1, 0)
        gallery = [unit(0, 1), unit(0, 1), unit(0, 1)]
        assert rank_gallery(q, gallery).tolist() == [0, 1, 2]

    def test_empty_gallery(self):
        with pytest.raises(EmptyGallery):
            rank_gallery(unit(1, 0), [])


class TestAveragePrecision:
    def test_frozen_value(self):
        # relevant at ranks 1 and 3: (1/1 + 2/3) / 2, verified by hand
        ranked = np.array([4, 1, 7, 2])
        assert average_precision(ranked, {4, 7}) == pytest.approx(
            0.8333333333333333, abs=1e-15
        )

    def test_perfect(self):
        assert average_precision(np.array([0, 1, 2]), {0, 1}) == 1.0

    def test_worst_case(self):
        assert average_precision(np.array([0, 1, 2]), {2}) == pytest.approx(1 / 3)

    def test_no_relevant(self):
        with pytest.raises(NoRelevant):
            average_precision(np.array([0, 1]), set())


class TestCmcTopk:
    def test_hit_and_miss(self):
        ranked = np.array([5, 3, 1])
        assert cmc_topk(ranked, {3}, 2)
        assert not cmc_topk(ranked, {1}, 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            cmc_topk(np.array([0]), {0}, 0)


class TestHitRanks:
    def test_ties_at_relevant_items_rank_by_column(self):
        keys = np.array([[0.0, 0.0, -1.0, 0.0], [2.0, 1.0, 1.0, 1.0]])
        relevant = np.array([[False, True, False, True], [True, False, True, False]])
        got = hit_ranks(keys, relevant)
        assert [h.tolist() for h in got] == [[3, 4], [2, 4]]


class TestEvaluateRetrieval:
    def test_empty_gallery(self):
        with pytest.raises(NoRelevant):
            evaluate_retrieval(RetrievalSet(queries=[(unit(1, 0), 0)], gallery=[]))

    def test_perfect_separation(self):
        rset = RetrievalSet(
            queries=[(unit(1, 0, 0), 0), (unit(0, 1, 0), 1)],
            gallery=[(unit(1, 0, 0), 0), (unit(0, 1, 0), 1), (unit(0, 0, 1), 2)],
        )
        mAP, cmc = evaluate_retrieval(rset)
        assert mAP == 1.0
        assert cmc[1] == 1.0 and cmc[5] == 1.0 and cmc[10] == 1.0

    def test_queries_without_relevant_excluded(self, caplog):
        rset = RetrievalSet(
            queries=[(unit(1, 0), 0), (unit(0, 1), 99)],
            gallery=[(unit(1, 0), 0), (unit(0, 1), 1)],
        )
        mAP, _ = evaluate_retrieval(rset)
        assert mAP == 1.0  # the orphan query does not drag the mean

    def test_all_queries_orphaned(self):
        rset = RetrievalSet(
            queries=[(unit(1, 0), 42)],
            gallery=[(unit(1, 0), 0)],
        )
        with pytest.raises(NoRelevant):
            evaluate_retrieval(rset)

    def test_known_mixed_case(self):
        # query 0 ranks its match second behind a distractor: AP 1/2
        rset = RetrievalSet(
            queries=[(unit(1, 0), 0)],
            gallery=[(unit(1, 0), -5), (unit(1, 0.5), 0)],
        )
        mAP, cmc = evaluate_retrieval(rset)
        assert mAP == pytest.approx(0.5)
        assert cmc[1] == 0.0 and cmc[5] == 1.0


class TestGallerySweep:
    def test_relevants_always_kept_and_monotone(self):
        rng = make_rng(0)
        rset = random_retrieval_set(rng, num_ids=6, per_id=2, distractors=40)
        rows = gallery_sweep(rset, [12, 22, 32, 52], make_rng(1))
        sizes = [r[0] for r in rows]
        maps = [r[1] for r in rows]
        assert sizes == [12, 22, 32, 52]
        assert all(maps[i] >= maps[i + 1] - 1e-12 for i in range(len(maps) - 1))

    def test_deterministic(self):
        rng = make_rng(3)
        rset = random_retrieval_set(rng, 4, 2, 20)
        r1 = gallery_sweep(rset, [10, 20], make_rng(9))
        r2 = gallery_sweep(rset, [10, 20], make_rng(9))
        assert r1 == r2

    def test_nested_distractor_prefix(self):
        # the smaller gallery must be a subset of the larger one
        rng = make_rng(5)
        rset = random_retrieval_set(rng, 3, 1, 15)
        full = gallery_sweep(rset, [6, 10], make_rng(2))
        assert len(full) == 2

    def test_size_exceeds_gallery(self):
        rng = make_rng(1)
        rset = random_retrieval_set(rng, 2, 1, 3)
        with pytest.raises(SizeTooLarge):
            gallery_sweep(rset, [99], make_rng(0))

    def test_size_below_relevant_count(self):
        rng = make_rng(1)
        rset = random_retrieval_set(rng, 4, 2, 3)
        with pytest.raises(SizeTooLarge):
            gallery_sweep(rset, [2], make_rng(0))


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_ap_monotone_under_added_distractors(seed):
    rng = make_rng(seed)
    dim = 6
    q = l2_normalize(rng.normal(size=dim))
    gallery = [l2_normalize(rng.normal(size=dim)) for _ in range(8)]
    relevant = {0, 3}
    base = average_precision(rank_gallery(q, gallery), relevant)
    bigger = gallery + [l2_normalize(rng.normal(size=dim)) for _ in range(4)]
    grown = average_precision(rank_gallery(q, bigger), relevant)
    assert grown <= base + 1e-12


def brute_force_evaluation(rset, ks=(1, 5, 10)):
    """Per-query reference: one float(np.dot) per gallery item, a stable
    sort, and the checks oracles for AP and CMC."""
    aps, topk_hits = [], {k: [] for k in ks}
    for qfeat, qid in rset.queries:
        relevant = {i for i, (_, gid) in enumerate(rset.gallery) if gid == qid}
        if not relevant:
            continue
        sims = [float(np.dot(qfeat, g)) for g, _ in rset.gallery]
        ranked = sorted(range(len(sims)), key=lambda i: -sims[i])
        aps.append(ap_oracle(ranked, relevant))
        for k in ks:
            topk_hits[k].append(cmc_oracle(ranked, relevant, k))
    return float(np.mean(aps)), {k: float(np.mean(v)) for k, v in topk_hits.items()}


@st.composite
def tied_retrieval_sets(draw):
    """Small-integer features, so every similarity is exact: gallery rows
    are drawn from a few distinct vectors (exact ties), and query id 4
    never occurs in the gallery (an orphan query)."""
    dim = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(
        lambda v: np.array(v, dtype=float))
    rows = draw(st.lists(vec, min_size=1, max_size=4))
    gallery = draw(st.lists(st.tuples(st.sampled_from(rows), st.integers(-2, 3)),
                            min_size=1, max_size=12))
    # more queries than one ranking block holds, at times
    n_queries = draw(st.one_of(st.integers(1, 5), st.integers(QUERY_BLOCK + 1, 2 * QUERY_BLOCK + 3)))
    queries = draw(st.lists(st.tuples(vec, st.integers(0, 4)),
                            min_size=n_queries, max_size=n_queries))
    return RetrievalSet(queries=queries, gallery=gallery)


@given(rset=tied_retrieval_sets(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_array_evaluation_matches_brute_force_oracles(rset, seed):
    query_ids = {qid for _, qid in rset.queries}
    kept = [i for i, (_, gid) in enumerate(rset.gallery) if gid in query_ids]
    distractors = [i for i, (_, gid) in enumerate(rset.gallery) if gid not in query_ids]
    assume(kept)
    mAP, cmc = evaluate_retrieval(rset)
    ref_map, ref_cmc = brute_force_evaluation(rset)
    assert abs(mAP - ref_map) <= 1e-12
    assert cmc == ref_cmc

    sizes = list(range(len(kept), len(rset.gallery) + 1))
    rows = gallery_sweep(rset, sizes, make_rng(seed))
    order = make_rng(seed).permutation(len(distractors))
    for size, (row_size, row_map, *row_cmc) in zip(sizes, rows, strict=True):
        chosen = sorted(kept + [distractors[j] for j in order[: size - len(kept)]])
        sub = RetrievalSet(rset.queries, [rset.gallery[i] for i in chosen])
        ref_map, ref_cmc = brute_force_evaluation(sub)
        assert row_size == size
        assert abs(row_map - ref_map) <= 1e-12
        assert row_cmc == [ref_cmc[1], ref_cmc[5], ref_cmc[10]]


@given(rset=tied_retrieval_sets())
@settings(max_examples=100, deadline=None)
def test_query_matrix_ranks_like_each_query_row(rset):
    """Exact ties included: one ranking per query row, each the row's
    single-query ranking."""
    queries = np.array([q for q, _ in rset.queries])
    gallery = np.array([g for g, _ in rset.gallery])
    ranked = rank_gallery(queries, gallery)
    assert ranked.shape == (len(queries), len(gallery))
    for q, row in zip(queries, ranked, strict=True):
        assert row.tolist() == rank_gallery(q, gallery).tolist()


@given(rset=tied_retrieval_sets())
@settings(max_examples=100, deadline=None)
def test_hit_ranks_are_the_relevant_positions_of_the_stable_ranking(rset):
    """Exact ties (also at relevant items), several relevant items per
    query, orphan queries, and more hits than one comparison chunk: each
    row's hit ranks are the 1-based positions of its relevant columns in
    rank_gallery's stable ranking."""
    queries = np.array([q for q, _ in rset.queries])
    gallery = np.array([g for g, _ in rset.gallery])
    qids = np.array([qid for _, qid in rset.queries])
    relevant = qids[:, None] == [gid for _, gid in rset.gallery]
    got = hit_ranks(np.negative(queries) @ gallery.T, relevant)
    ranked = rank_gallery(queries, gallery)
    assert len(got) == len(queries)
    for hits, row, rel in zip(got, ranked, relevant, strict=True):
        assert hits.tolist() == (np.flatnonzero(rel[row]) + 1).tolist()


def scalar_observation(world, proto, rng):
    """The observation rule one vector at a time: an offset draw, then a
    jitter draw, each scaled by 1/sqrt(latent_dim)."""
    offset = rng.normal(size=world.latent_dim) / math.sqrt(world.latent_dim)
    eps = rng.normal(size=world.latent_dim) / math.sqrt(world.latent_dim)
    return (world.lift_map @ (proto + world.sigma_noise * eps)
            + world.sigma_view * (world.view_map @ offset))


def per_item_retrieval_set(world, encoder, cfg):
    """Reference: one scalar observation and encode per item, and
    l2_normalize per distractor prototype, in generator order."""
    rng = make_rng(cfg.seed + EVAL_SEED_OFFSET)
    n_query = min(cfg.query_count, world.num_identities)
    idents = rng.choice(world.num_identities, size=n_query, replace=False)
    queries, gallery = [], []
    for ident in idents.tolist():
        proto = world.prototypes[ident]
        for item in range(1 + cfg.gallery_per_identity):
            obs = scalar_observation(world, proto, rng)
            (gallery if item else queries).append((encoder.encode(obs)[0], ident))
    for d in range(cfg.distractors):
        anon = l2_normalize(rng.normal(size=world.latent_dim))
        obs = scalar_observation(world, anon, rng)
        gallery.append((encoder.encode(obs)[0], -1000 - d))
    return RetrievalSet(queries=queries, gallery=gallery)


@given(seed=st.integers(0, 2**16), num_identities=st.integers(2, 8),
       query_count=st.integers(1, 10), gallery_per_identity=st.integers(1, 3),
       distractors=st.one_of(st.just(0), st.integers(1, 5), st.integers(500, 600)))
@settings(max_examples=40, deadline=None)
def test_retrieval_set_matches_per_item_loop(seed, num_identities, query_count,
                                             gallery_per_identity, distractors):
    """Same ids in the same order and the same features: a shifted read of
    the generator would move features by O(1). The larger distractor counts
    span more than one encoder block."""
    world = generate_world(num_identities, latent_dim=4, obs_dim=16, sigma_view=2.0,
                           sigma_noise=0.5, seed=seed)
    encoder = ToyEncoder(16, 8, seed=seed)
    cfg = ExperimentConfig(seed=seed, num_identities=num_identities, query_count=query_count,
                           gallery_per_identity=gallery_per_identity, distractors=distractors)
    got, want = build_retrieval_set(world, encoder, cfg), per_item_retrieval_set(world, encoder, cfg)
    for part in ("queries", "gallery"):
        rows, ref = getattr(got, part), getattr(want, part)
        assert [i for _, i in rows] == [i for _, i in ref]
        if ref:
            diff = np.array([f for f, _ in rows]) - np.array([f for f, _ in ref])
            assert np.abs(diff).max() <= 1e-12


def traced_peak_over_gallery_bytes(run):
    """run's traced peak memory over the bytes of one gallery matrix, on 100
    queries (two relevant items each) against 4000 unit-norm items."""
    rng = make_rng(0)
    feats = rng.normal(size=(4100, 256))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    ids = list(range(100)) + [i for i in range(100) for _ in range(2)] + list(range(-3800, 0))
    rows = list(zip(feats, ids))
    rset = RetrievalSet(queries=rows[:100], gallery=rows[100:])
    tracemalloc.start()
    try:
        run(rset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / feats[100:].nbytes


def test_evaluation_memory_stays_near_one_gallery_matrix():
    """evaluate_retrieval on 100 queries against 4000 items peaks below 1.5
    gallery matrices of traced memory: queries are ranked in blocks, never
    as one (queries, gallery) ranking."""
    assert traced_peak_over_gallery_bytes(evaluate_retrieval) <= 1.5


def test_gallery_sweep_memory_stays_near_one_gallery_matrix():
    """Sweeping 200/1000/4000 items peaks below 1.5 gallery matrices too:
    each size stacks its own sub-gallery and frees it before the next, so
    the full gallery is never stacked next to a sub-gallery."""
    peak = traced_peak_over_gallery_bytes(
        lambda rset: gallery_sweep(rset, [200, 1000, 4000], make_rng(0)))
    assert peak <= 1.5
