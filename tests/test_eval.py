import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import psearch.evaluation

from psearch.checks import ap_oracle, cmc_oracle
from psearch.config import ExperimentConfig
from psearch.errors import EmptyGallery, NoRelevant, SizeTooLarge
from psearch.evaluation import (
    QUERY_BLOCK,
    RetrievalSet,
    ap_from_hit_ranks,
    average_precision,
    cmc_topk,
    evaluate_retrieval,
    gallery_sweep,
    hit_table,
    item_dtype,
    rank_gallery,
)
from psearch.numerics import l2_normalize, make_rng
from psearch.runner import EVAL_SEED_OFFSET, build_retrieval_set
from psearch.simulator import ToyEncoder, generate_world


def unit(*comps):
    return l2_normalize(np.array(comps, dtype=float))


def retrieval_set(queries, gallery):
    """A RetrievalSet from lists of (feature, id) pairs, as record arrays
    of the first query's feature width."""
    dtype = item_dtype(len(queries[0][0]))
    return RetrievalSet(np.array(queries, dtype=dtype), np.array(gallery, dtype=dtype))


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
    return retrieval_set(queries, gallery)


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
        ranks, ahead, counts = hit_table(keys, relevant)
        assert ranks.tolist() == [3, 4, 2, 4] and counts.tolist() == [2, 2]
        assert ahead.tolist() == [0, 2, 0, 1, 2, 1, 1, 2, 3]


class TestRetrievalSetCannotGoStale:
    def test_frozen_and_read_only(self):
        rset = random_retrieval_set(make_rng(0), 3, 2, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rset.gallery = rset.gallery[:2]
        with pytest.raises(ValueError):
            rset.queries["feat"] = 0.0
        with pytest.raises(ValueError):
            rset.queries["feat"][0, 0] = 0.0
        with pytest.raises(ValueError):
            rset.gallery["id"] = 7
        with pytest.raises(ValueError):
            rset.gallery[0] = rset.gallery[1]
        queries = rset.queries.copy()
        RetrievalSet(queries, queries)
        queries["id"] = 5  # the arrays passed in stay writeable


class TestEvaluateRetrieval:
    def test_empty_gallery(self):
        with pytest.raises(NoRelevant):
            evaluate_retrieval(retrieval_set([(unit(1, 0), 0)], []))

    def test_perfect_separation(self):
        rset = retrieval_set(
            [(unit(1, 0, 0), 0), (unit(0, 1, 0), 1)],
            [(unit(1, 0, 0), 0), (unit(0, 1, 0), 1), (unit(0, 0, 1), 2)],
        )
        mAP, cmc = evaluate_retrieval(rset)
        assert mAP == 1.0
        assert cmc[1] == 1.0 and cmc[5] == 1.0 and cmc[10] == 1.0

    def test_queries_without_relevant_excluded(self, caplog):
        rset = retrieval_set(
            [(unit(1, 0), 0), (unit(0, 1), 99)],
            [(unit(1, 0), 0), (unit(0, 1), 1)],
        )
        mAP, _ = evaluate_retrieval(rset)
        assert mAP == 1.0  # the orphan query does not drag the mean

    def test_all_queries_orphaned(self):
        rset = retrieval_set(
            [(unit(1, 0), 42)],
            [(unit(1, 0), 0)],
        )
        with pytest.raises(NoRelevant):
            evaluate_retrieval(rset)

    def test_known_mixed_case(self):
        # query 0 ranks its match second behind a distractor: AP 1/2
        rset = retrieval_set(
            [(unit(1, 0), 0)],
            [(unit(1, 0), -5), (unit(1, 0.5), 0)],
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
        assert gallery_sweep(rset, [], make_rng(9)) == []

    def test_every_size_checked_before_any_is_scored(self, monkeypatch):
        scored = []
        monkeypatch.setattr(psearch.evaluation, "_score", lambda *args: scored.append(args))
        rset = random_retrieval_set(make_rng(1), 4, 2, 300)
        with pytest.raises(SizeTooLarge):
            gallery_sweep(rset, [200, 10**6], make_rng(0))
        with pytest.raises(SizeTooLarge):
            gallery_sweep(rset, [200, 2], make_rng(0))
        assert scored == []
        assert "hits" not in vars(rset)  # nor was the hit table built

    def test_orphan_queries_logged_once_per_sweep(self, caplog, monkeypatch):
        """Also with evaluate_retrieval before and after the sweep: the set
        is scored once, its one block of queries ranked once."""
        rset = random_retrieval_set(make_rng(2), 3, 1, 15)
        orphan = np.array([(unit(*[1.0] * 8), 99)], dtype=rset.queries.dtype)
        rset = RetrievalSet(np.concatenate([rset.queries, orphan]), rset.gallery)
        tables = []
        build = psearch.evaluation.hit_table
        monkeypatch.setattr(psearch.evaluation, "hit_table",
                            lambda *args: tables.append(args) or build(*args))
        with caplog.at_level(logging.INFO, logger="psearch.evaluation"):
            evaluate_retrieval(rset)
            gallery_sweep(rset, [5, 10, 18], make_rng(0))
            evaluate_retrieval(rset)
        assert [r.getMessage() for r in caplog.records] == [
            "excluded 1 queries with no relevant gallery item"]
        assert len(tables) == 1

    def test_running_count_wraps_in_the_narrow_column_type(self):
        """A 200-item gallery keeps its columns ahead as uint8, and 100
        queries put over 1,000 of them in the table, so the sweep's
        running count wraps; its rows still equal the dense reference."""
        rset = random_retrieval_set(make_rng(4), 100, 1, 100)
        ahead = rset.hits.ahead
        assert ahead.dtype == np.uint8 and len(ahead) > 4 * 255
        rows = gallery_sweep(rset, [100, 150, 200], make_rng(5))
        assert rows == reference_sweep(rset, [100, 150, 200], make_rng(5))

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
    return retrieval_set(queries, gallery)


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
        sub = RetrievalSet(rset.queries, rset.gallery[chosen])
        ref_map, ref_cmc = brute_force_evaluation(sub)
        assert row_size == size
        assert abs(row_map - ref_map) <= 1e-12
        assert row_cmc == [ref_cmc[1], ref_cmc[5], ref_cmc[10]]


def reference_rows(queries, gallery, within=None):
    """The evaluation that scored each retrieval set afresh per call: one
    (mAP, CMC) per gallery, the whole gallery or each column of within, a
    (gallery, sizes) 0/1 matrix whose (hits, gallery) @ within product
    counts the keys ahead of each hit inside each size."""
    relevant = queries["id"][:, None] == gallery["id"]
    answered = np.flatnonzero(relevant.any(axis=1))
    if not len(answered):
        raise NoRelevant("no query has a relevant gallery item")
    hits = []
    for start in range(0, len(answered), QUERY_BLOCK):
        block = answered[start:start + QUERY_BLOCK]
        keys, rel = np.negative(queries["feat"][block]) @ gallery["feat"].T, relevant[block]
        rows, cols = np.nonzero(rel)
        ranks = np.empty(np.shape(within)[1:] + rows.shape, rows.dtype)
        places = np.empty_like(rows)
        for s in range(0, len(rows), 16):
            r, c = rows[s:s + 16], cols[s:s + 16]
            row_keys, key = keys[r], keys[r, c][:, None]
            ahead = (row_keys < key) | ((row_keys == key) & (np.arange(keys.shape[1]) < c[:, None]))
            ranks[..., s:s + 16] = 1 + (np.count_nonzero(ahead, axis=1) if within is None
                                        else (ahead @ within).T)
            places[s:s + 16] = np.count_nonzero(ahead & rel[r], axis=1)
        ordered = np.empty_like(ranks)
        ordered[..., np.searchsorted(rows, rows) + places] = ranks
        hits += np.split(ordered, np.cumsum(np.count_nonzero(rel, axis=1))[:-1], axis=-1)
    results = []
    for per_query in [hits] if within is None else zip(*hits):
        first = np.array([h[0] for h in per_query])
        mAP = float(np.mean([ap_from_hit_ranks(h, len(h)) for h in per_query]))
        results.append((mAP, {k: float(np.mean(first <= k)) for k in (1, 5, 10)}))
    return results


def reference_sweep(rset, sizes, rng):
    """gallery_sweep's rows from reference_rows and a dense 0/1 size matrix."""
    is_kept = np.isin(rset.gallery["id"], rset.queries["id"])
    n_kept = np.count_nonzero(is_kept)
    order = rng.permutation(len(is_kept) - n_kept)
    depth = np.zeros(len(is_kept), dtype=np.int64)
    depth[np.flatnonzero(~is_kept)[order]] = np.arange(1, len(order) + 1)
    within = (depth[:, None] <= np.subtract(sizes, n_kept)).astype(np.float64)
    results = reference_rows(rset.queries, rset.gallery, within)
    return [(size, mAP, cmc[1], cmc[5], cmc[10]) for size, (mAP, cmc) in zip(sizes, results)]


@st.composite
def shared_table_sets(draw):
    """tied_retrieval_sets, with the last gallery item made relevant to the
    first query at times, and 1 or 2 * QUERY_BLOCK + 3 queries among the
    query counts; the raw (queries, gallery) records come along, so each
    draw can build fresh sets."""
    rset = draw(tied_retrieval_sets())
    queries, gallery = rset.queries.copy(), rset.gallery.copy()
    n_queries = draw(st.sampled_from([len(queries), 1, 2 * QUERY_BLOCK + 3]))
    queries = np.resize(queries, n_queries)  # repeats the drawn queries
    if draw(st.booleans()):
        gallery["id"][-1] = queries["id"][0]
    return queries, gallery


@given(records=shared_table_sets(), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=100, deadline=None)
def test_one_shared_table_gives_the_rows_of_separate_passes(records, seed, data):
    """Exact ties, orphan queries, hits in the last column, several query
    blocks: evaluate then sweep, sweep then evaluate, and each again on the
    same set, all read one cached hit table and give (==) the rows that
    scoring the set afresh per call gave."""
    queries, gallery = records
    kept = np.count_nonzero(np.isin(gallery["id"], queries["id"]))
    assume(kept)
    sizes = data.draw(st.lists(st.integers(kept, len(gallery)), min_size=1, max_size=4))
    (mAP, cmc), = reference_rows(queries, gallery)
    want_eval = (mAP, cmc)
    want_sweep = reference_sweep(RetrievalSet(queries, gallery), sizes, make_rng(seed))
    first = RetrievalSet(queries, gallery)
    second = RetrievalSet(queries, gallery)
    for _ in range(2):
        assert evaluate_retrieval(first) == want_eval
        assert gallery_sweep(first, sizes, make_rng(seed)) == want_sweep
        assert gallery_sweep(second, sizes, make_rng(seed)) == want_sweep
        assert evaluate_retrieval(second) == want_eval


@given(rset=tied_retrieval_sets(), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=200, deadline=None)
def test_sweep_rows_equal_each_size_alone_and_its_sub_gallery(rset, seed, data):
    """Exact ties included, sizes in any order and repeated: each size's row
    equals sweeping that size alone on the same rng seed, and equals
    (==) evaluate_retrieval of its gathered sub-gallery; the full size is
    evaluate_retrieval of the whole gallery."""
    query_ids = {qid for _, qid in rset.queries}
    kept = [i for i, (_, gid) in enumerate(rset.gallery) if gid in query_ids]
    distractors = [i for i, (_, gid) in enumerate(rset.gallery) if gid not in query_ids]
    assume(kept)
    sizes = data.draw(st.lists(st.integers(len(kept), len(rset.gallery)), min_size=1, max_size=6))
    rows = gallery_sweep(rset, sizes, make_rng(seed))
    order = make_rng(seed).permutation(len(distractors))
    assert [r[0] for r in rows] == sizes
    for size, row in zip(sizes, rows, strict=True):
        assert gallery_sweep(rset, [size], make_rng(seed)) == [row]
        chosen = sorted(kept + [distractors[j] for j in order[: size - len(kept)]])
        mAP, cmc = evaluate_retrieval(RetrievalSet(rset.queries, rset.gallery[chosen]))
        assert row == (size, mAP, cmc[1], cmc[5], cmc[10])
    mAP, cmc = evaluate_retrieval(rset)
    assert gallery_sweep(rset, [len(rset.gallery)], make_rng(seed)) == [
        (len(rset.gallery), mAP, cmc[1], cmc[5], cmc[10])]


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
    rank_gallery's stable ranking, and each hit's columns ahead are the
    columns before it there, ascending."""
    queries = np.array([q for q, _ in rset.queries])
    gallery = np.array([g for g, _ in rset.gallery])
    qids = np.array([qid for _, qid in rset.queries])
    relevant = qids[:, None] == [gid for _, gid in rset.gallery]
    ranks, ahead, counts = hit_table(np.negative(queries) @ gallery.T, relevant)
    want_ranks, want_ahead = [], []
    for row, rel in zip(rank_gallery(queries, gallery), relevant, strict=True):
        for place in np.flatnonzero(rel[row]).tolist():
            want_ranks.append(place + 1)
            want_ahead += sorted(row[:place].tolist())
    assert counts.tolist() == np.count_nonzero(relevant, axis=1).tolist()
    assert ranks.tolist() == want_ranks
    assert ahead.tolist() == want_ahead


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
    return retrieval_set(queries, gallery)


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
        if len(ref):
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
    rset = retrieval_set(rows[:100], rows[100:])
    tracemalloc.start()
    try:
        run(rset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / feats[100:].nbytes


def test_evaluation_memory_stays_near_one_gallery_matrix():
    """evaluate_retrieval on 100 queries against 4000 items peaks below half
    a gallery matrix of traced memory: it reads the records' features in
    place, never restacks them, and ranks queries in blocks, never as one
    (queries, gallery) ranking."""
    assert traced_peak_over_gallery_bytes(evaluate_retrieval) <= 0.5


def test_gallery_sweep_memory_stays_near_one_gallery_matrix():
    """Sweeping 200/1000/4000 items peaks below half a gallery matrix, as
    evaluate_retrieval does: all sizes are scored in one blocked pass over
    the records read in place, so no sub-gallery is ever gathered."""
    peak = traced_peak_over_gallery_bytes(
        lambda rset: gallery_sweep(rset, [200, 1000, 4000], make_rng(0)))
    assert peak <= 0.5
