import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psearch.dictionaries import FeatureDictionary
from psearch.errors import InvalidLabel, InvalidParams
from psearch.losses import olp_loss
from psearch.numerics import l2_normalize, make_rng
from psearch.pairing import build_subgroups, select_priority_pool


def unit(*comps):
    return l2_normalize(np.array(comps, dtype=float))


def images(*label_lists):
    """The (images, proposals) label matrix, one list per image."""
    return np.array(label_lists, dtype=np.int64)


@pytest.fixture
def filled_dict():
    d = FeatureDictionary(8, 3)
    d.push(np.eye(3), [7, -1, 9])
    return d


def olp_of(subgroups, feats, labels, dictionary):
    anchor, positive = subgroups.T
    return olp_loss(feats[anchor], feats[positive], labels[anchor], *dictionary.matrix())


class TestBuildSubgroups:
    def test_symmetric_anchoring(self):
        sgs = build_subgroups(images([3], [3]))
        assert sgs.tolist() == [[0, 1], [1, 0]]

    def test_no_shared_identity(self):
        assert len(build_subgroups(images([1], [2]))) == 0

    def test_negative_count_matches_dictionary(self, filled_dict):
        feats, labels = np.array([unit(1, 1, 0), unit(1, 0, 1)]), np.array([3, 3])
        res = olp_of(build_subgroups(images([3], [3])), feats, labels, filled_dict)
        assert np.all(res.q_hat > 0.0) and res.q_hat.shape == (2, 3)
        assert sorted(res.hard_ranked.tolist()) == [-1, 7, 9]

    def test_anchor_label_excluded_from_negatives(self, filled_dict):
        feats, labels = np.array([unit(1, 1, 0), unit(1, 0, 1)]), np.array([7, 7])
        res = olp_of(build_subgroups(images([7], [7])), feats, labels, filled_dict)
        assert np.all(res.q_hat[:, 0] == 0.0) and np.all(res.q_hat[:, 1:] > 0.0)
        assert sorted(res.hard_ranked.tolist()) == [-1, 9]

    def test_unlabeled_and_background_never_pair(self):
        assert len(build_subgroups(images([-1, -2], [-1, -2]))) == 0

    def test_within_image_same_identity_pairs(self):
        # identity 3 twice in image one, once in image two: 3 pairs, 6 subgroups
        assert len(build_subgroups(images([3, 3], [3, -2]))) == 6

    def test_rows_count_through_pairs(self):
        # pairs never mix (row 5 holds identity 3 too); the second pair's
        # rows start after the first's
        sgs = build_subgroups(images([3, -1], [3, -2], [5, 3], [5, -1]))
        assert sgs.tolist() == [[0, 2], [2, 0], [4, 6], [6, 4]]

    def test_requires_two_images(self):
        for rows in (1, 3):
            with pytest.raises(InvalidParams):
                build_subgroups(np.ones((rows, 2), dtype=np.int64))

    @given(pairs=st.integers(0, 4), proposals=st.integers(0, 6), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_pair_loop(self, pairs, proposals, data):
        """(2 * pairs, proposals) label matrices, empty ones included: the
        same rows in the same order as one pass per image pair."""
        cells = data.draw(st.lists(st.integers(-2, 4), min_size=2 * pairs * proposals,
                                   max_size=2 * pairs * proposals))
        labels = np.array(cells, dtype=np.int64).reshape(2 * pairs, proposals)
        got = build_subgroups(labels)
        assert got.dtype == np.int64
        assert got.tolist() == per_pair_subgroups(labels).tolist()


def per_pair_subgroups(labels):
    """Reference: the subgroups of each image pair, one pair at a time,
    with rows offset by the images before it."""
    subgroups, start = [], 0
    for first, second in zip(labels[::2], labels[1::2]):
        pair = np.concatenate([first, second])
        for i in range(pair.size):
            for j in range(i + 1, pair.size):
                if pair[i] >= 0 and pair[i] == pair[j]:
                    subgroups += [[start + i, start + j], [start + j, start + i]]
        start += pair.size
    return np.array(subgroups, dtype=np.int64).reshape(-1, 2)


def labels_of(pool):
    """The pool's labels as a set, after checking it is a sorted int array
    without repeats."""
    assert pool.dtype == np.int64 and np.all(np.diff(pool) > 0)
    return set(pool.tolist())


class TestSelectPriorityPool:
    def test_forced_membership(self):
        pool = select_priority_pool({3, 7}, np.array([9]), 5, 10, 20, make_rng(0))
        assert {3, 7, 9} <= labels_of(pool)
        assert len(pool) == 5

    def test_degenerate_clamp(self):
        pool = select_priority_pool({0}, [], 100, 10, 4, make_rng(0))
        assert labels_of(pool) == {0, 1, 2, 3}

    def test_hard_label_already_in_gt_deduplicated(self):
        pool = select_priority_pool({3}, [3], 4, 10, 20, make_rng(0))
        assert len(pool) == 4

    def test_unlabeled_skipped_in_hard_ranking(self):
        pool = select_priority_pool(set(), np.array([-1, 5]), 2, 10, 20, make_rng(0))
        assert 5 in labels_of(pool)

    def test_top_r_limit(self):
        pool = select_priority_pool(set(), np.array([1, 2, 3, 4]), 10, 2, 20, make_rng(0))
        assert {1, 2} <= labels_of(pool)
        # labels 3, 4 only by random fill, not forced
        assert len(pool) == 10

    def test_deterministic_given_rng(self):
        p1 = select_priority_pool({1}, [4], 8, 10, 50, make_rng(123))
        p2 = select_priority_pool({1}, [4], 8, 10, 50, make_rng(123))
        assert np.array_equal(p1, p2)

    def test_gt_overflow_keeps_all(self):
        # train() counts such iterations and warns once per run
        pool = select_priority_pool(np.array([3, 0, 1, 2, 0]), [], 2, 0, 10, make_rng(0))
        assert labels_of(pool) == {0, 1, 2, 3}

    def test_invalid_gt_label(self):
        with pytest.raises(InvalidParams):
            select_priority_pool({20}, [], 5, 10, 20, make_rng(0))

    @pytest.mark.parametrize("gt", [[1.7, 2.2], np.array([3.0]), {2.5}])
    def test_non_integer_gt_label_refused_before_any_draw(self, gt):
        # once truncated to [1 2 6 7 9]; refused as FeatureDictionary.push refuses it
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidLabel, match="^labels must be integers, got float64$"):
            select_priority_pool(gt, [], 5, 2, 10, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("hard,extra", [([3.5], frozenset()), (np.array([2.0]), frozenset()),
                                            ([], {2.5}), (np.array([4]), {11.0})])
    def test_non_integer_ranked_or_extra_label_refused_before_any_draw(self, hard, extra):
        # refused by int_labels, as ground truth is, not by numpy indexing
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidLabel, match="^labels must be integers, got float64$"):
            select_priority_pool([1], hard, 5, 2, 10, rng, extra_labels=extra)
        assert rng.bit_generator.state == state

    def test_gt_always_member_randomized(self):
        rng = make_rng(99)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            gt = {int(v) for v in rng.choice(n, size=3, replace=False)}
            pool = select_priority_pool(gt, [], 10, 5, n, rng)
            assert gt <= labels_of(pool)


def set_arithmetic_pool(gt_labels, hard_negative_labels, pool_size, top_negatives,
                        num_classes, rng, extra_labels=frozenset()):
    """Reference: select_priority_pool with the random fill drawn from
    sorted(set(range(num_classes)) - pool)."""
    pool = set(gt_labels) | set(extra_labels)
    target = min(pool_size, num_classes + len(extra_labels))
    taken = 0
    for lab in hard_negative_labels:
        if taken >= top_negatives or len(pool) >= target:
            break
        if lab < 0 or lab in pool:
            continue
        pool.add(lab)
        taken += 1
    remaining = np.array(sorted(set(range(num_classes)) - pool), dtype=np.int64)
    need = target - len(pool)
    if need > 0 and remaining.size > 0:
        pool.update(rng.choice(remaining, size=min(need, remaining.size), replace=False).tolist())
    return np.array(sorted(pool), dtype=np.int64)


@given(seed=st.integers(0, 2**32 - 1), num_classes=st.integers(1, 250), data=st.data(),
       pool_size=st.integers(1, 120), top_negatives=st.integers(0, 12),
       extra=st.sampled_from(("none", "background", "past")),
       kind=st.sampled_from((set, list, np.array)))
@settings(max_examples=200, deadline=None)
def test_pool_matches_set_arithmetic(seed, num_classes, data, pool_size, top_negatives, extra,
                                     kind):
    """Equal pool bytes and dtype, and the generator left in the same
    state, so every later draw of a training run is unchanged; for ground
    truth given as a set, a list or an array, extra labels at or past the
    background class, and hard rankings with -1 entries and repeats."""
    gt = data.draw(st.lists(st.integers(0, num_classes - 1), max_size=10))
    hard = np.array(data.draw(st.lists(st.integers(-1, num_classes - 1), max_size=40)),
                    dtype=np.int64)
    extra = {"none": frozenset(), "background": {num_classes},
             "past": {num_classes + 3}}[extra]
    rng, ref_rng = make_rng(seed), make_rng(seed)
    pool = select_priority_pool(kind(gt), hard, pool_size, top_negatives, num_classes, rng,
                                extra_labels=extra)
    want = set_arithmetic_pool(kind(gt), hard, pool_size, top_negatives, num_classes, ref_rng,
                               extra)
    assert pool.dtype == want.dtype and pool.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
