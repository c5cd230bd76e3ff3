import numpy as np
import pytest

from psearch.dictionaries import FeatureDictionary
from psearch.errors import InvalidParams
from psearch.losses import olp_loss
from psearch.numerics import l2_normalize, make_rng
from psearch.pairing import build_subgroups, select_priority_pool


def unit(*comps):
    return l2_normalize(np.array(comps, dtype=float))


def images(*label_lists):
    return [np.array(labels, dtype=np.int64) for labels in label_lists]


@pytest.fixture
def filled_dict():
    d = FeatureDictionary(8)
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
        assert sorted(res.hard_ranked.tolist()) == [-1, -1, 7, 7, 9, 9]

    def test_anchor_label_excluded_from_negatives(self, filled_dict):
        feats, labels = np.array([unit(1, 1, 0), unit(1, 0, 1)]), np.array([7, 7])
        res = olp_of(build_subgroups(images([7], [7])), feats, labels, filled_dict)
        assert np.all(res.q_hat[:, 0] == 0.0) and np.all(res.q_hat[:, 1:] > 0.0)
        assert 7 not in res.hard_ranked and len(res.hard_ranked) == 4

    def test_unlabeled_and_background_never_pair(self):
        assert len(build_subgroups(images([-1, -2], [-1, -2]))) == 0

    def test_within_image_same_identity_pairs(self):
        # identity 3 twice in image one, once in image two: 3 pairs, 6 subgroups
        assert len(build_subgroups(images([3, 3], [3]))) == 6

    def test_rows_count_through_pairs(self):
        # pairs never mix; the second pair's rows start after the first's
        sgs = build_subgroups(images([3], [3], [5, 3], [5]))
        assert sgs.tolist() == [[0, 1], [1, 0], [2, 4], [4, 2]]

    def test_requires_two_images(self):
        with pytest.raises(InvalidParams):
            build_subgroups(images([1]))


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

    def test_gt_always_member_randomized(self):
        rng = make_rng(99)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            gt = {int(v) for v in rng.choice(n, size=3, replace=False)}
            pool = select_priority_pool(gt, [], 10, 5, n, rng)
            assert gt <= labels_of(pool)
