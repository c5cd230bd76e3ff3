import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psearch.checks import c2hep_oracle, contrastive_oracle, hep_oracle, triplet_oracle
from psearch.dictionaries import ClassCenterTable, HyperParams
from psearch.errors import EmptyPool, EmptySubgroups, UninitializedCenter
from psearch.losses import (
    c2hep_loss,
    combined_loss,
    contrastive_loss,
    hep_loss,
    olp_loss,
    triplet_loss,
)
from psearch.numerics import check_gradient, l2_normalize, make_rng


def unit(*comps):
    return l2_normalize(np.array(comps, dtype=float))


def one_subgroup(anchor, positive, negatives, label=0):
    """olp_loss arguments for one subgroup whose negatives all qualify."""
    negs = np.array(negatives, dtype=float).reshape(len(negatives), len(anchor))
    return (np.array([anchor], dtype=float), np.array([positive], dtype=float),
            [label], negs, list(range(100, 100 + len(negs))))


def random_subgroups(rng, count, dim, max_negs):
    """count subgroups against one dictionary of up to max_negs entries;
    the dictionary labels make each anchor lose a random share of them."""
    k = int(rng.integers(0, max_negs + 1))
    return (np.array([l2_normalize(v) for v in rng.normal(size=(count, dim))]),
            np.array([l2_normalize(v) for v in rng.normal(size=(count, dim))]),
            rng.integers(0, 3, size=count),
            np.array([l2_normalize(v) for v in rng.normal(size=(k, dim))]).reshape(k, dim),
            rng.integers(-1, 3, size=k))


class TestOlpLoss:
    def test_single_negative_frozen_value(self):
        # d_pos = 1, d_neg = 0; loss = log(1 + e^-1), recomputed at 50 digits
        res = olp_loss(*one_subgroup([1.0, 0.0], [1.0, 0.0], [[0.0, 1.0]]))
        assert res.loss == pytest.approx(0.31326168751822283, abs=1e-15)
        assert res.anchor_gradients[0] == pytest.approx(
            [-0.26894142136999512, 0.26894142136999512], abs=1e-15
        )

    def test_no_negatives_zero_loss(self):
        res = olp_loss(*one_subgroup([1.0, 0.0], [1.0, 0.0], []))
        assert res.loss == 0.0
        assert np.allclose(res.anchor_gradients[0], 0.0, atol=1e-15)

    def test_mean_over_subgroups(self):
        # the second anchor's label masks out the only negative
        res = olp_loss(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [1.0, 0.0]]),
                       [0, 7], np.array([[0.0, 1.0]]), [7])
        assert res.loss == pytest.approx(0.31326168751822283 / 2, abs=1e-15)

    def test_empty_raises(self):
        with pytest.raises(EmptySubgroups):
            olp_loss(np.zeros((0, 2)), np.zeros((0, 2)), [], np.zeros((0, 2)), [])

    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_sum_to_one(self, seed, count, max_negs):
        rng = make_rng(seed)
        anchors, positives, labels, negs, neg_labels = random_subgroups(rng, count, 6, max_negs)
        res = olp_loss(anchors, positives, labels, negs, neg_labels)
        for q, q_hat, lab in zip(res.q, res.q_hat, labels):
            assert abs(q + float(np.sum(q_hat)) - 1.0) < 1e-12
            assert np.all(q_hat[neg_labels == lab] == 0.0)
        assert res.loss >= -1e-12

    def test_anchor_gradient_finite_difference(self):
        rng = make_rng(5)
        anchors, positives, labels, negs, neg_labels = random_subgroups(rng, 3, 8, 6)
        res = olp_loss(anchors, positives, labels, negs, neg_labels)

        for i in range(3):
            def f(a, i=i):
                return olp_loss(a[None], positives[i:i + 1], labels[i:i + 1],
                                negs, neg_labels).loss

            err = check_gradient(f, anchors[i], res.anchor_gradients[i])
            assert err < 1e-6


class TestHepLoss:
    def test_frozen_value(self):
        # two pooled classes, scores 2 and 0 at the true label
        pool = np.array([0, 1])
        loss, grads = hep_loss(np.array([[2.0, 0.0, 0.0]]), [0], pool)
        assert loss == pytest.approx(0.12692801104297250, abs=1e-15)

    def test_uniform_scores_log_pool_size(self):
        pool = np.array([0, 1, 2, 3])
        loss, _ = hep_loss(np.zeros((1, 6)), [2], pool)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_outside_pool_contributes_zero(self):
        pool = np.array([0, 1])
        scores = np.array([[2.0, 0.0, 0.0], [9.0, 9.0, 9.0]])
        loss, grads = hep_loss(scores, [0, 2], pool)
        # outside sample still counts in the denominator
        assert loss == pytest.approx(0.12692801104297250 / 2, abs=1e-15)
        assert np.all(grads[1] == 0.0)

    def test_all_outside_pool_is_zero(self):
        pool = np.array([0])
        loss, grads = hep_loss(np.zeros((1, 4)), [3], pool)
        assert loss == 0.0
        assert np.all(grads[0] == 0.0)

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            hep_loss(np.zeros((1, 3)), [0], np.zeros(0, dtype=np.int64))

    def test_score_gradient_finite_difference(self):
        rng = make_rng(9)
        pool = np.array([0, 2, 4])
        fixed = rng.normal(size=6)
        probe = rng.normal(size=6)

        def f(s):
            loss, _ = hep_loss(np.stack([s, fixed]), [4, 2], pool)
            return loss

        _, grads = hep_loss(np.stack([probe, fixed]), [4, 2], pool)
        assert check_gradient(f, probe, grads[0]) < 1e-6

    def test_non_pooled_scores_get_zero_gradient(self):
        pool = np.array([0, 1])
        _, grads = hep_loss(np.array([[1.0, 0.5, 3.0]]), [1], pool)
        assert grads[0][2] == 0.0


class TestC2hepLoss:
    def make_table(self):
        t = ClassCenterTable(num_classes=4)
        t.update([0, 1], [unit(1, 0, 0), unit(0, 1, 0)])
        return t

    def test_frozen_value_matched_center(self):
        # feature equals its own center, other center orthogonal, lam 10:
        # loss = log(1 + e^-10), recomputed at 50 digits
        table = self.make_table()
        pool = np.array([0, 1])
        loss, _ = c2hep_loss([unit(1, 0, 0)], [0], pool, table, lam=10.0)
        assert loss == pytest.approx(4.5398899216864647e-05, rel=1e-12)

    def test_uninitialized_pool_classes_skipped(self):
        table = self.make_table()
        pool = np.array([0, 1, 3])
        loss, _ = c2hep_loss([unit(1, 0, 0)], [0], pool, table, lam=10.0)
        assert loss == pytest.approx(4.5398899216864647e-05, rel=1e-12)

    def test_own_label_without_center_raises(self):
        table = self.make_table()
        pool = np.array([0, 1, 3])
        with pytest.raises(UninitializedCenter):
            c2hep_loss([unit(1, 1, 1)], [3], pool, table, lam=10.0)

    def test_no_initialized_centers_raises(self):
        table = ClassCenterTable(num_classes=4)
        pool = np.array([2, 3])
        with pytest.raises(EmptyPool):
            c2hep_loss([unit(1, 0, 0)], [2], pool, table, lam=10.0)

    def test_mean_over_samples(self):
        table = self.make_table()
        pool = np.array([0, 1])
        one, _ = c2hep_loss([unit(1, 0, 0)], [0], pool, table, lam=10.0)
        both, _ = c2hep_loss([unit(1, 0, 0), unit(0, 1, 0)], [0, 1], pool, table, lam=10.0)
        assert both == pytest.approx(one, rel=1e-12)

    def test_feature_gradient_finite_difference(self):
        rng = make_rng(21)
        table = ClassCenterTable(num_classes=5)
        table.update(np.arange(5), unit_rows(rng, 5, dim=6))
        pool = np.array([0, 1, 2, 3, 4])
        x = l2_normalize(rng.normal(size=6))
        other = l2_normalize(rng.normal(size=6))

        def f(v):
            loss, _ = c2hep_loss([v, other], [3, 1], pool, table, lam=10.0)
            return loss

        _, grads = c2hep_loss([x, other], [3, 1], pool, table, lam=10.0)
        assert check_gradient(f, x, grads[0]) < 1e-6

    def test_center_scale_used_normalized(self):
        # the loss reads centers through normalization, so scaling a
        # stored center must not change anything
        rng = make_rng(4)
        table = ClassCenterTable(num_classes=2)
        table.update([0, 1], [unit(1, 0), unit(0, 1)])
        pool = np.array([0, 1])
        x = l2_normalize(rng.normal(size=2))
        base, _ = c2hep_loss([x], [0], pool, table, lam=10.0)
        table.centers[1] = table.centers[1] * 3.0
        scaled, _ = c2hep_loss([x], [0], pool, table, lam=10.0)
        assert scaled == pytest.approx(base, rel=1e-12)


class TestBaselines:
    # rows a, p share label 0 and n has label 1: two triplets, (a, p, n)
    # and (p, a, n)
    def test_triplet_inside_margin(self):
        a, p, n = unit(1, 0), unit(1, 0), unit(0, 1)
        loss, grads = triplet_loss([a, p, n], [0, 0, 1], margin=0.3)
        assert loss == 0.0
        assert np.all(grads == 0.0)

    def test_triplet_violation(self):
        # hinges 0.3 - 0 + 1 = 1.3 and 0.3 - 0 + 0 = 0.3
        a, p, n = unit(1, 0), unit(0, 1), unit(1, 0)
        loss, grads = triplet_loss([a, p, n], [0, 0, 1], margin=0.3)
        assert loss == pytest.approx(0.8)
        # row a: n - p as the first triplet's anchor, -p as the second's positive
        assert grads[0] == pytest.approx((n - p - p) / 2)

    def test_contrastive_same(self):
        assert contrastive_loss([unit(1, 0), unit(1, 0)], [3, 3])[0] == 0.0
        assert contrastive_loss([unit(1, 0), unit(0, 1)], [3, 3])[0] == pytest.approx(1.0)

    def test_contrastive_different(self):
        assert contrastive_loss([unit(1, 0), unit(0, 1)], [3, 4], margin=0.5)[0] == 0.0
        assert contrastive_loss([unit(1, 0), unit(1, 0)], [3, 4], margin=0.5)[0] == (
            pytest.approx(0.5)
        )


def assert_matches(got, want):
    assert abs(got[0] - want[0]) <= 1e-12
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)


def unit_rows(rng, n, dim=4):
    return np.array([l2_normalize(v) for v in rng.normal(size=(n, dim))]).reshape(n, dim)


class TestArrayLossesMatchOracles:
    """Each array loss against its scalar reference loop in checks.py."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_hep(self, seed, n, num_classes):
        rng = make_rng(seed)
        labels = rng.integers(0, num_classes + 1, size=n)
        pooled = rng.choice(num_classes + 1, size=int(rng.integers(1, num_classes + 2)),
                            replace=False)
        pool = np.sort(pooled)
        scores = 3.0 * rng.normal(size=(n, num_classes + 1))
        assert_matches(hep_loss(scores, labels, pool), hep_oracle(scores, labels, pool))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_c2hep(self, seed, n, num_classes):
        rng = make_rng(seed)
        table = ClassCenterTable(num_classes=num_classes + 2)
        table.update(np.arange(num_classes), unit_rows(rng, num_classes))
        labels = rng.integers(0, num_classes, size=n)
        # the pool may hold a class without a center, which is skipped
        pool = np.arange(num_classes + 1)
        x = unit_rows(rng, n)
        got = c2hep_loss(x, labels, pool, table, lam=10.0)
        assert_matches(got, c2hep_oracle(x, labels, pool, table, lam=10.0))
        # center-scale invariance: centers are read through normalization
        table.centers[labels[0]] *= 3.0
        assert abs(c2hep_loss(x, labels, pool, table, lam=10.0)[0] - got[0]) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(-1, 3), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_triplet(self, seed, labels):
        x = unit_rows(make_rng(seed), len(labels))
        assert_matches(triplet_loss(x, labels, 0.3), triplet_oracle(x, labels, 0.3))

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(-1, 3), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_contrastive(self, seed, labels):
        x = unit_rows(make_rng(seed), len(labels))
        assert_matches(contrastive_loss(x, labels, 0.5), contrastive_oracle(x, labels, 0.5))


def test_combined_loss_weights():
    hp = HyperParams(alpha=0.5, beta=2.0)
    out = combined_loss(0.0, 1.0, 3.0, hp)
    assert out.total == pytest.approx(6.5)
    assert out.det == 0.0 and out.olp == 1.0 and out.id_loss == 3.0
