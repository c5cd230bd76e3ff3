import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psearch.dictionaries import ClassCenterTable, HyperParams
from psearch.errors import EmptyPool, EmptySubgroups, UninitializedCenter
from psearch.losses import (
    c2hep_loss,
    combined_loss,
    contrastive_loss,
    hep_loss,
    olp_loss,
    triplet_loss,
    ClassifierScores,
)
from psearch.numerics import check_gradient, l2_normalize, make_rng
from psearch.pairing import PriorityPool, Subgroup


def unit(*comps):
    return l2_normalize(np.array(comps, dtype=float))


def make_subgroup(anchor, positive, negatives, label=0):
    negs = [np.asarray(n, dtype=float) for n in negatives]
    return Subgroup(np.asarray(anchor, dtype=float),
                    np.asarray(positive, dtype=float),
                    negs, label, list(range(100, 100 + len(negs))))


def random_subgroups(rng, count, dim, max_negs):
    sgs = []
    for _ in range(count):
        k = int(rng.integers(0, max_negs + 1))
        sgs.append(make_subgroup(
            l2_normalize(rng.normal(size=dim)),
            l2_normalize(rng.normal(size=dim)),
            [l2_normalize(rng.normal(size=dim)) for _ in range(k)],
        ))
    return sgs


class TestOlpLoss:
    def test_single_negative_frozen_value(self):
        # d_pos = 1, d_neg = 0; loss = log(1 + e^-1), recomputed at 50 digits
        sg = make_subgroup([1.0, 0.0], [1.0, 0.0], [[0.0, 1.0]])
        res = olp_loss([sg])
        assert res.loss == pytest.approx(0.31326168751822283, abs=1e-15)
        assert res.anchor_gradients[0] == pytest.approx(
            [-0.26894142136999512, 0.26894142136999512], abs=1e-15
        )

    def test_no_negatives_zero_loss(self):
        sg = make_subgroup([1.0, 0.0], [1.0, 0.0], [])
        res = olp_loss([sg])
        assert res.loss == 0.0
        assert np.allclose(res.anchor_gradients[0], 0.0, atol=1e-15)

    def test_mean_over_subgroups(self):
        sg1 = make_subgroup([1.0, 0.0], [1.0, 0.0], [[0.0, 1.0]])
        sg2 = make_subgroup([1.0, 0.0], [1.0, 0.0], [])
        res = olp_loss([sg1, sg2])
        assert res.loss == pytest.approx(0.31326168751822283 / 2, abs=1e-15)

    def test_empty_raises(self):
        with pytest.raises(EmptySubgroups):
            olp_loss([])

    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_sum_to_one(self, seed, count, max_negs):
        rng = make_rng(seed)
        sgs = random_subgroups(rng, count, 6, max_negs)
        res = olp_loss(sgs)
        for q, q_hat in zip(res.q, res.q_hat):
            assert abs(q + float(np.sum(q_hat)) - 1.0) < 1e-12
        assert res.loss >= -1e-12

    def test_anchor_gradient_finite_difference(self):
        rng = make_rng(5)
        sgs = random_subgroups(rng, 3, 8, 6)
        res = olp_loss(sgs)

        for i, sg in enumerate(sgs):
            def f(a, sg=sg):
                moved = Subgroup(a, sg.positive, sg.negatives,
                                 sg.anchor_label, sg.negative_labels)
                return olp_loss([moved]).loss

            err = check_gradient(f, sgs[i].anchor, res.anchor_gradients[i])
            assert err < 1e-6


class TestHepLoss:
    def test_frozen_value(self):
        # two pooled classes, scores 2 and 0 at the true label
        pool = PriorityPool(labels={0, 1}, target_size=2)
        samples = [ClassifierScores(np.array([2.0, 0.0, 0.0]), 0)]
        loss, grads = hep_loss(samples, pool)
        assert loss == pytest.approx(0.12692801104297250, abs=1e-15)

    def test_uniform_scores_log_pool_size(self):
        pool = PriorityPool(labels={0, 1, 2, 3}, target_size=4)
        samples = [ClassifierScores(np.zeros(6), 2)]
        loss, _ = hep_loss(samples, pool)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_outside_pool_contributes_zero(self):
        pool = PriorityPool(labels={0, 1}, target_size=2)
        inside = ClassifierScores(np.array([2.0, 0.0, 0.0]), 0)
        outside = ClassifierScores(np.array([9.0, 9.0, 9.0]), 2)
        loss, grads = hep_loss([inside, outside], pool)
        # outside sample still counts in the denominator
        assert loss == pytest.approx(0.12692801104297250 / 2, abs=1e-15)
        assert np.all(grads[1] == 0.0)

    def test_all_outside_pool_is_zero(self):
        pool = PriorityPool(labels={0}, target_size=1)
        loss, grads = hep_loss([ClassifierScores(np.zeros(4), 3)], pool)
        assert loss == 0.0
        assert np.all(grads[0] == 0.0)

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            hep_loss([ClassifierScores(np.zeros(3), 0)],
                     PriorityPool(labels=set(), target_size=0))

    def test_score_gradient_finite_difference(self):
        rng = make_rng(9)
        pool = PriorityPool(labels={0, 2, 4}, target_size=3)
        fixed = ClassifierScores(rng.normal(size=6), 2)
        probe = rng.normal(size=6)

        def f(s):
            loss, _ = hep_loss([ClassifierScores(s, 4), fixed], pool)
            return loss

        _, grads = hep_loss([ClassifierScores(probe, 4), fixed], pool)
        assert check_gradient(f, probe, grads[0]) < 1e-6

    def test_non_pooled_scores_get_zero_gradient(self):
        pool = PriorityPool(labels={0, 1}, target_size=2)
        _, grads = hep_loss([ClassifierScores(np.array([1.0, 0.5, 3.0]), 1)],
                            pool)
        assert grads[0][2] == 0.0


class TestC2hepLoss:
    def make_table(self):
        t = ClassCenterTable(num_classes=4)
        t.update(0, unit(1, 0, 0))
        t.update(1, unit(0, 1, 0))
        return t

    def test_frozen_value_matched_center(self):
        # feature equals its own center, other center orthogonal, lam 10:
        # loss = log(1 + e^-10), recomputed at 50 digits
        table = self.make_table()
        pool = PriorityPool(labels={0, 1}, target_size=2)
        loss, _ = c2hep_loss([(unit(1, 0, 0), 0)], pool, table, lam=10.0)
        assert loss == pytest.approx(4.5398899216864647e-05, rel=1e-12)

    def test_uninitialized_pool_classes_skipped(self):
        table = self.make_table()
        pool = PriorityPool(labels={0, 1, 3}, target_size=3)
        loss, _ = c2hep_loss([(unit(1, 0, 0), 0)], pool, table, lam=10.0)
        assert loss == pytest.approx(4.5398899216864647e-05, rel=1e-12)

    def test_own_label_without_center_raises(self):
        table = self.make_table()
        pool = PriorityPool(labels={0, 1, 3}, target_size=3)
        with pytest.raises(UninitializedCenter):
            c2hep_loss([(unit(1, 1, 1), 3)], pool, table, lam=10.0)

    def test_no_initialized_centers_raises(self):
        table = ClassCenterTable(num_classes=4)
        pool = PriorityPool(labels={2, 3}, target_size=2)
        with pytest.raises(EmptyPool):
            c2hep_loss([(unit(1, 0, 0), 2)], pool, table, lam=10.0)

    def test_mean_over_samples(self):
        table = self.make_table()
        pool = PriorityPool(labels={0, 1}, target_size=2)
        one, _ = c2hep_loss([(unit(1, 0, 0), 0)], pool, table, lam=10.0)
        both, _ = c2hep_loss(
            [(unit(1, 0, 0), 0), (unit(0, 1, 0), 1)], pool, table, lam=10.0
        )
        assert both == pytest.approx(one, rel=1e-12)

    def test_feature_gradient_finite_difference(self):
        rng = make_rng(21)
        table = ClassCenterTable(num_classes=5)
        for lab in range(5):
            table.update(lab, l2_normalize(rng.normal(size=6)))
        pool = PriorityPool(labels={0, 1, 2, 3, 4}, target_size=5)
        x = l2_normalize(rng.normal(size=6))
        other = (l2_normalize(rng.normal(size=6)), 1)

        def f(v):
            loss, _ = c2hep_loss([(v, 3), other], pool, table, lam=10.0)
            return loss

        _, grads = c2hep_loss([(x, 3), other], pool, table, lam=10.0)
        assert check_gradient(f, x, grads[0]) < 1e-6

    def test_center_scale_used_normalized(self):
        # the loss reads centers through normalization, so scaling a
        # stored center must not change anything
        rng = make_rng(4)
        table = ClassCenterTable(num_classes=2)
        table.update(0, unit(1, 0))
        table.update(1, unit(0, 1))
        pool = PriorityPool(labels={0, 1}, target_size=2)
        x = l2_normalize(rng.normal(size=2))
        base, _ = c2hep_loss([(x, 0)], pool, table, lam=10.0)
        table.centers[1] = table.centers[1] * 3.0
        scaled, _ = c2hep_loss([(x, 0)], pool, table, lam=10.0)
        assert scaled == pytest.approx(base, rel=1e-12)


class TestBaselines:
    def test_triplet_inside_margin(self):
        a, p, n = unit(1, 0), unit(1, 0), unit(0, 1)
        assert triplet_loss(a, p, n, margin=0.3) == 0.0

    def test_triplet_violation(self):
        a, p, n = unit(1, 0), unit(0, 1), unit(1, 0)
        assert triplet_loss(a, p, n, margin=0.3) == pytest.approx(1.3)

    def test_contrastive_same(self):
        assert contrastive_loss(unit(1, 0), unit(1, 0), True) == 0.0
        assert contrastive_loss(unit(1, 0), unit(0, 1), True) == pytest.approx(1.0)

    def test_contrastive_different(self):
        assert contrastive_loss(unit(1, 0), unit(0, 1), False, margin=0.5) == 0.0
        assert contrastive_loss(unit(1, 0), unit(1, 0), False, margin=0.5) == (
            pytest.approx(0.5)
        )


def test_combined_loss_weights():
    hp = HyperParams(alpha=0.5, beta=2.0)
    out = combined_loss(0.0, 1.0, 3.0, hp)
    assert out.total == pytest.approx(6.5)
    assert out.det == 0.0 and out.olp == 1.0 and out.id_loss == 3.0
