import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psearch.dictionaries import ClassCenterTable, FeatureDictionary, HyperParams
from psearch.errors import DegenerateUpdate, InvalidLabel
from psearch.numerics import l2_normalize, make_rng


def unit(*comps):
    return l2_normalize(np.array(comps, dtype=float))


class TestFeatureDictionary:
    def test_fifo_eviction(self):
        d = FeatureDictionary(2)
        a, b, c = unit(1, 0), unit(0, 1), unit(1, 1)
        d.push(a, 0)
        d.push(b, 1)
        d.push(c, 2)
        feats, labels = d.matrix()
        assert labels.tolist() == [1, 2]
        assert np.allclose(feats[0], b)
        assert np.allclose(feats[1], c)

    def test_unlabeled_entry_usable_as_negative(self):
        d = FeatureDictionary(4)
        d.push(unit(1, 0), -1)
        feats, labels = d.negatives(5)
        assert labels == [-1]
        assert len(feats) == 1

    def test_capacity_bound(self):
        d = FeatureDictionary(4)
        for i in range(10):
            d.push(unit(1, i + 1), i)
        assert len(d) == 4

    def test_invalid_label(self):
        d = FeatureDictionary(2)
        with pytest.raises(InvalidLabel):
            d.push(unit(1, 0), -2)

    def test_negatives_label_rule(self):
        d = FeatureDictionary(8)
        d.push(unit(1, 0), 5)
        d.push(unit(0, 1), 7)
        d.push(unit(1, 1), -1)
        feats, labels = d.negatives(5)
        assert labels == [7, -1]

    def test_negatives_empty_dictionary(self):
        feats, labels = FeatureDictionary(4).negatives(0)
        assert len(feats) == 0 and labels == []

    def test_negatives_all_same_label(self):
        d = FeatureDictionary(4)
        for _ in range(3):
            d.push(unit(1, 0), 5)
        feats, labels = d.negatives(5)
        assert len(feats) == 0

    @given(st.integers(1, 10), st.lists(st.integers(-1, 6), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_holds_most_recent(self, capacity, labels):
        d = FeatureDictionary(capacity)
        rng = make_rng(0)
        for lab in labels:
            d.push(l2_normalize(rng.normal(size=3)), lab)
        assert len(d) == min(capacity, len(labels))
        stored = d.matrix()[1].tolist()
        assert stored == labels[-len(stored):]


class TestClassCenterTable:
    def test_blend_and_renormalize(self):
        t = ClassCenterTable(num_classes=4, phi=0.5)
        t.update(0, unit(1, 0))
        t.update(0, unit(0, 1))
        s = np.sqrt(2) / 2
        assert np.allclose(t.get(0), [s, s], atol=1e-12)

    def test_fixed_point(self):
        t = ClassCenterTable(num_classes=4)
        x = unit(3, 4)
        t.update(1, x)
        t.update(1, x)
        assert np.allclose(t.get(1), x, atol=1e-12)

    def test_first_observation(self):
        t = ClassCenterTable(num_classes=4)
        t.update(3, unit(0, 1))
        assert np.allclose(t.get(3), [0, 1])
        assert t.observed == {3}

    def test_invalid_label(self):
        t = ClassCenterTable(num_classes=4)
        with pytest.raises(InvalidLabel):
            t.update(-1, unit(1, 0))
        with pytest.raises(InvalidLabel):
            t.update(4, unit(1, 0))

    def test_degenerate_update_keeps_old_center(self):
        t = ClassCenterTable(num_classes=2, phi=0.5)
        t.update(0, unit(1, 0))
        with pytest.raises(DegenerateUpdate):
            t.update(0, unit(-1, 0))
        assert np.allclose(t.get(0), [1, 0])

    def test_deterministic(self):
        results = []
        for _ in range(2):
            t = ClassCenterTable(num_classes=4)
            rng = make_rng(3)
            for _ in range(20):
                t.update(int(rng.integers(4)), l2_normalize(rng.normal(size=5)))
            results.append({k: v.copy() for k, v in t.centers.items()})
        for k in results[0]:
            assert np.array_equal(results[0][k], results[1][k])

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_center_stays_unit_norm(self, seed):
        rng = make_rng(seed)
        t = ClassCenterTable(num_classes=3, phi=0.5)
        for _ in range(10):
            t.update(int(rng.integers(3)), l2_normalize(rng.normal(size=6)))
        for c in t.centers.values():
            assert abs(np.linalg.norm(c) - 1.0) < 1e-9


class TestHyperParams:
    def test_defaults(self):
        hp = HyperParams()
        assert hp.alpha == 1.0 and hp.beta == 1.0
        assert hp.lam == 10.0 and hp.phi == 0.5
        assert hp.pool_size == 100 and hp.top_negatives == 10

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -0.1}, {"lam": 0.0}, {"phi": 1.0}, {"phi": 0.0},
        {"pool_size": 0}, {"top_negatives": -1},
        {"alpha": float("nan")}, {"beta": float("nan")}, {"lam": float("nan")},
        {"phi": float("nan")},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)
