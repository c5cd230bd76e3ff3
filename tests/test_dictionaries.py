import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psearch.dictionaries import ClassCenterTable, FeatureDictionary, HyperParams
from psearch.errors import DimensionMismatch, InvalidLabel
from psearch.numerics import l2_normalize, make_rng


def unit(*comps):
    return l2_normalize(np.array(comps, dtype=float))


def rows(*vectors):
    return np.array(vectors, dtype=float)


class TestFeatureDictionary:
    def test_fifo_eviction(self):
        d = FeatureDictionary(2)
        a, b, c = unit(1, 0), unit(0, 1), unit(1, 1)
        d.push(rows(a, b), [0, 1])
        d.push(rows(c), [2])
        feats, labels = d.matrix()
        assert labels.tolist() == [1, 2]
        assert np.array_equal(feats, rows(b, c))

    def test_unlabeled_entry_usable_as_negative(self):
        d = FeatureDictionary(4)
        d.push(rows(unit(1, 0)), [-1])
        feats, labels = d.negatives(5)
        assert labels == [-1]
        assert len(feats) == 1

    def test_capacity_bound(self):
        d = FeatureDictionary(4)
        for i in range(10):
            d.push(rows(unit(1, i + 1)), [i])
        assert len(d) == 4
        d.push(np.tile(unit(1, 0), (9, 1)), np.arange(9))
        assert len(d) == 4

    def test_invalid_label(self):
        d = FeatureDictionary(2)
        with pytest.raises(InvalidLabel):
            d.push(rows(unit(1, 0), unit(0, 1)), [3, -2])
        assert len(d) == 0

    def test_negatives_label_rule(self):
        d = FeatureDictionary(8)
        d.push(rows(unit(1, 0), unit(0, 1), unit(1, 1)), [5, 7, -1])
        feats, labels = d.negatives(5)
        assert labels == [7, -1]

    def test_negatives_empty_dictionary(self):
        feats, labels = FeatureDictionary(4).negatives(0)
        assert len(feats) == 0 and labels == []

    def test_negatives_all_same_label(self):
        d = FeatureDictionary(4)
        d.push(np.tile(unit(1, 0), (3, 1)), [5, 5, 5])
        feats, labels = d.negatives(5)
        assert len(feats) == 0

    @given(st.integers(1, 10), st.lists(st.integers(-1, 6), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_holds_most_recent(self, capacity, labels):
        d = FeatureDictionary(capacity)
        rng = make_rng(0)
        for lab in labels:
            d.push(l2_normalize(rng.normal(size=3))[None], [lab])
        assert len(d) == min(capacity, len(labels))
        stored = d.matrix()[1].tolist()
        assert stored == labels[-len(stored):]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10),
           st.lists(st.integers(0, 25), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_batches_keep_last_capacity_rows(self, seed, capacity, sizes):
        """Pushing batches of any size, one larger than the buffer
        included, leaves the last `capacity` rows of their concatenation,
        stored as given."""
        rng = make_rng(seed)
        d = FeatureDictionary(capacity)
        feats, labels = np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
        for n in sizes:
            batch, batch_labels = rng.normal(size=(n, 3)), rng.integers(-1, 6, size=n)
            d.push(batch, batch_labels)
            feats, labels = np.concatenate([feats, batch]), np.concatenate([labels, batch_labels])
        got_feats, got_labels = d.matrix()
        keep = min(capacity, len(labels))
        assert len(d) == keep
        assert np.array_equal(got_feats.reshape(-1, 3), feats[len(feats) - keep:])
        assert np.array_equal(got_labels, labels[len(labels) - keep:])


def reference_centers(labels, features, phi):
    """One blend per row, in row order, into a dict of centers."""
    centers, degenerate = {}, 0
    for lab, x in zip(labels.tolist(), features):
        raw = phi * centers[lab] + (1.0 - phi) * x if lab in centers else x
        norm = float(np.linalg.norm(raw))
        if norm < 1e-12:
            degenerate += 1
        else:
            centers[lab] = raw / norm
    return centers, degenerate


class TestClassCenterTable:
    def test_blend_and_renormalize(self):
        t = ClassCenterTable(num_classes=4, phi=0.5)
        t.update([0], rows(unit(1, 0)))
        t.update([0], rows(unit(0, 1)))
        s = np.sqrt(2) / 2
        assert np.allclose(t.centers[0], [s, s], atol=1e-12)

    def test_fixed_point(self):
        t = ClassCenterTable(num_classes=4)
        x = unit(3, 4)
        t.update([1, 1], rows(x, x))
        assert np.allclose(t.centers[1], x, atol=1e-12)

    def test_first_observation(self):
        t = ClassCenterTable(num_classes=4)
        t.update([3], rows(unit(0, 1)))
        assert np.allclose(t.centers[3], [0, 1])
        assert np.flatnonzero(t.seen).tolist() == [3]

    def test_invalid_label(self):
        t = ClassCenterTable(num_classes=4)
        with pytest.raises(InvalidLabel):
            t.update([-1], rows(unit(1, 0)))
        with pytest.raises(InvalidLabel):
            t.update([0, 4], rows(unit(1, 0), unit(1, 0)))
        assert not t.seen.any()

    def test_degenerate_update_keeps_old_center(self):
        # the antipodal row cancels; the other label still blends
        t = ClassCenterTable(num_classes=2, phi=0.5)
        t.update([0], rows(unit(1, 0)))
        assert t.update([0, 1], rows(unit(-1, 0), unit(0, 1))) == 1
        assert np.array_equal(t.centers[0], unit(1, 0))
        assert np.allclose(t.centers[1], [0, 1])

    def test_deterministic(self):
        results = []
        for _ in range(2):
            t = ClassCenterTable(num_classes=4)
            rng = make_rng(3)
            for _ in range(5):
                x = rng.normal(size=(4, 5))
                t.update(rng.integers(4, size=4), x / np.linalg.norm(x, axis=1, keepdims=True))
            results.append(t.centers.copy())
        assert np.array_equal(results[0], results[1])

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_center_stays_unit_norm(self, seed):
        rng = make_rng(seed)
        t = ClassCenterTable(num_classes=3, phi=0.5)
        for _ in range(10):
            t.update([int(rng.integers(3))], l2_normalize(rng.normal(size=6))[None])
        assert np.allclose(np.linalg.norm(t.centers[t.seen], axis=1), 1.0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.5, 0.25, 0.9)),
           st.lists(st.integers(0, 6), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_batches_match_per_row_reference(self, seed, phi, sizes):
        """Random batch splits, labels repeated inside a batch and
        antipodal rows: one update per batch equals one blend per row."""
        rng = make_rng(seed)
        labels = rng.integers(4, size=sum(sizes))
        features = rng.normal(size=(len(labels), 3))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        # a row antipodal to the one before it, same label: at phi 0.5 it
        # cancels a center that row installed
        flip = np.flatnonzero(rng.random(len(labels)) < 0.3)
        flip = flip[flip > 0]
        labels[flip], features[flip] = labels[flip - 1], -features[flip - 1]
        t = ClassCenterTable(num_classes=5, phi=phi)
        degenerate, start = 0, 0
        for n in sizes:
            degenerate += t.update(labels[start:start + n], features[start:start + n])
            start += n
        want, want_degenerate = reference_centers(labels, features, phi)
        assert degenerate == want_degenerate
        assert np.flatnonzero(t.seen).tolist() == sorted(want)
        for lab, center in want.items():
            np.testing.assert_allclose(t.centers[lab], center, rtol=0, atol=1e-12)


@pytest.mark.parametrize("store", [FeatureDictionary(4).push, ClassCenterTable(4).update])
@pytest.mark.parametrize("features", [rows(unit(1, 0)), unit(1, 0), np.eye(3)[:, :2]])
def test_one_feature_row_per_label(store, features):
    with pytest.raises(DimensionMismatch):
        store([0, 1], features)


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
        {"triplet_margin": -0.1}, {"triplet_margin": 2.5}, {"triplet_margin": float("nan")},
        {"contrastive_margin": -3.0}, {"contrastive_margin": 1.5},
        {"contrastive_margin": float("nan")},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)
