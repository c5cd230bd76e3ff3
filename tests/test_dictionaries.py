from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psearch.dictionaries import ClassCenterTable, FeatureDictionary, HyperParams
from psearch.errors import DimensionMismatch, InvalidLabel, InvalidParams
from psearch.numerics import ZERO_NORM_EPS, l2_normalize, make_rng


def unit(*comps):
    return l2_normalize(np.array(comps, dtype=float))


def rows(*vectors):
    return np.array(vectors, dtype=float)


class TestFeatureDictionary:
    def test_fifo_eviction(self):
        d = FeatureDictionary(2, 2)
        a, b, c = unit(1, 0), unit(0, 1), unit(1, 1)
        d.push(rows(a, b), [0, 1])
        d.push(rows(c), [2])
        feats, labels = d.matrix()
        assert labels.tolist() == [1, 2]
        assert np.array_equal(feats, rows(b, c))

    def test_unlabeled_entry_usable_as_negative(self):
        d = FeatureDictionary(4, 2)
        d.push(rows(unit(1, 0)), [-1])
        feats, labels = d.negatives(5)
        assert labels == [-1]
        assert len(feats) == 1

    def test_capacity_bound(self):
        d = FeatureDictionary(4, 2)
        for i in range(10):
            d.push(rows(unit(1, i + 1)), [i])
        assert len(d) == 4
        d.push(np.tile(unit(1, 0), (9, 1)), np.arange(9))
        assert len(d) == 4

    def test_invalid_label(self):
        d = FeatureDictionary(2, 2)
        with pytest.raises(InvalidLabel):
            d.push(rows(unit(1, 0), unit(0, 1)), [3, -2])
        assert len(d) == 0

    def test_negatives_label_rule(self):
        d = FeatureDictionary(8, 2)
        d.push(rows(unit(1, 0), unit(0, 1), unit(1, 1)), [5, 7, -1])
        feats, labels = d.negatives(5)
        assert labels == [7, -1]

    def test_negatives_empty_dictionary(self):
        feats, labels = FeatureDictionary(4, 2).negatives(0)
        assert len(feats) == 0 and labels == []

    def test_negatives_all_same_label(self):
        d = FeatureDictionary(4, 2)
        d.push(np.tile(unit(1, 0), (3, 1)), [5, 5, 5])
        feats, labels = d.negatives(5)
        assert len(feats) == 0

    @given(st.integers(1, 10), st.lists(st.integers(-1, 6), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_holds_most_recent(self, capacity, labels):
        d = FeatureDictionary(capacity, 3)
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
        included, leaves the last `capacity` rows, stored as given: after
        every push (so across wrap-arounds) matrix() equals a per-row FIFO
        reference, and is a read-only view of the buffer, not a copy."""
        rng = make_rng(seed)
        d = FeatureDictionary(capacity, 3)
        reference = deque(maxlen=capacity)
        for n in sizes:
            batch, batch_labels = rng.normal(size=(n, 3)), rng.integers(-1, 6, size=n)
            d.push(batch, batch_labels)
            reference.extend(zip(batch, batch_labels))
            got_feats, got_labels = d.matrix()
            assert len(d) == len(reference)
            assert np.array_equal(got_feats.reshape(-1, 3), np.reshape([f for f, _ in reference], (-1, 3)))
            assert got_labels.tolist() == [lab for _, lab in reference]
            if reference:
                assert np.shares_memory(got_feats, d._feats)
                assert np.shares_memory(got_labels, d._labels)
                assert not (got_feats.flags.writeable or got_labels.flags.writeable)


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


def rounds_before_lean(table, labels, features):
    """ClassCenterTable.update's rounds as they were before they skipped
    the unseen and degenerate work: both np.where branches and the
    ok-masked copies in every round."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return 0
    order = np.argsort(labels, kind="stable")
    occurrence = np.empty_like(order)
    occurrence[order] = np.arange(labels.size) - np.searchsorted(labels[order], labels[order])
    degenerate = 0
    for r in range(occurrence.max() + 1):
        rows = np.flatnonzero(occurrence == r)
        lab, x = labels[rows], features[rows]
        raw = np.where(table.seen[lab, None],
                       table.phi * table.centers[lab] + (1.0 - table.phi) * x, x)
        norm = np.sqrt(np.einsum("ij,ij->i", raw, raw))
        ok = norm >= ZERO_NORM_EPS
        table.centers[lab[ok]] = raw[ok] / norm[ok, None]
        table.seen[lab[ok]] = True
        degenerate += int(np.count_nonzero(~ok))
    return degenerate


class TestClassCenterTable:
    def test_blend_and_renormalize(self):
        t = ClassCenterTable(num_classes=4, dim=2, phi=0.5)
        t.update([0], rows(unit(1, 0)))
        t.update([0], rows(unit(0, 1)))
        s = np.sqrt(2) / 2
        assert np.allclose(t.centers[0], [s, s], atol=1e-12)

    def test_fixed_point(self):
        t = ClassCenterTable(num_classes=4, dim=2)
        x = unit(3, 4)
        t.update([1, 1], rows(x, x))
        assert np.allclose(t.centers[1], x, atol=1e-12)

    def test_first_observation(self):
        t = ClassCenterTable(num_classes=4, dim=2)
        t.update([3], rows(unit(0, 1)))
        assert np.allclose(t.centers[3], [0, 1])
        assert np.flatnonzero(t.seen).tolist() == [3]

    def test_empty_update_changes_nothing(self):
        t = ClassCenterTable(num_classes=3, dim=2)
        assert t.update([], np.zeros((0, 2))) == 0
        assert not (t.centers.any() or t.seen.any())
        t.update([1], rows(unit(1, 0)))
        centers, seen = t.centers.copy(), t.seen.copy()
        assert t.update(np.zeros(0, dtype=np.int64), np.zeros((0, 2))) == 0
        assert np.array_equal(t.centers, centers) and np.array_equal(t.seen, seen)

    def test_invalid_label(self):
        t = ClassCenterTable(num_classes=4, dim=2)
        with pytest.raises(InvalidLabel):
            t.update([-1], rows(unit(1, 0)))
        with pytest.raises(InvalidLabel):
            t.update([0, 4], rows(unit(1, 0), unit(1, 0)))
        assert not t.seen.any()

    def test_degenerate_update_keeps_old_center(self):
        # the antipodal row cancels; the other label still blends
        t = ClassCenterTable(num_classes=2, dim=2, phi=0.5)
        t.update([0], rows(unit(1, 0)))
        assert t.update([0, 1], rows(unit(-1, 0), unit(0, 1))) == 1
        assert np.array_equal(t.centers[0], unit(1, 0))
        assert np.allclose(t.centers[1], [0, 1])

    def test_deterministic(self):
        results = []
        for _ in range(2):
            t = ClassCenterTable(num_classes=4, dim=5)
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
        t = ClassCenterTable(num_classes=3, dim=6, phi=0.5)
        for _ in range(10):
            t.update([int(rng.integers(3))], l2_normalize(rng.normal(size=6))[None])
        assert np.allclose(np.linalg.norm(t.centers[t.seen], axis=1), 1.0, atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.5, 0.25, 0.9)),
           st.lists(st.integers(0, 6), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_batches_match_per_row_reference(self, seed, phi, sizes):
        """Random batch splits, labels repeated inside a batch, antipodal
        rows and zero rows: one update per batch equals one blend per row,
        and equals the earlier rounds byte for byte, degenerate counts
        included."""
        rng = make_rng(seed)
        labels = rng.integers(4, size=sum(sizes))
        features = rng.normal(size=(len(labels), 3))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        # a row antipodal to the one before it, same label: at phi 0.5 it
        # cancels a center that row installed
        flip = np.flatnonzero(rng.random(len(labels)) < 0.3)
        flip = flip[flip > 0]
        labels[flip], features[flip] = labels[flip - 1], -features[flip - 1]
        # a zero row cannot install its label
        features[rng.random(len(labels)) < 0.1] = 0.0
        t = ClassCenterTable(num_classes=5, dim=3, phi=phi)
        before = ClassCenterTable(num_classes=5, dim=3, phi=phi)
        degenerate, start = 0, 0
        for n in sizes:
            batch = labels[start:start + n], features[start:start + n]
            count = t.update(*batch)
            assert count == rounds_before_lean(before, *batch)
            assert t.centers.tobytes() == before.centers.tobytes()
            assert np.array_equal(t.seen, before.seen)
            degenerate += count
            start += n
        want, want_degenerate = reference_centers(labels, features, phi)
        assert degenerate == want_degenerate
        assert np.flatnonzero(t.seen).tolist() == sorted(want)
        for lab, center in want.items():
            np.testing.assert_allclose(t.centers[lab], center, rtol=0, atol=1e-12)


@pytest.mark.parametrize("store", [
    lambda labels, features: FeatureDictionary(4, 2).push(features, labels),
    lambda labels, features: ClassCenterTable(4, 2).update(labels, features),
], ids=["push", "update"])
@pytest.mark.parametrize("features", [rows(unit(1, 0)), unit(1, 0), np.eye(3)[:, :2],
                                      np.ones((2, 1)), np.eye(3)[:2]])
def test_one_feature_row_per_label(store, features):
    """Two labels need two rows of the store's width 2: a width-1 matrix
    must not broadcast."""
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
        # infinite weights and temperatures are refused here, not mid-run by train()
        {"alpha": float("inf")}, {"alpha": float("-inf")}, {"beta": float("inf")},
        {"beta": float("-inf")}, {"lam": float("inf")}, {"lam": float("-inf")},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParams):
            HyperParams(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"alpha": float("inf")}, "alpha and beta must be finite and >= 0"),
        ({"beta": -1.0}, "alpha and beta must be finite and >= 0"),
        ({"lam": float("inf")}, "lambda must be finite and > 0"),
        ({"lam": 0.0}, "lambda must be finite and > 0"),
    ])
    def test_range_message(self, kwargs, message):
        with pytest.raises(InvalidParams) as err:
            HyperParams(**kwargs)
        assert str(err.value) == message
