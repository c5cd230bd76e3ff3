import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from psearch.checks import c2hep_oracle, contrastive_oracle, hep_oracle, olp_oracle, triplet_oracle
from psearch.dictionaries import ClassCenterTable, FeatureDictionary, HyperParams
from psearch.errors import (
    DimensionMismatch,
    EmptyPool,
    EmptySubgroups,
    InvalidLabel,
    NonFiniteFunction,
    UninitializedCenter,
)
from psearch.losses import (
    RING_BLOCK,
    c2hep_loss,
    contrastive_loss,
    hep_loss,
    olp_loss,
    triplet_loss,
)
from psearch.numerics import check_gradient, l2_normalize, make_rng, softmax
from psearch.simulator import ClassifierHead


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

    def test_negative_label_below_minus_one_raises(self):
        # the ranking indexes its per-label tables by label + 1, where -2 would wrap
        with pytest.raises(InvalidLabel, match="^negative label -2 below -1$"):
            olp_loss(*one_subgroup([1.0, 0.0], [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])[:4], [-2, 3])

    def test_empty_label_list_ranks_as_int(self):
        res = olp_loss(*one_subgroup([1.0, 0.0], [1.0, 0.0], [])[:4], [])
        assert res.hard_ranked.dtype == np.int64 and res.hard_ranked.size == 0

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

    @pytest.mark.parametrize("changes", [
        {3: np.ones((2, 3))},                          # negatives 3 wide, anchors 2 wide
        {3: np.ones((2, 4)), 4: [100, 101, 102, 103]},  # 2 rows of 4 would reshape to 4 of 2
        {4: [100, 101, 102]},                          # three labels for two negatives
        {1: np.ones((1, 3))},                          # positives of another shape
        {1: np.ones((2, 2))},
        {2: [0, 1]},                                   # two anchor labels for one subgroup
    ])
    def test_mismatched_shapes_raise(self, changes):
        args = list(one_subgroup([1.0, 0.0], [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]))
        for field, value in changes.items():
            args[field] = value
        with pytest.raises(DimensionMismatch, match="^anchors \\(1, 2\\), positives "):
            olp_loss(*args)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 40),
           st.sampled_from([0, 1, 3]), st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_raises(self, seed, count, max_negs, field, value):
        """A NaN or infinity anywhere in anchors, positives or negatives,
        masked dictionary rows and an empty dictionary included."""
        rng = make_rng(seed)
        args = list(random_subgroups(rng, count, 5, max_negs))
        if not len(args[field]):
            args[3], args[4] = unit_rows(rng, 1, dim=5), [0]
        args[field][rng.integers(len(args[field])), rng.integers(5)] = value
        with pytest.raises(NonFiniteFunction):
            olp_loss(*args)

    @pytest.mark.parametrize("positive, negative", [
        ([1.0, 0.0], [30.0, 0.0]),    # s = 900 overflows exp
        ([30.0, 0.0], [0.0, 1.0]),    # d_pos = 900 overflows exp
        ([-30.0, 0.0], [0.0, 1.0]),   # d_pos = -900 underflows exp to 0
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exp_out_of_range_raises(self, positive, negative):
        # unit-norm rows keep every score within [-1, 1]
        with pytest.raises(NonFiniteFunction):
            olp_loss(*one_subgroup([30.0, 0.0], positive, [negative]))


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([0, 3, 40]))
@settings(max_examples=60, deadline=None)
def test_olp_blocked_pass_matches_oracle(seed, count, blocks, distinct, max_label):
    """olp_loss against checks.olp_oracle within 1e-12 and its ranking
    exactly, for 1-12 subgroups, on both sides of the m <= 8 block rule:
    rings that take one to four blocks of at most RING_BLOCK // m rows,
    which olp_loss sizes evenly (one block of up to 400 rows for m > 8).
    Rows are copies of a few unit vectors of +-0.5 entries and one 0,
    whose dot products are exact in any summation order, and the two rows
    at each block edge are the same vector, so similarities tie exactly,
    across block edges too."""
    rng = make_rng(seed)
    rows, blocks = (RING_BLOCK // count, blocks) if count <= 8 else (400, 1)
    k = (blocks - 1) * rows + int(rng.integers(1, rows + 1))
    base = rng.choice([-0.5, 0.5], size=(distinct, 5))
    base[np.arange(distinct), rng.integers(0, 5, distinct)] = 0.0
    pick = rng.integers(0, distinct, k)
    edges = np.arange(1, blocks) * k // blocks  # olp_loss's even block edges
    pick[edges] = pick[edges - 1]
    dictionary = FeatureDictionary(k, 5)
    dictionary.push(base[pick], rng.integers(-1, max_label + 1, k))
    labels = rng.integers(0, max_label + 1, count)
    stored = dictionary.matrix()[1][rng.integers(0, k, count)]
    labels = np.where(stored >= 0, stored, labels)  # masks that bite
    anchors, positives = base[rng.integers(0, distinct, count)], unit_rows(rng, count, dim=5)
    res = olp_loss(anchors, positives, labels, *dictionary.matrix())
    loss, grads, ranked = olp_oracle(anchors, positives, labels, dictionary)
    assert abs(res.loss - loss) <= 1e-12
    assert np.abs(res.anchor_gradients - grads).max() <= 1e-12
    assert res.hard_ranked.tolist() == list(dict.fromkeys(ranked))


def column_ranked_olp(anchors, positives, anchor_labels, negatives, negative_labels):
    """Reference: olp_loss's body from when it ranked hard negatives per
    dictionary column (a lexsort of every column by its best similarity,
    ties by label, then np.unique); returns (loss, q, q_hat, anchor
    gradients, hard_ranked)."""
    anchors = np.asarray(anchors, dtype=np.float64)
    negatives = np.reshape(negatives, (-1, anchors.shape[1]))
    negative_labels = np.asarray(negative_labels)
    keep = negative_labels[None, :] != np.asarray(anchor_labels)[:, None]
    sims = np.where(keep, anchors @ negatives.T, -np.inf)
    d_pos = np.einsum("ij,ij->i", anchors, positives)
    probs = softmax(np.column_stack([d_pos, sims]))
    q, q_hat = probs[:, 0], probs[:, 1:]
    grads = (q - 1.0)[:, None] * positives + q_hat @ negatives
    best = sims.max(axis=0)
    col = np.flatnonzero(best > -np.inf)
    ranked = negative_labels[col[np.lexsort((negative_labels[col], -best[col]))]]
    _, first = np.unique(ranked, return_index=True)
    return math.fsum(-np.log(q)) / len(anchors), q, q_hat, grads, ranked[np.sort(first)]


@given(st.integers(0, 2**32 - 1), st.integers(1, 1400), st.integers(0, 2800), st.integers(1, 10),
       st.integers(1, 6), st.sampled_from([0, 3, 200, 5000]), st.booleans())
@settings(max_examples=100, deadline=None)
# 342 rows at m = 3: blocks of 341 and 1 rows broke a tie at the edge, as BLAS rounded the
# one-row block apart; olp_loss's even blocks keep it
@example(seed=0, capacity=342, pushed=342, count=3, distinct=3, max_label=200, shared_label=False)
def test_olp_matches_column_ranked_reference(seed, capacity, pushed, count, distinct, max_label,
                                             shared_label):
    """olp_loss equals the per-column ranking it replaced, on ring views of
    0-1,400 rows labeled -1..max_label: the ranking exactly, and loss, q,
    q_hat and gradients within 1e-12, since the one-pass scoring sums in
    another order. Rows are copies of a few vectors, so similarities tie
    exactly across columns, subgroups and labels; anchors are not
    unit-norm; with shared_label every anchor has one label, whose columns
    are then masked in every row."""
    rng = make_rng(seed)
    base = unit_rows(rng, distinct, dim=5)
    dictionary = FeatureDictionary(capacity, 5)
    dictionary.push(base[rng.integers(0, distinct, pushed)],
                    rng.integers(-1, max_label + 1, pushed))
    negatives, negative_labels = dictionary.matrix()
    anchors = base[rng.integers(0, distinct, count)] * rng.uniform(0.5, 2.0)  # one scale: rows tie
    positives = unit_rows(rng, count, dim=5)
    labels = rng.integers(0, max_label + 1, count)
    if len(negative_labels):
        stored = negative_labels[rng.integers(0, len(negative_labels), count)]
        labels = np.where(stored >= 0, stored, labels)
    if shared_label:
        labels[:] = labels[0]
    res = olp_loss(anchors, positives, labels, negatives, negative_labels)
    loss, q, q_hat, grads, ranked = column_ranked_olp(anchors, positives, labels, negatives,
                                                      negative_labels)
    assert abs(res.loss - loss) <= 1e-12
    for got, want in ((res.q, q), (res.q_hat, q_hat), (res.anchor_gradients, grads)):
        assert got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= 1e-12
    assert res.hard_ranked.tolist() == ranked.tolist()


class TestHepLoss:
    def test_frozen_value(self):
        # two pooled classes, scores 2 and 0 at the true label
        pool = np.array([0, 1])
        loss, grads = hep_loss(np.array([[2.0, 0.0]]), [0], pool)
        assert loss == pytest.approx(0.12692801104297250, abs=1e-15)

    def test_uniform_scores_log_pool_size(self):
        pool = np.array([0, 1, 2, 3])
        loss, _ = hep_loss(np.zeros((1, 4)), [2], pool)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    @pytest.mark.parametrize("labels, missing", [([3, 0, 2, 1], 2), ([1, 5, 0], 5),
                                                 ([4, 3, 2], 2)])
    def test_label_outside_pool_raises(self, labels, missing):
        # pool classes 0, 1 and 3; labels between and past them
        with pytest.raises(InvalidLabel, match=f"^sample label {missing} not in pool$"):
            hep_loss(np.zeros((len(labels), 3)), labels, np.array([0, 1, 3]))

    @pytest.mark.parametrize("shape", [(1, 3), (1, 1), (2,), (1, 2, 1)])
    def test_score_width_other_than_pool_size_raises(self, shape):
        # before the check, a (1, 3) row against a 2-class pool returned a loss
        with pytest.raises(DimensionMismatch):
            hep_loss(np.zeros(shape), [0], np.array([0, 1]))

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            hep_loss(np.zeros((1, 0)), [0], np.zeros(0, dtype=np.int64))

    def test_score_gradient_finite_difference(self):
        rng = make_rng(9)
        pool = np.array([0, 2, 4])
        fixed = rng.normal(size=3)
        probe = rng.normal(size=3)

        def f(s):
            loss, _ = hep_loss(np.stack([s, fixed]), [4, 2], pool)
            return loss

        _, grads = hep_loss(np.stack([probe, fixed]), [4, 2], pool)
        assert check_gradient(f, probe, grads[0]) < 1e-6


def masked_hep(scores, labels, pool):
    """Reference: hep_loss's body from when it took all C+1 score columns
    and also labels outside the pool, masked with np.isin and gathered
    with np.ix_ (its return for an all-outside batch dropped); returns
    (loss, score gradients over all columns, zero outside the pool)."""
    pooled = np.asarray(pool, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    grads = np.zeros_like(scores)
    inside = np.flatnonzero(np.isin(labels, pooled))
    probs = softmax(scores[np.ix_(inside, pooled)])
    pos, rows = np.searchsorted(pooled, labels[inside]), np.arange(len(inside))
    loss = math.fsum(-np.log(probs[rows, pos])) / len(labels)
    probs[rows, pos] -= 1.0
    grads[np.ix_(inside, pooled)] = probs / len(labels)
    return loss, grads


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_hep_matches_masked_reference(seed, n, num_classes):
    """hep_loss of the pool columns equals the masked full-width body it
    replaced bit for bit at those columns, on labels inside the pool: 1-40
    score rows of up to 301 columns, pools of 1 to all of them that always
    hold the background column."""
    rng = make_rng(seed)
    drawn = rng.choice(num_classes, size=int(rng.integers(0, num_classes + 1)), replace=False)
    pool = np.sort(np.append(drawn, num_classes))
    labels = rng.choice(pool, size=n)
    scores = 3.0 * rng.normal(size=(n, num_classes + 1))
    # take's copy is C-ordered, as the pool-column scores of ClassifierHead.scores are
    loss, grads = hep_loss(scores.take(pool, axis=1), labels, pool)
    want_loss, want_grads = masked_hep(scores, labels, pool)
    assert loss == want_loss
    assert grads.shape == (n, pool.size)
    assert grads.tobytes() == want_grads[:, pool].tobytes()


def full_matrix_hep_step(A, c, x, labels, pool, lr, beta):
    """Reference: the head step train() took when the head scored all C+1
    classes and stepped all of A and c; returns (A, c, dx, loss)."""
    loss, dscores = masked_hep(x @ A.T + c, labels, pool)
    dA, dc, dx = dscores.T @ x, dscores.sum(axis=0), dscores @ A
    return A - lr * (beta * dA), c - lr * (beta * dc), dx, loss


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_pool_only_head_step_matches_full_matrix_step(seed, n, num_classes):
    """The head step of train() on the pool rows only, against the
    full-matrix step: rows of A and c outside the pool are unchanged by
    bytes (their gradient was exactly zero), pool rows, dx and the loss
    agree to 1e-15. Training shapes: unit 256-d feature rows, 1-8 rows,
    up to 200 classes plus background, pools that hold it."""
    rng = make_rng(seed)
    head = ClassifierHead(num_classes, seed=int(rng.integers(1000)))
    head.c = 0.1 * rng.normal(size=num_classes + 1)
    drawn = rng.choice(num_classes, size=int(rng.integers(0, num_classes + 1)), replace=False)
    pool = np.sort(np.append(drawn, num_classes))
    labels = rng.choice(pool, size=n)
    x = unit_rows(rng, n, dim=head.A.shape[1])
    lr, beta = 0.02, 1.0
    want_A, want_c, want_dx, want_loss = full_matrix_hep_step(head.A, head.c, x, labels, pool,
                                                              lr, beta)
    scores, cache = head.scores(x, pool)
    loss, dscores = hep_loss(scores, labels, pool)
    dA, dc, dx = head.backward(cache, dscores)
    head.A[pool] = cache[1] - lr * (beta * dA)
    head.c[pool] -= lr * (beta * dc)
    outside = np.setdiff1d(np.arange(num_classes + 1), pool)
    assert head.A[outside].tobytes() == want_A[outside].tobytes()
    assert head.c[outside].tobytes() == want_c[outside].tobytes()
    assert np.abs(head.A[pool] - want_A[pool]).max() <= 1e-15
    assert np.abs(head.c[pool] - want_c[pool]).max() <= 1e-15
    assert np.abs(dx - want_dx).max() <= 1e-15
    assert abs(loss - want_loss) <= 1e-15


class TestC2hepLoss:
    def make_table(self):
        t = ClassCenterTable(num_classes=4, dim=3)
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

    @pytest.mark.parametrize("labels, missing", [([3, 0, 2, 1], 2), ([1, 5, 0], 5), ([0, -1], -1)])
    def test_uninitialized_names_smallest_missing_label(self, labels, missing):
        # pooled classes with a center are 0 and 1; labels below, between and past them
        table = self.make_table()
        feats = np.tile(unit(1, 0, 0), (len(labels), 1))
        with pytest.raises(UninitializedCenter, match=f"^sample label {missing} not in pool$"):
            c2hep_loss(feats, labels, np.arange(4), table, lam=10.0)

    def test_no_initialized_centers_raises(self):
        table = ClassCenterTable(num_classes=4, dim=3)
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
        table = ClassCenterTable(num_classes=5, dim=6)
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
        table = ClassCenterTable(num_classes=2, dim=2)
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
        pool = np.sort(rng.choice(num_classes + 1, size=int(rng.integers(1, num_classes + 2)),
                                  replace=False))
        labels = rng.choice(pool, size=n)
        scores = 3.0 * rng.normal(size=(n, pool.size))
        assert_matches(hep_loss(scores, labels, pool), hep_oracle(scores, labels, pool))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_c2hep(self, seed, n, num_classes):
        rng = make_rng(seed)
        table = ClassCenterTable(num_classes=num_classes + 2, dim=4)
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
