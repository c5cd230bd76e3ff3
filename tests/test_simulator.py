import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import psearch.simulator as sim
from psearch.dictionaries import (
    ClassCenterTable,
    FeatureDictionary,
    HyperParams,
    LABEL_BACKGROUND,
    LABEL_UNIDENTIFIED,
)
from psearch.errors import DivergenceDetected, InvalidParams
from psearch.losses import c2hep_loss, olp_loss
from psearch.numerics import check_gradient, l2_normalize, make_rng
from psearch.pairing import PriorityPool, build_subgroups
from psearch.simulator import (
    ClassifierHead,
    Schedule,
    ToyEncoder,
    generate_world,
    person_observation,
    sample_image_pair,
    train,
)


class TestWorld:
    def test_deterministic(self):
        w1 = generate_world(10, seed=5)
        w2 = generate_world(10, seed=5)
        assert np.array_equal(w1.prototypes, w2.prototypes)
        assert np.array_equal(w1.lift_map, w2.lift_map)
        assert np.array_equal(w1.view_map, w2.view_map)

    def test_single_identity_rejected(self):
        with pytest.raises(InvalidParams):
            generate_world(1)

    def test_obs_dim_too_small(self):
        with pytest.raises(InvalidParams):
            generate_world(5, latent_dim=32, obs_dim=48)

    def test_prototypes_unit_and_distinct(self):
        w = generate_world(30, seed=2)
        norms = np.linalg.norm(w.prototypes, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        gram = w.prototypes @ w.prototypes.T
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-12

    def test_subspaces_orthonormal_and_disjoint(self):
        w = generate_world(5, latent_dim=8, obs_dim=32, seed=1)
        assert np.allclose(w.lift_map.T @ w.lift_map, np.eye(8), atol=1e-10)
        assert np.allclose(w.view_map.T @ w.view_map, np.eye(8), atol=1e-10)
        assert np.allclose(w.lift_map.T @ w.view_map, 0.0, atol=1e-10)

    def test_observation_components_recoverable(self):
        w = generate_world(5, latent_dim=4, obs_dim=16,
                           sigma_view=0.7, sigma_noise=0.0, seed=3)
        rng = make_rng(0)
        offset = rng.normal(size=4)
        obs = person_observation(w, w.prototypes[2], offset, rng)
        assert np.allclose(w.lift_map.T @ obs, w.prototypes[2], atol=1e-10)
        assert np.allclose(w.view_map.T @ obs, 0.7 * offset, atol=1e-10)


class TestSampleImagePair:
    def test_shared_identity_and_counts(self):
        w = generate_world(20, seed=4)
        rng = make_rng(4)
        for _ in range(20):
            img1, img2 = sample_image_pair(w, 8, rng)
            assert len(img1.proposals) == 8 and len(img2.proposals) == 8
            l1 = {lab for _, lab in img1.proposals if lab >= 0}
            l2 = {lab for _, lab in img2.proposals if lab >= 0}
            assert l1 & l2

    def test_zero_unlabeled_fraction(self):
        w = generate_world(20, unlabeled_fraction=0.0, seed=4)
        rng = make_rng(4)
        for _ in range(30):
            for img in sample_image_pair(w, 8, rng):
                assert all(lab != LABEL_UNIDENTIFIED for _, lab in img.proposals)

    def test_invalid_proposal_count(self):
        w = generate_world(5, seed=0)
        with pytest.raises(InvalidParams):
            sample_image_pair(w, 0, make_rng(0))


class TestToyEncoder:
    def test_unit_output(self):
        enc = ToyEncoder(16, embed_dim=8, seed=0)
        rng = make_rng(1)
        for _ in range(10):
            x, _ = enc.encode(rng.normal(size=16))
            assert abs(np.linalg.norm(x) - 1.0) < 1e-6


def test_classifier_head_backward_finite_difference():
    head = ClassifierHead(3, embed_dim=5, seed=2)
    rng = make_rng(8)
    x = l2_normalize(rng.normal(size=5))
    target = rng.normal(size=4)

    def f_flat(a_flat):
        scores = a_flat.reshape(4, 5) @ x + head.c
        return float(scores @ target)

    dA, dc, dx = head.backward(x, target)
    assert check_gradient(f_flat, head.A.ravel(), dA.ravel()) < 1e-6
    assert np.allclose(dc, target)
    assert np.allclose(dx, head.A.T @ target)


def test_end_to_end_weight_gradient():
    """Finite-difference check of the per-step training objective (metric
    term plus center-based identity term) against the analytic gradient
    propagated through the normalization Jacobian.

    Partner features inside each subgroup are constants in the step
    objective (the metric loss differentiates through the anchor only),
    so the frozen initial features play the positive role here.
    """
    rng = make_rng(17)
    obs_dim, embed_dim = 8, 6
    enc = ToyEncoder(obs_dim, embed_dim=embed_dim, seed=17)
    hp = HyperParams(beta=0.7)

    obs = [rng.normal(size=obs_dim) for _ in range(4)]
    labels = [0, 1, 0, 2]
    dictionary = FeatureDictionary(10)
    for lab in (1, 2, 3, 4):
        dictionary.push(l2_normalize(rng.normal(size=embed_dim)), lab)
    table = ClassCenterTable(num_classes=5)
    for lab in range(5):
        table.update(lab, l2_normalize(rng.normal(size=embed_dim)))
    pool = PriorityPool(labels={0, 1, 2, 3, 4}, target_size=5)
    frozen = [enc.encode(o)[0] for o in obs]
    neg_feats, neg_labels = dictionary.negatives(0)
    from psearch.pairing import Subgroup

    def total_and_grads(W, b):
        e = ToyEncoder.__new__(ToyEncoder)
        e.obs_dim, e.embed_dim = obs_dim, embed_dim
        e.W, e.b = W, b
        feats, caches = [], []
        for o in obs:
            x, cache = e.encode(o)
            feats.append(x)
            caches.append(cache)
        # the two label-0 proposals anchor against each other's frozen feature
        sgs = [
            Subgroup(feats[0], frozen[2], neg_feats, 0, neg_labels),
            Subgroup(feats[2], frozen[0], neg_feats, 0, neg_labels),
        ]
        res = olp_loss(sgs)
        feat_grads = {i: np.zeros(embed_dim) for i in range(4)}
        m = len(sgs)
        for ai, g in zip((0, 2), res.anchor_gradients):
            feat_grads[ai] += hp.alpha * g / m
        id_val, id_grads = c2hep_loss(list(zip(feats, labels)), pool, table, hp.lam)
        for i, g in enumerate(id_grads):
            feat_grads[i] += hp.beta * g
        dW = np.zeros_like(W)
        db = np.zeros_like(b)
        for i in range(4):
            gW, gb = e.backward(caches[i], feat_grads[i])
            dW += gW
            db += gb
        return hp.alpha * res.loss + hp.beta * id_val, dW, db

    _, dW, db = total_and_grads(enc.W, enc.b)

    def f_w(w_flat):
        return total_and_grads(w_flat.reshape(embed_dim, obs_dim), enc.b)[0]

    def f_b(b):
        return total_and_grads(enc.W, b)[0]

    assert check_gradient(f_w, enc.W.ravel(), dW.ravel()) < 1e-4
    assert check_gradient(f_b, enc.b, db) < 1e-4


class TestSchedule:
    def test_step_boundaries(self):
        s = Schedule(lr_initial=0.01, lr_final=0.001, drop_frac=0.6)
        assert s.lr_at(0, 100) == 0.01
        assert s.lr_at(59, 100) == 0.01
        assert s.lr_at(60, 100) == 0.001
        assert s.lr_at(99, 100) == 0.001


class RecordingDictionary(FeatureDictionary):
    pushed_labels: list = []

    def push(self, feature, label):
        RecordingDictionary.pushed_labels.append(label)
        super().push(feature, label)


class TestTrain:
    def small_world(self, seed=0, **kw):
        return generate_world(10, latent_dim=4, obs_dim=16, seed=seed, **kw)

    def test_invalid_loss_choice(self):
        w = self.small_world()
        with pytest.raises(InvalidParams):
            train(w, ToyEncoder(16, 8), HyperParams(), Schedule(),
                  "softmax", 2, 4, 1, make_rng(0))

    def test_invalid_images_per_iter(self):
        w = self.small_world()
        with pytest.raises(InvalidParams):
            train(w, ToyEncoder(16, 8), HyperParams(), Schedule(),
                  "olp", 3, 4, 1, make_rng(0))

    def test_zero_learning_rate_is_noop(self):
        w = self.small_world()
        enc = ToyEncoder(16, 8, seed=1)
        w0, b0 = enc.W.copy(), enc.b.copy()
        train(w, enc, HyperParams(), Schedule(0.0, 0.0), "olp+c2hep",
              2, 4, 20, make_rng(1))
        assert np.array_equal(enc.W, w0)
        assert np.array_equal(enc.b, b0)

    def test_bit_reproducible(self):
        results = []
        for _ in range(2):
            w = self.small_world(seed=6)
            enc = ToyEncoder(16, 8, seed=6)
            _, rows = train(w, enc, HyperParams(), Schedule(), "olp+c2hep",
                            2, 4, 30, make_rng(6))
            results.append((enc.W.tobytes(), enc.b.tobytes(),
                            [r.total for r in rows]))
        assert results[0] == results[1]

    def test_descent_over_200_iterations(self):
        # high view noise gives the encoder real headroom; mean total
        # loss over the last quarter must undercut the first quarter
        world = generate_world(50, sigma_view=2.0, sigma_noise=0.5, seed=0)
        enc = ToyEncoder(world.obs_dim, seed=0)
        _, rows = train(world, enc, HyperParams(), Schedule(0.05, 0.005),
                        "olp+c2hep", 2, 4, 200, make_rng(0),
                        dict_multiplier=5)
        totals = [r.total for r in rows]
        assert np.mean(totals[-50:]) < np.mean(totals[:50])

    def test_backgrounds_never_stored(self, monkeypatch):
        RecordingDictionary.pushed_labels = []
        monkeypatch.setattr(sim, "FeatureDictionary", RecordingDictionary)
        w = self.small_world(background_fraction=0.5)
        train(w, ToyEncoder(16, 8), HyperParams(), Schedule(), "olp+c2hep",
              2, 6, 20, make_rng(0))
        assert RecordingDictionary.pushed_labels
        assert all(lab != LABEL_BACKGROUND
                   for lab in RecordingDictionary.pushed_labels)

    @pytest.mark.parametrize("choice", ["olp+hep", "triplet+hep", "contrastive", "c2hep", "olp"])
    def test_all_loss_choices_run(self, choice):
        w = self.small_world(seed=2)
        enc = ToyEncoder(16, 8, seed=2)
        _, rows = train(w, enc, HyperParams(), Schedule(), choice,
                        2, 4, 10, make_rng(2))
        assert len(rows) == 10
        assert all(np.isfinite(r.total) for r in rows)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_detected(self):
        w = self.small_world(seed=1)
        enc = ToyEncoder(16, 8, seed=1)
        with pytest.raises(DivergenceDetected):
            train(w, enc, HyperParams(), Schedule(float("inf"), float("inf")),
                  "olp+c2hep", 2, 4, 50, make_rng(1))

    def test_dictionary_gives_negatives_with_two_images(self):
        # the stagnation remedy: after one iteration the dictionary is
        # non-empty, so subgroups with images_per_iter=2 see K > 0
        w = self.small_world(seed=9)
        enc = ToyEncoder(16, 8, seed=9)
        _, rows = train(w, enc, HyperParams(), Schedule(), "olp",
                        2, 4, 5, make_rng(9))
        assert rows[0].dict_size > 0
        assert rows[-1].dict_size > rows[0].dict_size or rows[-1].dict_size > 0


def _id_keyed_batch_olp(pairs, feats, labels, dictionary):
    """Oracle: _batch_olp's former id()-keyed anchor lookup and stable
    (similarity, label) tuple sort; returns (grads-by-index, ranking)."""
    subgroups, anchors = [], []
    for pair in pairs:
        sgs = build_subgroups([[(feats[i], labels[i]) for i in idx] for idx in pair],
                              dictionary)
        by_id = {id(feats[i]): i for i in [*pair[0], *pair[1]]}
        subgroups += sgs
        anchors += [by_id[id(sg.anchor)] for sg in sgs]
    if not subgroups:
        return {}, []
    result = olp_loss(subgroups)
    grads = {}
    for ai, g in zip(anchors, result.anchor_gradients):
        grads[ai] = grads.get(ai, 0.0) + g / len(subgroups)
    sims, neg_labels = [], []
    for sg, d_negs in zip(subgroups, result.negative_sims):
        sims += d_negs.tolist()
        neg_labels += sg.negative_labels
    return grads, [lab for _, lab in sorted(zip(sims, neg_labels), key=lambda t: -t[0])]


proposal = st.tuples(st.integers(0, 3), st.integers(LABEL_BACKGROUND, 4))


@given(seed=st.integers(0, 2**32 - 1),
       stored=st.lists(st.tuples(st.integers(0, 3), st.integers(LABEL_UNIDENTIFIED, 4)),
                       max_size=30),
       images=st.lists(st.lists(proposal, min_size=1, max_size=5), min_size=2, max_size=8))
@settings(max_examples=200, deadline=None)
def test_batch_olp_matches_id_keyed_tuple_sort(seed, stored, images):
    """Features are copies of four base vectors, so equal similarities
    (within one subgroup and across subgroups) are exact ties."""
    base = [l2_normalize(v) for v in make_rng(seed).normal(size=(4, 3))]
    dictionary = FeatureDictionary(25)
    for k, lab in stored:
        dictionary.push(base[k], lab)
    feats, labels, pairs = [], [], []
    for img1, img2 in zip(images[::2], images[1::2]):
        idx = ([], [])
        for img, out in ((img1, idx[0]), (img2, idx[1])):
            for k, lab in img:
                out.append(len(feats))
                feats.append(base[k].copy())
                labels.append(lab)
        pairs.append(idx)

    _, grads, ranked = sim._batch_olp(pairs, feats, labels, dictionary)
    want_grads, want_ranked = _id_keyed_batch_olp(pairs, feats, labels, dictionary)
    assert ranked == want_ranked
    assert all(type(lab) is int for lab in ranked)
    assert list(grads) == list(want_grads)
    for i, g in want_grads.items():
        assert np.array_equal(grads[i], g)
