import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import psearch.simulator as sim
from psearch.checks import olp_oracle
from psearch.dictionaries import (
    ClassCenterTable,
    FeatureDictionary,
    HyperParams,
    LABEL_BACKGROUND,
    LABEL_UNIDENTIFIED,
)
from psearch.errors import DivergenceDetected, EmptySubgroups, InvalidParams
from psearch.losses import c2hep_loss, olp_loss
from psearch.numerics import check_gradient, l2_normalize, make_rng
from psearch.pairing import build_subgroups
from psearch.runner import train_from_config
from psearch.simulator import (
    EMBED_DIM,
    IMAGES_PER_ITER,
    ClassifierHead,
    Schedule,
    ToyEncoder,
    generate_world,
    observe,
    sample_image_pair,
    sample_iterations,
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

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["sigma_view", "sigma_noise"])
    def test_infinite_sigma_rejected(self, field, value):
        with pytest.raises(InvalidParams, match=r"^sigma_view, sigma_noise: must be finite and >= 0$"):
            generate_world(10, latent_dim=4, obs_dim=16, **{field: value})

    def test_prototypes_unit_and_distinct(self):
        w = generate_world(30, seed=2)
        norms = np.linalg.norm(w.prototypes, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        gram = w.prototypes @ w.prototypes.T
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-12

    def test_clashing_prototypes_are_redrawn(self):
        # at latent_dim 2, seed 16's first draw holds a pair of the 500 prototypes
        # at cosine >= 1 - 1e-12; generate_world re-draws those two rows
        first = make_rng(16).normal(size=(500, 2))
        first /= np.linalg.norm(first, axis=1, keepdims=True)
        gram = first @ first.T
        np.fill_diagonal(gram, 0.0)
        assert gram.max() >= 1.0 - 1e-12
        w = generate_world(500, latent_dim=2, obs_dim=4, seed=16)
        assert np.count_nonzero((w.prototypes != first).any(axis=1)) == 2
        assert np.allclose(np.linalg.norm(w.prototypes, axis=1), 1.0, atol=1e-12)
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
                           sigma_view=0.7, sigma_noise=0.3, seed=3)
        offset, jitter = make_rng(0).normal(size=(2, 3, 4))
        protos = w.prototypes[[2, 0, 2]]
        obs = observe(w, protos, offset[:1], jitter)
        assert obs.shape == (3, 16)
        # offsets and jitter are scaled by 1 / sqrt(latent_dim) = 1 / 2
        assert np.allclose(obs @ w.lift_map, protos + 0.3 * jitter / 2, atol=1e-10)
        assert np.allclose(obs @ w.view_map, np.repeat(0.7 * offset[:1] / 2, 3, axis=0),
                           atol=1e-10)


def per_pair_draw(world, proposals_per_image, rng):
    """Reference: the sampler's body from when it drew one image pair per
    call; returns that pair's observation rows and (2, proposals) labels."""
    n, dim = proposals_per_image, world.latent_dim
    shared = rng.choice(world.num_identities)
    u = rng.random((2, n - 1))
    drawn = rng.integers(world.num_identities, size=(2, n - 1))
    bg, unlabeled = world.background_fraction, world.unlabeled_fraction
    labels = np.where(u < bg, LABEL_BACKGROUND,
                      np.where(u < bg + unlabeled, LABEL_UNIDENTIFIED, drawn))
    labels = np.column_stack([np.full(2, shared), labels])
    z = rng.normal(size=(2, 1 + 2 * n, dim))
    anon = z[:, 1:n + 1]
    protos = np.where((labels == LABEL_UNIDENTIFIED)[..., None],
                      anon / np.linalg.norm(anon, axis=-1, keepdims=True),
                      world.prototypes[np.maximum(labels, 0)])
    obs = observe(world, protos, z[:, :1], z[:, n + 1:])
    background = labels == LABEL_BACKGROUND
    obs[background] = rng.normal(size=(np.count_nonzero(background), world.obs_dim))
    return np.concatenate([obs[0], obs[1]]), labels


def choice_and_where_draw(world, pairs, proposals_per_image, rng):
    """Reference: the bulk sampler's body before its labels were filled in
    place (choice, np.where, column_stack and np.linalg.norm)."""
    n, dim, images = proposals_per_image, world.latent_dim, 2 * pairs
    shared = rng.choice(world.num_identities, size=pairs)
    u = rng.random((images, n - 1))
    drawn = rng.integers(world.num_identities, size=(images, n - 1))
    bg, unlabeled = world.background_fraction, world.unlabeled_fraction
    labels = np.where(u < bg, LABEL_BACKGROUND,
                      np.where(u < bg + unlabeled, LABEL_UNIDENTIFIED, drawn))
    labels = np.column_stack([np.repeat(shared, 2), labels])
    z = rng.normal(size=(images, 1 + 2 * n, dim))
    anon = z[:, 1:n + 1]
    protos = np.where((labels == LABEL_UNIDENTIFIED)[..., None],
                      anon / np.linalg.norm(anon, axis=-1, keepdims=True),
                      world.prototypes[np.maximum(labels, 0)])
    obs = observe(world, protos, z[:, :1], z[:, n + 1:])
    background = labels == LABEL_BACKGROUND
    obs[background] = rng.normal(size=(np.count_nonzero(background), world.obs_dim))
    return obs.reshape(-1, world.obs_dim), labels


@given(identities=st.integers(2, 60), latent=st.integers(2, 8),
       background=st.sampled_from((0.0, 0.3, 0.6, 1.0)),
       unlabeled=st.sampled_from((0.0, 0.2, 0.4, 1.0)),
       pairs=st.integers(1, 4), proposals=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_sampler_reads_and_returns_what_choice_and_where_did(identities, latent, background,
                                                             unlabeled, pairs, proposals, seed):
    """Equal observation and label bytes and dtypes, and the generator in
    the same state afterwards, so every training stream is unchanged."""
    w = generate_world(identities, latent_dim=latent, obs_dim=2 * latent + 3,
                       unlabeled_fraction=unlabeled, background_fraction=background,
                       seed=seed % 5)
    rng, ref_rng = make_rng(seed), make_rng(seed)
    for _ in range(3):
        got = sample_image_pair(w, pairs, proposals, rng)
        want = choice_and_where_draw(w, pairs, proposals, ref_rng)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSampleImagePair:
    def test_shared_identity_and_counts(self):
        w = generate_world(20, seed=4)
        rng = make_rng(4)
        for pairs in [1, 2, 3, 4] * 5:
            obs, labels = sample_image_pair(w, pairs, 8, rng)
            assert obs.shape == (2 * pairs * 8, w.obs_dim)
            assert labels.shape == (2 * pairs, 8) and labels.dtype == np.int64
            assert np.all(labels[0::2, 0] == labels[1::2, 0])
            assert np.all(labels[:, 0] >= 0)

    @pytest.mark.parametrize("proposals", [0, -1])
    def test_no_proposals_rejected_before_any_draw(self, proposals):
        w, rng = generate_world(20, seed=4), make_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParams, match=r"^proposals_per_image: must be >= 1$"):
            sample_image_pair(w, 1, proposals, rng)
        assert rng.bit_generator.state == state

    def test_zero_unlabeled_fraction(self):
        w = generate_world(20, unlabeled_fraction=0.0, seed=4)
        rng = make_rng(4)
        for pairs in range(1, 5):
            _, labels = sample_image_pair(w, pairs, 8, rng)
            assert np.all(labels != LABEL_UNIDENTIFIED)

    @given(background=st.floats(0, 1), unlabeled=st.floats(0, 1),
           pairs=st.integers(1, 4), proposals=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_pair_structure_and_label_shares(self, background, unlabeled, pairs, proposals):
        """Shared first identity, one camera offset per image, noiseless
        identity components, and label shares near the fractions: swapped
        thresholds would move the background and unlabeled shares."""
        w = generate_world(20, latent_dim=4, obs_dim=16, sigma_view=0.7, sigma_noise=0.0,
                           unlabeled_fraction=unlabeled, background_fraction=background,
                           seed=1)
        rng = make_rng(7)
        draws = [sample_image_pair(w, pairs, proposals, rng) for _ in range(300 // pairs)]
        for obs, labels in draws:
            assert obs.shape == (2 * pairs * proposals, 16)
            assert labels.shape == (2 * pairs, proposals)
            assert np.all(labels[0::2, 0] == labels[1::2, 0]) and np.all(labels[:, 0] >= 0)
        for obs, labels in draws[:10]:
            for img_obs, img_labels in zip(obs.reshape(2 * pairs, proposals, 16), labels):
                person = img_labels != LABEL_BACKGROUND
                img_labels, img_obs = img_labels[person], img_obs[person]
                view = img_obs @ w.view_map
                assert np.allclose(view, view[0], rtol=0, atol=1e-12)
                lifted = img_obs @ w.lift_map
                ident = img_labels >= 0
                assert np.allclose(lifted[ident], w.prototypes[img_labels[ident]],
                                   rtol=0, atol=1e-12)
                assert np.allclose(np.linalg.norm(lifted[~ident], axis=1), 1.0,
                                   rtol=0, atol=1e-12)
        others = np.concatenate([labels[:, 1:].ravel() for _, labels in draws])
        if others.size:
            top = min(background + unlabeled, 1.0)
            shares = [np.mean(others == LABEL_BACKGROUND),
                      np.mean(others == LABEL_UNIDENTIFIED), np.mean(others >= 0)]
            # at least 600 draws: 0.1 is about five standard deviations
            assert np.allclose(shares, [background, top - background, 1 - top],
                               rtol=0, atol=0.1)

    @given(background=st.floats(0, 1), unlabeled=st.floats(0, 1),
           proposals=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_pair_reads_the_generator_as_a_per_pair_draw(self, background, unlabeled,
                                                              proposals, seed):
        """At one pair (2 images per iteration) the observations, the labels
        and the generator state afterwards equal the per-pair draw's bit for
        bit, so the training streams of 2-image runs are unchanged."""
        w = generate_world(20, latent_dim=4, obs_dim=16, unlabeled_fraction=unlabeled,
                           background_fraction=background, seed=seed % 7)
        rng, ref_rng = make_rng(seed), make_rng(seed)
        for _ in range(3):
            obs, labels = sample_image_pair(w, 1, proposals, rng)
            ref_obs, ref_labels = per_pair_draw(w, proposals, ref_rng)
            assert obs.tobytes() == ref_obs.tobytes() and obs.shape == ref_obs.shape
            assert labels.tolist() == ref_labels.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestToyEncoder:
    def test_unit_output(self):
        enc = ToyEncoder(16, embed_dim=8, seed=0)
        rng = make_rng(1)
        x, _ = enc.encode(rng.normal(size=(10, 16)))
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)

    def test_rows_match_single_observations(self):
        enc = ToyEncoder(16, embed_dim=8, seed=0)
        obs = make_rng(2).normal(size=(5, 16))
        rows, _ = enc.encode(obs)
        for o, x in zip(obs, rows):
            assert np.allclose(enc.encode(o)[0], x, rtol=0, atol=1e-15)

    def test_backward_rows_finite_difference(self):
        rng = make_rng(3)
        enc = ToyEncoder(6, embed_dim=4, seed=3)
        obs = rng.normal(size=(5, 6))
        target = rng.normal(size=(5, 4))

        def loss(W, b):
            e = ToyEncoder.__new__(ToyEncoder)
            e.W, e.b = W, b
            return float(np.sum(e.encode(obs)[0] * target))

        x, cache = enc.encode(obs)
        dW, db = enc.backward(cache, target)
        assert check_gradient(lambda w: loss(w.reshape(4, 6), enc.b), enc.W.ravel(),
                              dW.ravel()) < 1e-6
        assert check_gradient(lambda b: loss(enc.W, b), enc.b, db) < 1e-6


@given(seed=st.integers(0, 2**32 - 1), images=st.sampled_from(IMAGES_PER_ITER),
       share=st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_backward_over_gradient_rows_equals_every_row(seed, images, share):
    """At train()'s sizes, back-propagating only the rows of G that carry a
    gradient gives the same dW and db as every row, when the others are zero."""
    rng = make_rng(seed)
    enc = ToyEncoder(128, seed=seed % 97)
    _, cache = enc.encode(rng.normal(size=(4 * images, 128)))
    rows = np.flatnonzero(rng.random(4 * images) < share)
    G = np.zeros((4 * images, EMBED_DIM))
    G[rows] = rng.normal(size=(rows.size, EMBED_DIM))
    dW, db = enc.backward(cache, G)
    obs, x, norm = cache
    sub_dW, sub_db = enc.backward((obs[rows], x[rows], norm[rows]), G[rows])
    assert np.array_equal(sub_dW, dW) and np.array_equal(sub_db, db)


def test_classifier_head_backward_finite_difference():
    """Scores and gradients of the pool rows of the head only, for a pool
    that leaves classes 1 and 3 out."""
    head = ClassifierHead(4, embed_dim=5, seed=2)
    head.c = make_rng(7).normal(size=5)
    pool = np.array([0, 2, 4])
    rng = make_rng(8)
    x = np.array([l2_normalize(v) for v in rng.normal(size=(3, 5))])
    target = rng.normal(size=(3, 3))

    def f_flat(a_flat):
        scores = x @ a_flat.reshape(3, 5).T + head.c[pool]
        return float(np.sum(scores * target))

    def f_x(x_flat):
        return float(np.sum(head.scores(x_flat.reshape(3, 5), pool)[0] * target))

    scores, cache = head.scores(x, pool)
    assert np.abs(scores - (x @ head.A.T + head.c)[:, pool]).max() <= 1e-15
    dA, dc, dx = head.backward(cache, target)
    assert dA.shape == (3, 5) and dc.shape == (3,)
    assert check_gradient(f_flat, head.A[pool].ravel(), dA.ravel()) < 1e-6
    assert np.allclose(dc, target.sum(axis=0))
    assert check_gradient(f_x, x.ravel(), dx.ravel()) < 1e-6


def test_end_to_end_weight_gradient():
    """Finite-difference check of the per-step training objective (metric
    term plus center-based identity term) against the analytic gradient
    propagated through the normalization Jacobian, with the rows encoded
    and back-propagated together as train() does.

    Partner features inside each subgroup are constants in the step
    objective (the metric loss differentiates through the anchor only),
    so the frozen initial features play the positive role here.
    """
    rng = make_rng(17)
    obs_dim, embed_dim = 8, 6
    enc = ToyEncoder(obs_dim, embed_dim=embed_dim, seed=17)
    hp = HyperParams(beta=0.7)

    obs = rng.normal(size=(4, obs_dim))
    labels = np.array([0, 1, 0, 2])
    dictionary = FeatureDictionary(10, embed_dim)
    dictionary.push([l2_normalize(v) for v in rng.normal(size=(4, embed_dim))], [1, 2, 3, 4])
    table = ClassCenterTable(num_classes=5, dim=embed_dim)
    table.update(np.arange(5), [l2_normalize(v) for v in rng.normal(size=(5, embed_dim))])
    pool = np.arange(5)
    frozen = enc.encode(obs)[0]
    # the two label-0 proposals anchor against each other's frozen feature
    anchor, positive = build_subgroups(labels.reshape(2, 2)).T
    assert anchor.tolist() == [0, 2]

    def total_and_grads(W, b):
        e = ToyEncoder.__new__(ToyEncoder)
        e.obs_dim, e.embed_dim = obs_dim, embed_dim
        e.W, e.b = W, b
        feats, cache = e.encode(obs)
        res = olp_loss(feats[anchor], frozen[positive], labels[anchor], *dictionary.matrix())
        grads = np.zeros_like(feats)
        np.add.at(grads, anchor, hp.alpha * res.anchor_gradients / anchor.size)
        id_val, id_grads = c2hep_loss(feats, labels, pool, table, hp.lam)
        grads += hp.beta * id_grads
        dW, db = e.backward(cache, grads)
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

    @pytest.mark.parametrize("fields,message", [
        ({"lr_initial": -0.5, "lr_final": -0.5}, "lr_initial, lr_final: must be finite and >= 0"),
        ({"lr_final": float("nan")}, "lr_initial, lr_final: must be finite and >= 0"),
        ({"drop_frac": 1.5}, "lr_drop_frac: must be in [0, 1]"),
        ({"drop_frac": float("nan")}, "lr_drop_frac: must be in [0, 1]"),
        ({"lr_initial": float("inf")}, "lr_initial, lr_final: must be finite and >= 0"),
        ({"lr_final": float("inf")}, "lr_initial, lr_final: must be finite and >= 0"),
        ({"lr_initial": float("-inf")}, "lr_initial, lr_final: must be finite and >= 0"),
        ({"lr_final": float("-inf")}, "lr_initial, lr_final: must be finite and >= 0"),
    ])
    def test_checks_its_own_fields(self, fields, message):
        with pytest.raises(InvalidParams) as err:
            Schedule(**fields)
        assert str(err.value) == message

    def test_negative_learning_rate_fails_before_training(self):
        # gradient ascent, once: a direct train() call with a negative
        # schedule fails before iteration 0 reads the generator or the encoder
        world, enc, rng = generate_world(10, latent_dim=4, obs_dim=16), ToyEncoder(16, 8), make_rng(0)
        W, state = enc.W.copy(), rng.bit_generator.state
        with pytest.raises(InvalidParams, match="^lr_initial, lr_final: "):
            train(world, enc, HyperParams(), Schedule(lr_initial=-0.5, lr_final=-0.5),
                  "triplet+hep", 2, 4, 50, rng)
        assert np.array_equal(enc.W, W)
        assert rng.bit_generator.state == state


class RecordingDictionary(FeatureDictionary):
    pushed_labels: list = []

    def push(self, features, labels):
        RecordingDictionary.pushed_labels.extend(labels.tolist())
        super().push(features, labels)


def record_sampler_calls(monkeypatch) -> list:
    """The label matrix of each sample_image_pair call train() makes, in call order."""
    calls = []

    def recording_sampler(*args, **kwargs):
        obs, labels = sample_image_pair(*args, **kwargs)
        calls.append(labels.copy())
        return obs, labels

    monkeypatch.setattr(sim, "sample_image_pair", recording_sampler)
    return calls


def record_iteration_draws(monkeypatch) -> list:
    """Each iteration's (observation rows, label matrix), as train() reads them."""
    draws = []

    def recording_iterations(*args, **kwargs):
        for obs, labels in sample_iterations(*args, **kwargs):
            draws.append((obs.copy(), labels.copy()))
            yield obs, labels

    monkeypatch.setattr(sim, "sample_iterations", recording_iterations)
    return draws


class TestTrain:
    def small_world(self, seed=0, **kw):
        return generate_world(10, latent_dim=4, obs_dim=16, seed=seed, **kw)

    @pytest.mark.parametrize("iters", [1, 4, 5, 13])
    def test_one_sampler_call_per_block_of_iterations(self, iters, monkeypatch):
        """ceil(iters / SAMPLE_BLOCK) calls, each drawing the pairs of a full
        block but the last, which draws the iterations that are left."""
        calls = record_sampler_calls(monkeypatch)
        train(self.small_world(seed=4), ToyEncoder(16, 8), HyperParams(), Schedule(),
              "olp+c2hep", 4, 3, iters, make_rng(4))
        assert len(calls) == math.ceil(iters / sim.SAMPLE_BLOCK)
        blocks = [min(sim.SAMPLE_BLOCK, iters - start)
                  for start in range(0, iters, sim.SAMPLE_BLOCK)]
        assert [labels.shape for labels in calls] == [(4 * block, 3) for block in blocks]

    @pytest.mark.parametrize("images", IMAGES_PER_ITER)
    def test_iterations_are_slices_of_one_call_on_the_spawned_generator(self, images,
                                                                         monkeypatch):
        """Iteration k of a block reads images k * images_per_iter onwards
        of one sample_image_pair call on rng.spawn(1)[0]; 5 iterations end
        in a cut block."""
        draws = record_iteration_draws(monkeypatch)
        world = self.small_world(seed=5)
        train(world, ToyEncoder(16, 8), HyperParams(), Schedule(), "triplet+hep",
              images, 3, 5, make_rng(5))
        sampler_rng = make_rng(5).spawn(1)[0]
        want = []
        for start in range(0, 5, sim.SAMPLE_BLOCK):
            block = min(sim.SAMPLE_BLOCK, 5 - start)
            obs, labels = sample_image_pair(world, block * images // 2, 3, sampler_rng)
            want += zip(np.split(obs, block), np.split(labels, block))
        assert len(draws) == len(want) == 5
        for (obs, labels), (want_obs, want_labels) in zip(draws, want):
            assert np.array_equal(labels, want_labels)
            assert obs.tobytes() == want_obs.tobytes()

    def test_loss_choices_at_one_width_train_on_the_same_images(self, monkeypatch):
        """The pool's random fill reads rng, the sampler its own generator,
        so a loss choice with a pool sees the images of one without."""
        seen = []
        for choice in ("olp", "olp+c2hep", "triplet+hep", "contrastive"):
            draws = record_iteration_draws(monkeypatch)
            train(self.small_world(seed=6), ToyEncoder(16, 8), HyperParams(), Schedule(),
                  choice, 2, 4, 9, make_rng(6))
            seen.append(draws)
        for draws in seen[1:]:
            assert len(draws) == 9
            for (obs, labels), (first_obs, first_labels) in zip(draws, seen[0]):
                assert np.array_equal(labels, first_labels)
                assert obs.tobytes() == first_obs.tobytes()

    def test_invalid_loss_choice(self):
        w = self.small_world()
        with pytest.raises(InvalidParams, match="^loss_choice: "):
            train(w, ToyEncoder(16, 8), HyperParams(), Schedule(),
                  "softmax", 2, 4, 1, make_rng(0))

    def test_invalid_images_per_iter(self):
        w = self.small_world()
        with pytest.raises(InvalidParams, match="^images_per_iter: "):
            train(w, ToyEncoder(16, 8), HyperParams(), Schedule(),
                  "olp", 3, 4, 1, make_rng(0))

    @pytest.mark.parametrize("loss,proposals,multiplier,key", [
        ("olp", 0, 40, "proposals_per_image"),
        ("triplet+hep", 4, 0, "dict_multiplier"),
    ])
    def test_training_settings_checked_on_entry(self, loss, proposals, multiplier, key):
        # the rules ExperimentConfig.validate applies, before the generator is read
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParams, match=f"^{key}: "):
            train(self.small_world(), ToyEncoder(16, 8), HyperParams(), Schedule(),
                  loss, 2, proposals, 1, rng, dict_multiplier=multiplier)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("iters", [0, -3])
    def test_no_iterations_rejected_on_entry(self, iters):
        # no iterations is a bad setting, not an empty log
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParams, match=r"^iters: must be >= 1$"):
            train(self.small_world(), ToyEncoder(16, 8), HyperParams(), Schedule(),
                  "olp+c2hep", 2, 4, iters, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("images", [2, 8])
    @pytest.mark.parametrize("terms", [(metric, identity)
                                       for metric in ("olp", "triplet", "contrastive", None)
                                       for identity in ("c2hep", "hep", None)
                                       if metric or identity],
                             ids=lambda terms: "+".join(filter(None, terms)))
    def test_back_propagating_every_row_changes_no_bit(self, terms, images, monkeypatch):
        """Only the terms in UNLABELED_GRAD_TERMS give rows without an
        identity label a gradient: for each pair of terms, the six loss
        choices and the rest, back-propagating every row, as if every term
        did, trains the same bits."""
        monkeypatch.setitem(sim.LOSS_TERMS, "terms", terms)

        def run():
            world = generate_world(30, sigma_view=1.0, seed=3)
            enc = ToyEncoder(world.obs_dim, seed=3)
            _, rows = train(world, enc, HyperParams(), Schedule(0.05, 0.005), "terms",
                            images, 4, 20, make_rng(3), dict_multiplier=5)
            return enc.W.tobytes(), enc.b.tobytes(), rows

        lean = run()
        every_term = {term for pair in sim.LOSS_TERMS.values() for term in pair} - {None}
        monkeypatch.setattr(sim, "UNLABELED_GRAD_TERMS", frozenset(every_term))
        assert run() == lean

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

    @pytest.mark.parametrize("choice", sim.LOSS_CHOICES)
    def test_dictionary_pushed_only_for_olp(self, choice, monkeypatch):
        # dict_size logs the person rows sampled so far, capped at the
        # capacity, whether or not the loss choice keeps a dictionary
        RecordingDictionary.pushed_labels = []
        monkeypatch.setattr(sim, "FeatureDictionary", RecordingDictionary)
        calls = record_sampler_calls(monkeypatch)
        _, rows = train(self.small_world(seed=3), ToyEncoder(16, 8), HyperParams(),
                        Schedule(), choice, 4, 4, 12, make_rng(3), dict_multiplier=2)
        assert len(calls) == 12 // sim.SAMPLE_BLOCK  # one sampler call per block
        assert all(labels.shape == (sim.SAMPLE_BLOCK * 4, 4) for labels in calls)
        # each call's label matrix, split into its iterations' 4 images each
        person_rows = [int(np.sum(it_labels != LABEL_BACKGROUND))
                       for labels in calls for it_labels in np.split(labels, sim.SAMPLE_BLOCK)]
        capacity = 2 * 4 * 4
        assert sum(person_rows) > capacity
        assert [r.dict_size for r in rows] == np.minimum(np.cumsum(person_rows), capacity).tolist()
        pushed = sum(person_rows) if sim.LOSS_TERMS[choice][0] == "olp" else 0
        assert len(RecordingDictionary.pushed_labels) == pushed

    @pytest.mark.parametrize("choice", sim.LOSS_CHOICES)
    def test_all_loss_choices_run(self, choice):
        w = self.small_world(seed=2)
        enc = ToyEncoder(16, 8, seed=2)
        _, rows = train(w, enc, HyperParams(), Schedule(), choice,
                        2, 4, 10, make_rng(2))
        assert len(rows) == 10
        assert all(np.isfinite(r.total) for r in rows)
        # rows are compared by full-precision repr(), which differs for np.float64
        assert all(type(v) is float for r in rows for v in (r.olp, r.id_loss, r.total))

    def test_divergence_detected(self):
        # after one step at a huge finite rate the head's probabilities underflow
        # to 0, and their log makes the total non-finite
        w = self.small_world(seed=1)
        enc = ToyEncoder(16, 8, seed=1)
        with pytest.raises(DivergenceDetected, match="^non-finite total loss at iteration 1$"):
            train(w, enc, HyperParams(), Schedule(1e150, 1e150),
                  "triplet+hep", 2, 4, 50, make_rng(1))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowed_features_detected(self):
        # lr 1e308 overflows the encoder norm, so the features become exact
        # zeros; they must stop training before any loss or store sees them
        w = self.small_world(seed=1)
        enc = ToyEncoder(16, 8, seed=1)
        with pytest.raises(DivergenceDetected, match="zero or non-finite features"):
            train(w, enc, HyperParams(), Schedule(1e308, 1e308),
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


def test_overfull_pool_warns_once_per_run(caplog):
    """Ground truth alone overfills a pool of one in most iterations; the
    run logs that once, with the count."""
    from test_acceptance import SMALL
    with caplog.at_level(logging.WARNING):
        train_from_config(dataclasses.replace(SMALL, pool_size=1))
    assert len(caplog.records) == 1
    assert "overfull" in caplog.records[0].getMessage()


def test_degenerate_center_updates_warn_once_per_run(caplog, monkeypatch):
    """Every row blended into a seen center is made antipodal to it, so
    each blend cancels; the run logs that once, with the count of
    cancelled rows."""
    counts = []
    blend = ClassCenterTable.update

    def antipodal_update(self, labels, features):
        features = np.where(self.seen[labels, None], -self.centers[labels], features)
        counts.append(blend(self, labels, features))
        return counts[-1]

    monkeypatch.setattr(ClassCenterTable, "update", antipodal_update)
    w = generate_world(10, latent_dim=4, obs_dim=16, seed=4)
    with caplog.at_level(logging.WARNING):
        train(w, ToyEncoder(16, 8, seed=4), HyperParams(pool_size=20), Schedule(),
              "olp+c2hep", 2, 4, 20, make_rng(4))
    assert sum(counts) > 0
    assert [r.getMessage() for r in caplog.records] == [
        f"degenerate center update in {sum(counts)} rows: the blend cancelled "
        "and the old center was kept"]


proposal = st.tuples(st.integers(0, 3), st.integers(LABEL_BACKGROUND, 4))


@given(seed=st.integers(0, 2**32 - 1),
       stored=st.lists(st.tuples(st.integers(0, 3), st.integers(LABEL_UNIDENTIFIED, 4)),
                       max_size=30),
       pairs=st.integers(1, 4), proposals=st.integers(1, 5), data=st.data())
@settings(max_examples=200, deadline=None)
def test_olp_matches_per_subgroup_oracle(seed, stored, pairs, proposals, data):
    """train()'s OLP path (build_subgroups on a (2 * pairs, proposals)
    label matrix, one dictionary read, olp_loss) against
    checks.olp_oracle. Features are copies of four base vectors, so equal
    similarities (within one subgroup and across subgroups) are exact
    ties, which both must order by label; olp_loss keeps each label's
    first place in the oracle's ranking."""
    base = [l2_normalize(v) for v in make_rng(seed).normal(size=(4, 3))]
    dictionary = FeatureDictionary(25, 3)
    dictionary.push([base[k] for k, _ in stored], [lab for _, lab in stored])
    rows = data.draw(st.lists(proposal, min_size=2 * pairs * proposals,
                              max_size=2 * pairs * proposals))
    feats = np.array([base[k] for k, _ in rows])
    label_matrix = np.array([lab for _, lab in rows]).reshape(2 * pairs, proposals)
    labels = label_matrix.ravel()
    anchor, positive = build_subgroups(label_matrix).T
    if anchor.size == 0:
        with pytest.raises(EmptySubgroups):
            olp_loss(feats[anchor], feats[positive], labels[anchor], *dictionary.matrix())
        return

    res = olp_loss(feats[anchor], feats[positive], labels[anchor], *dictionary.matrix())
    loss, grads, ranked = olp_oracle(feats[anchor], feats[positive], labels[anchor], dictionary)
    assert res.hard_ranked.tolist() == list(dict.fromkeys(ranked))
    assert abs(res.loss - loss) <= 1e-12
    np.testing.assert_allclose(res.anchor_gradients, grads, rtol=0, atol=1e-12)
