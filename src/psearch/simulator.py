"""Synthetic person-search world and desk-scale trainer.

The world has C identity prototypes in a latent space, lifted into a
higher-dimensional observation space by a fixed random map. A scene
image is a bag of proposal observations: labeled persons, unlabeled
persons (-1), and backgrounds (-2). All proposals in one image share a
camera offset, which models cross-view intra-class variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionaries import (
    ClassCenterTable,
    FeatureDictionary,
    HyperParams,
    LABEL_BACKGROUND,
    LABEL_UNIDENTIFIED,
)
from .errors import DivergenceDetected, InvalidParams
from .losses import (
    ClassifierScores,
    c2hep_loss,
    combined_loss,
    contrastive_loss,
    hep_loss,
    olp_loss,
    triplet_loss,
)
from .numerics import l2_normalize, make_rng
from .pairing import build_subgroups, same_label_pairs, select_priority_pool

EMBED_DIM = 256

# loss choice -> (metric term, identity term), in `ablate loss-choice` row order
LOSS_TERMS = {
    "olp+c2hep": ("olp", "c2hep"),
    "olp+hep": ("olp", "hep"),
    "olp": ("olp", None),
    "c2hep": (None, "c2hep"),
    "triplet+hep": ("triplet", "hep"),
    "contrastive": ("contrastive", None),
}
LOSS_CHOICES = tuple(LOSS_TERMS)
IMAGES_PER_ITER = (2, 4, 8)


@dataclass
class SyntheticWorld:
    num_identities: int
    latent_dim: int
    obs_dim: int
    prototypes: np.ndarray  # (C, latent_dim), unit rows
    lift_map: np.ndarray    # (obs_dim, latent_dim), orthonormal columns
    view_map: np.ndarray    # (obs_dim, latent_dim), orthonormal columns, disjoint subspace
    sigma_view: float
    sigma_noise: float
    unlabeled_fraction: float
    background_fraction: float
    seed: int


@dataclass
class SceneImage:
    proposals: list[tuple[np.ndarray, int]]
    camera_offset: np.ndarray


def generate_world(
    num_identities: int,
    latent_dim: int = 32,
    obs_dim: int = 128,
    sigma_view: float = 0.4,
    sigma_noise: float = 0.1,
    unlabeled_fraction: float = 0.2,
    background_fraction: float = 0.25,
    seed: int = 0,
) -> SyntheticWorld:
    """Deterministic world from seed; prototypes unit-norm and distinct."""
    if num_identities < 2:
        raise InvalidParams("need at least two identities for a retrieval task")
    if latent_dim < 2 or obs_dim < 2:
        raise InvalidParams("dimensions must be >= 2")
    if obs_dim < 2 * latent_dim:
        raise InvalidParams("obs_dim must be >= 2 * latent_dim for disjoint subspaces")
    rng = make_rng(seed)
    protos = rng.normal(size=(num_identities, latent_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    # enforce a strictly positive minimum pairwise angle
    for _ in range(100):
        gram = protos @ protos.T
        np.fill_diagonal(gram, 0.0)
        clashes = np.argwhere(gram >= 1.0 - 1e-12)
        if clashes.size == 0:
            break
        for i in set(int(c[0]) for c in clashes):
            protos[i] = l2_normalize(rng.normal(size=latent_dim))
    # identity and view subspaces are orthogonal complements inside a random
    # orthonormal frame, so the view nuisance is removable only by learning
    basis, _ = np.linalg.qr(rng.normal(size=(obs_dim, 2 * latent_dim)))
    lift = basis[:, :latent_dim]
    view = basis[:, latent_dim:]
    return SyntheticWorld(
        num_identities=num_identities,
        latent_dim=latent_dim,
        obs_dim=obs_dim,
        prototypes=protos,
        lift_map=lift,
        view_map=view,
        sigma_view=sigma_view,
        sigma_noise=sigma_noise,
        unlabeled_fraction=unlabeled_fraction,
        background_fraction=background_fraction,
        seed=seed,
    )


def person_observation(
    world: SyntheticWorld,
    latent_prototype: np.ndarray,
    camera_offset: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Identity signal plus shared view offset plus per-proposal jitter.

    The offset and jitter are pre-scaled so sigma_view / sigma_noise are
    the expected norms of the nuisance components relative to the
    unit-norm identity component.
    """
    eps = rng.normal(size=world.latent_dim) / math.sqrt(world.latent_dim)
    ident = latent_prototype + world.sigma_noise * eps
    return world.lift_map @ ident + world.sigma_view * (world.view_map @ camera_offset)


def draw_camera_offset(world: SyntheticWorld, rng: np.random.Generator) -> np.ndarray:
    """Per-image view offset with expected unit norm."""
    return rng.normal(size=world.latent_dim) / math.sqrt(world.latent_dim)


def sample_image_pair(
    world: SyntheticWorld,
    proposals_per_image: int,
    rng: np.random.Generator,
    shared_identities: int = 1,
) -> tuple[SceneImage, SceneImage]:
    """Two images guaranteed to share >= 1 labeled identity."""
    if proposals_per_image < 1:
        raise InvalidParams("proposals_per_image must be >= 1")
    n_shared = min(shared_identities, proposals_per_image, world.num_identities)
    shared = rng.choice(world.num_identities, size=n_shared, replace=False)
    images = []
    for _ in range(2):
        offset = draw_camera_offset(world, rng)
        proposals: list[tuple[np.ndarray, int]] = []
        for ident in shared:
            obs = person_observation(world, world.prototypes[ident], offset, rng)
            proposals.append((obs, int(ident)))
        while len(proposals) < proposals_per_image:
            u = rng.random()
            if u < world.background_fraction:
                proposals.append((rng.normal(size=world.obs_dim), LABEL_BACKGROUND))
            elif u < world.background_fraction + world.unlabeled_fraction:
                anon = l2_normalize(rng.normal(size=world.latent_dim))
                obs = person_observation(world, anon, offset, rng)
                proposals.append((obs, LABEL_UNIDENTIFIED))
            else:
                ident = int(rng.integers(world.num_identities))
                obs = person_observation(world, world.prototypes[ident], offset, rng)
                proposals.append((obs, ident))
        images.append(SceneImage(proposals=proposals, camera_offset=offset))
    return images[0], images[1]


class ToyEncoder:
    """Affine map obs_dim -> 256 followed by L2 normalization."""

    def __init__(self, obs_dim: int, embed_dim: int = EMBED_DIM, seed: int = 0):
        rng = make_rng(seed)
        self.obs_dim = obs_dim
        self.embed_dim = embed_dim
        self.W = rng.normal(size=(embed_dim, obs_dim)) / math.sqrt(obs_dim)
        self.b = np.zeros(embed_dim)

    def encode(self, obs: np.ndarray):
        """Returns (unit feature, cache for backward)."""
        z = self.W @ obs + self.b
        norm = float(np.linalg.norm(z))
        x = z / norm
        return x, (obs, x, norm)

    def backward(self, cache, dx: np.ndarray):
        """Gradient of the pre-normalization affine parameters.

        Chains dx through the normalization Jacobian (I - x x^T)/||z||.
        Returns (dW, db).
        """
        obs, x, norm = cache
        dz = (dx - x * float(np.dot(x, dx))) / norm
        return np.outer(dz, obs), dz


class ClassifierHead:
    """Learned affine map from embeddings to C+1 scores (last = background)."""

    def __init__(self, num_classes: int, embed_dim: int = EMBED_DIM, seed: int = 1):
        rng = make_rng(seed)
        self.num_classes = num_classes
        self.A = rng.normal(size=(num_classes + 1, embed_dim)) / math.sqrt(embed_dim)
        self.c = np.zeros(num_classes + 1)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x + self.c

    def backward(self, x: np.ndarray, dscores: np.ndarray):
        """Returns (dA, dc, dx)."""
        return np.outer(dscores, x), dscores, self.A.T @ dscores


@dataclass
class TrainLogRow:
    iteration: int
    olp: float
    id_loss: float
    total: float
    dict_size: int
    pool_size: int
    lr: float


@dataclass
class Schedule:
    """Step schedule: lr_initial until drop_frac of iterations, then lr_final."""
    lr_initial: float = 0.01
    lr_final: float = 0.001
    drop_frac: float = 0.6

    def lr_at(self, iteration: int, total_iters: int) -> float:
        if iteration < self.drop_frac * total_iters:
            return self.lr_initial
        return self.lr_final


def _batch_olp(pairs, feats, labels, dictionary):
    """OLP over all image pairs; returns (loss, grads-by-index, hard ranking).
    The ranking is all negative labels by descending anchor similarity;
    ties keep subgroup, then dictionary, order."""
    subgroups = []
    anchors: list[int] = []  # proposal index of each subgroup's anchor
    for pair in pairs:
        subgroups += build_subgroups(
            [[(feats[i], labels[i]) for i in idx] for idx in pair], dictionary)
        flat = [*pair[0], *pair[1]]
        for i, j in same_label_pairs([labels[k] for k in flat]):
            anchors += (flat[i], flat[j])
    if not subgroups:
        return 0.0, {}, []
    result = olp_loss(subgroups)
    m = len(subgroups)
    grads: dict[int, np.ndarray] = {}
    for ai, g in zip(anchors, result.anchor_gradients):
        grads[ai] = grads.get(ai, 0.0) + g / m
    order = np.argsort(-np.concatenate(result.negative_sims), kind="stable")
    neg_labels = [lab for sg in subgroups for lab in sg.negative_labels]
    return result.loss, grads, [neg_labels[k] for k in order.tolist()]


def _batch_triplet(feats, labels, person_idx, margin):
    """In-batch triplet terms, no dictionary: anchors/positives/negatives
    all come from the current iteration."""
    terms = []
    active = []  # (a, p, n) proposal indices of active hinges
    for i in person_idx:
        if labels[i] < 0:
            continue
        for j in person_idx:
            if j == i or labels[j] != labels[i]:
                continue
            for k in person_idx:
                if labels[k] == labels[i]:
                    continue
                val = triplet_loss(feats[i], feats[j], feats[k], margin)
                terms.append(val)
                if val > 0.0:
                    active.append((i, j, k))
    if not terms:
        return 0.0, {}
    n = len(terms)
    grads: dict[int, np.ndarray] = {}
    for a, p, ng in active:
        grads[a] = grads.get(a, 0.0) + (feats[ng] - feats[p]) / n
        grads[p] = grads.get(p, 0.0) + (-feats[a]) / n
        grads[ng] = grads.get(ng, 0.0) + feats[a] / n
    return math.fsum(terms) / n, grads


def _batch_contrastive(feats, labels, person_idx, margin):
    """In-batch contrastive terms over labeled proposals only.

    Positive and negative pairs are averaged separately so the few
    same-identity pairs are not drowned out by the quadratic number of
    different-identity pairs.
    """
    labeled = [i for i in person_idx if labels[i] >= 0]
    pos_pairs = []
    neg_pairs = []
    for a in range(len(labeled)):
        for b in range(a + 1, len(labeled)):
            i, j = labeled[a], labeled[b]
            if labels[i] == labels[j]:
                pos_pairs.append((i, j))
            else:
                neg_pairs.append((i, j))
    if not pos_pairs and not neg_pairs:
        return 0.0, {}
    grads: dict[int, np.ndarray] = {}
    loss = 0.0
    if pos_pairs:
        n = len(pos_pairs)
        terms = []
        for i, j in pos_pairs:
            terms.append(contrastive_loss(feats[i], feats[j], True, margin))
            grads[i] = grads.get(i, 0.0) - feats[j] / n
            grads[j] = grads.get(j, 0.0) - feats[i] / n
        loss += math.fsum(terms) / n
    if neg_pairs:
        n = len(neg_pairs)
        terms = []
        for i, j in neg_pairs:
            val = contrastive_loss(feats[i], feats[j], False, margin)
            terms.append(val)
            if val > 0.0:
                grads[i] = grads.get(i, 0.0) + feats[j] / n
                grads[j] = grads.get(j, 0.0) + feats[i] / n
        loss += math.fsum(terms) / n
    return loss, grads


def train(
    world: SyntheticWorld,
    encoder: ToyEncoder,
    hp: HyperParams,
    schedule: Schedule,
    loss_choice: str,
    images_per_iter: int,
    proposals_per_image: int,
    iters: int,
    rng: np.random.Generator,
    dict_multiplier: int = 40,
) -> tuple[ToyEncoder, list[TrainLogRow]]:
    """Four-step loop per iteration: encode, compute losses (detection
    term fixed to zero), SGD step through the normalization Jacobian,
    then dictionary pushes and center updates."""
    if loss_choice not in LOSS_TERMS:
        raise InvalidParams(f"unknown loss choice {loss_choice!r}")
    if images_per_iter not in IMAGES_PER_ITER:
        raise InvalidParams(f"images_per_iter must be one of {IMAGES_PER_ITER}")
    metric, identity = LOSS_TERMS[loss_choice]

    capacity = dict_multiplier * proposals_per_image * images_per_iter
    dictionary = FeatureDictionary(capacity)
    centers = ClassCenterTable(num_classes=world.num_identities, phi=hp.phi)
    if identity == "hep":
        head = ClassifierHead(world.num_identities, encoder.embed_dim)
    bg_class = world.num_identities

    log_rows: list[TrainLogRow] = []
    for it in range(iters):
        lr = schedule.lr_at(it, iters)
        # encode this iteration's proposals
        feats: list[np.ndarray] = []
        labels: list[int] = []
        caches = []
        pairs = []
        for _ in range(images_per_iter // 2):
            img1, img2 = sample_image_pair(world, proposals_per_image, rng)
            idx1, idx2 = [], []
            for img, idx in ((img1, idx1), (img2, idx2)):
                for obs, lab in img.proposals:
                    x, cache = encoder.encode(obs)
                    idx.append(len(feats))
                    feats.append(x)
                    labels.append(lab)
                    caches.append(cache)
            pairs.append((idx1, idx2))
        person_idx = [i for i in range(len(feats)) if labels[i] != LABEL_BACKGROUND]
        labeled_idx = [i for i in person_idx if labels[i] >= 0]

        if feats and not np.all(np.isfinite(feats)):
            raise DivergenceDetected(f"non-finite features at iteration {it}")

        feat_grads: dict[int, np.ndarray] = {}
        olp_val = 0.0
        metric_grads: dict[int, np.ndarray] = {}
        hard_ranked: list[int] = []
        if metric == "olp":
            olp_val, metric_grads, hard_ranked = _batch_olp(pairs, feats, labels, dictionary)
        elif metric == "triplet":
            olp_val, metric_grads = _batch_triplet(feats, labels, person_idx, hp.triplet_margin)
        elif metric == "contrastive":
            olp_val, metric_grads = _batch_contrastive(feats, labels, person_idx, hp.contrastive_margin)
        for i, g in metric_grads.items():
            feat_grads[i] = feat_grads.get(i, 0.0) + hp.alpha * g

        id_val = 0.0
        pool_len = 0
        dA = dc = None
        if identity is not None:
            gt = {labels[i] for i in labeled_idx}
            extra = {bg_class} if identity == "hep" else frozenset()
            pool = select_priority_pool(
                gt, hard_ranked, hp.pool_size, hp.top_negatives,
                world.num_identities, rng, extra_labels=extra,
            )
            pool_len = len(pool)
            if identity == "c2hep" and labeled_idx:
                for i in labeled_idx:
                    if not centers.has(labels[i]):
                        centers.update(labels[i], feats[i])
                samples = [(feats[i], labels[i]) for i in labeled_idx]
                id_val, fgrads = c2hep_loss(samples, pool, centers, hp.lam)
                for i, g in zip(labeled_idx, fgrads):
                    feat_grads[i] = feat_grads.get(i, 0.0) + hp.beta * g
            elif identity == "hep":
                # identities, then backgrounds as class bg_class; unlabeled persons skipped
                sample_idx = labeled_idx + [
                    i for i, lab in enumerate(labels) if lab == LABEL_BACKGROUND]
                samples = []
                for i in sample_idx:
                    lab = labels[i] if labels[i] >= 0 else bg_class
                    samples.append(ClassifierScores(head.scores(feats[i]), lab))
                if samples:
                    id_val, sgrads = hep_loss(samples, pool)
                    dA = np.zeros_like(head.A)
                    dc = np.zeros_like(head.c)
                    for i, g in zip(sample_idx, sgrads):
                        gA, gc, gx = head.backward(feats[i], g)
                        dA += gA
                        dc += gc
                        feat_grads[i] = feat_grads.get(i, 0.0) + hp.beta * gx
                    dA *= hp.beta
                    dc *= hp.beta

        breakdown = combined_loss(0.0, olp_val, id_val, hp)
        if not np.isfinite(breakdown.total):
            raise DivergenceDetected(f"non-finite total loss at iteration {it}")

        dW = np.zeros_like(encoder.W)
        db = np.zeros_like(encoder.b)
        for i, g in feat_grads.items():
            gW, gb = encoder.backward(caches[i], g)
            dW += gW
            db += gb
        encoder.W -= lr * dW
        encoder.b -= lr * db
        if dA is not None:
            head.A -= lr * dA
            head.c -= lr * dc

        # store after loss computation: current-iteration features never self-match
        for i in person_idx:
            dictionary.push(feats[i], labels[i])
        for i in labeled_idx:
            centers.update(labels[i], feats[i])

        log_rows.append(TrainLogRow(
            iteration=it, olp=olp_val, id_loss=id_val, total=breakdown.total,
            dict_size=len(dictionary), pool_size=pool_len, lr=lr,
        ))
    return encoder, log_rows
