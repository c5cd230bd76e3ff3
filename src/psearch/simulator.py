"""Synthetic person-search world and desk-scale trainer.

The world has C identity prototypes in a latent space, lifted into a
higher-dimensional observation space by a fixed random map. A scene
image is a bag of proposal observations: labeled persons, unlabeled
persons (-1), and backgrounds (-2). All proposals in one image share a
camera offset, which models cross-view intra-class variation.
"""

from __future__ import annotations

import logging
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
    c2hep_loss,
    contrastive_loss,
    hep_loss,
    olp_loss,
    triplet_loss,
)
from .numerics import l2_normalize, make_rng
from .pairing import build_subgroups, select_priority_pool

log = logging.getLogger(__name__)

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


def check_world(num_identities: int, latent_dim: int, obs_dim: int, sigma_view: float,
                sigma_noise: float, unlabeled_fraction: float,
                background_fraction: float) -> None:
    """The world settings generate_world can build; InvalidParams otherwise."""
    if num_identities < 2:
        raise InvalidParams("num_identities: must be >= 2 for a retrieval task")
    if latent_dim < 2:
        raise InvalidParams("latent_dim: must be >= 2")
    if obs_dim < 2 * latent_dim:
        raise InvalidParams("obs_dim: must be >= 2 * latent_dim for disjoint subspaces")
    if not (sigma_view >= 0 and sigma_noise >= 0):
        raise InvalidParams("sigma_view, sigma_noise: must be >= 0")
    if not (0 <= unlabeled_fraction <= 1 and 0 <= background_fraction <= 1):
        raise InvalidParams("unlabeled_fraction, background_fraction: must be in [0, 1]")


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
    check_world(num_identities, latent_dim, obs_dim, sigma_view, sigma_noise,
                unlabeled_fraction, background_fraction)
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


def observe(
    world: SyntheticWorld,
    protos: np.ndarray,
    offsets: np.ndarray,
    jitter: np.ndarray,
) -> np.ndarray:
    """Observation rows: each latent prototype plus its jitter, lifted,
    plus its camera offset in the view subspace.

    offsets and jitter are standard normal rows (offsets may broadcast
    over the prototypes). Dividing them by sqrt(latent_dim) makes
    sigma_view / sigma_noise the expected norms of the nuisance
    components relative to the unit-norm identity component.
    """
    scale = math.sqrt(world.latent_dim)
    obs = (protos + world.sigma_noise * (jitter / scale)) @ world.lift_map.T
    obs += world.sigma_view * ((offsets / scale) @ world.view_map.T)
    return obs


def sample_image_pair(
    world: SyntheticWorld,
    pairs: int,
    proposals_per_image: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """All image pairs of one iteration, as observation rows (image by
    image) and a (2 * pairs, proposals_per_image) label matrix. Images
    2t and 2t+1 form pair t; their first proposals share one identity.

    Each other proposal is a background with probability
    background_fraction, else an unlabeled person with probability
    unlabeled_fraction, else a uniformly drawn identity. The generator is
    read in bulk, in this order: each pair's shared identity (choice), a
    uniform per other proposal (random), an identity per other proposal
    (integers), one normal block of each image's camera offset row and each
    proposal's prototype and jitter rows, then one normal block with a
    row per background. At one pair this order must not change: every
    2-images/iter training stream depends on it. Unlabeled persons take
    their normalised prototype row; all rows of an image share its camera
    offset. The name stays because perfbench's tracer looks it up.
    """
    if proposals_per_image < 1:
        raise InvalidParams("proposals_per_image must be >= 1")
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


class ToyEncoder:
    """Affine map obs_dim -> 256 followed by L2 normalization."""

    def __init__(self, obs_dim: int, embed_dim: int = EMBED_DIM, seed: int = 0):
        rng = make_rng(seed)
        self.obs_dim = obs_dim
        self.embed_dim = embed_dim
        self.W = rng.normal(size=(embed_dim, obs_dim)) / math.sqrt(obs_dim)
        self.b = np.zeros(embed_dim)

    def encode(self, obs: np.ndarray):
        """Unit features of observation rows (or of one observation),
        and the cache for backward."""
        x = obs @ self.W.T
        x += self.b
        norm = np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
        x /= norm
        return x, (obs, x, norm)

    def backward(self, cache, dx: np.ndarray):
        """Gradient of the pre-normalization affine parameters, summed
        over the rows of dx.

        Chains each row through the normalization Jacobian (I - x x^T)/||z||.
        Returns (dW, db).
        """
        obs, x, norm = cache
        dz = (dx - x * np.einsum("...i,...i->...", x, dx)[..., None]) / norm
        return dz.T @ obs, dz.sum(axis=0)


class ClassifierHead:
    """Learned affine map from embeddings to C+1 scores (last = background)."""

    def __init__(self, num_classes: int, embed_dim: int = EMBED_DIM, seed: int = 1):
        rng = make_rng(seed)
        self.num_classes = num_classes
        self.A = rng.normal(size=(num_classes + 1, embed_dim)) / math.sqrt(embed_dim)
        self.c = np.zeros(num_classes + 1)

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Score rows for feature rows."""
        return x @ self.A.T + self.c

    def backward(self, x: np.ndarray, dscores: np.ndarray):
        """Returns (dA, dc, dx), dA and dc summed over the rows."""
        return dscores.T @ x, dscores.sum(axis=0), dscores @ self.A


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
    """Per iteration: one sampler call draws every image, then encode,
    the loss alpha * metric + beta * identity, an SGD step through the
    normalization Jacobian, and one dictionary push (olp, the only metric
    term that reads the dictionary). c2hep updates the centers twice:
    before the loss it installs unseen labels from their first rows, which
    c2hep_loss needs, and after the SGD step it blends in every labeled row.

    An iteration is a few arrays: the sampled observation and label
    matrices, the feature matrix X (one row per proposal), its labels
    y = labels.ravel(), one read of the dictionary, and one gradient
    matrix G that every loss term adds into. Center updates that cancel
    keep the old center and are logged once per run.
    """
    if loss_choice not in LOSS_TERMS:
        raise InvalidParams(f"unknown loss choice {loss_choice!r}")
    if images_per_iter not in IMAGES_PER_ITER:
        raise InvalidParams(f"images_per_iter must be one of {IMAGES_PER_ITER}")
    metric, identity = LOSS_TERMS[loss_choice]

    capacity = dict_multiplier * proposals_per_image * images_per_iter
    # dict_size logs the person rows a dictionary holds, or would hold. The
    # ring is allocated before any iteration's arrays, so that a repeated
    # train() reuses the previous run's freed ring instead of a new region
    dictionary = FeatureDictionary(capacity, encoder.embed_dim) if metric == "olp" else None
    stored = 0
    if identity == "c2hep":
        centers = ClassCenterTable(num_classes=world.num_identities, phi=hp.phi)
    elif identity == "hep":
        head = ClassifierHead(world.num_identities, encoder.embed_dim)
    bg_class = world.num_identities
    overfull = degenerate = 0

    log_rows: list[TrainLogRow] = []
    for it in range(iters):
        lr = schedule.lr_at(it, iters)
        obs, labels = sample_image_pair(world, images_per_iter // 2, proposals_per_image, rng)
        y = labels.ravel()
        X, cache = encoder.encode(obs)
        # an overflowed encoder norm gives zero rows; no loss or store may see them
        if not (np.all(np.isfinite(X)) and np.all(X.any(axis=1))):
            raise DivergenceDetected(f"zero or non-finite features at iteration {it}")
        person = np.flatnonzero(y != LABEL_BACKGROUND)
        labeled = np.flatnonzero(y >= 0)
        G = np.zeros_like(X)

        metric_val = 0.0
        hard_ranked = np.zeros(0, dtype=np.int64)
        if metric == "olp":
            anchor, positive = build_subgroups(labels).T
            if anchor.size:
                res = olp_loss(X[anchor], X[positive], y[anchor], *dictionary.matrix())
                metric_val, hard_ranked = res.loss, res.hard_ranked
                np.add.at(G, anchor, hp.alpha * res.anchor_gradients / anchor.size)
        elif metric is not None:
            term = triplet_loss if metric == "triplet" else contrastive_loss
            margin = hp.triplet_margin if metric == "triplet" else hp.contrastive_margin
            metric_val, grads = term(X[person], y[person], margin)
            G[person] += hp.alpha * grads

        id_val = 0.0
        pool_len = 0
        if identity is not None:
            extra = {bg_class} if identity == "hep" else frozenset()
            pool = select_priority_pool(
                y[labeled], hard_ranked, hp.pool_size, hp.top_negatives,
                world.num_identities, rng, extra_labels=extra,
            )
            pool_len = len(pool)
            overfull += pool_len > hp.pool_size
            if identity == "c2hep" and labeled.size:
                labs, first = np.unique(y[labeled], return_index=True)
                fresh = labeled[first[~centers.seen[labs]]]
                degenerate += centers.update(y[fresh], X[fresh])
                id_val, grads = c2hep_loss(X[labeled], y[labeled], pool, centers, hp.lam)
                G[labeled] += hp.beta * grads
            elif identity == "hep":
                # identities, plus backgrounds as class bg_class; unlabeled persons skipped
                rows = np.flatnonzero(y != LABEL_UNIDENTIFIED)
                if rows.size:
                    targets = np.where(y[rows] >= 0, y[rows], bg_class)
                    id_val, dscores = hep_loss(head.scores(X[rows]), targets, pool)
                    dA, dc, dX = head.backward(X[rows], dscores)
                    G[rows] += hp.beta * dX
                    head.A -= lr * (hp.beta * dA)
                    head.c -= lr * (hp.beta * dc)

        total = hp.alpha * metric_val + hp.beta * id_val
        if not np.isfinite(total):
            raise DivergenceDetected(f"non-finite total loss at iteration {it}")

        dW, db = encoder.backward(cache, G)
        encoder.W -= lr * dW
        encoder.b -= lr * db

        # store after loss computation: current-iteration features never self-match
        if dictionary is not None:
            dictionary.push(X[person], y[person])
        stored = min(stored + person.size, capacity)
        if identity == "c2hep":
            degenerate += centers.update(y[labeled], X[labeled])

        log_rows.append(TrainLogRow(
            iteration=it, olp=metric_val, id_loss=id_val, total=total,
            dict_size=stored, pool_size=pool_len, lr=lr,
        ))
    if overfull:
        log.warning("priority pool overfull in %d of %d iterations: ground truth "
                    "alone exceeded pool_size %d", overfull, iters, hp.pool_size)
    if degenerate:
        log.warning("degenerate center update in %d rows: the blend cancelled and "
                    "the old center was kept", degenerate)
    return encoder, log_rows
