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
# the terms that give a gradient to rows without an identity label: hep
# scores backgrounds, triplet takes unlabeled rows as negatives
UNLABELED_GRAD_TERMS = frozenset({"hep", "triplet"})
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
    if not (0 <= sigma_view < math.inf and 0 <= sigma_noise < math.inf):
        raise InvalidParams("sigma_view, sigma_noise: must be finite and >= 0")
    if not (0 <= unlabeled_fraction <= 1 and 0 <= background_fraction <= 1):
        raise InvalidParams("unlabeled_fraction, background_fraction: must be in [0, 1]")


def check_proposals(proposals_per_image: int) -> None:
    """The proposal count train() and sample_image_pair take; InvalidParams otherwise."""
    if proposals_per_image < 1:
        raise InvalidParams("proposals_per_image: must be >= 1")


def check_training(loss_choice: str, images_per_iter: int, proposals_per_image: int,
                   iters: int, dict_multiplier: int) -> None:
    """The training settings train() runs with; InvalidParams otherwise."""
    if images_per_iter not in IMAGES_PER_ITER:
        raise InvalidParams(f"images_per_iter: must be one of {IMAGES_PER_ITER}")
    check_proposals(proposals_per_image)
    if iters < 1:
        raise InvalidParams("iters: must be >= 1")
    if dict_multiplier < 1:
        raise InvalidParams("dict_multiplier: must be >= 1")
    if loss_choice not in LOSS_TERMS:
        raise InvalidParams(f"loss_choice: {loss_choice!r} not in {LOSS_CHOICES}")


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
    read in bulk, in this order: each pair's shared identity (integers,
    the draw choice makes), a uniform per other proposal (random), an
    identity per other proposal (integers), one normal block of each
    image's camera offset row and each proposal's prototype and jitter rows,
    then one normal block with a row per background. This order must not
    change: every training stream depends on it. Unlabeled persons take
    their normalised prototype row; all rows of an image share its camera
    offset. A proposal count below 1 raises InvalidParams before any draw.
    The name stays because perfbench's tracer looks it up.
    """
    check_proposals(proposals_per_image)
    n, dim, images = proposals_per_image, world.latent_dim, 2 * pairs
    labels = np.empty((images, n), dtype=np.int64)
    labels[0::2, 0] = labels[1::2, 0] = rng.integers(world.num_identities, size=pairs)
    u = rng.random((images, n - 1))
    labels[:, 1:] = rng.integers(world.num_identities, size=(images, n - 1))
    labels[:, 1:][u < world.background_fraction + world.unlabeled_fraction] = LABEL_UNIDENTIFIED
    labels[:, 1:][u < world.background_fraction] = LABEL_BACKGROUND
    z = rng.normal(size=(images, 1 + 2 * n, dim))
    protos = world.prototypes[np.maximum(labels, 0)]
    unlabeled = labels == LABEL_UNIDENTIFIED
    anon = z[:, 1:n + 1][unlabeled]
    protos[unlabeled] = anon / np.sqrt(np.add.reduce(anon * anon, axis=-1, keepdims=True))
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

    def scores(self, x: np.ndarray, pool: np.ndarray):
        """Score rows for feature rows, one column per pool class, and the cache for backward."""
        A = self.A[pool]
        return x @ A.T + self.c[pool], (x, A)

    def backward(self, cache, dscores: np.ndarray):
        """Returns (dA, dc, dx), dA and dc of the pool rows, summed over the rows."""
        x, A = cache
        return dscores.T @ x, dscores.sum(axis=0), dscores @ A


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
    """Step schedule: lr_initial until drop_frac of iterations, then lr_final.
    Checks its own fields, as HyperParams does (InvalidParams)."""
    lr_initial: float = 0.01
    lr_final: float = 0.001
    drop_frac: float = 0.6

    def __post_init__(self):
        # written so that NaN fails every comparison; inf fails the upper bound
        if not (0 <= self.lr_initial < math.inf and 0 <= self.lr_final < math.inf):
            raise InvalidParams("lr_initial, lr_final: must be finite and >= 0")
        if not (0.0 <= self.drop_frac <= 1.0):
            raise InvalidParams("lr_drop_frac: must be in [0, 1]")

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
    normalization Jacobian (of the labeled rows only, unless a term in
    UNLABELED_GRAD_TERMS is chosen), and one dictionary push (olp, the only
    metric term that reads the dictionary). c2hep updates the centers
    twice: before the loss it installs unseen labels from their first rows,
    which c2hep_loss needs, and after the SGD step it blends in every
    labeled row.

    An iteration is a few arrays: the sampled observation and label
    matrices, the feature matrix X (one row per proposal), its labels
    y = labels.ravel(), one read of the dictionary, and one gradient
    matrix G that every loss term adds into. Center updates that cancel
    keep the old center and are logged once per run. The sampler gives the
    first proposals of each image pair one shared identity, so every
    iteration has at least two subgroups, labeled rows and hep rows per
    pair, and no loss term is ever empty.
    """
    check_training(loss_choice, images_per_iter, proposals_per_image, iters, dict_multiplier)
    metric, identity = LOSS_TERMS[loss_choice]
    # without those terms only labeled rows get a gradient: olp anchors, c2hep, contrastive
    labeled_grads_only = UNLABELED_GRAD_TERMS.isdisjoint((metric, identity))

    capacity = dict_multiplier * proposals_per_image * images_per_iter
    # dict_size logs the person rows a dictionary holds, or would hold. The
    # ring is allocated before any iteration's arrays, so that a repeated
    # train() reuses the previous run's freed ring instead of a new region
    dictionary = FeatureDictionary(capacity, encoder.embed_dim) if metric == "olp" else None
    stored = 0
    if identity == "c2hep":
        centers = ClassCenterTable(world.num_identities, encoder.embed_dim, phi=hp.phi)
    elif identity == "hep":
        head = ClassifierHead(world.num_identities, encoder.embed_dim)
    bg_class = world.num_identities
    extra = {bg_class} if identity == "hep" else frozenset()
    hard_ranked = np.zeros(0, dtype=np.int64)  # only olp ranks negatives
    metric_val, id_val, pool_len = 0.0, 0.0, 0  # a loss term that is not chosen stays 0
    overfull = degenerate = 0

    log_rows: list[TrainLogRow] = []
    with np.errstate(divide="ignore"):  # log(0) gives a non-finite total, reported below
        for it in range(iters):
            lr = schedule.lr_at(it, iters)
            obs, labels = sample_image_pair(world, images_per_iter // 2, proposals_per_image, rng)
            y = labels.ravel()
            X, cache = encoder.encode(obs)
            # finite positive norms make finite nonzero rows; an overflowed norm zeroes them
            if not (cache[2].min() > 0.0 and cache[2].max() < np.inf):
                raise DivergenceDetected(f"zero or non-finite features at iteration {it}")
            person = (y != LABEL_BACKGROUND).nonzero()[0]
            labeled = (y >= 0).nonzero()[0]
            y_lab = y[labeled]
            G = np.zeros(X.shape)

            if metric == "olp":
                anchor, positive = build_subgroups(labels).T
                res = olp_loss(X[anchor], X[positive], y[anchor], *dictionary.matrix())
                metric_val, hard_ranked = res.loss, res.hard_ranked
                np.add.at(G, anchor, hp.alpha * res.anchor_gradients / anchor.size)
            elif metric is not None:
                term = triplet_loss if metric == "triplet" else contrastive_loss
                margin = hp.triplet_margin if metric == "triplet" else hp.contrastive_margin
                metric_val, grads = term(X[person], y[person], margin)
                G[person] += hp.alpha * grads

            if identity is not None:
                pool = select_priority_pool(
                    y_lab, hard_ranked, hp.pool_size, hp.top_negatives,
                    world.num_identities, rng, extra_labels=extra,
                )
                pool_len = len(pool)
                overfull += pool_len > hp.pool_size
                if identity == "c2hep":
                    if not centers.seen[y_lab].all():
                        labs, first = np.unique(y_lab, return_index=True)
                        fresh = labeled[first[~centers.seen[labs]]]
                        degenerate += centers.update(y[fresh], X[fresh])
                    id_val, grads = c2hep_loss(X[labeled], y_lab, pool, centers, hp.lam)
                    G[labeled] += hp.beta * grads
                elif identity == "hep":
                    # identities, plus backgrounds as class bg_class; unlabeled persons skipped
                    rows = (y != LABEL_UNIDENTIFIED).nonzero()[0]
                    targets = np.where(y[rows] >= 0, y[rows], bg_class)
                    # only pool rows of the head have a loss term, so only they are
                    # scored and stepped
                    scores, head_cache = head.scores(X[rows], pool)
                    id_val, dscores = hep_loss(scores, targets, pool)
                    dA, dc, dX = head.backward(head_cache, dscores)
                    G[rows] += hp.beta * dX
                    dA *= hp.beta  # lr * (beta * dA), stepped in place on the gathered A[pool]
                    dA *= lr
                    head.A[pool] = np.subtract(head_cache[1], dA, out=head_cache[1])
                    head.c[pool] -= lr * (hp.beta * dc)

            total = hp.alpha * metric_val + hp.beta * id_val
            if not math.isfinite(total):
                raise DivergenceDetected(f"non-finite total loss at iteration {it}")

            if labeled_grads_only:  # the other rows of G are zero and add nothing
                cache, G = (obs[labeled], X[labeled], cache[2][labeled]), G[labeled]
            dW, db = encoder.backward(cache, G)
            encoder.W -= np.multiply(dW, lr, out=dW)
            encoder.b -= lr * db

            # store after loss computation: current-iteration features never self-match
            if dictionary is not None:
                dictionary.push(X[person], y[person])
            stored = min(stored + person.size, capacity)
            if identity == "c2hep":
                degenerate += centers.update(y_lab, X[labeled])

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
