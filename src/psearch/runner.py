"""Experiment glue: train on a synthetic world, evaluate retrieval, and
write CSV artifacts. Identical (seed, config) pairs produce byte-identical
outputs."""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import astuple, replace

import numpy as np

from .config import ExperimentConfig, config_hash, emit_config, hyperparams_from_config
from .errors import ConfigError
from .evaluation import RetrievalSet, evaluate_retrieval, gallery_sweep, item_dtype
from .numerics import make_rng
from .simulator import (
    LOSS_CHOICES,
    Schedule,
    SyntheticWorld,
    ToyEncoder,
    TrainLogRow,
    generate_world,
    observe,
    train,
)

EVAL_SEED_OFFSET = 1_000_003
ENCODE_BLOCK = 128  # retrieval items observed and encoded per block: bounds the temporaries


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def train_from_config(cfg: ExperimentConfig) -> tuple[SyntheticWorld, ToyEncoder, list[TrainLogRow]]:
    world = generate_world(
        cfg.num_identities,
        latent_dim=cfg.latent_dim,
        obs_dim=cfg.obs_dim,
        sigma_view=cfg.sigma_view,
        sigma_noise=cfg.sigma_noise,
        unlabeled_fraction=cfg.unlabeled_fraction,
        background_fraction=cfg.background_fraction,
        seed=cfg.seed,
    )
    encoder = ToyEncoder(cfg.obs_dim, seed=cfg.seed)
    schedule = Schedule(cfg.lr_initial, cfg.lr_final, cfg.lr_drop_frac)
    rng = make_rng(cfg.seed)
    encoder, rows = train(
        world, encoder, hyperparams_from_config(cfg), schedule,
        cfg.loss_choice, cfg.images_per_iter, cfg.proposals_per_image,
        cfg.iters, rng, dict_multiplier=cfg.dict_multiplier,
    )
    return world, encoder, rows


def build_retrieval_set(
    world: SyntheticWorld,
    encoder: ToyEncoder,
    cfg: ExperimentConfig,
) -> RetrievalSet:
    """Fresh observations from the trained world: one query per sampled
    identity, a few gallery instances each, plus anonymous distractors.

    Reads the generator as a per-item loop would, in one normal matrix
    after the identity draw: each identity's query and then its gallery
    items take a camera offset row and a jitter row each, then each
    distractor takes a prototype, an offset and a jitter row. Blocks of
    ENCODE_BLOCK items go through one observe and one encode call into the
    feat field of one record array; the queries and the gallery are slices
    of it.
    """
    rng = make_rng(cfg.seed + EVAL_SEED_OFFSET)
    n_query = min(cfg.query_count, world.num_identities)
    idents = rng.choice(world.num_identities, size=n_query, replace=False)
    dim, per_id, n_anon = world.latent_dim, 1 + cfg.gallery_per_identity, cfg.distractors
    n_items = n_query * per_id
    z = rng.normal(size=(2 * n_items + 3 * n_anon, dim))
    # items: queries, then the gallery in identity order, then distractors;
    # each item's camera offset is row offset_row of z, and its jitter the next row
    item = np.arange(n_items).reshape(n_query, per_id)
    offset_row = np.concatenate([2 * item[:, 0], 2 * item[:, 1:].ravel(),
                                 2 * n_items + 3 * np.arange(n_anon) + 1])
    anon = z[offset_row[n_items:] - 1]
    protos = np.concatenate([world.prototypes[idents],
                             np.repeat(world.prototypes[idents], per_id - 1, axis=0),
                             anon / np.linalg.norm(anon, axis=1, keepdims=True)])
    items = np.empty(len(protos), dtype=item_dtype(encoder.embed_dim))
    for start in range(0, len(protos), ENCODE_BLOCK):
        block = slice(start, start + ENCODE_BLOCK)
        at = offset_row[block]
        items["feat"][block] = encoder.encode(observe(world, protos[block], z[at], z[at + 1]))[0]
    items["id"] = np.concatenate([idents, np.repeat(idents, per_id - 1), -1000 - np.arange(n_anon)])
    return RetrievalSet(queries=items[:n_query], gallery=items[n_query:])


def evaluate_config(cfg: ExperimentConfig):
    """Train and evaluate one configuration; returns (mAP, cmc, train
    rows, retrieval set)."""
    world, encoder, rows = train_from_config(cfg)
    rset = build_retrieval_set(world, encoder, cfg)
    mAP, cmc = evaluate_retrieval(rset)
    return mAP, cmc, rows, rset


TRAIN_HEADER = "iteration,olp_loss,id_loss,total,dictionary_size,pool_size,lr"
EVAL_HEADER = "gallery_size,mAP,top1,top5,top10"


def csv_text(header: str, rows) -> str:
    return "".join(line + "\n" for line in [header, *(",".join(_fmt(v) for v in r) for r in rows)])


def write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_artifacts(out: str, files: dict[str, str]) -> list[str]:
    """Write a command's files, name -> text, as one set: each is written
    into a temp directory inside out, and all are moved in with os.replace
    only once every one is complete. The temp directory is removed whatever
    happens, so an error or an interrupt while writing leaves out as it was.
    Returns the written paths."""
    tmp = tempfile.mkdtemp(prefix=".partial-", dir=out)
    try:
        for name, text in files.items():
            write_text(os.path.join(tmp, name), text)
        for name in files:
            os.replace(os.path.join(tmp, name), os.path.join(out, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return [os.path.join(out, name) for name in files]


def make_out_dir(cfg: ExperimentConfig) -> str:
    """Create cfg.out_dir before any training; an unusable path is a ConfigError."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir: {exc}") from exc
    return cfg.out_dir


def run_experiment(cfg: ExperimentConfig) -> dict:
    """The `run` subcommand: train, evaluate and sweep, then write
    train.csv, eval.csv and config-echo.txt as one set."""
    cfg.validate()
    out = make_out_dir(cfg)
    mAP, cmc, rows, rset = evaluate_config(cfg)
    eval_rows = [(len(rset.gallery), mAP, cmc[1], cmc[5], cmc[10])]
    sizes = cfg.gallery_size_list()
    if sizes:
        rng = make_rng(cfg.seed + 2 * EVAL_SEED_OFFSET)
        eval_rows.extend(gallery_sweep(rset, sizes, rng))

    write_artifacts(out, {"train.csv": csv_text(TRAIN_HEADER, map(astuple, rows)),
                          "eval.csv": csv_text(EVAL_HEADER, eval_rows),
                          "config-echo.txt": emit_config(cfg)})
    return {"mAP": mAP, "cmc": cmc, "out_dir": out}


ABLATE_KINDS = ("dict-size", "priority-T", "loss-weights", "input-count",
                "gallery-size", "loss-choice")


def _sweep_points(kind: str, base: ExperimentConfig):
    """Default sweep grids, rescaled from the full-scale experiments."""
    if kind == "dict-size":
        return [("dict_multiplier", m, replace(base, dict_multiplier=m))
                for m in (20, 40, 60)]
    if kind == "priority-T":
        c = base.num_identities
        values = {max(2, c // 10), min(base.pool_size, c), max(2, c // 2), c}
        return [("pool_size", t, replace(base, pool_size=t)) for t in sorted(values)]
    if kind == "loss-weights":
        grid = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
        points = [("alpha", a, replace(base, alpha=a, beta=1.0)) for a in grid]
        points += [("beta", b, replace(base, alpha=1.0, beta=b)) for b in grid]
        return points
    if kind == "input-count":
        return [("images_per_iter", n, replace(base, images_per_iter=n))
                for n in (2, 4, 8)]
    if kind == "loss-choice":
        return [("loss_choice", lc, replace(base, loss_choice=lc))
                for lc in LOSS_CHOICES]
    raise ValueError(f"unknown sweep kind {kind!r}")


def run_ablation(kind: str, base: ExperimentConfig) -> str:
    """The `ablate` subcommand: one CSV row per sweep point, all points
    sharing the base seed. Every point is evaluated before the CSV is
    written."""
    base.validate()
    out = make_out_dir(base)

    if kind == "gallery-size":
        header = "gallery_size,mAP,top1,top5,top10,config_hash"
        rows = [(*r, config_hash(base)) for r in run_gallery_size_sweep(base)]
    else:
        points = _sweep_points(kind, base)
        param = "param,value" if kind == "loss-weights" else points[0][0]
        header = f"{param},mAP,top1,top5,top10,config_hash"
        rows = []
        for name, value, cfg in points:
            mAP, cmc, _, _ = evaluate_config(cfg)
            rows.append(([name] if kind == "loss-weights" else [])
                        + [value, mAP, cmc[1], cmc[5], cmc[10], config_hash(cfg)])

    return write_artifacts(out, {f"ablate-{kind}.csv": csv_text(header, rows)})[0]


def run_gallery_size_sweep(cfg: ExperimentConfig):
    """Train once, then evaluate nested galleries of the configured sizes
    (default: a quarter, half, three quarters and all of the distractors)."""
    world, encoder, _ = train_from_config(cfg)
    rset = build_retrieval_set(world, encoder, cfg)
    sizes = cfg.gallery_size_list()
    if not sizes:
        n_relevant = np.count_nonzero(np.isin(rset.gallery["id"], rset.queries["id"]))
        total = len(rset.gallery)
        sizes = sorted({n_relevant + round(f * (total - n_relevant))
                        for f in (0.25, 0.5, 0.75, 1.0)})
    rng = make_rng(cfg.seed + 2 * EVAL_SEED_OFFSET)
    return gallery_sweep(rset, sizes, rng)
