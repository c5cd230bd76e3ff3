"""Experiment configuration: flat key=value text files with command-line
overrides (later wins). Unknown keys abort with a named error before any
run starts."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .dictionaries import HyperParams
from .errors import ConfigError, InvalidParams
from .simulator import IMAGES_PER_ITER, LOSS_CHOICES, check_world


@dataclass
class ExperimentConfig:
    seed: int = 0
    num_identities: int = 50
    latent_dim: int = 32
    obs_dim: int = 128
    sigma_view: float = 0.4
    sigma_noise: float = 0.1
    unlabeled_fraction: float = 0.2
    background_fraction: float = 0.25
    images_per_iter: int = 2
    proposals_per_image: int = 8
    iters: int = 500
    lr_initial: float = 0.01
    lr_final: float = 0.001
    lr_drop_frac: float = 0.6
    alpha: float = 1.0
    beta: float = 1.0
    lam: float = 10.0
    phi: float = 0.5
    pool_size: int = 100
    top_negatives: int = 10
    dict_multiplier: int = 40
    triplet_margin: float = 0.3
    contrastive_margin: float = 0.5
    loss_choice: str = "olp+c2hep"
    gallery_sizes: str = ""
    query_count: int = 50
    gallery_per_identity: int = 2
    distractors: int = 100
    out_dir: str = "out"

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{_ATTR_TO_KEY.get(f.name, f.name)}: must be finite")
        try:
            check_world(self.num_identities, self.latent_dim, self.obs_dim, self.sigma_view,
                        self.sigma_noise, self.unlabeled_fraction, self.background_fraction)
        except InvalidParams as exc:
            raise ConfigError(str(exc)) from exc
        if self.images_per_iter not in IMAGES_PER_ITER:
            raise ConfigError(f"images_per_iter: must be one of {IMAGES_PER_ITER}")
        if self.proposals_per_image < 1:
            raise ConfigError("proposals_per_image: must be >= 1")
        if self.iters < 1:
            raise ConfigError("iters: must be >= 1")
        try:
            hyperparams_from_config(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.dict_multiplier < 1:
            raise ConfigError("dict_multiplier: must be >= 1")
        if self.loss_choice not in LOSS_CHOICES:
            raise ConfigError(
                f"loss_choice: {self.loss_choice!r} not in {LOSS_CHOICES}"
            )
        if self.lr_initial < 0 or self.lr_final < 0:
            raise ConfigError("lr_initial, lr_final: must be >= 0")
        if not (0.0 <= self.lr_drop_frac <= 1.0):
            raise ConfigError("lr_drop_frac: must be in [0, 1]")
        if self.query_count < 1:
            raise ConfigError("query_count: must be >= 1")
        if self.gallery_per_identity < 1:
            raise ConfigError("gallery_per_identity: must be >= 1")
        if self.distractors < 0:
            raise ConfigError("distractors: must be >= 0")
        for part in self.gallery_sizes.split(","):
            if part.strip() and not part.strip().isdigit():
                raise ConfigError(f"gallery_sizes: bad entry {part.strip()!r}")
        # a swept gallery keeps every item of a query identity (see build_retrieval_set)
        relevant = min(self.query_count, self.num_identities) * self.gallery_per_identity
        total = relevant + self.distractors
        for size in self.gallery_size_list():
            if not relevant <= size <= total:
                raise ConfigError(f"gallery_sizes: {size} outside [{relevant}, {total}]")

    def gallery_size_list(self) -> list[int]:
        return [int(p) for p in self.gallery_sizes.split(",") if p.strip()]


def hyperparams_from_config(cfg: ExperimentConfig) -> HyperParams:
    """The loss hyperparameters; HyperParams checks their ranges."""
    return HyperParams(**{f.name: getattr(cfg, f.name) for f in fields(HyperParams)})


# "lambda" is the file/CLI spelling; the attribute is lam.
_KEY_TO_ATTR = {"lambda": "lam"}
_ATTR_TO_KEY = {v: k for k, v in _KEY_TO_ATTR.items()}

_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def config_keys() -> list[str]:
    return [_ATTR_TO_KEY.get(name, name) for name in _FIELDS]


def _coerce(attr: str, raw: str):
    kind = _FIELDS[attr]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{_ATTR_TO_KEY.get(attr, attr)}: {exc}") from exc


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base if base is not None else ExperimentConfig()
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        apply_override(cfg, key, raw)
    return cfg


def apply_override(cfg: ExperimentConfig, key: str, raw: str) -> None:
    attr = _KEY_TO_ATTR.get(key, key)
    if attr not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    setattr(cfg, attr, _coerce(attr, raw))


def emit_config(cfg: ExperimentConfig) -> str:
    lines = []
    for name in _FIELDS:
        key = _ATTR_TO_KEY.get(name, name)
        lines.append(f"{key} = {getattr(cfg, name)}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()[:12]
