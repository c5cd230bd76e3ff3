"""Online-pairing metric losses, priority-class softmax variants, and a
synthetic person-search trainer/evaluator."""

from .dictionaries import ClassCenterTable, FeatureDictionary, HyperParams
from .losses import (
    OlpResult,
    c2hep_loss,
    contrastive_loss,
    hep_loss,
    olp_loss,
    triplet_loss,
)
from .numerics import check_gradient, l2_normalize, make_rng, softmax
from .pairing import build_subgroups, select_priority_pool

__all__ = [
    "ClassCenterTable", "FeatureDictionary", "HyperParams",
    "OlpResult",
    "c2hep_loss", "contrastive_loss", "hep_loss", "olp_loss", "triplet_loss",
    "check_gradient", "l2_normalize", "make_rng", "softmax",
    "build_subgroups", "select_priority_pool",
]

__version__ = "0.1.0"
