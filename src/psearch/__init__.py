"""Online-pairing metric losses, priority-class softmax variants, and a
synthetic person-search trainer/evaluator."""

from .dictionaries import ClassCenterTable, FeatureDictionary, HyperParams
from .losses import (
    LossBreakdown,
    OlpResult,
    c2hep_loss,
    combined_loss,
    contrastive_loss,
    hep_loss,
    olp_loss,
    triplet_loss,
)
from .numerics import check_gradient, l2_normalize, make_rng, softmax
from .pairing import PriorityPool, build_subgroups, select_priority_pool

__all__ = [
    "ClassCenterTable", "FeatureDictionary", "HyperParams",
    "LossBreakdown", "OlpResult",
    "c2hep_loss", "combined_loss", "contrastive_loss", "hep_loss",
    "olp_loss", "triplet_loss",
    "check_gradient", "l2_normalize", "make_rng", "softmax",
    "PriorityPool", "build_subgroups", "select_priority_pool",
]

__version__ = "0.1.0"
