"""Deterministic vector math shared by every other module.

All public functions operate on float64 numpy arrays and are pure: no
global state, no global RNG. Callers own their random generators.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    NonFiniteFunction,
    ZeroVector,
)

ZERO_NORM_EPS = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical streams for identical seeds."""
    return np.random.default_rng(seed)


def l2_normalize(v) -> np.ndarray:
    """Scale v to unit Euclidean norm.

    Raises ZeroVector when the norm is below 1e-12.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise EmptyInput("cannot normalize an empty vector")
    if not np.all(np.isfinite(v)):
        raise NonFiniteFunction("non-finite components in input vector")
    norm = float(np.linalg.norm(v))
    if norm < ZERO_NORM_EPS:
        raise ZeroVector(f"norm {norm} below {ZERO_NORM_EPS}")
    return v / norm


def softmax(scores) -> np.ndarray:
    """Stable softmax along the last axis, with max-subtraction.

    A -inf score masks its entry out (probability exactly 0); NaN, +inf
    and rows without a finite score raise NonFiniteFunction.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyInput("softmax of empty score vector")
    top = scores.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():  # max carries a NaN into top
        raise NonFiniteFunction("non-finite scores")
    exps = np.exp(scores - top)
    return exps / exps.sum(axis=-1, keepdims=True)


def check_gradient(
    f: Callable[[np.ndarray], float],
    x,
    analytic_grad,
    h: float = 1e-6,
) -> float:
    """Max relative error between analytic_grad and central differences of f.

    Relative error per component is |fd - g| / max(1, |g|).
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(analytic_grad, dtype=np.float64)
    if x.shape != g.shape:
        raise DimensionMismatch(f"shapes {x.shape} vs {g.shape}")
    if not (1e-7 <= h <= 1e-4):
        raise ValueError(f"step {h} outside [1e-7, 1e-4]")
    max_err = 0.0
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteFunction(f"f non-finite near component {i}")
        fd = (fp - fm) / (2.0 * h)
        err = abs(fd - g.flat[i]) / max(1.0, abs(g.flat[i]))
        max_err = max(max_err, err)
    return max_err
