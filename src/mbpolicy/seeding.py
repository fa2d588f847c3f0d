"""Deterministic seed derivation and the package's pinned random generator.

Every stochastic routine keys a fresh Philox stream (counter-based, with
numpy's ziggurat normal transform) from a canonical string, so runs reproduce
bit-identically and parallel execution order cannot change results. The one
exception is the lasso's CV fold shuffle in `fit_lasso_per_arm`, which draws
from numpy's `default_rng([seed, w])` (PCG64), keyed by the learner seed and
the arm.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .dataset import _check_int

__all__ = ["derive_seed", "philox_rng"]

_SEED_HIGH = 2**64 - 1  # the largest Philox key


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from a canonical key string (sha256, first 8 bytes)."""
    canon = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(canon.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def philox_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed directly; distinct keys give independent streams."""
    return np.random.Generator(np.random.Philox(key=_check_int("seed", seed, 0, _SEED_HIGH)))
