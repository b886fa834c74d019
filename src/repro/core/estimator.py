"""Hansen–Hurwitz estimation over sampled clusters (Eq 3 / Eq 8).

``E(Q, C_S^Q) = (1/s) Σ_i Q(C_i) / p_i`` where p_i is the *true* PPS
probability of the i-th sampled cluster (sampling is with replacement, the
regime in which Hansen–Hurwitz is unbiased: E[E] = Σ_j Q(C_j)).
"""
from __future__ import annotations

import numpy as np


def hansen_hurwitz(q_values: np.ndarray, p_values: np.ndarray) -> float:
    """The estimate from aligned per-draw query values and probabilities."""
    q = np.asarray(q_values, dtype="float64")
    p = np.asarray(p_values, dtype="float64")
    if q.shape != p.shape or q.ndim != 1:
        raise ValueError("q_values and p_values must be aligned 1-D arrays")
    if len(q) == 0:
        raise ValueError("cannot estimate from an empty sample")
    if np.any(p <= 0):
        raise ValueError("sampling probabilities must be positive")
    return float(np.mean(q / p))

