"""KL and Jensen-Shannon divergence between normalised marginals.

The paper measures ``D_JS(norm(T̃) || norm(T))`` (Equation 1) because
plain KL is undefined when the private table has empty cells the true
table does not.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.marginals.table import MarginalTable


def _as_distribution(table) -> np.ndarray:
    """Normalise to a probability vector.

    Noisy marginal tables can carry (small) negative cells; a
    probability distribution cannot, so negatives are clamped to zero
    before normalising.  A table with no positive mass is treated as
    uniform, matching how the evaluation handles degenerate answers.
    """
    if isinstance(table, MarginalTable):
        arr = table.counts
    else:
        arr = np.asarray(table, dtype=np.float64)
    arr = np.maximum(arr, 0.0)
    total = arr.sum()
    if total <= 0:
        return np.full(arr.size, 1.0 / arr.size)
    return arr / total


def kl_divergence(p, q) -> float:
    """``D_KL(P || Q) = sum_i P(i) ln(P(i)/Q(i))``.

    Returns ``inf`` when Q lacks support somewhere P has mass — the
    exact failure mode that motivates Jensen-Shannon in the paper.
    """
    p = _as_distribution(p)
    q = _as_distribution(q)
    if p.shape != q.shape:
        raise DimensionError(f"shape mismatch {p.shape} vs {q.shape}")
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def jensen_shannon(p, q) -> float:
    """Equation 1: symmetrised, smoothed KL.  Always finite, in [0, ln 2].

    Each term is ``p ln(2p / (p + q))`` rather than ``p ln(p / m)``
    with ``m = (p + q) / 2``: halving a subnormal ``p + q`` can
    underflow ``m`` to 0 where ``p > 0``, while ``2p / (p + q)`` stays
    in ``(0, 2]`` whenever ``p > 0``.
    """
    p = _as_distribution(p)
    q = _as_distribution(q)
    if p.shape != q.shape:
        raise DimensionError(f"shape mismatch {p.shape} vs {q.shape}")
    total = p + q
    return 0.5 * _skewed_term(p, total) + 0.5 * _skewed_term(q, total)


def _skewed_term(p: np.ndarray, total: np.ndarray) -> float:
    """``sum_i p(i) ln(2 p(i) / total(i))`` over the support of ``p``."""
    mask = p > 0
    return float(np.sum(p[mask] * np.log(2.0 * p[mask] / total[mask])))
