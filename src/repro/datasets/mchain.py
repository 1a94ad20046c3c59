"""MCHAIN — the paper's Markov-chain synthetic datasets (Section 5).

Following Usatenko & Yampol'skii's stationary binary sequences: for a
chain of order ``i``, given the previous ``i`` bits with ``s`` ones,
the next bit is 1 with probability ``0.5 + (1 - 2 s / i) / 4``.  Each
record is a series of ``d = 64`` bits; the initial ``i`` bits are drawn
from the chain's stationary distribution so that every position is
marginally identically distributed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DatasetError
from repro.marginals.dataset import Dataset

#: The paper's record length.
DEFAULT_LENGTH = 64


def next_bit_probability(order: int, ones: np.ndarray | int):
    """P(next bit = 1 | s ones among the previous ``order`` bits)."""
    if order < 1:
        raise DatasetError(f"order must be >= 1, got {order}")
    s = np.asarray(ones, dtype=np.float64)
    return 0.5 + (1.0 - 2.0 * s / order) / 4.0


def _transition_matrix(order: int) -> np.ndarray:
    """Transition matrix over the 2**order states (previous-bits windows).

    State encoding: bit ``j`` of the state is the bit seen ``j`` steps
    ago; appending bit ``b`` maps state ``x`` to
    ``((x << 1) | b) & (2**order - 1)``.
    """
    size = 1 << order
    states = np.arange(size, dtype=np.uint64)
    ones = np.bitwise_count(states).astype(np.int64)
    p1 = next_bit_probability(order, ones)
    mask = size - 1
    matrix = np.zeros((size, size))
    for x in range(size):
        matrix[x, ((x << 1) | 1) & mask] += p1[x]
        matrix[x, ((x << 1) | 0) & mask] += 1.0 - p1[x]
    return matrix


def stationary_distribution(order: int, tol: float = 1e-13) -> np.ndarray:
    """Stationary distribution of the order-``i`` chain.

    Power iteration on the *lazy* chain ``(M + I) / 2``, which has the
    same stationary distribution but no periodicity — some orders give
    period-2 dynamics on which plain power iteration oscillates.
    """
    matrix = _transition_matrix(order)
    lazy = 0.5 * (matrix + np.eye(matrix.shape[0]))
    dist = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(100_000):
        updated = dist @ lazy
        if np.abs(updated - dist).sum() < tol:
            return updated
        dist = updated
    return updated


def markov_chain_dataset(
    order: int,
    num_records: int,
    length: int = DEFAULT_LENGTH,
    rng: np.random.Generator | None = None,
) -> Dataset:
    """Generate ``num_records`` stationary order-``i`` binary sequences.

    Vectorised across records: all chains advance one step per loop
    iteration, so a million 64-bit records take a couple of seconds.
    """
    if length < order:
        raise DatasetError(f"length {length} shorter than order {order}")
    rng = rng or np.random.default_rng()
    size = 1 << order
    mask = size - 1

    dist = stationary_distribution(order)
    states = rng.choice(size, size=num_records, p=dist).astype(np.int64)

    data = np.zeros((num_records, length), dtype=np.uint8)
    # The state encodes the last `order` bits, bit j = seen j steps ago;
    # unpack it into the first `order` columns (oldest first).
    for j in range(order):
        data[:, order - 1 - j] = (states >> j) & 1

    ones_lookup = np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.int64)
    p1_lookup = next_bit_probability(order, ones_lookup)
    for col in range(order, length):
        p1 = p1_lookup[states]
        bits = (rng.random(num_records) < p1).astype(np.uint8)
        data[:, col] = bits
        states = ((states << 1) | bits) & mask
    return Dataset(data, name=f"mchain_{order}")
