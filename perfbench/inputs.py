"""Seeded workload inputs.

Every function here is a pure function of its ``numpy`` generator, so
one ``--seed`` reproduces the datasets, query streams and event stream
exactly; the program under test only receives the results.

The query streams are built so that the exact answer checks in
``checks.py`` can name the reference for every answer.  The server
answers a set *derived* from the smallest cached strict superset of
the same method, so the streams make sure that superset was itself
solved, not derived:

* serve-hot keys repeat, so its uncovered keys are *chain-free*: no
  three keys ``X < Y < Z``.  A key with a subset among the keys then
  has no superset, and is always solved.
* serve-cold keys are sent once.  A *fresh* key has no superset among
  the keys already sent, so it is never derived; a *deliberate
  subset* is never inside another deliberate subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BINARY_D = 32
VIEW_WIDTH = 8
STRENGTH = 2
#: Arities of the serve-cold categorical dataset.
COLD_ARITIES = (2, 3, 4, 5, 6, 7, 8, 2, 3, 4, 5, 6, 7, 8)
#: Arities of the publish workload's mixed-domain dataset.
SYNTH_ARITIES = (2, 3, 4, 5, 6, 7, 8, 2)


#: Seed of the datasets every run shares.  ``--seed`` draws the traffic
#: (query keys and order, event order and timing, fit and synthesis
#: noise); the records themselves stay fixed, so runs with different
#: seeds differ in what they ask, not in how hard their data is.
DATA_SEED = 20140622


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    return np.random.default_rng([int(seed), *stream])


# ----------------------------------------------------------------------
# Datasets and designs
# ----------------------------------------------------------------------
def binary_design():
    from repro.covering.repository import best_design

    return best_design(BINARY_D, VIEW_WIDTH, STRENGTH)


def _kosarak_blocks(rng, num_records: int, block: int = 50_000):
    """Kosarak-like 0/1 records, ``block`` at a time, so the generator's
    float matrices stay small (each block draws its own user profiles:
    a mild drift between blocks)."""
    from repro.datasets.clickstream import kosarak_like

    for start in range(0, num_records, block):
        yield kosarak_like(min(block, num_records - start), rng=rng).data


def binary_dataset(rng, num_records: int):
    from repro.marginals.dataset import BinaryDataset

    return BinaryDataset(
        np.concatenate(list(_kosarak_blocks(rng, num_records))), name="kosarak-like"
    )


def categorical_dataset(rng, num_records: int, arities):
    from repro.categorical.dataset import CategoricalDataset
    from repro.marginals.domain import Domain

    return CategoricalDataset.random(
        num_records, Domain.from_arities(arities), rng=rng
    )


def mask_of(attrs) -> int:
    mask = 0
    for a in attrs:
        mask |= 1 << int(a)
    return mask


def _random_set(rng, d: int, k: int) -> tuple[int, ...]:
    return tuple(sorted(int(a) for a in rng.choice(d, size=k, replace=False)))


class KeyFamily:
    """The attribute sets sent for one (dataset, method), as bitmasks."""

    def __init__(self):
        self._masks = np.zeros(256, dtype=np.int64)
        self._derived = np.zeros(256, dtype=bool)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _state(self):
        return self._masks[: self._size], self._derived[: self._size]

    def _relations(self, attrs):
        mask = mask_of(attrs)
        masks, derived = self._state()
        inter = masks & mask
        sub = (inter == masks) & (masks != mask)  # existing key < attrs
        sup = (inter == mask) & (masks != mask)   # existing key > attrs
        return bool((masks == mask).any()), sub, sup, derived

    def admits_fresh(self, attrs) -> bool:
        dup, _, sup, _ = self._relations(attrs)
        return not dup and not sup.any()

    def admits_subset(self, attrs) -> bool:
        """Inside some sent set, but not inside a deliberate subset and
        not around any sent set (so nothing is ever derived from it)."""
        dup, sub, sup, derived = self._relations(attrs)
        return (
            not dup and bool(sup.any()) and not sub.any()
            and not (sup & derived).any()
        )

    def admits_chain_free(self, attrs) -> bool:
        dup, sub, sup, _ = self._relations(attrs)
        if dup or (sub.any() and sup.any()):
            return False
        masks = self._state()[0]
        # refuse attrs < Y < Z and X < Y < attrs
        for y in masks[sup]:
            if ((masks & y) == y).sum() > 1:
                return False
        for y in masks[sub]:
            if ((masks & y) == masks).sum() > 1:
                return False
        return True

    def add(self, attrs, derived: bool = False) -> None:
        if self._size == len(self._masks):
            self._masks = np.concatenate([self._masks, np.zeros_like(self._masks)])
            self._derived = np.concatenate([self._derived, np.zeros_like(self._derived)])
        self._masks[self._size] = mask_of(attrs)
        self._derived[self._size] = derived
        self._size += 1


def _covered(attrs, block_masks) -> bool:
    mask = mask_of(attrs)
    return any(mask & b == mask for b in block_masks)


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------
@dataclass
class HotKeys:
    """The serve-hot key set, Zipf-ranked (index 0 is the hottest)."""

    keys: list[tuple[int, ...]]
    covered: list[bool]
    probabilities: np.ndarray = field(repr=False)

    def setup_key(self) -> tuple[int, ...]:
        """The hottest uncovered key: the first query a fresh server
        gets, so set-up includes building the residual index."""
        return next(k for k, c in zip(self.keys, self.covered) if not c)

    def stream(self, rng, count: int) -> list[int]:
        """``count`` Zipf-distributed key indices."""
        return rng.choice(
            len(self.keys), size=count, p=self.probabilities
        ).tolist()


def hot_keys(rng, design, count: int, zipf_s: float = 1.1) -> HotKeys:
    """Half covered sets, half chain-free uncovered sets, k = 2..5."""
    blocks = [tuple(b) for b in design.blocks]
    block_masks = [mask_of(b) for b in blocks]
    covered: set[tuple[int, ...]] = set()
    while len(covered) < count // 2:
        block = blocks[int(rng.integers(len(blocks)))]
        k = int(rng.integers(2, 6))
        covered.add(tuple(sorted(int(a) for a in rng.choice(block, k, replace=False))))
    family = KeyFamily()
    uncovered: list[tuple[int, ...]] = []
    while len(uncovered) < count - len(covered):
        attrs = _random_set(rng, BINARY_D, int(rng.integers(3, 6)))
        if not _covered(attrs, block_masks) and family.admits_chain_free(attrs):
            family.add(attrs)
            uncovered.append(attrs)
    keys = sorted(covered) + uncovered
    flags = [True] * len(covered) + [False] * len(uncovered)
    order = rng.permutation(len(keys))
    weights = np.arange(1, len(keys) + 1, dtype=float) ** -zipf_s
    return HotKeys(
        keys=[keys[i] for i in order],
        covered=[flags[i] for i in order],
        probabilities=weights / weights.sum(),
    )


# ----------------------------------------------------------------------
# serve-cold
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One request: ``queries`` holds one attrs tuple for a single
    ``/marginal`` request, several for a ``/batch``."""

    kind: str            # "fresh", "subset", "categorical" or "batch"
    dataset: str
    method: str
    queries: tuple[tuple[int, ...], ...]

    @property
    def is_batch(self) -> bool:
        return self.kind == "batch"


#: serve-cold request mix: (kind, share).  Binary uncovered k=4..8 is
#: split between maxent (the server default) and residual.
COLD_MIX = (
    ("fresh-maxent", 0.29),
    ("fresh-residual", 0.29),
    ("subset", 0.14),
    ("categorical", 0.18),
    ("batch", 0.10),
)
BATCH_SIZE = 16


class ColdStream:
    """Generates serve-cold requests, every query new within the run."""

    def __init__(self, rng, design, binary="bin", categorical="cat"):
        self.rng = rng
        self.block_masks = [mask_of(b) for b in design.blocks]
        self.binary = binary
        self.categorical = categorical
        self.families = {
            (binary, "maxent"): KeyFamily(),
            (binary, "residual"): KeyFamily(),
            (categorical, "maxent"): KeyFamily(),
        }
        self._recent: dict[str, list[tuple[int, ...]]] = {
            "maxent": [], "residual": [],
        }
        self._deck: list[str] = []

    def _uncovered_fresh(self, method: str) -> tuple[int, ...]:
        family = self.families[self.binary, method]
        while True:
            attrs = _random_set(self.rng, BINARY_D, int(self.rng.integers(4, 9)))
            if not _covered(attrs, self.block_masks) and family.admits_fresh(attrs):
                family.add(attrs)
                return attrs

    def setup_ops(self) -> list[Op]:
        """First query per dataset on a fresh server: a residual solve
        (builds the residual index) and a mixed-radix solve."""
        return [
            Op("fresh", self.binary, "residual",
               (self._uncovered_fresh("residual"),)),
            self._categorical(),
        ]

    def _categorical(self) -> Op:
        family = self.families[self.categorical, "maxent"]
        d = len(COLD_ARITIES)
        for _ in range(10_000):
            attrs = _random_set(self.rng, d, int(self.rng.integers(2, 5)))
            if family.admits_fresh(attrs):
                family.add(attrs)
            elif family.admits_subset(attrs):
                family.add(attrs, derived=True)
            else:
                continue
            return Op("categorical", self.categorical, "maxent", (attrs,))
        raise RuntimeError("categorical query space exhausted")

    def _subset(self) -> Op | None:
        method = ("maxent", "residual")[int(self.rng.integers(2))]
        family = self.families[self.binary, method]
        recent = self._recent[method][-32:]
        for _ in range(20):
            if not recent:
                return None
            parent = recent[int(self.rng.integers(len(recent)))]
            k = int(self.rng.integers(3, len(parent)))
            attrs = tuple(sorted(
                int(a) for a in self.rng.choice(parent, k, replace=False)
            ))
            if not _covered(attrs, self.block_masks) and family.admits_subset(attrs):
                family.add(attrs, derived=True)
                return Op("subset", self.binary, method, (attrs,))
        return None

    def _next_kind(self) -> str:
        """Kinds come from shuffled decks of 100 holding the mix
        exactly, so every run sends the same mix in a random order."""
        if not self._deck:
            self._deck = [
                kind for kind, share in COLD_MIX for _ in range(round(100 * share))
            ]
            self.rng.shuffle(self._deck)
        return self._deck.pop()

    def next_op(self) -> Op:
        kind = self._next_kind()
        if kind == "subset":
            op = self._subset()
            if op is not None:
                return op
            kind = "fresh-maxent"
        if kind == "categorical":
            return self._categorical()
        if kind == "batch":
            return Op("batch", self.binary, "residual", tuple(
                self._uncovered_fresh("residual") for _ in range(BATCH_SIZE)
            ))
        method = kind.split("-", 1)[1]
        attrs = self._uncovered_fresh(method)
        self._recent[method].append(attrs)
        return Op("fresh", self.binary, method, (attrs,))

    def ops(self, count: int) -> list[Op]:
        return [self.next_op() for _ in range(count)]


# ----------------------------------------------------------------------
# publish: the event stream
# ----------------------------------------------------------------------
@dataclass
class EventStream:
    """Time-stamped binary events plus what the policy must do with them.

    Events are held compactly: the items of event ``i`` are
    ``items[offsets[i]:offsets[i+1]]`` and its event time ``times[i]``.
    ``late`` flags the events the watermark must drop, and
    ``window_records`` maps each window index to the records it must
    release.
    """

    items: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    late: np.ndarray = field(repr=False)
    window_records: dict
    width: float
    lateness: float

    @property
    def num_events(self) -> int:
        return len(self.times)

    @property
    def num_late(self) -> int:
        return int(self.late.sum())

    def window_of(self) -> np.ndarray:
        """Window index of every event."""
        return np.floor(self.times / self.width).astype(np.int64)

    def chunks(self, size: int):
        """Yield the events as lists of ``(items, time)`` pairs, the
        producer shape ``repro.stream`` accepts, ``size`` at a time."""
        for start in range(0, self.num_events, size):
            stop = min(start + size, self.num_events)
            first = self.offsets[start]
            items = self.items[first:self.offsets[stop]].tolist()
            bounds = (self.offsets[start:stop + 1] - first).tolist()
            times = self.times[start:stop].tolist()
            yield [
                (tuple(items[bounds[i]:bounds[i + 1]]), times[i])
                for i in range(stop - start)
            ]

    def rows(self, mask: np.ndarray) -> np.ndarray:
        """The selected events as a 0/1 matrix."""
        event = np.repeat(np.arange(self.num_events), np.diff(self.offsets))
        chosen = mask[event]
        row = np.cumsum(mask) - 1
        out = np.zeros((int(mask.sum()), BINARY_D), dtype=np.uint8)
        out[row[event[chosen]], self.items[chosen]] = 1
        return out


def event_stream(
    rng,
    num_events: int,
    windows: int = 10,
    lateness_events: int = 2000,
    out_of_order: float = 0.02,
    too_late: float = 0.001,
) -> EventStream:
    """Kosarak-like transactions, one per millisecond of event time.

    The transactions come from :data:`DATA_SEED`; ``rng`` orders them
    and draws their disorder: ``out_of_order`` of the events are moved
    back by less than the lateness bound (accepted); ``too_late`` of
    them are moved into the previous, already closed window (dropped
    and counted).
    """
    counts, items = [], []
    for data in _kosarak_blocks(rng_for(DATA_SEED, 6), num_events):
        rows, cols = np.nonzero(data)
        counts.append(np.bincount(rows, minlength=len(data)))
        items.append(cols.astype(np.int8))
    counts, items = np.concatenate(counts), np.concatenate(items)
    # Deal the transactions in a seeded order without a second copy of
    # the 0/1 matrix: inputs must stay small next to the program's own
    # memory, which peak_rss_mb measures.
    order = rng.permutation(num_events)
    starts = np.concatenate([[0], np.cumsum(counts)])[order]
    lengths = counts[order]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    dealt = np.empty_like(items)
    for a in range(0, num_events, 50_000):
        b = min(a + 50_000, num_events)
        lo, hi = offsets[a], offsets[b]
        dealt[lo:hi] = items[
            np.repeat(starts[a:b] - offsets[a:b], lengths[a:b]) + np.arange(lo, hi)
        ]
    items = dealt

    dt = 0.001
    width = num_events * dt / windows
    lateness = lateness_events * dt
    times = np.arange(num_events, dtype=float) * dt
    shifted = rng.random(num_events) < out_of_order
    times[shifted] -= rng.uniform(0.0, 0.9 * lateness, int(shifted.sum()))
    offset = np.mod(np.arange(num_events) * dt, width)
    candidates = np.flatnonzero(
        (offset > lateness + 0.1 * width) & (np.arange(num_events) * dt >= width)
    )
    victims = rng.choice(
        candidates, size=min(len(candidates), int(round(too_late * num_events))),
        replace=False,
    )
    times[victims] = (
        np.floor(times[victims] / width) * width
        - rng.uniform(0.05, 0.5, len(victims)) * width
    )
    times = np.maximum(times, 0.0)

    # The watermark's verdict, event by event: late iff the event's
    # window is below the close bound set by the events before it.
    previous_max = np.concatenate([[-np.inf], np.maximum.accumulate(times)[:-1]])
    bound = np.floor((previous_max - lateness) / width)
    window = np.floor(times / width)
    late = window < bound
    kept, counts = np.unique(window[~late].astype(int), return_counts=True)
    return EventStream(
        items=items,
        offsets=offsets,
        times=times,
        late=late,
        window_records=dict(zip(kept.tolist(), counts.tolist())),
        width=width,
        lateness=lateness,
    )
