"""PrivSyn-style record synthesis from a published synopsis.

The synopsis's consistent, non-negative view marginals already pin
down every low-order statistic the mechanism paid for; synthesis turns
them into an explicit record population by *gradual update* (GUM, as
in PrivSyn): initialise ``n`` records from the 1-way marginals, then
repeatedly walk the views, moving a fraction ``alpha`` of the records
sitting in over-represented cells into under-represented ones.

Everything here reads only the published views — never the private
dataset — so synthesis is pure post-processing and spends **zero**
additional privacy budget.  The whole fit runs inside a strict
``Synthesizer.fit`` budget scope configured at 0.0, so a ledger audit
proves the claim (the scope balances "exact" with no draws).

Determinism: one ``np.random.SeedSequence`` drives initialisation and
every update round, so a fixed seed reproduces the population
bit-for-bit.  Each round is accept/revert — a round that does not
lower the mean L1 distance to the views is rolled back and ``alpha``
halved — so the recorded error ``history`` is monotone non-increasing
by construction.

Both synopsis kinds work: binary :class:`~repro.core.synopsis.\
PriViewSynopsis` views use the bit-``j`` cell convention, which *is*
the mixed-radix convention with every arity 2, so one code path
handles both.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.core.synopsis import PriViewSynopsis
from repro.exceptions import SynthesisError
from repro.marginals.domain import Domain
from repro.marginals.projection import strides
from repro.synth.records import SyntheticRecords

#: guard against float-noise "improvements" flapping accept/revert
_L1_SLACK = 1e-9

#: what a view update that moves no record returns
_NO_ROWS = np.empty(0, dtype=np.int64)


def domain_of(synopsis) -> Domain:
    """The richest domain the synopsis knows about.

    The attached :class:`Domain` when present; else a plain
    categorical domain from ``arities``; else the binary domain of
    ``num_attributes``.
    """
    if not isinstance(synopsis, PriViewSynopsis):
        raise SynthesisError(
            f"cannot infer a domain from {type(synopsis).__name__} "
            "(not a PriView synopsis)"
        )
    if synopsis.domain is not None:
        return synopsis.domain
    if synopsis.arities is not None:
        return Domain.from_arities(synopsis.arities)
    return Domain.binary(synopsis.num_attributes)


def _code_dtype(size: int):
    """The narrowest dtype holding cell codes ``0 .. size - 1``.

    Codes of 16 bits or fewer also make numpy's stable argsort a
    radix sort, which is what keeps donor selection cheap.
    """
    if size <= 1 << 8:
        return np.uint8
    if size <= 1 << 16:
        return np.uint16
    return np.int64


class _ViewSpec:
    """One view, pre-digested for the update loop."""

    __slots__ = ("attrs", "arities", "strides", "size", "probs", "dtype")

    def __init__(self, attrs, arities, counts):
        self.attrs = np.asarray(attrs, dtype=np.int64)
        self.arities = tuple(int(b) for b in arities)
        self.strides = np.array(strides(self.arities), dtype=np.int64)
        self.size = math.prod(self.arities)
        self.dtype = _code_dtype(self.size)
        probs = np.maximum(np.asarray(counts, dtype=np.float64), 0.0)
        total = probs.sum()
        if total > 0:
            self.probs = probs / total
        else:
            self.probs = np.full(self.size, 1.0 / self.size)

    def cells(self, records: np.ndarray) -> np.ndarray:
        """Mixed-radix cell code of each given record, restricted to
        the view's attributes, in the view's code dtype."""
        return (records[:, self.attrs] @ self.strides).astype(
            self.dtype, copy=False
        )

    def counts(self, cells: np.ndarray) -> np.ndarray:
        return np.bincount(cells, minlength=self.size).astype(np.float64)

    def digits(self, cells: np.ndarray) -> np.ndarray:
        """Cell indices → per-attribute values, shape ``(k, m)``."""
        out = np.empty((len(self.attrs), cells.size), dtype=np.int64)
        for j, b in enumerate(self.arities):
            out[j] = (cells // self.strides[j]) % b
        return out


def _view_specs(synopsis) -> list[_ViewSpec]:
    views = list(getattr(synopsis, "views", ()) or ())
    if not views:
        raise SynthesisError(
            f"{type(synopsis).__name__} has no views to synthesise from"
        )
    return [
        _ViewSpec(view.attrs, view.attrs.radix, view.counts) for view in views
    ]


class Synthesizer:
    """Gradual-update record synthesis.

    Parameters
    ----------
    rounds:
        Maximum update rounds (each visits every view once).
    alpha:
        Initial fraction of each cell's excess moved per round; halved
        whenever a round fails to lower the error.
    min_alpha:
        Stop once ``alpha`` decays below this.
    seed:
        Root ``SeedSequence`` entropy; a fixed seed makes the whole
        population deterministic.
    """

    def __init__(
        self,
        rounds: int = 30,
        alpha: float = 0.5,
        min_alpha: float = 1e-3,
        seed: int | None = None,
    ):
        if rounds < 0:
            raise SynthesisError(f"rounds must be >= 0, got {rounds}")
        if not 0.0 < alpha <= 1.0:
            raise SynthesisError(f"alpha must be in (0, 1], got {alpha}")
        if not (np.isfinite(min_alpha) and min_alpha >= 0.0):
            raise SynthesisError(
                f"min_alpha must be finite and >= 0, got {min_alpha}"
            )
        self.rounds = int(rounds)
        self.alpha = float(alpha)
        self.min_alpha = float(min_alpha)
        self._seed_seq = np.random.SeedSequence(seed)

    # ------------------------------------------------------------------
    def fit(self, synopsis, num_records: int | None = None) -> SyntheticRecords:
        """Synthesise a record population matching the synopsis.

        ``num_records`` defaults to the synopsis's consistent total
        count.  Returns :class:`SyntheticRecords` whose ``meta``
        carries the per-round accepted error ``history`` (monotone
        non-increasing) and round/move counters.
        """
        with obs.span("synth.fit", "synth.fit_seconds"), obs.budget_scope(
            "Synthesizer.fit", 0.0
        ):
            domain = domain_of(synopsis)
            specs = _view_specs(synopsis)
            if num_records is None:
                num_records = int(round(float(synopsis.total_count())))
            n = int(num_records)
            if n < 1:
                raise SynthesisError(
                    f"num_records must be >= 1, got {num_records}"
                )
            rng = np.random.default_rng(self._seed_seq.spawn(1)[0])

            with obs.span("synth.init"):
                records = self._init_records(n, domain, specs, rng)
                # one cell-code vector per view, kept for the whole fit:
                # a round refreshes only the rows it moves
                cells = [spec.cells(records) for spec in specs]
            sharing = [
                [j for j, other in enumerate(specs)
                 if np.intersect1d(spec.attrs, other.attrs).size]
                for spec in specs
            ]
            error = self._mean_l1(cells, specs, n)
            history = [error]
            alpha = self.alpha
            total_moved = 0
            accepted = 0
            for _ in range(self.rounds):
                snapshot = records.copy(), [c.copy() for c in cells]
                with obs.span("synth.update", "synth.update_seconds"):
                    moved = 0
                    for i, spec in enumerate(specs):
                        moving = self._update_view(
                            records, cells[i], spec, n, alpha, rng
                        )
                        # every view sharing an attribute, this one too
                        rows = records[moving]
                        for j in sharing[i]:
                            cells[j][moving] = specs[j].cells(rows)
                        moved += moving.size
                candidate = self._mean_l1(cells, specs, n)
                if moved == 0:
                    break
                if candidate > error - _L1_SLACK:
                    # no improvement: roll the round back, damp alpha
                    records, cells = snapshot
                    alpha *= 0.5
                    obs.incr("synth.rounds_reverted")
                    if alpha < self.min_alpha:
                        break
                    continue
                error = candidate
                history.append(error)
                accepted += 1
                total_moved += moved
            obs.incr("synth.rounds", accepted)
            obs.incr("synth.records_moved", total_moved)
            obs.set_gauge("synth.population", n)
        return SyntheticRecords(
            data=records,
            domain=domain,
            meta={
                "epsilon": getattr(synopsis, "epsilon", None),
                "num_records": n,
                "rounds": accepted,
                "records_moved": total_moved,
                "history": history,
                "final_l1": error,
                "alpha": alpha,
            },
        )

    # ------------------------------------------------------------------
    def _init_records(self, n, domain, specs, rng) -> np.ndarray:
        """Inverse-CDF sample every column from its 1-way marginal.

        The 1-way marginal of attribute ``j`` is projected out of the
        first view containing ``j``; attributes no view covers fall
        back to uniform.
        """
        records = np.empty((n, domain.num_attributes), dtype=np.int64)
        for j, arity in enumerate(domain.arities):
            probs = None
            for spec in specs:
                position = np.flatnonzero(spec.attrs == j)
                if position.size:
                    k = int(position[0])
                    counts = np.bincount(
                        (np.arange(spec.size) // spec.strides[k]) % arity,
                        weights=spec.probs,
                        minlength=arity,
                    )
                    probs = counts
                    break
            if probs is None or probs.sum() <= 0:
                probs = np.full(arity, 1.0 / arity)
            cdf = np.cumsum(probs / probs.sum())
            records[:, j] = np.searchsorted(cdf, rng.random(n), side="right")
            np.clip(records[:, j], 0, arity - 1, out=records[:, j])
        return records

    @staticmethod
    def _mean_l1(cells, specs, n) -> float:
        """Mean (over views) of the per-record-normalised L1 distance."""
        total = 0.0
        for codes, spec in zip(cells, specs):
            total += float(
                np.abs(spec.counts(codes) - spec.probs * n).sum()
            )
        return total / (len(specs) * n)

    @staticmethod
    def _update_view(records, cells, spec: _ViewSpec, n, alpha, rng):
        """One gradual-update step against one view; returns the moved
        rows.

        Records are moved *out of* cells holding more than their
        target share and re-assigned (only on the view's attributes)
        to deficit cells sampled proportionally to how short they are.
        ``cells`` is the view's kept code vector; the caller refreshes
        it, and every other view's, on the returned rows.
        """
        occupancy = np.bincount(cells, minlength=spec.size)
        excess = occupancy.astype(np.float64) - spec.probs * n
        deficit = np.maximum(-excess, 0.0)
        deficit_total = deficit.sum()
        if deficit_total < 1.0:
            return _NO_ROWS
        # per-cell moves: at least one record whenever a whole record
        # of excess exists, never more than the (floored) excess
        move = np.minimum(
            np.ceil(alpha * np.maximum(excess, 0.0)), np.floor(excess)
        ).astype(np.int64)
        move = np.maximum(move, 0)
        num_moved = int(move.sum())
        if num_moved == 0:
            return _NO_ROWS

        # pick the records to move: shuffle, stable-sort by cell, take
        # each cell's first `move[c]` occupants.  The sort's output is
        # unique, and on codes of 16 bits or fewer it is a radix sort.
        perm = rng.permutation(n)
        order = np.argsort(cells[perm], kind="stable")
        donors = np.flatnonzero(move > 0)
        takes = move[donors]
        starts = (np.cumsum(occupancy) - occupancy)[donors]
        base = np.repeat(starts, takes)
        within = np.arange(num_moved) - np.repeat(
            np.cumsum(takes) - takes, takes
        )
        moving = perm[order[base + within]]

        destinations = rng.choice(
            spec.size, size=num_moved, p=deficit / deficit_total
        )
        digits = spec.digits(destinations)
        for j, attr in enumerate(spec.attrs):
            records[moving, attr] = digits[j]
        return moving


def synthesize(
    synopsis,
    num_records: int | None = None,
    rounds: int = 30,
    alpha: float = 0.5,
    seed: int | None = None,
) -> SyntheticRecords:
    """One-call convenience wrapper around :class:`Synthesizer`."""
    return Synthesizer(rounds=rounds, alpha=alpha, seed=seed).fit(
        synopsis, num_records=num_records
    )
