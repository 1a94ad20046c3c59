"""The window scheduler: close → fit → publish, under one audit.

:class:`WindowScheduler` drives the full streaming vertical: it pulls
events through a window policy (:mod:`repro.stream.windows`), fits a
DP synopsis on every closed window through the existing
:class:`~repro.core.priview.PriView` mechanism, and auto-publishes
each synopsis to a :class:`~repro.store.registry.SynopsisStore` as the
next version of the stream's dataset name — ``{dataset}@{window}`` in
release terms maps to store version specs (``name@version``), with the
window's bounds/kind/record count recorded in the manifest's
``extra["window"]`` block so serving layers can list and time-slice
windows without touching artifacts.

The whole run executes inside one
``obs.budget_scope(..., composition="parallel")``: every per-window
``PriView.fit`` scope becomes a child of the stream scope, and since
windows partition the records, ``ledger.check()`` proves the run cost
exactly the schedule's per-window epsilon — not the sum over windows.

A store watcher (``EngineRouter(watch=True)`` / ``repro serve
--watch``) picks each published window up live; readers hot-swap to
the newest version with zero dropped requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.priview import PriView
from repro.covering.repository import best_design
from repro.stream.schedule import BudgetSchedule
from repro.stream.windows import (
    DEFAULT_CHUNK_RECORDS,
    ClosedWindow,
    iter_windows,
)

#: View width used by the default mechanism factory.
DEFAULT_VIEW_WIDTH = 8
#: Covering strength used by the default mechanism factory.
DEFAULT_STRENGTH = 2


@dataclass(frozen=True)
class WindowRecord:
    """One released window: its metadata and the published version."""

    index: int
    start: float
    end: float
    kind: str
    records: int
    epsilon: float
    version: int
    fit_seconds: float

    @property
    def spec(self) -> str:
        """The version spec a router can lease (``name@version``)."""
        return str(self.version)


class WindowScheduler:
    """Fit-and-publish loop over closed windows.

    Parameters
    ----------
    store:
        The :class:`~repro.store.registry.SynopsisStore` windows are
        published into.
    dataset:
        Store dataset name; every window becomes its next version.
    num_attributes:
        Width ``d`` of the binary domain.
    schedule:
        :class:`~repro.stream.schedule.BudgetSchedule` (or a bare
        float, taken as the per-window epsilon).
    policy:
        A window policy (:class:`~repro.stream.windows
        .CountWindowPolicy` / :class:`TimeWindowPolicy`).
    mechanism_factory:
        ``f(epsilon, window) -> mechanism`` with a
        ``fit(dataset) -> synopsis`` method.  The default builds a
        :class:`PriView` with an **explicit** covering design (chosen
        once, reused across windows) so each window's ledger spend is
        exactly its epsilon — automatic design selection would add the
        noisy-record-count sliver per window and shift the parallel
        audit.  Custom factories must likewise spend exactly the
        epsilon they are handed, or the strict audit will (correctly)
        fail.
    keep_last:
        When set, prune the dataset to its newest ``keep_last``
        versions after each publish (pinned versions always survive).
    seed:
        Base seed; window ``i`` fits with ``seed + i`` so runs are
        reproducible yet windows draw independent noise.
    """

    def __init__(
        self,
        store,
        dataset: str,
        num_attributes: int,
        schedule,
        policy,
        *,
        mechanism_factory=None,
        keep_last: int | None = None,
        seed: int | None = 0,
        view_width: int = DEFAULT_VIEW_WIDTH,
        strength: int = DEFAULT_STRENGTH,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        scope_name: str = "stream.windows",
    ):
        if not isinstance(schedule, BudgetSchedule):
            schedule = BudgetSchedule(float(schedule))
        self.store = store
        self.dataset = dataset
        self.num_attributes = int(num_attributes)
        self.schedule = schedule
        self.policy = policy
        self.keep_last = keep_last
        self.seed = seed
        self.chunk_records = chunk_records
        self.scope_name = scope_name
        if mechanism_factory is None:
            width = min(view_width, self.num_attributes)
            strength = min(strength, width)
            design = best_design(self.num_attributes, width, strength)
            mechanism_factory = self._default_factory(design)
        self.mechanism_factory = mechanism_factory

    def _default_factory(self, design):
        def factory(epsilon: float, window: ClosedWindow):
            seed = None if self.seed is None else self.seed + window.index
            return PriView(epsilon, design=design, seed=seed)

        return factory

    # ------------------------------------------------------------------
    def release(self, window: ClosedWindow) -> WindowRecord:
        """Fit and publish one closed window; returns its record."""
        epsilon = self.schedule.epsilon_for(window.index)
        mechanism = self.mechanism_factory(epsilon, window)
        with obs.span("stream.release"):
            with obs.span(
                "stream.fit", "stream.window.fit_seconds",
                {"dataset": self.dataset},
            ) as fit:
                synopsis = mechanism.fit(window.shard)
            meta = window.meta()
            meta["epsilon"] = epsilon
            late = getattr(self.policy, "late_events", 0)
            if late:
                meta["late_events_so_far"] = late
            info = self.store.publish(
                self.dataset,
                synopsis,
                fit_seconds=fit.duration,
                extra={"window": meta},
            )
            if self.keep_last is not None:
                self.store.prune(self.dataset, keep_last=self.keep_last)
        obs.incr("stream.publish")
        obs.incr("stream.records", window.num_records)
        return WindowRecord(
            index=window.index,
            start=window.start,
            end=window.end,
            kind=window.kind,
            records=window.num_records,
            epsilon=epsilon,
            version=info.version,
            fit_seconds=fit.duration,
        )

    def run(self, events, on_release=None) -> list[WindowRecord]:
        """Consume ``events`` to exhaustion, releasing every window.

        The loop runs inside a strict parallel-composition budget
        scope configured at ``schedule.configured``; with an active
        obs session, ``sess.ledger.check()`` afterwards proves the
        stream spent exactly that.  ``on_release`` (if given) is
        called with each :class:`WindowRecord` as it is published —
        the hook live dashboards / tests use to observe progress.
        """
        released: list[WindowRecord] = []
        with obs.span("stream.run"), obs.budget_scope(
            self.scope_name,
            self.schedule.configured,
            composition="parallel",
        ):
            for window in iter_windows(
                events,
                self.policy,
                self.num_attributes,
                name=self.dataset,
                chunk_records=self.chunk_records,
            ):
                record = self.release(window)
                released.append(record)
                if on_release is not None:
                    on_release(record)
        return released
