"""repro.stream: continuous ingestion, windowed DP releases, live serving.

The streaming vertical over the PriView pipeline: events, normalised
in columnar batches (:mod:`~repro.stream.events`), flow into
tumbling windows (:mod:`~repro.stream.windows`), each closed window is
fitted under a per-window epsilon from a :class:`BudgetSchedule` and
auto-published to the synopsis store (:mod:`~repro.stream.scheduler`),
and released windows are queryable per-slice or as last-``k`` unions
through the ordinary serving stack (:mod:`~repro.stream.query`).
Disjoint windows compose in parallel, so the whole stream costs one
window's epsilon — and the budget ledger proves it exactly.
"""

from repro.stream.events import (
    BATCH,
    Event,
    EventBatch,
    StreamError,
    as_event,
    read_jsonl_events,
)
from repro.stream.query import (
    WindowsAnswer,
    WindowSlice,
    answer_windows,
    list_windows,
)
from repro.stream.schedule import BudgetSchedule
from repro.stream.scheduler import WindowRecord, WindowScheduler
from repro.stream.windows import (
    ClosedWindow,
    CountWindowPolicy,
    TimeWindowPolicy,
    WindowShard,
    iter_windows,
)

__all__ = [
    "BATCH",
    "BudgetSchedule",
    "ClosedWindow",
    "CountWindowPolicy",
    "Event",
    "EventBatch",
    "StreamError",
    "TimeWindowPolicy",
    "WindowRecord",
    "WindowScheduler",
    "WindowShard",
    "WindowsAnswer",
    "WindowSlice",
    "answer_windows",
    "as_event",
    "iter_windows",
    "list_windows",
    "read_jsonl_events",
]
