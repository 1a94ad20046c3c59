"""Time-sliced marginal queries over published stream windows.

Every window the scheduler releases is one store version of the stream
dataset carrying the window's bounds in ``extra["window"]``.  This
module answers marginals against those slices through the ordinary
serving stack — each per-window answer leases the pinned version
(``name@version``) from an :class:`~repro.serve.multiplex
.EngineRouter`, so it flows through the full planner (covered /
derived / solved) and per-engine cache.

The **union** of the last ``k`` windows is the record-weighted merge
of the per-window answers: marginal tables are *count* tables over
disjoint record sets, so the union table is simply their cell-wise
sum (each window contributes proportionally to its record count, with
no renormalisation step).  Accuracy caveat: noise adds across the
union — ``k`` merged windows carry ~``sqrt(k)``x the per-window noise
standard deviation, while the signal grows with the union's record
count; see ``docs/STREAMING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.exceptions import QueryError
from repro.marginals.table import MarginalTable
from repro.serve.engine import QueryAnswer


def list_windows(store, name: str) -> list[dict]:
    """Released windows of ``name``, oldest first.

    One dict per store version that carries window metadata, merging
    the manifest's ``extra["window"]`` block with the version number
    and epsilon.  Versions published outside the stream scheduler (no
    window block) are skipped.
    """
    entry = store.manifest().datasets.get(name)
    if entry is None:
        return []
    out = []
    for info in entry.versions:
        window = info.extra.get("window") if info.extra else None
        if not isinstance(window, dict):
            continue
        row = dict(window)
        row["version"] = info.version
        row["spec"] = info.spec
        if "epsilon" not in row:
            row["epsilon"] = info.epsilon
        out.append(row)
    return out


def _select(rows: list[dict], windows=None, last: int | None = None):
    """Newest version per window index, filtered to the requested slice."""
    by_index: dict[int, dict] = {}
    for row in rows:  # rows are version-ordered; later wins
        by_index[int(row["index"])] = row
    ordered = [by_index[i] for i in sorted(by_index)]
    if windows is not None:
        wanted = [int(w) for w in windows]
        missing = [w for w in wanted if w not in by_index]
        if missing:
            raise QueryError(f"unknown window index(es): {missing}")
        return [by_index[w] for w in wanted]
    if last is not None:
        if last < 1:
            raise QueryError(f"last must be >= 1, got {last}")
        return ordered[-last:]
    return ordered


@dataclass(frozen=True)
class WindowSlice:
    """One window's contribution to a time-sliced query."""

    index: int
    version: int
    start: float
    end: float
    records: int
    epsilon: float | None
    answer: QueryAnswer = field(repr=False)

    def to_json(self) -> dict:
        from repro.serve.protocol import encode_answer

        blob = encode_answer(self.answer)
        blob["window"] = {
            "index": self.index,
            "version": self.version,
            "start": self.start,
            "end": self.end,
            "records": self.records,
            "epsilon": self.epsilon,
        }
        return blob


@dataclass(frozen=True)
class WindowsAnswer:
    """Per-window answers plus their record-weighted union."""

    dataset: str
    attrs: tuple[int, ...]
    method: str
    slices: list[WindowSlice]
    union: MarginalTable = field(repr=False)

    def to_json(self) -> dict:
        return {
            "dataset": self.dataset,
            "attrs": list(self.attrs),
            "method": self.method,
            "windows": [s.to_json() for s in self.slices],
            "union": {
                "counts": self.union.counts.tolist(),
                "total": self.union.total(),
                "records": float(
                    sum(s.records for s in self.slices)
                ),
                "merged": len(self.slices),
            },
        }


def answer_windows(
    router,
    name: str,
    attrs,
    *,
    windows=None,
    last: int | None = None,
    method: str | None = None,
    timeout: float | None = None,
) -> WindowsAnswer:
    """Answer one marginal per selected window, plus their union.

    ``windows`` picks explicit window indices; ``last`` the newest
    ``k`` released windows; neither selects every released window.
    Each slice leases its pinned version through ``router`` — the
    same zero-drop path live serving uses — and the union is the
    cell-wise sum of the per-window count tables.
    """
    with obs.span(
        "serve.window", "serve.window.seconds", {"dataset": name}
    ):
        rows = list_windows(router.store, name)
        if not rows:
            raise QueryError(
                f"unknown dataset {name!r} (or it has no released windows)"
            )
        selected = _select(rows, windows=windows, last=last)
        slices: list[WindowSlice] = []
        union_counts = None
        resolved_method = method
        for row in selected:
            with router.lease(f"{name}@{row['version']}") as engine:
                answer = engine.answer(attrs, method=method, timeout=timeout)
            resolved_method = answer.method
            slices.append(
                WindowSlice(
                    index=int(row["index"]),
                    version=int(row["version"]),
                    start=float(row["start"]),
                    end=float(row["end"]),
                    records=int(row.get("records", 0)),
                    epsilon=row.get("epsilon"),
                    answer=answer,
                )
            )
            if union_counts is None:
                union_counts = answer.table.counts.copy()
            else:
                union_counts = union_counts + answer.table.counts
        union = MarginalTable(
            slices[0].answer.table.attrs,
            np.asarray(union_counts),
            meta={"windows": [s.index for s in slices]},
        )
        obs.incr("serve.window.requests")
        obs.incr("serve.window.slices", len(slices))
    return WindowsAnswer(
        dataset=name,
        attrs=slices[0].answer.attrs,
        method=resolved_method,
        slices=slices,
        union=union,
    )
