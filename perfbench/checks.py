"""Output correctness checks; every failure counts against the run.

Serve answers get two levels of checking:

* every answer: shape and total, and non-negativity of every answer
  the server had to reconstruct (:func:`answer_problem`).  An answer
  over a set some view covers is a projection of a published view,
  and published views can hold small negative cells (Ripple leaves
  cells down to ``-theta`` and the last consistency pass moves them
  again).  Those answers are held to bitwise equality with the
  synopsis instead, and their negative cells are tallied apart
  (:func:`negative_cells`);
* a fixed sample: bitwise equality with an in-process
  :class:`repro.serve.QueryEngine` over the same store version
  (:class:`Reference`).  Covered answers must equal
  ``synopsis.marginal``; solved answers the reference's own solve (a
  ``/batch`` is replayed as the same batch, since the stacked solve
  rounds differently); derived answers the projection of the reference
  table of the set the server named as ``source``.  ``inputs.py``
  builds the query streams so that source was always solved.
"""

from __future__ import annotations

import math

import numpy as np

#: An answer's mass must match the synopsis total to this relative
#: tolerance: far above round-off and above the mass an IPF run that
#: hit its sweep cap drifts (about 1e-6), far below one record in 1e4.
TOTAL_RTOL = 1e-4


def answer_problem(payload, attrs, method, arities, totals,
                   covered: bool) -> str | None:
    """What is wrong with one answer payload (None when nothing is).

    ``arities`` holds every attribute's arity for the dataset; ``totals``
    the synopsis totals of the versions that may have answered;
    ``covered`` whether a view of the synopsis covers ``attrs``.
    """
    attrs = sorted(int(a) for a in attrs)
    if payload.get("attrs") != attrs:
        return f"attrs {payload.get('attrs')} != {attrs}"
    if payload.get("method") != method:
        return f"method {payload.get('method')!r} != {method!r}"
    if payload.get("path") not in ("covered", "derived", "solved"):
        return f"unknown path {payload.get('path')!r}"
    counts = np.asarray(payload.get("counts"), dtype=np.float64)
    cells = math.prod(arities[a] for a in attrs)
    if counts.shape != (cells,):
        return f"{counts.shape} cells for {attrs}, expected {cells}"
    if "arities" in payload and payload["arities"] != [arities[a] for a in attrs]:
        return f"arities {payload['arities']} do not match the domain"
    if not np.isfinite(counts).all():
        return "non-finite counts"
    if not covered and counts.min() < 0:
        return f"negative counts in a reconstructed answer (min {counts.min()!r})"
    mass = float(counts.sum())
    if abs(float(payload.get("total", math.nan)) - mass) > TOTAL_RTOL * max(mass, 1.0):
        return f"total {payload.get('total')} != cell sum {mass}"
    if not any(abs(mass - t) <= TOTAL_RTOL * max(t, 1.0) for t in totals):
        return f"cell sum {mass} matches no synopsis total {sorted(totals)}"
    return None


def negative_cells(payload) -> tuple[int, float]:
    """(number of negative cells, most negative cell) of an answer."""
    counts = np.asarray(payload["counts"], dtype=np.float64)
    return int((counts < 0).sum()), float(min(counts.min(), 0.0))


class Reference:
    """In-process engines over the store versions the server hosts.

    ``issued`` maps ``(dataset, method, attrs)`` to ``(op_id, op,
    position)``: which request first sent each set, so a derived
    answer's source can be recomputed the way the server computed it.
    """

    def __init__(self, store, issued: dict):
        self.store = store
        self.issued = issued
        self._synopses: dict = {}
        self._engines: dict = {}
        self._batches: dict = {}

    def synopsis(self, dataset: str, version: int):
        key = (dataset, version)
        if key not in self._synopses:
            self._synopses[key] = self.store.get(f"{dataset}@{version}")
        return self._synopses[key]

    def total(self, dataset: str, version: int) -> float:
        return float(self.synopsis(dataset, version).total_count())

    def _engine(self, dataset: str, version: int):
        from repro.serve import QueryEngine

        key = (dataset, version)
        if key not in self._engines:
            self._engines[key] = QueryEngine(
                self.synopsis(dataset, version), cache_size=1 << 20,
                derive_from_cache=False, dataset=dataset, workers=1,
            )
        return self._engines[key]

    def solved(self, op_id, op, position: int, version: int):
        """The table the server's solve of ``op.queries[position]`` gives."""
        engine = self._engine(op.dataset, version)
        if op.is_batch:
            key = (op_id, version)
            if key not in self._batches:
                self._batches[key] = engine.answer_batch(
                    list(op.queries), method=op.method
                )
            return self._batches[key][position].table
        return engine.answer(op.queries[position], method=op.method).table

    def expected(self, payload, op, version: int) -> np.ndarray:
        attrs = tuple(payload["attrs"])
        path = payload["path"]
        if path == "covered":
            return self.synopsis(op.dataset, version).marginal(attrs).counts
        if path == "derived":
            source = tuple(payload["source"])
            src_id, src_op, src_pos = self.issued[op.dataset, op.method, source]
            return self.solved(src_id, src_op, src_pos, version).project(attrs).counts
        op_id, issued_op, position = self.issued[op.dataset, op.method, attrs]
        return self.solved(op_id, issued_op, position, version).counts

    def matches(self, payload, op, versions) -> bool:
        counts = np.asarray(payload["counts"], dtype=np.float64)
        return any(
            np.array_equal(counts, self.expected(payload, op, v))
            for v in versions
        )

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()


def stream_problems(sent: int, released: dict, late_dropped: int, stream) -> list[str]:
    """Event accounting for the publish workload's stream part.

    ``released`` maps window index to the records its release holds.
    """
    problems = []
    if sum(released.values()) + late_dropped != sent:
        problems.append(
            f"released {sum(released.values())} + late {late_dropped} "
            f"!= sent {sent}"
        )
    if late_dropped != stream.num_late:
        problems.append(f"late {late_dropped} != expected {stream.num_late}")
    if released != stream.window_records:
        problems.append("per-window record counts differ from the event stream")
    return problems
