"""Generic evaluation loop and result containers.

The paper's protocol (Section 5, Evaluation Methodology): for each
``k``, sample query attribute sets; for each query, average the error
over several independent runs of the mechanism; plot the distribution
of per-query average errors as a candlestick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.baselines.base import MarginalSource
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable
from repro.metrics.candlestick import Candlestick, candlestick
from repro.metrics.divergence import jensen_shannon
from repro.metrics.l2 import normalized_l2_error

#: metric name -> fn(estimate, truth, num_records) -> float
METRICS: dict[str, Callable[[MarginalTable, MarginalTable, float], float]] = {
    "normalized_l2": normalized_l2_error,
    "jensen_shannon": lambda est, tru, n: jensen_shannon(est, tru),
}


@dataclass
class MethodResult:
    """One candlestick: a (method, k, epsilon, metric) cell of a figure."""

    method: str
    k: int
    epsilon: float
    metric: str
    candle: Candlestick | None
    expected: float | None = None  # analytic value, when that is what
    # the paper plots (Flat at d>=32, the matrix mechanism)
    note: str = ""

    def headline(self) -> float:
        """The single number to compare against the paper's plots."""
        if self.candle is not None:
            return self.candle.mean
        return float(self.expected)


@dataclass
class ExperimentResult:
    """All rows of one reproduced figure/table."""

    experiment_id: str
    title: str
    rows: list[MethodResult] = field(default_factory=list)
    context: dict = field(default_factory=dict)

    def add(self, row: MethodResult) -> None:
        self.rows.append(row)

    def row(self, method: str, k: int, epsilon: float, metric: str | None = None):
        """Look up one cell (first match)."""
        for r in self.rows:
            if (
                r.method == method
                and r.k == k
                and r.epsilon == epsilon
                and (metric is None or r.metric == metric)
            ):
                return r
        raise KeyError((method, k, epsilon, metric))

    def render(self) -> str:
        """Plain-text table in the paper's orientation."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.context:
            lines.append(
                "   " + ", ".join(f"{k}={v}" for k, v in self.context.items())
            )
        header = (
            f"{'method':<22} {'k':>2} {'eps':>5} {'metric':<14} "
            f"{'mean':>10} {'median':>10} {'p95':>10}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.rows:
            if r.candle is not None:
                mean, median, p95 = r.candle.mean, r.candle.median, r.candle.p95
            else:
                mean = median = p95 = float(r.expected)
            note = f"  ({r.note})" if r.note else ""
            lines.append(
                f"{r.method:<22} {r.k:>2} {r.epsilon:>5g} {r.metric:<14} "
                f"{mean:>10.3e} {median:>10.3e} {p95:>10.3e}{note}"
            )
        return "\n".join(lines)


def evaluate_mechanism(
    make_mechanism: Callable[[int], MarginalSource],
    dataset: Dataset,
    queries: list[tuple[int, ...]],
    num_runs: int,
    metric: str = "normalized_l2",
) -> Candlestick:
    """Run the paper's protocol for one mechanism.

    Parameters
    ----------
    make_mechanism:
        Called once per run with the run index; must return a fitted
        :class:`~repro.baselines.base.MarginalSource` — any object
        exposing ``marginal(attrs) -> MarginalTable`` (a
        :class:`~repro.baselines.base.MarginalReleaseMechanism` after
        ``fit``, a :class:`~repro.core.synopsis.PriViewSynopsis`, or
        any third-party :class:`~repro.baselines.base.Mechanism`'s
        fit result); no isinstance checks are performed.
    dataset:
        Ground truth source.
    queries:
        Attribute sets to evaluate.
    num_runs:
        Independent noise draws; per-query errors are averaged across
        runs before the candlestick is formed.
    metric:
        Key into :data:`METRICS`.
    """
    return evaluate_mechanism_metrics(
        make_mechanism, dataset, queries, num_runs, metrics=(metric,)
    )[metric]


def evaluate_mechanism_metrics(
    make_mechanism: Callable[[int], MarginalSource],
    dataset: Dataset,
    queries: list[tuple[int, ...]],
    num_runs: int,
    metrics: tuple[str, ...] = ("normalized_l2",),
) -> dict[str, Candlestick]:
    """Like :func:`evaluate_mechanism` but scoring several metrics per
    reconstructed marginal, fitting each mechanism only once per run."""
    n = float(dataset.num_records)
    truths = [dataset.marginal(q) for q in queries]
    per_query = {m: np.zeros(len(queries)) for m in metrics}
    for run in range(num_runs):
        with obs.span("evaluate.fit"):
            mechanism = make_mechanism(run)
        with obs.span("evaluate.queries"):
            for qi, (attrs, truth) in enumerate(zip(queries, truths)):
                estimate = mechanism.marginal(attrs)
                for m in metrics:
                    per_query[m][qi] += METRICS[m](estimate, truth, n)
            obs.incr("evaluate.queries_scored", len(queries))
    return {
        m: candlestick(values / num_runs) for m, values in per_query.items()
    }
