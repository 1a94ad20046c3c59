"""PriView for categorical datasets (Section 4.7, end to end).

The pipeline is identical to the binary one — noisy views, overall
consistency, Ripple, reconstruction — and runs on the same code: the
views are :class:`~repro.marginals.table.MarginalTable` objects whose
attribute sets carry the arities, so consistency, Ripple
(:mod:`repro.core.nonnegativity`) and every reconstruction solver but
the binary-only ``residual`` (:mod:`repro.core.reconstruction`) apply
unchanged.  Only view selection is categorical-specific: it bounds
each view's cell count (:mod:`repro.categorical.views`).

Like the binary :class:`~repro.core.priview.PriView`, the fit hot
path can run on the bit-sliced kernels
(:class:`~repro.kernels.packed_cat.PackedCategoricalDataset`) with
``packed=True`` — bitwise-identical marginals — and fan the views out
over a worker pool with ``workers=N`` (per-view ``SeedSequence``
child noise streams; bit-identical for any worker count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import obs
from repro.categorical.dataset import CategoricalDataset
from repro.categorical.views import select_categorical_views
from repro.core.consistency import make_consistent
from repro.core.nonnegativity import DEFAULT_THETA, ripple
from repro.core.reconstruction import reconstruct, reconstruct_batch
from repro.exceptions import PrivacyBudgetError
from repro.kernels import config as kernels_config
from repro.kernels.fit import generate_noisy_views as _parallel_noisy_views
from repro.marginals.attrs import AttrSet
from repro.marginals.domain import Domain
from repro.marginals.table import MarginalTable
from repro.mechanisms.laplace import noisy_counts


@dataclass
class CategoricalSynopsis:
    """Published, consistent categorical view marginals.

    ``domain`` is optional richer schema (names, kinds, bin edges)
    for the same attributes; when present its arities always match
    ``arities``, and record-level consumers (``repro.synth``, the
    serving sample route) use it to decode cell indices back into
    attribute values.
    """

    views: list[MarginalTable]
    arities: tuple[int, ...]
    epsilon: float
    metadata: dict = field(default_factory=dict)
    domain: Domain | None = None
    #: optional repro.serve.QueryEngine; set via attach_engine
    _engine: object | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.arities = tuple(int(b) for b in self.arities)
        if self.domain is not None and self.domain.arities != self.arities:
            raise PrivacyBudgetError(
                f"domain arities {self.domain.arities} do not match "
                f"synopsis arities {self.arities}"
            )

    @property
    def num_views(self) -> int:
        return len(self.views)

    @property
    def num_attributes(self) -> int:
        """Dimensionality ``d`` — mirrors :class:`PriViewSynopsis`."""
        return len(self.arities)

    # ------------------------------------------------------------------
    # Serving-engine integration (same contract as PriViewSynopsis)
    # ------------------------------------------------------------------
    def attach_engine(self, engine) -> None:
        """Route ``marginal``/``marginals`` through a serving engine."""
        self._engine = engine

    @property
    def engine(self):
        """The attached serving engine, if any."""
        return self._engine

    def total_count(self) -> float:
        if not self.views:
            return 0.0
        return sum(v.total() for v in self.views) / len(self.views)

    def is_covered(self, attrs) -> bool:
        target = set(AttrSet(attrs))
        return any(target.issubset(v.attrs) for v in self.views)

    def _target(self, attrs) -> AttrSet:
        """``attrs`` with their arities from the synopsis's arity vector."""
        attrs = AttrSet(attrs, self.num_attributes)
        return attrs.with_arities(self.arities[a] for a in attrs)

    def marginal(self, attrs, method: str = "maxent") -> MarginalTable:
        """Reconstruct the marginal over ``attrs`` (a projection when a
        view covers it, the named solver otherwise); with an attached
        serving engine the query goes through its planner and cache."""
        if self._engine is not None:
            return self._engine.answer(attrs, method=method).table
        return reconstruct(
            self.views, self._target(attrs), method=method,
            total=self.total_count(),
        )

    def marginals(self, attr_sets, method: str = "maxent"):
        """Reconstruct several marginals, solving each distinct set once."""
        if self._engine is not None:
            return [
                answer.table
                for answer in self._engine.answer_batch(attr_sets, method=method)
            ]
        order = list(dict.fromkeys(self._target(attrs) for attrs in attr_sets))
        tables = reconstruct_batch(
            self.views, order, method=method, total=self.total_count()
        )
        distinct = dict(zip(order, tables))
        out = []
        seen: set[tuple[int, ...]] = set()
        for attrs in attr_sets:
            target = AttrSet(attrs)
            table = distinct[target]
            out.append(table.copy() if target in seen else table)
            seen.add(target)
        return out

    def __repr__(self) -> str:
        return (
            f"CategoricalSynopsis(d={self.num_attributes}, "
            f"arities={self.arities}, epsilon={self.epsilon}, "
            f"views={self.num_views})"
        )


class CategoricalPriView:
    """PriView over multi-valued attributes.

    Parameters
    ----------
    epsilon:
        Privacy budget (``inf`` = noise-free).
    max_cells:
        Per-view cell budget; defaults to the Section 4.7 guideline.
    views:
        Explicit attribute tuples, overriding greedy selection.
    theta:
        Ripple threshold.
    seed:
        Seeds view selection and the noise generator.
    packed:
        Extract exact marginals on the bit-plane popcount kernels
        (:func:`repro.kernels.packed_cat.as_packed_categorical`) —
        bitwise-identical counts.  ``None`` inherits the process-wide
        :func:`repro.kernels.set_fit_defaults` setting.
    workers / backend:
        As in the binary :class:`~repro.core.priview.PriView`: ``None``
        keeps the legacy sequential noise stream; an integer fans the
        views out with per-view ``SeedSequence`` child streams
        (bit-identical for any worker count, including 1).
    """

    name = "categorical-priview"

    def __init__(
        self,
        epsilon: float,
        max_cells: int | None = None,
        views: list[tuple[int, ...]] | None = None,
        theta: float = DEFAULT_THETA,
        seed: int | None = None,
        packed: bool | None = None,
        workers: int | None = None,
        backend: str = "auto",
    ):
        if epsilon <= 0:
            raise PrivacyBudgetError(f"epsilon must be positive, got {epsilon}")
        defaults = kernels_config.fit_defaults()
        self.epsilon = float(epsilon)
        self.max_cells = max_cells
        self.views = views
        self.theta = theta
        self.packed = defaults["packed"] if packed is None else bool(packed)
        self.workers = defaults["workers"] if workers is None else workers
        self.backend = backend
        self._rng = np.random.default_rng(seed)
        self._seed_seq = np.random.SeedSequence(seed)

    def fit(self, dataset: CategoricalDataset) -> CategoricalSynopsis:
        """Run the full categorical pipeline.

        Accepts a :class:`CategoricalDataset` or an already-packed
        :class:`~repro.kernels.packed_cat.PackedCategoricalDataset`
        (anything with ``arities`` and ``marginal``).  Under an
        observability session every noise draw lands in a strict
        ``CategoricalPriView.fit`` budget scope that balances exactly
        to ``epsilon``.
        """
        fit_start = perf_counter()
        with obs.span("categorical.fit"), obs.budget_scope(
            "CategoricalPriView.fit", self.epsilon
        ):
            view_attrs = self.views or select_categorical_views(
                dataset.arities, max_cells=self.max_cells, rng=self._rng
            )
            w = len(view_attrs)
            source = dataset
            if self.packed:
                from repro.kernels.packed_cat import as_packed_categorical

                source = as_packed_categorical(dataset)
            obs.set_gauge("fit.packed", int(self.packed))
            with obs.span("noisy_views"):
                if self.workers is None:
                    obs.set_gauge("fit.workers", 1)
                    tables = []
                    for attrs in view_attrs:
                        table = source.marginal(attrs)
                        table.counts = noisy_counts(
                            table.counts,
                            self.epsilon,
                            sensitivity=w,
                            rng=self._rng,
                        )
                        tables.append(table)
                else:
                    tables = _parallel_noisy_views(
                        source,
                        view_attrs,
                        self.epsilon,
                        sensitivity=w,
                        root_seed=self._seed_seq,
                        workers=self.workers,
                        backend=self.backend,
                    )
            with obs.span("post_process"):
                make_consistent(tables)
                for table in tables:
                    ripple(table, theta=self.theta)
                make_consistent(tables)
            obs.observe(
                "fit.seconds",
                perf_counter() - fit_start,
                {"mechanism": "categorical-priview"},
            )
        return CategoricalSynopsis(
            views=tables,
            arities=tuple(int(b) for b in dataset.arities),
            epsilon=self.epsilon,
            metadata={
                "view_attrs": [tuple(a) for a in view_attrs],
                "theta": self.theta,
            },
            domain=getattr(dataset, "domain", None),
        )
