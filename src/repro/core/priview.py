"""The end-to-end PriView mechanism (paper Section 4.2).

Typical use::

    from repro import PriView
    mechanism = PriView(epsilon=1.0, seed=7)
    synopsis = mechanism.fit(dataset)          # the only private step
    table = synopsis.marginal((0, 5, 9, 23))   # any k-way marginal

``fit`` spends the entire epsilon on the noisy views (Laplace noise of
scale ``w / epsilon`` per view, by sequential composition over the
``w`` views); everything afterwards is post-processing and free.

The same mechanism serves both domain kinds (Section 4.7: the pipeline
"can be applied directly" to categorical attributes).  Only view
selection depends on the dataset it is given: a covering design of
``view_width``-attribute blocks for a binary dataset, greedy
cell-budget views (:func:`~repro.categorical.views.select_categorical_views`)
for a dataset with ``arities``.

The fit hot path (one exact ℓ-way marginal per view — the only step
touching raw records) runs on the bit-plane popcount kernels of
:mod:`repro.kernels`, and each view draws its noise from its own
``SeedSequence.spawn`` child of the seed.  ``workers`` fans the views
out over a thread pool and changes nothing but throughput: the
synopsis is bit-identical for every worker count::

    PriView(epsilon=1.0, seed=7, workers=8).fit(dataset)

See ``docs/PERFORMANCE.md`` for the determinism contract.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.categorical.views import select_categorical_views
from repro.core.consistency import make_consistent
from repro.core.nonnegativity import DEFAULT_THETA, apply_nonnegativity
from repro.core.synopsis import PriViewSynopsis
from repro.core.view_selection import (
    DEFAULT_VIEW_WIDTH,
    RECORD_COUNT_EPSILON,
    noisy_record_count,
    select_views,
)
from repro.covering.design import CoveringDesign
from repro.exceptions import PrivacyBudgetError, ReproError
from repro.kernels.fit import generate_noisy_views as _noisy_views
from repro.kernels.packed import as_packed
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable


class PriView:
    """Configurable PriView mechanism.

    Parameters
    ----------
    epsilon:
        Total privacy budget; ``float('inf')`` gives the paper's
        noise-free ``C*`` variants.
    view_width:
        The ``l`` of the covering design (paper recommends 8); binary
        datasets only.
    strength:
        Covering strength ``t``; ``None`` picks it with the Section 4.5
        heuristic from a noisy record count.  Binary datasets only.
    design:
        Explicit views, overriding automatic selection: a covering
        design (used by the experiments that sweep designs) or a list
        of attribute tuples.
    max_cells:
        Per-view cell budget for datasets with arities; defaults to the
        Section 4.7 guideline.
    nonnegativity:
        ``"ripple"`` (default), ``"simple"``, ``"global"`` or
        ``"none"``.
    nonneg_rounds:
        How many (non-negativity + consistency) rounds follow the
        initial consistency pass.  1 reproduces the paper's
        Consistency + Ripple + Consistency; Figure 4 shows more rounds
        add nothing.
    theta:
        Ripple threshold.
    seed:
        Seeds view selection and the per-view noise streams, for
        reproducible experiments.
    packed:
        Accepted for compatibility: ``None`` or ``True`` (extraction
        always runs on the packed kernels); ``False`` raises
        :class:`~repro.exceptions.ReproError`.
    workers:
        Pool width for the per-view fan-out; ``None`` (default) runs
        the views serially.  A throughput knob only: every value
        releases the same synopsis.
    """

    name = "priview"

    def __init__(
        self,
        epsilon: float,
        view_width: int = DEFAULT_VIEW_WIDTH,
        strength: int | None = None,
        design: CoveringDesign | list[tuple[int, ...]] | None = None,
        max_cells: int | None = None,
        nonnegativity: str = "ripple",
        nonneg_rounds: int = 1,
        theta: float = DEFAULT_THETA,
        consistency: bool = True,
        seed: int | None = None,
        packed: bool | None = None,
        workers: int | None = None,
    ):
        if epsilon <= 0:
            raise PrivacyBudgetError(f"epsilon must be positive, got {epsilon}")
        if packed is not None and not packed:
            raise ReproError("PriView always extracts on the packed kernels")
        self.epsilon = float(epsilon)
        self.view_width = view_width
        self.strength = strength
        self.design = design
        self.max_cells = max_cells
        self.nonnegativity = nonnegativity
        self.nonneg_rounds = nonneg_rounds
        self.theta = theta
        self.consistency = consistency
        self.workers = workers
        self._rng = np.random.default_rng(seed)
        self._seed_seq = np.random.SeedSequence(seed)

    # ------------------------------------------------------------------
    def choose_design(
        self, dataset: Dataset
    ) -> CoveringDesign | list[tuple[int, ...]]:
        """The views ``fit`` will use for ``dataset``.

        A covering design for a binary dataset (its strength chosen
        from a noisy record count unless set), greedy cell-budget
        views under ``max_cells`` for one with arities.
        """
        if self.design is not None:
            return self.design
        if dataset.arities is not None:
            return select_categorical_views(
                dataset.arities, max_cells=self.max_cells, rng=self._rng
            )
        n_estimate = (
            dataset.num_records
            if np.isinf(self.epsilon)
            else noisy_record_count(dataset.num_records, rng=self._rng)
        )
        return select_views(
            n_estimate,
            dataset.num_attributes,
            self.epsilon,
            block_size=self.view_width,
            strength=self.strength,
        )

    def generate_noisy_views(
        self, dataset: Dataset, design: CoveringDesign | list[tuple[int, ...]]
    ) -> list[MarginalTable]:
        """Step 2: the only step that touches the private data.

        Exact marginals come off the packed popcount kernels; view ``i``
        adds noise from child stream ``i`` of one ``SeedSequence.spawn``
        per call, so two fits of one instance draw different noise.
        """
        blocks = _blocks(design)
        return _noisy_views(
            as_packed(dataset),
            blocks,
            self.epsilon,
            sensitivity=len(blocks),
            root_seed=self._seed_seq,
            workers=self.workers,
        )

    def post_process(self, views: list[MarginalTable]) -> list[MarginalTable]:
        """Steps 3: consistency and non-negativity, in the paper's order.

        Consistency, then ``nonneg_rounds`` repetitions of
        (non-negativity + consistency).  Runs in place and returns the
        same list for convenience.
        """
        if self.consistency:
            with obs.span("consistency"):
                make_consistent(views)
        rounds = self.nonneg_rounds if self.nonnegativity != "none" else 0
        for _ in range(rounds):
            with obs.span("nonnegativity"):
                for view in views:
                    apply_nonnegativity(view, self.nonnegativity, theta=self.theta)
            if self.consistency:
                with obs.span("consistency"):
                    make_consistent(views)
        return views

    def fit(self, dataset: Dataset) -> PriViewSynopsis:
        """Run the full pipeline and return the private synopsis.

        Accepts a :class:`~repro.marginals.dataset.Dataset` or its
        :class:`~repro.kernels.PackedDataset` form, of either domain
        kind.  Under an observability session the fit is traced stage
        by stage and every noise draw lands in a strict ``PriView.fit``
        budget scope.  The scope's configured total is ``epsilon`` plus
        — when a covering design is chosen automatically under finite
        budget — the paper's ``RECORD_COUNT_EPSILON`` sliver for the
        noisy record count, so the ledger audit balances exactly.
        """
        binary = dataset.arities is None
        configured = self.epsilon
        if binary and self.design is None and not np.isinf(self.epsilon):
            configured = self.epsilon + RECORD_COUNT_EPSILON
        with obs.span(
            "priview.fit", "fit.seconds", {"mechanism": "priview"}
        ), obs.budget_scope("PriView.fit", configured):
            with obs.span("choose_design"):
                design = self.choose_design(dataset)
            blocks = _blocks(design)
            obs.set_gauge("priview.design_blocks", len(blocks))
            obs.set_gauge("priview.design_width", max(map(len, blocks), default=0))
            with obs.span("noisy_views"):
                views = self.generate_noisy_views(dataset, design)
            with obs.span("post_process"):
                views = self.post_process(views)
        if binary:
            metadata = {
                "nonnegativity": self.nonnegativity,
                "nonneg_rounds": self.nonneg_rounds,
                "theta": self.theta,
            }
        else:
            # no covering design records a categorical fit's views
            metadata = {"view_attrs": blocks, "theta": self.theta}
        return PriViewSynopsis(
            views=views,
            epsilon=self.epsilon,
            num_attributes=dataset.num_attributes,
            metadata=metadata,
            domain=dataset.domain,
            design=design if isinstance(design, CoveringDesign) else None,
            arities=dataset.arities,
        )


def _blocks(design) -> list[tuple[int, ...]]:
    """The view attribute sets of a covering design or an explicit list."""
    if isinstance(design, CoveringDesign):
        return list(design.blocks)
    return [tuple(b) for b in design]
