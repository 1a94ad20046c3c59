"""repro — a full reproduction of PriView (SIGMOD 2014).

PriView publishes a differentially private synopsis of a
high-dimensional binary dataset from which any k-way marginal
contingency table can be reconstructed accurately.

Quickstart
----------
>>> import numpy as np
>>> from repro import Dataset, PriView
>>> data = (np.random.default_rng(0).random((5000, 16)) < 0.3)
>>> dataset = Dataset(data.astype(np.uint8))
>>> synopsis = PriView(epsilon=1.0, seed=1).fit(dataset)
>>> table = synopsis.marginal((0, 3, 7, 11))  # private 4-way marginal

Every fit extracts its views on bit-sliced popcount kernels and draws
each view's noise from its own seeded stream; ``workers`` fans large
fits over a thread pool without changing the release
(``docs/PERFORMANCE.md``)::

    PriView(epsilon=1.0, seed=1, workers=8).fit(dataset)

Attribute sets are canonicalised everywhere by :class:`AttrSet`, and
every mechanism — PriView and each baseline — satisfies the
structural :class:`Mechanism` / :class:`MarginalSource` protocols, so
experiment drivers and ``repro.serve`` host them interchangeably.

Package map
-----------
``repro.core``
    PriView itself: view selection, consistency, Ripple
    non-negativity, max-entropy reconstruction.
``repro.marginals``
    Datasets, marginal tables, projections.
``repro.mechanisms``
    Laplace / exponential mechanisms, budget accounting.
``repro.covering``
    Covering-design construction (the view-selection substrate).
``repro.baselines``
    Flat, Direct, Fourier(+LP), MWEM, matrix mechanism, learning-based,
    data cubes, uniform — everything the paper compares against.
``repro.datasets``
    MCHAIN and clickstream-style dataset generators / loaders.
``repro.metrics`` / ``repro.analysis``
    Error measures and the paper's closed-form error analysis.
``repro.experiments``
    Drivers reproducing every table and figure of the evaluation.
``repro.kernels``
    Bit-sliced marginal kernels and the deterministic parallel fit.
``repro.serve``
    Concurrent query serving over any fitted marginal source, or a
    whole synopsis store (per-dataset routes, zero-drop hot swap).
``repro.store``
    Versioned, multi-tenant synopsis registry: content-addressed
    artifacts, atomic publish, integrity checks (``docs/STORE.md``).
``repro.synth``
    Record-level synthetic data from any synopsis (PrivSyn-style
    gradual updating; zero extra budget — ``docs/SYNTHESIS.md``).
``repro.obs``
    Tracing spans, pipeline counters, and the privacy-budget ledger
    (see ``docs/OBSERVABILITY.md``); inert unless a session is active.
"""

from repro.core import PriView, PriViewSynopsis
from repro.covering import CoveringDesign
from repro.baselines.base import MarginalSource, Mechanism
from repro.kernels import PackedDataset
from repro.marginals import (
    AttrSet,
    Attribute,
    Dataset,
    Domain,
    FullContingencyTable,
    MarginalTable,
    as_domain,
)
from repro.mechanisms import PrivacyBudget
from repro.synth import Synthesizer, SyntheticRecords, synthesize

__version__ = "1.1.0"

__all__ = [
    "PriView",
    "PriViewSynopsis",
    "CoveringDesign",
    "AttrSet",
    "Attribute",
    "Dataset",
    "Domain",
    "FullContingencyTable",
    "MarginalSource",
    "MarginalTable",
    "Mechanism",
    "PackedDataset",
    "PrivacyBudget",
    "Synthesizer",
    "SyntheticRecords",
    "as_domain",
    "synthesize",
    "__version__",
]
