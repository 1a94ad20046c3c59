"""The import path the benchmark harness uses for categorical datasets.

There is one dataset type for both domain kinds:
:class:`repro.marginals.dataset.Dataset`, with ``arities``.
"""

from repro.marginals.dataset import Dataset as CategoricalDataset

__all__ = ["CategoricalDataset"]
