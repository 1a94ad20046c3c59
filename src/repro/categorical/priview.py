"""The import path the benchmark harness uses for categorical fits.

There is one mechanism for both domain kinds:
:class:`repro.core.priview.PriView` selects cell-budget views for any
dataset with ``arities``.
"""

from repro.core.priview import PriView as CategoricalPriView

__all__ = ["CategoricalPriView"]
