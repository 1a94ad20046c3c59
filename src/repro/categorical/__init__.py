"""Categorical-attribute extension of PriView (paper Section 4.7).

The main sections of the paper treat binary attributes; Section 4.7
extends PriView to attributes with ``b >= 2`` values each and notes
that consistency, Ripple and max-entropy reconstruction "can be
applied directly".  So they are: a categorical marginal is the shared
:class:`~repro.marginals.table.MarginalTable` whose
:class:`~repro.marginals.attrs.AttrSet` carries the arities (a binary
table is the case where every arity is 2), and the core consistency,
Ripple and reconstruction code serves both.  What this package adds:

* :class:`CategoricalDataset`, an ``N x d`` matrix of codes with one
  arity per column;
* view selection that bounds the *cell count* per view using the
  Section 4.7 ``s`` guideline instead of the attribute count
  (:mod:`repro.categorical.views`);
* :class:`CategoricalPriView` and the :class:`CategoricalSynopsis` it
  publishes, plus the Direct and Uniform baselines
  (:mod:`repro.categorical.baselines`).
"""

from repro.categorical.dataset import CategoricalDataset
from repro.categorical.priview import CategoricalPriView, CategoricalSynopsis
from repro.categorical.views import select_categorical_views

__all__ = [
    "CategoricalDataset",
    "CategoricalPriView",
    "CategoricalSynopsis",
    "select_categorical_views",
]
