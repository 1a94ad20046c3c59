"""Categorical-attribute extension of PriView (paper Section 4.7).

The main sections of the paper treat binary attributes; Section 4.7
extends PriView to attributes with ``b >= 2`` values each and notes
that consistency, Ripple and max-entropy reconstruction "can be
applied directly".  So they are, and the rest of the pipeline too: one
:class:`~repro.marginals.dataset.Dataset` (with ``arities``), one
:class:`~repro.kernels.PackedDataset`, one
:class:`~repro.core.priview.PriView` and one
:class:`~repro.core.synopsis.PriViewSynopsis` serve both domain kinds,
and a binary table is the case where every arity is 2; so do the
Direct and Uniform baselines.  What this package adds is view
selection that bounds the *cell count* per view using the Section 4.7
``s`` guideline instead of the attribute count
(:mod:`repro.categorical.views`), which ``PriView.fit`` uses for any
dataset with arities.
"""

from repro.categorical.views import select_categorical_views

__all__ = ["select_categorical_views"]
