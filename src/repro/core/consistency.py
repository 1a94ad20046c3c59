"""Overall consistency across noisy views (paper Section 4.4).

Section 4.4 averages every piece of information that several views
share, and Section 4.7 applies the procedure unchanged to categorical
attributes.  In the contrast basis of
:mod:`repro.core.reconstruction.residual` each such piece is one
*block*: block ``S`` of a view varies exactly on the attributes in
``S``, and because the basis's all-ones row sums, block ``S`` of a view
equals block ``S`` of that view's ``S``-marginal.  Averaging a block
over the views that hold it therefore averages on the count scale,
which is what the paper's sequential procedure (intersection closure,
then project-and-spread updates smallest set first) computes.  After
it, any two views agree on the projection onto their shared
attributes (Definition 2).
"""

from __future__ import annotations

from repro import obs
from repro.core.reconstruction.residual import BlockAverage
from repro.marginals.table import MarginalTable


def make_consistent(tables: list[MarginalTable]) -> None:
    """Run overall consistency in place.

    Three steps: transform every view, average each block over the
    views holding it, and write every view back from its averaged
    blocks.  No simplex projection runs; the views may stay negative.
    """
    if len(tables) < 2:
        return
    average = BlockAverage(tables)
    for table, cells in zip(tables, average.write_back()):
        table.counts[...] = cells
    obs.incr("consistency.sets_processed", average.shared)
    obs.incr("consistency.table_updates", len(tables))
