"""PriView core: the paper's primary contribution (Section 4).

The pipeline is

1. :mod:`repro.core.view_selection` — choose a covering design of views
   from ``d``, ``epsilon`` and ``N`` (Section 4.5);
2. noisy view generation with ``Lap(w / epsilon)`` (Section 4.2 step 2);
3. :mod:`repro.core.consistency` — make all views mutually consistent
   (Section 4.4), interleaved with
   :mod:`repro.core.nonnegativity` — the Ripple procedure;
4. :mod:`repro.core.reconstruction` — answer any k-way marginal by
   maximum entropy (Section 4.3).

:class:`repro.core.priview.PriView` ties the stages together and is the
main entry point of the library.
"""

from repro.core.priview import PriView
from repro.core.synopsis import PriViewSynopsis
from repro.core.view_selection import (
    choose_strength,
    priview_noise_error,
    select_views,
)
from repro.core.consistency import make_consistent
from repro.core.nonnegativity import apply_nonnegativity, ripple
from repro.core.serialization import load_synopsis, save_synopsis

__all__ = [
    "PriView",
    "PriViewSynopsis",
    "choose_strength",
    "priview_noise_error",
    "select_views",
    "make_consistent",
    "apply_nonnegativity",
    "ripple",
    "load_synopsis",
    "save_synopsis",
]
