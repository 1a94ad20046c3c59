"""Every method the paper compares against (Section 3).

All baselines implement a common protocol: construct with the privacy
parameters, call :meth:`fit` with a :class:`~repro.marginals.dataset.
Dataset`, then ask for marginals with :meth:`marginal`.

A note on lazy release: Direct, Fourier and the learning-based method
conceptually publish a noisy table / coefficient for *every* k-way
marginal, which is far too many to materialise for d=45.  Their
implementations therefore sample the noise for a marginal at query
time — distributionally identical to reading the published synopsis,
with the privacy accounting done as if everything were released (the
noise scale uses the full count ``m``).
"""

from repro.baselines.base import (
    MarginalReleaseMechanism,
    MarginalSource,
    Mechanism,
)
from repro.baselines.uniform import UniformMethod
from repro.baselines.flat import FlatMethod, flat_expected_normalized_l2
from repro.baselines.direct import DirectMethod
from repro.baselines.fourier import FourierMethod, FourierLPMethod
from repro.baselines.mwem import MWEMMethod
from repro.baselines.matrix_mechanism import (
    MatrixMechanism,
    marginal_workload_matrix,
)
from repro.baselines.learning import LearningMethod
from repro.baselines.datacube import DataCubeMethod

__all__ = [
    "MarginalReleaseMechanism",
    "MarginalSource",
    "Mechanism",
    "UniformMethod",
    "FlatMethod",
    "flat_expected_normalized_l2",
    "DirectMethod",
    "FourierMethod",
    "FourierLPMethod",
    "MWEMMethod",
    "MatrixMechanism",
    "marginal_workload_matrix",
    "LearningMethod",
    "DataCubeMethod",
]
