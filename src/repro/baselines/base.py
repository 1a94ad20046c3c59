"""The common mechanism protocol shared by all baselines and PriView.

Two structural protocols define the public API every consumer codes
against (answering never special-cases a type; only synopsis metadata,
such as the covering design or the domain, is read off a
:class:`~repro.core.synopsis.PriViewSynopsis` by type):

* :class:`MarginalSource` — anything answering ``marginal(attrs)``:
  a fitted baseline, a :class:`~repro.core.synopsis.PriViewSynopsis`,
  a raw :class:`~repro.marginals.dataset.Dataset`, or the
  bit-sliced :class:`~repro.kernels.PackedDataset`.
* :class:`Mechanism` — a private mechanism: ``name``, ``epsilon`` and
  ``fit(dataset)`` returning a :class:`MarginalSource` (baselines
  return ``self``; ``PriView.fit`` returns the synopsis).

:class:`MarginalReleaseMechanism` remains the convenience ABC the
bundled baselines subclass; third-party mechanisms only need to
satisfy the protocols.
"""

from __future__ import annotations

import abc
from typing import Protocol, runtime_checkable

import numpy as np

from repro import obs
from repro.exceptions import PrivacyBudgetError, ReconstructionError
from repro.marginals.attrs import AttrSet
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable


@runtime_checkable
class MarginalSource(Protocol):
    """Anything that answers marginal queries.

    ``marginal(attrs)`` returns the :class:`MarginalTable` over the
    attribute set (canonicalised with
    :class:`~repro.marginals.attrs.AttrSet`).
    """

    def marginal(self, attrs) -> MarginalTable: ...


@runtime_checkable
class Mechanism(Protocol):
    """A differentially private marginal-release mechanism.

    ``fit(dataset)`` consumes the private data exactly once and
    returns a :class:`MarginalSource` — the fitted mechanism itself
    (the baseline convention) or a standalone synopsis object (the
    PriView convention).  ``epsilon`` is the total budget ``fit``
    spends; ``name`` identifies the mechanism in experiment reports
    and observability scopes.
    """

    name: str
    epsilon: float

    def fit(self, dataset: Dataset): ...


class MarginalReleaseMechanism(abc.ABC):
    """Convenience ABC implementing the :class:`Mechanism` protocol.

    Subclasses set :attr:`name` and implement :meth:`_fit` and
    :meth:`_marginal`.  ``epsilon = inf`` is allowed everywhere and
    means "no noise" (used for the paper's approximation-error-only
    variants).
    """

    name: str = "mechanism"

    def __init__(self, epsilon: float, seed: int | None = None):
        if epsilon <= 0:
            raise PrivacyBudgetError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self._rng = np.random.default_rng(seed)
        self._fitted = False

    def fit(self, dataset: Dataset) -> "MarginalReleaseMechanism":
        """Consume the private dataset; returns self for chaining.

        Under an observability session the fit is wrapped in a span and
        a (non-strict) budget scope named after the mechanism, so every
        noise draw it performs is attributed to it in ledger audits.
        """
        self._num_attributes = dataset.num_attributes
        self._num_records = dataset.num_records
        scope_name = f"{self.name}.fit"
        with obs.span(
            scope_name, "fit.seconds", {"mechanism": self.name}
        ), obs.budget_scope(scope_name, self.epsilon, strict=False):
            self._fit(dataset)
        self._fitted = True
        return self

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    @property
    def num_attributes(self) -> int:
        """``d`` of the fitted dataset."""
        if not self._fitted:
            raise ReconstructionError(f"{self.name}: call fit() first")
        return self._num_attributes

    @property
    def num_records(self) -> int:
        """``N`` of the fitted dataset."""
        if not self._fitted:
            raise ReconstructionError(f"{self.name}: call fit() first")
        return self._num_records

    def marginal(self, attrs) -> MarginalTable:
        """The mechanism's answer for the marginal over ``attrs``."""
        if not self._fitted:
            raise ReconstructionError(f"{self.name}: call fit() before marginal()")
        return self._marginal(AttrSet(attrs, num_attributes=self._num_attributes))

    @abc.abstractmethod
    def _fit(self, dataset: Dataset) -> None:
        """Mechanism-specific fitting."""

    @abc.abstractmethod
    def _marginal(self, attrs: tuple[int, ...]) -> MarginalTable:
        """Mechanism-specific marginal reconstruction."""
