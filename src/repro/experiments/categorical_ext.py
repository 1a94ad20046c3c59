"""Extension experiment: PriView vs Direct on categorical data.

Not a paper figure — Section 4.7 says evaluating the categorical
extension "is beyond the scope of this paper".  This driver does that
evaluation: on a correlated mixed-arity dataset it compares
PriView (cell-budget views per the s guideline) against the Direct
method (simple clamp) and the Uniform floor, at k in {2, 3, 4}; the
report keeps the row labels ``CategoricalDirect`` and
``CategoricalUniform``.

Expected shape: the same story as Figure 2 — PriView's mid-size views
beat Direct by orders of magnitude once C(d, k) is large, and remain
below the Uniform floor throughout.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.direct import DirectMethod
from repro.baselines.uniform import UniformMethod
from repro.core.priview import PriView
from repro.experiments.config import get_scale
from repro.experiments.runner import ExperimentResult, MethodResult
from repro.marginals.dataset import Dataset
from repro.marginals.queries import random_attribute_sets
from repro.metrics.candlestick import candlestick

EPSILONS = (1.0, 0.1)
KS = (2, 3, 4)
ARITIES = (3, 4, 2, 5, 3, 2, 4, 3, 5, 2, 3, 4, 2, 3, 4, 5)


def make_dataset(
    num_records: int, rng: np.random.Generator
) -> Dataset:
    """Correlated mixed-arity data from a latent-class model."""
    latent = rng.integers(0, 5, num_records)
    columns = []
    for arity in ARITIES:
        prefs = rng.dirichlet(np.ones(arity) * 0.7, size=5)
        cdf = prefs[latent].cumsum(axis=1)
        columns.append((rng.random((num_records, 1)) > cdf[:, :-1]).sum(axis=1))
    return Dataset(
        np.stack(columns, axis=1), ARITIES, name="categorical-ext"
    )


def run(scale=None, seed: int = 0, epsilons=EPSILONS, ks=KS) -> ExperimentResult:
    """Run the categorical extension comparison."""
    scale = get_scale(scale)
    rng = np.random.default_rng(seed)
    dataset = make_dataset(scale.max_records or 200_000, rng)
    d = dataset.num_attributes
    n = dataset.num_records
    result = ExperimentResult(
        "categorical-ext",
        "Categorical PriView vs Direct (Section 4.7 extension)",
        context={"arities": ARITIES, "N": n, "scale": scale.name},
    )
    for epsilon in epsilons:
        for k in ks:
            queries = random_attribute_sets(d, k, scale.num_queries, rng)

            def add(name: str, factory) -> None:
                errors = []
                for run_idx in range(scale.num_runs):
                    mechanism = factory(run_idx)
                    run_errors = [
                        np.linalg.norm(
                            mechanism.marginal(q).counts
                            - dataset.marginal(q).counts
                        )
                        / n
                        for q in queries
                    ]
                    errors.append(run_errors)
                per_query = np.mean(np.array(errors), axis=0)
                result.add(
                    MethodResult(
                        name, k, epsilon, "normalized_l2",
                        candlestick(per_query),
                    )
                )

            add(
                "CategoricalPriView",
                lambda run_idx: PriView(
                    epsilon, seed=seed + run_idx
                ).fit(dataset),
            )
            add(
                "CategoricalDirect",
                lambda run_idx: DirectMethod(
                    epsilon, k, nonnegativity="simple", seed=seed + run_idx
                ).fit(dataset),
            )
            add(
                "CategoricalUniform",
                lambda run_idx: UniformMethod(
                    epsilon, seed=seed + run_idx
                ).fit(dataset),
            )
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
