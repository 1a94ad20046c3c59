"""Scenario: a categorical survey release (the Section 4.7 extension).

Run:  python examples/categorical_survey.py

A health survey with mixed-arity questions — age band (5 values),
region (4), smoker (2), income band (5), exercise frequency (3),
insurance type (4) — is released as a PriView synopsis.  The binary
machinery of the paper's main sections does not apply directly;
Section 4.7 sketches the changes, all implemented in
``repro.categorical``:

* views are chosen by *cell budget* (the paper's ``s`` guideline)
  rather than a fixed attribute count;
* Ripple redistributes to change-one-value neighbours;
* consistency and max-entropy reconstruction run unchanged over
  mixed-radix tables.
"""

import numpy as np

from repro.analysis.ell_selection import recommended_cells_per_view
from repro.core.priview import PriView
from repro.marginals.dataset import Dataset

QUESTIONS = {
    "age_band": 5,
    "region": 4,
    "smoker": 2,
    "income_band": 5,
    "exercise": 3,
    "insurance": 4,
}
EPSILON = 1.0
RECORDS = 120_000


def synthesize_survey(rng: np.random.Generator) -> Dataset:
    """Latent 'lifestyle' classes induce realistic cross-correlations."""
    arities = tuple(QUESTIONS.values())
    lifestyle = rng.integers(0, 4, RECORDS)
    columns = []
    for arity in arities:
        prefs = rng.dirichlet(np.ones(arity) * 0.8, size=4)
        cdf = prefs[lifestyle].cumsum(axis=1)
        columns.append((rng.random((RECORDS, 1)) > cdf[:, :-1]).sum(axis=1))
    return Dataset(
        np.stack(columns, axis=1), arities, name="health-survey"
    )


def main() -> None:
    rng = np.random.default_rng(47)
    dataset = synthesize_survey(rng)
    names = list(QUESTIONS)
    print(f"dataset: {dataset}")

    mean_arity = round(np.mean(dataset.arities))
    low, high = recommended_cells_per_view(min(mean_arity, 5))
    print(
        f"Section 4.7 guideline for b~{mean_arity}: "
        f"{low}..{high} cells per view"
    )

    synopsis = PriView(EPSILON, seed=3).fit(dataset)
    print(f"published {synopsis.num_views} views:")
    for attrs in synopsis.metadata["view_attrs"]:
        import math

        cells = math.prod(dataset.arities[a] for a in attrs)
        print(f"  {[names[a] for a in attrs]} ({cells} cells)")

    print("\nanalyst queries (normalized L2 error vs truth):")
    for attrs in [(0, 2), (2, 3), (0, 3, 4), (1, 2, 5)]:
        private = synopsis.marginal(attrs)
        truth = dataset.marginal(attrs)
        err = np.linalg.norm(private.counts - truth.counts) / RECORDS
        label = " x ".join(names[a] for a in attrs)
        covered = "covered" if synopsis.is_covered(attrs) else "reconstructed"
        print(f"  {label:<38} L2/N = {err:.2e} ({covered})")

    # a concrete statistic: smoking rate by age band
    table = synopsis.marginal((0, 2)).counts.reshape(2, 5)  # [smoker, age]
    truth = dataset.marginal((0, 2)).counts.reshape(2, 5)
    print("\nsmoking rate by age band (private vs true):")
    for band in range(5):
        private_rate = table[1, band] / max(table[:, band].sum(), 1e-9)
        true_rate = truth[1, band] / truth[:, band].sum()
        print(f"  band {band}: {private_rate:.3f} vs {true_rate:.3f}")


if __name__ == "__main__":
    main()
