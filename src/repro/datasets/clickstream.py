"""Synthetic stand-ins for the paper's click-stream datasets.

The real Kosarak / AOL / MSNBC files cannot be redistributed, so
experiments fall back to generators that match the characteristics the
mechanisms are sensitive to: the record count ``N``, dimensionality
``d``, heavy-tailed (Zipf) attribute popularity, per-user activity
skew, and low-order correlation between attributes.

The generative model: each user draws a latent *type* (a handful of
interest profiles) and a Gamma-distributed *activity* level ``u``;
attribute ``j`` is visited with probability ``1 - exp(-u * w[type, j])``
where ``w`` couples Zipf base popularity with type-specific boosts.
Shared ``u`` and type induce positive 2-way and 3-way correlations —
the structure PriView's covered pairs/triples exploit — while keeping
rows sparse and popularity heavy-tailed like the originals.

DESIGN.md records this substitution; loaders for the real files are in
:mod:`repro.datasets.loaders` and take precedence when files exist.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DatasetError
from repro.marginals.dataset import Dataset

#: Published record counts of the originals.
KOSARAK_RECORDS = 912_627
AOL_RECORDS = 647_377
MSNBC_RECORDS = 989_818


def clickstream_dataset(
    num_records: int,
    num_attributes: int,
    num_types: int = 6,
    zipf_exponent: float = 1.1,
    mean_intensity: float = 1.0,
    activity_shape: float = 1.5,
    boost_range: tuple[float, float] = (3.0, 10.0),
    rng: np.random.Generator | None = None,
    name: str = "clickstream",
) -> Dataset:
    """Generate a correlated, heavy-tailed binary click-stream dataset.

    Parameters
    ----------
    num_records, num_attributes:
        ``N`` and ``d``.
    num_types:
        Number of latent user profiles (more types = richer
        correlation structure).
    zipf_exponent:
        Skew of the base attribute popularity.
    mean_intensity:
        Scales overall row density.
    activity_shape:
        Gamma shape of the per-user activity level; higher values mean
        less activity skew and hence weaker *high-order* dependence
        (all attributes co-vary through the shared activity).
    boost_range:
        Strength of the type-specific preference boosts.
    """
    if num_records < 0 or num_attributes < 1:
        raise DatasetError(
            f"invalid shape N={num_records}, d={num_attributes}"
        )
    rng = rng or np.random.default_rng()

    base = 1.0 / np.arange(1, num_attributes + 1) ** zipf_exponent
    # Type-specific boosts: each profile strongly prefers a random
    # subset of attributes, creating correlated co-occurrence.
    boosts = np.ones((num_types, num_attributes))
    for t in range(num_types):
        favourites = rng.choice(
            num_attributes, size=max(2, num_attributes // 4), replace=False
        )
        boosts[t, favourites] = rng.uniform(
            boost_range[0], boost_range[1], size=favourites.size
        )
    weights = base[None, :] * boosts

    types = rng.integers(0, num_types, size=num_records)
    activity = rng.gamma(
        shape=activity_shape,
        scale=mean_intensity / activity_shape,
        size=num_records,
    )
    probs = 1.0 - np.exp(-activity[:, None] * weights[types])
    data = (rng.random((num_records, num_attributes)) < probs).astype(np.uint8)
    return Dataset(data, name=name)


def kosarak_like(
    num_records: int = KOSARAK_RECORDS,
    rng: np.random.Generator | None = None,
) -> Dataset:
    """A d=32 stand-in for the Kosarak top-32-pages dataset."""
    return clickstream_dataset(
        num_records,
        num_attributes=32,
        num_types=8,
        zipf_exponent=1.1,
        mean_intensity=1.2,
        rng=rng,
        name="kosarak-like",
    )


def aol_like(
    num_records: int = AOL_RECORDS,
    rng: np.random.Generator | None = None,
) -> Dataset:
    """A d=45 stand-in for the AOL 45-category dataset.

    Category generalisation makes AOL rows denser than raw click data,
    hence the lower Zipf exponent and higher intensity.
    """
    return clickstream_dataset(
        num_records,
        num_attributes=45,
        num_types=10,
        zipf_exponent=0.9,
        mean_intensity=2.0,
        rng=rng,
        name="aol-like",
    )


def msnbc_like(
    num_records: int = MSNBC_RECORDS,
    rng: np.random.Generator | None = None,
) -> Dataset:
    """A d=9 stand-in for the preprocessed MSNBC dataset.

    The real MSNBC category data shows mainly pairwise structure (the
    paper's PriView-with-pairs design matches Flat on it), so this
    generator damps the high-order dependence channels: few latent
    types, mild boosts, low activity skew.
    """
    return clickstream_dataset(
        num_records,
        num_attributes=9,
        num_types=2,
        zipf_exponent=0.8,
        mean_intensity=1.5,
        activity_shape=6.0,
        boost_range=(1.5, 3.0),
        rng=rng,
        name="msnbc-like",
    )
