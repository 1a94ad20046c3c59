"""The synthesizer's kept cell codes against a full-recompute oracle.

``Synthesizer.fit`` keeps one narrow cell-code vector per view for the
whole fit and refreshes only the rows a view update moves.  The oracle
below is the plain gradual-update loop: every view update and every
error evaluation recomputes all ``n`` int64 cell codes from the
records, and donors are found by an int64 stable sort plus
``searchsorted``.  Both consume the same random stream, so every
population, error history, move count, revert count and final
``alpha`` must be bit-equal.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.synopsis import PriViewSynopsis
from repro.marginals import AttrSet, MarginalTable
from repro.synth import Synthesizer
from repro.synth.synthesizer import _L1_SLACK, _view_specs, domain_of


def _synopsis(arities, view_attrs, seed):
    rng = np.random.default_rng(seed)
    views = []
    for attrs in view_attrs:
        view_arities = [arities[a] for a in attrs]
        size = math.prod(view_arities)
        counts = rng.integers(0, 20, size) * (rng.random(size) < 0.8)
        counts[rng.integers(size)] += 1  # never an all-zero view
        views.append(MarginalTable(AttrSet(attrs, arities=view_arities), counts))
    return PriViewSynopsis(views=views, epsilon=float("inf"), arities=arities)


# -- the oracle: full recompute of every cell code, every time ----------
def _full_cells(spec, records):
    return records[:, spec.attrs] @ spec.strides


def _mean_l1(records, specs, n):
    total = 0.0
    for spec in specs:
        counts = np.bincount(
            _full_cells(spec, records), minlength=spec.size
        ).astype(np.float64)
        total += float(np.abs(counts - spec.probs * n).sum())
    return total / (len(specs) * n)


def _update_view(records, spec, n, alpha, rng):
    cells = _full_cells(spec, records)
    counts = np.bincount(cells, minlength=spec.size).astype(np.float64)
    excess = counts - spec.probs * n
    deficit = np.maximum(-excess, 0.0)
    deficit_total = deficit.sum()
    if deficit_total < 1.0:
        return 0
    move = np.minimum(
        np.ceil(alpha * np.maximum(excess, 0.0)), np.floor(excess)
    ).astype(np.int64)
    move = np.maximum(move, 0)
    num_moved = int(move.sum())
    if num_moved == 0:
        return 0
    perm = rng.permutation(len(cells))
    order = np.argsort(cells[perm], kind="stable")
    sorted_ids = perm[order]
    sorted_cells = cells[perm][order]
    donors = np.flatnonzero(move > 0)
    takes = move[donors]
    starts = np.searchsorted(sorted_cells, donors, side="left")
    base = np.repeat(starts, takes)
    within = np.arange(num_moved) - np.repeat(np.cumsum(takes) - takes, takes)
    moving = sorted_ids[base + within]
    destinations = rng.choice(
        spec.size, size=num_moved, p=deficit / deficit_total
    )
    digits = spec.digits(destinations)
    for j, attr in enumerate(spec.attrs):
        records[moving, attr] = digits[j]
    return num_moved


def oracle_fit(synopsis, num_records, rounds, alpha, min_alpha, seed):
    domain = domain_of(synopsis)
    specs = _view_specs(synopsis)
    if num_records is None:
        num_records = int(round(float(synopsis.total_count())))
    n = int(num_records)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    records = Synthesizer()._init_records(n, domain, specs, rng)
    error = _mean_l1(records, specs, n)
    history = [error]
    total_moved = accepted = reverted = 0
    for _ in range(rounds):
        snapshot = records.copy()
        moved = sum(
            _update_view(records, spec, n, alpha, rng) for spec in specs
        )
        candidate = _mean_l1(records, specs, n)
        if moved == 0:
            break
        if candidate > error - _L1_SLACK:
            records = snapshot
            alpha *= 0.5
            reverted += 1
            if alpha < min_alpha:
                break
            continue
        error = candidate
        history.append(error)
        accepted += 1
        total_moved += moved
    return records, {
        "history": history,
        "records_moved": total_moved,
        "rounds": accepted,
        "reverted": reverted,
        "alpha": alpha,
    }


def _fit(synopsis, num_records, rounds, alpha, min_alpha, seed):
    synthesizer = Synthesizer(
        rounds=rounds, alpha=alpha, min_alpha=min_alpha, seed=seed
    )
    with obs.session() as sess:
        records = synthesizer.fit(synopsis, num_records=num_records)
        reverted = sess.metrics.counter("synth.rounds_reverted")
    meta = records.meta
    return records.data, {
        "history": meta["history"],
        "records_moved": meta["records_moved"],
        "rounds": meta["rounds"],
        "reverted": int(reverted),
        "alpha": meta["alpha"],
    }


def assert_equivalent(synopsis, num_records=None, rounds=30, alpha=0.5,
                      min_alpha=1e-3, seed=0) -> dict:
    args = (synopsis, num_records, rounds, alpha, min_alpha, seed)
    data, meta = _fit(*args)
    expected_data, expected_meta = oracle_fit(*args)
    np.testing.assert_array_equal(data, expected_data)
    assert meta == expected_meta
    return meta


@st.composite
def mixed_synopses(draw):
    d = draw(st.integers(2, 6))
    arities = draw(st.lists(st.integers(2, 6), min_size=d, max_size=d))
    views = draw(st.lists(
        st.lists(
            st.integers(0, d - 1), min_size=1, max_size=min(3, d),
            unique=True,
        ),
        min_size=1, max_size=4,
    ))
    return _synopsis(arities, views, draw(st.integers(0, 2**32 - 1)))


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    synopsis=mixed_synopses(),
    num_records=st.none() | st.integers(1, 400),
    rounds=st.integers(0, 12),
    alpha=st.sampled_from([1.0, 0.5, 0.3]),
    min_alpha=st.sampled_from([0.0, 1e-3, 0.2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_full_recompute(synopsis, num_records, rounds, alpha,
                                min_alpha, seed):
    assert_equivalent(synopsis, num_records, rounds, alpha, min_alpha, seed)


def test_views_sharing_attributes_with_reverted_rounds():
    # chained views: (0,1) and (1,2) share attribute 1, (2,3) and (3,0)
    # close the ring, so every update invalidates two other views' codes
    synopsis = _synopsis(
        (3, 4, 2, 5), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], seed=1
    )
    meta = assert_equivalent(synopsis, num_records=3000, seed=7)
    assert meta["reverted"] >= 1
    assert meta["rounds"] >= 1


def test_views_sharing_no_attribute():
    synopsis = _synopsis((2, 3, 4, 5), [(0, 1), (2, 3)], seed=2)
    meta = assert_equivalent(synopsis, num_records=2000, seed=3)
    assert meta["rounds"] >= 1


@pytest.mark.parametrize("num_records", [None, 700])
def test_uint8_and_uint16_code_widths(num_records):
    # a 256-cell view (uint8 codes) beside a 3 * 7 * 16 = 336-cell one
    synopsis = _synopsis(
        (2, 2, 2, 2, 2, 2, 2, 2, 3, 7, 16),
        [(0, 1, 2, 3, 4, 5, 6, 7), (8, 9, 10), (7, 8)],
        seed=4,
    )
    meta = assert_equivalent(synopsis, num_records=num_records, seed=5)
    assert meta["rounds"] >= 1


def test_view_over_65536_cells_uses_int64_codes():
    # 50 * 50 * 30 = 75000 cells: too many for uint16 codes
    synopsis = _synopsis((50, 50, 30, 4), [(0, 1, 2), (2, 3)], seed=6)
    specs = _view_specs(synopsis)
    assert specs[0].dtype == np.int64
    assert specs[1].dtype == np.uint8
    meta = assert_equivalent(synopsis, num_records=20_000, rounds=6, seed=8)
    assert meta["rounds"] >= 1
