"""A categorical synopsis gets the full planner: covered, derived, solved.

Categorical views are ordinary :class:`MarginalTable` objects with
arities, so the engine plans against them like binary ones, and every
solver, ``residual`` included, answers over them.
"""

from __future__ import annotations

import itertools
import json
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.core.priview import PriView
from repro.marginals.dataset import Dataset
from repro.serve import (
    PATH_COVERED,
    PATH_DERIVED,
    PATH_ERROR,
    PATH_SOLVED,
    MarginalServer,
    QueryClient,
    QueryEngine,
)
from repro.serve.protocol import decode_table, encode_answer


@pytest.fixture(scope="module")
def synopsis():
    rng = np.random.default_rng(3)
    data = Dataset.random(3000, (3, 2, 4, 3, 2, 3), rng=rng)
    return PriView(1.0, max_cells=30, seed=4).fit(data)


def _uncovered_with_superset(synopsis):
    """An uncovered 3-set and an uncovered 4-set containing it."""
    d = synopsis.num_attributes
    for big in itertools.combinations(range(d), 4):
        if synopsis.is_covered(big):
            continue
        for small in itertools.combinations(big, 3):
            if not synopsis.is_covered(small):
                return small, big
    raise AssertionError("no uncovered nested pair in this synopsis")


def test_covered_answer_is_the_first_covering_view(synopsis):
    attrs = tuple(synopsis.views[1].attrs[:2])
    first = next(v for v in synopsis.views if set(attrs) <= set(v.attrs))
    with QueryEngine(synopsis) as engine:
        answer = engine.answer(attrs)
    assert answer.path == PATH_COVERED
    assert answer.source == first.attrs
    expected = first.project(attrs)
    assert answer.table.counts.tobytes() == expected.counts.tobytes()
    assert answer.table.arities == expected.arities


def test_subset_of_a_solved_set_is_derived(synopsis):
    small, big = _uncovered_with_superset(synopsis)
    with QueryEngine(synopsis) as engine:
        solved = engine.answer(big)
        derived = engine.answer(small)
    assert solved.path == PATH_SOLVED
    assert solved.table.arities == tuple(synopsis.arities[a] for a in big)
    assert "maxent" in solved.table.meta
    assert derived.path == PATH_DERIVED
    assert derived.source == big
    assert np.array_equal(
        derived.table.counts, solved.table.project(small).counts
    )


def test_stats_count_the_views(synopsis):
    with QueryEngine(synopsis) as engine:
        assert engine.stats()["synopsis"]["views"] == synopsis.num_views


def test_answers_carry_arities_on_the_wire(synopsis):
    attrs = tuple(synopsis.views[0].attrs[:2])
    with QueryEngine(synopsis) as engine:
        payload = encode_answer(engine.answer(attrs))
    assert payload["arities"] == [synopsis.arities[a] for a in attrs]


def test_binary_answers_carry_no_arities(chain_synopsis):
    with QueryEngine(chain_synopsis) as engine:
        covered = encode_answer(engine.answer(chain_synopsis.views[0].attrs[:2]))
        solved = encode_answer(engine.answer((0, 2, 4, 6)))
    assert solved["path"] == PATH_SOLVED
    assert "arities" not in covered
    assert "arities" not in solved


def _moved(table) -> float:
    """The share of mass a residual answer's simplex projection moved:
    at most twice the negative mass it records."""
    return 2 * table.meta["residual"]["negative_mass"] / table.total()


def _meets_every_view(synopsis, table, moved: float) -> None:
    """``table`` agrees with each view on their shared attributes, up to
    ``moved``."""
    for view in synopsis.views:
        shared = tuple(a for a in table.attrs if a in view.attrs)
        if shared:
            diff = table.project(shared).counts - view.project(shared).counts
            gap = float(np.abs(diff).sum()) / table.total()
            assert gap <= 1e-9 + moved, (tuple(table.attrs), shared, gap)


def test_residual_answers_and_meets_every_view(synopsis):
    small, big = _uncovered_with_superset(synopsis)
    with obs.session(ledger=False) as sess:
        engine = QueryEngine(synopsis)
        with MarginalServer(engine, port=0) as server, \
                QueryClient(server.url) as client:
            request = urllib.request.Request(
                server.url + "/v1/marginal",
                data=json.dumps({"attrs": list(big), "method": "residual"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                status = response.status
                single = decode_table(json.loads(response.read()))
            batch = client.batch(
                [small, small[:2] + (5,)], method="residual"
            )["answers"]
        fallbacks = sess.metrics.counter("serve.solve.fallback")
    assert status == 200
    assert single.arities == tuple(synopsis.arities[a] for a in big)
    _meets_every_view(synopsis, single, _moved(single))
    derived, solved = batch
    assert derived["path"] == PATH_DERIVED
    assert tuple(derived["source"]) == big
    _meets_every_view(synopsis, decode_table(derived), _moved(single))
    assert solved["path"] == PATH_SOLVED
    solved = decode_table(solved)
    _meets_every_view(synopsis, solved, _moved(solved))
    stats = engine.stats()
    assert stats["paths"][PATH_ERROR] == 0
    assert stats["solve"]["fallbacks"] == 0
    assert fallbacks == 0
