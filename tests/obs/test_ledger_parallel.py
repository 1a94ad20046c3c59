"""Parallel-composition budget scopes: exact audits over disjoint windows."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.priview import PriView
from repro.covering.repository import best_design
from repro.exceptions import LedgerError
from repro.marginals.dataset import Dataset
from repro.mechanisms.laplace import noisy_counts
from repro.obs.ledger import BudgetScope


def _window(d: int = 6, n: int = 200, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset((rng.random((n, d)) < 0.4).astype(np.uint8))


def test_rejects_unknown_composition():
    with pytest.raises(LedgerError, match="composition"):
        BudgetScope("x", 1.0, composition="serial")


def test_parallel_scope_adopts_children_and_takes_max():
    with obs.session() as sess:
        with sess.ledger.scope("windows", 1.0, composition="parallel"):
            with sess.ledger.scope("w0", 1.0):
                noisy_counts(np.zeros(2), epsilon=1.0)
            with sess.ledger.scope("w1", 1.0):
                noisy_counts(np.zeros(2), epsilon=1.0)
            with sess.ledger.scope("w2", 1.0):
                noisy_counts(np.zeros(2), epsilon=1.0)
        [parent] = sess.ledger.scopes  # children are NOT top-level
        assert parent.name == "windows"
        assert [c.name for c in parent.children] == ["w0", "w1", "w2"]
        assert all(c.spent() == 1.0 for c in parent.children)
        assert parent.spent() == 1.0  # max, not sum
        assert parent.status == "exact"
        sess.ledger.check()
        assert sess.ledger.total_spent() == 1.0
        assert sess.ledger.total_draws() == 0  # draws live in the children


def test_parallel_check_fails_on_overspending_child():
    with obs.session() as sess:
        with sess.ledger.scope("windows", 1.0, composition="parallel"):
            with sess.ledger.scope("w0", 1.0):
                noisy_counts(np.zeros(2), epsilon=1.0)
                noisy_counts(np.zeros(2), epsilon=1.0)  # double spend
        with pytest.raises(LedgerError, match="w0"):
            sess.ledger.check()


def test_parallel_check_fails_when_aggregate_misses_configured():
    with obs.session() as sess:
        with sess.ledger.scope("windows", 1.0, composition="parallel"):
            # Child balanced against its own (smaller) budget, but the
            # schedule promised 1.0 per window.
            with sess.ledger.scope("w0", 0.5):
                noisy_counts(np.zeros(2), epsilon=0.5)
        with pytest.raises(LedgerError, match="windows"):
            sess.ledger.check()


def test_empty_parallel_scope_is_na():
    with obs.session() as sess:
        with sess.ledger.scope("windows", 1.0, composition="parallel"):
            pass
        [parent] = sess.ledger.scopes
        assert parent.status == "n/a"
        sess.ledger.check()


def test_parallel_scope_counts_own_records_additively():
    with obs.session() as sess:
        with sess.ledger.scope("windows", 1.1, composition="parallel"):
            noisy_counts(np.zeros(2), epsilon=0.1)  # scope-level overhead
            with sess.ledger.scope("w0", 1.0):
                noisy_counts(np.zeros(2), epsilon=1.0)
        [parent] = sess.ledger.scopes
        assert parent.spent() == pytest.approx(1.1)
        sess.ledger.check()


def test_sequential_nesting_keeps_legacy_flat_behavior():
    with obs.session() as sess:
        with sess.ledger.scope("outer", configured=None, strict=False):
            with sess.ledger.scope("inner", configured=0.5):
                noisy_counts(np.zeros(2), epsilon=0.5)
        outer, inner = sess.ledger.scopes
        assert outer.name == "outer" and not outer.children
        assert inner.name == "inner"
        assert sess.ledger.total_spent() == 0.5


def test_audit_row_carries_composition_and_children():
    with obs.session() as sess:
        with sess.ledger.scope("windows", 1.0, composition="parallel"):
            for i in range(2):
                with sess.ledger.scope(f"w{i}", 1.0):
                    noisy_counts(np.zeros(2), epsilon=1.0)
        [row] = sess.ledger.audit()
        assert row.composition == "parallel"
        assert row.children == 2
        assert row.ok
        [blob] = sess.ledger.to_dicts()
        assert blob["composition"] == "parallel"
        assert blob["children"] == 2


@pytest.mark.parametrize("epsilon", [1.0, 0.3])
def test_priview_fits_under_parallel_scope_audit_exactly(epsilon):
    """Three disjoint-window PriView fits cost exactly one window's
    epsilon under parallel composition — the stream schedule's claim."""
    design = best_design(6, 4, 2)
    with obs.session() as sess:
        with obs.budget_scope("stream.windows", epsilon, composition="parallel"):
            for seed in range(3):
                PriView(epsilon, design=design, seed=seed).fit(
                    _window(seed=seed)
                )
        [parent] = sess.ledger.scopes
        assert [c.name for c in parent.children] == ["PriView.fit"] * 3
        assert parent.spent() == epsilon  # exact, not approx
        assert parent.status == "exact"
        sess.ledger.check()
        assert sess.ledger.total_spent() == epsilon


def test_nested_parallel_scopes_compose():
    with obs.session() as sess:
        with sess.ledger.scope("outer", 1.0, composition="parallel"):
            with sess.ledger.scope("inner", 1.0, composition="parallel"):
                with sess.ledger.scope("w0", 1.0):
                    noisy_counts(np.zeros(2), epsilon=1.0)
        [outer] = sess.ledger.scopes
        [inner] = outer.children
        assert inner.children[0].name == "w0"
        assert outer.spent() == 1.0
        sess.ledger.check()
