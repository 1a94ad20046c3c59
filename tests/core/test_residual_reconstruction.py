"""Property tests for the residual (ReM) reconstruction solver.

The harness randomizes covering designs, datasets and noise draws and
pins the closed-form residual solver against the things that must hold
regardless of the draw:

* invariants — non-negativity and exact total preservation;
* exact recovery — a truth table whose Walsh–Hadamard support is
  confined to the determined masks comes back bit-exact from its own
  noiseless projections;
* agreement — residual and maxent answer dense mildly-biased workloads
  within tolerance of each other (they optimise different completions,
  so agreement is approximate by design);
* batching — a batch answer equals its one-at-a-time solve bit for bit;
* degenerate bases — empty and full-domain attribute sets are explicit
  everywhere (solver, front door, synopsis).
"""

import numpy as np
import pytest

from repro.core.consistency import make_consistent
from repro.core.priview import PriView
from repro.core.reconstruction import (
    RECONSTRUCTION_METHODS,
    extract_constraints,
    fwht,
    maxent,
    project_to_simplex,
    reconstruct,
    reconstruct_batch,
    residual,
    residual_batch,
)
from repro.covering.design import CoveringDesign
from repro.exceptions import ReconstructionError
from repro.marginals.attrs import AttrSet
from repro.marginals.dataset import Dataset
from repro.marginals.projection import subset_positions
from repro.marginals.table import MarginalTable


def _dense_truth(rng, d, n=4000):
    """A correlated, dense table (mild per-attribute biases)."""
    probs = rng.uniform(0.3, 0.7, size=d)
    types = rng.integers(0, 3, n)
    shift = rng.uniform(-0.15, 0.15, size=(3, d))
    p = np.clip(probs[None, :] + shift[types], 0.05, 0.95)
    data = (rng.uniform(size=(n, d)) < p).astype(np.int64)
    cells = np.zeros(1 << d)
    np.add.at(cells, (data * (1 << np.arange(d))).sum(axis=1), 1.0)
    return MarginalTable(tuple(range(d)), cells)


def _random_blocks(rng, d, block_size, num_blocks):
    """Random size-``block_size`` blocks; every attribute appears."""
    blocks = []
    while True:
        blocks = [
            tuple(sorted(rng.choice(d, size=block_size, replace=False)))
            for _ in range(num_blocks)
        ]
        if len({a for b in blocks for a in b}) == d:
            return blocks


def embedding_masks(k: int, positions: tuple[int, ...]) -> list[int]:
    """The coefficient masks of a binary ``k``-attribute table that the
    sub-marginal at ``positions`` determines: bit ``r`` of each
    sub-mask scattered onto bit ``positions[r]``."""
    return [
        sum((sub >> r & 1) << p for r, p in enumerate(positions))
        for sub in range(1 << len(positions))
    ]


def _views_of(truth, blocks):
    return [truth.project(AttrSet(b)) for b in blocks]


class TestWalshHadamard:
    def test_involution(self, rng):
        a = rng.normal(size=(5, 32))
        assert np.allclose(fwht(fwht(a)), 32 * a)

    def test_matches_definition(self, rng):
        a = rng.normal(size=8)
        direct = np.array([
            sum(
                (-1) ** bin(m & x).count("1") * a[x]
                for x in range(8)
            )
            for m in range(8)
        ])
        assert np.allclose(fwht(a), direct)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ReconstructionError):
            fwht(np.ones(6))

    def test_embedding_masks_invert_projection(self, rng):
        """The coefficients a sub-marginal determines really are the
        transform of that sub-marginal: theta_full[masks] == phi_sub."""
        k = 4
        table = rng.uniform(1.0, 5.0, size=1 << k)
        target = AttrSet(range(k))
        sub = AttrSet((1, 3))
        positions = subset_positions(target, sub)
        full = MarginalTable(target, table)
        phi_sub = fwht(full.project(sub).counts)
        theta_full = fwht(table)
        assert np.allclose(theta_full[embedding_masks(k, positions)], phi_sub)


class TestSimplexProjection:
    def test_feasible_rows_unchanged(self, rng):
        rows = rng.uniform(0.0, 2.0, size=(6, 8))
        rows *= (10.0 / rows.sum(axis=-1))[:, None]
        assert np.allclose(project_to_simplex(rows, 10.0), rows)

    def test_invariants_random(self, rng):
        rows = rng.normal(size=(20, 16)) * 3.0
        out = project_to_simplex(rows, 7.0)
        assert out.min() >= 0.0
        assert np.allclose(out.sum(axis=-1), 7.0)

    def test_is_euclidean_projection(self, rng):
        """No feasible point is closer than the projection (spot-check
        against random feasible candidates)."""
        row = rng.normal(size=(1, 8)) * 2.0
        out = project_to_simplex(row, 5.0)
        d_out = np.sum((out - row) ** 2)
        for _ in range(50):
            cand = rng.dirichlet(np.ones(8)) * 5.0
            assert d_out <= np.sum((cand - row) ** 2) + 1e-9

    def test_nonpositive_total_gives_zero_table(self):
        out = project_to_simplex(np.array([[1.0, -2.0, 3.0]]), -4.0)
        assert np.allclose(out, 0.0)


class TestInvariants:
    """Non-negativity and total preservation under randomized draws."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_noisy_views_random_designs(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(6, 9)
        truth = _dense_truth(rng, d)
        blocks = _random_blocks(rng, d, 3, 5)
        views = _views_of(truth, blocks)
        # Raw noise draw: no consistency pass, no clipping — the
        # solver itself must normalise and project.
        for v in views:
            v.counts += rng.normal(0.0, 25.0, size=v.counts.shape)
        total = float(np.mean([v.total() for v in views]))
        k = int(rng.integers(2, min(d, 5)))
        target = AttrSet(sorted(rng.choice(d, size=k, replace=False)))
        table = reconstruct(
            views, target, method="residual",
            use_covering_view=False, total=total,
        )
        assert table.counts.min() >= 0.0
        assert table.total() == pytest.approx(max(total, 0.0), abs=1e-6)
        assert np.all(np.isfinite(table.counts))
        meta = table.meta["residual"]
        assert 1 <= meta["determined"] <= meta["coefficients"]

    def test_projected_flag_tracks_negative_mass(self, rng):
        views = [
            MarginalTable((0, 1), np.array([50.0, -10.0, 40.0, 20.0])),
            MarginalTable((1, 2), np.array([30.0, 30.0, 20.0, 20.0])),
        ]
        table = reconstruct(
            views, (0, 1, 2), method="residual",
            use_covering_view=False, total=100.0,
        )
        assert table.counts.min() >= 0.0
        assert table.total() == pytest.approx(100.0)
        assert table.meta["residual"]["projected"]
        assert table.meta["residual"]["negative_mass"] > 0.0


class TestExactRecovery:
    """Noiseless synopses whose information determines the target."""

    def test_covered_truth_recovered_bitwise(self, rng):
        truth = _dense_truth(rng, 6)
        views = _views_of(truth, [(0, 1, 2), (2, 3, 4), (3, 4, 5)])
        for block in [(0, 1, 2), (2, 3, 4), (3, 4, 5)]:
            got = reconstruct(
                views, block, method="residual", use_covering_view=False,
            )
            assert np.allclose(got.counts, truth.project(AttrSet(block)).counts)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_fourier_limited_truth_recovered(self, seed):
        """Build a truth table whose WH support sits entirely inside
        the masks the views determine; residual must then be exact even
        though no single view covers the target."""
        rng = np.random.default_rng(seed)
        k = 4
        target = AttrSet(range(k))
        sub_blocks = [(0, 1), (1, 2), (2, 3)]
        determined = sorted({
            int(m)
            for b in sub_blocks
            for m in embedding_masks(k, subset_positions(target, AttrSet(b)))
        })
        total = 1000.0
        theta = np.zeros(1 << k)
        theta[determined] = rng.normal(0.0, 30.0, size=len(determined))
        theta[0] = total
        cells = fwht(theta) / (1 << k)
        # Shrink the AC part until the table is strictly positive, so
        # the simplex projection is the identity and recovery is exact.
        while cells.min() <= 0:
            theta[1:] *= 0.5
            cells = fwht(theta) / (1 << k)
        truth = MarginalTable(target, cells)
        views = [truth.project(AttrSet(b)) for b in sub_blocks]
        got = reconstruct(
            views, target, method="residual",
            use_covering_view=False, total=total,
        )
        assert np.allclose(got.counts, truth.counts, atol=1e-8)
        assert not got.meta["residual"]["projected"]

    def test_matches_min_norm_completion(self, rng):
        """Before clipping, residual is the minimum-L2-norm solution —
        on instances where nothing goes negative it must match the
        least-squares solver exactly."""
        truth = _dense_truth(rng, 6)
        views = _views_of(truth, [(0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 3, 5)])
        total = float(truth.total())
        target = AttrSet((0, 2, 3, 5))
        res = reconstruct(
            views, target, method="residual",
            use_covering_view=False, total=total,
        )
        lsq = reconstruct(
            views, target, method="lsq",
            use_covering_view=False, total=total,
        )
        if not res.meta["residual"]["projected"]:
            assert np.allclose(res.counts, lsq.counts, atol=1e-6)


class TestAgainstMaxent:
    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_tolerable_disagreement_random_workloads(self, seed):
        """Residual and maxent complete the same constraints different
        ways; on dense mildly-biased data they must stay within a
        modest relative-L1 band of each other."""
        rng = np.random.default_rng(seed)
        d = 7
        truth = _dense_truth(rng, d)
        blocks = _random_blocks(rng, d, 3, 6)
        views = _views_of(truth, blocks)
        for v in views:
            v.counts += rng.normal(0.0, 10.0, size=v.counts.shape)
        make_consistent(views)
        total = float(np.mean([v.total() for v in views]))
        for _ in range(3):
            k = int(rng.integers(2, 5))
            target = AttrSet(sorted(rng.choice(d, size=k, replace=False)))
            res = reconstruct(
                views, target, method="residual",
                use_covering_view=False, total=total,
            )
            ment = reconstruct(
                views, target, method="maxent",
                use_covering_view=False, total=total,
            )
            rel_l1 = np.abs(res.counts - ment.counts).sum() / total
            assert rel_l1 < 0.25
            # and they satisfy the shared determined marginals alike
            for c in extract_constraints(views, target):
                want = np.maximum(np.asarray(c.target), 0.0)
                want *= total / max(want.sum(), 1e-12)
                got = res.project(c.attrs).counts
                assert np.abs(got - want).sum() / total < 0.05


class TestBatching:
    def test_residual_batch_matches_single(self, rng):
        truth = _dense_truth(rng, 7)
        blocks = _random_blocks(rng, 7, 3, 6)
        views = _views_of(truth, blocks)
        total = float(truth.total())
        targets = [
            AttrSet(sorted(rng.choice(7, size=k, replace=False)))
            for k in (2, 3, 3, 4, 4, 2)
        ]
        constraint_lists = [
            extract_constraints(views, t) for t in targets
        ]
        batched = residual_batch(constraint_lists, targets, total)
        for cons, target, table in zip(constraint_lists, targets, batched):
            single = residual(cons, target, total)
            assert table.attrs == target
            assert table.counts.tobytes() == single.counts.tobytes()
            assert table.meta["residual"] == single.meta["residual"]

    def test_maxent_batch_matches_single(self, rng):
        truth = _dense_truth(rng, 7)
        views = _views_of(truth, _random_blocks(rng, 7, 3, 6))
        total = float(truth.total())
        targets = [
            AttrSet(sorted(rng.choice(7, size=k, replace=False)))
            for k in (2, 3, 4, 4, 5)
        ]
        batched = reconstruct_batch(
            views, targets, method="maxent", use_covering_view=False,
            total=total,
        )
        for target, table in zip(targets, batched):
            single = maxent(extract_constraints(views, target), target, total)
            assert table.counts.tobytes() == single.counts.tobytes()
            assert table.meta == single.meta
            assert table.meta["maxent"]["converged"]

    def test_length_mismatch_raises(self):
        with pytest.raises(ReconstructionError):
            residual_batch([[]], [(0,), (1,)], 10.0)

    @pytest.mark.parametrize("method", RECONSTRUCTION_METHODS)
    def test_front_door_batch_matches_loop(self, rng, method):
        truth = _dense_truth(rng, 6)
        views = _views_of(truth, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
        workload = [(0, 1), (1, 3), (0, 3, 5), (), (1, 2, 4, 5)]
        batched = reconstruct_batch(views, workload, method=method)
        for attrs, table in zip(workload, batched):
            single = reconstruct(views, attrs, method=method)
            assert table.attrs == AttrSet(attrs)
            assert table.counts.tobytes() == single.counts.tobytes()


class TestDegenerateBases:
    """Empty and full-domain attribute sets, explicitly (regression)."""

    @pytest.mark.parametrize("method", RECONSTRUCTION_METHODS)
    @pytest.mark.parametrize("use_cover", [True, False])
    def test_empty_target(self, rng, method, use_cover):
        truth = _dense_truth(rng, 6)
        views = _views_of(truth, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
        table = reconstruct(
            views, (), method=method, use_covering_view=use_cover,
        )
        assert table.attrs == ()
        assert table.counts.shape == (1,)
        assert table.total() == pytest.approx(truth.total())

    @pytest.mark.parametrize("method", ["residual", "maxent", "lsq"])
    def test_full_domain_target(self, rng, method):
        truth = _dense_truth(rng, 6)
        views = _views_of(truth, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
        table = reconstruct(
            views, tuple(range(6)), method=method, use_covering_view=False,
        )
        assert table.attrs == tuple(range(6))
        assert table.counts.min() >= -1e-6
        assert table.total() == pytest.approx(truth.total(), rel=1e-6)

    def test_empty_target_no_views(self):
        table = reconstruct([], (), method="residual")
        assert table.total() == 0.0

    def test_synopsis_degenerate_sets(self, rng):
        dataset = Dataset.random(500, 6, density=0.5, rng=rng)
        design = CoveringDesign(
            6, 3, 1, ((0, 1, 2), (2, 3, 4), (3, 4, 5))
        )
        synopsis = PriView(5.0, design=design, seed=2).fit(dataset)
        empty = synopsis.marginal((), method="residual")
        assert empty.total() == pytest.approx(synopsis.total_count())
        full = synopsis.marginal(tuple(range(6)), method="residual")
        assert full.counts.min() >= 0.0
        assert full.total() == pytest.approx(synopsis.total_count(), rel=1e-6)
        out = synopsis.marginals(
            [(), (0, 1), tuple(range(6)), ()], method="residual"
        )
        assert [t.attrs for t in out] == [
            (), (0, 1), tuple(range(6)), ()
        ]
        assert out[0] is not out[3]
        assert out[0].total() == pytest.approx(out[3].total())


class TestFaults:
    def test_nan_view_raises_typed_error(self):
        views = [
            MarginalTable((0, 1), np.array([np.nan, 1.0, 2.0, 3.0])),
            MarginalTable((1, 2), np.ones(4)),
        ]
        with pytest.raises(ReconstructionError):
            reconstruct(
                views, (0, 1, 2), method="residual",
                use_covering_view=False, total=10.0,
            )

    def test_no_constraints_is_uniform_after_projection(self):
        table = residual([], (0, 1), total=100.0)
        assert np.allclose(table.counts, 25.0)
        assert table.meta["residual"]["determined"] == 1
