"""Smoke-check the bit-sliced kernel speedup on a small workload.

Run from the repository root::

    python scripts/check_fit_speedup.py [--repeats 3] [--min-speedup 3.0]

Times marginal extraction on a synthetic d=32, N=200k dataset over the
bundled C_3(8, d=32) design — ``Dataset.marginal`` (uint8 gather
+ bincount) vs. ``PackedDataset.marginal`` (bit-sliced popcount) — and
exits non-zero unless the packed kernel is at least ``--min-speedup``
times faster.  Extraction is the gated quantity because it is what the
kernels replace.  The full-scale end-to-end bar (5x on d=64, N=1M)
lives in ``benchmarks/test_bench_fit.py``, which writes
``BENCH_fit.json``.

Also sanity-checks correctness on the way: every view of a noise-free
``PriView`` fit must equal ``Dataset.marginal`` bit for bit.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.core.priview import PriView
from repro.covering.repository import best_design
from repro.marginals.dataset import Dataset

N = 200_000
D = 32


def make_dataset() -> Dataset:
    rng = np.random.default_rng(0)
    profiles = rng.random((4, D)) * 0.6
    types = rng.integers(0, 4, N)
    return Dataset(
        (rng.random((N, D)) < profiles[types]).astype(np.uint8), name="smoke"
    )


def time_marginals(source, blocks, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for block in blocks:
            source.marginal(block)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="required unpacked/packed marginal-time ratio (default 3.0)",
    )
    args = parser.parse_args()

    dataset = make_dataset()
    design = best_design(D, 8, 3)
    blocks = list(design.blocks)

    # Correctness gate: with epsilon=inf a fit releases the exact
    # marginals the unpacked dataset counts.
    exact = PriView(float("inf"), design=design, seed=0).fit(dataset)
    for view, block in zip(exact.views, blocks):
        oracle = dataset.marginal(block)
        assert view.attrs == oracle.attrs
        assert np.array_equal(view.counts, oracle.counts), block
    print(f"fit == Dataset.marginal on {design.notation} (noise-free): OK")

    # Caches (projection maps, packed words) are warm from the gate
    # above; what follows measures steady-state extraction only.
    packed_source = dataset.packed()
    legacy = time_marginals(dataset, blocks, args.repeats)
    packed = time_marginals(packed_source, blocks, args.repeats)
    speedup = legacy / packed

    print(f"marginal extraction, median over {args.repeats} runs "
          f"(N={N}, d={D}, {design.notation}, {len(blocks)} views):")
    print(f"  unpacked: {legacy * 1e3:9.2f} ms  "
          f"({legacy / len(blocks) * 1e3:.2f} ms/view)")
    print(f"  packed:   {packed * 1e3:9.2f} ms  "
          f"({packed / len(blocks) * 1e3:.2f} ms/view)")
    print(f"  speedup:  {speedup:9.2f}x  (required {args.min_speedup}x)")

    if speedup < args.min_speedup:
        print("FAIL: packed kernels below required speedup", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
