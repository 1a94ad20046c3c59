"""Benchmark the serving subsystem: cold vs. warm query latency.

Emits ``BENCH_serve.json`` — queries/sec for the cold (solver) path vs.
the warm (cache-hit) path on a d=32, k=4 workload, plus the planner
path breakdown — the machine-readable trajectory later serving PRs
diff against.  The acceptance bars: warm answers at least 10x faster
than cold solver-path answers; the closed-form ``residual`` solver
answers cold solved-path queries with p95 within 2x of the covered
path (the ReM speedup this file gates, see ``docs/PERFORMANCE.md``),
on the binary synopsis and on a categorical one; and every request
accounted for by planner path in both ``/stats`` and the obs counters.

The p95 gates time ``SAMPLES`` distinct cold queries per path, covered
and solved alternately on one engine, so both paths see the same
machine noise.  The file is written before the bars are asserted, so a
run that misses a bar still leaves its readings (and the machine they
came from) behind.
"""

import itertools
import json
import os
import pathlib
import platform
from time import perf_counter

import numpy as np

from repro import obs
from repro.core.priview import PriView
from repro.covering.repository import best_design
from repro.experiments.data import experiment_dataset
from repro.marginals.dataset import Dataset
from repro.serve import PATH_COVERED, PATH_DERIVED, PATH_SOLVED, QueryEngine

D = 32
K = 4
#: timed cold queries per path in the p95 gates
SAMPLES = 200
CATEGORICAL_ARITIES = (3, 2, 4, 3, 2, 5, 3, 2, 4, 3, 2, 3, 4, 2, 3, 5)
CATEGORICAL_K = 3


def _workload(design, rng, num_each=12):
    """Distinct k=4 covered + uncovered sets, plus uncovered k=3
    subsets of the uncovered ones (those exercise the derived path)."""
    blocks = list(design.blocks)
    covered_by = lambda attrs: any(set(attrs) <= set(b) for b in blocks)

    covered = set()
    while len(covered) < num_each:
        block = blocks[rng.integers(len(blocks))]
        covered.add(tuple(sorted(rng.choice(block, K, replace=False).tolist())))
    uncovered = set()
    while len(uncovered) < num_each:
        attrs = tuple(sorted(rng.choice(D, K, replace=False).tolist()))
        if not covered_by(attrs):
            uncovered.add(attrs)
    derived = set()
    for parent in sorted(uncovered):
        for drop in range(K):
            sub = tuple(a for i, a in enumerate(parent) if i != drop)
            if not covered_by(sub):
                derived.add(sub)
                break
        if len(derived) >= num_each // 2:
            break
    return sorted(covered), sorted(uncovered), sorted(derived)


def _timed(engine, queries):
    latencies = []
    for attrs in queries:
        start = perf_counter()
        engine.answer(attrs)
        latencies.append(perf_counter() - start)
    return latencies


def _interleaved(engine, covered, solved):
    """Time covered and solved queries alternately: ``(covered
    latencies, solved latencies)``."""
    covered_lat, solved_lat = [], []
    for cov, sol in zip(covered, solved, strict=True):
        covered_lat += _timed(engine, [cov])
        solved_lat += _timed(engine, [sol])
    return covered_lat, solved_lat


def _p95_ms(latencies):
    return 1e3 * float(np.percentile(latencies, 95))


def _more_uncovered(design, rng, count):
    """Extra distinct uncovered k=4 sets (p95 needs a bigger sample)."""
    blocks = [set(b) for b in design.blocks]
    out = set()
    while len(out) < count:
        attrs = tuple(sorted(rng.choice(D, K, replace=False).tolist()))
        if not any(set(attrs) <= b for b in blocks):
            out.add(attrs)
    return sorted(out)


def _more_covered(design, rng, count):
    """Extra distinct covered k=4 sets (the p95 baseline workload)."""
    blocks = list(design.blocks)
    out = set()
    while len(out) < count:
        block = blocks[rng.integers(len(blocks))]
        out.add(tuple(sorted(rng.choice(block, K, replace=False).tolist())))
    return sorted(out)


def test_bench_serve_export(scale):
    dataset = experiment_dataset("kosarak", scale)
    design = best_design(D, 8, 2)
    synopsis = PriView(1.0, design=design, seed=0).fit(dataset)
    rng = np.random.default_rng(20140622)
    covered, uncovered, derived = _workload(design, rng)
    everything = covered + uncovered + derived

    with obs.session() as sess:
        with QueryEngine(synopsis, cache_size=512) as engine:
            cold_covered = _timed(engine, covered)
            cold_solved = _timed(engine, uncovered)
            cold_derived = _timed(engine, derived)
            warm = _timed(engine, everything)
            warm_again = _timed(engine, everything)
            stats = engine.stats()
        counters = sess.metrics.snapshot()["counters"]
        latency_obs = sess.metrics.observation("serve.request_seconds")

    warm_all = warm + warm_again
    cold_solved_mean = sum(cold_solved) / len(cold_solved)
    warm_mean = sum(warm_all) / len(warm_all)

    def _summary(latencies):
        return {
            "queries": len(latencies),
            "mean_ms": 1e3 * sum(latencies) / len(latencies),
            "max_ms": 1e3 * max(latencies),
            "p95_ms": _p95_ms(latencies),
            "qps": len(latencies) / sum(latencies),
        }

    # -- per-method solved path: cold latency, fresh engine each ------
    # Warmup queries are disjoint from the timed workload: they absorb
    # one-time costs (lazy engine state, the residual coefficient
    # index) that belong to startup, not to per-query latency.
    # Each method's engine gets its own queries, so neither answers
    # from projection maps the other one built.
    extra_uncovered = _more_uncovered(design, rng, 2 * SAMPLES + 4)
    warmup_uncovered = extra_uncovered[:4]
    method_uncovered = extra_uncovered[4:SAMPLES + 4]
    extra_covered = _more_covered(design, rng, 2 * SAMPLES)
    queries = {
        "maxent": (extra_covered[::2], extra_uncovered[SAMPLES + 4:]),
        "residual": (extra_covered[1::2], method_uncovered),
    }
    warmup_covered = tuple(design.blocks[0][:3])
    solved_methods = {}
    covered_lat_by_method = {}
    for method, (timed_covered, timed_solved) in queries.items():
        with obs.session() as msess:
            with QueryEngine(
                synopsis, cache_size=1024, default_method=method
            ) as meng:
                meng.answer(warmup_covered)
                for attrs in warmup_uncovered:
                    meng.answer(attrs)
                covered_lat_by_method[method], lat = _interleaved(
                    meng, timed_covered, timed_solved
                )
                mstats = meng.stats()
            solve_obs = msess.metrics.observation(
                "serve.solve_seconds", {"method": method}
            )
        assert mstats["paths"][PATH_SOLVED] == (
            len(timed_solved) + len(warmup_uncovered)
        )
        assert mstats["solve"]["fallbacks"] == 0
        solved_methods[method] = {
            **_summary(lat),
            "solve_seconds": solve_obs,
        }
    covered_p95_ms = _p95_ms(covered_lat_by_method["residual"])
    residual_p95_vs_covered = (
        solved_methods["residual"]["p95_ms"] / covered_p95_ms
    )
    categorical = _categorical_residual()

    # -- batch path: one pre-solve per method for the whole workload --
    batch = {}
    for method in ("maxent", "residual"):
        with obs.session() as bsess:
            with QueryEngine(
                synopsis, cache_size=512, default_method=method
            ) as beng:
                for attrs in warmup_uncovered:
                    beng.answer(attrs)
                start = perf_counter()
                answers = beng.answer_batch(method_uncovered)
                elapsed = perf_counter() - start
            bcounters = bsess.metrics.snapshot()["counters"]
        assert all(a.path == PATH_SOLVED for a in answers)
        assert bcounters.get("serve.solve.batched", 0) == len(method_uncovered)
        batch[method] = {
            "queries": len(method_uncovered),
            "total_ms": 1e3 * elapsed,
            "per_query_ms": 1e3 * elapsed / len(method_uncovered),
            "qps": len(method_uncovered) / elapsed,
        }

    payload = {
        "benchmark": f"serve_kosarak_{design.notation}_k{K}",
        "scale": scale.name,
        "env": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workload": {
            "d": D,
            "k": K,
            "covered": len(covered),
            "uncovered": len(uncovered),
            "derived": len(derived),
        },
        "cold": {
            "covered": _summary(cold_covered),
            "solved": _summary(cold_solved),
            "derived": _summary(cold_derived) if cold_derived else None,
        },
        "warm": _summary(warm_all),
        "speedup_warm_vs_cold_solved": cold_solved_mean / warm_mean,
        "solved_methods": solved_methods,
        "covered_p95_ms": covered_p95_ms,
        "residual_p95_vs_covered": residual_p95_vs_covered,
        "categorical_residual": categorical,
        "batch": batch,
        "paths": stats["paths"],
        "cache": stats["cache"],
        "request_seconds": latency_obs,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # -- accounting: every request lands in exactly one planner path --
    assert stats["requests"] == sum(stats["paths"].values())
    assert stats["requests"] == 3 * len(everything)
    assert counters["serve.request"] == stats["requests"]
    for path, count in stats["paths"].items():
        assert counters.get(f"serve.path.{path}", 0) == count
    assert latency_obs["count"] == stats["requests"]
    assert stats["paths"][PATH_COVERED] == 3 * len(covered)
    assert stats["paths"][PATH_SOLVED] == 3 * len(uncovered)
    assert stats["paths"][PATH_DERIVED] == 3 * len(derived)

    # -- the serving claim: warm >= 10x faster than the cold solver path
    assert warm_mean * 10 <= cold_solved_mean, (
        f"warm {warm_mean * 1e3:.3f}ms vs cold solver "
        f"{cold_solved_mean * 1e3:.3f}ms"
    )

    # -- the ReM claim: residual retires the solved-path hot spot -----
    assert max(
        residual_p95_vs_covered, categorical["residual_p95_vs_covered"]
    ) <= 2.0, (
        f"binary: residual solved p95 "
        f"{solved_methods['residual']['p95_ms']:.3f}ms vs covered p95 "
        f"{covered_p95_ms:.3f}ms ({residual_p95_vs_covered:.2f}x); "
        f"categorical: solved p95 {categorical['solved_p95_ms']:.3f}ms vs "
        f"covered p95 {categorical['covered_p95_ms']:.3f}ms "
        f"({categorical['residual_p95_vs_covered']:.2f}x); bar 2x"
    )


def _categorical_residual() -> dict:
    """The residual p95 gate on a categorical synopsis: cold covered
    and solved ``CATEGORICAL_K``-way queries, interleaved."""
    data = Dataset.random(
        20_000, CATEGORICAL_ARITIES, rng=np.random.default_rng(11)
    )
    synopsis = PriView(1.0, seed=0).fit(data)
    d = len(CATEGORICAL_ARITIES)
    covered, uncovered = [], []
    for attrs in itertools.combinations(range(d), CATEGORICAL_K):
        (covered if synopsis.is_covered(attrs) else uncovered).append(attrs)
    rng = np.random.default_rng(5)
    order = rng.permutation(len(uncovered))
    warmup = [uncovered[i] for i in order[:4]]
    solved = [uncovered[i] for i in order[4:SAMPLES + 4]]
    covered = [covered[i] for i in rng.permutation(len(covered))[:len(solved) + 1]]
    with obs.session():
        with QueryEngine(
            synopsis, cache_size=1024, default_method="residual"
        ) as engine:
            engine.answer(covered[0])
            for attrs in warmup:
                engine.answer(attrs)
            covered_lat, solved_lat = _interleaved(engine, covered[1:], solved)
            stats = engine.stats()
    assert stats["paths"][PATH_SOLVED] == len(warmup) + len(solved)
    assert stats["solve"]["fallbacks"] == 0
    return {
        "queries": len(solved),
        "covered_p95_ms": _p95_ms(covered_lat),
        "solved_p95_ms": _p95_ms(solved_lat),
        "residual_p95_vs_covered": _p95_ms(solved_lat) / _p95_ms(covered_lat),
    }
