"""Gate benchmark results against committed baselines.

Run from the repository root, after the benchmark suite has emitted
fresh ``BENCH_*.json`` files::

    PYTHONPATH=src python -m pytest benchmarks -q
    python scripts/check_bench_regression.py

Compares each fresh file against its committed counterpart in
``results/bench_baselines/`` on a small set of gating metrics, each
with its own direction (higher- or lower-is-better) and relative
tolerance — CI machines are noisy, so the tolerances are generous;
the gate exists to catch order-of-magnitude breakage (a disabled
cache, an accidentally quadratic path, instrumentation on the hot
loop), not single-digit drift.

Metric paths are ``/``-separated because the JSON keys themselves
contain dots (``stages/priview.fit/seconds``).

Every run (pass or fail) appends one record per benchmark file to
``results/bench_history.jsonl`` so the trajectory across commits is
reconstructable.  Exits 0 when every present benchmark passes, 1 on
any regression, 2 on usage errors.  Fresh files that are missing are
skipped with a warning (CI may run a subset of the benchmarks);
baseline files that are missing fail the gate, since that means the
baseline was never seeded.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

#: file -> [(metric path, direction, relative tolerance), ...]
#: direction "higher": regression when fresh < baseline * (1 - tol);
#: direction "lower":  regression when fresh > baseline * (1 + tol).
DEFAULT_CHECKS = {
    "BENCH_serve.json": [
        ("warm/qps", "higher", 0.50),
        ("speedup_warm_vs_cold_solved", "higher", 0.50),
        ("warm/mean_ms", "lower", 1.00),
        # The ReM solved-path bars: the closed-form residual solver
        # must stay within shouting distance of the covered path and
        # an order of magnitude ahead of iterative maxent.
        ("solved_methods/residual/p95_ms", "lower", 1.00),
        ("solved_methods/residual/qps", "higher", 0.50),
        ("residual_p95_vs_covered", "lower", 1.00),
        ("batch/residual/qps", "higher", 0.50),
    ],
    "BENCH_fit.json": [
        ("speedup_packed_vs_legacy", "higher", 0.50),
        ("packed_median_s", "lower", 1.00),
    ],
    "BENCH_obs.json": [
        ("stages/priview.fit/seconds", "lower", 3.00),
    ],
    "BENCH_store.json": [
        ("publish/mean_s", "lower", 3.00),
        ("load/unverified_s", "lower", 3.00),
        ("router/warm_lease_mean_us", "lower", 3.00),
    ],
    "BENCH_stream.json": [
        ("ingest/events_per_s", "higher", 0.50),
        ("ingest_batched/events_per_s", "higher", 0.50),
        ("windows/per_minute", "higher", 0.50),
        ("windows/fit_mean_s", "lower", 3.00),
        ("union_query/warm_mean_ms", "lower", 3.00),
        ("union_query/warm_p95_ms", "lower", 3.00),
    ],
    "BENCH_synth.json": [
        # accuracy bar is absolute (1.5x the synopsis noise error);
        # the gate also catches creeping drift against the baseline
        ("accuracy/l1_ratio", "lower", 0.40),
        ("sampling/records_per_s", "higher", 0.50),
        ("synthesis/fit_s", "lower", 1.00),
    ],
}


def lookup(data: dict, path: str):
    """Resolve a ``/``-separated metric path into a nested dict."""
    node = data
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_metric(fresh, baseline, direction: str, tolerance: float) -> dict:
    """One metric verdict: ``{fresh, baseline, ratio, ok, reason}``."""
    out = {"fresh": fresh, "baseline": baseline, "direction": direction,
           "tolerance": tolerance, "ratio": None, "ok": True, "reason": ""}
    if fresh is None or baseline is None:
        out["ok"] = False
        out["reason"] = "metric missing from %s file" % (
            "fresh" if fresh is None else "baseline"
        )
        return out
    if not isinstance(fresh, (int, float)) or not isinstance(
        baseline, (int, float)
    ):
        out["ok"] = False
        out["reason"] = f"non-numeric metric ({fresh!r} vs {baseline!r})"
        return out
    if baseline == 0:
        out["reason"] = "zero baseline; skipped"
        return out
    out["ratio"] = fresh / baseline
    if direction == "higher":
        if fresh < baseline * (1 - tolerance):
            out["ok"] = False
            out["reason"] = (
                f"regressed: {fresh:.6g} < {baseline:.6g} "
                f"* (1 - {tolerance:g})"
            )
    elif direction == "lower":
        if fresh > baseline * (1 + tolerance):
            out["ok"] = False
            out["reason"] = (
                f"regressed: {fresh:.6g} > {baseline:.6g} "
                f"* (1 + {tolerance:g})"
            )
    else:
        out["ok"] = False
        out["reason"] = f"unknown direction {direction!r}"
    return out


def check_file(fresh_path: pathlib.Path, baseline_path: pathlib.Path,
               checks: list) -> dict:
    """Gate one benchmark file; returns its history record."""
    record = {
        "type": "bench_regression_check",
        "ts": time.time(),
        "bench": fresh_path.name,
        "ok": True,
        "metrics": {},
    }
    if not baseline_path.exists():
        record["ok"] = False
        record["error"] = f"no baseline at {baseline_path}"
        return record
    fresh = json.loads(fresh_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    record["benchmark_id"] = fresh.get("benchmark")
    for path, direction, tolerance in checks:
        verdict = check_metric(
            lookup(fresh, path), lookup(baseline, path), direction, tolerance
        )
        record["metrics"][path] = verdict
        if not verdict["ok"]:
            record["ok"] = False
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh BENCH_*.json files against committed "
        "baselines and fail on regressions"
    )
    parser.add_argument(
        "benchmarks", nargs="*", metavar="NAME",
        help="benchmark files to gate (default: every configured one)",
    )
    parser.add_argument(
        "--bench-dir", default=".", metavar="DIR",
        help="directory holding the fresh BENCH_*.json files (default: .)",
    )
    parser.add_argument(
        "--baseline-dir", default="results/bench_baselines", metavar="DIR",
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--history", default="results/bench_history.jsonl", metavar="PATH",
        help="JSON-lines file to append run records to",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append to the history file",
    )
    parser.add_argument(
        "--checks", default=None, metavar="PATH",
        help="JSON file overriding the default checks "
        '({"BENCH_x.json": [["path", "higher|lower", tol], ...]})',
    )
    args = parser.parse_args(argv)

    checks = DEFAULT_CHECKS
    if args.checks:
        try:
            checks = {
                name: [tuple(entry) for entry in entries]
                for name, entries in json.loads(
                    pathlib.Path(args.checks).read_text()
                ).items()
            }
        except (OSError, ValueError) as exc:
            print(f"error: cannot read --checks file: {exc}", file=sys.stderr)
            return 2

    names = args.benchmarks or sorted(checks)
    unknown = [name for name in names if name not in checks]
    if unknown:
        print(
            f"error: no checks configured for {unknown}; "
            f"known: {sorted(checks)}", file=sys.stderr,
        )
        return 2

    bench_dir = pathlib.Path(args.bench_dir)
    baseline_dir = pathlib.Path(args.baseline_dir)
    records = []
    failed = False
    for name in names:
        fresh_path = bench_dir / name
        if not fresh_path.exists():
            print(f"  skip  {name} (no fresh file at {fresh_path})")
            continue
        record = check_file(fresh_path, baseline_dir / name, checks[name])
        records.append(record)
        if "error" in record:
            print(f"  FAIL  {name}: {record['error']}")
            failed = True
            continue
        for path, verdict in record["metrics"].items():
            mark = "ok" if verdict["ok"] else "FAIL"
            ratio = verdict["ratio"]
            detail = (
                f"{verdict['fresh']:.6g} vs baseline "
                f"{verdict['baseline']:.6g} (x{ratio:.3f})"
                if ratio is not None
                else verdict["reason"]
            )
            print(f"  {mark:4s}  {name}:{path}  {detail}")
            if not verdict["ok"]:
                if verdict["reason"] and ratio is not None:
                    print(f"        {verdict['reason']}")
                failed = True

    if not records:
        print("error: no fresh benchmark files found; run the benchmark "
              "suite first", file=sys.stderr)
        return 2

    if not args.no_history:
        history = pathlib.Path(args.history)
        history.parent.mkdir(parents=True, exist_ok=True)
        with history.open("a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"appended {len(records)} record(s) to {history}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
