#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Workloads: ``serve-hot``, ``serve-cold`` and ``publish`` (see
``perfbench/README.md``).  The second-to-last line of standard output
is a JSON record with the environment, the workload's own figures
(every metric by name, sample counts, the generator's send lag) and any
failed checks; the last line is the result::

    {"correct": true, "attempted": n, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The exit code is 0 when every check passed, 1 when
some output was wrong, 2 when the checkout cannot run the benchmark
and 3 when the load generator fell behind (the run is not reported).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import (  # noqa: E402
    WORK,
    InvalidRun,
    SetupError,
    cpu_share,
    cpu_times,
    environment,
    use_checkout_sources,
)

WORKLOADS = ("serve-hot", "serve-cold", "publish")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "client.request_ms": "ms",
    "client.decode_ms": "ms",
    "client.batch_p50_ms": "ms",
    "server.overhead_ms": "ms",
    "protocol.encode_ms": "ms",
    "protocol.response_bytes": "bytes",
    "engine.request_ms.covered": "ms",
    "engine.request_ms.derived": "ms",
    "engine.request_ms.solved": "ms",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.coalesced": "count",
    "planner.share.covered": "ratio",
    "planner.share.derived": "ratio",
    "planner.share.solved": "ratio",
    "solve.residual_ms": "ms",
    "solve.maxent_ms": "ms",
    "solve.mixed_ms": "ms",
    "maxent.sweeps_per_call": "count",
    "maxent.unconverged_ratio": "ratio",
    "solve.fallbacks": "count",
    "solve.batched": "count",
    "router.builds": "count",
    "store.load_ms": "ms",
    "stream.ingest_ms": "ms",
    "stream.late_events": "count",
    "stream.window_release_ms": "ms",
    "stream.events_per_s": "1/s",
    "kernels.marginals_ms": "ms",
    "priview.noisy_views_ms": "ms",
    "priview.post_process_ms": "ms",
    "consistency.table_updates": "count",
    "ripple.passes": "count",
    "store.publish_ms": "ms",
    "store.version_bytes": "bytes",
    "synth.init_ms": "ms",
    "synth.round_ms": "ms",
    "synth.accept_ratio": "ratio",
    "synth.records_moved": "count",
    "synth.rows_per_s": "1/s",
    "trace.overhead.latency_p50": "ratio",
    "trace.overhead.throughput": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args) -> dict:
    if args.workload == "publish":
        import publish_workload

        size = publish_workload.FULL if args.size == "full" else publish_workload.TINY
        return publish_workload.run(args.seed, args.seconds, bool(args.trace), size)
    import serve_workloads

    sizes = serve_workloads.FULL if args.size == "full" else serve_workloads.TINY
    size = sizes[args.workload]
    return serve_workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), size
    )


def _terminate(signum, frame):
    # Unwind through the workloads' ``finally`` blocks, which stop the
    # server process and remove the run's scratch store.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        use_checkout_sources()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    ticks = cpu_times()
    try:
        out = run_workload(args)
    except InvalidRun as exc:
        print(f"perfbench: invalid run, not reported: {exc}", file=sys.stderr)
        return 3
    declared = PER_LAYER if args.trace else END_TO_END
    values = out["layers"] if args.trace else out["e2e"]
    metrics = {
        # A layer the workload does not exercise did no work: 0.
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "cpu": cpu_share(ticks, cpu_times()),
        "summary": out["summary"],
        "problems": out["problems"][:20],
    }
    recorder = out.get("recorder")
    if recorder is not None:
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        recorder.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(WORK.parent))
        record["self_time_s"] = recorder.self_times()
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    print(json.dumps(record, default=float))
    print(json.dumps(result))
    return 0 if out["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
