"""End-to-end smoke check for the live telemetry plane.

Run from the repository root::

    python scripts/obs_smoke.py [--port 0] [--epsilon 2.0]

Boots a server with tracing fully sampled and a metrics-snapshot
writer attached, drives a mixed covered/derived/solved load through
``QueryClient``, then verifies the whole telemetry contract:

* ``GET /metrics`` parses as Prometheus text exposition and contains
  the ``serve_request_seconds`` histogram with per-path, per-dataset
  bucket series;
* the p95 derived from the scraped buckets agrees with the engine's
  internal quantile (``/stats`` → ``latency``) within one bucket
  (the buckets are log-spaced factor-2, so ratio ≤ 2);
* a traced query shows one trace id in the client, the server's
  access log, and every engine/planner span it produced;
* a rejected request raises a typed error carrying the request id;
* the JSON-lines snapshot file has records and ``repro obs dump``
  renders both a live server and the snapshot file.

Exits non-zero on any failed check.  This is the script the CI
``obs-gate`` job runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import repro.obs as obs
from repro.cli import main as cli_main
from repro.core.priview import PriView
from repro.core.serialization import save_synopsis
from repro.covering.repository import best_design
from repro.exceptions import RemoteQueryError
from repro.marginals.dataset import Dataset
from repro.obs import propagation
from repro.obs.exporters import read_metrics_snapshots
from repro.obs.prometheus import histogram_quantile, parse_prometheus
from repro.serve import QueryClient, serve_source

COVERED = (0, 1)
DERIVABLE = (0, 2, 4)        # subset of SOLVED -> derived once cached
SOLVED = (0, 2, 4, 6, 8)
TRACED = (1, 3, 5, 7)        # fresh solver work for the traced request


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(f"  {'ok' if condition else 'FAIL'}  {message}")
    if not condition:
        failures.append(message)


def spans_named(roots, name: str) -> list:
    found = []
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.name == name:
            found.append(span)
        stack.extend(span.children)
    return found


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=2.0)
    args = parser.parse_args()
    failures: list[str] = []

    print("fitting a d=10 synopsis ...")
    rng = np.random.default_rng(2014)
    data = (rng.random((4000, 10)) < 0.3).astype(np.uint8)
    design = best_design(10, 4, 2)
    synopsis = PriView(args.epsilon, design=design, seed=3).fit(
        Dataset(data)
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = save_synopsis(synopsis, pathlib.Path(tmp) / "synopsis.npz")
        snapshots_path = pathlib.Path(tmp) / "metrics.jsonl"
        with obs.session(ledger=False) as sess:
            with (
                serve_source(
                    path,
                    port=args.port,
                    trace_sample_rate=1.0,
                    metrics_out=snapshots_path,
                    metrics_interval_s=0.2,
                ) as server,
                QueryClient(server.url, trace=True) as client,
            ):
                print(f"serving at {server.url}; driving load ...")
                for _ in range(3):
                    client.marginal(SOLVED)
                    client.marginal(COVERED)
                    client.marginal(DERIVABLE)
                    client.batch([COVERED, SOLVED, DERIVABLE])

                # -- /metrics exposition ------------------------------
                text = client.metrics()
                families = parse_prometheus(text)  # raises if malformed
                check(
                    "serve_request_seconds" in families,
                    "scrape exposes the serve_request_seconds histogram",
                    failures,
                )
                samples = families["serve_request_seconds"]["samples"]
                bucket_paths = {
                    labels.get("path")
                    for name, labels, _ in samples
                    if name.endswith("_bucket")
                }
                check(
                    {"covered", "derived", "solved"} <= bucket_paths,
                    f"buckets labeled by planner path ({sorted(bucket_paths)})",
                    failures,
                )
                datasets = {
                    labels.get("dataset")
                    for name, labels, _ in samples
                    if name.endswith("_bucket")
                }
                check(
                    datasets == {"default"},
                    f"buckets labeled by dataset ({sorted(datasets)})",
                    failures,
                )
                check(
                    families.get("serve_path_requests_total", {}).get("type")
                    == "counter",
                    "path counters re-labeled into one family",
                    failures,
                )

                # -- scraped p95 vs internal quantile -----------------
                scraped_p95 = histogram_quantile(samples, 0.95)
                latency = client.stats()["latency"]
                internal_p95 = latency["p95"]
                ratio = scraped_p95 / internal_p95
                check(
                    0.5 <= ratio <= 2.0,
                    f"scraped p95 {scraped_p95:.3g}s within one bucket of "
                    f"internal {internal_p95:.3g}s (x{ratio:.3f})",
                    failures,
                )

                # -- end-to-end trace propagation ---------------------
                context = propagation.new_context()
                with propagation.trace_scope(context):
                    client.marginal(TRACED)
                check(
                    client.last_trace["trace_id"] == context.trace_id,
                    "client sees its own trace id in the response",
                    failures,
                )
                access = [
                    record for record in server.access_log()
                    if record["trace_id"] == context.trace_id
                ]
                check(
                    len(access) == 1 and access[0]["status"] == 200,
                    "access log records the traced request once",
                    failures,
                )
                request_spans = [
                    span for span in spans_named(
                        sess.tracer.roots, "serve.request"
                    )
                    if span.trace_id == context.trace_id
                ]
                check(
                    len(request_spans) == 1,
                    "exactly one engine span carries the trace id",
                    failures,
                )
                compute = spans_named(request_spans, "serve.compute.solved")
                check(
                    bool(compute)
                    and all(
                        s.trace_id == context.trace_id for s in compute
                    ),
                    "planner/solver spans inherit the trace id",
                    failures,
                )

                # -- typed errors -------------------------------------
                try:
                    client.marginal((0, 0))
                    check(False, "duplicate attrs raise RemoteQueryError",
                          failures)
                except RemoteQueryError as exc:
                    check(
                        exc.status == 400
                        and exc.error_type == "QueryError"
                        and bool(exc.request_id),
                        f"typed error carries status/type/request id "
                        f"({exc.status}, {exc.error_type}, "
                        f"{exc.request_id})",
                        failures,
                    )

                # -- CLI dump against the live server -----------------
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main(["obs", "dump", "--url", server.url])
                check(
                    code == 0 and "serve_request_seconds_bucket"
                    in out.getvalue(),
                    "repro obs dump --url renders the live registry",
                    failures,
                )

                time.sleep(0.5)  # let the snapshot writer tick
            print("server shut down")

            records = read_metrics_snapshots(snapshots_path)
            check(
                len(records) >= 2
                and any("histograms" in r for r in records),
                f"snapshot writer left {len(records)} JSON-lines records",
                failures,
            )
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(
                    ["obs", "dump", "--snapshots", str(snapshots_path)]
                )
            check(
                code == 0 and "serve_request_seconds" in out.getvalue(),
                "repro obs dump --snapshots renders the final snapshot",
                failures,
            )

    if failures:
        print(f"FAIL: {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
