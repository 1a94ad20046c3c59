"""End-to-end smoke check for the serving subsystem.

Run from the repository root::

    python scripts/serve_smoke.py [--port 0] [--epsilon 2.0]

Exercises the full publish-and-serve lifecycle in one process: fit a
small synopsis, save it to disk, boot an HTTP server from the saved
file on an ephemeral port, query it over the wire with
``repro.serve.QueryClient`` (single, duplicate-heavy batch, and an
intentionally malformed request), verify ``/stats`` accounts for every
request by planner path and that one kept-alive connection carried
them all (``serve_http_connections_total`` in ``GET /metrics``), and
shut the server down.  Exits non-zero on any mismatch.  This is the
script CI runs after the tier-1 suite.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core.priview import PriView
from repro.core.serialization import save_synopsis
from repro.covering.repository import best_design
from repro.exceptions import QueryError
from repro.marginals.dataset import Dataset
from repro.obs.prometheus import parse_prometheus
from repro.serve import QueryClient, serve_source

COVERED = (0, 1)             # pairs are covered by any t=2 design
UNCOVERED = (0, 2, 4, 6, 8)  # 5 attrs cannot fit a size-4 block


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(f"  {'ok' if condition else 'FAIL'}  {message}")
    if not condition:
        failures.append(message)


def connections(metrics_text: str) -> int:
    """``serve.http.connections``: connections the server accepted."""
    family = parse_prometheus(metrics_text)["serve_http_connections_total"]
    return int(sum(value for _, _, value in family["samples"]))


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
        print(f"saved to {path}; serving ...")
        with (
            serve_source(path, port=args.port) as server,
            QueryClient(server.url) as client,
        ):
            print(f"serving at {server.url}")

            health = client.healthz()
            check(health["status"] == "ok", "healthz reports ok", failures)

            answer = client.marginal(COVERED)
            check(answer["path"] == "covered", "pair query is covered", failures)
            answer = client.marginal(UNCOVERED)
            check(
                answer["path"] == "solved",
                "uncovered query hits the solver",
                failures,
            )
            table = client.marginal_table(UNCOVERED)
            check(
                table.attrs == UNCOVERED and len(table.counts) == 2 ** 5,
                "5-way marginal decodes to a MarginalTable",
                failures,
            )
            local = synopsis.marginal(UNCOVERED)
            check(
                np.allclose(table.counts, local.counts),
                "served counts match local reconstruction",
                failures,
            )

            batch = client.batch([COVERED, COVERED[::-1], UNCOVERED])
            check(
                batch["count"] == 3 and batch["distinct"] == 2,
                "batch de-duplicates equivalent attr sets",
                failures,
            )

            try:
                client.marginal((0, 0))
                check(False, "duplicate attrs rejected with 400", failures)
            except QueryError:
                check(True, "duplicate attrs rejected with 400", failures)

            stats = client.stats()
            paths = stats["paths"]
            check(
                stats["requests"] == sum(paths.values()),
                f"stats account for every request ({stats['requests']} "
                f"== sum of {paths})",
                failures,
            )
            check(paths["error"] == 1, "exactly one error recorded", failures)
            # the server started at 0 and this client is its only caller
            opened = connections(client.metrics())
            check(
                opened == 1,
                f"every query shared one kept-alive connection ({opened} "
                "opened)",
                failures,
            )
        print("server shut down")

    if failures:
        print(f"FAIL: {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
