"""End-to-end smoke check for the streaming subsystem.

Run from the repository root::

    python scripts/stream_smoke.py [--windows 3] [--epsilon 1.0]

Exercises the full streaming vertical in one process: ingest a
timestamped JSON-lines event stream into event-time tumbling windows
(with one deliberately late event), fit and auto-publish one synopsis
per window under a per-window epsilon schedule, prove via
``ledger.check()`` that parallel composition across the disjoint
windows cost exactly one window's epsilon, boot a ``--watch`` HTTP
server and confirm the published windows are visible live, publish an
extra window under concurrent query load with zero failed requests,
and answer a last-3-windows union marginal that must equal the
record-weighted merge of the per-window ground truth (exactly, since
the smoke runs at epsilon=inf for the exactness leg).  Exits non-zero
on any mismatch.  This is the script the ``stream-gate`` CI job runs
after the stream tests.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import tempfile
import threading

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import obs
from repro.serve import QueryClient, serve_store
from repro.store import SynopsisStore
from repro.stream import (
    BudgetSchedule,
    CountWindowPolicy,
    EventBatch,
    TimeWindowPolicy,
    WindowScheduler,
    WindowShard,
    read_jsonl_events,
)

D = 8
PER_WINDOW = 400
ATTRS = (0, 3)


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(f"  {'ok' if condition else 'FAIL'}  {message}")
    if not condition:
        failures.append(message)


def write_events(path: pathlib.Path, windows: int) -> list[dict]:
    """Timestamped events, one window per second, plus one straggler."""
    rng = np.random.default_rng(17)
    events = []
    for i in range(windows * PER_WINDOW):
        items = [int(x) for x in np.nonzero(rng.random(D) < 0.35)[0]]
        events.append({"items": items, "ts": i / PER_WINDOW})
    # A straggler for window 0 arriving after the watermark passed it.
    # The event-time leg drops it as late; the count-window leg packs it
    # into a 1-record tail window.
    events.append({"items": [0], "ts": 0.5})
    with path.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
    return events


def ground_truth(events: list[dict], lo: int, hi: int) -> np.ndarray:
    shard = WindowShard(D, chunk_records=64)
    shard.add_rows(EventBatch.from_events(events[lo:hi]).rows(D))
    return shard.finish().marginal(ATTRS).counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=3)
    parser.add_argument(
        "--epsilon", type=float, default=1.0,
        help="per-window epsilon for the audited (noisy) leg",
    )
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="stream-smoke-") as tmp:
        tmp_path = pathlib.Path(tmp)
        events = write_events(tmp_path / "events.jsonl", args.windows)

        # -- leg 1: noisy run, exact parallel-composition audit -------
        print(f"[1/3] windowed releases under epsilon={args.epsilon}")
        store = SynopsisStore(tmp_path / "noisy")
        with obs.session() as sess:
            released = WindowScheduler(
                store, "events", D, BudgetSchedule(args.epsilon),
                TimeWindowPolicy(1.0, lateness=0.2), view_width=4,
            ).run(read_jsonl_events(tmp_path / "events.jsonl"))
            try:
                sess.ledger.check()
                audit_ok = True
            except Exception:
                audit_ok = False
            check(
                len(released) == args.windows,
                f"{args.windows} windows released on the epsilon schedule",
                failures,
            )
            check(audit_ok, "ledger.check() passed", failures)
            check(
                sess.ledger.total_spent() == args.epsilon,
                f"parallel composition spent exactly {args.epsilon} "
                f"(not {args.windows}x)",
                failures,
            )
            [parent] = sess.ledger.scopes
            check(
                parent.composition == "parallel"
                and len(parent.children) == args.windows,
                "one strict child scope per disjoint window",
                failures,
            )
        check(
            all(
                store.resolve(f"events@{r.version}").extra["window"]["index"]
                == r.index
                for r in released
            ),
            "every window auto-published with manifest metadata",
            failures,
        )

        # -- leg 2: exactness at epsilon=inf --------------------------
        print("[2/3] last-3-windows union vs record-weighted ground truth")
        exact_store = SynopsisStore(tmp_path / "exact")
        WindowScheduler(
            exact_store, "events", D, BudgetSchedule(math.inf),
            CountWindowPolicy(PER_WINDOW), view_width=4,
        ).run(read_jsonl_events(tmp_path / "events.jsonl"))

        # -- leg 3: live watch serving + churn ------------------------
        print("[3/3] watch serving: live visibility, zero-drop churn")
        with (
            serve_store(exact_store, port=args.port, watch=True) as server,
            QueryClient(server.url, dataset="events") as client,
        ):
            listed = client.windows()
            check(
                [w["index"] for w in listed]
                == list(range(args.windows + 1)),
                "published windows visible through the watch server "
                "(straggler spilled into its own tail window)",
                failures,
            )
            # last=3 of the released count windows includes the
            # 1-record straggler tail window, so the ground truth is
            # the tail of the full event list (straggler included).
            last = min(3, len(listed))
            payload = client.window_marginal(ATTRS, last=last)
            lo = (len(listed) - last) * PER_WINDOW
            expected = ground_truth(events, lo, len(events))
            union = np.asarray(payload["union"]["counts"], dtype=float)
            check(
                np.allclose(union, expected),
                f"last-{last}-windows union == record-weighted merge "
                "of per-window ground truth (epsilon=inf, exact)",
                failures,
            )
            per_window = [
                np.asarray(w["counts"], dtype=float)
                for w in payload["windows"]
            ]
            check(
                np.allclose(sum(per_window), union),
                "union == cell-wise sum of the per-window answers",
                failures,
            )

            churn_failures: list[BaseException] = []
            stop = threading.Event()

            def hammer() -> None:
                with QueryClient(server.url, dataset="events") as mine:
                    while not stop.is_set():
                        try:
                            mine.marginal(ATTRS)
                        except BaseException as exc:  # noqa: BLE001
                            churn_failures.append(exc)
                            return

            threads = [
                threading.Thread(target=hammer, daemon=True)
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            before = exact_store.resolve("events").version
            WindowScheduler(
                exact_store, "events", D, BudgetSchedule(math.inf),
                CountWindowPolicy(PER_WINDOW), view_width=4,
            ).run(read_jsonl_events(tmp_path / "events.jsonl"))
            deadline_version = exact_store.resolve("events").version
            client.marginal(ATTRS)  # forces a watch poll + hot swap
            stats = client.stats()
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            check(
                not churn_failures,
                "zero failed requests while publishing under load",
                failures,
            )
            check(
                deadline_version > before
                and stats["hosted"]["events"]["version"]
                == deadline_version,
                "watch server hot-swapped to the newest published window",
                failures,
            )
            check(
                stats["last_poll"] is not None
                and stats["last_swap"] is not None,
                "router stats expose last_poll / last_swap timestamps",
                failures,
            )

    if failures:
        print(f"\nstream smoke: {len(failures)} failure(s)")
        return 1
    print("\nstream smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
