"""End-to-end smoke check for the synopsis-store subsystem.

Run from the repository root::

    python scripts/store_smoke.py [--port 0] [--epsilon 2.0]

Exercises the full registry lifecycle in one process: fit two small
synopses for different datasets, publish them, verify the store, boot
a multi-dataset HTTP server on an ephemeral port, answer a covered
marginal for each dataset bitwise-identically to the synopsis's own
``marginal()``, publish a new version under concurrent query load and
hot-swap it via ``POST /v1/reload`` with zero failed requests,
simulate a publisher killed between temp-write and rename (the store
must stay clean and keep serving), and garbage-collect the leftovers.
Exits non-zero on any mismatch.  This is the script the ``store-gate``
CI job runs after the tier-1 suite.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile
import threading

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core.priview import PriView
from repro.covering.repository import best_design
from repro.exceptions import QueryError
from repro.marginals.dataset import Dataset
from repro.serve import QueryClient, serve_store
from repro.store import SynopsisStore, artifacts

COVERED = (0, 1)  # pairs are covered by any t=2 design


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(f"  {'ok' if condition else 'FAIL'}  {message}")
    if not condition:
        failures.append(message)


def fit(d: int, seed: int, epsilon: float):
    rng = np.random.default_rng(900 + seed)
    data = (rng.random((3000, d)) < 0.3).astype(np.uint8)
    design = best_design(d, 4, 2)
    return PriView(epsilon, design=design, seed=seed).fit(Dataset(data))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=2.0)
    args = parser.parse_args()
    failures: list[str] = []

    print("fitting two synopses (d=10 and d=12) ...")
    adult = fit(10, 1, args.epsilon)
    msnbc = fit(12, 2, args.epsilon / 2)
    adult_v2 = fit(10, 7, args.epsilon)

    with tempfile.TemporaryDirectory() as tmp:
        store = SynopsisStore(pathlib.Path(tmp) / "registry")
        info_a = store.publish("adult", adult, fit_seconds=0.5)
        info_m = store.publish("msnbc", msnbc, fit_seconds=0.7)
        check(
            (info_a.spec, info_m.spec) == ("adult@1", "msnbc@1"),
            "publish assigns version 1 to each dataset", failures,
        )
        check(store.verify()["clean"], "store verifies clean", failures)

        with (
            serve_store(store, port=args.port) as server,
            QueryClient(server.url) as client,
        ):
            print(f"serving store at {server.url}")
            check(
                client.healthz()["mode"] == "store",
                "healthz reports store mode", failures,
            )
            names = [d["name"] for d in client.datasets()]
            check(
                names == ["adult", "msnbc"],
                "both datasets listed", failures,
            )
            for name, synopsis in (("adult", adult), ("msnbc", msnbc)):
                payload = client.marginal(COVERED, dataset=name)
                check(
                    payload["path"] == "covered",
                    f"{name}: pair query is covered", failures,
                )
                check(
                    np.array_equal(
                        np.asarray(payload["counts"]),
                        synopsis.marginal(COVERED).counts,
                    ),
                    f"{name}: served counts bitwise equal to synopsis",
                    failures,
                )
            try:
                client.marginal(COVERED, dataset="unknown")
                check(False, "unknown dataset rejected with 404", failures)
            except QueryError:
                check(True, "unknown dataset rejected with 404", failures)

            # -- hot swap under load --------------------------------
            expected = {
                adult.marginal(COVERED).counts.tobytes(),
                adult_v2.marginal(COVERED).counts.tobytes(),
            }
            stop = threading.Event()
            load_failures: list[str] = []
            served = [0] * 4

            def hammer(slot: int) -> None:
                with QueryClient(server.url, dataset="adult") as mine:
                    while not stop.is_set() or served[slot] == 0:
                        try:
                            answer = mine.marginal(COVERED)
                        except Exception as exc:  # noqa: BLE001
                            load_failures.append(
                                f"{type(exc).__name__}: {exc}"
                            )
                            return
                        counts = np.asarray(answer["counts"]).tobytes()
                        if counts not in expected:
                            load_failures.append("torn answer during swap")
                            return
                        served[slot] += 1

            threads = [
                threading.Thread(target=hammer, args=(slot,), daemon=True)
                for slot in range(len(served))
            ]
            for thread in threads:
                thread.start()
            store.publish("adult", adult_v2, fit_seconds=0.5)
            summary = client.reload()
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            check(
                summary["swapped"] == [{"from": "adult@1", "to": "adult@2"}],
                "reload hot-swapped adult@1 -> adult@2", failures,
            )
            check(
                not load_failures and all(count > 0 for count in served),
                f"zero failed requests during hot swap ({sum(served)} served)",
                failures,
            )
            post = client.marginal(COVERED, dataset="adult")
            check(
                np.array_equal(
                    np.asarray(post["counts"]),
                    adult_v2.marginal(COVERED).counts,
                ),
                "post-swap answers come from adult@2", failures,
            )

            # -- crash-mid-publish simulation -----------------------
            before = store.resolve("adult").sha256
            leftover = artifacts.make_temp(
                store.objects_dir, suffix=artifacts.OBJECT_SUFFIX
            )
            leftover.write_bytes(b"writer killed between temp-write and rename")
            check(
                store.resolve("adult").sha256 == before,
                "crashed publish leaves the previous version serving",
                failures,
            )
            report = store.verify()
            check(
                report["clean"] and leftover.name in report["tmp_files"],
                "verify reports the store clean despite the leftover",
                failures,
            )
            swept = store.gc(tmp_age_s=0)
            check(
                leftover.name in swept["removed_tmp"],
                "gc sweeps the stale temp file", failures,
            )
            still = client.marginal(COVERED, dataset="adult")
            check(
                np.array_equal(
                    np.asarray(still["counts"]),
                    adult_v2.marginal(COVERED).counts,
                ),
                "serving unaffected by gc", failures,
            )
        print("server shut down")

    if failures:
        print(f"FAIL: {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
