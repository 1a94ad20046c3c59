"""End-to-end smoke check for the synthesis subsystem.

Run from the repository root::

    python scripts/synth_smoke.py [--records 50000] [--epsilon 2.0]

Exercises the whole record-level vertical in one process: fit a mixed
categorical synopsis with a rich Domain, synthesize a record
population from it (checking the L1 error history is monotone and the
run is bit-deterministic under a fixed seed), prove via the privacy
ledger that synthesis spent exactly zero epsilon, publish the
synopsis to a store and serve it over HTTP, draw coded and decoded
record samples through the ``/v1/d/{name}/sample`` route, and answer
a record-level filter query against the synthetic population.  Exits
non-zero on any mismatch.  This is the script CI's synth gate runs
after the tier-1 suite.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import obs
from repro.core.priview import PriView
from repro.core.serialization import save_synopsis
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Attribute, Domain
from repro.serve import QueryClient, serve_store
from repro.store import SynopsisStore
from repro.synth import RecordSampler, Synthesizer


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(f"  {'ok' if condition else 'FAIL'}  {message}")
    if not condition:
        failures.append(message)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--records", type=int, default=50_000)
    parser.add_argument("--epsilon", type=float, default=2.0)
    args = parser.parse_args()
    failures: list[str] = []

    domain = Domain((
        Attribute("age", 5, kind="numeric", bins=(0.0, 20, 35, 50, 65, 100)),
        Attribute("job", 4, labels=("none", "blue", "white", "self")),
        Attribute("married", 2),
        Attribute("kids", 4, kind="ordinal"),
        Attribute("region", 6),
        Attribute("income", 8, kind="ordinal"),
        Attribute("urban", 2),
        Attribute("health", 3, labels=("poor", "fair", "good")),
    ))
    rng = np.random.default_rng(2014)
    dataset = Dataset.random(args.records, domain, rng=rng)

    print(f"fitting a mixed d={domain.num_attributes} synopsis ...")
    with obs.session() as sess:
        synopsis = PriView(args.epsilon, seed=7).fit(dataset)
        print("synthesizing ...")
        records = Synthesizer(seed=11).fit(synopsis)
        again = Synthesizer(seed=11).fit(synopsis)
        audit = {row.name: row for row in sess.ledger.audit()}

    history = records.meta["history"]
    check(
        all(b <= a + 1e-9 for a, b in zip(history, history[1:])),
        f"L1 history monotone non-increasing "
        f"({history[0]:.4f} -> {history[-1]:.4f} over "
        f"{records.meta['rounds']} round(s))",
        failures,
    )
    check(
        bool(np.array_equal(records.data, again.data)),
        "synthesis bit-deterministic under a fixed seed",
        failures,
    )
    synth_row = audit.get("Synthesizer.fit")
    check(
        synth_row is not None
        and synth_row.configured == 0.0
        and synth_row.spent_max == 0.0
        and synth_row.status == "exact",
        "ledger proves synthesis spent zero epsilon "
        f"(scope: {synth_row.name} configured={synth_row.configured:g} "
        f"spent={synth_row.spent_max:g} status={synth_row.status})"
        if synth_row else "ledger has a Synthesizer.fit scope",
        failures,
    )
    fit_row = audit.get("PriView.fit")
    check(
        fit_row is not None and fit_row.spent_max == args.epsilon,
        f"fit spent its configured epsilon ({args.epsilon:g})",
        failures,
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        store = SynopsisStore(tmp / "store")
        path = save_synopsis(synopsis, tmp / "synopsis.npz")
        info = store.publish("smoke", path)
        check(
            info.domain is not None
            and Domain.from_json(info.domain) == domain,
            "published version records the domain schema",
            failures,
        )

        print("serving the store ...")
        with (
            serve_store(store, port=0) as server,
            QueryClient(server.url, dataset="smoke") as client,
        ):
            payload = client.sample(500, seed=3)
            check(
                payload["attributes"] == list(domain.names)
                and payload["arities"] == list(domain.arities)
                and len(payload["records"]) == 500,
                "HTTP sample returns 500 coded records with the schema",
                failures,
            )
            check(
                payload["records"] == client.sample(500, seed=3)["records"],
                "seeded HTTP samples are reproducible",
                failures,
            )
            decoded = client.sample(100, seed=4, decode=True)
            jobs = {row[1] for row in decoded["records"]}
            check(
                decoded["decoded"]
                and jobs <= {"none", "blue", "white", "self"},
                "decoded samples carry attribute labels",
                failures,
            )

    # record-level filter queries over the population
    by_code = records.count(married=1)
    total = sum(
        records.count(married=v) for v in range(2)
    )
    check(
        total == records.num_records,
        "filter counts partition the population",
        failures,
    )
    married = domain.index("married")
    true_frac = dataset.marginal((married,)).counts[1] / args.records
    check(
        abs(records.fraction(married=1) - true_frac) < 0.05,
        f"synthetic marriage rate {records.fraction(married=1):.3f} "
        f"tracks the true rate {true_frac:.3f}",
        failures,
    )
    del by_code

    sampler = RecordSampler(records, seed=0)
    batch = sampler.sample(10_000)
    check(
        batch.shape == (10_000, domain.num_attributes),
        "sampler draws 10k-record batches",
        failures,
    )

    if failures:
        print(f"\nsynth smoke FAILED ({len(failures)} mismatch(es))")
        return 1
    print("\nsynth smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
