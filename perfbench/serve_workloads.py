"""serve-hot and serve-cold: the store server over loopback HTTP.

Each run prepares a synopsis store, starts ``python -m repro store
serve`` over it (several times, to time set-up), then loads it from
this process through ``QueryClient``:

1. warm-up, closed loop (fills the answer cache; not reported);
2. open loop at the workload's fixed rate: ``latency_p50_ms`` and
   ``latency_p99_ms`` of single requests, timed from when each was due;
3. closed loop with one connection per usable CPU: ``throughput_per_s``.

The server and the load share one CPU from the first server start on,
and that CPU does not halt while the load runs (see README.md).

A traced run measures phases 2 and 3 twice at half length, untraced
then traced, and reports per-layer metrics from the traced half plus
the tracing overhead between the halves.
"""

from __future__ import annotations

import gc
import json
import os
import queue
import shutil
import threading
from dataclasses import dataclass
from time import perf_counter

from repro.categorical.priview import CategoricalPriView
from repro.core.priview import PriView
from repro.kernels import as_packed
from repro.serve import QueryClient, QueryEngine
from repro.serve.protocol import encode_answer
from repro.store import SynopsisStore

import checks
import inputs
from common import (
    WORK,
    IdleSpinner,
    InvalidRun,
    SpanRecorder,
    cpu_count,
    delta,
    mean_ms,
    median,
    quantile,
    ratio,
    scrape,
    total,
)
from inputs import Op
from loadgen import LoadGenerator, send_lag_report
from server import StoreServer

#: Offered rates (requests/s), fixed so later changes are measured
#: under the same load.  On a 2-CPU virtual machine, when this
#: benchmark was added, the closed loop peaked at 640-700/s on
#: serve-hot and 200-240/s on serve-cold.  50/s is the lowest rate at
#: which 30 s give serve-cold's open loop ``min_open`` requests.
HOT_RATE = 250.0
COLD_RATE = 50.0
#: The served synopses come from fixed data and fixed noise
#: (``inputs.DATA_SEED``): how often maxent hits its sweep cap is a
#: property of the synopsis and sets the serve-cold tail.
SYNOPSIS_SEED = inputs.DATA_SEED
#: A failed request counts as missing every latency limit.
FAILED_LATENCY_MS = 60_000.0
#: Share of each measured half spent in the open loop; the closed loop
#: gets the rest.  At the declared ``run_seconds`` (30) serve-cold's
#: open loop then holds at least ``min_open`` requests, so the run
#: lasts as long as asked.
OPEN_SHARE = {"serve-hot": 0.5, "serve-cold": 0.75}
#: Consecutive slices of the open loop whose p50 and p90 are medianed.
SEGMENTS = 10
#: Closed-loop completions are counted per slice of this many seconds.
SLICE_S = 0.5
#: How long after its successor's publish returned an old binary
#: version may still answer: the server swaps on the next request, and
#: requests already leased to the old engine finish on it.
SWAP_SLACK_S = 0.5


@dataclass(frozen=True)
class ServeSize:
    records: int          # binary synopsis input records
    cat_records: int      # categorical synopsis input records
    hot_keys: int         # serve-hot key set (4x the default cache)
    warmup_s: float
    min_open: int         # open-loop requests at least (p99 support)
    spawns: int           # server starts timed for setup_s
    versions: int         # serve-cold binary versions (1 + writes)
    publish_every: int    # serve-cold: one write every this many requests
    exact_every: int      # exact reference check on every n-th request
    max_rate: float       # bound on closed-loop requests/s, for pre-drawing


FULL = {
    "serve-hot": ServeSize(1_000_000, 0, 4096, 3.0, 1112, 3, 1, 0, 4, 3000.0),
    "serve-cold": ServeSize(1_000_000, 100_000, 0, 1.0, 1112, 3, 9, 400, 4, 320.0),
}
TINY = {
    "serve-hot": ServeSize(200_000, 0, 256, 0.3, 40, 2, 1, 0, 2, 3000.0),
    "serve-cold": ServeSize(200_000, 5_000, 0, 0.3, 40, 2, 3, 30, 2, 320.0),
}


def send(client, op: Op) -> dict:
    if op.is_batch:
        return client.batch(op.queries, method=op.method, dataset=op.dataset)
    return client.marginal(op.queries[0], method=op.method, dataset=op.dataset)


class Writer:
    """Publishes pre-fitted binary versions at fixed request counts,
    from its own thread, beside the reads."""

    def __init__(self, store, synopses, every: int, recorder):
        self.store = store
        self.pending = list(synopses)
        self.every = every
        self.recorder = recorder
        self.log: list[tuple[float, float, int, int]] = []
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, name="perfbench-writer")
        self._thread.start()

    def on_send(self, index: int) -> None:
        if index and index % self.every == 0:
            self._queue.put(index)

    def _run(self) -> None:
        while (index := self._queue.get()) is not None:
            if not self.pending:
                continue
            start = perf_counter()
            info = self.store.publish("bin", self.pending.pop(0))
            end = perf_counter()
            self.recorder.add("store.publish", start, end, request=f"write-{index}")
            self.log.append((start, end, info.version, info.size_bytes))

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join()

    def versions_during(self, sent: float, done: float) -> list[int]:
        """Binary versions that may have answered a request in flight
        over ``[sent, done]``."""
        starts = [-float("inf")] + [s for s, _, _, _ in self.log]
        versions = [1] + [v for _, _, v, _ in self.log]
        retired = [e + SWAP_SLACK_S for _, e, _, _ in self.log] + [float("inf")]
        return [
            v for v, start, end in zip(versions, starts, retired)
            if start <= done and end >= sent
        ]


def open_metrics(results, ops) -> dict:
    """Latency of the open-loop phase: singles, and batches apart.

    p50 and p90 are medians over SEGMENTS consecutive slices of the
    phase, so a burst of CPU steal on the virtual machine moves one
    slice, not the result; p99 is over the whole phase.
    """
    singles = [r for r in results if not ops[r.index].is_batch]
    lat = [1e3 * r.latency if r.ok else FAILED_LATENCY_MS for r in singles]
    parts = min(SEGMENTS, len(lat))
    slices = [
        lat[len(lat) * k // parts: len(lat) * (k + 1) // parts]
        for k in range(parts)
    ]
    out = {
        "latency_p50_ms": median([quantile(x, 0.5) for x in slices]),
        "latency_p90_ms": median([quantile(x, 0.9) for x in slices]),
        "latency_p99_ms": quantile(lat, 0.99),
        "latency_samples": len(lat),
    }
    batches = [r for r in results if ops[r.index].is_batch]
    if batches:
        out["batch_p50_ms"] = quantile(
            [1e3 * r.latency if r.ok else FAILED_LATENCY_MS for r in batches], 0.5
        )
        out["batch_samples"] = len(batches)
    return out


def throughput(results) -> float:
    """Successful closed-loop completions per second: the median over
    the loop's slices of SLICE_S seconds, so a short stall of the
    machine moves one slice's count, not the result."""
    start = min(r.sent for r in results)
    span = max(r.done for r in results) - start
    slices = int(span / SLICE_S)
    if slices < 3:
        return sum(r.ok for r in results) / span
    counts = [0] * slices
    for r in results:
        k = int((r.done - start) / SLICE_S)
        if r.ok and k < slices:
            counts[k] += 1
    return median(counts) / SLICE_S


def encode_probe(synopsis, queries, method: str) -> tuple[float, float]:
    """Mean ms and bytes of ``encode_answer`` + JSON per answer, from an
    in-process engine over the served synopsis."""
    with QueryEngine(synopsis, workers=1) as engine:
        answers = [engine.answer(q, method=method) for q in queries]
    times, sizes = [], []
    for answer in answers:
        start = perf_counter()
        body = json.dumps(encode_answer(answer)).encode("utf-8")
        times.append(perf_counter() - start)
        sizes.append(len(body))
    return 1e3 * sum(times) / len(times), sum(sizes) / len(sizes)


class ServeRun:
    """One run of serve-hot or serve-cold."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, size: ServeSize):
        self.workload = workload
        self.cold = workload == "serve-cold"
        self.seed = seed
        self.size = size
        self.traced = traced
        self.work = WORK / f"{workload}-seed{seed}"
        self.rate = COLD_RATE if self.cold else HOT_RATE
        self.senders = cpu_count()
        self.halves = [False, True] if traced else [False]
        # Each half gets its share of the seconds.  The reported
        # (untraced) open loop holds at least ``min_open`` requests, so
        # a run asked for fewer seconds than that takes longer; the
        # halves of a traced run only compare with each other.
        half_s = seconds / len(self.halves)
        open_s = OPEN_SHARE[workload] * half_s
        self.n_open = max(1, round(self.rate * open_s))
        if not traced:
            self.n_open = max(size.min_open, self.n_open)
        self.closed_s = max(half_s - self.n_open / self.rate, (1 - OPEN_SHARE[workload]) * half_s)
        self.warm_limit = round(size.max_rate * size.warmup_s) + 1
        self.closed_limit = round(size.max_rate * self.closed_s) + 1
        self.recorder = SpanRecorder()

    # -- inputs ---------------------------------------------------------
    def prepare(self) -> None:
        seed, size = self.seed, self.size
        design = inputs.binary_design()
        data = as_packed(
            inputs.binary_dataset(inputs.rng_for(SYNOPSIS_SEED, 1), size.records)
        )
        self.synopses = [
            PriView(1.0, design=design, seed=SYNOPSIS_SEED + v, packed=True).fit(data)
            for v in range(size.versions)
        ]
        self.store = SynopsisStore(self.work / "store")
        self.store.publish("bin", self.synopses[0])
        self.arities = {"bin": (2,) * inputs.BINARY_D}
        if self.cold:
            cat = inputs.categorical_dataset(
                inputs.rng_for(SYNOPSIS_SEED, 5), size.cat_records, inputs.COLD_ARITIES
            )
            self.store.publish("cat", CategoricalPriView(1.0, seed=SYNOPSIS_SEED).fit(cat))
            self.arities["cat"] = inputs.COLD_ARITIES
        count = self.warm_limit + len(self.halves) * (self.n_open + self.closed_limit)
        if self.cold:
            stream = inputs.ColdStream(inputs.rng_for(seed, 3), design)
            self.setup_ops = stream.setup_ops()
            self.ops = stream.ops(count)
        else:
            keys = inputs.hot_keys(inputs.rng_for(seed, 2), design, size.hot_keys)
            self.setup_ops = [Op("hot", "bin", "residual", (keys.setup_key(),))]
            self.ops = [
                Op("hot", "bin", "residual", (keys.keys[k],))
                for k in keys.stream(inputs.rng_for(seed, 3), count)
            ]
        self.issued: dict = {}
        for op_id, op in enumerate(self.setup_ops + self.ops):
            for position, attrs in enumerate(op.queries):
                self.issued.setdefault(
                    (op.dataset, op.method, attrs), (op_id, op, position)
                )

    # -- set-up ---------------------------------------------------------
    def start_server(self) -> StoreServer:
        """Spawn the server ``spawns`` times, timing each from spawn
        until every hosted dataset answered once; keep the last."""
        self.setup_times = []
        for spawn in range(self.size.spawns):
            server = StoreServer(
                self.work / "store", self.work / f"server-{spawn}.log",
                watch=self.cold,
            )
            try:
                server.start()
                client = QueryClient(server.url, timeout=60)
                self.setup_payloads = [send(client, op) for op in self.setup_ops]
                self.setup_times.append(perf_counter() - server.spawned_at)
            except BaseException:
                server.stop()
                raise
            if spawn == self.size.spawns - 1:
                return server
            server.stop()
        raise AssertionError("unreachable")

    # -- load -----------------------------------------------------------
    def load(self, server: StoreServer) -> None:
        writer = None
        if self.cold:
            writer = Writer(
                SynopsisStore(self.work / "store", create=False),
                self.synopses[1:], self.size.publish_every, self.recorder,
            )
        self.writer = writer

        def generator(tracing: bool) -> LoadGenerator:
            return LoadGenerator(
                lambda: QueryClient(server.url, timeout=60, trace=tracing),
                lambda index, client: send(client, self.ops[index]),
                self.senders,
                recorder=self.recorder if tracing else None,
                on_send=writer.on_send if writer else None,
            )

        client = QueryClient(server.url, timeout=60)
        datasets = sorted(self.arities)
        # The generator's own garbage collections would stall senders
        # for tens of ms with this many live objects; collect once now
        # and not again until the load is over.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            self.warm = generator(False).closed_loop(0, self.size.warmup_s, self.warm_limit)
            cursor = len(self.warm)
            self.halves_run = []
            for tracing in self.halves:
                gen = generator(tracing)
                scrapes = [scrape(client)]
                stats = [{d: server.post_stats(d) for d in datasets}]
                opened = gen.open_loop(cursor, self.n_open, self.rate)
                cursor += self.n_open
                scrapes.append(scrape(client))
                stats.append({d: server.post_stats(d) for d in datasets})
                closed = gen.closed_loop(cursor, self.closed_s, self.closed_limit)
                cursor += len(closed)
                scrapes.append(scrape(client))
                self.halves_run.append({
                    "open": opened, "closed": closed,
                    "scrapes": scrapes, "stats": stats,
                })
            self.peak_rss = server.peak_rss_mb()
        finally:
            gc.enable()
            gc.unfreeze()
            if writer is not None:
                writer.close()

    # -- correctness ----------------------------------------------------
    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every request sent."""
        reference = checks.Reference(self.store, self.issued)
        sent = [(None, op, p) for op, p in zip(self.setup_ops, self.setup_payloads)]
        for result in self.warm + [
            r for half in self.halves_run for r in half["open"] + half["closed"]
        ]:
            sent.append((result, self.ops[result.index], result.payload))
        problems = []
        self.negative_covered = {"answers": 0, "cells": 0, "min": 0.0}
        try:
            for result, op, payload in sent:
                problem = self._problem(reference, result, op, payload)
                if problem:
                    problems.append(f"{op.dataset} {op.method} {op.queries[0]}: {problem}")
        finally:
            reference.close()
        return len(sent), len(problems), problems

    def _tally_negative(self, answer) -> None:
        cells, lowest = checks.negative_cells(answer)
        if cells:
            tally = self.negative_covered
            tally["answers"] += 1
            tally["cells"] += cells
            tally["min"] = min(tally["min"], lowest)

    def _problem(self, reference, result, op, payload) -> str | None:
        if result is not None and not result.ok:
            return result.error
        if self.writer is not None and result is not None and op.dataset == "bin":
            versions = self.writer.versions_during(result.sent, result.done)
        else:
            versions = [1]
        totals = [reference.total(op.dataset, v) for v in versions]
        answers = payload["answers"] if op.is_batch else [payload]
        if len(answers) != len(op.queries):
            return f"{len(answers)} answers for {len(op.queries)} queries"
        exact = result is None or result.index % self.size.exact_every == 0
        for attrs, answer in zip(op.queries, answers):
            covered = reference.synopsis(op.dataset, versions[0]).is_covered(attrs)
            problem = checks.answer_problem(
                answer, attrs, op.method, self.arities[op.dataset], totals, covered
            )
            if problem:
                return problem
            if covered:
                self._tally_negative(answer)
            if exact and not reference.matches(answer, op, versions):
                return f"differs from the in-process engine ({answer['path']} path)"
        return None

    # -- metrics --------------------------------------------------------
    def e2e(self, half: dict) -> dict:
        out = open_metrics(half["open"], self.ops)
        out["throughput_per_s"] = throughput(half["closed"])
        return out

    def layers(self) -> dict:
        """Per-layer metrics of the traced half (open-loop deltas unless
        the metric covers the whole run)."""
        half = self.halves_run[-1]
        before, after_open, after = half["scrapes"]
        opened = half["open"]
        d = delta(before, after_open)
        whole = delta(before, after)
        untraced, traced = self.e2e(self.halves_run[0]), self.e2e(half)
        first_due = min(r.due for r in opened)
        last_done = max(r.done for r in opened)
        client_ms = [
            1e3 * (s["end"] - s["start"]) for s in self.recorder.spans()
            if s["name"] == "serve.client" and first_due <= s["start"] <= last_done
        ]
        decode_ms = [1e3 * x for x in self.recorder.durations("serve.protocol.decode")]
        requests = total(d, "serve_request_seconds_count")
        engine_ms_per_http = 1e3 * total(d, "serve_request_seconds_sum") / len(opened)
        paths = {
            p: total(d, "serve_path_requests_total", path=p)
            for p in ("covered", "derived", "solved")
        }
        hits = total(d, "serve_cache_hit_total")
        misses = total(d, "serve_cache_miss_total")
        stats0, stats1 = half["stats"]
        cache = {
            field: sum(
                max(0, stats1[name]["cache"][field] - stats0[name]["cache"][field])
                for name in stats0
            )
            for field in ("evictions", "coalesced")
        }
        maxent = [
            r.payload["meta"]["maxent"] for r in opened
            if r.ok and not self.ops[r.index].is_batch
            and r.payload.get("path") == "solved"
            and "maxent" in (r.payload.get("meta") or {})
        ]
        probe = [op.queries[0] for op in self.ops[:400]
                 if op.dataset == "bin" and not op.is_batch][:200]
        encode_ms, response_bytes = encode_probe(self.synopses[0], probe, "residual")
        layers = {
            "client.request_ms": median(client_ms),
            "client.decode_ms": sum(decode_ms) / len(decode_ms),
            "server.overhead_ms": sum(client_ms) / len(client_ms) - engine_ms_per_http,
            "protocol.encode_ms": encode_ms,
            "protocol.response_bytes": response_bytes,
            "engine.request_ms.covered": mean_ms(d, "serve_request_seconds", path="covered"),
            "engine.request_ms.derived": mean_ms(d, "serve_request_seconds", path="derived"),
            "engine.request_ms.solved": mean_ms(d, "serve_request_seconds", path="solved"),
            "cache.hit_ratio": ratio(hits, hits + misses),
            "cache.evictions": cache["evictions"],
            "cache.coalesced": cache["coalesced"],
            "planner.share.covered": ratio(paths["covered"], requests),
            "planner.share.derived": ratio(paths["derived"], requests),
            "planner.share.solved": ratio(paths["solved"], requests),
            "solve.residual_ms": mean_ms(d, "serve_solve_seconds", method="residual", mode="single"),
            "solve.maxent_ms": mean_ms(d, "serve_solve_seconds", method="maxent", mode="single"),
            "solve.mixed_ms": mean_ms(d, "serve_request_seconds", dataset="cat", path="solved"),
            "maxent.sweeps_per_call": ratio(
                total(d, "maxent_sweeps_total"), total(d, "maxent_calls_total")
            ),
            "maxent.unconverged_ratio": ratio(
                sum(not m["converged"] for m in maxent), len(maxent)
            ),
            "solve.fallbacks": total(whole, "serve_solve_fallback_total"),
            "solve.batched": total(whole, "serve_solve_batched_total"),
            "router.builds": total(whole, "serve_router_build_total")
            + total(whole, "serve_router_swap_total"),
            "store.load_ms": mean_ms(after, "store_load_seconds"),
            "client.batch_p50_ms": traced.get("batch_p50_ms", 0.0),
            "trace.overhead.latency_p50": traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1.0,
            "trace.overhead.throughput": traced["throughput_per_s"] / untraced["throughput_per_s"] - 1.0,
        }
        if self.writer is not None and self.writer.log:
            layers["store.publish_ms"] = 1e3 * median([e - s for s, e, _, _ in self.writer.log])
            layers["store.version_bytes"] = median([b for _, _, _, b in self.writer.log])
        return layers


def run(workload: str, seed: int, seconds: float, traced: bool, size: ServeSize) -> dict:
    job = ServeRun(workload, seed, seconds, traced, size)
    shutil.rmtree(job.work, ignore_errors=True)
    job.work.mkdir(parents=True)
    try:
        job.prepare()
        # The server (which inherits the affinity), this process and its
        # senders share one CPU: with both vCPUs of a 2-vCPU virtual
        # machine busy, the hypervisor took 7-30% of the CPU time and
        # the closed-loop rate followed it (see README.md).
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            server = job.start_server()
            try:
                with IdleSpinner():
                    job.load(server)
            finally:
                server.stop()
        finally:
            os.sched_setaffinity(0, allowed)
        lags = [send_lag_report(half["open"]) for half in job.halves_run]
        for lag in lags:
            if lag["backlog_grew"]:
                raise InvalidRun(f"{workload}: the generator fell behind its schedule: {lag}")
        lag = lags[0]
        attempted, failed, problems = job.check()
        e2e = job.e2e(job.halves_run[0])
        e2e["setup_s"] = median(job.setup_times)
        e2e["peak_rss_mb"] = job.peak_rss
        summary = {
            **e2e,
            "error_rate": failed / attempted,
            "setup_s_samples": job.setup_times,
            "offered_rate_per_s": job.rate,
            "senders": job.senders,
            "cpus_used": 1,
            "open_requests": len(job.halves_run[0]["open"]),
            "closed_requests": len(job.halves_run[0]["closed"]),
            "send_lag": lag,
            "covered_answers_with_negative_cells": job.negative_covered,
        }
        if job.writer is not None:
            summary["writes"] = len(job.writer.log)
        out = {"e2e": e2e, "summary": summary, "attempted": attempted,
               "failed": failed, "problems": problems}
        if traced:
            out["layers"] = job.layers()
            out["recorder"] = job.recorder
        return out
    finally:
        shutil.rmtree(job.work, ignore_errors=True)
