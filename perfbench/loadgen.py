"""Open- and closed-loop load over ``repro.serve.QueryClient``.

Each sender thread owns one client, and so one connection at a time.
There are never more senders than CPUs.  Requests are numbered; the
caller's ``send(index, client)`` issues request ``index`` and returns
the decoded JSON payload.

Open loop: request ``i`` is due at ``start + i / rate`` whether or not
earlier requests have finished.  Its latency runs from when it was due,
so a stall also charges the wait it imposes on the requests behind it,
and its *send lag* (sent minus due) shows how late the generator ran.
Closed loop: each sender sends its next request as soon as the previous
one completes, which gives the peak completion rate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter, sleep

from common import NullRecorder


@dataclass
class Result:
    """One request as the generator saw it (times are perf_counter)."""

    index: int
    due: float
    sent: float
    done: float
    payload: dict | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


class LoadGenerator:
    """Runs numbered requests through ``senders`` threads.

    ``on_send(index)`` (optional) runs in the sender thread just before
    request ``index`` goes out; serve-cold uses it to trigger writes at
    fixed request counts.  With a ``SpanRecorder`` each request records
    a ``loadgen.request`` span (due to done) with children
    ``loadgen.queue_wait``, ``serve.client`` and, per answer,
    ``serve.protocol.decode``.
    """

    def __init__(self, make_client, send, senders: int, recorder=None,
                 on_send=None):
        self._make_client = make_client
        self._send = send
        self.senders = senders
        self.recorder = recorder or NullRecorder()
        self._traced = not isinstance(self.recorder, NullRecorder)
        self._on_send = on_send

    def _one(self, index: int, due: float, client) -> Result:
        if self._on_send is not None:
            self._on_send(index)
        sent = perf_counter()
        try:
            payload = self._send(index, client)
            error = None
        except Exception as exc:  # counted as a failed request
            payload, error = None, f"{type(exc).__name__}: {exc}"
        done = perf_counter()
        result = Result(index, due, sent, done, payload, error)
        if self._traced:
            self._trace(result, client)
        return result

    def _trace(self, result: Result, client) -> None:
        from repro.serve.protocol import decode_table

        trace = client.last_trace or {}
        request = trace.get("trace_id") or f"req-{result.index}"
        rec = self.recorder
        decodes = []
        if result.payload is not None:
            start = perf_counter()
            for answer in result.payload.get("answers", [result.payload]):
                decode_table(answer)
                end = perf_counter()
                decodes.append((start, end))
                start = end
        root = rec.add(
            "loadgen.request", result.due,
            decodes[-1][1] if decodes else result.done, request=request,
        )
        rec.add("loadgen.queue_wait", result.due, result.sent, root, request)
        rec.add("serve.client", result.sent, result.done, root, request)
        for start, end in decodes:
            rec.add("serve.protocol.decode", start, end, root, request)

    def _run(self, worker) -> None:
        threads = [
            threading.Thread(target=worker, args=(self._make_client(),),
                             name=f"perfbench-sender-{n}")
            for n in range(self.senders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def open_loop(self, first: int, count: int, rate: float) -> list[Result]:
        """Requests ``first .. first+count-1`` at ``rate`` per second."""
        results: list[Result | None] = [None] * count
        lock = threading.Lock()
        pending = iter(range(count))
        start = perf_counter() + 0.02

        def worker(client):
            while True:
                with lock:
                    n = next(pending, None)
                if n is None:
                    return
                due = start + n / rate
                wait = due - perf_counter()
                if wait > 0:
                    sleep(wait)
                results[n] = self._one(first + n, due, client)

        self._run(worker)
        return results

    def closed_loop(self, first: int, seconds: float, limit: int) -> list[Result]:
        """Back-to-back requests from ``first`` for ``seconds`` (at most
        ``limit`` of them)."""
        results: list[Result] = []
        lock = threading.Lock()
        pending = iter(range(first, first + limit))
        stop = perf_counter() + seconds

        def worker(client):
            while perf_counter() < stop:
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                now = perf_counter()
                result = self._one(index, now, client)
                with lock:
                    results.append(result)

        self._run(worker)
        results.sort(key=lambda r: r.index)
        return results


def send_lag_report(results: list[Result]) -> dict:
    """How late the open-loop generator ran, and whether it fell behind.

    The backlog grew when the lag over the last quarter of the run is
    well above the lag over the first quarter.
    """
    from common import quantile

    lags = [r.lag for r in results]
    quarter = max(1, len(lags) // 4)
    first = quantile(lags[:quarter], 0.5)
    last = quantile(lags[-quarter:], 0.5)
    grew = last > 0.050 and last > 4 * max(first, 0.001)
    return {
        "lag_p50_ms": 1e3 * quantile(lags, 0.5),
        "lag_p99_ms": 1e3 * quantile(lags, 0.99),
        "lag_first_quarter_p50_ms": 1e3 * first,
        "lag_last_quarter_p50_ms": 1e3 * last,
        "backlog_grew": bool(grew),
    }
