"""Shared plumbing: the checkout's sources, the environment record,
statistics, the span recorder and ``/metrics`` scraping.

Everything here is benchmark code; the program under test is imported
from ``<checkout>/src`` and is only called through its public API.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import threading

#: The checkout the benchmark runs from (its parent directory).
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, logs, traces and results (git-ignored).
WORK = ROOT / ".perfbench"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, bad args)."""


class InvalidRun(RuntimeError):
    """The load generator fell behind its own schedule."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"repro imported from {origin}, not from {SRC}")


def server_env() -> dict:
    """Environment for child interpreters running the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def cpu_count() -> int:
    """CPUs this process may run on (the sender/connection cap)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


#: Run by :class:`IdleSpinner`: the lowest scheduling class, and exit
#: as soon as the process that started it is gone.
_SPIN = """
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


class IdleSpinner:
    """Keeps this process's CPUs from halting while a load runs.

    A virtual machine without a polling idle driver halts an idle CPU,
    and a request arriving then waits until the hypervisor runs that
    CPU again: a wait that follows the load of other guests, not the
    program.  A busy loop in the ``SCHED_IDLE`` class runs only when
    nothing else on the CPU can, and any thread that wakes preempts it
    at once, so the CPU never halts (idle polling, from user space).
    """

    def __enter__(self) -> "IdleSpinner":
        self._process = subprocess.Popen(
            [sys.executable, "-c", _SPIN, str(os.getpid())]
        )
        return self

    def __exit__(self, *exc) -> None:
        self._process.kill()
        self._process.wait()


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's Python sources (identifies the code
    under test when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def cpu_times() -> list[int]:
    """The machine's cumulative CPU ticks (``/proc/stat``: user, nice,
    system, idle, iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def cpu_share(before: list[int], after: list[int]) -> dict:
    """Busy and stolen shares of the machine's CPU time between two
    :func:`cpu_times` readings (steal: time the hypervisor ran others)."""
    d = [b - a for a, b in zip(before, after)]
    elapsed = sum(d[:8]) or 1
    return {
        "busy": 1.0 - (d[3] + d[4]) / elapsed,
        "steal": d[7] / elapsed,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return quantile(values, 0.5)


def own_peak_rss_mb() -> float:
    """This process's peak resident set size (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's VmHWM from ``/proc``."""
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans recorded around calls into the program.

    Each span is ``(id, name, start, end, parent, request)``; spans of
    one request share ``request``.  Nothing is written until
    :meth:`write`, so recording costs one tuple append per span.
    """

    def __init__(self):
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def add(self, name, start, end, parent=None, request=None) -> int:
        with self._lock:
            span_id = next(self._ids)
            self._spans.append((span_id, name, start, end, parent, request))
        return span_id

    def spans(self) -> list[dict]:
        with self._lock:
            rows = list(self._spans)
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p,
             "request": r}
            for i, n, s, e, p, r in rows
        ]

    def durations(self, name: str) -> list[float]:
        with self._lock:
            return [e - s for _, n, s, e, _, _ in self._spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by the span's children."""
        with self._lock:
            rows = list(self._spans)
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in rows:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for span_id, name, start, end, _, _ in rows:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.spans():
                handle.write(json.dumps(row) + "\n")


class NullRecorder:
    """The recorder of an untraced run: records nothing."""

    def add(self, *args, **kwargs) -> None:
        return None


# ----------------------------------------------------------------------
# /metrics scraping
# ----------------------------------------------------------------------
def scrape(client) -> dict:
    """``GET /metrics`` as ``{(sample_name, labels): value}``."""
    from repro.obs import parse_prometheus

    out = {}
    for family in parse_prometheus(client.metrics()).values():
        for name, labels, value in family["samples"]:
            out[(name, tuple(sorted(labels.items())))] = value
    return out


def delta(before: dict, after: dict) -> dict:
    """Per-sample change between two scrapes (gauges included)."""
    return {
        key: value - before.get(key, 0.0) for key, value in after.items()
    }


def total(samples: dict, name: str, **labels) -> float:
    """Sum of the samples called ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(
        value for (sample, sample_labels), value in samples.items()
        if sample == name and want <= set(sample_labels)
    )


def mean_ms(samples: dict, family: str, **labels) -> float:
    """Histogram mean in ms from ``_sum``/``_count`` deltas (0 if empty)."""
    count = total(samples, f"{family}_count", **labels)
    if count <= 0:
        return 0.0
    return 1e3 * total(samples, f"{family}_sum", **labels) / count


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
