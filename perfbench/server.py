"""The store server under test, run as ``python -m repro store serve``."""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import urllib.request
from time import perf_counter, sleep

from common import ROOT, SetupError, process_peak_rss_mb, server_env

_URL = re.compile(r"on (http://\S+)")


class StoreServer:
    """One server process over a prepared synopsis store.

    :meth:`start` spawns it on an ephemeral port and returns once it
    printed its URL; :meth:`stop` interrupts it (the CLI shuts down
    gracefully on SIGINT) and waits for it to exit.
    """

    def __init__(self, store_dir, log_path, watch: bool = False):
        self.store_dir = store_dir
        self.log_path = log_path
        self.watch = watch
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        self.spawned_at: float | None = None

    def start(self, timeout: float = 60.0) -> str:
        command = [
            sys.executable, "-m", "repro", "store", "serve",
            "--store", str(self.store_dir), "--port", "0",
        ]
        if self.watch:
            command.append("--watch")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.spawned_at = perf_counter()
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT,
            env=server_env(), cwd=ROOT,
        )
        deadline = self.spawned_at + timeout
        while perf_counter() < deadline:
            match = _URL.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                self.url = match.group(1)
                return self.url
            if self.process.poll() is not None:
                break
            sleep(0.002)
        self.stop()
        raise SetupError(
            f"server did not start: {self.log_path.read_text(encoding='utf-8')[-2000:]}"
        )

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def post_stats(self, dataset: str) -> dict:
        """One dataset engine's ``/stats`` (cache tallies live there).

        ``POST`` because ``GET /v1/d/{name}/stats`` answers 404.
        """
        request = urllib.request.Request(
            f"{self.url}/v1/d/{dataset}/stats", data=b"{}",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self._log.close()
        self.process = None
