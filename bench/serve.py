"""Child-process HTTP server for the ``http_*`` workloads.

``src/`` ships no server CLI, so this module is both halves of one:

* run as ``python -m bench.serve --snapshot FILE`` it is the child: it
  loads the snapshot into a ``TopologyServer``, fronts it with
  ``create_app`` + ``HttpServerThread`` on port 0 — every setting the
  shipped default — prints one JSON ready line (port, pid, load time)
  and serves until its stdin closes, then shuts down cleanly;
* imported, :class:`HttpChild` launches that child, waits for readiness
  (ready line, then ``GET /healthz``), and on ``stop`` collects the
  final ``GET /stats`` and the child's ``VmHWM`` before closing its
  stdin and waiting for it.

The child's stderr — where the slow-query log and any warning go — is
captured to ``bench/out/serve-<label>.stderr.log`` so it never mixes
with the metric output.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Tuple

from bench import OUT, ROOT
from bench.measure import peak_rss_mb

READY_TIMEOUT = 120.0
EXIT_TIMEOUT = 30.0


class HttpChild:
    """One server child process (``start``/``stop``, or ``with``)."""

    def __init__(self, snapshot: str, label: str) -> None:
        self.snapshot = snapshot
        self.label = label
        self.host = "127.0.0.1"
        self.port = 0
        self.pid = 0
        self.load_seconds = 0.0
        self.final_stats: Dict[str, Any] = {}
        self.peak_rss_mb = 0.0
        self._process: Optional[subprocess.Popen] = None
        self._stderr: Any = None

    def start(self) -> "HttpChild":
        os.makedirs(OUT, exist_ok=True)
        self._stderr = open(
            os.path.join(OUT, f"serve-{self.label}.stderr.log"), "ab"
        )
        self._process = subprocess.Popen(
            [sys.executable, "-m", "bench.serve", "--snapshot", self.snapshot],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        try:
            self._await_ready()
        except BaseException:
            self.close()
            raise
        return self

    def _await_ready(self) -> None:
        assert self._process is not None and self._process.stdout is not None
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited before it was ready "
                f"(see {self._stderr.name})"
            )
        ready = json.loads(line)
        self.port, self.pid = ready["port"], ready["pid"]
        self.load_seconds = ready["load_s"]
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server child never answered GET /healthz")
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        """A new keep-alive connection to the child."""
        return http.client.HTTPConnection(self.host, self.port, timeout=60.0)

    def get(self, path: str) -> Tuple[int, Any]:
        connection = self.connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def stop(self) -> None:
        """Collect the final ``GET /stats`` and ``VmHWM``, then shut the
        child down cleanly."""
        try:
            _, self.final_stats = self.get("/stats")
            self.peak_rss_mb = peak_rss_mb(self.pid)
        finally:
            self.close()

    def __enter__(self) -> "HttpChild":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        if exc[0] is None:
            self.stop()
        else:
            self.close()

    def close(self) -> None:
        """Shut the child down and wait until it has ended (idempotent)."""
        process, self._process = self._process, None
        if process is not None:
            if process.stdin is not None:
                process.stdin.close()  # the child's signal to shut down
            try:
                process.wait(timeout=EXIT_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None


def main() -> int:
    from repro.service import TopologyServer
    from repro.service.http import HttpServerThread, create_app

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--snapshot", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    server = TopologyServer.from_snapshot(args.snapshot)
    load_seconds = time.perf_counter() - start
    with server, create_app(server) as app, HttpServerThread(app) as base_url:
        port = int(base_url.rsplit(":", 1)[1])
        ready = {"port": port, "pid": os.getpid(), "load_s": load_seconds}
        sys.stdout.write(json.dumps(ready) + "\n")
        sys.stdout.flush()
        sys.stdin.buffer.read()  # serve until the parent closes our stdin
    return 0


if __name__ == "__main__":
    sys.exit(main())
