"""The serve node under test and the open-loop load generator that drives it.

One ``repro serve`` node runs in a subprocess. The load generator runs in
the calling process on a fixed schedule that does not slow when the server
slows: each request has a due time, at most ``connections`` requests are in
flight (one keep-alive connection each), and a request's latency is
measured from its due time, so a stall also charges the requests queued
behind it. How late each request was sent is reported as lag.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from common import ROOT, program_env


def post(connection: http.client.HTTPConnection, path: str, body: bytes) -> tuple[int, bytes]:
    """POST ``body`` as JSON on a kept-alive connection; return status and body."""
    connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def get_json(host: str, port: int, path: str) -> dict:
    """GET ``path`` on a fresh connection and decode the JSON answer."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(payload)
    finally:
        connection.close()


class ServeNode:
    """A ``repro serve`` subprocess on an ephemeral port (process executor)."""

    ARGS = ("--port", "0", "--executor", "process", "--n-jobs", "1")

    def __init__(self) -> None:
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, warmup_body: bytes, timeout: float = 60.0) -> float:
        """Start the node; return seconds until it is ready.

        Ready means ``/v1/healthz`` answers and one detect request has been
        served, so the lazily spawned worker pool is up.
        """
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *self.ARGS],
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = self.process.stdout.readline()
        if not banner.startswith("serving on http://"):
            raise RuntimeError(f"serve node did not start: {banner!r}")
        self.host, port = banner.split("http://", 1)[1].strip().rsplit(":", 1)
        self.port = int(port)
        deadline = started + timeout
        while True:
            try:
                get_json(self.host, self.port, "/v1/healthz")
                break
            except (OSError, RuntimeError):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)
        connection = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            status, _ = post(connection, "/v1/detect", warmup_body)
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"warm-up detect answered {status}")
        return time.perf_counter() - started

    @property
    def url(self) -> str:
        """Base URL of the running node."""
        return f"http://{self.host}:{self.port}"

    def warm(self, bodies: list[bytes], connections: int) -> None:
        """Send ``bodies`` over ``connections`` concurrent connections, so every
        pool worker has served a request before the schedule starts."""

        def send(share: list[bytes]) -> None:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
            try:
                for body in share:
                    post(connection, "/v1/detect", body)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=send, args=(bodies[i::connections],))
            for i in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def pids(self) -> list[int]:
        """The node and every process below it (its executor workers)."""
        if self.process is None:
            return []
        found = [self.process.pid]
        for pid in found:
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for task in tasks:
                try:
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        found.extend(int(child) for child in handle.read().split())
                except OSError:
                    pass
        return found

    def stop(self) -> None:
        """SIGTERM (graceful: the node reaps its pool), then make sure all ended."""
        if self.process is None:
            return
        pids = self.pids()
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        for pid in pids[1:]:
            _reap(pid)
        self.process = None


def _reap(pid: int) -> None:
    """Wait (bounded) for a grandchild to exit; kill it if it lingers."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Sent:
    """One scheduled request and what became of it."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""

    @property
    def latency_ms(self) -> float:
        """Milliseconds from when the request was due to its answer."""
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        """Milliseconds the request was sent after it was due."""
        return (self.sent - self.due) * 1000.0


@dataclass
class Phase:
    """One fixed-rate phase of the schedule and its requests."""

    rate: float
    requests: list[Sent] = field(default_factory=list)


def open_loop(
    host: str, port: int, rates, lengths, bodies: list[bytes], connections: int
) -> list[Phase]:
    """Send ``bodies`` on a fixed schedule: ``rates[p]`` per second in phase ``p``.

    Phases run back to back, ascending, phase ``p`` lasting ``lengths[p]``
    seconds; request ``i`` carries ``bodies[i]``. Returns once every request
    has completed.
    """
    phases: list[Phase] = []
    schedule: list[Sent] = []
    offset = 0.0
    for rate, length in zip(rates, lengths):
        phase = Phase(rate)
        for j in range(int(round(rate * length))):
            sent = Sent(len(schedule), offset + j / rate)
            phase.requests.append(sent)
            schedule.append(sent)
        phases.append(phase)
        offset += length
    if len(schedule) > len(bodies):
        raise ValueError(f"schedule needs {len(schedule)} bodies, got {len(bodies)}")
    cursor = iter(schedule)
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    for sent in schedule:
        sent.due += start

    def sender() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            while True:
                with lock:
                    sent = next(cursor, None)
                if sent is None:
                    return
                pause = sent.due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent.sent = time.perf_counter()
                try:
                    sent.status, sent.body = post(connection, "/v1/detect", bodies[sent.index])
                except (OSError, http.client.HTTPException):
                    sent.status = -1
                    connection.close()
                    connection = http.client.HTTPConnection(host, port, timeout=120)
                sent.done = time.perf_counter()
        finally:
            connection.close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phases
