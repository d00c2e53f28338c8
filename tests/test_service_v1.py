"""End-to-end coverage of the versioned ``/v1`` service API.

Three layers:

- **HTTP surface** (subprocess ``python -m repro serve``): every ``/v1``
  route, the legacy aliases' ``Deprecation`` header, the uniform error
  envelope (``code``/``message``/``retry_after``), structured 410 for
  closed sessions, and the ``Retry-After`` header on retryable rejections.
- **Durability over the wire**: checkpoint → close → restore round trips
  through :class:`repro.service.ServiceClient`, and a real crash — SIGKILL
  the node, start a fresh one on the same snapshot directory, restore, and
  the resumed session's detections are bitwise identical to a session that
  never died.
- **In-process manager semantics** (``asyncio.run``, no HTTP): the
  reaper/in-flight-request race regression, eviction and shutdown
  checkpointing, auto-checkpoint intervals, stale-snapshot hygiene on
  create, and the restore error taxonomy.

``tests/test_service_http.py`` keeps covering the legacy routes unchanged;
this module is the ``/v1`` counterpart.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.service import (
    BadRequest,
    ServiceClient,
    ServiceClientError,
    SessionExists,
    SessionGone,
    SessionNotFound,
    StreamSessionManager,
)
from repro.service.snapshot import LocalSnapshotStore

CONFIG = dict(window=50, ensemble_size=5, max_paa_size=5, max_alphabet_size=5)

BANNER = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")


def make_series(seed: int, n: int = 700) -> list[float]:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 14.0 * np.pi, n)
    series = np.sin(t) + 0.05 * rng.standard_normal(n)
    series[n // 2 : n // 2 + 60] *= 0.2
    return [float(v) for v in series]


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Subprocess harness.
# ----------------------------------------------------------------------


def start_server(*extra_args: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise RuntimeError("server exited before binding")
        match = BANNER.search(line or "")
        if match:
            return process, int(match.group(1))
    process.kill()
    raise RuntimeError("server did not start within 60s")


def stop_server(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


def request(
    port: int, method: str, path: str, body: dict | None = None, timeout: float = 60.0
) -> tuple[int, dict, dict]:
    """One HTTP request; returns (status, decoded JSON, headers)."""
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    snapshots = tmp_path_factory.mktemp("snapshots")
    process, port = start_server("--snapshot-dir", str(snapshots), "--node-id", "n0")
    yield port
    stop_server(process)


# ----------------------------------------------------------------------
# The /v1 surface and its legacy aliases.
# ----------------------------------------------------------------------


class TestV1Surface:
    def test_canonical_routes_carry_no_deprecation_header(self, server):
        for path in ("/v1/healthz", "/v1/stats", "/v1/sessions", "/v1/nodes"):
            status, _, headers = request(server, "GET", path)
            assert status == 200
            assert "Deprecation" not in headers, path

    def test_legacy_aliases_work_but_are_marked_deprecated(self, server):
        for old, new in (
            ("/healthz", "/v1/healthz"),
            ("/stats", "/v1/stats"),
            ("/sessions", "/v1/sessions"),
        ):
            old_status, old_body, old_headers = request(server, "GET", old)
            new_status, new_body, _ = request(server, "GET", new)
            assert old_status == new_status == 200
            assert old_headers.get("Deprecation") == "true"
            assert set(old_body) == set(new_body)

    def test_legacy_detect_alias(self, server):
        payload = {"series": make_series(0, 300), "k": 2, "seed": 1, **CONFIG}
        old_status, old_body, old_headers = request(server, "POST", "/detect", payload)
        new_status, new_body, new_headers = request(server, "POST", "/v1/detect", payload)
        assert old_status == new_status == 200
        assert old_headers.get("Deprecation") == "true"
        assert "Deprecation" not in new_headers
        assert old_body["anomalies"] == new_body["anomalies"]

    def test_nodes_reports_this_node(self, server):
        _, body, _ = request(server, "GET", "/v1/nodes")
        (node,) = body["nodes"]
        assert node["node"] == "n0"
        assert node["role"] == "serve"
        assert node["alive"] is True
        assert isinstance(node["sessions"], int)

    def test_stats_names_the_node(self, server):
        _, body, _ = request(server, "GET", "/v1/stats")
        assert body["node"] == "n0"
        assert "snapshots_written" in body["sessions"]

    def test_error_envelope_is_uniform(self, server):
        status, body, _ = request(server, "POST", "/v1/detect", {"series": "nope"})
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert isinstance(body["error"]["message"], str)
        assert "retry_after" not in body["error"]

    def test_unknown_route_404(self, server):
        status, body, _ = request(server, "GET", "/v1/wibble")
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_unknown_session_is_404_not_410(self, server):
        status, body, _ = request(server, "GET", "/v1/sessions/never.existed")
        assert status == 404
        assert body["error"]["code"] == "session-not-found"


class TestSessionLifecycleOverHTTP:
    def test_closed_session_is_a_structured_410(self, server):
        client = ServiceClient(f"http://127.0.0.1:{server}")
        client.create_session("t.gone", seed=2, **CONFIG)
        client.append("t.gone", make_series(2, 200))
        client.close_session("t.gone")
        with pytest.raises(ServiceClientError) as excinfo:
            client.anomalies("t.gone")
        assert excinfo.value.status == 410
        assert excinfo.value.code == "session-gone"
        # Appending to it is the same structured 410, not a generic error.
        with pytest.raises(ServiceClientError) as excinfo:
            client.append("t.gone", [0.0, 1.0])
        assert excinfo.value.status == 410
        # The raw envelope agrees with the typed client.
        status, body, _ = request(server, "GET", "/v1/sessions/t.gone")
        assert status == 410 and body["error"]["code"] == "session-gone"

    def test_checkpoint_close_restore_round_trip(self, server):
        client = ServiceClient(f"http://127.0.0.1:{server}")
        feed = make_series(7)
        client.create_session("t.durable", seed=7, **CONFIG)
        client.append("t.durable", feed)
        reference = client.anomalies("t.durable", k=3)["anomalies"]

        checkpoint = client.snapshot("t.durable")
        assert checkpoint["snapshotted_length"] == len(feed)
        client.close_session("t.durable", keep_snapshots=True)
        restored = client.restore("t.durable")
        assert restored["restored_from"] == checkpoint["snapshot_seq"]
        assert restored["length"] == len(feed)
        assert client.anomalies("t.durable", k=3)["anomalies"] == reference
        client.close_session("t.durable")

    def test_close_without_keep_drops_the_checkpoints(self, server):
        client = ServiceClient(f"http://127.0.0.1:{server}")
        client.create_session("t.dropped", seed=3, **CONFIG)
        client.append("t.dropped", make_series(3, 300))
        client.snapshot("t.dropped")
        client.close_session("t.dropped")  # default: snapshots go too
        with pytest.raises(ServiceClientError) as excinfo:
            client.restore("t.dropped")
        assert excinfo.value.status == 404

    def test_session_info_exposes_snapshot_fields(self, server):
        client = ServiceClient(f"http://127.0.0.1:{server}")
        client.create_session("t.info", seed=4, **CONFIG)
        try:
            info = client.session("t.info")
            assert info["snapshot_seq"] == 0
            assert info["snapshotted_length"] == 0
            assert info["config"]["window"] == CONFIG["window"]
            client.append("t.info", make_series(4, 200))
            client.snapshot("t.info")
            info = client.session("t.info")
            assert info["snapshot_seq"] == 1
            assert info["snapshotted_length"] == 200
        finally:
            client.close_session("t.info")


class TestRetryAfter:
    def test_retryable_rejections_carry_the_header(self):
        process, port = start_server("--max-sessions", "1")
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            client.create_session("t.only", **CONFIG)
            status, body, headers = request(
                port, "POST", "/v1/sessions", {"name": "t.more", **CONFIG}
            )
            assert status == 429
            assert body["error"]["code"] == "overloaded"
            assert body["error"]["retry_after"] == pytest.approx(0.05)
            assert headers.get("Retry-After") == "1"  # ceil'd to whole seconds
            # The typed client surfaces the same hint.
            with pytest.raises(ServiceClientError) as excinfo:
                client.create_session("t.more", **CONFIG)
            assert excinfo.value.retry_after == pytest.approx(0.05)
        finally:
            stop_server(process)


class TestCrashRecovery:
    def test_sigkill_then_restore_on_fresh_node_is_bitwise_identical(self, tmp_path):
        feed = make_series(11, 900)
        store_dir = str(tmp_path / "snapshots")

        victim, victim_port = start_server(
            "--snapshot-dir", store_dir, "--node-id", "doomed"
        )
        client = ServiceClient(f"http://127.0.0.1:{victim_port}")
        client.create_session("t.crash", seed=11, **CONFIG)
        client.append("t.crash", feed[:600])
        client.snapshot("t.crash")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

        survivor, port = start_server(
            "--snapshot-dir", store_dir, "--node-id", "survivor"
        )
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            restored = client.restore("t.crash")
            assert restored["length"] == 600
            client.append("t.crash", feed[600:])
            resumed = client.anomalies("t.crash", k=4)["anomalies"]

            # A same-configured session that never crashed, on the same node.
            client.create_session("t.witness", seed=11, **CONFIG)
            client.append("t.witness", feed)
            uninterrupted = client.anomalies("t.witness", k=4)["anomalies"]
            assert resumed == uninterrupted
        finally:
            stop_server(survivor)


# ----------------------------------------------------------------------
# In-process manager semantics.
# ----------------------------------------------------------------------


class TestManagerCheckpointing:
    def test_auto_checkpoint_interval(self, tmp_path):
        async def scenario():
            store = LocalSnapshotStore(tmp_path)
            manager = StreamSessionManager(snapshot_store=store, snapshot_interval=200)
            await manager.create("t.auto", **CONFIG)
            first = await manager.append("t.auto", make_series(0, 150))
            assert first["snapshotted_length"] == 0  # below the interval
            second = await manager.append("t.auto", make_series(1, 150))
            assert second["snapshotted_length"] == 300
            assert manager.snapshots_written == 1
            assert store.seqs("t.auto") == [1]
            await manager.aclose()

        run(scenario())

    def test_graceful_shutdown_checkpoints_unsaved_data(self, tmp_path):
        feed = make_series(5)

        async def first_life():
            store = LocalSnapshotStore(tmp_path)
            manager = StreamSessionManager(snapshot_store=store)
            await manager.create("t.shutdown", seed=5, **CONFIG)
            await manager.append("t.shutdown", feed)
            reference = (await manager.poll("t.shutdown", k=3))["anomalies"]
            await manager.aclose()  # checkpoints, keeps the snapshot
            return reference

        async def second_life():
            store = LocalSnapshotStore(tmp_path)
            manager = StreamSessionManager(snapshot_store=store)
            info = await manager.restore("t.shutdown")
            assert info["length"] == len(feed)
            resumed = (await manager.poll("t.shutdown", k=3))["anomalies"]
            await manager.aclose()
            return resumed

        reference = run(first_life())
        assert run(second_life()) == reference

    def test_eviction_checkpoints_and_is_recoverable(self, tmp_path):
        async def scenario():
            store = LocalSnapshotStore(tmp_path)
            manager = StreamSessionManager(idle_timeout=5.0, snapshot_store=store)
            await manager.create("t.idle", seed=6, **CONFIG)
            await manager.append("t.idle", make_series(6, 400))
            reference = (await manager.poll("t.idle", k=3))["anomalies"]

            session = manager._sessions["t.idle"]
            session.last_used = asyncio.get_running_loop().time() - 60
            assert await manager.evict_idle() == ["t.idle"]
            with pytest.raises(SessionGone) as excinfo:
                await manager.poll("t.idle")
            assert excinfo.value.status == 410
            assert "evicted" in str(excinfo.value)

            # The eviction wrote a checkpoint, so the session is recoverable.
            info = await manager.restore("t.idle")
            assert info["length"] == 400
            assert (await manager.poll("t.idle", k=3))["anomalies"] == reference
            await manager.aclose()

        run(scenario())

    def test_create_clears_stale_snapshots(self, tmp_path):
        async def scenario():
            store = LocalSnapshotStore(tmp_path)
            manager = StreamSessionManager(snapshot_store=store)
            await manager.create("t.fresh", **CONFIG)
            await manager.append("t.fresh", make_series(0, 300))
            await manager.snapshot("t.fresh")
            await manager.close("t.fresh", drop_snapshots=False)
            assert store.latest("t.fresh") is not None
            # A new create means a fresh stream — the stale checkpoint from
            # the previous incarnation must not shadow it.
            await manager.create("t.fresh", **CONFIG)
            assert store.latest("t.fresh") is None
            await manager.aclose()

        run(scenario())


class TestManagerErrors:
    def test_restore_errors(self, tmp_path):
        async def scenario():
            store = LocalSnapshotStore(tmp_path)
            manager = StreamSessionManager(snapshot_store=store)
            with pytest.raises(SessionNotFound, match="no stored snapshot"):
                await manager.restore("t.never")
            await manager.create("t.live", **CONFIG)
            with pytest.raises(SessionExists):
                await manager.restore("t.live")
            store.save("t.bad", 1, b"garbage, not a snapshot container")
            with pytest.raises(BadRequest, match="cannot restore"):
                await manager.restore("t.bad")
            await manager.aclose()

        run(scenario())

    def test_snapshot_without_store_is_a_clear_400(self):
        async def scenario():
            manager = StreamSessionManager()  # no store configured
            await manager.create("t.nostore", **CONFIG)
            with pytest.raises(BadRequest, match="snapshot-dir"):
                await manager.snapshot("t.nostore")
            with pytest.raises(BadRequest, match="snapshot-dir"):
                await manager.restore("t.whatever")
            await manager.aclose()

        run(scenario())

    def test_closed_session_tombstone_reports_reason(self):
        async def scenario():
            manager = StreamSessionManager()
            await manager.create("t.bye", **CONFIG)
            await manager.close("t.bye")
            with pytest.raises(SessionGone, match="closed") as excinfo:
                await manager.append("t.bye", [1.0, 2.0])
            assert excinfo.value.status == 410
            assert excinfo.value.code == "session-gone"
            # SessionGone refines SessionNotFound, so existing handlers
            # written against 404 still catch it.
            assert isinstance(excinfo.value, SessionNotFound)
            await manager.aclose()

        run(scenario())


class TestReaperRace:
    def test_in_flight_request_blocks_eviction(self):
        """Regression: the reaper must not tear down a session mid-request.

        A session can look idle at scan time yet have a request in flight
        (holding its lock) or one that refreshes ``last_used`` before the
        reaper gets the lock. Both guards are exercised deterministically:
        the locked() skip, and the re-read of ``last_used`` on the next
        sweep after the in-flight request released.
        """

        async def scenario():
            manager = StreamSessionManager(idle_timeout=0.5)
            await manager.create("t.hot", **CONFIG)
            await manager.append("t.hot", make_series(8, 200))
            session = manager._sessions["t.hot"]
            loop = asyncio.get_running_loop()

            async def in_flight_request():
                async with session.lock:  # what append/poll hold
                    await asyncio.sleep(0.05)
                    session.last_used = loop.time()

            session.last_used = loop.time() - 60  # stale at scan time
            request_task = asyncio.ensure_future(in_flight_request())
            await asyncio.sleep(0)  # the request wins the lock first
            assert await manager.evict_idle() == []  # locked -> skipped
            await request_task
            # Lock is free now, but the request refreshed last_used — the
            # re-read keeps the session alive.
            assert await manager.evict_idle() == []
            assert (await manager.poll("t.hot", k=1))["name"] == "t.hot"
            assert manager.evicted_idle == 0
            await manager.aclose()

        run(scenario())
