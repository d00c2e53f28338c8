"""Consistent-hash routing, failover, and migration across serve nodes.

Unit layer: :class:`repro.service.router.HashRing` placement properties
(determinism, full preference walks, balance, minimal disruption when a
node leaves) and tenant extraction.

End-to-end layer (subprocess fleet — two ``python -m repro serve`` nodes
sharing a snapshot directory behind one ``python -m repro router``): the
router's ``/v1`` surface, ring-home placement, migration, per-tenant
quotas, and the headline contract — SIGKILL the node that owns a live
session mid-stream and the resumed detections are bitwise identical to a
session that never saw a crash.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.service import ServiceClient, ServiceClientError
from repro.service.router import DEFAULT_REPLICAS, HashRing, tenant_of

CONFIG = dict(window=40, ensemble_size=4, max_paa_size=5, max_alphabet_size=5)

SERVE_BANNER = re.compile(r"serving on http://127\.0\.0\.1:(\d+)")
ROUTER_BANNER = re.compile(r"routing on http://127\.0\.0\.1:(\d+)")


def make_series(seed: int, n: int = 900) -> list[float]:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 18.0 * np.pi, n)
    series = np.sin(t) + 0.05 * rng.standard_normal(n)
    series[n // 2 : n // 2 + 50] *= 0.2
    return [float(v) for v in series]


# ----------------------------------------------------------------------
# Subprocess harness.
# ----------------------------------------------------------------------


def _spawn(args: list[str], banner: re.Pattern) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise RuntimeError(f"{args[0]} exited before binding")
        match = banner.search(line or "")
        if match:
            return process, int(match.group(1))
    process.kill()
    raise RuntimeError(f"{args[0]} did not start within 60s")


def stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


def start_fleet(snapshot_dir: str, *router_args: str) -> dict:
    """Two serve nodes sharing a snapshot dir, one router in front."""
    nodes, processes = [], []
    try:
        for node_id in ("n1", "n2"):
            process, port = _spawn(
                [
                    "serve", "--port", "0",
                    "--snapshot-dir", snapshot_dir,
                    "--snapshot-every", "200",
                    "--node-id", node_id,
                ],
                SERVE_BANNER,
            )
            processes.append(process)
            nodes.append(f"127.0.0.1:{port}")
        router, router_port = _spawn(
            ["router", "--port", "0", "--nodes", ",".join(nodes), *router_args],
            ROUTER_BANNER,
        )
        processes.append(router)
    except BaseException:
        for process in processes:
            process.kill()
        raise
    return {
        "nodes": nodes,
        "node_processes": dict(zip(nodes, processes[:2])),
        "router": router,
        "port": router_port,
        "client": ServiceClient(f"http://127.0.0.1:{router_port}"),
    }


def stop_fleet(fleet: dict) -> None:
    stop(fleet["router"])
    for process in fleet["node_processes"].values():
        stop(process)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    running = start_fleet(str(tmp_path_factory.mktemp("snapshots")))
    yield running
    stop_fleet(running)


# ----------------------------------------------------------------------
# HashRing / tenant units.
# ----------------------------------------------------------------------


class TestHashRing:
    NODES = ["10.0.0.1:8765", "10.0.0.2:8765", "10.0.0.3:8765", "10.0.0.4:8765"]

    def test_placement_is_deterministic_across_instances(self):
        a, b = HashRing(self.NODES), HashRing(list(reversed(self.NODES)))
        for i in range(200):
            assert a.place(f"tenant.session-{i}") == b.place(f"tenant.session-{i}")

    def test_preference_is_a_permutation_starting_at_home(self):
        ring = HashRing(self.NODES)
        for i in range(50):
            walk = ring.preference(f"key-{i}")
            assert sorted(walk) == sorted(self.NODES)  # every node, once
            assert walk[0] == ring.place(f"key-{i}")

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(self.NODES)
        counts = {node: 0 for node in self.NODES}
        for i in range(2000):
            counts[ring.place(f"session-{i}")] += 1
        for node, count in counts.items():
            assert count > 2000 / len(self.NODES) / 2, (node, counts)

    def test_removing_a_node_only_moves_its_own_keys(self):
        """The consistency in consistent hashing."""
        full = HashRing(self.NODES)
        survivor_ring = HashRing(self.NODES[:-1])
        lost = self.NODES[-1]
        moved = 0
        for i in range(1000):
            key = f"session-{i}"
            if full.place(key) == lost:
                moved += 1
                # The key lands exactly where its preference walk said.
                fallback = next(n for n in full.preference(key) if n != lost)
                assert survivor_ring.place(key) == fallback
            else:
                assert survivor_ring.place(key) == full.place(key)
        assert 0 < moved < 1000  # the lost node owned some, not all

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one node"):
            HashRing([])
        with pytest.raises(ValueError, match="replicas"):
            HashRing(["a:1"], replicas=0)
        assert HashRing(["a:1", "a:1"]).nodes == ["a:1"]
        assert HashRing(["a:1"]).replicas == DEFAULT_REPLICAS


class TestTenantOf:
    def test_prefix_before_first_dot(self):
        assert tenant_of("acme.feed") == "acme"
        assert tenant_of("acme.region.feed") == "acme"
        assert tenant_of("solo") == "solo"


# ----------------------------------------------------------------------
# End-to-end: the fleet.
# ----------------------------------------------------------------------


class TestRouterSurface:
    def test_healthz_identifies_the_router(self, fleet):
        body = fleet["client"].healthz()
        assert body["role"] == "router"

    def test_nodes_lists_the_fleet(self, fleet):
        nodes = fleet["client"].nodes()
        assert sorted(node["node"] for node in nodes) == sorted(fleet["nodes"])
        assert all(node["alive"] and node["role"] == "serve" for node in nodes)

    def test_detects_are_proxied(self, fleet):
        client = fleet["client"]
        before = client.stats()["proxied"]
        result = client.detect(make_series(1, 400), k=2, seed=1, **CONFIG)
        assert len(result["anomalies"]) == 2
        assert client.stats()["proxied"] == before + 1

    def test_create_places_on_the_ring_home(self, fleet):
        client = fleet["client"]
        client.create_session("place.check", seed=2, **CONFIG)
        try:
            placements = client.stats()["placements"]
            assert placements["place.check"] == HashRing(fleet["nodes"]).place("place.check")
        finally:
            client.close_session("place.check")

    def test_close_forgets_the_placement(self, fleet):
        client = fleet["client"]
        client.create_session("bye.now", **CONFIG)
        client.close_session("bye.now")
        assert "bye.now" not in client.stats()["placements"]
        # The name is immediately reusable through the router.
        client.create_session("bye.now", **CONFIG)
        client.close_session("bye.now")

    def test_proxied_session_is_bitwise_identical_to_direct(self, fleet):
        from repro.core.streaming import StreamingEnsembleDetector

        client = fleet["client"]
        feed = make_series(3)
        client.create_session("parity.feed", seed=3, **CONFIG)
        try:
            for offset in range(0, len(feed), 300):
                client.append("parity.feed", feed[offset : offset + 300])
            served = client.anomalies("parity.feed", k=3)["anomalies"]
            direct = StreamingEnsembleDetector(seed=3, **CONFIG)
            direct.extend(feed)
            expected = [
                (a.rank, a.position, a.length, a.score) for a in direct.detect(3)
            ]
            assert [
                (a["rank"], a["position"], a["length"], a["score"]) for a in served
            ] == expected
        finally:
            client.close_session("parity.feed")

    def test_migration_preserves_the_stream(self, fleet):
        client = fleet["client"]
        feed = make_series(4)
        client.create_session("move.me", seed=4, **CONFIG)
        try:
            client.append("move.me", feed[:500])
            reference = client.anomalies("move.me", k=3)["anomalies"]
            source = client.stats()["placements"]["move.me"]
            target = next(node for node in fleet["nodes"] if node != source)

            moved = client.migrate("move.me", target)
            assert moved["node"] == target and moved["migrated"] is True
            assert client.stats()["placements"]["move.me"] == target
            assert client.stats()["migrations"] >= 1
            # Same detections on the new node, and the stream keeps going.
            assert client.anomalies("move.me", k=3)["anomalies"] == reference
            client.append("move.me", feed[500:])
            assert client.anomalies("move.me", k=3)["length"] == len(feed)
        finally:
            client.close_session("move.me")

    def test_migrate_to_unknown_node_is_rejected(self, fleet):
        client = fleet["client"]
        client.create_session("stay.put", **CONFIG)
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                client.migrate("stay.put", "127.0.0.1:1")
            assert excinfo.value.status == 400
        finally:
            client.close_session("stay.put")


class TestTenantQuota:
    def test_quota_is_enforced_per_tenant(self, fleet, tmp_path):
        router, port = _spawn(
            [
                "router", "--port", "0",
                "--nodes", ",".join(fleet["nodes"]),
                "--tenant-quota", "1",
            ],
            ROUTER_BANNER,
        )
        client = ServiceClient(f"http://127.0.0.1:{port}")
        try:
            client.create_session("quota.one", **CONFIG)
            with pytest.raises(ServiceClientError) as excinfo:
                client.create_session("quota.two", **CONFIG)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "tenant-quota-exceeded"
            # A different tenant is unaffected.
            client.create_session("other.one", **CONFIG)
            # Closing frees the slot.
            client.close_session("quota.one")
            client.create_session("quota.two", **CONFIG)
            client.close_session("quota.two")
            client.close_session("other.one")
        finally:
            stop(router)


class TestFailover:
    def test_sigkill_mid_stream_is_bitwise_invisible(self, tmp_path):
        """Kill the owning node between chunks; detections must not change."""
        fleet = start_fleet(str(tmp_path / "snapshots"))
        try:
            client = fleet["client"]
            feed = make_series(11, 1200)
            client.create_session("acme.feed", seed=11, **CONFIG)
            chunks = [feed[i : i + 150] for i in range(0, len(feed), 150)]
            for index, chunk in enumerate(chunks):
                if index == 4:
                    victim_addr = client.stats()["placements"]["acme.feed"]
                    victim = fleet["node_processes"][victim_addr]
                    victim.send_signal(signal.SIGKILL)
                    victim.wait(timeout=30)
                client.append("acme.feed", chunk)
            resumed = client.anomalies("acme.feed", k=5)["anomalies"]

            stats = client.stats()
            assert stats["recoveries"] == 1
            assert stats["placements"]["acme.feed"] != victim_addr
            assert stats["tail_points"] == 0  # checkpoints caught back up

            # Witness: same stream, never interrupted (lands on the
            # survivor — the router skips dead nodes on create).
            client.create_session("witness.feed", seed=11, **CONFIG)
            client.append("witness.feed", feed)
            uninterrupted = client.anomalies("witness.feed", k=5)["anomalies"]
            assert resumed == uninterrupted

            # The fleet view reflects the loss.
            alive = {node["node"]: node["alive"] for node in client.nodes()}
            assert alive[victim_addr] is False
            assert sum(alive.values()) == 1
        finally:
            stop_fleet(fleet)
