"""PredictionServer end-to-end behaviour over real TCP + worker processes."""

import json
import os
import signal
import time
import urllib.request

import pytest

from repro.cache.block import AccessType, CacheRequest
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.policies.registry import make_policy
from repro.serve.server import PredictionServer, ServeConfig

pytestmark = pytest.mark.slow


def test_decisions_and_request_id_matching(make_server, make_client):
    server = make_server()
    client = make_client(server)
    # Pipeline a burst across both shards; match strictly by id.
    ids = [f"r{i}" for i in range(40)]
    for i, request_id in enumerate(ids):
        client.send(id=request_id, kind="access", pc=i % 5, address=(i % 10) * 64)
    responses = {rid: client.recv_for(rid) for rid in ids}
    assert all(responses[rid]["ok"] for rid in ids)
    assert all(responses[rid]["kind"] == "access" for rid in ids)
    # 10 distinct lines on a cold cache: exactly 10 misses.
    hits = sum(1 for rid in ids if responses[rid]["hit"])
    assert hits == 30
    # Every response names the shard that computed it, consistently.
    for i, rid in enumerate(ids):
        assert responses[rid]["shard"] == server.route((i % 10) * 64)


@pytest.mark.parametrize("policy", ["lru", "mru", "srrip"])
def test_decisions_match_a_monolithic_simulation(make_server, make_client, policy):
    """Set-sharding is exact: per-access hit/miss equals one big cache.

    It holds for a policy that keeps all of its state per set: a shard
    sees only its own sets' accesses, and that must be enough to
    reproduce every decision bit-for-bit.  (A policy whose RNG or
    predictor is shared across sets, such as random or brrip, diverges
    by design.)
    """
    server = make_server(policy=policy, shards=2, cache_sets=16, cache_ways=2)
    client = make_client(server)
    reference = SetAssociativeCache(
        CacheConfig(
            name="ref",
            size_bytes=16 * 2 * 64,
            associativity=2,
            line_size=64,
        ),
        make_policy(policy),
    )
    # A PC/address pattern with reuse, conflict misses, and eviction.
    accesses = [(i % 7, (i * 193) % 53 * 64) for i in range(300)]
    for index, (pc, address) in enumerate(accesses):
        client.send(id=f"a{index}", kind="access", pc=pc, address=address)
    mismatches = []
    for index, (pc, address) in enumerate(accesses):
        response = client.recv_for(f"a{index}")
        expected = reference.access(
            CacheRequest(
                pc=pc, address=address, access_type=AccessType.LOAD,
                core=0, access_index=index,
            )
        )
        if (response["hit"], response["bypassed"]) != (
            expected.hit, expected.bypassed,
        ):
            mismatches.append(
                (
                    index,
                    (response["hit"], response["bypassed"]),
                    (expected.hit, expected.bypassed),
                )
            )
    assert mismatches == []


def test_predict_ping_stats_and_bad_requests(make_server, make_client):
    server = make_server()
    client = make_client(server)
    assert client.call(id="p1", kind="ping")["pong"] is True

    prediction = client.call(id="p2", kind="predict", pc=3, address=128)
    assert prediction["ok"] and prediction["cached"] is False
    client.call(id="p3", kind="access", pc=3, address=128)
    assert client.call(id="p4", kind="predict", pc=3, address=128)["cached"] is True

    stats = client.call(id="p5", kind="stats")
    assert stats["ok"]
    assert {row["shard"] for row in stats["shards"]} == {0, 1}
    assert all(row["pid"] and row["ready"] for row in stats["shards"])
    assert stats["counters"]["decisions_total"] >= 3

    client.send(id="bad1", kind="no-such-kind")
    response = client.recv_for("bad1")
    assert response["ok"] is False
    assert response["error"]["type"] == "bad-request"

    client.sock.sendall(b"this is not json\n")
    garbage = client.recv()
    assert garbage["ok"] is False and garbage["error"]["type"] == "bad-request"
    # The connection survives garbage; later requests still work.
    assert client.call(id="p6", kind="ping")["pong"] is True


def test_deadline_expiry_yields_typed_timeout(make_server, make_client):
    # 80ms artificial compute per request vs a 30ms deadline.
    server = make_server(chaos_delay_ms=80.0, default_deadline_ms=30.0)
    client = make_client(server)
    for i in range(6):
        client.send(id=f"t{i}", kind="access", pc=0, address=i * 64)
    outcomes = [client.recv_for(f"t{i}") for i in range(6)]
    timeouts = [r for r in outcomes if not r["ok"]]
    assert timeouts, "expected at least one typed timeout"
    assert all(r["error"]["type"] == "timeout" for r in timeouts)
    # The server-side ledger saw them too — nothing silent.
    stats = client.call(id="s", kind="stats")
    assert stats["counters"]["timeout_total"] >= len(timeouts)


def test_queue_full_sheds_with_typed_error(make_server, make_client):
    server = make_server(
        shards=1, queue_depth=2, chaos_delay_ms=50.0, default_deadline_ms=5000.0
    )
    client = make_client(server)
    burst = 30
    for i in range(burst):
        client.send(id=f"b{i}", kind="access", pc=0, address=i * 64)
    outcomes = [client.recv_for(f"b{i}") for i in range(burst)]
    shed = [r for r in outcomes if not r["ok"]]
    assert shed, "a 30-deep burst into a depth-2 queue must shed"
    assert all(r["error"]["type"] == "shed" for r in shed)
    assert all(r["error"]["retryable"] for r in shed)
    with server._counters_lock:
        assert server.counters["shed_total"] == len(shed)
    # decisions + typed sheds account for the whole burst.
    assert len([r for r in outcomes if r["ok"]]) + len(shed) == burst


def test_draining_rejects_new_work_with_typed_error(make_client):
    server = PredictionServer(
        ServeConfig(policy="lru", shards=1, cache_sets=64, cache_ways=4, admin_port=None)
    )
    server.start()
    try:
        assert server.wait_ready(60.0)
        client = make_client(server)
        assert client.call(id="ok1", kind="access", pc=0, address=0)["ok"]
        server.draining.set()
        response = client.call(id="no1", kind="access", pc=0, address=64)
        assert response["ok"] is False
        assert response["error"]["type"] == "draining"
        client.close()
    finally:
        server.draining.clear()
        summary = server.drain(timeout=10.0)
    assert summary["clean"] is True


def test_drain_summary_and_journal(make_server, make_client, tmp_path):
    server = make_server(store_dir=str(tmp_path))
    client = make_client(server)
    for i in range(10):
        client.send(id=f"d{i}", kind="access", pc=0, address=i * 64)
    for i in range(10):
        assert client.recv_for(f"d{i}")["ok"]
    summary = server.drain(timeout=10.0)
    assert summary["clean"] is True
    assert summary["stats"]["counters"]["decisions_total"] == 10
    # Final metrics snapshot written to the store.
    assert (tmp_path / "serve-metrics-final.json").exists()
    events = [
        json.loads(line)["event"]
        for line in (tmp_path / "serve-journal.jsonl").read_text().splitlines()
    ]
    assert "server-start" in events
    assert "drain-start" in events
    assert events[-1] == "drained"
    # Idempotent: a second drain returns the same summary, instantly.
    assert server.drain() == summary


def test_shard_restart_rewarns_from_snapshot(make_server, make_client, tmp_path):
    server = make_server(
        shards=1, store_dir=str(tmp_path), snapshot_every=1, heartbeat_grace=5.0
    )
    client = make_client(server)
    for i in range(8):
        client.send(id=f"w{i}", kind="access", pc=1, address=i * 64)
    for i in range(8):
        assert client.recv_for(f"w{i}")["ok"]
    time.sleep(0.2)  # let the worker write its snapshot
    victim = server.shards[0]
    old_pid = victim.pid
    os.kill(old_pid, signal.SIGKILL)
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if victim.restarts >= 1 and victim.ready.is_set():
            break
        time.sleep(0.05)
    assert victim.restarts >= 1 and victim.ready.is_set(), "shard never restarted"
    assert victim.pid != old_pid
    # The replacement loaded the snapshot rather than starting cold.
    assert victim.warm_starts >= 1
    # And still serves decisions.
    assert client.call(id="after", kind="access", pc=1, address=0)["ok"]
    events = [
        json.loads(line)
        for line in (tmp_path / "serve-journal.jsonl").read_text().splitlines()
    ]
    died = [e for e in events if e["event"] == "shard-died"]
    assert died and died[0]["reason"] == "exited"
    ready = [e for e in events if e["event"] == "shard-ready"]
    assert any(e.get("warm") for e in ready)


def test_admin_endpoints(make_server):
    server = make_server(admin_port=0)
    base = f"http://127.0.0.1:{server.admin_port}"
    with urllib.request.urlopen(base + "/healthz", timeout=10) as response:
        assert response.status == 200
    with urllib.request.urlopen(base + "/readyz", timeout=10) as response:
        assert response.status == 200
    with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
        body = response.read().decode()
    assert "repro_serve_requests_total" in body or "repro_serve_" in body
    with urllib.request.urlopen(base + "/stats", timeout=10) as response:
        stats = json.loads(response.read())
    assert stats["policy"] == "lru"
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(base + "/nope", timeout=10)
    assert excinfo.value.code == 404


def test_readyz_flips_to_503_while_draining(make_server):
    server = make_server(admin_port=0)
    server.draining.set()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.admin_port}/readyz", timeout=10
            )
        assert excinfo.value.code == 503
    finally:
        server.draining.clear()


def test_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(cache_sets=100)  # not a power of two
    with pytest.raises(ValueError):
        ServeConfig(shards=0)
    with pytest.raises(ValueError):
        ServeConfig(shards=128, cache_sets=64)
    with pytest.raises(ValueError):
        ServeConfig(queue_depth=0)
    with pytest.raises(ValueError):
        ServeConfig(default_deadline_ms=0)
