"""Unit tests for the serving tier below the HTTP surface: the shard
worker's query coalescing and the audit log's tail."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import LevelReportQuery
from repro.serve import AuditLog, ShardManager

TENANT, SESSION = "units", "main"


@pytest.fixture
def manager():
    manager = ShardManager()
    manager.create_session(TENANT, SESSION, services=12)
    yield manager
    manager.close()


def test_bad_query_fails_alone_when_coalesced_with_good_ones(manager):
    shard = manager.shard(TENANT, SESSION)
    expected = shard.execute((LevelReportQuery(),))

    # Block the worker so the next two requests queue up behind it and
    # are drained into one coalesced batch.
    running, gate = threading.Event(), threading.Event()

    def block(_service):
        running.set()
        gate.wait()

    blocker = threading.Thread(target=shard.call, args=(block,))
    blocker.start()
    assert running.wait(timeout=30.0)

    outcomes = {}

    def ask(label, query):
        try:
            outcomes[label] = shard.execute((query,))
        except Exception as exc:  # the outcome under test
            outcomes[label] = exc

    askers = [
        threading.Thread(
            target=ask, args=("bad", LevelReportQuery(attacker="nope"))
        ),
        threading.Thread(target=ask, args=("good", LevelReportQuery())),
    ]
    for asker in askers:
        asker.start()
    for _ in range(500):
        depth = manager.instrumentation.registry.value(
            "repro_serve_shard_queue_depth",
            {"tenant": TENANT, "session": SESSION},
        )
        if depth == 2:
            break
        time.sleep(0.002)
    else:
        pytest.fail("the two queries never queued behind the blocked worker")
    gate.set()
    for thread in (blocker, *askers):
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    assert isinstance(outcomes["bad"], KeyError)
    assert outcomes["good"] == expected


def test_audit_tail_limits():
    log = AuditLog()
    for index in range(3):
        log.record(
            tenant="a", session="s", outcome="applied", mutation={"i": index}
        )
    log.record(tenant="b", session="s", outcome="noop", mutation={"i": 9})

    assert log.tail("a", 0) == []
    assert [entry["mutation"]["i"] for entry in log.tail("a", 2)] == [1, 2]
    assert [entry["mutation"]["i"] for entry in log.tail("a", 10)] == [0, 1, 2]
    # A negative limit keeps returning every matching record.
    assert len(log.tail("a", -1)) == 3
    assert len(log.tail(None, -1)) == 4
    log.close()
