"""Request parsing and response shaping of the dist wire protocol."""

import pytest

from repro.dist.protocol import (
    DIST_PROTOCOL_VERSION,
    DistProtocolError,
    done_body,
    granted_body,
    lease_lost_body,
    parse_complete_request,
    parse_heartbeat_request,
    parse_lease_request,
    wait_body,
)
from repro.dist.shards import job_wire
from repro.dist.worker import DistWorker

from tests.dist.conftest import SMALL_SPEC


def test_parse_lease_request():
    assert parse_lease_request({"worker": "w1"}) == "w1"


@pytest.mark.parametrize("payload", [None, [], {}, {"worker": ""},
                                     {"worker": 3}])
def test_parse_lease_request_rejects(payload):
    with pytest.raises(DistProtocolError) as excinfo:
        parse_lease_request(payload)
    assert excinfo.value.status == 400


def test_parse_heartbeat_request():
    assert parse_heartbeat_request({"token": "lease-000001"}) == "lease-000001"
    with pytest.raises(DistProtocolError):
        parse_heartbeat_request({"token": None})


def test_parse_complete_request():
    token, results, worker = parse_complete_request({
        "token": "lease-000001",
        "results": [
            {"index": 0, "ok": True, "metrics": {}, "elapsed_s": 0.1},
            {"index": 1, "ok": False, "error": "boom"},
        ],
    })
    assert token == "lease-000001"
    assert len(results) == 2
    assert worker is None


def test_parse_complete_request_names_the_next_lease_worker():
    _token, _results, worker = parse_complete_request(
        {"token": "t", "results": [], "worker": "w1"}
    )
    assert worker == "w1"


@pytest.mark.parametrize("payload", [
    {"token": "t"},  # missing results
    {"token": "t", "results": {}},  # not a list
    {"token": "t", "results": [{"ok": True}]},  # no index
    {"token": "t", "results": [{"index": 0, "ok": True}]},  # ok, no metrics
    {"token": "t", "results": [], "worker": ""},  # empty worker id
])
def test_parse_complete_request_rejects(payload):
    with pytest.raises(DistProtocolError):
        parse_complete_request(payload)


def test_response_bodies_carry_protocol_version():
    body = granted_body("t", "shard-0000", [], ttl_s=5.0, retries=1)
    assert body["protocol"] == DIST_PROTOCOL_VERSION
    assert body["lease"]["shard"] == "shard-0000"
    assert "timeout_s" not in body["lease"]
    assert wait_body(0.5)["retry_after_s"] == 0.5
    assert done_body()["status"] == "done"
    assert lease_lost_body("gone")["error"] == "lease-lost"


def test_protocol_error_body():
    error = DistProtocolError(400, "bad-request", "nope")
    assert error.body() == {"error": "bad-request", "detail": "nope"}


class _RecordingClient:
    """Accepts every completion and keeps what it was sent."""

    def __init__(self):
        self.completed = []

    def heartbeat(self, token):
        return {}

    def complete(self, token, results, worker=None):
        self.completed.append((token, results))
        return {"campaign_complete": False}


def test_worker_accepts_a_lease_that_still_carries_timeout_s():
    """Leases from coordinators that relayed a wall-clock timeout still
    parse: the worker reads lease fields with ``.get`` and ignores it."""
    job = SMALL_SPEC.jobs()[0]
    lease = granted_body(
        "t", "shard-0000", [job_wire(job)], ttl_s=30.0, retries=1
    )["lease"]
    lease["timeout_s"] = 0.001
    client = _RecordingClient()
    worker = DistWorker(client=client)
    assert worker._process_lease(lease) is None  # no next lease carried
    [(token, results)] = client.completed
    assert token == "t"
    assert results[0]["ok"] is True
    assert results[0]["metrics"]["blocks_depleted"] == job.config.total_blocks
