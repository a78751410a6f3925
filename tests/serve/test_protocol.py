"""Wire-format validation: requests in, responses out."""

import pytest

from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.serve.protocol import (
    MAX_TRIALS_PER_REQUEST,
    PROTOCOL_VERSION,
    ProtocolError,
    overload_body,
    parse_simulate_request,
    simulate_response,
)
from repro.sweep.keys import CACHE_SCHEMA_VERSION

CONFIG = {"num_runs": 4, "num_disks": 2, "blocks_per_run": 20}


class TestParseSimulate:
    def test_minimal(self):
        request = parse_simulate_request({"config": CONFIG})
        assert request.config.num_runs == 4
        assert request.config.num_disks == 2
        assert request.deadline_s is None

    def test_overrides_fold_into_config(self):
        request = parse_simulate_request({
            "config": CONFIG, "trials": 3, "seed": 77, "kernel": "batch",
        })
        assert request.config.trials == 3
        assert request.config.base_seed == 77
        assert request.config.kernel == "batch"
        assert request.trials == 3

    def test_enum_strings_coerced(self):
        request = parse_simulate_request({
            "config": {**CONFIG, "strategy": "inter-run",
                       "cache_capacity": 400},
        })
        assert request.config.strategy is PrefetchStrategy.INTER_RUN

    @pytest.mark.parametrize("flag", ["record_timelines", "record_requests"])
    def test_retired_recording_flags_are_bad_config(self, flag):
        # Recording is an ambient trace, not a config field: a request
        # asking for it is rejected, never silently simulated.
        with pytest.raises(ProtocolError) as info:
            parse_simulate_request({"config": {**CONFIG, flag: True}})
        assert info.value.status == 400
        assert info.value.code == "bad-config"
        assert flag in info.value.detail

    def test_deadline_ms(self):
        request = parse_simulate_request(
            {"config": CONFIG, "deadline_ms": 1500}
        )
        assert request.deadline_s == pytest.approx(1.5)

    @pytest.mark.parametrize("body, fragment", [
        (None, "JSON object"),
        ([], "JSON object"),
        ({}, "config"),
        ({"config": CONFIG, "tirals": 2}, "tirals"),
        ({"config": {"num_runs": 4, "num_disks": 2, "bogus": 1}}, "bogus"),
        ({"config": CONFIG, "deadline_ms": -5}, "deadline_ms"),
        ({"config": CONFIG, "deadline_ms": "soon"}, "deadline_ms"),
        ({"config": CONFIG, "trials": MAX_TRIALS_PER_REQUEST + 1}, "ceiling"),
        ({"config": CONFIG, "kernel": "fast"}, "choose one of batch, reference"),
    ])
    def test_rejects(self, body, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_simulate_request(body)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    def test_error_body_shape(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_simulate_request({})
        body = excinfo.value.body()
        assert set(body) == {"error", "detail"}


class TestSimulateResponse:
    def test_shape_and_versions(self):
        config = SimulationConfig(trials=2, **CONFIG)
        trials = [
            MergeSimulation(config).run_trial(trial=t) for t in range(2)
        ]
        body = simulate_response(
            config, trials, hits=1, misses=1, coalesced=0, elapsed_ms=3.5
        )
        assert body["protocol"] == PROTOCOL_VERSION
        assert body["cache_schema"] == CACHE_SCHEMA_VERSION
        assert body["cache"] == {"hits": 1, "misses": 1, "coalesced": 0}
        assert len(body["trials"]) == 2
        assert body["trials"][0] == trials[0].to_dict()
        aggregate = body["aggregate"]
        assert aggregate["total_time_s"]["mean"] == pytest.approx(
            sum(m.total_time_s for m in trials) / 2
        )
        low, high = aggregate["total_time_s"]["ci95"]
        assert low <= aggregate["total_time_s"]["mean"] <= high


def test_overload_body_mirrors_header():
    body = overload_body("rate-limited", "slow down", 2.5)
    assert body["retry_after_s"] == 2.5
    assert body["error"] == "rate-limited"
