"""The fault campaign: scenario × arm tables, exactness and restarts."""

import json
import tempfile

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    Arm,
    Campaign,
    FaultPlan,
    Scenario,
    defense_arms,
    standard_campaign,
)
from repro.hardware import FailureDomainTopology

HORIZON_NS = 1.5e7
TOPOLOGY = FailureDomainTopology(
    n_shards=8,
    shards_per_board=2,
    boards_per_channel=2,
    channels_per_power_domain=1,
)
OUTAGE = Scenario(
    "power_outage",
    lambda n_shards, horizon_ns, seed: FaultPlan.domain_outage(
        TOPOLOGY, horizon_ns, seed=seed
    ),
)
NAIVE = Arm("naive", {"spread": False})
SPREAD = Arm("spread", {"spread": True})


def _data() -> np.ndarray:
    return np.random.default_rng(5).random((96, 8))


def _outage_campaign() -> Campaign:
    return Campaign(
        _data(),
        [OUTAGE],
        [NAIVE, SPREAD],
        fleet={"n_shards": 8, "replication": 2, "topology": TOPOLOGY},
        n_requests=8,
        k=3,
        horizon_ns=HORIZON_NS,
        seed=11,
    )


def _outage_run() -> dict:
    campaign = _outage_campaign()
    result = campaign.run()
    result["checkpoint"] = campaign.restart(OUTAGE, SPREAD)
    return result


def test_gray_scenario_is_exact_in_both_arms():
    (straggler,) = [s for s in standard_campaign() if s.name == "straggler"]
    result = Campaign(
        _data(),
        [straggler],
        defense_arms(0.3),
        n_requests=8,
        k=3,
        horizon_ns=HORIZON_NS,
        seed=7,
    ).run()
    (scenario,) = result["scenarios"]
    assert set(scenario["arms"]) == {"detector_off", "detector_on"}
    assert scenario["answer_divergence"] == 0
    for arm in scenario["arms"].values():
        assert arm["exactness_violations"] == 0
        assert arm["requests"] == 8
        assert arm["hedge_rate"] <= 0.3
        assert "n_at_risk" in arm["spread_report"]
        assert set(arm["counters"]) >= {"hedges", "hedges_won", "attempts"}
    json.dumps(result)  # the artifact is plain JSON


def test_power_outage_restart_matches_uninterrupted_answers():
    result = _outage_run()
    (scenario,) = result["scenarios"]
    naive, spread = scenario["arms"]["naive"], scenario["arms"]["spread"]
    assert naive["exactness_violations"] == 0
    assert spread["exactness_violations"] == 0
    assert scenario["answer_divergence"] == 0
    # read right after the fleet is built, before the outage
    assert spread["spread_report"]["n_at_risk"] == 0
    assert naive["spread_report"]["n_at_risk"] > 0
    checkpoint = result["checkpoint"]
    assert checkpoint["exactness_violations"] == 0
    assert checkpoint["restore_mismatches"] == 0
    assert checkpoint["recovery_point_ns"] == checkpoint["checkpoint_t_ns"]
    assert checkpoint["requests_before_crash"] == 4
    assert checkpoint["checkpoint_file"] == checkpoint["integrity"]["path"]
    assert "/" not in checkpoint["checkpoint_file"]


def test_same_seed_gives_byte_identical_artifacts():
    first = json.dumps(_outage_run(), sort_keys=True)
    second = json.dumps(_outage_run(), sort_keys=True)
    assert first == second


def test_restart_leaves_no_checkpoint_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    campaign = _outage_campaign()
    campaign.restart(OUTAGE, SPREAD)  # serves the arm first by itself
    assert list(tmp_path.glob("repro-dr-*")) == []
    assert list(tmp_path.iterdir()) == []


def test_gray_plus_crash_kills_the_middle_shard_at_half_horizon():
    (scenario,) = [
        s for s in standard_campaign() if s.name == "gray_plus_crash"
    ]
    plan = scenario.plan(4, HORIZON_NS, 3)
    crashes = [e for e in plan.events if e.kind == "shard_crash"]
    assert [(e.target, e.t_ns) for e in crashes] == [
        ("shard2", HORIZON_NS / 2)
    ]


@pytest.mark.parametrize(
    "scenarios, arms",
    [
        ([], [NAIVE]),
        ([OUTAGE], []),
        ([OUTAGE, OUTAGE], [NAIVE]),
        ([OUTAGE], [NAIVE, Arm("naive")]),
    ],
)
def test_rejects_empty_or_duplicate_tables(scenarios, arms):
    with pytest.raises(ConfigurationError):
        Campaign(_data(), scenarios, arms, fleet={"n_shards": 8})


def test_rejects_empty_trace():
    with pytest.raises(ConfigurationError):
        Campaign(_data(), [OUTAGE], [NAIVE], n_requests=0)
