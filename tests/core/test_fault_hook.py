"""Faults are a hook of the device, not a wrapper around it.

A :class:`~repro.faults.injectors.FaultyPIMArray` attaches to a
:class:`~repro.hardware.pim_array.Substrate`, whose own dispatch styles
consult it. A wrapper that forwarded attributes and re-timed the inner
device's answers would book clean waves on the device and stretched
ones in the serving ledger; these guards keep it from coming back.
"""

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultPlan, injectors
from repro.faults.injectors import FaultyPIMArray
from repro.hardware.pim_array import Substrate
from repro.serving import ShardManager


def test_the_injector_forwards_and_dispatches_nothing():
    own = set(vars(FaultyPIMArray))
    assert "__getattr__" not in own
    assert "inner" not in own
    assert sorted(n for n in own if n.startswith("query")) == []


def test_no_timing_proxy_is_left():
    assert not hasattr(injectors, "_InflatedTiming")


@pytest.mark.parametrize("substrate", ["crossbar", "hbm_pim"])
def test_a_faulted_shard_keeps_its_device(substrate):
    plan = FaultPlan(
        [FaultEvent(t_ns=0.0, kind="latency_spike", target="shard1")]
    )
    data = np.random.default_rng(0).random((40, 8))
    manager = ShardManager(
        data, 2, fault_plan=plan, substrates=substrate
    )
    for shard in manager.shards:
        pim = shard.controller.pim
        assert isinstance(pim, Substrate)
        assert pim._faults is shard.faulty
        assert shard.faulty is not None
