"""Both backends take their shared surface from one ``Substrate`` base.

Wave dispatch, matrix bookkeeping and the spare-pool remap live on
:class:`repro.hardware.pim_array.Substrate`, and every cost lives on the
backend's one cost model (``device.model``). A backend that defines one
of them in its own class body has forked the shared path again.
"""

import typing

import pytest

import repro.substrate
from repro.hardware.noise import NoisyPIMArray
from repro.hardware.pim_array import PIMArray, Substrate
from repro.oracle import LoopHBMPIMArray, LoopPIMArray
from repro.substrate import protocol, substrate_capabilities
from repro.substrate.hbm_pim import HBMPIMArray

SHARED = (
    "query",
    "query_many",
    "query_batch",
    "reset_matrix",
    "remap_crossbar",
    "remap_crossbars",
    "layouts",
    "matrix_of",
    "unit_ids_of",
)
#: cost hooks the device once stated beside its cost model
COST_HOOKS = ("_program_ns", "_batch_timing", "units_needed", "capabilities")


@pytest.mark.parametrize(
    "backend", [PIMArray, HBMPIMArray], ids=lambda c: c.__name__
)
def test_backends_do_not_redefine_the_shared_path(backend):
    assert issubclass(backend, Substrate)
    assert sorted(set(SHARED) & set(vars(backend))) == []


@pytest.mark.parametrize(
    "backend",
    [
        Substrate, PIMArray, HBMPIMArray, NoisyPIMArray, LoopPIMArray,
        LoopHBMPIMArray,
    ],
    ids=lambda c: c.__name__,
)
def test_devices_state_no_cost_of_their_own(backend):
    assert sorted(set(COST_HOOKS) & set(vars(backend))) == []


@pytest.mark.parametrize(
    "backend", [PIMArray, HBMPIMArray], ids=lambda c: c.__name__
)
def test_the_device_model_is_the_registered_cost_model(backend):
    device = backend()
    model = substrate_capabilities(device.backend, device.hardware)
    assert type(device.model) is type(model)
    assert device.config is device.model.config
    assert device.endurance.endurance == device.model.endurance


def test_the_exported_substrate_is_the_base_class():
    assert repro.substrate.Substrate is Substrate
    assert typing.Protocol not in Substrate.__mro__
    assert not any(
        isinstance(obj, type) and typing.Protocol in obj.__mro__
        for obj in vars(protocol).values()
    )
