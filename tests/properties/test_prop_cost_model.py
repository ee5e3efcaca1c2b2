"""Property-based tests: a device charges exactly what its model predicts.

Every backend states its costs once, on its
:class:`~repro.substrate.protocol.SubstrateCapabilities` cost model; the
live device charges through that object (``device.model``) and the cost
router prices through the registered one. So on a fresh spare-free
device of either backend, for any drawn shape, batch and input width:

* the ``pim_time_ns`` one ``query_batch`` books is
  ``predict_query_ns`` of the same shape;
* the ``programming_time_ns`` of programming it is
  ``predict_program_ns``;
* one spare remap costs ``model.remap_ns`` of the remapped layout.

All three hold with ``==``: one computation, not two that agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.substrate import create_substrate, substrate_capabilities

SUBSTRATES = ["crossbar", "hbm_pim"]


@st.composite
def wave_case(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    dims = draw(st.integers(min_value=1, max_value=160))
    batch = draw(st.integers(min_value=1, max_value=12))
    input_bits = draw(st.one_of(st.none(), st.integers(1, 32)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, dims, batch, input_bits, seed


def _program(device, n, dims, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2**16, size=(n, dims), dtype=np.int64)
    device.program_matrix("m", matrix)
    return rng


@pytest.mark.parametrize("name", SUBSTRATES)
@given(case=wave_case())
@settings(max_examples=30, deadline=None)
def test_device_charges_equal_the_model(name, case):
    n, dims, batch, input_bits, seed = case
    model = substrate_capabilities(name)
    device = create_substrate(name)
    rng = _program(device, n, dims, seed)
    assert device.stats.programming_time_ns == model.predict_program_ns(
        n, dims
    )
    high = 2 ** (input_bits if input_bits is not None else 16)
    queries = rng.integers(0, min(high, 2**16), size=(batch, dims))
    device.query_batch("m", queries, input_bits=input_bits)
    assert device.stats.pim_time_ns == model.predict_query_ns(
        n, dims, batch, input_bits
    )


@pytest.mark.parametrize("name", SUBSTRATES)
@given(case=wave_case())
@settings(max_examples=20, deadline=None)
def test_one_remap_costs_the_model_remap(name, case):
    n, dims, _, _, seed = case
    device = create_substrate(name, spare_units=1)
    _program(device, n, dims, seed)
    layout = device.layouts()["m"]
    before = device.stats.programming_time_ns
    _, ns = device.remap_crossbar(device.unit_ids_of("m")[0])
    assert ns == device.model.remap_ns(layout)
    assert device.stats.programming_time_ns == before + ns
