"""Both backends take their shared surface from one ``Substrate`` base.

Wave dispatch, matrix bookkeeping and the spare-pool remap live on
:class:`repro.hardware.pim_array.Substrate`. A backend that defines one
of them in its own class body has forked the shared path again.
"""

import typing

import pytest

import repro.substrate
from repro.hardware.pim_array import PIMArray, Substrate
from repro.substrate import protocol
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


@pytest.mark.parametrize(
    "backend", [PIMArray, HBMPIMArray], ids=lambda c: c.__name__
)
def test_backends_do_not_redefine_the_shared_path(backend):
    assert issubclass(backend, Substrate)
    assert sorted(set(SHARED) & set(vars(backend))) == []


def test_the_exported_substrate_is_the_base_class():
    assert repro.substrate.Substrate is Substrate
    assert typing.Protocol not in Substrate.__mro__
    assert not any(
        isinstance(obj, type) and typing.Protocol in obj.__mro__
        for obj in vars(protocol).values()
    )
