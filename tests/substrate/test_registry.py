"""Registry + protocol conformance of the built-in substrates."""

import pytest

from repro.errors import ConfigurationError, ProgrammingError
from repro.hardware.pim_array import PIMArray
from repro.substrate import (
    Substrate,
    SubstrateSpec,
    available_substrates,
    create_substrate,
    register_substrate,
    substrate_capabilities,
)
from repro.substrate.hbm_pim import HBMPIMArray
from repro.substrate.registry import _REGISTRY


class TestRegistry:
    def test_builtins_registered(self):
        assert available_substrates() == ["crossbar", "hbm_pim"]

    def test_create_builds_the_right_device(self):
        assert isinstance(create_substrate("crossbar"), PIMArray)
        assert isinstance(create_substrate("hbm_pim"), HBMPIMArray)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="registered"):
            create_substrate("optical")
        with pytest.raises(ConfigurationError):
            substrate_capabilities("optical")

    def test_duplicate_registration_guard(self):
        spec = _REGISTRY["crossbar"]
        with pytest.raises(ProgrammingError):
            register_substrate(spec)
        register_substrate(spec, replace=True)  # tests may swap in fakes


class TestProtocolConformance:
    """Both backends derive from the Substrate base class."""

    @pytest.mark.parametrize("name", ["crossbar", "hbm_pim"])
    def test_runtime_checkable(self, name):
        device = create_substrate(name)
        assert isinstance(device, Substrate)

    @pytest.mark.parametrize("name", ["crossbar", "hbm_pim"])
    def test_stats_backend_names_the_substrate(self, name):
        assert create_substrate(name).stats.backend == name

    def test_unit_names(self):
        assert create_substrate("crossbar").unit_name == "crossbar"
        assert create_substrate("hbm_pim").unit_name == "bank"


class TestCapabilities:
    def test_describe_fields(self):
        for name in available_substrates():
            desc = substrate_capabilities(name).describe()
            assert desc["name"] == name
            assert desc["memory_device"] in ("reram", "dram")
            assert desc["endurance"] > 0

    def test_dram_outlasts_reram(self):
        reram = substrate_capabilities("crossbar").endurance
        dram = substrate_capabilities("hbm_pim").endurance
        assert dram > reram

    @pytest.mark.parametrize("name", ["crossbar", "hbm_pim"])
    def test_predictions_positive_and_monotone_in_batch(self, name):
        caps = substrate_capabilities(name)
        one = caps.predict_query_ns(1000, 64, 1)
        eight = caps.predict_query_ns(1000, 64, 8)
        assert 0 < one < eight
        assert caps.predict_program_ns(1000, 64) > 0
        assert caps.predict_query_energy_j(1000, 64, 1) > 0
        assert caps.predict_program_energy_j(1000, 64) > 0

    @pytest.mark.parametrize("name", ["crossbar", "hbm_pim"])
    def test_fits_fresh_respects_spares(self, name):
        caps = substrate_capabilities(name)
        assert caps.fits_fresh(100, 16)
        assert not caps.fits_fresh(10**12, 4096)

    def test_prediction_matches_device_charge(self):
        """Capability predictions equal what a live device charges."""
        import numpy as np

        for name in available_substrates():
            caps = substrate_capabilities(name)
            device = create_substrate(name)
            rng = np.random.default_rng(3)
            matrix = rng.integers(0, 127, size=(300, 24)).astype(np.int64)
            queries = rng.integers(0, 127, size=(4, 24)).astype(np.int64)
            device.program_matrix("m", matrix)
            before = device.stats.pim_time_ns
            device.query_batch("m", queries)
            charged = device.stats.pim_time_ns - before
            assert charged == pytest.approx(
                caps.predict_query_ns(300, 24, 4), rel=1e-9
            ), name
