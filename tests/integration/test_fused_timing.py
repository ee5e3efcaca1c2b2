"""Golden simulated-timing tests: fusion moved zero nanoseconds.

The kernel fusion (vectorised bit-slicing, exact BLAS array waves,
block scoring) is a *wall-clock* optimisation only — simulated PIM latency,
energy, CPU cost-model times, refined/pruned counts and answer bits are
pinned here against values captured from the pre-fusion loop
implementation. Any drift in these constants means the fused kernels
changed observable simulator behaviour, which is a bug by definition.

The constants are compared with ``==`` on purpose: the timing model is
closed-form arithmetic on layout/config numbers and must be
reproducible to the last bit on every platform the CI matrix runs.
"""

import numpy as np
import pytest

from repro.hardware.config import (
    CrossbarConfig,
    HardwareConfig,
    PIMArrayConfig,
)
from repro.hardware.controller import PIMController
from repro.hardware.energy import EnergyModel
from repro.mining.knn import StandardPIMKNN
from repro.oracle import LoopPIMArray
from repro.serving import ShardManager


def _small_platform() -> HardwareConfig:
    return HardwareConfig(
        pim=PIMArrayConfig(
            crossbar=CrossbarConfig(
                rows=8, cols=8, cell_bits=2, dac_bits=2,
                read_latency_ns=10.0,
            ),
            capacity_bytes=1 << 20,
            operand_bits=8,
            accumulator_bits=64,
        )
    )


class TestCellWaveGoldens:
    """Scenario: crossbar waves on the small 8x8 platform.

    Every golden holds on the default controller and on one whose
    device is the cell-level loop oracle.
    """

    @pytest.fixture()
    def controllers(self):
        platform = _small_platform()
        loop = PIMController(platform)
        loop.pim = LoopPIMArray(platform)
        matrix = (np.arange(7 * 20, dtype=np.int64).reshape(7, 20) * 13) % 251
        ctrls = (PIMController(platform), loop)
        for ctrl in ctrls:
            ctrl.program("m", matrix)
        return ctrls

    def test_single_wave_values_and_latency(self, controllers):
        q = (np.arange(20, dtype=np.int64) * 7) % 256
        for controller in controllers:
            result = controller.dot_products("m", q)
            assert result.values.tolist() == [
                224770, 203357, 183701, 195671, 177772, 161630, 173600,
            ]
            assert result.timing.total_ns == 71.12

    def test_batch_wave_values_and_latency(self, controllers):
        queries = (np.arange(5 * 20, dtype=np.int64).reshape(5, 20) * 3) % 256
        for controller in controllers:
            batch = controller.dot_products_batch("m", queries)
            assert batch.values[0].tolist() == [
                96330, 87153, 78729, 83859, 76188, 69270, 74400,
            ]
            assert batch.timing.total_ns == 235.6

    def test_cumulative_stats_and_energy(self, controllers):
        q = (np.arange(20, dtype=np.int64) * 7) % 256
        queries = (np.arange(5 * 20, dtype=np.int64).reshape(5, 20) * 3) % 256
        for controller in controllers:
            controller.dot_products("m", q)
            controller.dot_products_batch("m", queries)
            stats = controller.pim.stats
            assert stats.pim_time_ns == 306.72
            assert stats.batch_saved_ns == 120.00000000000003
            assert stats.programming_time_ns == 457.92
            model = EnergyModel()
            layout = controller.pim.layouts()["m"]
            assert model.wave_energy_j(
                layout, controller.pim.config
            ) == 3.2489600000000005e-10
            assert model.programming_energy_j(layout) == 1.12e-10


class TestServingGoldens:
    """Scenario: sharded kNN + assign on seeded data, Table 5 platform."""

    def test_knn_batch_timing_and_counts(self):
        rng = np.random.default_rng(2024)
        data = rng.random((180, 24))
        manager = ShardManager(data, n_shards=3)
        queries = rng.random((4, 24))
        answers, timing = manager.knn_batch(queries, 5)
        assert [a.refined for a in answers] == [15, 15, 15, 15]
        assert [a.pruned for a in answers] == [165, 165, 165, 165]
        assert timing.service_ns == 3562.0030480248925
        assert timing.per_shard_pim_ns == [1972.86] * 3
        assert timing.per_shard_cpu_ns == [1482.4072860186693] * 3
        assert timing.merge_cpu_ns == 106.73576200622313
        assert answers[0].indices.tolist() == [111, 85, 66, 91, 73]
        assert answers[0].scores.tolist() == [
            1.1201665886942318,
            2.0368145930103037,
            2.1087885135519686,
            2.2271109645467195,
            2.4695571098088407,
        ]

    def test_assign_timing_and_counts(self):
        rng = np.random.default_rng(2024)
        data = rng.random((180, 24))
        rng.random((4, 24))  # keep the seeded draw order of the capture
        manager = ShardManager(data, n_shards=3)
        centers = rng.random((6, 24))
        answer, timing = manager.assign(centers)
        assert answer.refined == 449
        assert answer.pruned == 631
        assert timing.service_ns == 11103.715929028003
        assert answer.assignments[:10].tolist() == [
            5, 0, 2, 3, 5, 3, 4, 2, 3, 5,
        ]
        assert float(answer.distances[0]) == 3.1213128192226858


class TestMiningGoldens:
    """Scenario: full-platform fast-path kNN through the mining layer."""

    def test_standard_knn_pim_time(self):
        rng = np.random.default_rng(7)
        data = rng.random((300, 40))
        algo = StandardPIMKNN().fit(data)
        result = algo.query(np.clip(data[3] + 0.01, 0, 1), 10)
        assert result.pim_time_ns == 575.5799999999999
        assert result.indices.tolist() == [
            3, 299, 190, 166, 157, 159, 145, 220, 203, 49,
        ]
        stats = algo.controller.pim.stats
        assert stats.pim_time_ns == 575.5799999999999
        assert stats.waves == 1
