"""End-to-end fidelity: mining on the cell-level analog simulation.

The default PIM array computes matrix products directly; these tests
attach the *cell-level* loop oracle (real crossbar objects, DAC slicing,
shift-and-add on every wave) to a controller, run a whole mining
algorithm on a miniature platform and assert the final mining results
still match the CPU baselines — the deepest equivalence check in the
suite.
"""

import numpy as np
import pytest

from repro.hardware.config import (
    CrossbarConfig,
    HardwareConfig,
    PIMArrayConfig,
)
from repro.hardware.controller import PIMController
from repro.mining.knn import StandardKNN, StandardPIMKNN
from repro.oracle import LoopPIMArray
from repro.similarity.quantization import Quantizer


def _controller(platform: HardwareConfig, cells: bool) -> PIMController:
    """A controller on ``platform``; ``cells`` swaps in the loop oracle."""
    controller = PIMController(platform)
    if cells:
        controller.pim = LoopPIMArray(platform)
    return controller


@pytest.fixture
def cell_platform() -> HardwareConfig:
    """Small crossbars so the cell simulation stays fast."""
    return HardwareConfig(
        pim=PIMArrayConfig(
            crossbar=CrossbarConfig(rows=16, cols=16, cell_bits=2),
            capacity_bytes=1 << 22,
            operand_bits=10,
            accumulator_bits=64,
        )
    )


class TestCellLevelKNN:
    def test_knn_exact_through_real_crossbars(self, cell_platform, rng):
        centers = rng.random((4, 12))
        data = np.clip(
            centers[rng.integers(0, 4, 60)]
            + 0.05 * rng.standard_normal((60, 12)),
            0,
            1,
        )
        q = np.clip(data[7] + 0.02 * rng.standard_normal(12), 0, 1)
        # alpha sized to the 10-bit operand width of the tiny platform
        quantizer = Quantizer(alpha=1000, assume_normalized=True)
        controller = _controller(cell_platform, cells=True)
        ref = StandardKNN().fit(data).query(q, 5)
        algo = StandardPIMKNN(
            controller=controller, quantizer=quantizer
        ).fit(data)
        res = algo.query(q, 5)
        assert np.allclose(np.sort(res.scores), np.sort(ref.scores))
        # the wave really ran on cell objects
        assert isinstance(controller.pim, LoopPIMArray)
        assert controller.pim.stats.waves >= 1

    def test_cell_and_fast_paths_agree_end_to_end(self, cell_platform, rng):
        data = np.clip(rng.random((40, 12)), 0, 1)
        q = rng.random(12)
        results = []
        for cells in (False, True):
            controller = _controller(cell_platform, cells)
            algo = StandardPIMKNN(
                controller=controller,
                quantizer=Quantizer(alpha=1000, assume_normalized=True),
            ).fit(data)
            results.append(algo.query(q, 5))
        assert np.array_equal(results[0].indices, results[1].indices)
        assert np.allclose(results[0].scores, results[1].scores)


class TestModerateScale:
    def test_knn_exactness_at_20k_objects(self, rng):
        """A larger-N smoke test: pruning machinery at realistic scale."""
        centers = rng.random((50, 64))
        data = np.clip(
            centers[rng.integers(0, 50, 20000)]
            + 0.04 * rng.standard_normal((20000, 64)),
            0,
            1,
        )
        q = np.clip(data[123] + 0.02 * rng.standard_normal(64), 0, 1)
        ref = StandardKNN().fit(data).query(q, 10)
        algo = StandardPIMKNN().fit(data)
        res = algo.query(q, 10)
        assert np.allclose(np.sort(res.scores), np.sort(ref.scores))
        # pruning must stay strong at scale
        assert res.exact_computations < 0.05 * data.shape[0]
