"""Unit tests for the PIM-aware bounds (Theorems 1-2 and friends)."""

import numpy as np
import pytest

from repro.bounds.ed import FNNBound, OSTBound, SMBound
from repro.bounds.pim import (
    PIMCosineBound,
    PIMEuclideanBound,
    PIMFNNBound,
    PIMHammingDistance,
    PIMOSTBound,
    PIMPearsonBound,
    PIMSMBound,
)
from repro.errors import OperandError
from repro.hardware.config import HardwareConfig, PIMArrayConfig
from repro.hardware.controller import PIMController
from repro.similarity.measures import (
    cosine_batch,
    euclidean_batch,
    hamming_batch,
    pearson_batch,
)
from repro.similarity.quantization import Quantizer
from repro.similarity.segments import summarize


@pytest.fixture
def data(clustered_data):
    return clustered_data


@pytest.fixture
def query(query_vector):
    return query_vector


class TestPIMEuclideanBound:
    def test_theorem1_lower_bound(self, controller, data, query):
        bound = PIMEuclideanBound(controller)
        bound.prepare(data)
        lb = bound.evaluate(query)
        ed = euclidean_batch(data, query)
        assert np.all(lb <= ed + 1e-9)
        assert np.all(lb >= 0.0)

    def test_theorem3_error_bound(self, data, query):
        quantizer = Quantizer(alpha=1000, assume_normalized=True)
        bound = PIMEuclideanBound(PIMController(), quantizer)
        bound.prepare(data)
        lb = bound.evaluate(query)
        ed = euclidean_batch(data, query)
        assert np.all(ed - lb <= quantizer.error_bound(data.shape[1]) + 1e-9)

    def test_tightness_with_paper_alpha(self, controller, data, query):
        bound = PIMEuclideanBound(controller)
        bound.prepare(data)
        lb = bound.evaluate(query)
        ed = euclidean_batch(data, query)
        nonzero = ed > 1e-6
        assert (lb[nonzero] / ed[nonzero]).mean() > 0.999

    def test_subset_indices(self, controller, data, query):
        bound = PIMEuclideanBound(controller)
        bound.prepare(data)
        full = bound.evaluate(query)
        idx = np.array([1, 4, 9])
        assert np.allclose(bound.evaluate(query, idx), full[idx])

    def test_wave_cache_avoids_refiring(self, controller, data, query):
        bound = PIMEuclideanBound(controller)
        bound.prepare(data)
        bound.evaluate(query)
        waves = controller.pim.stats.waves
        bound.evaluate(query, np.array([0, 1]))
        assert controller.pim.stats.waves == waves

    def test_new_query_fires_new_wave(self, controller, data, query, rng):
        bound = PIMEuclideanBound(controller)
        bound.prepare(data)
        bound.evaluate(query)
        waves = controller.pim.stats.waves
        bound.evaluate(np.clip(query + 0.01 * rng.standard_normal(32), 0, 1))
        assert controller.pim.stats.waves == waves + 1

    def test_transfer_is_three_operands(self, controller):
        assert PIMEuclideanBound(controller).per_object_transfer_bits == 96

    def test_reprepare_same_data_is_noop(self, controller, data):
        bound = PIMEuclideanBound(controller)
        bound.prepare(data)
        crossbars = controller.pim.stats.crossbars_used
        bound.prepare(data)
        assert controller.pim.stats.crossbars_used == crossbars

    def test_reprepare_equal_copy_is_noop(self, controller, data):
        bound = PIMEuclideanBound(controller)
        bound.prepare(data)
        stats = controller.pim.stats
        before = (stats.crossbars_used, stats.programming_time_ns)
        bound.prepare(data.copy())
        assert (stats.crossbars_used, stats.programming_time_ns) == before
        assert bound.prepared_on is data

    def test_reprepare_different_data_raises(self, controller, data, rng):
        bound = PIMEuclideanBound(controller)
        bound.prepare(data)
        with pytest.raises(OperandError, match="different dataset"):
            bound.prepare(rng.random((10, 32)))

    def test_unprepared_raises(self, controller, query):
        with pytest.raises(OperandError):
            PIMEuclideanBound(controller).evaluate(query)

    def test_evaluate_matrix_matches_loop(self, controller, data, rng):
        bound = PIMEuclideanBound(controller)
        bound.prepare(data)
        queries = np.clip(rng.random((4, data.shape[1])), 0, 1)
        matrix = bound.evaluate_matrix(queries)
        assert matrix.shape == (data.shape[0], 4)
        for j, q in enumerate(queries):
            assert np.allclose(matrix[:, j], bound.evaluate(q))


class TestPIMFNNBound:
    def test_theorem2_below_lb_fnn(self, controller, data, query):
        original = FNNBound(8)
        original.prepare(data)
        pim = PIMFNNBound(8, controller)
        pim.prepare(data)
        assert np.all(pim.evaluate(query) <= original.evaluate(query) + 1e-9)

    def test_also_below_ed(self, controller, data, query):
        pim = PIMFNNBound(4, controller)
        pim.prepare(data)
        assert np.all(
            pim.evaluate(query) <= euclidean_batch(data, query) + 1e-9
        )

    def test_single_wave_covers_means_and_stds(self, controller, data, query):
        pim = PIMFNNBound(8, controller)
        pim.prepare(data)
        waves = controller.pim.stats.waves
        pim.evaluate(query)
        assert controller.pim.stats.waves == waves + 1
        layout = controller.pim.layouts()[pim._matrix_name]
        assert layout.dims == 2 * 8  # concatenated mu/sigma

    @pytest.mark.parametrize("length", [1, 4])
    def test_programmed_summary_keeps_the_general_formula(
        self, controller, data, monkeypatch, length
    ):
        segments = data.shape[1] // length
        pim = PIMFNNBound(segments, controller)
        programmed = {}
        program = controller.program

        def spy(name, matrix, *args, **kwargs):
            programmed[name] = matrix
            return program(name, matrix, *args, **kwargs)

        monkeypatch.setattr(controller, "program", spy)
        pim.prepare(data)
        summary = summarize(pim.quantizer.scale(data), segments)
        assert summary.segment_length == length
        means, stds = summary.means, summary.stds
        floors = np.floor(np.concatenate([means, stds], axis=1)).astype(
            np.int64
        )
        phi = (
            (means**2).sum(axis=1)
            + (stds**2).sum(axis=1)
            - 2.0 * floors.sum(axis=1)
        )
        matrix = programmed[pim._matrix_name]
        assert matrix.dtype == floors.dtype
        assert np.array_equal(matrix, floors)
        assert pim._phi.tobytes() == phi.tobytes()


class TestPIMSMBound:
    def test_below_lb_sm(self, controller, data, query):
        original = SMBound(8)
        original.prepare(data)
        pim = PIMSMBound(8, controller)
        pim.prepare(data)
        assert np.all(pim.evaluate(query) <= original.evaluate(query) + 1e-9)


class TestPIMOSTBound:
    def test_below_lb_ost(self, controller, data, query):
        original = OSTBound(head_dims=16)
        original.prepare(data)
        pim = PIMOSTBound(16, controller)
        pim.prepare(data)
        assert np.all(pim.evaluate(query) <= original.evaluate(query) + 1e-9)

    def test_below_ed(self, controller, data, query):
        pim = PIMOSTBound(16, controller)
        pim.prepare(data)
        assert np.all(
            pim.evaluate(query) <= euclidean_batch(data, query) + 1e-9
        )

    def test_rejects_head_at_full_dims(self, controller, data):
        pim = PIMOSTBound(data.shape[1], controller)
        with pytest.raises(OperandError):
            pim.prepare(data)


class TestPIMCosineBound:
    def test_upper_bounds_cosine(self, controller, data, query):
        bound = PIMCosineBound(controller)
        bound.prepare(data)
        ub = bound.evaluate(query)
        cs = cosine_batch(data, query)
        assert np.all(ub >= cs - 1e-9)
        assert np.all(ub <= 1.0 + 1e-12)


class TestPIMPearsonBound:
    def test_upper_bounds_pearson(self, controller, data, query):
        bound = PIMPearsonBound(controller)
        bound.prepare(data)
        ub = bound.evaluate(query)
        pc = pearson_batch(data, query)
        assert np.all(ub >= pc - 1e-9)

    def test_constant_row_never_pruned(self, controller, rng):
        data = rng.random((20, 8))
        data[3] = 0.5  # zero variance
        bound = PIMPearsonBound(controller)
        bound.prepare(data)
        ub = bound.evaluate(rng.random(8))
        assert ub[3] == pytest.approx(1.0)


class TestPIMHammingDistance:
    @pytest.fixture
    def binary_controller(self):
        return PIMController(
            HardwareConfig(
                pim=PIMArrayConfig(operand_bits=1, accumulator_bits=32)
            )
        )

    def test_exact_distance(self, binary_controller, rng):
        codes = rng.integers(0, 2, size=(50, 128))
        q = rng.integers(0, 2, size=128)
        hd = PIMHammingDistance(binary_controller)
        hd.prepare(codes)
        assert np.array_equal(
            hd.evaluate(q).astype(int), hamming_batch(codes, q)
        )

    def test_two_waves_per_query(self, binary_controller, rng):
        codes = rng.integers(0, 2, size=(10, 64))
        hd = PIMHammingDistance(binary_controller)
        hd.prepare(codes)
        waves = binary_controller.pim.stats.waves
        hd.evaluate(rng.integers(0, 2, size=64))
        assert binary_controller.pim.stats.waves == waves + 2

    def test_transfer_is_two_results(self, binary_controller):
        hd = PIMHammingDistance(binary_controller)
        assert hd.per_object_transfer_bits == 64

    def test_rejects_non_binary(self, binary_controller):
        hd = PIMHammingDistance(binary_controller)
        with pytest.raises(OperandError):
            hd.prepare(np.array([[0, 2]]))


class TestSharedController:
    def test_multiple_bounds_share_capacity(self, controller, data):
        b1 = PIMEuclideanBound(controller)
        b2 = PIMFNNBound(8, controller)
        b1.prepare(data)
        used = controller.pim.stats.crossbars_used
        b2.prepare(data)
        assert controller.pim.stats.crossbars_used > used
        assert len(controller.pim.layouts()) == 2
