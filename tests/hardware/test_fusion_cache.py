"""Regression tests: no wave outlives a reprogram or remap.

Every event that changes what the crossbars physically hold — reset +
reprogram under the same name, a spare-pool remap of one crossbar, bulk
remaps — must leave the next wave reading the live matrix, on the
default array and on the cell-level loop oracle. A stale copy would
silently serve the *previous* matrix's bits: exactly the class of bug
these tests pin. The oracle must also book that traffic exactly as
production does, so a diff of the two checks the kernel alone.
"""

import numpy as np
import pytest

from repro.hardware.config import (
    CrossbarConfig,
    HardwareConfig,
    PIMArrayConfig,
)
from repro.hardware.pim_array import PIMArray
from repro.oracle import LoopPIMArray


@pytest.fixture()
def platform():
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


@pytest.fixture()
def matrix():
    return (np.arange(9 * 14, dtype=np.int64).reshape(9, 14) * 13) % 251


@pytest.fixture()
def query():
    return (np.arange(14, dtype=np.int64) * 7) % 256


class TestDecompositionCache:
    """Waves after reprogram and remap events read the live matrix."""

    def test_reprogram_same_name_serves_fresh_values(
        self, platform, matrix, query
    ):
        array = LoopPIMArray(platform)
        array.program_matrix("m", matrix)
        stale = array.query("m", query).values
        successor = (matrix + 1) % 251
        array.reset_matrix("m")
        array.program_matrix("m", successor)
        fresh = array.query("m", query).values
        assert not np.array_equal(fresh, stale)
        oracle = PIMArray(platform)
        oracle.program_matrix("m", successor)
        assert np.array_equal(fresh, oracle.query("m", query).values)

    def test_bulk_remap_preserves_values(self, platform, matrix, query):
        array = LoopPIMArray(platform, spare_crossbars=4)
        array.program_matrix("m", matrix)
        expected = array.query("m", query).values
        victims = array.unit_ids_of("m")[:2]
        spares, _ = array.remap_crossbars(victims)
        assert len(spares) == 2
        assert array.spares_remaining == 2
        assert np.array_equal(array.query("m", query).values, expected)

    def test_remap_invalidates_reference_path_too(
        self, platform, matrix, query
    ):
        # the loop oracle reads live crossbar objects, so a remap (which
        # only renames ids) must not perturb its values either
        array = LoopPIMArray(platform, spare_crossbars=2)
        array.program_matrix("m", matrix)
        expected = array.query("m", query).values
        array.remap_crossbar(array.unit_ids_of("m")[0])
        assert np.array_equal(array.query("m", query).values, expected)

    def test_fast_path_values_survive_remap_and_reset(
        self, platform, matrix, query
    ):
        # the fast path's resident float64 copy is the only copy: a remap
        # must not touch it, and reset + reprogram must rebuild it exactly
        array = PIMArray(platform, spare_crossbars=2)
        array.program_matrix("m", matrix)
        queries = np.vstack([query, (query * 3) % 256])
        expected = array.query_batch("m", queries).values
        array.remap_crossbar(array.unit_ids_of("m")[0])
        assert np.array_equal(array.query_batch("m", queries).values, expected)
        assert np.array_equal(array.query("m", query).values, expected[0])
        assert np.array_equal(array.matrix_of("m"), matrix)
        array.reset_matrix("m")
        array.program_matrix("m", matrix)
        assert np.array_equal(array.query_batch("m", queries).values, expected)
        assert array.matrix_of("m").dtype == np.int64

    def test_batch_after_reprogram_matches_fast_path(self, platform, matrix):
        queries = (np.arange(3 * 14, dtype=np.int64).reshape(3, 14) * 5) % 256
        array = LoopPIMArray(platform)
        array.program_matrix("m", matrix)
        array.query_batch("m", queries)
        successor = (matrix * 3) % 256
        array.reset_matrix("m")
        array.program_matrix("m", successor)
        oracle = PIMArray(platform)
        oracle.program_matrix("m", successor)
        assert np.array_equal(
            array.query_batch("m", queries).values,
            oracle.query_batch("m", queries).values,
        )


class TestOracleBookkeeping:
    def test_oracle_books_like_production(self, platform, matrix, query):
        # program, remap one crossbar, reset and reprogram: the loop
        # oracle allocates, wears and remaps crossbars as production does
        arrays = (
            PIMArray(platform, spare_crossbars=2),
            LoopPIMArray(platform, spare_crossbars=2),
        )
        for array in arrays:
            array.program_matrix("m", matrix)
            array.query("m", query)
            array.remap_crossbar(array.unit_ids_of("m")[1])
            array.reset_matrix("m")
            array.program_matrix("m", (matrix * 3) % 256)
            array.program_matrix("n", matrix[:4])
            array.query_batch("m", np.vstack([query, query // 2]))
        prod, loop = arrays
        for name in ("m", "n"):
            assert loop.unit_ids_of(name) == prod.unit_ids_of(name)
        assert loop.wear_report() == prod.wear_report()
        assert loop.spares_remaining == prod.spares_remaining == 1
        assert loop.stats == prod.stats
