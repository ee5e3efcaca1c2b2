"""Table 7 — k-means clustering time per iteration, full grid.

Paper grid: {Year, Notre, NUS-WIDE, Enron} x k in {4, 64, 256, 1024} x
{Standard, Elkan, Drake, Yinyang} x {baseline, -PIM}, reporting
ms/iteration. We run the same grid with k scaled to the dataset sizes
(k=1024 needs N >> k, so the largest k is 256 here).

Every -PIM variant must return its baseline's assignments and centers
bit for bit.

Expected shapes (paper Section VI-D):
* every -PIM variant is at least as fast as its baseline;
* Standard-PIM shows the largest, consistent speedup, growing with k
  and d (the paper reports up to 33.4x);
* Elkan gains the least from PIM (bound maintenance dominates it);
* at large k Elkan's own overhead can exceed Standard's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiler import profile_kmeans
from repro.core.report import format_table
from repro.mining.kmeans import initial_centers, make_kmeans

DATASETS = ["Year", "Notre", "NUS-WIDE", "Enron"]
KS = [4, 64, 256]
ALGORITHMS = ["Standard", "Elkan", "Drake", "Yinyang"]
MAX_ITERS = 3

_collected_rows: list[list] = []
_speedups: dict = {}


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("k", KS)
def test_table7_cell(benchmark, kmeans_datasets, save_results, dataset, k):
    data = kmeans_datasets[dataset]
    centers = initial_centers(data, k, seed=1)
    _run_cell(benchmark, save_results, dataset, k, data, centers)


def test_table7_paper_k1024(benchmark, save_results):
    """The paper's largest k, on an enlarged Year so N >> k."""
    from repro.data.catalog import make_dataset

    k = 1024
    data = make_dataset("Year", n=2048, seed=0)
    centers = initial_centers(data, k, seed=1)
    _run_cell(benchmark, save_results, "Year(n=2048)", k, data, centers)


def _run_cell(benchmark, save_results, dataset, k, data, centers):
    row = [dataset, k]
    cell_speedups = {}
    for name in ALGORITHMS:
        base = profile_kmeans(
            make_kmeans(name, k, max_iters=MAX_ITERS), data,
            centers=centers.copy(),
        )
        pim = profile_kmeans(
            make_kmeans(f"{name}-PIM", k, max_iters=MAX_ITERS), data,
            centers=centers.copy(),
        )
        got, want = pim.results[0], base.results[0]
        assert np.array_equal(got.assignments, want.assignments) and (
            np.array_equal(got.centers, want.centers)
        ), f"{name} on {dataset} k={k} diverged from its baseline"
        base_ms = base.extras["time_per_iteration_ms"]
        pim_ms = pim.extras["time_per_iteration_ms"]
        cell_speedups[name] = base_ms / pim_ms
        row.extend([base_ms, pim_ms])
    _collected_rows.append(row)
    _speedups[(dataset, k)] = cell_speedups

    headers = ["dataset", "k"]
    for name in ALGORITHMS:
        headers.extend([name, f"{name}-PIM"])
    text = format_table(
        headers,
        sorted(_collected_rows, key=lambda r: (r[0], r[1])),
        title="Table 7: k-means execution time per iteration (ms)",
    )
    save_results("table7_kmeans", text)

    # paper shape: PIM never loses, Standard gains the most
    assert all(s >= 0.95 for s in cell_speedups.values()), cell_speedups
    if k >= 64:
        assert cell_speedups["Standard"] >= cell_speedups["Elkan"] - 0.2

    algo = make_kmeans("Standard-PIM", k, max_iters=1)
    benchmark.pedantic(
        lambda: algo.fit(data, centers.copy()), rounds=1, iterations=1
    )
