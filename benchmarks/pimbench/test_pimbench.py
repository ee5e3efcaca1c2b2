"""Self-test of pimbench at --quick size.

Run with ``PYTHONPATH=src pytest benchmarks/pimbench -q``. Each
benchmark invocation runs as a subprocess exactly as a user would run
it; the module-scoped fixtures share the quick runs between tests.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pimbench import verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRIPT = HERE / "pimbench.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=SCRIPT):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("pimbench") / "quick.json"
    done = bench("run", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text()), out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("pimbench") / "trace.json"
    done = bench("trace", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text())


def knn_clean_run(seed: int, tmp_path: Path) -> dict:
    out = tmp_path / f"seed{seed}.json"
    done = bench("run", "--quick", "--workload", "knn-clean",
                 "--seed", str(seed), "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())["runs"][0]


def printed(stdout: str, name: str, unit: str) -> int:
    """Rows printing ``name`` followed by its unit."""
    pattern = rf"^\s+{re.escape(name)}\s+{re.escape(unit)}\s+\S"
    return len(re.findall(pattern, stdout, flags=re.MULTILINE))


def test_every_end_to_end_metric_is_printed_with_its_unit(quick):
    stdout, _, _ = quick
    for metric in SPEC["end_to_end"]:
        assert printed(stdout, metric["name"], metric["unit"]) == len(WORKLOADS)


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    stdout, _ = traced
    for metric in SPEC["per_layer"]:
        assert printed(stdout, metric["name"], metric["unit"]) == len(WORKLOADS)


def test_last_line_is_the_result_object(quick):
    stdout, _, _ = quick
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    for entry in line["metrics"].values():
        assert set(entry) == {"value", "unit"}


def test_single_workload_reports_exactly_the_declared_metrics(tmp_path):
    done = bench("run", "--quick", "--workload", "mine-offline")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_layer_shares_sum_to_one(traced):
    _, record = traced
    for run in record["runs"]:
        shares = [
            m["value"] for name, m in run["layers"].items()
            if name.endswith(".share")
        ]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_every_answer_matches_the_oracle(quick, traced):
    for record in (quick[1], traced[1]):
        for run in record["runs"]:
            assert run["extra"]["exact_mismatches"] == 0
            assert run["correct"] and run["deterministic"]


def test_faulted_workload_exercises_every_recovery_path(quick):
    (run,) = [r for r in quick[1]["runs"] if r["workload"] == "knn-faulted"]
    for gate in ("retries", "failovers", "corrupt_detected",
                 "rereplications", "hedges"):
        assert run["gates"][gate]["observed"] > 0


def test_tracing_leaves_simulated_results_identical(quick, traced):
    plain = {r["workload"]: r for r in quick[1]["runs"]}
    for run in traced[1]["runs"]:
        assert run["sim_digest"] == plain[run["workload"]]["sim_digest"]
        assert run["sim"] == plain[run["workload"]]["sim"]


def test_same_seed_repeats_and_new_seed_changes(quick, tmp_path):
    first = {r["workload"]: r for r in quick[1]["runs"]}["knn-clean"]
    again = knn_clean_run(0, tmp_path)
    other = knn_clean_run(1, tmp_path)
    assert again["sim_digest"] == first["sim_digest"]
    assert again["sim"] == first["sim"]
    assert other["sim_digest"] != first["sim_digest"]
    assert other["sim"] != first["sim"]


def test_compare_of_a_record_with_itself_is_no_change(quick):
    _, _, path = quick
    done = bench("compare", str(path), str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [l for l in done.stdout.splitlines()[1:] if "sim_digest" not in l]
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert all(row.endswith("no change") for row in rows)
    assert done.stdout.count("sim identical on 1 shared seeds") == len(WORKLOADS)


def test_verdict_rules():
    parent = [100.0 + i for i in range(10)]
    faster = [130.0 + i for i in range(10)]
    slower = [70.0 + i for i in range(10)]
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    assert verdict(parent, faster, "higher", 0.1)["verdict"] == "improved"
    assert verdict(parent, slower, "higher", 0.1)["verdict"] == "REGRESSED"
    assert verdict(parent, parent, "higher", 0.1)["verdict"] == "no change"
    assert verdict(noisy, slower, "higher", 0.1)["verdict"] == "unresolved"
    # too few pairs to claim a gain, however large
    assert verdict(parent[:5], faster[:5], "higher", 0.1)["verdict"] == "no change"


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    target = tmp_path / HERE.relative_to(ROOT)
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("run", "--workload", "knn-clean", "--seed", "1",
                 "--seconds", "5", "--trace", "0",
                 cwd=tmp_path, script=target / "pimbench.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
