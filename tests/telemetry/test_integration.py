"""Acceptance tests: traces reconcile with the profiler and the CLI.

The headline guarantee of the telemetry layer is that it measures the
*same* simulated time the profiler reports: summed ``pim_dispatch``
span durations equal the profile's ``pim_time_ns`` to within a
nanosecond, both through the API and through
``repro knn --pim --trace-out ... --metrics-out ...``.
"""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.framework import PIMAccelerator
from repro.core.profiler import profile_knn
from repro.hardware.controller import PIMController
from repro.mining.knn import make_pim_variant
from repro.telemetry import telemetry_session
from repro.telemetry.validate import validate_metrics, validate_trace


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    return rng.random((60, 24)), rng.random((4, 24))


class TestProfilerReconciliation:
    @pytest.mark.parametrize("substrate", ["crossbar", "hbm_pim"])
    def test_pim_dispatch_spans_sum_to_profiled_wave_time(
        self, workload, substrate
    ):
        data, queries = workload
        with telemetry_session() as tele:
            algo = make_pim_variant(
                "Standard-PIM", 24, 60,
                controller=PIMController(substrate=substrate),
            )
            algo.fit(data)
            profile = profile_knn(
                algo, queries, 5, batch_size=len(queries)
            )
        assert tele.span_time_ns("pim_dispatch") == pytest.approx(
            profile.pim_time_ns, abs=1.0
        )

    def test_cpu_spans_sum_to_profiled_cpu_time(self, workload):
        data, queries = workload
        with telemetry_session() as tele:
            algo = make_pim_variant(
                "Standard-PIM", 24, 60, controller=PIMController()
            )
            algo.fit(data)
            profile = profile_knn(algo, queries, 5)
        assert tele.span_time_ns("cpu") == pytest.approx(
            profile.cpu_time_ns, rel=1e-9, abs=1.0
        )

    def test_profile_gauges_mirror_the_figures(self, workload):
        data, queries = workload
        with telemetry_session() as tele:
            algo = make_pim_variant(
                "Standard-PIM", 24, 60, controller=PIMController()
            )
            algo.fit(data)
            profile = profile_knn(algo, queries, 5)
        prefix = f"profiler.{profile.name}"
        gauge = tele.metrics.get(f"{prefix}.pim_time_ns")
        assert gauge is not None and gauge.value == profile.pim_time_ns
        for component, fraction in profile.component_fractions().items():
            recorded = tele.metrics.get(f"{prefix}.component.{component}")
            assert recorded is not None and recorded.value == fraction


class TestFrameworkPhases:
    def test_kmeans_pipeline_emits_phase_and_iteration_spans(self):
        rng = np.random.default_rng(3)
        data = rng.random((50, 12))
        with telemetry_session() as tele:
            PIMAccelerator().accelerate_kmeans(
                "Standard", data, k=4, max_iters=3
            )
        phases = {s.name for s in tele.finished_spans("phase")}
        assert {
            "phase.profile_baseline",
            "phase.build_pim",
            "phase.profile_pim",
            "phase.verify",
        } <= phases
        assert tele.finished_spans("iteration")
        assert "kmeans.center_waves" in tele.metrics
        assert tele.open_spans == 0


class TestCLIAcceptance:
    def test_knn_pim_trace_matches_reported_wave_time(self, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.jsonl"
        out = io.StringIO()
        code = main(
            [
                "knn", "--pim",
                "--dataset", "MSD", "--n", "80",
                "--queries", "3", "--k", "3",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ],
            out=out,
        )
        assert code == 0
        assert validate_trace(str(trace_path)) > 0
        assert validate_metrics(str(metrics_path)) > 0

        payload = json.loads(trace_path.read_text())
        dispatch_ns = sum(
            e["args"]["dur_ns"]
            for e in payload["traceEvents"]
            if e.get("cat") == "pim_dispatch"
        )
        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        reported = next(
            r["value"]
            for r in records
            if r["kind"] == "summary"
            and r["metric"] == "profiler.Standard-PIM.pim_time_ns"
        )
        # the acceptance criterion: span sum == profiler time (+-1 ns)
        assert abs(dispatch_ns - reported) <= 1.0

        sampled = {r["metric"] for r in records if r["kind"] == "sample"}
        assert "pim.waves" in sampled
        assert "pim.batch_flushes" in sampled
        assert "prune.ratio" in sampled

    def test_flags_absent_means_no_files_and_same_output(self, tmp_path):
        plain, again = io.StringIO(), io.StringIO()
        argv = [
            "knn", "--pim", "--dataset", "MSD", "--n", "60",
            "--queries", "2", "--k", "3",
        ]
        assert main(argv, out=plain) == 0
        traced = io.StringIO()
        trace_path = tmp_path / "t.json"
        assert main(
            argv + ["--trace-out", str(trace_path)], out=traced
        ) == 0
        assert main(argv, out=again) == 0
        # telemetry never changes what the simulator computes or prints
        assert plain.getvalue() == again.getvalue()
        assert traced.getvalue().startswith(plain.getvalue())
