"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import _fault_plan, build_parser, main
from repro.faults import FaultPlan
from repro.hardware import FailureDomainTopology


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["knn", "--dataset", "CIFAR"])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["knn", "--algorithm", "Annoy"])


class TestBadInput:
    """Bad flags or data end in one error line and a family exit code."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["knn", "--n", "50", "--k", "0", "--queries", "1"], 2),
            (["knn", "--data-file", "/missing.npy"], 3),
            (["knn", "--n", "0"], 2),
            (["knn", "--queries", "0"], 2),
            (["kmeans", "--k", "0"], 2),
        ],
    )
    def test_one_error_line_no_traceback(self, argv, code, capsys):
        try:
            got = main(argv, out=io.StringIO())
        except SystemExit as exc:  # argparse rejects the flag
            got = exc.code
        err = capsys.readouterr().err
        assert got == code
        assert "Traceback" not in err
        errors = [ln for ln in err.splitlines() if ": error: " in ln]
        assert len(errors) == 1
        assert errors[0].startswith(f"repro {argv[0]}: error: ")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--rate", "0"],
            ["--rate", "nan"],
            ["--live-report", "0"],
            ["--deadline-us", "-1"],
            ["--burn-window-us", "0"],
            ["--repair", "--scrub-period", "0"],
            ["--k", "0"],
            ["--spares", "-1"],
            ["--topology", "2x2"],
            ["--topology", "2x0x1"],
            ["--domain-outage"],
            ["--hedge-budget", "2"],
            ["--hedge-budget", "-0.5"],
        ],
    )
    def test_bad_serve_flag_exits_2(self, flags, capsys):
        argv = ["serve", "--n", "60", "--requests", "5", *flags]
        self.test_one_error_line_no_traceback(argv, 2, capsys)

    @pytest.mark.parametrize(
        "argv",
        [["profile", "--k", "0"], ["kmeans", "--max-iters", "0"]],
    )
    def test_bad_count_flag_exits_2(self, argv, capsys):
        self.test_one_error_line_no_traceback(argv, 2, capsys)


class TestInfo:
    def test_prints_platform_and_catalog(self):
        code, text = run_cli("info")
        assert code == 0
        assert "131072 crossbars" in text
        assert "MSD" in text and "Trevi" in text


class TestKNNCommand:
    def test_standard_run(self):
        code, text = run_cli(
            "knn", "--dataset", "Year", "--n", "400", "--queries", "2",
            "--k", "5",
        )
        assert code == 0
        assert "results exact  : True" in text
        assert "speedup" in text

    def test_cosine_measure(self):
        code, text = run_cli(
            "knn", "--dataset", "Year", "--n", "300", "--queries", "1",
            "--measure", "cosine",
        )
        assert code == 0
        assert "results exact  : True" in text

    def test_plan_optimization_note_for_non_fnn(self):
        code, text = run_cli(
            "knn", "--dataset", "Year", "--n", "300", "--queries", "1",
            "--optimize-plan",
        )
        assert code == 0
        assert "only applies to FNN" in text


class TestKMeansCommand:
    def test_standard_run(self):
        code, text = run_cli(
            "kmeans", "--dataset", "Year", "--n", "300", "--k", "6",
            "--max-iters", "4",
        )
        assert code == 0
        assert "same clustering: True" in text


class TestProfileCommand:
    def test_knn_profile(self):
        code, text = run_cli(
            "profile", "--dataset", "Year", "--n", "300", "--task", "knn",
        )
        assert code == 0
        assert "Tcache" in text
        assert "PIM-oracle" in text

    def test_kmeans_profile(self):
        code, text = run_cli(
            "profile", "--dataset", "Year", "--n", "300",
            "--task", "kmeans", "--algorithm", "Yinyang", "--k", "6",
        )
        assert code == 0
        assert "ED" in text


class TestServeCommand:
    def test_plain_serve_reports_health(self):
        code, text = run_cli(
            "serve", "--dataset", "Year", "--n", "200", "--shards", "2",
            "--requests", "10",
        )
        assert code == 0
        assert "health         : shard0=up shard1=up" in text

    def test_self_healing_serve_run(self):
        code, text = run_cli(
            "serve", "--dataset", "Year", "--n", "240", "--shards", "4",
            "--replication", "2", "--requests", "20", "--chaos",
            "--repair", "--spares", "12", "--scrub-period", "200",
        )
        assert code == 0
        assert "health         :" in text
        assert "scrubber       :" in text
        assert "repair         :" in text
        assert "replicas       :" in text

    def test_observability_serve_run(self, tmp_path):
        trace = tmp_path / "serve.trace.json"
        prom = tmp_path / "serve.prom"
        code, text = run_cli(
            "serve", "--dataset", "Year", "--n", "240", "--shards", "2",
            "--requests", "20", "--live-report", "10",
            "--burn-window-us", "20",
            "--trace-out", str(trace), "--prom-out", str(prom),
        )
        assert code == 0
        assert "live report" in text
        assert "alerts         :" in text
        assert "slowest request (critical path):" in text
        assert "prom written   :" in text
        assert trace.exists() and prom.exists()
        assert prom.read_text().rstrip().endswith("# EOF")


class TestServeFaultPlan:
    """``--chaos``, ``--gray-chaos`` and ``--domain-outage`` compose."""

    HORIZON_NS = 2e6

    @pytest.mark.parametrize(
        "flags, parts",
        [
            (["--chaos"], ["chaos"]),
            (["--gray-chaos"], ["gray"]),
            (["--chaos", "--gray-chaos"], ["chaos", "gray"]),
            (["--gray-chaos", "--domain-outage", "1"], ["gray", "outage"]),
            (
                ["--chaos", "--gray-chaos", "--domain-outage", "1"],
                ["chaos", "gray", "outage"],
            ),
        ],
    )
    def test_plans_merge_under_the_fault_seed(self, flags, parts):
        args = build_parser().parse_args(
            ["serve", "--shards", "4", "--fault-seed", "5",
             "--topology", "2x1x1", *flags]
        )
        topology = FailureDomainTopology(
            n_shards=4, shards_per_board=2, boards_per_channel=1,
            channels_per_power_domain=1,
        )
        h = self.HORIZON_NS
        made = {
            "chaos": FaultPlan.chaos(4, h, seed=5),
            "gray": FaultPlan.gray_chaos(4, h, seed=6),
            "outage": FaultPlan.domain_outage(
                topology, h, seed=7, outage_domains=1
            ),
        }
        plan = _fault_plan(args, topology, h)
        events = [e for part in parts for e in made[part].events]
        assert len(plan) == len(events)
        # FaultPlan keeps its events sorted by (t_ns, target, kind)
        assert plan.describe() == FaultPlan(events).describe()
        # a lone plan keeps its own seed; a merge takes --fault-seed
        assert plan.seed == (made[parts[0]].seed if len(parts) == 1 else 5)

    def test_no_fault_flag_means_no_plan(self):
        args = build_parser().parse_args(["serve"])
        assert _fault_plan(args, None, self.HORIZON_NS) is None
