"""Command-line interface: ``python -m repro <command>``.

Runs the paper's pipeline from a shell without writing code:

* ``info`` — the simulated platforms and the dataset catalog;
* ``knn`` — accelerate a kNN baseline on a catalog dataset;
* ``kmeans`` — accelerate a k-means baseline;
* ``profile`` — Section IV profiling of a baseline (components,
  functions, PIM-oracle);
* ``serve`` — sharded multi-array query serving with admission control
  and SLO tracking (the ``repro.serving`` subsystem).

Examples::

    python -m repro info
    python -m repro knn --dataset MSD --algorithm FNN --k 10 --optimize-plan
    python -m repro kmeans --dataset Year --algorithm Drake --k 64
    python -m repro profile --dataset MSD --algorithm Standard --task knn
    python -m repro serve --dataset MSD --shards 4 --requests 200
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.core.framework import PIMAccelerator
from repro.core.profiler import profile_kmeans, profile_knn
from repro.core.report import (
    format_batch_stats,
    format_fractions,
    format_table,
)
from repro.data.catalog import PROFILES, make_dataset, make_queries
from repro.errors import (
    CapacityError,
    ConfigurationError,
    DatasetError,
    OperandError,
    PlanError,
    ReproError,
)
from repro.hardware.config import pim_platform
from repro.mining.kmeans import initial_centers, make_kmeans
from repro.mining.knn import make_baseline

KNN_ALGORITHMS = ("Standard", "OST", "SM", "FNN")
KMEANS_ALGORITHMS = ("Standard", "Elkan", "Drake", "Yinyang")

#: Exit code of a command that stopped on a library error, by exception
#: family (first match wins). 0 is success, 1 a PIM result that differs
#: from its baseline, 2 a bad command line (argparse).
ERROR_EXIT_CODES = (
    ((DatasetError, OperandError), 3),  # the input data
    ((ConfigurationError, CapacityError, PlanError), 4),  # the settings
    ((ReproError,), 5),  # faults, serving, checkpoints
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < float("inf"):  # also rejects nan
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return value


def _topology(text: str) -> tuple[int, int, int]:
    """``SxBxC`` as three positive ints."""
    try:
        parts = tuple(_positive_int(part) for part in text.lower().split("x"))
    except (ValueError, argparse.ArgumentTypeError):
        parts = ()
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expects SxBxC of positive ints (e.g. 2x2x1), got {text!r}"
        )
    return parts


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="MSD", choices=sorted(PROFILES),
        help="Table 6 dataset stand-in",
    )
    parser.add_argument(
        "--n", type=_positive_int, default=None,
        help="override the scaled dataset cardinality",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="dataset RNG seed"
    )
    parser.add_argument(
        "--pim-mib", type=int, default=2048,
        help="PIM array capacity in MiB (paper default: 2048)",
    )
    parser.add_argument(
        "--data-file", default=None,
        help=(
            "run on your own dataset (.npy/.npz/.csv/.txt; min-max "
            "normalised automatically) instead of the synthetic catalog"
        ),
    )
    add_telemetry_args(parser)


def add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace-out``/``--metrics-out`` options.

    Pair with :func:`telemetry_scope`; benchmarks reuse both so every
    entry point exposes identical telemetry wiring.
    """
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help=(
            "record simulated-clock spans and write a Chrome/Perfetto "
            "trace file (open at https://ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="record telemetry metrics and write a JSONL snapshot",
    )
    parser.add_argument(
        "--prom-out", default=None, metavar="FILE",
        help=(
            "record telemetry metrics and write a Prometheus-style "
            "text snapshot (latency histograms carry exemplar trace ids)"
        ),
    )


@contextmanager
def telemetry_scope(args: argparse.Namespace, out=None) -> Iterator:
    """Run a block under telemetry when the shared flags ask for it.

    Yields the active recorder (or ``None`` when neither flag is set)
    and writes the requested trace/metrics files on exit — the wiring
    previously duplicated by every subcommand.
    """
    out = out if out is not None else sys.stdout
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    prom_out = getattr(args, "prom_out", None)
    if trace_out is None and metrics_out is None and prom_out is None:
        yield None
        return

    from repro.telemetry import telemetry_session
    from repro.telemetry.export import (
        summarize_metrics,
        write_chrome_trace,
        write_metrics_jsonl,
        write_prometheus,
    )

    with telemetry_session() as tele:
        yield tele
    if trace_out is not None:
        n_events = write_chrome_trace(tele, trace_out)
        print(f"trace written  : {trace_out} ({n_events} events)", file=out)
    if metrics_out is not None:
        n_lines = write_metrics_jsonl(tele, metrics_out)
        print(f"metrics written: {metrics_out} ({n_lines} lines)", file=out)
        print(summarize_metrics(tele), file=out)
    if prom_out is not None:
        n_series = write_prometheus(tele, prom_out)
        print(
            f"prom written   : {prom_out} ({n_series} series)", file=out
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Accelerating Similarity-based Mining Tasks "
            "on High-dimensional Data by Processing-in-memory' (ICDE'21)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show platforms and dataset catalog")

    knn = sub.add_parser("knn", help="accelerate a kNN baseline")
    _add_common(knn)
    knn.add_argument(
        "--algorithm", default="Standard", choices=KNN_ALGORITHMS
    )
    knn.add_argument("--k", type=_positive_int, default=10)
    knn.add_argument("--queries", type=_positive_int, default=5)
    knn.add_argument(
        "--measure", default="euclidean",
        choices=("euclidean", "cosine", "pearson"),
    )
    knn.add_argument(
        "--optimize-plan", action="store_true",
        help="apply the Section V-D execution-plan optimizer (FNN only)",
    )
    knn.add_argument(
        "--batch-size", type=_positive_int, default=None,
        help="PIM wave batch size (default: the whole query workload; "
        "1 reproduces scalar dispatch)",
    )
    knn.add_argument(
        "--pim", action="store_true",
        help=(
            "profile only the PIM-optimized variant (no baseline or "
            "verification runs, so the trace's pim_dispatch spans sum "
            "exactly to the reported PIM wave time)"
        ),
    )
    knn.add_argument(
        "--substrate", default="crossbar", metavar="NAME",
        help=(
            "memory-side compute backend for --pim runs (registered: "
            "crossbar, hbm_pim); results are bit-identical, only the "
            "cost model changes"
        ),
    )

    kmeans = sub.add_parser("kmeans", help="accelerate a k-means baseline")
    _add_common(kmeans)
    kmeans.add_argument(
        "--algorithm", default="Standard", choices=KMEANS_ALGORITHMS
    )
    kmeans.add_argument("--k", type=_positive_int, default=16)
    kmeans.add_argument("--max-iters", type=_positive_int, default=10)

    profile = sub.add_parser(
        "profile", help="Section IV profiling of a baseline"
    )
    _add_common(profile)
    profile.add_argument("--task", default="knn", choices=("knn", "kmeans"))
    profile.add_argument("--algorithm", default="Standard")
    profile.add_argument("--k", type=_positive_int, default=10)

    serve = sub.add_parser(
        "serve", help="sharded multi-array query serving (repro.serving)"
    )
    # argparse checks flags one at a time; main() reports the serve
    # cross-flag rules through this parser, like any other bad flag
    serve.set_defaults(usage_error=serve.error)
    _add_common(serve)
    serve.add_argument(
        "--shards", type=_positive_int, default=4,
        help="PIM arrays the dataset is partitioned across",
    )
    serve.add_argument(
        "--placement", default="range", choices=("range", "hash")
    )
    serve.add_argument("--k", type=_positive_int, default=10)
    serve.add_argument(
        "--requests", type=_positive_int, default=200,
        help="open-loop arrivals to serve",
    )
    serve.add_argument(
        "--rate", type=_positive_float, default=None, metavar="QPS",
        help=(
            "offered load in simulated queries/second (default: sized "
            "to ~80%% of the measured single-node capacity)"
        ),
    )
    serve.add_argument(
        "--arrival", default="poisson", choices=("poisson", "bursty")
    )
    serve.add_argument(
        "--max-batch", type=_positive_int, default=8,
        help="requests per dispatched PIM batch wave",
    )
    serve.add_argument(
        "--queue-capacity", type=_positive_int, default=64
    )
    serve.add_argument(
        "--policy", default="reject",
        choices=("reject", "drop_oldest", "degrade"),
        help="backpressure when the admission queue is full",
    )
    serve.add_argument(
        "--deadline-us", type=_positive_float, default=None,
        help="per-request deadline (simulated us); late requests shed",
    )
    serve.add_argument(
        "--tenants", type=_positive_int, default=2,
        help="tenants in the mix (workload kinds rotate per tenant)",
    )
    serve.add_argument(
        "--replication", type=_positive_int, default=1,
        help="replicas per data chunk (>=2 survives a shard death)",
    )
    serve.add_argument(
        "--substrates", default=None, metavar="NAME[,NAME...]",
        help=(
            "substrate per shard: one name for a uniform fleet, or a "
            "comma list naming each shard's backend (heterogeneous "
            "placement; e.g. crossbar,hbm_pim,crossbar,hbm_pim)"
        ),
    )
    serve.add_argument(
        "--route", default="auto",
        choices=("auto", "latency", "energy", "none"),
        help=(
            "cost-router objective for replica selection: auto prices "
            "by latency on heterogeneous placements and stays off on "
            "uniform ones"
        ),
    )
    serve.add_argument(
        "--topology", type=_topology, default=None, metavar="SxBxC",
        help=(
            "failure-domain tree as shards-per-board x boards-per-"
            "channel x channels-per-power-domain (e.g. 2x2x1); turns "
            "on domain-spread replica placement and the durability "
            "accounting (at-risk chunks, spread violations)"
        ),
    )
    serve.add_argument(
        "--naive-placement", action="store_true",
        help=(
            "with --topology, keep the historical domain-oblivious "
            "ring placement (the naive arm of the DR comparison) "
            "while still reporting spread/at-risk accounting"
        ),
    )
    serve.add_argument(
        "--domain-outage", type=_positive_int, default=None,
        nargs="?", const=1, metavar="N",
        help=(
            "inject a seeded correlated outage: every shard of N "
            "whole power domains crashes simultaneously mid-run "
            "(requires --topology; composable with --chaos/--gray-chaos)"
        ),
    )
    serve.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help=(
            "write a crash-consistent checkpoint of the fleet to FILE "
            "after the run drains (atomic write-then-rename, SHA-256 "
            "integrity hashes)"
        ),
    )
    serve.add_argument(
        "--restore", default=None, metavar="FILE",
        help=(
            "cold-start the fleet from a checkpoint instead of "
            "building it fresh: dataset, placement, replication and "
            "topology come from the checkpoint (bit-identical "
            "answers); workload flags still shape the traffic"
        ),
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help=(
            "inject a seeded chaos fault plan (one shard killed "
            "mid-run, one corrupting waves) and report recovery"
        ),
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0, metavar="SEED",
        help="seed of the chaos fault plan (with --chaos)",
    )
    serve.add_argument(
        "--gray-chaos", action="store_true",
        help=(
            "inject a seeded gray-failure plan (a sustained straggler "
            "shard, an intermittently slow shard and a flaky "
            "host<->shard link) — slow-but-correct weather, "
            "composable with --chaos"
        ),
    )
    serve.add_argument(
        "--outlier-ejection", action="store_true",
        help=(
            "enable the gray-failure defenses: latency-outlier "
            "detection with ejection + probed re-admission, "
            "observed-latency replica routing, and adaptive "
            "p95-triggered hedging"
        ),
    )
    serve.add_argument(
        "--hedge-budget", type=_fraction, default=None, metavar="FRACTION",
        help=(
            "cap hedged waves at this fraction of dispatch attempts "
            "(implies --outlier-ejection)"
        ),
    )
    serve.add_argument(
        "--brownout", action="store_true",
        help=(
            "degrade overflow to approximate service instead of "
            "shedding while an SLO burn-rate alert is firing"
        ),
    )
    serve.add_argument(
        "--repair", action="store_true",
        help=(
            "attach the self-healing loop (repro.repair): background "
            "scrubbing during idle time, spare-crossbar remap of "
            "confirmed device faults, live re-replication of lost "
            "chunks, quarantine re-admission"
        ),
    )
    serve.add_argument(
        "--spares", type=_non_negative_int, default=0, metavar="N",
        help=(
            "spare crossbars reserved per shard as the remap pool "
            "(typically used with --repair)"
        ),
    )
    serve.add_argument(
        "--scrub-period", type=_positive_float, default=50_000.0,
        metavar="US",
        help=(
            "background scrub sweep period in simulated microseconds "
            "(with --repair); every shard is re-verified once per period"
        ),
    )
    serve.add_argument(
        "--live-report", nargs="?", const=500.0, default=None,
        type=_positive_float, metavar="US",
        help=(
            "print a periodic operational dashboard line every US "
            "simulated microseconds (default period: 500)"
        ),
    )
    serve.add_argument(
        "--burn-window-us", type=_positive_float, default=500.0,
        metavar="US",
        help=(
            "base window of the SLO burn-rate alert rules in simulated "
            "microseconds (fast rule: this window @ 14.4x; slow rule: "
            "6x this window @ 6x)"
        ),
    )
    return parser


# ----------------------------------------------------------------------
def _cmd_info(out) -> int:
    platform = pim_platform()
    print("Simulated PIM platform (paper Table 5):", file=out)
    rows = [
        ["CPU", f"{platform.cpu.frequency_hz / 1e9:.2f} GHz"],
        ["caches", "32 KB / 256 KB / 20 MB"],
        ["total memory", f"{platform.memory.total_bytes // 1024**3} GB"],
        ["PIM array", f"{platform.pim.capacity_bytes // 1024**3} GB"
                      f" ({platform.pim.num_crossbars} crossbars)"],
        ["crossbar", f"{platform.pim.crossbar.rows}x"
                     f"{platform.pim.crossbar.cols}, "
                     f"{platform.pim.crossbar.cell_bits}-bit cells"],
        ["internal bus", f"{platform.memory.internal_bus_gbs:.0f} GB/s"],
    ]
    print(format_table(["component", "value"], rows), file=out)
    from repro.substrate import available_substrates, substrate_capabilities

    print("\nRegistered compute substrates:", file=out)
    rows = []
    for name in available_substrates():
        caps = substrate_capabilities(name, platform)
        desc = caps.describe()
        rows.append(
            [
                name,
                desc["unit_name"],
                desc["memory_device"],
                f"{desc['endurance']:.0e}",
            ]
        )
    print(
        format_table(["substrate", "unit", "device", "endurance"], rows),
        file=out,
    )
    print("\nDataset catalog (scaled Table 6 stand-ins):", file=out)
    rows = [
        [p.name, p.dims, p.default_n, f"{p.paper_n:,}", p.description]
        for p in PROFILES.values()
    ]
    print(
        format_table(
            ["dataset", "d", "scaled N", "paper N", "character"], rows
        ),
        file=out,
    )
    return 0


def _platform(args):
    return pim_platform(pim_capacity_bytes=args.pim_mib * 1024**2)


def _load_data(args):
    """The workload matrix: a user file or the synthetic catalog."""
    if args.data_file is not None:
        from repro.data.loaders import load_matrix

        return load_matrix(args.data_file, max_rows=args.n)
    return make_dataset(args.dataset, n=args.n, seed=args.seed)


def _cmd_knn(args, out) -> int:
    data = _load_data(args)
    if args.data_file is not None:
        from repro.data.synthetic import queries_from

        queries = queries_from(data, args.queries, seed=args.seed + 1)
    else:
        queries = make_queries(args.dataset, data, n_queries=args.queries)
    if args.pim:
        return _cmd_knn_pim(args, data, queries, out)
    accelerator = PIMAccelerator(hardware=_platform(args))
    report = accelerator.accelerate_knn(
        args.algorithm,
        data,
        queries,
        k=args.k,
        measure=args.measure,
        optimize_plan=args.optimize_plan,
        batch_size=args.batch_size,
    )
    label = args.data_file if args.data_file else args.dataset
    print(f"dataset        : {label} {data.shape}", file=out)
    print(f"baseline       : {report.baseline.total_time_ms:.3f} ms", file=out)
    print(f"PIM-optimized  : {report.optimized.total_time_ms:.3f} ms", file=out)
    print(f"speedup        : {report.speedup:.1f}x "
          f"(oracle {report.oracle_speedup:.1f}x)", file=out)
    print(f"results exact  : {report.results_match}", file=out)
    print(f"bound plan     : {' + '.join(report.plan)}", file=out)
    batching = format_batch_stats(report.optimized.extras)
    if batching:
        print(f"batching       : {batching}", file=out)
    for note in report.notes:
        print(f"note           : {note}", file=out)
    return 0 if report.results_match else 1


def _cmd_knn_pim(args, data, queries, out) -> int:
    """Profile only the PIM variant (``knn --pim``).

    Nothing besides the profiled workload touches the controller, so
    the summed ``pim_dispatch`` span durations in a recorded trace
    equal the reported PIM wave time exactly (programming waves are
    charged separately under ``pim_program``).
    """
    from repro.hardware.controller import PIMController
    from repro.mining.knn import make_pim_variant

    n, dims = data.shape
    controller = PIMController(_platform(args), substrate=args.substrate)
    algo = make_pim_variant(
        args.algorithm + "-PIM",
        dims,
        n,
        measure=args.measure,
        controller=controller,
    )
    algo.fit(data)
    profile = profile_knn(
        algo,
        queries,
        args.k,
        batch_size=(
            args.batch_size if args.batch_size is not None else len(queries)
        ),
    )
    label = args.data_file if args.data_file else args.dataset
    print(f"dataset        : {label} {data.shape}", file=out)
    print(f"substrate      : {args.substrate}", file=out)
    print(f"algorithm      : {profile.name}", file=out)
    print(f"total time     : {profile.total_time_ms:.3f} ms", file=out)
    print(f"CPU time       : {profile.cpu_time_ns / 1e6:.3f} ms", file=out)
    print(f"PIM wave time  : {profile.pim_time_ns / 1e6:.3f} ms", file=out)
    batching = format_batch_stats(profile.extras)
    if batching:
        print(f"batching       : {batching}", file=out)
    return 0


def _cmd_kmeans(args, out) -> int:
    data = _load_data(args)
    accelerator = PIMAccelerator(hardware=_platform(args))
    report = accelerator.accelerate_kmeans(
        args.algorithm, data, k=args.k, max_iters=args.max_iters
    )
    iters = report.baseline.extras["n_iterations"]
    label = args.data_file if args.data_file else args.dataset
    print(f"dataset        : {label} {data.shape}", file=out)
    print(f"iterations     : {iters:.0f}", file=out)
    print(
        f"baseline       : "
        f"{report.baseline.extras['time_per_iteration_ms']:.3f} ms/iter",
        file=out,
    )
    print(
        f"PIM-optimized  : "
        f"{report.optimized.extras['time_per_iteration_ms']:.3f} ms/iter",
        file=out,
    )
    print(f"speedup        : {report.speedup:.1f}x "
          f"(oracle {report.oracle_speedup:.1f}x)", file=out)
    print(f"same clustering: {report.results_match}", file=out)
    for note in report.notes:
        print(f"note           : {note}", file=out)
    return 0 if report.results_match else 1


def _cmd_profile(args, out) -> int:
    data = _load_data(args)
    if args.task == "knn":
        queries = make_queries(args.dataset, data, n_queries=3)
        algo = make_baseline(args.algorithm, data.shape[1])
        profile = profile_knn(algo.fit(data), queries, args.k)
    else:
        centers = initial_centers(data, args.k, seed=1)
        algo = make_kmeans(args.algorithm, args.k, max_iters=5)
        profile = profile_kmeans(algo, data, centers=centers)
    print(f"algorithm      : {profile.name}", file=out)
    print(f"total time     : {profile.total_time_ms:.3f} ms", file=out)
    print("components     : "
          + format_fractions(profile.component_fractions()), file=out)
    print("functions      : "
          + format_fractions(profile.function_fractions()), file=out)
    print(f"PIM-oracle     : {profile.pim_oracle_ns / 1e6:.4f} ms "
          f"({profile.oracle_speedup:.1f}x potential)", file=out)
    print(f"offloadable    : {', '.join(profile.offloadable)}", file=out)
    return 0


def _format_shard_health(entry: dict) -> str:
    """One shard's health snapshot as a compact ``shardN=status`` token."""
    status = entry["status"]
    detail = ""
    if status == "dead" and entry["dead_since_ns"] is not None:
        detail = f"@{entry['dead_since_ns'] / 1e6:.1f}ms"
    elif status == "quarantine":
        detail = f"({entry['quarantine_left']} probes left)"
    elif status == "open" and entry["open_until_ns"] is not None:
        detail = f"(until {entry['open_until_ns'] / 1e6:.1f}ms)"
    elif status == "ejected":
        detail = f"(susp {entry.get('suspicion', 0.0):.1f})"
    token = f"shard{entry['shard']}={status}{detail}"
    # the detector's view, when one is attached: suspicion score and
    # the observed service-time p95 behind routing/hedging decisions
    p95 = entry.get("observed_p95_ns")
    if p95 is not None:
        token += f"[p95 {p95 / 1e3:.1f}us"
        if status != "ejected" and entry.get("suspicion", 0.0) > 0.0:
            token += f", susp {entry['suspicion']:.1f}"
        token += "]"
    return token


def _fault_plan(args, topology, horizon_ns: float):
    """The serve run's fault plan: ``--chaos``, ``--gray-chaos`` and
    ``--domain-outage`` composed, or None without any of them.

    A lone plan keeps its own seed; two or more merge their events under
    ``--fault-seed``. The horizon is the run's expected length, so
    mid-run faults land mid-run.
    """
    from repro.faults import FaultPlan

    plans = []
    if args.chaos:
        plans.append(
            FaultPlan.chaos(args.shards, horizon_ns, seed=args.fault_seed)
        )
    if args.gray_chaos:
        plans.append(
            FaultPlan.gray_chaos(
                args.shards, horizon_ns, seed=args.fault_seed + 1
            )
        )
    if args.domain_outage is not None:
        plans.append(
            FaultPlan.domain_outage(
                topology,
                horizon_ns,
                seed=args.fault_seed + 2,
                outage_domains=args.domain_outage,
            )
        )
    if len(plans) < 2:
        return plans[0] if plans else None
    return FaultPlan(
        [e for plan in plans for e in plan.events], seed=args.fault_seed
    )


def _cmd_serve(args, out) -> int:
    from repro.data.workloads import KINDS, make_workload
    from repro.serving import (
        QueryService,
        ShardManager,
        TenantSpec,
        WorkloadDriver,
    )

    data = _load_data(args)
    substrates = args.substrates
    if substrates is not None and "," in substrates:
        substrates = [name.strip() for name in substrates.split(",")]
    tenants = [
        TenantSpec(
            name=f"tenant{i}",
            workload=KINDS[i % len(KINDS)],
            k=args.k,
        )
        for i in range(args.tenants)
    ]
    rate = args.rate
    if rate is None:
        # probe one full batch on a throwaway clean manager to size the
        # offered load at ~80% of the node's capacity
        probe_manager = ShardManager(
            data,
            n_shards=args.shards,
            placement=args.placement,
            hardware=_platform(args),
            seed=args.seed,
            substrates=substrates,
            route=args.route,
        )
        probe = make_workload(
            data, "near", n_queries=args.max_batch, seed=args.seed + 7
        )
        _, timing = probe_manager.knn_batch(probe, args.k)
        rate = 0.8 * args.max_batch * 1e9 / timing.service_ns
    topology = None
    if args.topology is not None:
        from repro.hardware import FailureDomainTopology

        spb, bpc, cpp = args.topology
        topology = FailureDomainTopology(
            n_shards=args.shards,
            shards_per_board=spb,
            boards_per_channel=bpc,
            channels_per_power_domain=cpp,
        )
    fault_plan = _fault_plan(args, topology, args.requests / rate * 1e9)
    recovery = None
    if args.outlier_ejection or args.hedge_budget is not None:
        from repro.serving import RecoveryPolicy

        recovery = RecoveryPolicy(
            outlier_ejection=True,
            adaptive_hedge=True,
            hedge_budget=args.hedge_budget,
        )
    if args.restore is not None:
        from repro.checkpoint import restore_manager

        manager = restore_manager(
            args.restore,
            hardware=_platform(args),
            fault_plan=fault_plan,
            recovery=recovery,
        )
        data = manager.source_data
    else:
        manager = ShardManager(
            data,
            n_shards=args.shards,
            placement=args.placement,
            hardware=_platform(args),
            seed=args.seed,
            replication=args.replication,
            fault_plan=fault_plan,
            recovery=recovery,
            spare_crossbars=args.spares,
            substrates=substrates,
            route=args.route,
            topology=topology,
            spread=not args.naive_placement,
        )
    repair = None
    if args.repair:
        from repro.repair import RepairController, RepairPolicy

        repair = RepairController(
            manager,
            RepairPolicy(scrub_period_ns=args.scrub_period * 1e3),
        )
    driver = WorkloadDriver(data, tenants, seed=args.seed)
    requests = driver.open_loop(
        rate, args.requests, arrival=args.arrival
    )
    from repro.observability import BurnRateMonitor, LiveReport

    monitor = BurnRateMonitor(base_window_ns=args.burn_window_us * 1e3)
    brownout = None
    if args.brownout:
        from repro.observability import BrownoutController

        brownout = BrownoutController(monitor)
    live_report = None
    if args.live_report is not None:
        live_report = LiveReport(
            period_ns=args.live_report * 1e3, out=out
        )
    service = QueryService(
        manager,
        tenants,
        max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        default_deadline_ns=(
            args.deadline_us * 1e3 if args.deadline_us is not None else None
        ),
        repair=repair,
        monitor=monitor,
        brownout=brownout,
        live_report=live_report,
    )
    service.run(requests)
    summary = service.summary()
    label = args.data_file if args.data_file else args.dataset
    print(f"dataset        : {label} {data.shape}", file=out)
    print(
        f"shards         : {manager.n_shards} x "
        f"{manager.placement.kind} (rows {manager.shard_sizes()})",
        file=out,
    )
    if args.restore is not None:
        print(
            f"restored       : {args.restore} (recovery point "
            f"{manager.last_checkpoint_ns / 1e6:.3f} ms)",
            file=out,
        )
    if len(set(manager.substrates)) > 1 or manager._router is not None:
        routing = manager.routing_report()
        winners: dict[str, int] = {}
        for decision in routing["decisions"]:
            name = decision["winner_substrate"]
            winners[name] = winners.get(name, 0) + 1
        won = " ".join(
            f"{name}={count}" for name, count in sorted(winners.items())
        )
        print(
            f"substrates     : {' '.join(manager.substrates)}",
            file=out,
        )
        print(
            f"routing        : {routing['objective'] or 'off'} "
            f"(winners {won or 'none'})",
            file=out,
        )
    print(
        f"offered        : {summary['offered']} requests @ "
        f"{rate:,.0f} qps ({args.arrival})",
        file=out,
    )
    print(
        f"completed      : {summary['completed']} "
        f"({summary['degraded']} degraded)",
        file=out,
    )
    sheds = (
        " ".join(
            f"{reason}={count}"
            for reason, count in sorted(summary["shed_reasons"].items())
        )
        or "none"
    )
    print(
        f"shed           : {summary['shed']} "
        f"({summary['shed_rate']:.1%}; {sheds})",
        file=out,
    )
    print(
        f"throughput     : {summary['throughput_qps']:,.0f} qps (simulated)",
        file=out,
    )
    print(
        "latency        : "
        f"p50 {summary['p50_ns'] / 1e3:.1f} us  "
        f"p95 {summary['p95_ns'] / 1e3:.1f} us  "
        f"p99 {summary['p99_ns'] / 1e3:.1f} us",
        file=out,
    )
    utils = " ".join(
        f"{u:.0%}" for u in summary.get("shard_utilization", [])
    )
    print(f"utilization    : {utils}", file=out)
    if fault_plan is not None:
        rec = summary["recovery"]
        print(
            f"chaos plan     : {fault_plan.describe()}",
            file=out,
        )
        print(
            f"availability   : {summary['availability']:.2%} "
            f"(retry rate {summary['retry_rate']:.2%}, "
            f"mttr {summary['mttr_ns'] / 1e6:.2f} ms)",
            file=out,
        )
        print(
            "recovery       : "
            f"crashes={rec['crashes']} timeouts={rec['timeouts']} "
            f"corrupt={rec['corrupt_detected']} "
            f"failovers={rec['failovers']} retries={rec['retries']} "
            f"degraded_chunks={rec['degraded_chunks']}",
            file=out,
        )
        dead = manager.health.dead_shards
        print(
            f"dead shards    : {dead if dead else 'none'}",
            file=out,
        )
    if recovery is not None:
        rec = summary["recovery"]
        print(
            "gray defense   : "
            f"hedges={rec['hedges']} won={rec['hedges_won']} "
            f"lost={rec['hedges_lost']} denied={rec['hedges_denied']} "
            f"rate={rec['hedge_rate']:.1%} "
            f"link_drops={rec['link_drops']} "
            f"cancelled={rec['hedge_cancelled_ns'] / 1e3:.1f} us",
            file=out,
        )
    if brownout is not None:
        b = summary["brownout"]
        print(
            "brownout       : "
            f"{'active' if b['active'] else 'idle'} "
            f"engagements={b['engagements']} "
            f"degraded={b['degraded_requests']} "
            f"rescued_sheds={b['rescued_sheds']}",
            file=out,
        )
    print(
        "health         : " + " ".join(
            _format_shard_health(entry) for entry in summary["health"]
        ),
        file=out,
    )
    dur = summary["durability"]
    if dur["topology"] is not None:
        at_risk = dur["at_risk_chunks"]
        print(
            "durability     : "
            f"{'spread' if dur['spread_placement'] else 'ring'} "
            f"placement, min spread {dur['min_spread']}, "
            f"at-risk chunks {at_risk if at_risk else 'none'}, "
            f"violations {len(dur['violations'])}",
            file=out,
        )
    if args.checkpoint is not None:
        from repro.checkpoint import write_checkpoint

        manifest = write_checkpoint(
            manager, args.checkpoint, t_ns=service.now_ns
        )
        print(
            f"checkpoint     : {args.checkpoint} "
            f"(t={manifest['t_ns'] / 1e6:.3f} ms, "
            f"{len(manifest['hashes'])} hashed arrays)",
            file=out,
        )
    if repair is not None:
        rep = summary["repair"]
        scrub = rep["scrub"]
        print(
            "scrubber       : "
            f"{scrub['probes']} probes / {scrub['sweeps']} sweeps "
            f"({' '.join(f'{k}={v}' for k, v in scrub['outcomes'].items())})",
            file=out,
        )
        print(
            "repair         : "
            f"detections={rep['detections']} remaps={rep['remaps']} "
            f"rereplications={rep['rereplications']} "
            f"({rep['rereplicated_bytes'] / 1024:.0f} KiB copied)",
            file=out,
        )
        print(
            f"replicas       : {rep['replica_counts']} "
            f"(spares left {rep['spares_remaining']})",
            file=out,
        )
    if monitor.alerts:
        print("alerts         :", file=out)
        for alert in monitor.alerts:
            print(
                f"  [{alert['severity']}] "
                f"{alert['objective']}/{alert['rule']} "
                f"burn={alert['burn_rate']:.1f}x "
                f"(threshold {alert['threshold']:.1f}x) "
                f"@ {alert['t_ns'] / 1e6:.2f} ms",
                file=out,
            )
    else:
        print("alerts         : none", file=out)
    rows = [
        [
            tenant,
            f"{pcts['p50_ns'] / 1e3:.1f}",
            f"{pcts['p95_ns'] / 1e3:.1f}",
            f"{pcts['p99_ns'] / 1e3:.1f}",
        ]
        for tenant, pcts in summary["per_tenant"].items()
    ]
    if rows:
        print(
            format_table(
                ["tenant", "p50 (us)", "p95 (us)", "p99 (us)"], rows
            ),
            file=out,
        )
    from repro.telemetry import get_recorder

    tele = get_recorder()
    if tele.enabled:
        from repro.observability import format_breakdown, slowest_request
        from repro.telemetry.export import chrome_trace_events

        slow = slowest_request(chrome_trace_events(tele))
        if slow is not None:
            print("\nslowest request (critical path):", file=out)
            print(format_breakdown(slow), file=out)
    return 0


def _dispatch(args, out) -> int:
    if args.command == "info":
        return _cmd_info(out)
    if args.command == "knn":
        return _cmd_knn(args, out)
    if args.command == "kmeans":
        return _cmd_kmeans(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    return _cmd_profile(args, out)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    needs_topology = getattr(args, "domain_outage", None) is not None
    if needs_topology and args.topology is None:
        args.usage_error("--domain-outage requires --topology")
    try:
        with telemetry_scope(args, out):
            return _dispatch(args, out)
    except ReproError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return next(
            code
            for families, code in ERROR_EXIT_CODES
            if isinstance(exc, families)
        )


if __name__ == "__main__":
    raise SystemExit(main())
