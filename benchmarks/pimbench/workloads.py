"""The four pimbench workloads, run inside one single-threaded worker.

Only worker processes import this module (it imports NumPy and
``repro``); the parent in ``pimbench.py`` stays on the standard library
so the machine never runs more than the parent plus one worker thread.

One *rep* builds its inputs from the seed, sets the system up, runs the
measured phase between host-speed probes and checks every answer
against a clean single-array oracle (``ShardManager(data, 1)``)
computed outside the timed phase.
With tracing on, a second fresh system serves the same inputs under the
span tracer, and its simulated results must match the untraced phase
bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro.core.framework import PIMAccelerator
from repro.data.catalog import make_dataset
from repro.data.workloads import make_workload
from repro.faults import FaultEvent, FaultPlan
from repro.hardware import FailureDomainTopology
from repro.mining.kmeans import initial_centers
from repro.observability import BurnRateMonitor
from repro.repair import RepairController, RepairPolicy
from repro.serving import (
    QueryService,
    RecoveryPolicy,
    Request,
    ShardManager,
    TenantSpec,
)

import hostspeed
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]

DATASET = "MSD"
N_ROWS = 3000
SHARDS = 4
K = 10
MAX_BATCH = 8
TENANT_KINDS = ("member", "near", "far")
ASSIGN_CENTERS = 48
ORACLE_BATCH = 64
#: kNN batches whose simulated service time sizes the offered rate.
SIZING_BATCHES = 16
#: Measured segments per serving phase (host speed is probed between).
SEGMENTS = 32
#: Probe rounds between two mine-offline jobs, which last 0.2-2 s, and
#: right after set-up, which lasts about 0.3 s.
JOB_PROBE_ROUNDS = SETUP_PROBE_ROUNDS = 4
#: Seeds of what stays fixed across ``--seed``: the datasets, the
#: serving traffic shape and the fault plan.
DATA_SEED = 0
TRAFFIC_SEED = 7


@dataclass(frozen=True)
class ServingSpec:
    """One open-loop serving workload.

    ``load`` is the offered rate as a fraction of the capacity derived
    from the simulated service time of batches drawn from this
    workload's own request mix, so the rate never depends on host
    speed. ``pool`` is the per-tenant query pool the trace cycles
    through; ``None`` gives every request a fresh query.
    """

    name: str
    requests: int
    quick_requests: int
    load: float
    pool: int | None = None
    assign_share: float = 0.0
    faulted: bool = False
    max_fail_ratio: float = 0.0


SERVING = {
    spec.name: spec
    for spec in (
        ServingSpec("knn-clean", 1500, 300, load=0.8),
        ServingSpec(
            "assign-mix", 600, 150, load=0.6, assign_share=0.05,
            max_fail_ratio=0.01,
        ),
        # quick keeps 600 requests: shorter traces do not reliably
        # reach every recovery path the gates require
        ServingSpec(
            "knn-faulted", 1000, 600, load=0.3, pool=64, faulted=True,
            max_fail_ratio=0.01,
        ),
    )
}

#: mine-offline jobs: (task, algorithm, dataset, n, quick n).
MINE_JOBS = (
    ("knn", "FNN", "MSD", 3000, 800),
    ("knn", "Standard", "GIST", 1200, 400),
    ("kmeans", "Standard", "Year", 3000, 800),
    ("kmeans", "Drake", "Year", 3000, 800),
)
MINE_QUERIES = 8
MINE_CLUSTERS = 16
MINE_ITERS = 5

#: The faulted fleet: alternating backends engage the CostRouter, and a
#: two-board topology makes spread placement mirror the shard pairs
#: {0, 2} and {1, 3}, so a straggling wave always has a replica that
#: holds every chunk it carries (the precondition for a hedge).
FAULTED_SUBSTRATES = ("crossbar", "hbm_pim", "crossbar", "hbm_pim")
FAULTED_SPARES = 4
#: Per-query-row corruption probability: a batch of 8 fails its residue
#: check about half the time, so retries and failovers happen every rep.
CORRUPT_PROBABILITY = 0.1


def check_source() -> None:
    """Refuse to measure any ``repro`` but the one in this checkout."""
    src = (ROOT / "src").resolve()
    where = Path(repro.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(
            f"pimbench measures {src}, but repro was imported from {where}"
        )


def peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# serving inputs
# ----------------------------------------------------------------------
@dataclass
class ServingInputs:
    data: np.ndarray
    queries: np.ndarray      # distinct kNN queries (the oracle's rows)
    qid: np.ndarray          # per request: row of ``queries``, -1 = assign
    tenant: np.ndarray       # per request: index into TENANT_KINDS
    arrivals_ns: np.ndarray
    centers: np.ndarray | None
    rate_qps: float
    horizon_ns: float
    fingerprint: str


def _fleet(spec: ServingSpec) -> dict:
    if not spec.faulted:
        return {"n_shards": SHARDS}
    return {
        "n_shards": SHARDS,
        "replication": 2,
        "substrates": list(FAULTED_SUBSTRATES),
        "topology": FailureDomainTopology(
            n_shards=SHARDS,
            shards_per_board=2,
            boards_per_channel=1,
            channels_per_power_domain=1,
        ),
        "verify": True,
    }


def make_serving_inputs(spec: ServingSpec, seed: int, quick: bool):
    """The request trace, generated in full before any clock starts.

    The seed draws the queries and the k-means centers. The dataset and
    the traffic shape (arrival gaps, tenant order, assign positions)
    are the same for every seed, with exact mixes, so the batches a
    rep dispatches, and with them its host cost, stay steady from seed
    to seed.
    """
    n_req = spec.quick_requests if quick else spec.requests
    data = make_dataset(DATASET, n=N_ROWS, seed=DATA_SEED)
    rng = np.random.default_rng([seed, 1])
    shape = np.random.default_rng(TRAFFIC_SEED)
    tenant = shape.permutation(np.arange(n_req) % len(TENANT_KINDS))
    is_assign = np.zeros(n_req, dtype=bool)
    n_assign = round(spec.assign_share * n_req)
    if n_assign:
        is_assign[shape.choice(n_req, size=n_assign, replace=False)] = True
    qid = np.full(n_req, -1, dtype=np.int64)
    pools = []
    offset = 0
    for t, kind in enumerate(TENANT_KINDS):
        mine = np.flatnonzero((tenant == t) & ~is_assign)
        size = mine.size if spec.pool is None else spec.pool
        pools.append(
            make_workload(
                data, kind, n_queries=max(size, 1), seed=seed * 10 + t + 1
            )
        )
        qid[mine] = offset + np.arange(mine.size) % max(size, 1)
        offset += max(size, 1)
    queries = np.concatenate(pools)
    centers = (
        initial_centers(data, ASSIGN_CENTERS, seed) if n_assign else None
    )
    unit_gaps = shape.exponential(1.0, size=n_req)
    unit_gaps /= unit_gaps.mean()  # offered load exactly ``spec.load``

    # capacity from simulated service times of batches drawn from this
    # workload's mix, on a fault-free fleet of the same shape
    sizing = ShardManager(data, **_fleet(spec))
    rows = rng.choice(queries.shape[0], size=(SIZING_BATCHES, MAX_BATCH))
    knn_ns = np.mean(
        [sizing.knn_batch(queries[r], K)[1].service_ns for r in rows]
    ) / MAX_BATCH
    per_request_ns = (1.0 - spec.assign_share) * knn_ns
    if n_assign:
        assign_ns = sizing.assign(centers)[1].service_ns
        per_request_ns += spec.assign_share * assign_ns
    rate = spec.load * 1e9 / per_request_ns
    arrivals = np.cumsum(unit_gaps) * (1e9 / rate)

    digest = hashlib.sha256()
    for array in (data, queries, qid, tenant, arrivals):
        digest.update(np.ascontiguousarray(array).tobytes())
    if centers is not None:
        digest.update(centers.tobytes())
    return ServingInputs(
        data=data,
        queries=queries,
        qid=qid,
        tenant=tenant,
        arrivals_ns=arrivals,
        centers=centers,
        rate_qps=float(rate),
        horizon_ns=float(arrivals[-1]),
        fingerprint=digest.hexdigest(),
    )


def fault_plan(horizon_ns: float) -> FaultPlan:
    """A crash + wave-corrupt + gray-straggler plan, the same every seed.

    The roles are fixed so every run exercises every recovery path
    without ever taking both replicas of a chunk: a 10x straggler on
    HBM-PIM shard 1, corrupting waves on its mirror shard 3 (the replica
    a hedge goes to), and a crash of crossbar shard 2 on the other
    board, whose chunks re-replicate onto the corrupting shard rather
    than onto the straggler.
    """
    slow, corrupt, crash = 1, 3, 2
    return FaultPlan(
        [
            FaultEvent(
                t_ns=0.2 * horizon_ns,
                kind="slow_shard",
                target=f"shard{slow}",
                duration_ns=0.6 * horizon_ns,
                params={"factor": 10.0},
            ),
            FaultEvent(
                t_ns=0.4 * horizon_ns,
                kind="shard_crash",
                target=f"shard{crash}",
            ),
            FaultEvent(
                t_ns=0.0,
                kind="wave_corrupt",
                target=f"shard{corrupt}",
                duration_ns=horizon_ns,
                params={"probability": CORRUPT_PROBABILITY},
            ),
        ],
        seed=TRAFFIC_SEED,
    )


def build_service(spec: ServingSpec, inputs: ServingInputs):
    """The system under test: fleet, repair loop, monitor, service."""
    tenants = [TenantSpec(name=kind, workload=kind, k=K) for kind in TENANT_KINDS]
    repair = None
    if spec.faulted:
        manager = ShardManager(
            inputs.data,
            **_fleet(spec),
            fault_plan=fault_plan(inputs.horizon_ns),
            recovery=RecoveryPolicy(
                outlier_ejection=True,
                adaptive_hedge=True,
                hedge_budget=0.3,
                # the default breaker (3 failures, 500 ms open) would
                # bench the corrupting shard for the rest of the run and
                # with it the only replica a straggler can hedge onto
                breaker_threshold=6,
                breaker_reset_ns=inputs.horizon_ns / 8,
            ),
            spare_crossbars=FAULTED_SPARES,
        )
        repair = RepairController(
            manager, RepairPolicy(scrub_period_ns=inputs.horizon_ns / 4)
        )
    else:
        manager = ShardManager(inputs.data, **_fleet(spec))
    service = QueryService(
        manager,
        tenants,
        max_batch=MAX_BATCH,
        repair=repair,
        monitor=BurnRateMonitor(),
    )
    return manager, service


def build_requests(inputs: ServingInputs) -> list[Request]:
    """Fresh request objects (the service mutates them while serving)."""
    requests = []
    for i, (q, t, at) in enumerate(
        zip(inputs.qid, inputs.tenant, inputs.arrivals_ns)
    ):
        if q < 0:
            requests.append(
                Request(
                    request_id=f"r{i:06d}", tenant=TENANT_KINDS[t],
                    query=inputs.centers, k=K, kind="assign",
                    arrival_ns=float(at),
                )
            )
        else:
            requests.append(
                Request(
                    request_id=f"r{i:06d}", tenant=TENANT_KINDS[t],
                    query=inputs.queries[q], k=K, arrival_ns=float(at),
                )
            )
    return requests


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def compute_oracle(inputs: ServingInputs) -> dict:
    """Clean single-array answers, once per distinct query."""
    clean = ShardManager(inputs.data, 1)
    idx = np.empty((inputs.queries.shape[0], K), dtype=np.int64)
    scores = np.empty((inputs.queries.shape[0], K), dtype=np.float64)
    for lo in range(0, inputs.queries.shape[0], ORACLE_BATCH):
        answers, _ = clean.knn_batch(
            inputs.queries[lo : lo + ORACLE_BATCH], K
        )
        for j, answer in enumerate(answers):
            idx[lo + j] = answer.indices
            scores[lo + j] = answer.scores
    oracle = {
        "fingerprint": np.array(inputs.fingerprint),
        "knn_idx": idx,
        "knn_scores": scores,
    }
    if inputs.centers is not None:
        answer, _ = clean.assign(inputs.centers)
        oracle["assign_idx"] = answer.assignments
        oracle["assign_dist"] = answer.distances
    return oracle


def load_or_compute_oracle(inputs: ServingInputs, path: Path) -> dict:
    """The run's oracle: the first rep computes and saves it."""
    if path.exists():
        with np.load(path) as saved:
            oracle = {key: saved[key] for key in saved.files}
        if str(oracle["fingerprint"]) != inputs.fingerprint:
            raise SystemExit(f"oracle {path} was built from other inputs")
        return oracle
    oracle = compute_oracle(inputs)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp.npz")
    np.savez(tmp, **oracle)
    tmp.replace(path)
    return oracle


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# one serving phase
# ----------------------------------------------------------------------
class DispatchLog:
    """Host time and public results of every knn_batch/assign call.

    The methods are looked up on the class at call time, so a traced
    phase still goes through the tracer's wrappers.
    """

    def __init__(self, manager: ShardManager) -> None:
        self.ms: list[float] = []
        self.queries = 0
        self.refined = 0
        self.pruned = 0
        cls = type(manager)
        clock = time.perf_counter_ns

        def timed_knn(*args, **kwargs):
            start = clock()
            answers, timing = cls.knn_batch(manager, *args, **kwargs)
            self.ms.append((clock() - start) / 1e6)
            self.queries += len(answers)
            self.refined += sum(a.refined for a in answers)
            self.pruned += sum(a.pruned for a in answers)
            return answers, timing

        def timed_assign(*args, **kwargs):
            start = clock()
            result = cls.assign(manager, *args, **kwargs)
            self.ms.append((clock() - start) / 1e6)
            return result

        manager.knn_batch = timed_knn
        manager.assign = timed_assign


def measure(
    segments, tracer: Tracer | None, samples: list, probe_rounds: int
) -> dict:
    """Run the callables in ``segments`` as the measured phase.

    A host-speed probe of ``probe_rounds`` rounds (see :mod:`hostspeed`)
    runs after each segment, and a segment's slowdown is the mean of the
    two probes around it, so a slow spell of the host is divided out of
    the segment it fell in. ``samples`` collects the per-call host ms
    the segments append; each is divided by its segment's slowdown too.
    Probe time is not part of the phase. The probe before the first
    segment is longer, as it alone normalizes the set-up time.
    """
    probes = [hostspeed.probe_s(SETUP_PROBE_ROUNDS)]
    seconds, cuts = [], [0]
    if tracer is not None:
        tracer.start()
    try:
        for segment in segments:
            start = time.perf_counter()
            segment()
            seconds.append(time.perf_counter() - start)
            cuts.append(len(samples))
            probes.append(hostspeed.probe_s(probe_rounds))
    finally:
        if tracer is not None:
            tracer.stop()
    slowdowns = [
        (a + b) / 2 / hostspeed.NOMINAL_S for a, b in zip(probes, probes[1:])
    ]
    normalized = [
        ms / slow
        for slow, lo, hi in zip(slowdowns, cuts, cuts[1:])
        for ms in samples[lo:hi]
    ]
    return {
        "measured_s": sum(seconds),
        "measured_norm_s": sum(t / slow for t, slow in zip(seconds, slowdowns)),
        "setup_slowdown": probes[0] / hostspeed.NOMINAL_S,
        "samples_ms": list(samples),
        "samples_norm_ms": normalized,
        "peak_rss_mb": peak_rss_mb(),
    }


def serve_phase(spec, inputs, tracer: Tracer | None) -> dict:
    """Set up a fresh system and serve the whole trace once.

    The trace goes through ``QueryService.submit`` and ``drain`` in
    arrival order, exactly as ``QueryService.run`` feeds it, split into
    segments so host speed can be probed between them.
    """
    t0 = time.perf_counter()
    manager, service = build_service(spec, inputs)
    construct_s = time.perf_counter() - t0
    log = DispatchLog(manager)
    requests = build_requests(inputs)
    chunks = np.array_split(np.arange(len(requests)), SEGMENTS)

    def segment(chunk, last):
        def serve():
            for i in chunk:
                service.submit(requests[i])
            if last:
                service.drain()
        return serve

    phase = measure(
        [segment(c, k == len(chunks) - 1) for k, c in enumerate(chunks)],
        tracer,
        log.ms,
        probe_rounds=1,
    )
    return {
        **phase,
        "construct_s": construct_s,
        "responses": service.responses,
        "summary": service.summary(),
        "log": log,
    }


def digest_responses(responses) -> str:
    """SHA-256 over every response's simulated times and answers."""
    h = hashlib.sha256()
    for r in responses:
        h.update(f"{r.request_id}|{r.ok}|{r.shed_reason}|{r.degraded}".encode())
        h.update(
            np.array(
                [
                    r.arrival_ns,
                    r.completion_ns,
                    np.nan if r.dispatch_ns is None else r.dispatch_ns,
                ],
                dtype=np.float64,
            ).tobytes()
        )
        for array in (r.indices, r.scores):
            if array is not None:
                h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def check_responses(responses, inputs: ServingInputs, oracle: dict):
    """(sheds, mismatches) against the oracle, bit for bit."""
    sheds = mismatches = 0
    for r in responses:
        if not r.ok:
            sheds += 1
            continue
        q = inputs.qid[int(r.request_id[1:])]
        if q < 0:
            good = _same_bits(r.indices, oracle["assign_idx"]) and _same_bits(
                r.scores, oracle["assign_dist"]
            )
        else:
            good = _same_bits(r.indices, oracle["knn_idx"][q]) and _same_bits(
                r.scores, oracle["knn_scores"][q]
            )
        mismatches += not good
    return sheds, mismatches


def serving_counts(phase: dict) -> dict:
    """Exact per-layer counts read from public results."""
    responses, summary, log = phase["responses"], phase["summary"], phase["log"]
    rec = summary["recovery"]
    ok = [r for r in responses if r.ok]
    visited = log.refined + log.pruned
    return {
        "serving.sharding.refined_per_query": (
            log.refined / log.queries if log.queries else 0.0
        ),
        "serving.sharding.prune_ratio": log.pruned / visited if visited else 0.0,
        "serving.service.batch_mean": (
            float(np.mean([r.batch_size for r in ok])) if ok else 0.0
        ),
        "serving.service.sim_queue_us_p50": (
            float(np.median([r.dispatch_ns - r.arrival_ns for r in ok])) / 1e3
            if ok
            else 0.0
        ),
        "serving.recovery.attempts_per_dispatch": (
            rec["attempts"] / rec["dispatches"] if rec["dispatches"] else 0.0
        ),
        "serving.recovery.retries": rec["retries"],
        "serving.recovery.failovers": rec["failovers"],
        "serving.recovery.corrupt_detected": rec["corrupt_detected"],
        "serving.recovery.hedges": rec["hedges"],
        "serving.recovery.hedge_win_ratio": (
            rec["hedges_won"] / rec["hedges"] if rec["hedges"] else 0.0
        ),
        "serving.recovery.degraded_chunks": rec["degraded_chunks"],
        "repair.events": sum(summary["repair_activity"].values()),
    }


def serving_gates(spec: ServingSpec, phase: dict, failed: int) -> dict:
    """Mechanism sanity gates: name -> (observed, passed)."""
    n = len(phase["responses"])
    gates = {
        "fail_ratio": (
            failed / n,
            failed / n <= spec.max_fail_ratio,
        )
    }
    if spec.faulted:
        rec = phase["summary"]["recovery"]
        rerep = phase["summary"]["repair"]["rereplications"]
        for name, value in (
            ("retries", rec["retries"]),
            ("failovers", rec["failovers"]),
            ("corrupt_detected", rec["corrupt_detected"]),
            ("rereplications", rerep),
            ("hedges", rec["hedges"]),
        ):
            gates[name] = (value, value > 0)
    return gates


def run_phases(trace: bool, rep: int, phase):
    """The plain phase, plus a traced one on a fresh system when tracing.

    Traced reps alternate which phase runs first, so warm-up cost does
    not bias the tracing overhead one way.
    """
    tracer = Tracer() if trace else None
    kinds = ["plain", "traced"] if rep % 2 == 0 else ["traced", "plain"]
    phases = {
        kind: phase(tracer if kind == "traced" else None)
        for kind in (kinds if trace else ["plain"])
    }
    return tracer, phases


def host_times(phase: dict) -> dict:
    """The host-time fields of a rep's result, raw and normalized."""
    return {
        key: phase[key]
        for key in (
            "construct_s", "setup_slowdown", "measured_s", "measured_norm_s",
            "samples_ms", "samples_norm_ms", "peak_rss_mb",
        )
    }


def traced_result(tracer, name, seed, rep, ops, phase, digest) -> dict:
    """Write the traced phase's spans; return its per-layer totals."""
    tracer.write(ROOT / ".pimbench" / "spans" / f"{name}-s{seed}-r{rep}.jsonl")
    return tracer.report(
        ops, phase["measured_s"], phase["measured_norm_s"], digest
    )


def run_serving_rep(spec, seed, quick, trace, rep, oracle_path) -> dict:
    t0 = time.perf_counter()
    inputs = make_serving_inputs(spec, seed, quick)
    gen_s = time.perf_counter() - t0
    tracer, phases = run_phases(
        trace, rep, lambda t: serve_phase(spec, inputs, t)
    )
    plain = phases["plain"]

    oracle = load_or_compute_oracle(inputs, oracle_path)
    sheds, mismatches = check_responses(plain["responses"], inputs, oracle)
    failed = sheds + mismatches
    summary = plain["summary"]
    result = {
        "gen_s": gen_s,
        "ops": len(plain["responses"]),
        "failed": failed,
        "mismatches": mismatches,
        **host_times(plain),
        "rate_qps": inputs.rate_qps,
        "sim": {
            "sim_p50_us": summary["p50_ns"] / 1e3,
            "sim_p99_us": summary["p99_ns"] / 1e3,
            "sim_qps": summary["throughput_qps"],
        },
        "sim_digest": digest_responses(plain["responses"]),
        "counts": serving_counts(plain),
        "gates": serving_gates(spec, plain, failed),
    }
    if trace:
        traced = phases["traced"]
        result["traced"] = traced_result(
            tracer, spec.name, seed, rep, len(traced["responses"]), traced,
            digest_responses(traced["responses"]),
        )
    return result


# ----------------------------------------------------------------------
# mine-offline
# ----------------------------------------------------------------------
def make_mine_inputs(seed: int, quick: bool) -> list:
    """The job list.

    Datasets and k-means seeding are fixed. Each kNN query perturbs a
    fixed dataset point by noise drawn from the seed: which points are
    queried sets how well the bounds prune, and so the job's cost, and
    eight points are too few for that to average out across seeds.
    """
    rng = np.random.default_rng([seed, 3])
    datasets = {}
    jobs = []
    for task, algorithm, name, n, quick_n in MINE_JOBS:
        size = quick_n if quick else n
        if (name, size) not in datasets:
            datasets[name, size] = make_dataset(name, n=size, seed=DATA_SEED)
        data = datasets[name, size]
        queries = None
        if task == "knn":
            picks = np.random.default_rng(DATA_SEED).choice(
                size, MINE_QUERIES, replace=False
            )
            noise = 0.02 * rng.standard_normal((MINE_QUERIES, data.shape[1]))
            queries = np.clip(data[picks] + noise, 0.0, 1.0)
        jobs.append((task, algorithm, name, data, queries))
    return jobs


def mine_phase(jobs, tracer: Tracer | None) -> dict:
    t0 = time.perf_counter()
    accelerator = PIMAccelerator()
    construct_s = time.perf_counter() - t0
    reports, job_ms = [], []

    def job(task, algorithm, data, queries):
        def run():
            t = time.perf_counter_ns()
            if task == "knn":
                report = accelerator.accelerate_knn(algorithm, data, queries, K)
            else:
                report = accelerator.accelerate_kmeans(
                    algorithm, data, MINE_CLUSTERS, max_iters=MINE_ITERS,
                    seed=DATA_SEED,
                )
            job_ms.append((time.perf_counter_ns() - t) / 1e6)
            reports.append(report)
        return run

    # one segment per job, so host speed is probed between jobs
    phase = measure(
        [job(task, alg, data, q) for task, alg, _, data, q in jobs],
        tracer,
        job_ms,
        probe_rounds=JOB_PROBE_ROUNDS,
    )
    return {**phase, "construct_s": construct_s, "reports": reports}


def digest_reports(jobs, reports) -> str:
    h = hashlib.sha256()
    for (task, algorithm, name, _, _), report in zip(jobs, reports):
        h.update(
            f"{task}|{algorithm}|{name}|{report.results_match}|"
            f"{','.join(report.plan)}".encode()
        )
        h.update(
            np.array(
                [
                    report.baseline.total_time_ns,
                    report.optimized.total_time_ns,
                    report.optimized.pim_time_ns,
                ],
                dtype=np.float64,
            ).tobytes()
        )
    return h.hexdigest()


def run_mine_rep(seed, quick, trace, rep) -> dict:
    t0 = time.perf_counter()
    jobs = make_mine_inputs(seed, quick)
    gen_s = time.perf_counter() - t0
    tracer, phases = run_phases(
        trace, rep, lambda t: mine_phase(jobs, t)
    )
    plain = phases["plain"]
    # the framework's verify step compares each PIM variant's answers
    # with its CPU baseline; a job that disagrees is a wrong answer
    mismatches = sum(not r.results_match for r in plain["reports"])
    speedups = [r.speedup for r in plain["reports"]]
    result = {
        "gen_s": gen_s,
        "ops": len(jobs),
        "failed": mismatches,
        "mismatches": mismatches,
        **host_times(plain),
        "sim": {
            "sim_speedup": math.exp(
                sum(math.log(s) for s in speedups) / len(speedups)
            ),
        },
        "sim_digest": digest_reports(jobs, plain["reports"]),
        "counts": {},
        "gates": {"fail_ratio": (mismatches / len(jobs), mismatches == 0)},
    }
    if trace:
        traced = phases["traced"]
        result["traced"] = traced_result(
            tracer, "mine-offline", seed, rep, len(jobs), traced,
            digest_reports(jobs, traced["reports"]),
        )
    return result


def run_rep(workload, seed, quick, trace, rep, oracle_path) -> dict:
    """One rep of one workload; the worker prints the returned dict."""
    check_source()
    if workload == "mine-offline":
        return run_mine_rep(seed, quick, trace, rep)
    return run_serving_rep(
        SERVING[workload], seed, quick, trace, rep, oracle_path
    )
