"""The benchmark's workloads and the timed loops that drive them.

Solver workloads run full greedy solves through ``MultiHitSolver``; the
gateway workload runs a closed loop of HTTP clients against an in-process
``Gateway``.  Every winner trajectory is checked against
:mod:`oracle`.  Workloads set only ``hits``, ``backend``, ``n_workers``
and ``prune``; every other solver knob stays at its default.

A run measures for about ``seconds``.  Every solve of a solver workload
does the same work: it solves one fixed cohort whose tumour and normal
sample columns are shuffled by a permutation drawn from the seed.  The
greedy trajectory does not depend on sample order, so one cached oracle
trajectory checks every permutation, and runs differ only in memory
layout and in the host's speed, not in how hard their cohorts are.  The
gateway workload walks a fixed bank of small cohorts in an order drawn
from the seed, so every run submits nearly the same mix of jobs.
"""

from __future__ import annotations

import http.client
import json
import functools
import math
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.core.solver import MultiHitSolver
from repro.data.synthesis import CohortConfig, generate_cohort

import oracle
from hostinfo import RssSampler
from tracer import Tracer, merge


@dataclass(frozen=True)
class SolverWorkload:
    name: str
    why: str
    genes: int
    hits: int
    backend: str
    background_scale: "float | None" = None
    n_tumor: int = 900
    n_normal: int = 400
    cohort: int = 0  # seed of the one cohort every solve permutes

    def config(self, cohort_seed: int, genes: "int | None" = None) -> CohortConfig:
        extra = {}
        if self.background_scale is not None:
            extra["background_scale"] = self.background_scale
        return CohortConfig(
            n_genes=genes or self.genes, n_tumor=self.n_tumor,
            n_normal=self.n_normal, hits=self.hits, seed=cohort_seed, **extra,
        )

    def solver_kwargs(self) -> dict:
        kwargs = {"hits": self.hits, "backend": self.backend, "prune": True}
        if self.backend == "pool":
            kwargs["n_workers"] = len(os.sched_getaffinity(0))
        return kwargs


@dataclass(frozen=True)
class GatewayWorkload:
    name: str
    why: str
    genes: int = 40
    hits: int = 3
    samples: int = 120
    clients: int = 2
    poll_s: float = 0.025
    job_timeout_s: float = 60.0
    bank: int = 8  # cohorts 0..bank-1, each run cycling through all of them

    def config(self, cohort_seed: int) -> CohortConfig:
        return CohortConfig(
            n_genes=self.genes, n_tumor=self.samples, n_normal=self.samples,
            hits=self.hits, seed=cohort_seed,
        )

    def payload(self, cohort_seed: int) -> dict:
        cohort = {
            "n_genes": self.genes, "n_tumor": self.samples,
            "n_normal": self.samples, "hits": self.hits, "seed": cohort_seed,
        }
        # Pinned: the gateway's default dispatch policy alternates the
        # single and pool backends from job to job.
        return {
            "tenant": "bench",
            "cohort": cohort,
            "solver": {"hits": self.hits, "backend": "single"},
        }


WORKLOADS = {
    wl.name: wl
    for wl in (
        SolverWorkload(
            "h3-sparse",
            "G=150 h=3 at ~6% density over a pool of nproc processes, one "
            "cohort in seeded column orders: sparse skipping does the work; "
            "~120 picks weigh splice and per-pick overhead",
            genes=150, hits=3, backend="pool", background_scale=0.2,
        ),
        SolverWorkload(
            "h4-pool",
            "G=110 h=4 over a pool of nproc processes, one cohort in seeded "
            "column orders: shm publish, chunk dispatch, per-chunk pruning, "
            "order-3 decode",
            genes=110, hits=4, backend="pool",
        ),
        GatewayWorkload(
            "gateway",
            "2-client HTTP closed loop over a fixed bank of small jobs in "
            "seeded order: job store, queue, checkpoint fsync, per-iteration cost",
        ),
    )
}


MIN_PROBES = 8
PROBES_PER_SOLVE = 4
PROBE_SHARE = 0.2  # least time for probes, as a share of full-solve time


def dense(config: CohortConfig) -> tuple[np.ndarray, np.ndarray]:
    cohort = generate_cohort(config)
    return cohort.tumor.values, cohort.normal.values


@functools.lru_cache(maxsize=4)
def base_cohort(config: CohortConfig) -> tuple[np.ndarray, np.ndarray]:
    tumor, normal = dense(config)
    tumor.flags.writeable = normal.flags.writeable = False
    return tumor, normal


def permuted(config: CohortConfig, seed: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The cohort with its sample columns shuffled by draw ``k`` of ``seed``.

    Each of tumour and normal gets its own permutation.  Coverage, TP,
    TN and F are counts over samples, so the greedy trajectory is the
    same for every draw.
    """
    tumor, normal = base_cohort(config)
    rng = np.random.default_rng([seed, k])
    return (
        tumor[:, rng.permutation(tumor.shape[1])],
        normal[:, rng.permutation(normal.shape[1])],
    )


def oracle_key(config: CohortConfig) -> str:
    return (
        f"g{config.n_genes}-h{config.hits}-t{config.n_tumor}-n{config.n_normal}"
        f"-b{config.background_scale}-s{config.seed}"
    )


def argmax_calls(n_iterations: int, uncovered: int) -> int:
    """Arg-max calls a greedy solve made, read from its result.

    Each pick is one call; a solve that stops with samples still
    uncovered made one more call, whose winner covered nobody.
    """
    return n_iterations + (1 if uncovered > 0 else 0)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- solver workloads ------------------------------------------------------


@dataclass
class Solve:
    config: CohortConfig
    draw: int
    first_only: bool = False
    pack_s: float = 0.0
    solve_s: float = 0.0
    picks_s: list = field(default_factory=list)  # solve() call to each pick
    result: object = None
    error: "str | None" = None

    @property
    def first_pick_s(self) -> float:
        return self.picks_s[0] if self.picks_s else self.solve_s

    def pick_latencies(self) -> list:
        """Seconds between successive picks, the first from the solve() call."""
        return list(np.diff([0.0] + self.picks_s))


def solve_once(
    wl: SolverWorkload, config: CohortConfig, seed: int, draw: int,
    first_only: bool = False,
) -> Solve:
    """Pack and solve draw ``draw`` of the cohort; ``first_only`` stops after one pick."""
    tumor_d, normal_d = permuted(config, seed, draw)
    out = Solve(config, draw, first_only)
    solver = MultiHitSolver(**wl.solver_kwargs())
    marks: list[float] = []

    def on_iteration(state) -> None:
        marks.append(time.perf_counter())

    try:
        t0 = time.perf_counter()
        tumor, normal = BitMatrix.from_dense(tumor_d), BitMatrix.from_dense(normal_d)
        t1 = time.perf_counter()
        out.result = solver.solve(
            tumor, normal, on_iteration=on_iteration,
            should_stop=(lambda: bool(marks)) if first_only else None,
        )
        t2 = time.perf_counter()
    except Exception as exc:  # a failed solve counts against success_rate
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.pack_s, out.solve_s = t1 - t0, t2 - t1
    out.picks_s = [m - t1 for m in marks]
    return out


def check_solves(wl, solves: list[Solve], cache: Path) -> list[str]:
    """Oracle-check every solve; returns one message per failed solve."""
    failures = []
    for s in solves:
        where = f"cohort {s.config.seed} draw {s.draw}"
        if s.error is not None:
            failures.append(f"{where}: raised {s.error}")
            continue
        want = oracle.cached_trajectory(
            cache, oracle_key(s.config), *base_cohort(s.config), wl.hits, s.first_only
        )
        why = oracle.check_trajectory(s.result.combinations, want)
        if why is not None:
            failures.append(f"{where}: {why}")
    return failures


def warm_up(wl: SolverWorkload, seed: int) -> None:
    """One small solve so lazy imports and first-call costs are paid."""
    solve_once(wl, wl.config(wl.cohort, genes=24), seed, 0)


def _typical(solves: list[Solve]) -> float:
    return statistics.median(s.pack_s + s.solve_s for s in solves)


def run_solver(wl: SolverWorkload, seed: int, seconds: float, work: Path) -> dict:
    """Rounds of one full solve and first-pick probes, filling the window.

    A probe solves a draw of the cohort up to its first pick, so
    ``first_pick_s`` is a median over at least :data:`MIN_PROBES` more
    samples than there are full solves.  The window is cut into as many
    rounds as leave :data:`PROBE_SHARE` of the full-solve time for
    probes (there is always one).  Each round is a full solve and then
    probes, at least :data:`PROBES_PER_SOLVE`, in an even share of the
    time the full solves leave, so both kinds of sample spread over the
    whole window and the host's slow spells weigh on both alike.
    """
    warm_up(wl, seed)
    config = wl.config(wl.cohort)
    base_cohort(config)
    sampler = RssSampler().start()
    solves: list[Solve] = []
    probes: list[Solve] = []
    full_walls: list[float] = []

    def probe() -> float:
        t = time.perf_counter()
        draw = len(solves) + len(probes)
        probes.append(solve_once(wl, config, seed, draw, first_only=True))
        return time.perf_counter() - t

    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        solves.append(solve_once(wl, config, seed, len(solves) + len(probes)))
        full_walls.append(time.perf_counter() - t)
        full_s = statistics.median(full_walls)
        rounds = max(len(solves), int(seconds // ((1 + PROBE_SHARE) * full_s)))
        to_come = rounds - len(solves)
        left = seconds - (time.perf_counter() - start) - to_come * full_s
        budget = left / (to_come + 1)
        n, spent = 0, 0.0
        while n < PROBES_PER_SOLVE or spent < budget:
            spent += probe()
            n += 1
        if not to_come:
            break
    while len(probes) < MIN_PROBES:
        probe()
    peak = sampler.stop()
    failures = check_solves(wl, solves + probes, work / "oracle")
    ok = [s for s in solves if s.error is None]
    g, h = wl.genes, wl.hits
    metrics = {}
    if ok:
        picks = [dt for s in ok for dt in s.pick_latencies()]
        metrics = {
            "solve_s": statistics.median(s.solve_s for s in ok),
            "combos_per_s": statistics.median(
                argmax_calls(s.result.n_iterations, s.result.uncovered)
                * math.comb(g, h) / s.solve_s
                for s in ok
            ),
            "first_pick_s": statistics.median(
                s.first_pick_s for s in ok + probes if s.error is None
            ),
            "jobs_per_s": statistics.median(len(s.picks_s) / s.solve_s for s in ok),
            "job_latency_p50_s": pct(picks, 50),
            "job_latency_p90_s": pct(picks, 90),
        }
    metrics["peak_rss_mb"] = peak
    report = [
        f"{len(solves)} solves of cohort {config.seed} in as many column orders; "
        f"iterations {[s.result.n_iterations for s in ok]}; "
        f"{len(probes)} first-pick probes; {time.perf_counter() - start:.1f} s",
        "a job here is one greedy pick: jobs_per_s is picks per second of solve, "
        "job latency the time from one pick to the next",
    ]
    return {
        "attempted": len(solves) + len(probes), "failures": failures,
        "metrics": metrics, "report": report,
    }


# -- traced solver runs ----------------------------------------------------


def _get(acc: dict, key: str, field_: int) -> float:
    return acc.get(key, [0.0, 0.0, 0, 0])[field_]


TOTAL, SELF, CALLS, ITEMS = range(4)


@dataclass
class TraceTotals:
    """Sums over a run's traced solves (or gateway jobs)."""

    n: int = 0
    parent: dict = field(default_factory=dict)
    workers: dict = field(default_factory=dict)
    solve_wall: float = 0.0
    untraced_wall: float = 0.0
    iterations: int = 0
    combos_scored: int = 0
    combos_pruned: int = 0
    word_reads: int = 0
    pool: dict = field(default_factory=lambda: {
        "publish_s": 0.0, "shipped_bytes": 0, "busy_s": 0.0,
        "efficiency_den": 0.0, "imbalance": [], "inline_retries": 0,
    })

    def add_solve(self, parent, workers, wall, counters, n_iterations) -> None:
        self.n += 1
        self.parent = merge(self.parent, parent)
        self.workers = merge(self.workers, workers)
        self.solve_wall += wall
        self.iterations += n_iterations
        self.combos_scored += counters["combos_scored"]
        self.combos_pruned += counters["combos_pruned"]
        self.word_reads += counters["word_reads"]

    def add_pool(self, stats, argmax_s: float) -> None:
        p = self.pool
        p["publish_s"] += stats.publish_seconds
        p["shipped_bytes"] += stats.shipped_bytes
        busy = sum(c.wall_seconds for c in stats.chunks)
        p["busy_s"] += busy
        p["efficiency_den"] += stats.n_workers * argmax_s
        p["inline_retries"] += stats.n_inline_retries
        calls: list[list[float]] = []
        for c in stats.chunks:
            if c.chunk == 0:
                calls.append([])
            calls[-1].append(c.wall_seconds)
        p["imbalance"] += [max(w) / (sum(w) / len(w)) for w in calls if sum(w) > 0]

    def layer_metrics(self) -> dict:
        """Per-layer metrics, each per solve (or per job)."""
        n = max(self.n, 1)
        both = merge(self.parent, self.workers)
        par = self.parent
        argmax_parent = _get(par, "engine.argmax", TOTAL) + _get(par, "pool.argmax", TOTAL)
        solve_total = _get(par, "solver.solve", TOTAL)
        attributed = solve_total - _get(par, "solver.solve", SELF)
        examined = self.combos_scored + self.combos_pruned
        p = self.pool
        return {
            "combinatorics.decode_s": _get(both, "combinatorics.decode", SELF) / n,
            "combinatorics.decode_lambdas": _get(both, "combinatorics.decode", ITEMS) / n,
            "combinatorics.decode_calls": _get(both, "combinatorics.decode", CALLS) / n,
            "kernels.popcount_s": _get(both, "kernels.popcount", SELF) / n,
            "kernels.calls": _get(both, "kernels.popcount", CALLS) / n,
            "kernels.best_of_s": _get(both, "kernels.best_of", SELF) / n,
            "kernels.word_reads": self.word_reads / n,
            "engine.argmax_s": _get(both, "engine.argmax", TOTAL) / n,
            "engine.self_s": _get(both, "engine.argmax", SELF) / n,
            "bounds.build_s": _get(both, "bounds.build", TOTAL) / n,
            "bounds.refresh_s": _get(both, "bounds.refresh", SELF) / n,
            "bounds.combos_scored": self.combos_scored / n,
            "bounds.combos_pruned": self.combos_pruned / n,
            "bounds.prune_ratio": self.combos_pruned / examined if examined else 0.0,
            "bitmatrix.pack_s": _get(both, "bitmatrix.pack", SELF) / n,
            "bitmatrix.splice_s": _get(both, "bitmatrix.splice", SELF) / n,
            "bitmatrix.sparsity_s": _get(both, "bitmatrix.sparsity", SELF) / n,
            "solver.iterations": self.iterations / n,
            "solver.loop_self_s": (
                solve_total - argmax_parent - _get(par, "bitmatrix.splice", TOTAL)
            ) / n,
            "solver.residual_s": (solve_total - attributed) / n,
            "pool.argmax_s": _get(par, "pool.argmax", TOTAL) / n,
            "pool.publish_s": p["publish_s"] / n,
            "pool.shipped_bytes": p["shipped_bytes"] / n,
            "pool.worker_busy_s": p["busy_s"] / n,
            "pool.efficiency": (
                p["busy_s"] / p["efficiency_den"] if p["efficiency_den"] else 0.0
            ),
            "pool.chunk_imbalance": (
                statistics.fmean(p["imbalance"]) if p["imbalance"] else 0.0
            ),
            "pool.inline_retries": p["inline_retries"] / n,
            "checkpoint.write_s": _get(par, "checkpoint.write", TOTAL) / n,
            "service.store_write_s": _get(par, "service.store_write", TOTAL) / n,
            "service.http_s": 0.0,
            "service.polls_per_job": 0.0,
            "service.overhead_s": 0.0,
            "trace.closure": attributed / solve_total if solve_total else 0.0,
            "trace.overhead": (
                self.solve_wall / self.untraced_wall - 1.0
                if self.untraced_wall else 0.0
            ),
        }

    def layer_table(self, wall_name: str) -> list[str]:
        """Self time per layer and per solve, parent and pool workers apart."""
        n = max(self.n, 1)
        wall = _get(self.parent, "solver.solve", TOTAL) / n
        lines = [
            f"per-layer self time per {wall_name} (solver.solve = {wall:.4f} s)",
            f"  {'layer':<14}{'parent s':>11}{'share':>8}{'workers s':>12}",
        ]
        layers: dict[str, list[float]] = {}
        for side, acc in ((0, self.parent), (1, self.workers)):
            for key, row in acc.items():
                layers.setdefault(key.split(".")[0], [0.0, 0.0])[side] += row[SELF] / n
        for layer, (own, workers) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
            share = own / wall if wall else 0.0
            lines.append(f"  {layer:<14}{own:>11.4f}{share:>8.1%}{workers:>12.4f}")
        return lines


def _traced_solve(wl, config, seed: int, draw: int, tracer: Tracer, totals: TraceTotals):
    from repro.core.pool import PoolStats

    tracer.reset()
    tracer.pool_stats = PoolStats()
    tracer.install()
    try:
        s = solve_once(wl, config, seed, draw)
    finally:
        tracer.uninstall()
    if s.error is None:
        r = s.result
        counters = {
            "combos_scored": r.counters.combos_scored,
            "combos_pruned": r.counters.combos_pruned,
            "word_reads": r.counters.word_reads,
        }
        parent = {k: list(v) for k, v in tracer.acc.items()}
        totals.add_solve(
            parent, tracer.worker_totals(), s.solve_s, counters, r.n_iterations
        )
        if tracer.pool_stats.chunks:
            totals.add_pool(tracer.pool_stats, _get(parent, "pool.argmax", TOTAL))
    return s


def run_solver_traced(wl: SolverWorkload, seed: int, seconds: float, work: Path) -> dict:
    """Pairs of untraced and traced solves of the same draw of the cohort.

    The order within a pair alternates so neither side always runs
    second.  Only the traced solves install wrappers.  Pairs go on while
    one more should still end within the window; there is always one.
    """
    warm_up(wl, seed)
    config = wl.config(wl.cohort)
    tracer = Tracer(work / f"trace-{os.getpid()}")
    totals = TraceTotals()
    solves: list[Solve] = []
    start = time.perf_counter()
    k = 0
    while True:
        done = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                done[traced] = _traced_solve(wl, config, seed, k, tracer, totals)
            else:
                done[traced] = solve_once(wl, config, seed, k)
        solves += done.values()
        if done[False].error is None:
            totals.untraced_wall += done[False].solve_s
        k += 1
        pair_s = 2 * _typical(solves)
        if time.perf_counter() - start + pair_s > seconds:
            break
    shutil.rmtree(tracer.work_dir, ignore_errors=True)
    failures = check_solves(wl, solves, work / "oracle")
    metrics = totals.layer_metrics()
    report = totals.layer_table("solve")
    report.append(
        f"closure: attributed {metrics['trace.closure']:.1%} of solver.solve, "
        f"solver.residual_s {metrics['solver.residual_s']:.4f} s; "
        f"trace.overhead {metrics['trace.overhead']:+.2%} over {k} pairs"
    )
    if tracer.missing:
        report.append(f"names not found (layer reads 0): {tracer.missing}")
    return {
        "attempted": len(solves), "failures": failures,
        "metrics": metrics, "report": report,
    }


# -- the gateway workload --------------------------------------------------


@dataclass
class Job:
    cohort_seed: int
    latency_s: float = 0.0
    http_s: float = 0.0
    polls: int = 0
    job_id: str = ""
    result: "dict | None" = None
    error: "str | None" = None


def _request(port: int, method: str, path: str, body: "dict | None" = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


def run_job(wl: GatewayWorkload, port: int, cohort_seed_: int) -> Job:
    """Submit one job, poll its result until ready; time the whole exchange."""
    job = Job(cohort_seed_)
    t0 = time.perf_counter()

    def timed(method, path, body=None):
        t = time.perf_counter()
        out = _request(port, method, path, body)
        job.http_s += time.perf_counter() - t
        return out

    status, reply = timed("POST", "/v1/jobs", wl.payload(cohort_seed_))
    if status != 202:
        job.error = f"submit returned {status}: {reply}"
        return job
    job.job_id = reply["job_id"]
    while True:
        job.polls += 1
        status, reply = timed("GET", f"/v1/jobs/{job.job_id}/result")
        if status == 200:
            break
        if status != 409 or "without result" in reply.get("error", ""):
            job.error = f"result returned {status}: {reply}"
            return job
        if time.perf_counter() - t0 > wl.job_timeout_s:
            job.error = f"no result after {wl.job_timeout_s} s"
            return job
        time.sleep(wl.poll_s)
    job.latency_s = time.perf_counter() - t0
    if reply.get("state") != "done":
        job.error = f"job ended {reply.get('state')}"
    job.result = reply.get("result")
    return job


class Feed:
    """The bank's cohort seeds, reshuffled by ``seed`` on every pass.

    Shared by the clients: each takes the next seed when it submits.
    """

    def __init__(self, wl: GatewayWorkload, seed: int) -> None:
        self.bank = wl.bank
        self.rng = np.random.default_rng(seed)
        self.queue: list[int] = []
        self.lock = threading.Lock()

    def next(self) -> int:
        with self.lock:
            if not self.queue:
                self.queue = [int(x) for x in self.rng.permutation(self.bank)]
            return self.queue.pop()


def closed_loop(wl, port: int, feed: Feed, seconds: float) -> list[Job]:
    """``wl.clients`` threads, each submitting its next job after the last one."""
    jobs: list[list[Job]] = [[] for _ in range(wl.clients)]
    start = time.perf_counter()

    def client(i: int) -> None:
        while time.perf_counter() - start < seconds:
            jobs[i].append(run_job(wl, port, feed.next()))

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(wl.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [j for per in jobs for j in per]


def check_jobs(wl: GatewayWorkload, jobs: list[Job], cache: Path) -> list[str]:
    failures = []
    for j in jobs:
        if j.error is None:
            config = wl.config(j.cohort_seed)
            tumor_d, normal_d = dense(config)
            want = oracle.cached_trajectory(
                cache, oracle_key(config), tumor_d, normal_d, wl.hits
            )
            why = oracle.check_trajectory(j.result["combinations"], want)
            if why is not None:
                j.error = why
        if j.error is not None:
            failures.append(f"job seed {j.cohort_seed}: {j.error}")
    return failures


def _argmax_wall(job: Job) -> float:
    return sum(it["wall_seconds"] for it in job.result["iterations"])


def run_gateway(wl: GatewayWorkload, seed: int, seconds: float, work: Path, trace: bool) -> dict:
    from repro.service.http import Gateway

    state_dir = work / f"gateway-{os.getpid()}"
    gateway = Gateway(state_dir).start()
    try:
        run_job(wl, gateway.port, 0)  # warm-up
        if trace:
            return _gateway_traced(wl, gateway, seed, seconds, work)
        sampler = RssSampler().start()
        start = time.perf_counter()
        jobs = closed_loop(wl, gateway.port, Feed(wl, seed), seconds)
        window = time.perf_counter() - start
        peak = sampler.stop()
        progress = {
            j.job_id: gateway.job(j.job_id).progress for j in jobs if j.job_id
        }
    finally:
        gateway.stop()
        shutil.rmtree(state_dir, ignore_errors=True)
    failures = check_jobs(wl, jobs, work / "oracle")
    ok = [j for j in jobs if j.error is None]
    metrics = {"peak_rss_mb": peak}
    if ok:
        runner_s = [progress[j.job_id]["elapsed_s"] for j in ok]
        lat = [j.latency_s for j in ok]
        combos = math.comb(wl.genes, wl.hits)
        metrics.update({
            "solve_s": statistics.median(runner_s),
            "combos_per_s": statistics.median(
                argmax_calls(len(j.result["iterations"]), j.result["uncovered"])
                * combos / s
                for j, s in zip(ok, runner_s)
            ),
            "first_pick_s": statistics.median(
                j.result["iterations"][0]["wall_seconds"] for j in ok
            ),
            "jobs_per_s": len(ok) / window,
            "job_latency_p50_s": pct(lat, 50),
            "job_latency_p90_s": pct(lat, 90),
        })
    report = [
        f"{len(jobs)} jobs from {wl.clients} clients in {window:.2f} s; "
        f"p90 over {len(ok)} jobs has {len(ok) - math.ceil(0.9 * len(ok))} beyond it",
    ]
    return {
        "attempted": len(jobs), "failures": failures,
        "metrics": metrics, "report": report,
    }


def _gateway_traced(wl, gateway, seed: int, seconds: float, work: Path) -> dict:
    """Half the window untraced, then the same job sequence replayed traced."""
    untraced = closed_loop(wl, gateway.port, Feed(wl, seed), seconds / 2)
    tracer = Tracer(work / f"trace-{os.getpid()}")
    tracer.install()
    try:
        traced = closed_loop(wl, gateway.port, Feed(wl, seed), seconds / 2)
    finally:
        tracer.uninstall()
        shutil.rmtree(tracer.work_dir, ignore_errors=True)
    failures = check_jobs(wl, untraced + traced, work / "oracle")
    ok = [j for j in traced if j.error is None]
    base = [j for j in untraced if j.error is None]
    totals = TraceTotals()
    totals.n = len(ok)
    totals.parent = {k: list(v) for k, v in tracer.acc.items()}
    for j in ok:
        c = j.result["counters"]
        totals.iterations += len(j.result["iterations"])
        totals.combos_scored += c["combos_scored"]
        totals.combos_pruned += c["combos_pruned"]
        totals.word_reads += c["word_reads"]
    metrics = totals.layer_metrics()
    n = max(len(ok), 1)
    p50 = pct([j.latency_s for j in ok], 50) if ok else 0.0
    p50_base = pct([j.latency_s for j in base], 50) if base else 0.0
    metrics.update({
        "service.http_s": sum(j.http_s for j in ok) / n,
        "service.polls_per_job": sum(j.polls for j in ok) / n,
        "service.overhead_s": (
            statistics.median(j.latency_s - _argmax_wall(j) for j in ok) if ok else 0.0
        ),
        "trace.overhead": p50 / p50_base - 1.0 if p50_base else 0.0,
    })
    report = totals.layer_table("job")
    report.append(
        f"closure: attributed {metrics['trace.closure']:.1%} of solver.solve, "
        f"solver.residual_s {metrics['solver.residual_s']:.4f} s; "
        f"trace.overhead {metrics['trace.overhead']:+.2%} on job latency p50 "
        f"({len(ok)} traced vs {len(base)} untraced jobs)"
    )
    if tracer.missing:
        report.append(f"names not found (layer reads 0): {tracer.missing}")
    return {
        "attempted": len(untraced) + len(traced), "failures": failures,
        "metrics": metrics, "report": report,
    }

