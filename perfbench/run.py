"""Wall-clock benchmark of the greedy multi-hit solver and its gateway.

Run from the repository root::

    python3 perfbench/run.py --workload h3-sparse --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` is the separate traced run: it solves each cohort once
untraced and once with per-layer wrappers (see ``tracer.py``), and
reports per-layer time and counts, their closure against the solve and
the tracing overhead.  Every winner trajectory is checked against the
dense oracle (``oracle.py``); a mismatch, an exception or a failed job
counts as a failure.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are the human-readable report with the
host fingerprint.  ``python3 perfbench/selftest.py`` checks the
benchmark itself at a tiny shape.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 5

# name -> (unit, better, bound)
END_TO_END = {
    "solve_s": ("s", "lower", 0.25),
    "combos_per_s": ("combos/s", "higher", 0.25),
    "first_pick_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.15),
    "success_rate": ("fraction", "higher", 0.01),
    "jobs_per_s": ("jobs/s", "higher", 0.25),
    "job_latency_p50_s": ("s", "lower", 0.25),
    "job_latency_p90_s": ("s", "lower", 0.25),
}

# name -> (unit, better)
PER_LAYER = {
    "combinatorics.decode_s": ("s", "lower"),
    "combinatorics.decode_lambdas": ("count", "lower"),
    "combinatorics.decode_calls": ("count", "lower"),
    "kernels.popcount_s": ("s", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.best_of_s": ("s", "lower"),
    "kernels.word_reads": ("computed-words", "lower"),
    "engine.argmax_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "bounds.build_s": ("s", "lower"),
    "bounds.refresh_s": ("s", "lower"),
    "bounds.combos_scored": ("count", "lower"),
    "bounds.combos_pruned": ("count", "higher"),
    "bounds.prune_ratio": ("ratio", "higher"),
    "bitmatrix.pack_s": ("s", "lower"),
    "bitmatrix.splice_s": ("s", "lower"),
    "bitmatrix.sparsity_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.loop_self_s": ("s", "lower"),
    "solver.residual_s": ("s", "lower"),
    "pool.argmax_s": ("s", "lower"),
    "pool.publish_s": ("s", "lower"),
    "pool.shipped_bytes": ("bytes", "lower"),
    "pool.worker_busy_s": ("s", "lower"),
    "pool.efficiency": ("ratio", "higher"),
    "pool.chunk_imbalance": ("ratio", "lower"),
    "pool.inline_retries": ("count", "lower"),
    "service.http_s": ("s", "lower"),
    "service.polls_per_job": ("count", "lower"),
    "service.overhead_s": ("s", "lower"),
    "service.store_write_s": ("s", "lower"),
    "checkpoint.write_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.closure": ("ratio", "higher"),
}


def setup_seconds(wl, seed: int) -> float:
    """Median set-up time over :data:`SETUP_PROBES` fresh processes."""
    import numpy as np

    from workloads import GatewayWorkload, permuted

    tag = f"{os.getpid()}"
    cohort = WORK / f"setup-{tag}.npz"
    if isinstance(wl, GatewayWorkload):
        tumor, normal = permuted(wl.config(0), seed, 0)
    else:
        tumor, normal = permuted(wl.config(wl.cohort), seed, 0)
    np.savez(cohort, tumor=tumor, normal=normal)
    if isinstance(wl, GatewayWorkload):
        spec = {"kind": "gateway", "state_dir": str(WORK / f"setup-gateway-{tag}")}
    else:
        spec = {"kind": "solver", "solver": wl.solver_kwargs()}
    times = []
    try:
        for _ in range(SETUP_PROBES):
            out = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                 str(cohort), json.dumps(spec)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    finally:
        cohort.unlink(missing_ok=True)
        if spec["kind"] == "gateway":
            import shutil

            shutil.rmtree(spec["state_dir"], ignore_errors=True)
    return statistics.median(times)


def _wait_pid(pid: int, deadline: float) -> None:
    """Reap child ``pid``; kill it once ``deadline`` has passed."""
    import signal

    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.02)
    except ChildProcessError:  # already reaped
        pass


def _stop_resource_tracker(deadline: float) -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Shared-memory segments register with a tracker process that
    otherwise lives on after this one exits, until it reads EOF on its
    pipe.  Closing that pipe here, once every segment is unlinked and
    every pool worker holding the pipe has ended, makes it exit now.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return
        tracker._fd = tracker._pid = None
        os.close(fd)
        _wait_pid(pid, deadline)


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every process this run started to end, killing stragglers.

    Pool workers go first, then the resource tracker, then anything
    else still below this process in the process tree.
    """
    import multiprocessing
    import signal

    from hostinfo import descendants

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for proc in multiprocessing.active_children():
                proc.kill()
                proc.join(5)
            break
        time.sleep(0.05)
    _stop_resource_tracker(deadline)
    while (pids := descendants(os.getpid())) and time.monotonic() < deadline + 5:
        for pid in pids:
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # not a direct child: poll until gone
                pass
        time.sleep(0.02)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from hostinfo import fingerprint
    from workloads import WORKLOADS, SolverWorkload, run_gateway, run_solver, run_solver_traced

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    host = fingerprint()

    try:
        if isinstance(wl, SolverWorkload):
            run = (run_solver_traced if args.trace else run_solver)(
                wl, args.seed, args.seconds, WORK
            )
        else:
            run = run_gateway(wl, args.seed, args.seconds, WORK, bool(args.trace))
        if not args.trace:
            run["metrics"]["setup_s"] = setup_seconds(wl, args.seed)
    finally:
        reap_children()

    failed = len(run["failures"])
    attempted = run["attempted"]
    if not args.trace:
        run["metrics"]["success_rate"] = 1.0 - failed / attempted
    spec = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in spec if name not in run["metrics"]]
    metrics = {
        name: {"value": run["metrics"][name], "unit": spec[name][0]}
        for name in spec if name in run["metrics"]
    }

    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for line in run["report"]:
        print(line)
    for msg in run["failures"]:
        print(f"FAILED {msg}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    if missing:
        print(f"metrics not measured: {missing}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"host": host, "workload": wl.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "attempted": attempted, "failures": run["failures"],
                    "metrics": metrics}, indent=1)
    )
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
