"""Self-test of the benchmark at a tiny shape.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` lists exactly the metrics ``run.py``
defines, that every workload (shrunk to a few seconds) emits every one
of them with its unit in both modes, and that the oracle check flags a
deliberately corrupted winner, and that shuffling the sample columns
leaves the oracle trajectory unchanged.  Exits non-zero on the first
failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
sys.path.insert(0, str(run.HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "h3-sparse": dict(genes=16, n_tumor=90, n_normal=40),
    "h4-pool": dict(genes=16, n_tumor=90, n_normal=40),
    "gateway": dict(genes=14, samples=40),
}


def check(cond: bool, msg: str) -> None:
    if not cond:
        print(f"selftest FAILED: {msg}")
        sys.exit(1)


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.py")
    check(layer == run.PER_LAYER, "BENCHMARK.json per_layer differs from run.py")
    names = sorted(w["name"] for w in spec["workloads"])
    check(names == sorted(workloads.WORKLOADS), "workload names differ")


def check_emits() -> None:
    for name, shape in TINY.items():
        real = workloads.WORKLOADS[name]
        workloads.WORKLOADS[name] = dataclasses.replace(real, **shape)
        try:
            for trace, spec in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run.main([
                        "--workload", name, "--seed", "3",
                        "--seconds", "1", "--trace", str(trace),
                    ])
                last = json.loads(out.getvalue().strip().splitlines()[-1])
                check(code == 0, f"{name} trace {trace} exited {code}")
                check(last["correct"] and last["failed"] == 0,
                      f"{name} trace {trace} not correct:\n{out.getvalue()}")
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                want = {k: v[0] for k, v in spec.items()}
                check(got == want, f"{name} trace {trace} metrics {got} != {want}")
                print(f"  {name} trace {trace}: {len(got)} metrics, "
                      f"{last['attempted']} attempted")
        finally:
            workloads.WORKLOADS[name] = real


def check_oracle_flags_corruption() -> None:
    wl = dataclasses.replace(workloads.WORKLOADS["h3-sparse"], **TINY["h3-sparse"])
    s = workloads.solve_once(wl, wl.config(5), 3, 1)
    cache = run.WORK / "selftest-oracle"
    check(not workloads.check_solves(wl, [s], cache), "clean solve flagged")
    check(
        oracle.reference_trajectory(*workloads.permuted(s.config, 3, 1), wl.hits)
        == oracle.reference_trajectory(*workloads.dense(s.config), wl.hits),
        "oracle trajectory changed with the sample order",
    )
    combos = s.result.combinations
    first = combos[0]
    for bad in (
        dataclasses.replace(first, genes=(0, 1, 2) if first.genes != (0, 1, 2) else (0, 1, 3)),
        dataclasses.replace(first, tp=first.tp + 1),
        dataclasses.replace(first, f=first.f * (1 + 1e-12)),
    ):
        s.result.combinations = [bad] + combos[1:]
        check(len(workloads.check_solves(wl, [s], cache)) == 1,
              f"corrupted winner {bad} not flagged")
    s.result.combinations = combos[:-1]
    check(len(workloads.check_solves(wl, [s], cache)) == 1, "short trajectory not flagged")
    as_dicts = [dataclasses.asdict(c) for c in combos]
    want = oracle.cached_trajectory(
        cache, workloads.oracle_key(s.config), *workloads.dense(s.config), wl.hits
    )
    check(oracle.check_trajectory(as_dicts, want) is None, "gateway-form result flagged")
    as_dicts[0]["tn"] += 1
    check(oracle.check_trajectory(as_dicts, want) is not None,
          "corrupted gateway-form winner not flagged")
    print("  oracle flags corrupted winners")


def main() -> int:
    check_manifest()
    check_oracle_flags_corruption()
    check_emits()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
