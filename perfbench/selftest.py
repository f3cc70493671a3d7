"""Reduced-size self-test of the benchmark runner, perfbench/run.py.

    python3 perfbench/selftest.py      (from the checkout root, ~1 minute)

Runs perfbench/run.py --small (tiny grids, few walk steps, three verify
criteria) on every workload, untraced and traced.  Checks that the last
line names every end-to-end metric of BENCHMARK.json with its unit (every
per-layer metric when traced), that the job passed its correctness check,
that the trace holds the spans each workload must reach, that no span's
self time exceeds the job's wall time and that spans cover all but a
small share of it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
import workloads  # noqa: E402


def run(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    layers = next((json.loads(line[len("layers "):]) for line in lines
                   if line.startswith("layers ")), None)
    return json.loads(lines[-1]), layers


def check_metrics(result: dict, wanted: list) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"job failed its check: {result}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} missing or without unit {m['unit']}: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


# spans that each workload's small job must reach; a wrapper that stops
# seeing its calls (say, a registry no longer patched) leaves one at 0
REQUIRED_CALLS = {
    "fib-holder": ["cli.cmd_spectrum", "cli.cmd_holder", "caratheodory.schur_F_batch",
                   "transfer.norm_profile_batch", "tracemap.orbit_sweep", "cli.write"],
    "explicit-measure": ["cli.cmd_measure", "caratheodory.schur_F_batch",
                         "spectral.F_extended_batch", "coeffs.alpha_array", "cli.write"],
    "walk-resolvent": ["cli.cmd_walk", "operator.evolve_walk", "spectral.build_gz_context",
                       "spectral.gz_entry", "cli.write"],
    "verify-battery": ["cli.cmd_verify", "verify.run_all", "verify.criterion_1",
                       "verify.criterion_5", "verify.criterion_8", "cli.write"],
}
# largest share of the traced job that no span may cover
MAX_UNATTRIBUTED = 0.1


def check_trace(workload: str, layers: dict) -> list:
    job_s = layers["trace.job_s"]
    problems = [f"{name} never called" for name in REQUIRED_CALLS[workload]
                if layers.get(f"{name}.calls", 0) < 1]
    problems += [f"{k} = {v} exceeds job_s {job_s}" for k, v in layers.items()
                 if k.endswith(".s") and k.count(".") == 2 and v > job_s]
    if layers["trace.unattributed_s"] > MAX_UNATTRIBUTED * job_s:
        problems.append(f"spans leave {layers['trace.unattributed_s']:.4f} s of "
                        f"job_s {job_s:.4f} s unattributed")
    return problems


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = 0
    for w in workloads.NAMES:
        untraced, _ = run(w, 0)
        traced, layers = run(w, 1)
        problems = (check_metrics(untraced, bench["end_to_end"])
                    + check_metrics(traced, bench["per_layer"])
                    + check_trace(w, layers))
        failures += bool(problems)
        print(f"{w}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
