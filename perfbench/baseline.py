"""Record the benchmark's baseline: repeated untraced runs plus one traced
run per workload, written to perfbench/baseline.json.

    python3 perfbench/baseline.py [--runs 10] [--workloads a,b]

From the checkout root.  For each workload it runs perfbench/run.py with
seeds 1..runs at the run length of BENCHMARK.json and reports, for every
end-to-end metric, the values, their median and quartiles and the spread
(third minus first quartile, as a share of the median) next to the
metric's bound.  The traced run gives the per-layer table; the tracing
overhead is its traced job time minus the untraced median job time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[0][len("machine "):])
    layers = next((json.loads(line[len("layers "):]) for line in lines
                   if line.startswith("layers ")), None)
    return json.loads(lines[-1]), layers, machine, wall


def main() -> int:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    out = HERE / "baseline.json"

    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    if out.is_file():   # keep the workloads this call does not rerun
        with open(out, encoding="utf-8") as fh:
            record["workloads"] = json.load(fh)["workloads"]
    for name in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls = []
        for seed in range(1, args.runs + 1):
            result, _, machine, wall = run(name, seed, bench["run_seconds"], 0)
            walls.append(wall)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
                + f"; run wall {wall:.1f} s", flush=True)
            for k in values:
                values[k].append(result["metrics"][k]["value"])
        metrics = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            metrics[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": m["bound"], "values": v}
            print(f"{name} {m['name']}: median {med:.6g} {m['unit']}, spread "
                  f"{spread:.4f} (bound {m['bound']}, third {m['bound'] / 3:.4f})", flush=True)
        traced, layers, _, traced_wall = run(name, 1, bench["run_seconds"], 1)
        overhead = layers["trace.job_s"] - metrics["job_s"]["median"]
        print(f"{name}: traced job_s {layers['trace.job_s']:.4f}, tracing overhead "
              f"{overhead:.4f} s; run wall median {statistics.median(walls):.1f} s", flush=True)
        record["machine"] = machine
        record["workloads"][name] = {
            "runs": args.runs,
            "end_to_end": metrics,
            "run_wall_s": walls + [traced_wall],
            "tracing_overhead_s": overhead,
            "layers": layers,
            "ok_traced": traced["correct"],
        }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
