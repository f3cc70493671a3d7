"""Cold-process benchmark for cmvkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cmvkit checkout; the package is imported from
./src.  Each job runs in a fresh interpreter (perfbench/job.py), one at a
time, with BLAS/OpenMP threads capped at the number of usable CPUs.  Jobs
repeat until S seconds have passed (at least one job).  After each job its
outputs are checked here, outside the timed region.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones (job_s, setup_s, peak_rss_mb, ok_frac);
with --trace 1 each job is traced and the metrics are the per-layer ones
named in BENCHMARK.json.  Lines before it carry the machine record and
one line per job.  Scratch files live in .perfbench_work/ and are removed
before the run exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_CAPS = {v: str(NPROC) for v in THREAD_VARS}
SETUP_SAMPLES = 3
# a job that runs longer than this is killed and counts as failed, so that
# a run ends within 180 s
JOB_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(args, **kwargs) -> subprocess.CompletedProcess:
    env = child_env()
    env["PERFBENCH_LAUNCH"] = repr(time.time())
    return subprocess.run([sys.executable, str(HERE / "job.py"), *args],
                          env=env, cwd=ROOT, **kwargs)


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": NPROC, "cpu": cpu, "thread_caps": THREAD_CAPS}


def setup_sample() -> float:
    proc = launch(["--setup-only"], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)["setup_s"]


def run_job(workloads, name, spec, job_dir: Path) -> tuple:
    """Run one job and check it; returns (result or None, problems)."""
    out = Path(spec["out"])
    for d in (out, job_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    spec["log"] = str(job_dir / "job.log")
    spec_path, result_path = job_dir / "spec.json", job_dir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(job_dir / "job.err", "w", encoding="utf-8") as err:
        try:
            proc = launch([str(spec_path), str(result_path)], stdout=err, stderr=err,
                          timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, [f"job killed after {JOB_TIMEOUT_S} s"]
    if proc.returncode != 0:
        tail = (job_dir / "job.err").read_text(encoding="utf-8")[-2000:]
        return None, [f"job exited with {proc.returncode}: {tail}"]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    problems = []
    if result["warm_start"]:
        problems.append(f"caches warm at start: {result['caches_at_start']}")
    try:
        problems += workloads.check(name, spec, out, result)
    except Exception:  # a check that cannot run counts as a failed job
        problems.append(traceback.format_exc(limit=3))
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink every workload (used by selftest.py)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cmvkit" / "cli.py").is_file():
        print(f"error: no cmvkit sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(ROOT / "src"))
    import cmvkit
    if not Path(cmvkit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: cmvkit imported from {cmvkit.__file__}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    machine = machine_record()
    print("machine " + json.dumps(machine), flush=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, workloads, work: Path) -> int:
    spec = workloads.make(args.workload, args.seed, work, small=args.small)
    spec["trace"] = bool(args.trace)
    setups = [setup_sample()]   # also compiles the package's bytecode once
    results, attempted, failed = [], 0, 0
    t_start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - t_start < args.seconds:
        result, problems = run_job(workloads, args.workload, spec, work / "job")
        attempted += 1
        failed += bool(problems)
        if result is not None:
            results.append(result)
            setups.append(result["setup_s"])
            print(f"job {attempted}: job_s {result['job_s']:.4f} job_cpu_s "
                  f"{result['job_cpu_s']:.4f} setup_s "
                  f"{result['setup_s']:.4f} peak_rss_mb {result['peak_rss_mb']:.1f} "
                  f"output_bytes {result['output_bytes']} caches_at_end "
                  f"{json.dumps(result['caches_at_end'])}", flush=True)
        for p in problems:
            print(f"job {attempted}: FAILED {p}", flush=True)
    if not results:
        print("error: no job completed", file=sys.stderr)
        return 1
    if args.trace:
        layers = [r["layers"] for r in results]
        print("layers " + json.dumps(_median_table(layers)), flush=True)
        metrics = {m["name"]: {"value": statistics.median(t.get(m["name"], 0)
                                                          for t in layers),
                               "unit": m["unit"]}
                   for m in _per_layer_metrics()}
    else:
        while len(setups) < SETUP_SAMPLES + 1:
            setups.append(setup_sample())
        values = {
            "job_s": statistics.median(r["job_s"] for r in results),
            # the first sample paid for compiling bytecode; the jobs did not
            "setup_s": statistics.median(setups[1:]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def _median_table(tables) -> dict:
    keys = sorted(set().union(*tables))
    return {k: statistics.median(t.get(k, 0) for t in tables) for k in keys}


def _per_layer_metrics() -> list:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


if __name__ == "__main__":
    sys.exit(main())
