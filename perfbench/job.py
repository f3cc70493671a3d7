"""One benchmark job, run in a fresh interpreter by perfbench/run.py.

    python3 perfbench/job.py SPEC.json RESULT.json   run the job in SPEC
    python3 perfbench/job.py --setup-only           report set-up time only

The launching process puts its wall-clock time in PERFBENCH_LAUNCH just
before it starts this interpreter; set-up time runs from then until
`import cmvkit.cli` has completed.  The job itself is timed from its first
call into cmvkit to the last output written.
"""

import os
import sys
import time

import cmvkit.cli  # this import is the set-up being timed

SETUP_S = time.time() - float(os.environ["PERFBENCH_LAUNCH"])

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from cmvkit import caratheodory, cli, coeffs, spectral, verify  # noqa: E402


def cache_state() -> dict:
    """Sizes of the process-wide caches that make a repeat call cheap."""
    info = caratheodory._unitary_eigensystem.cache_info()
    return {"eigensystem_hits": info.hits, "eigensystem_misses": info.misses,
            "eigensystem_size": info.currsize,
            "convention_cache": len(spectral._convention_cache),
            "gz_cache": len(verify._gz_cache)}


def is_warm(state: dict) -> bool:
    return any(state[k] for k in ("eigensystem_size", "convention_cache", "gz_cache"))


def peak_rss_mb() -> float:
    """High-water resident set of this process.  ru_maxrss would do, but
    Linux carries the launching process's high-water mark over exec, so
    run.py's own memory would leak into it; VmHWM starts afresh."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resolvent_sweep(zs, window: int, radius: int, path) -> None:
    """Resolvent entries G(x, y), |x|, |y| <= radius, of the golden-mean
    Fibonacci model with a free left half, at each z; saved to `path`."""
    seq = coeffs.extend_two_sided(
        coeffs.make_sturmian(0.5, -0.5, coeffs.GOLDEN_MEAN),
        coeffs.make_constant(0.0))
    sites = range(-radius, radius + 1)
    out = np.empty((len(zs), len(sites), len(sites)), dtype=complex)
    for k, z in enumerate(zs):
        ctx = spectral.build_gz_context(seq, z, window)
        for i, x in enumerate(sites):
            for j, y in enumerate(sites):
                out[k, i, j] = spectral.gz_entry(ctx, x, y)
    np.save(path, out)


def run(spec: dict) -> dict:
    start_caches = cache_state()
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    codes = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for step in spec["steps"]:
        if step["kind"] == "cli":
            codes.append(cli.main(step["argv"]))
        else:
            zs = np.array(step["z_re"]) + 1j * np.array(step["z_im"])
            resolvent_sweep(zs, step["window"], step["radius"], step["path"])
    job_s = time.perf_counter() - t0
    job_cpu_s = time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
    out_dir = Path(spec["out"])
    result = {
        "setup_s": SETUP_S,
        "job_s": job_s,
        "job_cpu_s": job_cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "exit_codes": codes,
        "caches_at_start": start_caches,
        "caches_at_end": cache_state(),
        "warm_start": is_warm(start_caches),
        "output_bytes": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
    }
    if tracer is not None:
        layers = tracer.summary(job_s)
        layers["caratheodory.measure_oracle_F.eigensystem_builds"] = \
            result["caches_at_end"]["eigensystem_misses"]
        layers["cli.output_bytes"] = result["output_bytes"]
        result["layers"] = layers
        result["spans"] = tracer.spans
    return result


def main(argv) -> int:
    if argv == ["--setup-only"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    log = open(spec["log"], "w", encoding="utf-8")
    stdout = sys.stdout
    sys.stdout = log
    try:
        result = run(spec)
    finally:
        sys.stdout = stdout
        log.close()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
