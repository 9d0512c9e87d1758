"""One benchmark process: set up a workload, then run its jobs closed-loop.

Started by ``run.py``, never by hand; ``run.py`` sets PYTHONPATH to the
checkout's ``src`` and the BLAS thread count.  The last line of stdout is one
JSON object with the set-up time stamp, the job latencies and start times,
the reference-kernel samples of ``speed.py``, the failures, the output
fingerprint, the peak resident memory and, when traced, the per-layer totals;
the spans go to the ``--spans`` file.  With ``--setup-only`` the process
stops after set-up and a few kernel samples.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: kernel samples that calibrate one set-up
SETUP_SAMPLES = 9


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--limit", type=int, help="run exactly this many jobs instead")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import numpy
    import scipy

    import fdivbounds

    expected = ROOT / "src" / "fdivbounds"
    if Path(fdivbounds.__file__).resolve().parent != expected:
        print(f"fdivbounds imported from {fdivbounds.__file__}, not {expected}", file=sys.stderr)
        return 2

    from speed import Meter
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    passes = workload.make_passes(args.seed, args.workdir, args.tiny)
    ready = time.monotonic()
    result = {"ready": ready}
    meter = Meter()
    if args.setup_only:
        for _ in range(SETUP_SAMPLES):
            meter.sample()
    else:
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        tracer = Tracer(bool(args.trace))
        result["phase"] = run_phase(passes, tracer, meter, args.seconds, args.limit)
        if args.trace:
            result["layers"] = tracer.totals(result["phase"]["wall_s"])
            tracer.write(args.spans)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["kernel_s"] = meter.median()
    print(json.dumps(result))
    return 0


def run_phase(passes, tracer, meter, seconds: float = 0.0, limit=None) -> dict:
    """Run jobs one after another, in pass order, cycling through the passes,
    with a kernel sample between two jobs whenever the meter is due.

    Stops after ``limit`` jobs when given.  Otherwise it stops between two
    passes, at the first pass boundary where half a pass more would reach
    ``seconds``; so a run lasts ``seconds`` on average even when a pass
    takes several seconds.
    """
    latencies, starts, jobs, failures, fingerprint = [], [], [], [], {}
    start = time.perf_counter()
    stream = (
        (p, j, job) for p in itertools.cycle(range(len(passes))) for j, job in enumerate(passes[p])
    )
    for p, j, job in stream:
        done = len(latencies)
        if limit is not None:
            if done == limit:
                break
        elif done and j == 0:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed * len(passes[0]) / done >= seconds:
                break
        if meter.due():
            meter.sample()
        job_id = f"{p}.{j}"
        t0 = time.perf_counter()
        try:
            with tracer.job(job_id):
                fields = job.run(tracer)
        except Exception as exc:  # a failed job is counted, and the loop goes on
            if not failures:
                traceback.print_exc(file=sys.stderr)
            failures.append(f"{job_id} {job.label}: {type(exc).__name__}: {exc}")
        else:
            fingerprint.setdefault(job_id, fields)
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        jobs.append([job_id, job.label])
    return {
        "latencies": latencies,
        "starts": starts,
        "kernel": meter.samples,
        "jobs": jobs,
        "wall_s": time.perf_counter() - start,
        "failures": failures,
        "fingerprint": fingerprint,
    }


if __name__ == "__main__":
    sys.exit(main())
