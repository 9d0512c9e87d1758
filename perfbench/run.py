"""Benchmark of fdivbounds: two seeded, closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --compare OLD.json NEW.json

Workloads: cli-readme and library (see ``workloads.py`` for what each runs
and why).  Each run first sets the
workload up in fresh interpreters (import fdivbounds from ``src`` and
generate the seeded inputs), then one worker process runs the jobs
closed-loop with one client for ``--seconds`` and checks every output.

With ``--trace 0`` the run reports the end-to-end metrics.  Every time is
calibrated to a reference host speed by the kernel of ``speed.py``, timed in
the same process, because a shared host's speed drifts by 30% over minutes;
the wall-clock figures stand beside them in the result file.

- setup_s: median of five set-ups, each from a fresh interpreter to the
  first job;
- jobs_per_s: the jobs of one pass over the sum, over the job slots of a
  pass, of each slot's median latency in the run; a pass holds the same
  slots every time, so this is the rate of a typical pass, which neither a
  slow spell nor the number of passes in a run moves;
- job_p50_ms: the median job latency;
- job_tail_ms: the latency at a fixed percentile per workload, the highest
  of the 90th and 99th at which a run of 50 s has at least 10 samples
  beyond it (99th on cli-readme, 90th on library); fixed, so that it does
  not flip when a run holds fewer jobs;
- peak_rss_mb: the peak resident memory of the worker.

Failed jobs, those that raised or failed their check, are counted in
``failed``.  With ``--trace 1`` one worker runs jobs untraced for half of
``--seconds``, a second one runs the same jobs traced, and the run reports
the per-layer metrics of ``tracing.py``.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Each run also writes ``perfbench/out/result-*.json``
with the provenance, every metric with its details, the per-layer
predictions and the output fingerprint (the numeric result fields of every
job); traced runs write their spans to ``perfbench/out/spans-*.jsonl``.
``--compare`` lists every fingerprint field of two result files (copy one
aside before running the other commit) that drifted by more than 1e-12
relative, and exits 1 if any did; jobs that only one run reached are listed
but not counted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_S, calibrate
from tracing import CLI_SUBCOMMANDS, FUNCTIONS, IMPORTS, WORKLOADS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS threads in every benchmark process: one client, so one thread
BLAS_THREADS = 1
SETUPS = 5
#: percentile of job_tail_ms per workload: a 50-s run holds about 17,000
#: cli-readme jobs and two to four library passes of 41 jobs
TAIL_PERCENTILE = {"cli-readme": 99.0, "library": 90.0}
DRIFT = 1e-12
#: a run, set-ups and import timing included, ends within this many seconds
DEADLINE_S = 170.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload or --compare is required")
    package = ROOT / "src" / "fdivbounds" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a checkout of fdivbounds", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        print(f"error: {BLAS_THREADS} BLAS threads exceed nproc={nproc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, nproc)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, entry in result["metrics"].items():
            summary["metrics"][prefix + metric] = entry
    print(json.dumps(summary))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool, nproc: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    env = _environment()
    stem = f"{name}-seed{seed}-trace{trace}"
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    base = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed)]
    if tiny:
        base.append("--tiny")
    setups = []
    for i in range(0 if trace else SETUPS - 1):  # setup_s is not reported when traced
        cmd = base + ["--setup-only", "--workdir", str(OUT / f"work-{os.getpid()}-{i}")]
        setups.append(_run_worker(cmd, env, deadline))
    run = base + ["--workdir", str(OUT / f"work-{os.getpid()}-run"), "--spans", str(spans)]
    if trace:
        # an untraced and a traced process run the same jobs, each from a
        # fresh interpreter, so that their throughput ratio is the overhead
        _, plain = _run_worker(run + ["--seconds", str(seconds / 2)], env, deadline)
        limit = len(plain["phase"]["latencies"])
        _, work = _run_worker(run + ["--limit", str(limit), "--trace", "1"], env, deadline)
        phases = [plain["phase"], work["phase"]]
    else:
        setup, work = _run_worker(run + ["--seconds", str(seconds)], env, deadline)
        setups.append((setup, work))
        phases = [work["phase"]]
    for path in OUT.glob(f"work-{os.getpid()}-*"):
        shutil.rmtree(path)

    failures = [f for phase in phases for f in phase["failures"]]
    attempted = sum(len(phase["latencies"]) for phase in phases)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": _provenance(seed, work["versions"], nproc),
        "failures": failures,
        "failed_ratio": len(failures) / attempted,
        # median reference-kernel time of each phase, against REF_S
        "kernel_s": [statistics.median(s[1] for s in phase["kernel"]) for phase in phases],
        "ref_s": REF_S,
        "jobs": [
            {"phase": i, "id": job_id, "label": label, "start_s": t0, "latency_s": latency}
            for i, phase in enumerate(phases)
            for (job_id, label), t0, latency in zip(phase["jobs"], phase["starts"], phase["latencies"])
        ],
        # (start, seconds, seconds of each part) of every kernel sample, on
        # the clock of start_s
        "kernel_samples": [phase["kernel"] for phase in phases],
        "fingerprint": {k: v for phase in phases for k, v in phase["fingerprint"].items()},
    }
    if trace:
        metrics = _layer_values(work["layers"], phases, _import_times(env, deadline))
        record["per_layer"] = metrics
    else:
        metrics = _end_to_end(phases[0], setups, work, TAIL_PERCENTILE[name])
        record["metrics"] = metrics
    out_file = OUT / f"result-{stem}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {name}, seed {seed}, trace {trace}: closed loop, 1 client, "
          f"{attempted} jobs, {len(failures)} failed (failed_ratio {record['failed_ratio']:.6g})")
    for metric, entry in metrics.items():
        if trace and entry["value"] == 0:
            continue  # layers this workload does not call
        notes = {k: v for k, v in entry.items() if k not in ("value", "unit", "predicts")}
        print(f"  {metric:<48} {entry['value']:<14.6g} {entry['unit']:<6} {_brief(notes)}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print(f"  provenance {json.dumps(record['provenance'])}")
    print(f"  result file {out_file.relative_to(ROOT)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": e["value"], "unit": e["unit"]} for m, e in metrics.items()},
    }


def _environment() -> dict:
    env = dict(os.environ)
    env.pop("FDIVBOUNDS_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_worker(cmd: list, env: dict, deadline: float) -> tuple:
    """Run a worker to its end, or kill it at the deadline; return its
    set-up time (fresh interpreter to ready) and its result object."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: worker passed the run's deadline: {' '.join(cmd)}") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"error: worker exited with code {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - start, result


def _end_to_end(phase: dict, setups: list, work: dict, tail_p: float) -> dict:
    wall = phase["latencies"]
    lat = calibrate(phase["starts"], wall, phase["kernel"])
    n = len(lat)
    tail = percentile(lat, tail_p)
    slots: dict = {}
    for (job_id, _), latency in zip(phase["jobs"], lat):
        slots.setdefault(job_id.split(".")[1], []).append(latency)
    setup_s = [s * REF_S / result["kernel_s"] for s, result in setups]
    return {
        "setup_s": {
            "value": statistics.median(setup_s),
            "unit": "s",
            "setups": setup_s,
            "wall": [s for s, _ in setups],
        },
        "jobs_per_s": {
            "value": len(slots) / sum(statistics.median(v) for v in slots.values()),
            "unit": "1/s",
            "pass_jobs": len(slots),
            "passes": n / len(slots),
            "wall_overall": n / phase["wall_s"],
            "wall_s": phase["wall_s"],
        },
        "job_p50_ms": {
            "value": 1e3 * percentile(lat, 50.0),
            "unit": "ms",
            "samples": n,
            "wall": 1e3 * percentile(wall, 50.0),
        },
        "job_tail_ms": {
            "value": 1e3 * tail,
            "unit": "ms",
            "percentile": tail_p,
            "samples": n,
            "beyond": sum(v > tail for v in lat),
            "wall": 1e3 * percentile(wall, tail_p),
        },
        "peak_rss_mb": {"value": work["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def _layer_values(totals: dict, phases: list, imports: dict) -> dict:
    plain, traced = phases
    values = {}
    for name in FUNCTIONS:
        entry = totals.get(name, {})
        for field in ("calls", "busy_s", "share", "failed"):
            values[f"{name}.{field}"] = entry.get(field, 0)
    for sub in CLI_SUBCOMMANDS:
        entry = totals.get(f"cli.{sub}", {})
        values[f"cli.{sub}.calls"] = entry.get("calls", 0)
        values[f"cli.{sub}.busy_s"] = entry.get("busy_s", 0.0)
    for mod in IMPORTS:
        values[f"import.{mod}_s"] = imports[mod]
    rate = lambda phase: len(phase["latencies"]) / phase["wall_s"]
    values["trace.overhead"] = rate(traced) / rate(plain)
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"], "predicts": m["predicts"]}
        for m in layer_metrics()
    }


def _import_times(env: dict, deadline: float, repeats: int = 3) -> dict:
    """Median cumulative import time per module, from ``python -X importtime``.

    A package that scipy loads lazily (scipy.integrate) gets no line of its
    own; its time is then the sum over its outermost submodules' lines.
    """
    samples: dict = {mod: [] for mod in IMPORTS}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fdivbounds"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: import of fdivbounds failed: {proc.stderr[-2000:]}")
        rows = []  # (depth, module, cumulative seconds)
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                depth = len(name) - len(name.lstrip())
                rows.append((depth, name.strip(), int(parts[1]) / 1e6))
        for mod in IMPORTS:
            exact = [sec for _, name, sec in rows if name == mod]
            subs = [(d, sec) for d, name, sec in rows if name.startswith(mod + ".")]
            if exact:
                samples[mod].append(exact[0])
            elif subs:
                top = min(d for d, _ in subs)
                samples[mod].append(sum(sec for d, sec in subs if d == top))
    missing = [mod for mod, s in samples.items() if len(s) != repeats]
    if missing:
        raise SystemExit(f"error: -X importtime did not report {missing}")
    return {mod: statistics.median(s) for mod, s in samples.items()}


def _provenance(seed: int, versions: dict, nproc: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": nproc,
        **versions,
        "workload_seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _brief(notes: dict) -> str:
    return " ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in notes.items()
        if not isinstance(v, list)
    )


def compare(old_path: Path, new_path: Path) -> int:
    """Print every fingerprint field that drifted by more than DRIFT relative."""
    old = json.loads(old_path.read_text())["fingerprint"]
    new = json.loads(new_path.read_text())["fingerprint"]
    drifted = 0
    for job in sorted(set(old) | set(new)):
        if job not in old or job not in new:
            print(f"{job}: only in {'new' if job in new else 'old'}")
            continue
        for field in sorted(set(old[job]) | set(new[job])):
            a, b = old[job].get(field), new[job].get(field)
            if a is None or b is None:
                print(f"{job} {field}: only in {'new' if a is None else 'old'}")
                drifted += 1
            elif _drift(a, b) > DRIFT:
                print(f"{job} {field}: {a!r} -> {b!r} (relative drift {_drift(a, b):.3g})")
                drifted += 1
    print(f"{drifted} fields drifted by more than {DRIFT:g} relative")
    return 1 if drifted else 0


def _drift(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


if __name__ == "__main__":
    sys.exit(main())
