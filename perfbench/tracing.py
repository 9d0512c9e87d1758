"""Spans around the benchmark's calls into fdivbounds, and the per-layer
metrics built from them.

Spans are recorded only in the benchmark's own files, around each call the
benchmark makes into a public function of the library; the library itself is
not instrumented.  A span holds its name, start, end, parent span and job id.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

WORKLOADS = ("cli-readme", "library")

# What a change to each layer should move: (end-to-end metric, workload) pairs.
_SOLVERS = (("jobs_per_s", "library"), ("job_tail_ms", "library"))
# Many tiny calls on small spaces, mostly from the verify suites.
_SMALL_CALLS = (("jobs_per_s", "library"),)
_CONSTRUCTIONS = (
    ("job_tail_ms", "library"),
    ("jobs_per_s", "library"),
    ("peak_rss_mb", "library"),
)
# The entropy grids are the most numerous jobs of a library pass.
_GRIDS = (("job_p50_ms", "library"),)

#: traced library functions, by ``<module>.<function>``, with their predictions
FUNCTIONS = {
    "distributions.DiscreteDistribution": _SMALL_CALLS,
    "distributions.Ensemble": _SMALL_CALLS,
    "distributions.uniform_mixture": _SMALL_CALLS,
    "divergences.eval_divergence": _SMALL_CALLS,
    "testing_risk.bayes_risk_exact": _SMALL_CALLS,
    "testing_risk.minimax_risk": _SOLVERS,
    "informativity.informativity_closed_form": _SOLVERS,
    "informativity.informativity_numeric": _SOLVERS,
    "informativity.informativity_tv_exact": _SOLVERS,
    "mixture_bounds.named_bound_from_ensemble": _SMALL_CALLS,
    "mixture_bounds.implicit_risk_bound": _SMALL_CALLS,
    "verify.core": _SMALL_CALLS,
    "verify.mixture": _SMALL_CALLS,
    "verify.jf": _SOLVERS,
    "verify.entropy": _SMALL_CALLS,
    "verify.constructions": _SMALL_CALLS,
    "constructions.covariance_minimax_bound": _CONSTRUCTIONS,
    "constructions.support_packing_bound": _CONSTRUCTIONS,
    "entropy_bounds.builtin_profile": _GRIDS,
    "entropy_bounds.profile_from_table": _GRIDS,
    "entropy_bounds.optimize_entropy_bound": _GRIDS,
}

#: subcommands the cli-readme workload calls
CLI_SUBCOMMANDS = (
    "divergence",
    "bayes-risk",
    "minimax-risk",
    "bound",
    "jf",
    "jf-cover",
    "entropy-bound",
    "vg",
    "covmat-bound",
    "cap-packing",
)
_CLI = (("job_p50_ms", "cli-readme"),)

#: modules whose cumulative import time ``python -X importtime`` reports
IMPORTS = ("fdivbounds", "scipy.optimize", "scipy.linalg", "scipy.integrate", "numpy")
_IMPORT = tuple(("setup_s", w) for w in WORKLOADS)


def layer_metrics() -> list[dict]:
    """Every per-layer metric: name, unit, better, and the end-to-end
    metrics and workloads it should move."""
    out = []
    for name, predicts in FUNCTIONS.items():
        out += [
            _metric(f"{name}.calls", "count", "higher", predicts),
            _metric(f"{name}.busy_s", "s", "lower", predicts),
            _metric(f"{name}.share", "ratio", "lower", predicts),
            _metric(f"{name}.failed", "count", "lower", predicts),
        ]
    for sub in CLI_SUBCOMMANDS:
        out += [
            _metric(f"cli.{sub}.calls", "count", "higher", _CLI),
            _metric(f"cli.{sub}.busy_s", "s", "lower", _CLI),
        ]
    out += [_metric(f"import.{mod}_s", "s", "lower", _IMPORT) for mod in IMPORTS]
    # traced jobs_per_s over untraced jobs_per_s: a health figure of the
    # tracing itself, which no library change should move
    out.append(_metric("trace.overhead", "ratio", "higher", ()))
    return out


def _metric(name: str, unit: str, better: str, predicts) -> dict:
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "predicts": [{"metric": m, "workload": w} for m, w in predicts],
    }


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    ok: bool


class Tracer:
    """Records spans when enabled; otherwise ``call`` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next_id = 0
        self._job: Optional[str] = None
        self._job_span: Optional[int] = None
        self._origin = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name, self._job_span):
            return fn(*args, **kwargs)

    @contextmanager
    def job(self, job_id: str):
        if not self.enabled:
            yield
            return
        self._job = job_id
        with self._span("job", None) as span_id:
            self._job_span = span_id
            try:
                yield
            finally:
                self._job_span = None
                self._job = None

    @contextmanager
    def _span(self, name: str, parent: Optional[int]):
        span_id = self._next_id
        self._next_id += 1
        job = self._job
        start = time.perf_counter()
        ok = False
        try:
            yield span_id
            ok = True
        finally:
            end = time.perf_counter()
            self.spans.append(
                Span(span_id, name, start - self._origin, end - self._origin, parent, job, ok)
            )

    def write(self, path) -> None:
        """Write the spans, one JSON object a line, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")

    def totals(self, wall_s: float) -> dict:
        """calls, busy_s, share and failed per traced name other than jobs."""
        out: dict = {}
        for span in self.spans:
            if span.name == "job":
                continue
            entry = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "failed": 0})
            entry["calls"] += 1
            entry["busy_s"] += span.end - span.start
            entry["failed"] += not span.ok
        for entry in out.values():
            entry["share"] = entry["busy_s"] / wall_s if wall_s > 0 else 0.0
        return out
