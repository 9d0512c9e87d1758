"""Seeded inputs, jobs and correctness checks of the benchmark workloads.

Every workload is a closed loop with one client: the worker issues a job only
after the previous one returned, because callers of the library wait for
each answer.  A workload is a list of passes and a pass is a list of jobs.
All inputs are generated during set-up from the workload seed; the library
receives only those generated inputs.  A job returns the numeric fields of
its result (the output fingerprint) and raises ``CheckFailed`` when a result
is wrong, so that a fast wrong answer counts as a failed job.

The "why" of each workload records its size limits and the reasons for them.
Timings quoted there were taken on a 2-core x86-64 virtual machine with
Python 3.11, numpy 2.4 and scipy 1.17 and one BLAS thread.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fdivbounds as fb
from fdivbounds import cli, verify

#: distinct seeded input sets per run; later passes reuse them in turn
PASSES = 8


class CheckFailed(Exception):
    """A job returned, but its result failed a correctness check."""


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable  # run(tracer) -> dict of numeric result fields


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_passes: Callable  # make_passes(seed, workdir, tiny) -> list[list[Job]]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def flatten(obj, prefix: str = "") -> dict:
    """Numeric leaves of a JSON-like value, keyed by their dotted path."""
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            out.update(flatten(value, f"{prefix}{i}."))
    elif isinstance(obj, (int, float, np.integer, np.floating)) and not isinstance(obj, bool):
        out[prefix[:-1]] = float(obj)
    return out


# ---------------------------------------------------------------------------
# library: ensemble solvers, verify suites and estimation in one closed loop
# ---------------------------------------------------------------------------

LIBRARY_WHY = (
    "The library's own work in one closed loop: each pass runs the eight "
    "ensemble-solver jobs, the five verify suites and the 28 estimation jobs "
    "described below, about 16 s in all, and a run stops only between "
    "passes. The three job families share one workload, not three, so that "
    "a run can last 50 s within the benchmark's time budget: on a shared "
    "2-vCPU host, runs of 25 s spread by about 20% IQR/median, too close to "
    "the bounds. The per-layer metrics still tell the families apart."
)

ENSEMBLE_WHY = (
    "Ensemble solvers. Few, large solver calls: Frank-Wolfe informativity "
    "(0.05-2.2 s a call at these sizes), the total-variation LP and the HiGHS "
    "minimax LP, the calls ROADMAP item 2 replaces. Sizes stop at N=12 "
    "members on S=128 points so the eight jobs of a pass take about 5 s; at "
    "16x256 one Frank-Wolfe call alone takes 2.2-3.9 s. Every pass has the "
    "same eight slots (N, S, generator, sparse members, prior), which cover "
    "both ends of N in [2, 12] and S in [4, 128] and give each generator one "
    "small and one large instance, one with sparse members (zero on a random "
    "quarter of the points, which exercises the support restriction and the "
    "f(0+) conventions) and one with a prior. The seed draws the pmfs from "
    "the flat Dirichlet, the zeroed points and the priors. Sizes and the "
    "Dirichlet concentration are fixed because Frank-Wolfe time grows with "
    "the size and varies twofold with the concentration, which would make "
    "runs vary more between seeds than between commits."
)

#: (N, S, generator, sparse members, prior) of the eight jobs of a pass
_SLOTS = (
    (2, 4, "chi2", False, True),
    (5, 32, "power:3", True, False),
    (8, 72, "hellinger_half", False, True),
    (12, 128, "reverse_kl", False, False),
    (2, 128, "power:3", False, True),
    (5, 72, "hellinger_half", True, False),
    (8, 32, "reverse_kl", True, True),
    (12, 4, "chi2", True, False),
)
_NAMED = ("fano", "chi2", "hellinger", "tv")
_CLOSED = ("kl", "chi2", "hellinger_half")
_NUMERIC_TOL = 1e-8


def _ensemble_passes(seed: int, workdir: Path, tiny: bool) -> list:
    rng = np.random.default_rng([seed, 1])
    passes = []
    for _ in range(PASSES):
        jobs = []
        for n, s, gen_name, sparse, weighted in _SLOTS:
            if tiny:
                n, s = min(n, 3), min(s, 6)
            rows = rng.dirichlet(np.ones(s), size=n)
            if sparse:
                for i in range(0, n, 2):
                    zero = rng.choice(s, size=max(1, s // 4), replace=False)
                    rows[i, zero] = 0.0
                    rows[i] /= rows[i].sum()
            prior = rng.dirichlet(np.ones(n)) if weighted else None
            gen = fb.builtin_generator(gen_name)
            label = f"ensemble N={n} S={s} gen={gen_name} sparse={sparse} prior={weighted}"
            jobs.append(Job(label, _ensemble_job(rows, prior, gen)))
        passes.append(jobs)
    return passes


def _ensemble_job(rows: np.ndarray, prior, gen) -> Callable:
    def run(t) -> dict:
        members = tuple(
            t.call("distributions.DiscreteDistribution", fb.DiscreteDistribution, r)
            for r in rows
        )
        ens = t.call("distributions.Ensemble", fb.Ensemble, members, prior)
        uniform = ens
        if prior is not None:
            uniform = t.call("distributions.Ensemble", fb.Ensemble, members)
        n = len(members)
        f = {"bayes": t.call("testing_risk.bayes_risk_exact", fb.bayes_risk_exact, ens)}
        f["bayes_uniform"] = f["bayes"]
        if prior is not None:
            f["bayes_uniform"] = t.call(
                "testing_risk.bayes_risk_exact", fb.bayes_risk_exact, uniform
            )
        minimax = t.call("testing_risk.minimax_risk", fb.minimax_risk, ens)
        f["minimax"], f["minimax_gap"] = minimax.value, minimax.duality_gap
        closed = list(_CLOSED)
        if gen.name.startswith("power:"):
            closed.append(gen.name)
        for name in closed:
            res = t.call(
                "informativity.informativity_closed_form",
                fb.informativity_closed_form,
                name,
                ens,
            )
            f[f"closed_{name}"] = res.value
        numeric = t.call(
            "informativity.informativity_numeric",
            fb.informativity_numeric,
            gen,
            ens,
            tol=_NUMERIC_TOL,
        )
        f["numeric"], f["numeric_gap"] = numeric.value, numeric.duality_gap
        tv = t.call("informativity.informativity_tv_exact", fb.informativity_tv_exact, ens)
        f["tv"] = tv.value
        for family in _NAMED:
            rep = t.call(
                "mixture_bounds.named_bound_from_ensemble",
                fb.named_bound_from_ensemble,
                family,
                ens,
            )
            f[f"bound_{family}"] = rep.lower_bound
        mix = t.call("distributions.uniform_mixture", fb.uniform_mixture, ens)
        f["divergence_sum"] = sum(
            t.call("divergences.eval_divergence", fb.eval_divergence, gen, m, mix)
            for m in members
        )
        f["implicit"] = t.call(
            "mixture_bounds.implicit_risk_bound",
            fb.implicit_risk_bound,
            gen,
            n,
            f["divergence_sum"],
        )

        risk = f["bayes_uniform"]
        for family in _NAMED:
            bound = f[f"bound_{family}"]
            _check(bound <= risk + 1e-12, f"{family} bound {bound} above Bayes risk {risk}")
        _check(f["implicit"] <= risk + 1e-9, f"implicit bound {f['implicit']} above {risk}")
        _check(f["minimax"] >= risk, f"minimax {f['minimax']} below uniform Bayes {risk}")
        if math.isfinite(numeric.value):
            gap = numeric.duality_gap
            _check(gap <= _NUMERIC_TOL, f"numeric gap {gap} above its tol {_NUMERIC_TOL}")
        if gen.name in closed:
            exact = f[f"closed_{gen.name}"]
            _check(
                abs(exact - numeric.value) <= 1e-6,
                f"closed form {exact} vs numeric {numeric.value} for {gen.name}",
            )
        return f

    return run


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

VERIFY_WHY = (
    "Verify suites. verify.run_suite(name, seed) for the core, mixture, jf, "
    "entropy and constructions suites in turn: thousands of tiny divergence "
    "and mixture calls on spaces of at most 12 points, where per-call "
    "overhead dominates (ROADMAP item 3). The five suites of a pass run at "
    "one suite seed and take 5-7 s (jf alone 3.0-4.3 s over suite seeds "
    "0-5). Suite seeds are seed*8+pass: two runs with the same --seed use "
    "the same seed list, because suite times depend on it."
)

SUITES = ("core", "mixture", "jf", "entropy", "constructions")


def _verify_passes(seed: int, workdir: Path, tiny: bool) -> list:
    trials = 1 if tiny else None
    return [
        [
            Job(f"verify {name} seed={seed * PASSES + p}", _verify_job(name, seed * PASSES + p, trials))
            for name in SUITES
        ]
        for p in range(PASSES)
    ]


def _verify_job(name: str, suite_seed: int, trials) -> Callable:
    def run(t) -> dict:
        report = t.call(f"verify.{name}", verify.run_suite, name, suite_seed, trials)
        failing = [
            c["name"] for c in report["suites"][name]["checks"] if not c["pass"]
        ]
        _check(report["pass"], f"suite {name} seed {suite_seed} failed: {failing}")
        return flatten(report)

    return run


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

ESTIMATION_WHY = (
    "Estimation. covariance_minimax_bound (alpha=1, n in 64, 125, 216, 343: 0.02-1.7 s), "
    "support_packing_bound (d=2 at eps 0.002, 0.005, 0.01; d=3 at eps 0.02, "
    "0.03, 0.05) and optimize_entropy_bound on 256x256 (eta, eps) grids "
    "(0.1-0.3 s each) over six profiles and the kl, chi2 and power_l kinds: "
    "greedy code builds and a Python grid loop, with no LP and no Frank-Wolfe "
    "(ROADMAP item 4). Size limits and the defects that set them: n stops at "
    "343 because n=512 spends about 9 s in one code build; "
    "covariance_minimax_bound(n=256, alpha=0.5) (k=176) raises numpy "
    "MemoryError for a 588 GiB array instead of ValueError, and "
    "support_packing_bound(d=3, p=1, epsilon=0.005) does the same for "
    "3.56 TiB; at epsilon=0.01, d=3 did not finish within 400 s, so d=3 stays at "
    "epsilon >= 0.02. Counts past the float range raise OverflowError "
    "instead of ValueError or a vacuous bound: the support_function profile "
    "once the exponent of its math.exp passes 709.78 (at d=3 the packing "
    "for eta below c_prime*gamma/709.78, the covering for small eps), and "
    "the power_l kind once M(eps)^(l-1) passes 1.8e308; so the "
    "support_function constants are drawn from narrow ranges and its grids "
    "use eta >= 0.01 and eps >= 0.2, which keeps M(eps) below e^152."
)

_COV_N = (64, 125, 216, 343)
_PACKINGS = ((2, 0.002), (2, 0.005), (2, 0.01), (3, 0.02), (3, 0.03), (3, 0.05))
_KINDS = (("kl", None), ("chi2", None), ("power_l", 3.0))
_GRID = 256
_LOSS = fb.power_loss(2.0)


def _estimation_passes(seed: int, workdir: Path, tiny: bool) -> list:
    rng = np.random.default_rng([seed, 3])
    grid = 16 if tiny else _GRID
    passes = []
    for p in range(PASSES):
        job_seed = seed * PASSES + p
        jobs = [
            Job(f"covariance n={n}", _covariance_job(n, job_seed))
            for n in ((64,) if tiny else _COV_N)
        ]
        jobs += [
            Job(f"packing d={d} eps={eps}", _packing_job(d, eps, job_seed))
            for d, eps in (((2, 0.01),) if tiny else _PACKINGS)
        ]
        for model, params, eta_lo, eps_range in _profiles(rng):
            for kind, l in _KINDS:
                label = f"grid {model} {params.get('d', '')} {kind}"
                job = _grid_job(model, params, eta_lo, eps_range, kind, l, grid)
                jobs.append(Job(label, job))
        passes.append(jobs)
    return passes


def _profiles(rng) -> list:
    """(model, constants, smallest eta, eps range) for the six profiles of a
    pass.  The support_function ranges keep its counts, and the square of
    its covering count in the power_l kind, inside the float range."""
    out = [
        (
            "gaussian_ball",
            {"gamma": rng.uniform(5.0, 20.0), "sigma": rng.uniform(0.5, 2.0), "d": d},
            1e-3,
            (1e-3, 10.0),
        )
        for d in (2, 5, 10)
    ]
    out.append(
        (
            "gaussian_1d",
            {"c1": rng.uniform(0.5, 2.0), "c2": rng.uniform(0.5, 2.0), "n": rng.uniform(50, 200)},
            1e-3,
            (1e-3, 10.0),
        )
    )
    out.append(
        (
            "support_function",
            {
                "c_prime": rng.uniform(0.5, 1.5),
                "c_dprime": rng.uniform(0.5, 1.5),
                "gamma": rng.uniform(0.5, 1.5),
                "sigma": rng.uniform(0.75, 1.5),
                "n": rng.uniform(50, 100),
                "d": 3,
            },
            1e-2,
            (0.2, 10.0),
        )
    )
    etas = np.logspace(-3, 0, 8)
    epss = np.logspace(-2, 1, 8)
    packing = np.exp(np.cumsum(rng.uniform(0.5, 2.0, size=8))[::-1])
    covering = np.exp(np.cumsum(rng.uniform(0.2, 1.0, size=8))[::-1])
    table = {
        "packing": [[float(a), float(b)] for a, b in zip(etas, packing)],
        "covering": [[float(a), float(b)] for a, b in zip(epss, covering)],
    }
    out.append(("table", table, 1e-3, (epss[0], epss[-1])))
    return out


def _grid_job(model: str, params: dict, eta_lo: float, eps_range, kind: str, l, grid: int) -> Callable:
    def run(t) -> dict:
        if model == "table":
            profile = t.call(
                "entropy_bounds.profile_from_table",
                fb.profile_from_table,
                params["packing"],
                params["covering"],
            )
        else:
            profile = t.call(
                "entropy_bounds.builtin_profile",
                fb.builtin_profile,
                model,
                kind="kl" if kind == "kl" and model == "gaussian_1d" else "chi2",
                **params,
            )
        eps_lo, eps_hi = eps_range
        etas = np.logspace(math.log10(eta_lo), math.log10(profile.eta_max), grid)
        epss = np.logspace(math.log10(eps_lo), math.log10(eps_hi), grid)
        report = t.call(
            "entropy_bounds.optimize_entropy_bound",
            fb.optimize_entropy_bound,
            kind,
            profile,
            _LOSS,
            etas,
            epss,
            l=l,
        )
        inter = report.intermediates
        value = _LOSS(inter["eta"] / 2.0) * inter["factor"]
        _check(math.isfinite(report.lower_bound), f"bound {report.lower_bound}")
        _check(inter["feasible_grid_points"] > 0, "no feasible grid point")
        _check(
            _close(report.lower_bound, max(value, 0.0), 1e-12),
            f"bound {report.lower_bound} != loss(eta/2)*factor {value}",
        )
        return {"lower_bound": report.lower_bound, **flatten(inter)}

    return run


def _covariance_job(n: int, seed: int) -> Callable:
    def run(t) -> dict:
        report = t.call(
            "constructions.covariance_minimax_bound",
            fb.covariance_minimax_bound,
            n=n,
            alpha=1.0,
            seed=seed,
        )
        inter = report.intermediates
        k = inter["k"]
        _check(not report.vacuous and report.lower_bound > 0, f"vacuous at n={n}")
        _check(
            inter["code_size"] >= math.ceil(math.exp(k / 8)),
            f"code size {inter['code_size']} below ceil(e^(k/8)) at k={k}",
        )
        _check(
            inter["code_min_distance"] >= k / 4,
            f"code distance {inter['code_min_distance']} below k/4 at k={k}",
        )
        return {"lower_bound": report.lower_bound, **flatten(inter)}

    return run


def _packing_job(d: int, eps: float, seed: int) -> Callable:
    def run(t) -> dict:
        res = t.call(
            "constructions.support_packing_bound",
            fb.support_packing_bound,
            d=d,
            p=1.0,
            epsilon=eps,
            seed=seed,
        )
        out = res.to_json()
        caps = out["n_caps"]
        _check(
            out["code_size"] >= math.ceil(math.exp(caps / 8)),
            f"code size {out['code_size']} below ceil(e^(N/8)) at N={caps}",
        )
        _check(out["code_min_distance"] >= caps / 4, f"code distance below N/4 at N={caps}")
        _check(
            _close(out["min_distance"], out["code_min_distance"] * out["cap_distance"], 1e-12),
            "min distance is not code distance times cap distance",
        )
        return flatten(out)

    return run


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

CLI_WHY = (
    "Each job is one README CLI example, the 16 that are not verify (the "
    "library workload runs the suites), on JSON files generated from the "
    "seed, called in the worker through fdivbounds.cli.main: argument "
    "parsing, loading, validation, dispatch and output, the per-call cost of "
    "the CLI layer. A shell user also pays for a fresh interpreter and its "
    "imports (0.55-0.75 s, most of it scipy.optimize), which setup_s and the "
    "import.* layers measure: run as subprocesses, the calls spread by "
    "33-42% IQR/median over ten 50-s runs on a shared 2-vCPU host, because "
    "process start-up is what such a host slows most. Inputs stay small (2 "
    "members on 4, 8, ..., 32 points, one size per pass, the seed drawing "
    "only the pmfs) so that the CLI layer, not a solver, is what is measured."
)


def _readme_commands() -> list:
    """The README examples other than verify, with their output format."""
    return [
        (["divergence", "--gen", "chi2", "p.json", "q.json"], "json"),
        (["divergence", "--gen", "kl", "p.json", "q.json", "--product-power", "3", "--extras"], "json"),
        (["divergence", "--model", "gaussian_location", "--theta0", "1", "--theta1", "0", "--n", "2"], "json"),
        (["bayes-risk", "ens.json", "--prior", "0.3,0.7"], "json"),
        (["minimax-risk", "ens.json", "--tol", "1e-6"], "json"),
        (["bound", "--family", "fano", "--stats", "N=16,avgKL=1"], "json"),
        (["bound", "--family", "hellinger", "--from-ensemble", "ens.json"], "json"),
        (["bound", "--family", "implicit", "--gen", "power:3", "--stats", "N=4,sum=1.5"], "json"),
        (["bound", "--family", "two_point", "--gen", "chi2", "--stats", "V=0.3"], "json"),
        (["jf", "ens.json", "--gen", "chi2", "--method", "closed"], "json"),
        (["jf-cover", "ens.json", "--gen", "kl", "--candidates", "cover.json", "--kind", "kl"], "json"),
        (
            [
                "entropy-bound", "--kind", "chi2", "--model", "gaussian_ball",
                "--params", "gamma=10,sigma=1,d=2", "--eta-grid", "logspace:0.001:10:64",
                "--eps-grid", "1.3108324944320957",
            ],
            "json",
        ),
        (
            [
                "entropy-bound", "--kind", "chi2", "--model", "custom", "--profile", "table.json",
                "--eta-grid", "0.02,0.1", "--eps-grid", "0.2,0.5", "--format", "csv",
            ],
            "csv",
        ),
        (["vg", "--k", "16", "--seed", "7"], "json"),
        (["covmat-bound", "--alpha", "1", "--n", "64"], "json"),
        (["cap-packing", "--d", "2", "--p", "1", "--eps", "0.005,0.01,0.02", "--format", "csv"], "csv"),
    ]


#: points of the pmfs of each pass's files; fixed, so that the seed draws the
#: pmfs but not the work, which grows with the size
_CLI_SIZES = (4, 8, 12, 16, 20, 24, 28, 32)


def _cli_passes(seed: int, workdir: Path, tiny: bool) -> list:
    rng = np.random.default_rng([seed, 0])
    passes = []
    for p in range(PASSES):
        folder = workdir / f"cli-{p}"
        folder.mkdir(parents=True, exist_ok=True)
        s = _CLI_SIZES[p % len(_CLI_SIZES)]
        rows = rng.dirichlet(np.ones(s), size=2)
        cands = rng.dirichlet(np.full(s, 2.0), size=3)
        files = {
            "p.json": {"pmf": rows[0].tolist()},
            "q.json": {"pmf": rows[1].tolist()},
            "ens.json": {"members": [{"pmf": r.tolist()} for r in rows]},
            "cover.json": {"candidates": [{"pmf": c.tolist()} for c in cands]},
            "table.json": {
                "packing": [[0.01, 1e4 * rng.uniform(1, 2)], [0.1, 1e2 * rng.uniform(1, 2)], [1.0, 2.0]],
                "covering": [[0.1, 1e3 * rng.uniform(1, 2)], [1.0, 1e1 * rng.uniform(1, 2)]],
            },
        }
        for name, obj in files.items():
            (folder / name).write_text(json.dumps(obj), encoding="utf-8")
        passes.append(
            [
                Job(f"cli {' '.join(args)}", _cli_job(args, fmt, folder))
                for args, fmt in _readme_commands()
            ]
        )
    return passes


def _cli_job(args: list, fmt: str, folder: Path) -> Callable:
    argv = [str(folder / a) if a.endswith(".json") else a for a in args]

    def run(t) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = t.call(f"cli.{args[0]}", cli.main, argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        _check(code == 0, f"exit code {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        if fmt == "json":
            try:
                return flatten(json.loads(text))
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"stdout is not JSON: {exc}") from None
        lines = text.strip().splitlines()
        _check(len(lines) >= 2, "CSV output has no data rows")
        header = lines[0].split(",")
        fields = {}
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            _check(len(cells) == len(header), f"CSV row {i} has {len(cells)} cells")
            try:
                fields.update({f"{i}.{h}": float(c) for h, c in zip(header, cells)})
            except ValueError as exc:
                raise CheckFailed(f"CSV row {i} does not parse: {exc}") from None
        return fields

    return run


def _library_passes(seed: int, workdir: Path, tiny: bool) -> list:
    families = (_ensemble_passes, _verify_passes, _estimation_passes)
    return [sum(parts, []) for parts in zip(*(f(seed, workdir, tiny) for f in families))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-readme", CLI_WHY, _cli_passes),
        Workload(
            "library",
            " ".join((LIBRARY_WHY, ENSEMBLE_WHY, VERIFY_WHY, ESTIMATION_WHY)),
            _library_passes,
        ),
    )
}
