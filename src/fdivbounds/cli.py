"""Command-line front end.

``COMMAND_OPERATIONS`` files every public library operation under exactly
one subcommand, and a test checks that it covers the public names once
each.  It is a filing, not a call path: seven operations are library-only,
reached by no subcommand (``uniform_divergence_floor``, ``validate``,
``uniform_mixture``, ``entropy_risk_bound``, ``spectral_separation``,
``gaussian_kl`` and ``kl_frobenius_check``).
Output is JSON on stdout (CSV for grid sweeps), deterministic for fixed
flags and seed.  Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import constructions, divergences, entropy_bounds, informativity
from . import mixture_bounds, testing_risk, verify
from .distributions import Ensemble, check_json_lists, check_param_names, check_tol
from .distributions import load_distribution, load_ensemble, product_distribution
from .report import jsonable

#: subcommand -> the public operations filed under it (partition-tested)
COMMAND_OPERATIONS = {
    "divergence": (
        "builtin_generator",
        "eval_divergence",
        "uniform_divergence_floor",
        "total_variation",
        "squared_hellinger",
        "product_distribution",
        "analytic_divergence",
    ),
    "bayes-risk": ("bayes_risk_exact", "map_test", "validate"),
    "minimax-risk": ("minimax_risk", "minimax_risks"),
    "bound": (
        "named_bound",
        "named_bound_from_ensemble",
        "implicit_risk_bound",
        "tangent_risk_bound",
        "two_point_witness",
        "weighted_divergence_floor",
    ),
    "jf": (
        "uniform_mixture",
        "informativity_closed_form",
        "informativity_numeric",
        "informativity_tv_exact",
        "simple_upper_chain",
    ),
    "jf-cover": ("covering_upper_bound", "covering_specialization"),
    "entropy-bound": (
        "power_loss",
        "entropy_risk_bound",
        "entropy_bound_grid",
        "optimize_entropy_bound",
        "builtin_profile",
        "profile_from_table",
        "support_function_schedule",
    ),
    "covmat-bound": (
        "covariance_minimax_bound",
        "build_cov_family",
        "spectral_separation",
        "gaussian_kl",
        "kl_frobenius_check",
    ),
    "vg": ("varshamov_gilbert_code",),
    "cap-packing": (
        "cap_geometry",
        "cap_distance",
        "sphere_packing_points",
        "support_packing_bound",
    ),
    "verify": ("run_suite",),
}

SEED_ENV_VAR = "FDIVBOUNDS_SEED"


def _emit(obj) -> None:
    print(json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False))


def _emit_csv(header: list[str], rows: list[list]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text.strip()!r}")
    return value


def _parse_stats(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"malformed stats entry {item!r}; use key=value")
        out[key.strip()] = _finite_float(value)
    return out


#: --stats spellings of the bound families' parameter names
_STAT_ALIASES = {"N": "n", "avgKL": "avg_kl", "l": "exponent"}
#: the --stats keys each generator-generic bound family reads
_GENERIC_STATS = {
    "implicit": ("n", "sum"),
    "tangent": ("n", "sum", "a"),
    "two_point": ("V",),
    "floor": ("W", "rbar"),
}


def _bound_stats(text: str) -> dict:
    """``bound --stats`` under the library's parameter names, after
    refusing a non-integer hypothesis count."""
    stats = {_STAT_ALIASES.get(k, k): v for k, v in _parse_stats(text).items()}
    if not stats.get("n", 0.0).is_integer():
        raise ValueError(f"N must be an integer, got {stats['n']!r}")
    return stats


#: the --params keys of ``entropy-bound --schedule-n`` and their defaults
_SCHEDULE_DEFAULTS = {"d": 2.0, "c_prime": 1.0, "c_dprime": 1.0, "gamma": 1.0, "sigma": 1.0}


def _parse_grid(text: str) -> np.ndarray:
    """Comma list of floats, or ``logspace:lo:hi:count``."""
    if text.startswith("logspace:"):
        _, lo, hi, count = text.split(":")
        return np.geomspace(_finite_float(lo), _finite_float(hi), int(count))
    return np.array([_finite_float(v) for v in text.split(",")])


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_divergence(args) -> int:
    if args.model is not None:
        res = entropy_bounds.analytic_divergence(
            args.model, args.theta0, args.theta1, args.n, sigma=args.sigma
        )
        _emit({"model": args.model, "kl": res.kl, "chi2": res.chi2})
        return 0
    if args.p is None or args.q is None:
        raise ValueError("provide two distribution files, or --model for closed forms")
    gen = divergences.builtin_generator(args.gen)
    p = load_distribution(args.p)
    q = load_distribution(args.q)
    if args.product_power != 1:
        p = product_distribution(p, args.product_power)
        q = product_distribution(q, args.product_power)
    value = divergences.eval_divergence(gen, p, q)
    out = {"generator": gen.name, "value": value}
    if args.extras:
        out["total_variation"] = divergences.total_variation(p, q)
        out["squared_hellinger"] = divergences.squared_hellinger(p, q)
    _emit(out)
    return 0


def _cmd_bayes_risk(args) -> int:
    ens = load_ensemble(args.ensemble)
    if args.prior is not None:
        prior = np.array([float(v) for v in args.prior.split(",")])
        ens = Ensemble(members=ens.members, prior=prior, labels=ens.labels)
    value = testing_risk.bayes_risk_exact(ens)
    choice = testing_risk.map_test(ens)
    _emit(
        {
            "bayes_risk": value,
            "map_test": [int(c) for c in choice],
            "map_error": testing_risk.error_probability(ens, choice),
        }
    )
    return 0


def _cmd_minimax_risk(args) -> int:
    ens = load_ensemble(args.ensemble)
    res = testing_risk.minimax_risk(ens, tol=args.tol)
    _emit(res.to_json())
    return 0


def _cmd_bound(args) -> int:
    if args.family in _GENERIC_STATS:
        return _cmd_bound_generic(args)
    if (args.stats is None) == (args.from_ensemble is None):
        raise ValueError("provide exactly one of --stats or --from-ensemble")
    if args.from_ensemble is not None:
        ens = load_ensemble(args.from_ensemble)
        extra = {} if args.exponent is None else {"exponent": args.exponent}
        report = mixture_bounds.named_bound_from_ensemble(args.family, ens, **extra)
    else:
        report = mixture_bounds.named_bound(args.family, **_bound_stats(args.stats))
    _emit(report.to_json())
    return 0


def _cmd_bound_generic(args) -> int:
    """Generator-generic bounds: the implicit inversion, its tangent
    relaxation, the sharp two-point witness, and the weighted floor."""
    if args.gen is None or args.stats is None:
        raise ValueError(f"--family {args.family} needs --gen and --stats")
    gen = divergences.builtin_generator(args.gen)
    stats = _bound_stats(args.stats)
    keys = _GENERIC_STATS[args.family]
    check_param_names(args.family, keys, stats)
    values = [stats[key] for key in keys]
    out = {"family": args.family, "generator": gen.name}
    if args.family == "implicit":
        out["lower_bound"] = mixture_bounds.implicit_risk_bound(gen, *values)
    elif args.family == "tangent":
        out["lower_bound"] = mixture_bounds.tangent_risk_bound(gen, *values)
    elif args.family == "two_point":
        p1, p2, q, achieved = mixture_bounds.two_point_witness(values[0], gen)
        out.update(p1=p1.to_json(), p2=p2.to_json(), q=q.to_json(), achieved=achieved)
    else:
        out["value"] = mixture_bounds.weighted_divergence_floor(gen, *values)
    _emit(out)
    return 0


def _cmd_jf(args) -> int:
    check_tol(args.tol)
    ens = load_ensemble(args.ensemble)
    if args.method == "closed":
        res = informativity.informativity_closed_form(args.gen, ens)
    gen = divergences.builtin_generator(args.gen)
    if args.method == "numeric":
        res = informativity.informativity_numeric(gen, ens, tol=args.tol)
    out = res.to_json()
    chain = informativity.simple_upper_chain(gen, ens)
    out["upper_chain"] = {
        "to_mixture": chain[0],
        "pairwise_avg": chain[1],
        "pairwise_max": chain[2],
    }
    _emit(out)
    return 0


def _cmd_jf_cover(args) -> int:
    ens = load_ensemble(args.ensemble)
    with open(args.candidates, "r", encoding="utf-8") as fh:
        fam = informativity.covering_family_from_json(json.load(fh))
    gen = divergences.builtin_generator(args.gen)
    assignments = None if fam.assignment is None else np.array([fam.assignment])
    errors, best, generic = informativity.covering_bounds(
        gen, ens.pmf_matrix()[None], fam.pmf_matrix()[None], assignments=assignments
    )
    err = float(errors[0])
    out = {
        "generic_bound": float(generic[0]),
        "approx_error": err,
        "assignment": best[0].tolist(),
        "candidates": fam.size,
    }
    if args.kind is not None:
        out["specialized_bound"] = informativity.covering_specialization(
            args.kind, fam.size, err, l=args.exponent
        )
    _emit(out)
    return 0


def _cmd_entropy_bound(args) -> int:
    params = _parse_stats(args.params) if args.params else {}
    if args.schedule_n is not None:
        params = {**_SCHEDULE_DEFAULTS, **params}
        check_param_names("--schedule-n", tuple(_SCHEDULE_DEFAULTS), params)
        d = params.pop("d")
        if not d.is_integer():
            raise ValueError(f"d must be an integer, got {d!r}")
        schedule = entropy_bounds.support_function_schedule(args.schedule_n, int(d), **params)
        _emit(
            {
                "n": args.schedule_n,
                "eta": schedule.eta,
                "u": schedule.u,
                "eps": schedule.eps,
                "c": schedule.c,
            }
        )
        return 0
    if args.model == "custom":
        if args.profile is None:
            raise ValueError("custom model needs --profile <file.json>")
        with open(args.profile, "r", encoding="utf-8") as fh:
            table = json.load(fh)
        if not isinstance(table, dict) or not {"packing", "covering"} <= table.keys():
            raise ValueError('profile JSON must be an object with "packing" and "covering" keys')
        check_json_lists(table, "profile", ("packing", "covering"))
        profile = entropy_bounds.profile_from_table(
            table["packing"], table["covering"], kind=table.get("kind", "chi2")
        )
    else:
        kind = "kl" if args.kind == "kl" else "chi2"
        profile = entropy_bounds.builtin_profile(args.model, kind=kind, **params)
    loss = entropy_bounds.power_loss(args.loss_exponent)
    eta_grid = _parse_grid(args.eta_grid)
    eps_grid = _parse_grid(args.eps_grid)
    l = args.exponent
    if args.format == "csv":
        etas, epss, bounds = entropy_bounds.entropy_bound_grid(
            args.kind, profile, loss, eta_grid, eps_grid, l=l
        )
        rows = [
            [eta, eps, val]
            for eta, row in zip(etas.tolist(), bounds.tolist())
            for eps, val in zip(epss.tolist(), row)
        ]
        _emit_csv(["eta", "eps", "bound"], rows)
    else:
        report = entropy_bounds.optimize_entropy_bound(
            args.kind, profile, loss, eta_grid, eps_grid, l=l
        )
        _emit(report.to_json())
    return 0


def _cmd_covmat_bound(args) -> int:
    report = constructions.covariance_minimax_bound(
        args.n,
        args.alpha,
        p=args.p,
        delta=args.delta,
        delta_report=args.delta_report,
    )
    _emit(report.to_json())
    return 0


def _cmd_vg(args) -> int:
    code = constructions.varshamov_gilbert_code(args.k, seed=args.seed)
    _emit(
        {
            "length": code.length,
            "size": code.size,
            "min_distance": code.min_distance,
            "size_floor": math.ceil(math.exp(args.k / 8.0)),
            "distance_floor": args.k / 4.0,
            "words": ["".join(str(b) for b in w) for w in code.words],
        }
    )
    return 0


def _cmd_cap_packing(args) -> int:
    eps_values = [float(v) for v in args.eps.split(",")]
    if len(eps_values) > 1 or args.format == "csv":
        rows = []
        for eps in eps_values:
            res = constructions.support_packing_bound(args.d, args.p, eps, args.seed)
            rows.append(
                [
                    eps,
                    res.n_caps,
                    res.code_size,
                    res.log_count,
                    res.cap_dist,
                    res.min_distance,
                    res.claim_ratio,
                ]
            )
        _emit_csv(
            [
                "epsilon",
                "caps",
                "code_size",
                "log_count",
                "cap_distance",
                "min_distance",
                "claim_ratio",
            ],
            rows,
        )
    else:
        res = constructions.support_packing_bound(
            args.d, args.p, eps_values[0], args.seed
        )
        _emit(res.to_json())
    return 0


def _cmd_verify(args) -> int:
    timings = None if args.timings_out is None else {}
    report = verify.run_suite(args.suite, seed=args.seed, trials=args.trials, timings=timings)
    if timings is not None:
        with open(args.timings_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(timings, indent=2) + "\n")
    _emit(report)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdivbounds",
        description=(
            "Minimax testing lower bounds from f-divergences: exact "
            "finite-space risks, mixture bounds, informativity, entropy "
            "bounds, and the code/covariance/cap constructions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default: argparse applies type=int to it only when --seed is
    # absent, so a malformed environment value is a usage error there alone
    seed = os.environ.get(SEED_ENV_VAR, "0")

    sp = sub.add_parser("divergence", help="evaluate D_f(P||Q) between two pmfs")
    sp.add_argument("--gen", default="kl", help="kl|chi2|hellinger_half|hellinger_sq|tv|power:l|reverse_kl")
    sp.add_argument("p", nargs="?", help="distribution JSON file")
    sp.add_argument("q", nargs="?", help="distribution JSON file")
    sp.add_argument("--product-power", type=int, default=1, help="evaluate on n-fold products")
    sp.add_argument("--extras", action="store_true", help="also report TV and squared Hellinger")
    sp.add_argument("--model", choices=entropy_bounds.ANALYTIC_MODELS,
                    help="closed-form divergences for a scalar model instead of files")
    sp.add_argument("--theta0", type=float, default=0.0)
    sp.add_argument("--theta1", type=float, default=0.0)
    sp.add_argument("--n", type=int, default=1, help="sample count for --model")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.set_defaults(handler=_cmd_divergence)

    sp = sub.add_parser("bayes-risk", help="exact Bayes testing risk and MAP test")
    sp.add_argument("ensemble")
    sp.add_argument("--prior", help="comma-separated prior overriding the file")
    sp.set_defaults(handler=_cmd_bayes_risk)

    sp = sub.add_parser("minimax-risk", help="max-over-priors Bayes risk with witness")
    sp.add_argument("ensemble")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.set_defaults(handler=_cmd_minimax_risk)

    sp = sub.add_parser("bound", help="risk bounds: named closed forms and generic inversions")
    sp.add_argument(
        "--family",
        required=True,
        choices=mixture_bounds.NAMED_FAMILIES + tuple(_GENERIC_STATS),
    )
    sp.add_argument("--stats", help="key=value list, e.g. N=16,avgKL=1")
    sp.add_argument("--from-ensemble", help="ensemble JSON; exact statistics are computed")
    sp.add_argument("--exponent", type=float, help="l for the power_l family")
    sp.add_argument("--gen", help="generator for the generic families")
    sp.set_defaults(handler=_cmd_bound)

    sp = sub.add_parser("jf", help="informativity inf_Q avg divergence")
    sp.add_argument("ensemble")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--method", choices=["closed", "numeric"], default="numeric")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(handler=_cmd_jf)

    sp = sub.add_parser("jf-cover", help="covering upper bounds on informativity")
    sp.add_argument("ensemble")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--candidates", required=True, help="covering family JSON")
    sp.add_argument("--kind", choices=informativity.COVERING_KINDS)
    sp.add_argument("--exponent", type=float, default=2.0, help="l for power_l kind")
    sp.set_defaults(handler=_cmd_jf_cover)

    sp = sub.add_parser("entropy-bound", help="global-entropy minimax bound")
    sp.add_argument("--kind", required=True, choices=entropy_bounds.ENTROPY_KINDS)
    sp.add_argument(
        "--model",
        required=True,
        choices=entropy_bounds.PROFILE_MODELS + ("custom",),
    )
    sp.add_argument("--params", help="key=value list of profile constants")
    sp.add_argument("--profile", help="table JSON for the custom model")
    sp.add_argument("--eta-grid", default="logspace:0.001:1:32")
    sp.add_argument("--eps-grid", default="logspace:0.01:1:32")
    sp.add_argument("--loss-exponent", type=float, default=2.0)
    sp.add_argument("--exponent", type=float, help="l for the power_l kind")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--schedule-n", type=int,
                    help="emit the support-function (eta, u, eps) schedule at this n")
    sp.set_defaults(handler=_cmd_entropy_bound)

    sp = sub.add_parser("covmat-bound", help="covariance estimation lower bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--delta-report", type=float, default=2.75)
    sp.set_defaults(handler=_cmd_covmat_bound)

    sp = sub.add_parser("vg", help="greedy separated binary code")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--seed", type=int, default=seed)
    sp.set_defaults(handler=_cmd_vg)

    sp = sub.add_parser("cap-packing", help="convex-body packing from spherical caps")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--eps", required=True, help="epsilon, or comma list for a CSV sweep")
    sp.add_argument("--seed", type=int, default=seed)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(handler=_cmd_cap_packing)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--suite", default="all", choices=verify.SUITE_NAMES + ("all",))
    sp.add_argument("--seed", type=int, default=seed)
    sp.add_argument("--trials", type=int, help="override per-check trial counts")
    sp.add_argument(
        "--timings-out",
        metavar="FILE",
        help="write each check's wall seconds as JSON to FILE; stdout is unchanged",
    )
    sp.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
