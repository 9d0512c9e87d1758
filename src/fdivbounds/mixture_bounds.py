"""Lower bounds on the Bayes testing risk from divergences to a reference.

The core inequality: for any convex generator f, any prior w with MAP test T
and any reference measure Q with W = sum_x w_{T(x)} q(x),

    sum_theta w_theta D_f(P_theta || Q)
        >= W f((1 - rbar)/W) + (1 - W) f(rbar/(1 - W)),

where rbar is the Bayes risk.  With a uniform prior (W = 1/N) the right side
is the divergence floor g(rbar) of :mod:`.divergences`, which is inverted
(implicitly by bisection or explicitly by a tangent line) to give risk lower
bounds.  Named closed forms for the standard generators and the sharp
two-point witness live here as well.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DiscreteDistribution, Ensemble
from .divergences import (
    DivergenceGenerator,
    _f_scalar,
    divergence_matrix,
    eval_divergence,
    squared_hellinger,
    total_variation,
    uniform_divergence_floor,
    uniform_divergence_floor_derivative,
)
from .report import BoundReport
from .testing_risk import bayes_risk_exact, map_test

#: bisection tolerance for the implicit inversion
_BISECT_TOL = 1e-10

NAMED_FAMILIES = ("fano", "chi2", "hellinger", "tv", "power_l", "reverse_kl_tv")


def _not_nan(name: str, value) -> float:
    """``value`` as a float; a NaN statistic is refused by name, where a
    +inf one stays the documented vacuous case."""
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} is NaN")
    return value


def weighted_divergence_floor(
    gen: DivergenceGenerator, w_mass: float, bayes_risk: float
) -> float:
    """W f((1-rbar)/W) + (1-W) f(rbar/(1-W)) for W in (0, 1)."""
    if not 0.0 < w_mass < 1.0:
        raise ValueError(f"W={w_mass!r} must lie strictly inside (0, 1)")
    if not 0.0 <= bayes_risk <= 1.0:
        raise ValueError(f"bayes risk {bayes_risk!r} outside [0, 1]")
    first = _f_scalar(gen, (1.0 - bayes_risk) / w_mass)
    second = _f_scalar(gen, bayes_risk / (1.0 - w_mass))
    if math.isinf(first) or math.isinf(second):
        return math.inf
    return w_mass * first + (1.0 - w_mass) * second


def map_reference_mass(ens: Ensemble, q: DiscreteDistribution) -> float:
    """W = sum_x w_{T(x)} q(x) for the ensemble's MAP test T."""
    if q.support_size != ens.support_size:
        raise ValueError("support size mismatch")
    choice = map_test(ens)
    return float(np.dot(ens.weights()[choice], q.pmf))


def weighted_divergence_sum(
    gen: DivergenceGenerator, ens: Ensemble, q: DiscreteDistribution
) -> float:
    """sum_theta w_theta D_f(P_theta || Q); zero-weight members are skipped,
    so an infinite divergence of theirs does not count."""
    w = ens.weights()
    pmat = ens.pmf_matrix()
    if w.min() == 0.0:
        keep = w > 0.0
        w, pmat = w[keep], pmat[keep]
    divs = divergence_matrix(gen, pmat, q.pmf[None])[:, 0]
    if np.any(np.isinf(divs)):
        return math.inf
    return float(w @ divs)


def implicit_risk_bound(
    gen: DivergenceGenerator, n: int, divergence_sum: float
) -> float:
    """Largest a in [0, 1 - 1/N] whose divergence floor still reaches the
    observed sum; the floor is non-increasing, so bisection applies.
    """
    if n < 2:
        raise ValueError("need at least 2 hypotheses")
    if _not_nan("divergence_sum", divergence_sum) < 0:
        raise ValueError("divergence sum must be nonnegative")
    hi = 1.0 - 1.0 / n
    if divergence_sum <= 0.0:
        return hi
    if uniform_divergence_floor(gen, n, hi) >= divergence_sum:
        return hi
    if uniform_divergence_floor(gen, n, 0.0) < divergence_sum:
        return 0.0
    lo, up = 0.0, hi  # floor(lo) >= sum, floor(up) < sum
    while up - lo > _BISECT_TOL:
        mid = 0.5 * (lo + up)
        if uniform_divergence_floor(gen, n, mid) >= divergence_sum:
            lo = mid
        else:
            up = mid
    return lo


def tangent_risk_bound(
    gen: DivergenceGenerator, n: int, divergence_sum: float, a: float
) -> float:
    """Tangent-line relaxation a + (sum - g(a)) / g'(a), clamped to range.

    Requires a differentiable generator and g'(a) < 0, i.e. a strictly
    below 1 - 1/N.
    """
    hi = 1.0 - 1.0 / n
    if not 0.0 <= a < hi:
        raise ValueError(f"a={a!r} must lie in [0, 1 - 1/N)")
    if _not_nan("divergence_sum", divergence_sum) < 0:
        raise ValueError("divergence sum must be nonnegative")
    slope = uniform_divergence_floor_derivative(gen, n, a)
    if slope == 0.0:
        raise ValueError("zero slope: a is too close to 1 - 1/N")
    floor = uniform_divergence_floor(gen, n, a)
    if math.isinf(slope):
        return min(max(a, 0.0), hi)
    if math.isinf(floor):
        return hi  # the tangent at an infinite floor carries no constraint
    value = a + (divergence_sum - floor) / slope
    return min(max(value, 0.0), hi)


# ---------------------------------------------------------------------------
# Named closed-form bounds
# ---------------------------------------------------------------------------


def _clamp_report(family: str, value: float, inputs: dict, inter: dict) -> BoundReport:
    vacuous = value <= 0.0
    return BoundReport(
        family=family,
        lower_bound=min(max(value, 0.0), 1.0),
        inputs=inputs,
        intermediates=inter,
        vacuous=vacuous,
    )


def named_bound(family: str, **params) -> BoundReport:
    """Closed-form bound for one of the named generator families.

    fano(n, avg_kl)              risk >= 1 - (log 2 + avg_kl)/log N
    chi2(n, divergence_sum)      risk >= 1 - 1/N - sqrt(sum)/N
    hellinger(n, h_sq)           risk >= the quadratic root in h_sq
    tv(n, divergence_sum)        risk >= 1 - 1/N - sum/N
    power_l(n, exponent, divergence_sum)
                                 risk >= 1 - (1/N^(l-1) + sum/N^l)^(1/l)
    reverse_kl_tv(divergence_sum)
                                 total variation <= sqrt(1 - exp(-sum))
                                 (an upper bound, not a risk lower bound)
    """
    if family == "fano":
        n, avg_kl = int(params["n"]), _not_nan("avg_kl", params["avg_kl"])
        if n < 2 or avg_kl < 0:
            raise ValueError("fano needs n >= 2 and avg_kl >= 0")
        value = 1.0 - (math.log(2.0) + avg_kl) / math.log(n)
        return _clamp_report("fano", value, {"n": n, "avg_kl": avg_kl}, {})
    if family == "chi2":
        n, s = int(params["n"]), _not_nan("divergence_sum", params["divergence_sum"])
        if n < 2 or s < 0:
            raise ValueError("chi2 needs n >= 2 and a nonnegative sum")
        value = 1.0 - 1.0 / n - math.sqrt(s) / n
        return _clamp_report("chi2", value, {"n": n, "divergence_sum": s}, {})
    if family == "hellinger":
        n, h_sq = int(params["n"]), float(params["h_sq"])
        if n < 2 or not 0.0 <= h_sq <= 2.0:
            raise ValueError("hellinger needs n >= 2 and h_sq in [0, 2]")
        value = (
            1.0
            - 1.0 / n
            - (n - 2.0) / n * h_sq / 2.0
            - math.sqrt(n - 1.0) / n * math.sqrt(h_sq * (2.0 - h_sq))
        )
        return _clamp_report("hellinger", value, {"n": n, "h_sq": h_sq}, {})
    if family == "tv":
        n, s = int(params["n"]), _not_nan("divergence_sum", params["divergence_sum"])
        if n < 2 or s < 0:
            raise ValueError("tv needs n >= 2 and a nonnegative sum")
        value = 1.0 - 1.0 / n - s / n
        return _clamp_report("tv", value, {"n": n, "divergence_sum": s}, {})
    if family == "power_l":
        n = int(params["n"])
        l = _not_nan("exponent", params["exponent"])
        s = _not_nan("divergence_sum", params["divergence_sum"])
        if n < 2 or l <= 1.0 or s < 0:
            raise ValueError("power_l needs n >= 2, exponent > 1, sum >= 0")
        value = 1.0 - (n ** (1.0 - l) + s / n**l) ** (1.0 / l)
        return _clamp_report(
            "power_l", value, {"n": n, "exponent": l, "divergence_sum": s}, {}
        )
    if family == "reverse_kl_tv":
        s = _not_nan("divergence_sum", params["divergence_sum"])
        if s < 0:
            raise ValueError("reverse_kl_tv needs a nonnegative sum")
        value = math.sqrt(1.0 - math.exp(-s))
        return BoundReport(
            family="reverse_kl_tv",
            lower_bound=min(value, 1.0),
            inputs={"divergence_sum": s},
            intermediates={},
            vacuous=value >= 1.0,
            notes=("upper bound on the total variation distance",),
        )
    raise ValueError(f"unknown bound family {family!r}; choose from {NAMED_FAMILIES}")


def named_bound_from_ensemble(family: str, ens: Ensemble, **extra) -> BoundReport:
    """Compute the family's exact ensemble statistic, then the bound.

    Statistics are exact: the KL/chi2/power/reverse-KL informativity closed
    forms, the sorted-breakpoint total-variation informativity, and the
    average pairwise squared Hellinger distance (diagonal included).
    """
    from . import informativity as inf_mod

    n = ens.size
    if family == "fano":
        stat = inf_mod.informativity_closed_form("kl", ens).value
        report = named_bound("fano", n=n, avg_kl=stat)
    elif family == "chi2":
        stat = n * inf_mod.informativity_closed_form("chi2", ens).value
        report = named_bound("chi2", n=n, divergence_sum=stat)
    elif family == "hellinger":
        pmat = ens.pmf_matrix()
        roots = np.sqrt(pmat)
        gram = roots @ roots.T
        h_sq = float((2.0 - 2.0 * gram).mean())
        report = named_bound("hellinger", n=n, h_sq=h_sq)
    elif family == "tv":
        stat = n * inf_mod.informativity_tv_exact(ens).value
        report = named_bound("tv", n=n, divergence_sum=stat)
    elif family == "power_l":
        l = float(extra.get("exponent", 3.0))
        stat = n * inf_mod.informativity_closed_form(f"power:{l:g}", ens).value
        report = named_bound("power_l", n=n, exponent=l, divergence_sum=stat)
    elif family == "reverse_kl_tv":
        if n != 2:
            raise ValueError("reverse_kl_tv applies to two-member ensembles")
        res = inf_mod.informativity_closed_form("reverse_kl", ens)
        report = named_bound("reverse_kl_tv", divergence_sum=2.0 * res.value)
    else:
        raise ValueError(
            f"unknown bound family {family!r}; choose from {NAMED_FAMILIES}"
        )
    inter = dict(report.intermediates)
    inter["statistic_source"] = "exact ensemble computation"
    return BoundReport(
        family=report.family,
        lower_bound=report.lower_bound,
        inputs=report.inputs,
        intermediates=inter,
        vacuous=report.vacuous,
        notes=report.notes,
    )


# ---------------------------------------------------------------------------
# Two-point sharpness witness
# ---------------------------------------------------------------------------


def two_point_witness(v: float, gen: DivergenceGenerator):
    """The sharp instance for total variation v: P1 = ((1+v)/2, (1-v)/2),
    P2 swapped, Q uniform.  Returns (P1, P2, Q, achieved divergence sum);
    the sum equals f(1+v) + f(1-v).
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError("total variation must lie in [0, 1]")
    p1 = DiscreteDistribution(np.array([(1.0 + v) / 2.0, (1.0 - v) / 2.0]))
    p2 = DiscreteDistribution(np.array([(1.0 - v) / 2.0, (1.0 + v) / 2.0]))
    q = DiscreteDistribution(np.array([0.5, 0.5]))
    achieved = eval_divergence(gen, p1, q) + eval_divergence(gen, p2, q)
    return p1, p2, q, achieved


def two_point_target(v: float, gen: DivergenceGenerator) -> float:
    """f(1+v) + f(1-v): the sharp value of the two-point divergence sum."""
    first = _f_scalar(gen, 1.0 + v)
    second = _f_scalar(gen, 1.0 - v)
    if math.isinf(first) or math.isinf(second):
        return math.inf
    return first + second
