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

import dataclasses
import math

import numpy as np

from . import informativity
from .distributions import DiscreteDistribution, Ensemble
from .divergences import (
    DivergenceGenerator,
    _all,
    _any,
    _clip,
    _first_failing,
    _floor_sum,
    _uniform_floor,
    _values,
    divergence_matrix,
    uniform_divergence_floor,
    uniform_divergence_floor_derivative,
)
from .report import BoundReport
from .testing_risk import map_tests

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


def _divergence_sums(divergence_sum):
    """``divergence_sum`` as a float array or a float, after refusing a NaN
    or a negative entry."""
    total = _values(divergence_sum)
    if _any(np.isnan(total)):
        raise ValueError("divergence_sum is NaN")
    if _any(total < 0):
        raise ValueError("divergence sum must be nonnegative")
    return total


def _total_variations(v):
    """``v`` as a float array or a float, after refusing an entry outside
    [0, 1] or NaN."""
    v = _values(v)
    if not _all((0.0 <= v) & (v <= 1.0)):
        raise ValueError("total variation must lie in [0, 1]")
    return v


def weighted_divergence_floor(gen: DivergenceGenerator, w_mass, bayes_risk):
    """W f((1-rbar)/W) + (1-W) f(rbar/(1-W)) for W in (0, 1).  ``w_mass``
    and ``bayes_risk`` may be arrays, which broadcast; scalars give a
    float.  A W so small (subnormal) that (1-rbar)/W overflows is refused
    by name: the floor there is finite, so the +inf that W f(+inf) reads
    would not bound it."""
    w, r = _values(w_mass), _values(bayes_risk)
    ok = (0.0 < w) & (w < 1.0)
    if not _all(ok):
        raise ValueError(f"W={_first_failing(w, ok)!r} must lie strictly inside (0, 1)")
    ok = (0.0 <= r) & (r <= 1.0)
    if not _all(ok):
        raise ValueError(f"bayes risk {_first_failing(r, ok)!r} outside [0, 1]")
    with np.errstate(over="ignore"):  # an overflowing ratio is refused below
        ratio = (1.0 - r) / w
    ok = ratio < math.inf
    if not _all(ok):
        raise ValueError(f"W={_first_failing(w, ok)!r} is so small that (1 - rbar)/W overflows")
    return _floor_sum(gen, ratio, r / (1.0 - w), w, 1.0 - w)


def map_reference_mass(ens: Ensemble, q: DiscreteDistribution) -> float:
    """W = sum_x w_{T(x)} q(x) for the ensemble's MAP test T."""
    if q.support_size != ens.support_size:
        raise ValueError("support size mismatch")
    return float(map_reference_masses(ens.weights(), ens.pmf_matrix(), q.pmf))


def map_reference_masses(w, pmats, qs) -> np.ndarray:
    """:func:`map_reference_mass` for priors w (..., N), members
    (..., N, S) and references (..., S): one dot product each."""
    picked = np.take_along_axis(w, map_tests(w, pmats), axis=-1)
    return (picked[..., None, :] @ qs[..., :, None])[..., 0, 0]


def weighted_divergence_sum(
    gen: DivergenceGenerator, ens: Ensemble, q: DiscreteDistribution
) -> float:
    """sum_theta w_theta D_f(P_theta || Q); zero-weight members are skipped,
    so an infinite divergence of theirs does not count."""
    w, pmat = ens.weights(), ens.pmf_matrix()
    return float(weighted_divergence_sums(gen, w[None], pmat[None], q.pmf[None])[0])


def weighted_divergence_sums(gen: DivergenceGenerator, w, pmats, qs) -> np.ndarray:
    """:func:`weighted_divergence_sum` for B stacked instances: priors w
    (B, N), members (B, N, S) and references (B, S), from one kernel call.
    Each sum is one dot product of the weights with the divergences; an
    instance with a zero weight drops those members before its dot
    product, so every sum has the bits of a one-instance call."""
    divs = divergence_matrix(gen, pmats, qs[:, None, :])[..., 0]
    with np.errstate(invalid="ignore"):  # 0 * inf: such a sum is redone or set below
        sums = (w[:, None, :] @ divs[:, :, None])[:, 0, 0]
    for b in np.flatnonzero(w.min(axis=1) == 0.0):
        keep = w[b] > 0.0
        sums[b] = w[b][keep] @ divs[b][keep]
    sums[(np.isinf(divs) & (w > 0.0)).any(axis=1)] = math.inf
    return sums


def _choose(take, new, old):
    """``new`` where ``take``, else ``old``, for operands of one shape:
    np.where on arrays, a plain choice on scalars."""
    return np.where(take, new, old) if isinstance(take, np.ndarray) else (new if take else old)


def implicit_risk_bound(gen: DivergenceGenerator, n, divergence_sum):
    """Largest a in [0, 1 - 1/N] whose divergence floor still reaches the
    observed sum; the floor is non-increasing, so bisection applies.

    ``n`` and ``divergence_sum`` may be arrays, which broadcast.  Every
    element is bisected under its own stop test, so it takes the steps it
    would take alone; scalars give a float.
    """
    n = _values(n)
    if _any(n < 2):
        raise ValueError("need at least 2 hypotheses")
    total = _divergence_sums(divergence_sum)
    hi = 1.0 - 1.0 / n
    # lo keeps floor(lo) >= sum and up keeps floor(up) < sum; an element
    # stays at hi when the floor there still reaches its sum, and at 0 when
    # the floor at 0 already falls short of it
    at_top = (total <= 0.0) | (_uniform_floor(gen, n, hi) >= total)
    short = _uniform_floor(gen, n, 0.0 * hi) < total
    lo, up = _choose(at_top, hi, 0.0 * hi), hi
    active = _choose(at_top | short, False, up - lo > _BISECT_TOL)
    while _any(active):
        mid = 0.5 * (lo + up)
        above = _uniform_floor(gen, n, mid) >= total
        lo = _choose(active & above, mid, lo)
        up = _choose(active, _choose(above, up, mid), up)
        active = active & (up - lo > _BISECT_TOL)
    return float(lo) if np.ndim(lo) == 0 else lo


def tangent_risk_bound(gen: DivergenceGenerator, n, divergence_sum, a):
    """Tangent-line relaxation a + (sum - g(a)) / g'(a), clamped to range.

    Requires a differentiable generator and g'(a) < 0, i.e. a strictly
    below 1 - 1/N.  The arguments may be arrays, which broadcast; scalars
    give a float.
    """
    n, a = _values(n), _values(a)
    hi = 1.0 - 1.0 / n
    ok = (0.0 <= a) & (a < hi)
    if not _all(ok):
        raise ValueError(f"a={_first_failing(a, ok)!r} must lie in [0, 1 - 1/N)")
    total = _divergence_sums(divergence_sum)
    slope = uniform_divergence_floor_derivative(gen, n, a)
    if _any(slope == 0.0):
        raise ValueError("zero slope: a is too close to 1 - 1/N")
    floor = uniform_divergence_floor(gen, n, a)
    with np.errstate(invalid="ignore"):  # an infinite slope or floor is replaced below
        value = _clip(a + (total - floor) / slope, 0.0, hi)
    # the tangent at an infinite floor carries no constraint
    value = _choose(np.isinf(floor), hi, value)
    value = _choose(np.isinf(slope), _clip(a, 0.0, hi), value)
    return float(value) if np.ndim(value) == 0 else value


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


#: the statistic each risk-bound family reads, and what its checks demand
_FAMILY_STATISTIC = {
    "fano": ("avg_kl", "fano needs n >= 2 and avg_kl >= 0"),
    "chi2": ("divergence_sum", "chi2 needs n >= 2 and a nonnegative sum"),
    "hellinger": ("h_sq", "hellinger needs n >= 2 and h_sq in [0, 2]"),
    "tv": ("divergence_sum", "tv needs n >= 2 and a nonnegative sum"),
    "power_l": ("divergence_sum", "power_l needs n >= 2, exponent > 1, sum >= 0"),
}


def named_risk_bounds(family: str, n: int, stat, exponent: float = 3.0):
    """The unclamped risk bound of a named family at N = n for each
    statistic in ``stat`` (an array or a float), after its checks: a NaN
    statistic is refused by name (hellinger's range check refuses it too),
    and so is one out of range.  The formulas are listed in
    :func:`named_bound`; a float statistic gives a float."""
    key, needs = _FAMILY_STATISTIC[family]
    stat = _values(stat)
    if family != "hellinger" and _any(np.isnan(stat)):
        raise ValueError(f"{key} is NaN")
    if family == "hellinger":
        ok = (0.0 <= stat) & (stat <= 2.0)
    else:
        ok = stat >= 0.0
    if n < 2 or (family == "power_l" and exponent <= 1.0) or not _all(ok):
        raise ValueError(needs)
    if family == "fano":
        value = 1.0 - (math.log(2.0) + stat) / math.log(n)
    elif family == "chi2":
        value = 1.0 - 1.0 / n - np.sqrt(stat) / n
    elif family == "hellinger":
        value = (
            1.0
            - 1.0 / n
            - (n - 2.0) / n * stat / 2.0
            - math.sqrt(n - 1.0) / n * np.sqrt(stat * (2.0 - stat))
        )
    elif family == "tv":
        value = 1.0 - 1.0 / n - stat / n
    else:
        l = exponent
        # float_power is the C library's pow, as Python's ** on floats
        value = 1.0 - np.float_power(n ** (1.0 - l) + stat / n**l, 1.0 / l)
    return float(value) if np.ndim(value) == 0 else value


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
    if family not in _FAMILY_STATISTIC:
        raise ValueError(f"unknown bound family {family!r}; choose from {NAMED_FAMILIES}")
    key = _FAMILY_STATISTIC[family][0]
    n = int(params["n"])
    inputs = {"n": n}
    if family == "power_l":
        inputs["exponent"] = _not_nan("exponent", params["exponent"])
    inputs[key] = float(params[key])
    value = named_risk_bounds(family, n, inputs[key], inputs.get("exponent", 3.0))
    return _clamp_report(family, value, inputs, {})


def ensemble_statistics(family: str, pmats, exponent: float = 3.0):
    """The exact statistic :func:`named_bound_from_ensemble` feeds a risk
    family, for every ensemble in ``pmats`` (..., N, S), and the minimizer
    rows (..., S) it comes with (None for hellinger), unchecked.

    fano reads the KL informativity, chi2, tv and power_l N times theirs
    (closed forms; the sorted-breakpoint solver for tv), and hellinger the
    average pairwise squared Hellinger distance, diagonal included.
    """
    n = pmats.shape[-2]
    if family == "hellinger":
        roots = np.sqrt(pmats)
        gram = roots @ np.swapaxes(roots, -1, -2)
        return (2.0 - 2.0 * gram).mean(axis=(-2, -1)), None
    if family == "tv":
        q, value = informativity.tv_breakpoints(pmats)
    else:
        name = {"fano": "kl", "chi2": "chi2", "power_l": f"power:{exponent:g}"}[family]
        q, value = informativity.closed_forms(name, pmats)
    return (value, q) if family == "fano" else (n * value, q)


def named_bound_from_ensemble(family: str, ens: Ensemble, **extra) -> BoundReport:
    """Compute the family's exact ensemble statistic, then the bound.

    Statistics are exact: the KL/chi2/power/reverse-KL informativity closed
    forms, the sorted-breakpoint total-variation informativity, and the
    average pairwise squared Hellinger distance (diagonal included); see
    :func:`ensemble_statistics`.
    """
    n = ens.size
    if family == "reverse_kl_tv":
        if n != 2:
            raise ValueError("reverse_kl_tv applies to two-member ensembles")
        res = informativity.informativity_closed_form("reverse_kl", ens)
        report = named_bound("reverse_kl_tv", divergence_sum=2.0 * res.value)
    elif family in _FAMILY_STATISTIC:
        l = float(extra.get("exponent", 3.0))
        stat, q = ensemble_statistics(family, ens.pmf_matrix(), l)
        if q is not None:
            DiscreteDistribution(q)  # the minimizer passes a distribution's checks
        key = _FAMILY_STATISTIC[family][0]
        params = {"n": n, key: float(stat)}
        if family == "power_l":
            params["exponent"] = l
        report = named_bound(family, **params)
    else:
        raise ValueError(
            f"unknown bound family {family!r}; choose from {NAMED_FAMILIES}"
        )
    inter = {**report.intermediates, "statistic_source": "exact ensemble computation"}
    return dataclasses.replace(report, intermediates=inter)


# ---------------------------------------------------------------------------
# Two-point sharpness witness
# ---------------------------------------------------------------------------

#: the reference of the two-point witness
_HALVES = np.array([[0.5, 0.5]])


def two_point_pairs(v) -> np.ndarray:
    """The witness members P1 = ((1+v)/2, (1-v)/2) and P2 swapped for each
    total variation in ``v``, as a (..., 2, 2) array; v outside [0, 1] or
    NaN is refused."""
    v = _total_variations(v)
    up, down = (1.0 + v) / 2.0, (1.0 - v) / 2.0
    return np.stack([np.stack([up, down], -1), np.stack([down, up], -1)], -2)


def two_point_sums(gen: DivergenceGenerator, pairs) -> np.ndarray:
    """D_f(P1||Q) + D_f(P2||Q) with Q uniform, for witness members
    (..., 2, 2) from :func:`two_point_pairs`."""
    divs = divergence_matrix(gen, pairs, _HALVES)
    return divs[..., 0, 0] + divs[..., 1, 0]


def two_point_witness(v: float, gen: DivergenceGenerator):
    """The sharp instance for total variation v: P1 = ((1+v)/2, (1-v)/2),
    P2 swapped, Q uniform.  Returns (P1, P2, Q, achieved divergence sum);
    the sum equals f(1+v) + f(1-v).
    """
    pair = two_point_pairs(v)
    p1, p2 = DiscreteDistribution(pair[0]), DiscreteDistribution(pair[1])
    q = DiscreteDistribution(_HALVES[0])
    return p1, p2, q, float(two_point_sums(gen, pair))


def two_point_target(v, gen: DivergenceGenerator):
    """f(1+v) + f(1-v): the sharp value of the two-point divergence sum.
    ``v`` may be an array; v outside [0, 1] or NaN is refused, as
    :func:`two_point_witness` refuses it."""
    v = _total_variations(v)
    return _floor_sum(gen, 1.0 + v, 1.0 - v, 1.0, 1.0)
