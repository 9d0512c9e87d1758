"""Lower bounds on the Bayes testing risk from divergences to a reference.

The core inequality: for any convex generator f, any prior w with MAP test T
and any reference measure Q with W = sum_x w_{T(x)} q(x),

    sum_theta w_theta D_f(P_theta || Q)
        >= W f((1 - rbar)/W) + (1 - W) f(rbar/(1 - W)),

where rbar is the Bayes risk.  With a uniform prior (W = 1/N) the right side
is the uniform divergence floor g(rbar).  Both floors live here, each
public one checking its inputs once at entry; g is inverted (implicitly by
bisection or explicitly by a tangent line) to give risk lower bounds.  Named
closed forms for the standard generators and the sharp two-point witness
live here as well.
"""

from __future__ import annotations

import math

import numpy as np

from . import informativity
from .distributions import DiscreteDistribution, Ensemble, check_finite, check_param_names
from .divergences import (
    VALUE_TOL,
    DivergenceGenerator,
    apply_generator,
    divergence_matrix,
    exponent_text,
)
from .report import BoundReport
from .testing_risk import map_tests

#: bisection tolerance for the implicit inversion
_BISECT_TOL = 1e-10


# ---------------------------------------------------------------------------
# Scalar-or-array helpers and the divergence floors
# ---------------------------------------------------------------------------


def _values(x):
    """``x`` as a float array, or as a float when it is a scalar: plain
    float arithmetic rounds as numpy's does and skips its per-call cost."""
    arr = np.asarray(x, dtype=float)
    return arr if arr.ndim else float(arr)


def _any(mask) -> bool:
    """Whether some entry of a boolean array, or a boolean scalar, is true."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def _all(mask) -> bool:
    """Whether every entry of a boolean array, or a boolean scalar, is true."""
    return bool(mask.all() if isinstance(mask, np.ndarray) else mask)


def _clip(x, lo, hi):
    """min(max(x, lo), hi), elementwise on arrays."""
    if isinstance(x, np.ndarray) or isinstance(hi, np.ndarray):
        return np.minimum(np.maximum(x, lo), hi)
    return min(max(x, lo), hi)


def _choose(take, new, old):
    """``new`` where ``take``, else ``old``, for operands of one shape:
    np.where on arrays, a plain choice on scalars."""
    return np.where(take, new, old) if isinstance(take, np.ndarray) else (new if take else old)


def _first_failing(values, ok) -> float:
    """The first entry of ``values`` (broadcast against ``ok``) where ``ok``
    is False, as a float: what an array check names when it refuses."""
    return float(np.broadcast_to(values, np.shape(ok))[~np.asarray(ok)][0])


def _floor_sum(gen: DivergenceGenerator, x, y, wx, wy):
    """wx f(x) + wy f(y) elementwise for x and y of one shape, +inf where
    either f is: the shape of every divergence floor.  Both arguments go
    through one :func:`apply_generator` call; scalars give a float."""
    vals = apply_generator(gen, np.array([x, y]))
    fx, fy = vals[0], vals[1]
    total = wx * fx + wy * fy
    if not isinstance(total, np.ndarray):
        return math.inf if math.isinf(fx) or math.isinf(fy) else float(total)
    inf = np.isinf(fx) | np.isinf(fy)
    return np.where(inf, math.inf, total) if inf.any() else total


def _hypotheses(n):
    """n as a float array or a float, after checking every n >= 2 (NaN
    fails), and 1 - 1/n."""
    n = _values(n)
    if not _all(n >= 2):
        raise ValueError("need at least 2 hypotheses")
    return n, 1.0 - 1.0 / n


def _risk_range(n, a, slack: float = 0.0):
    """n and a as arrays or scalars, after checking every n >= 2 and every
    a in [-slack, 1 - 1/n + slack] (NaN fails), and 1 - 1/n."""
    n, hi = _hypotheses(n)
    a = _values(a)
    ok = (-slack <= a) & (a <= hi + slack)
    if not _all(ok):
        where = "" if np.ndim(n) else f" for N={n:g}"
        raise ValueError(f"a={_first_failing(a, ok)!r} outside [0, 1 - 1/N]{where}")
    return n, a, hi


def uniform_divergence_floor(gen: DivergenceGenerator, n, a):
    """f(N(1-a)) + (N-1) f(Na/(N-1)): the least possible divergence sum
    over any reference measure when the uniform-prior testing risk is a.

    Defined for a in [0, 1 - 1/N]; convex and non-increasing in a.  ``n``
    and ``a`` may be arrays, which broadcast; scalars give a float.
    """
    n, a, hi = _risk_range(n, a, slack=VALUE_TOL)
    return _uniform_floor(gen, n, _clip(a, 0.0, hi))


def _uniform_floor(gen: DivergenceGenerator, n, a):
    """:func:`uniform_divergence_floor` at checked n and a in [0, 1 - 1/n]."""
    return _floor_sum(gen, n * (1.0 - a), n * a / (n - 1.0), 1.0, n - 1.0)


def _uniform_slope(gen: DivergenceGenerator, n, a):
    """d/da of :func:`uniform_divergence_floor` at checked n and a, as an
    array or a float as the floor takes them; needs gen.derivative."""
    if gen.derivative is None:
        raise ValueError(f"generator {gen.name!r} has no derivative")
    inner = n * a / (n - 1.0)
    shape = np.shape(inner)
    inner = np.atleast_1d(inner)
    # at inner = 0 the one-sided slope is probed just above zero: a
    # genuinely attained (so still valid) tangent slope, astronomically
    # steep for generators whose derivative is unbounded at 0+
    left = gen.derivative(np.where(inner == 0.0, 1e-300, inner))
    right = gen.derivative(np.atleast_1d(n * (1.0 - a)))
    out = n * (left - right)
    return out.reshape(shape) if shape else float(out[0])


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


def map_reference_masses(w, pmats, qs) -> np.ndarray:
    """W = sum_x w_{T(x)} q(x) for the MAP test T of each prior w (..., N)
    and members (..., N, S), against its reference q (..., S): one dot
    product each."""
    picked = np.take_along_axis(w, map_tests(w, pmats), axis=-1)
    return (picked[..., None, :] @ qs[..., :, None])[..., 0, 0]


def weighted_sums(w, divs) -> np.ndarray:
    """sum_theta w_theta D_f(P_theta || Q) for B stacked instances: priors
    w (B, N) and the members' divergences to the reference, ``divs``
    (B, N), as :func:`.divergences.divergence_matrix` gives them.
    Zero-weight members are skipped, so an infinite divergence of theirs
    does not count.  Each sum is one dot product of the weights with the
    divergences; an instance with a zero weight drops those members before
    its dot product, so every sum has the bits of a one-instance call."""
    with np.errstate(invalid="ignore"):  # 0 * inf: such a sum is redone or set below
        sums = (w[:, None, :] @ divs[:, :, None])[:, 0, 0]
    for b in np.flatnonzero(w.min(axis=1) == 0.0):
        keep = w[b] > 0.0
        sums[b] = w[b][keep] @ divs[b][keep]
    sums[(np.isinf(divs) & (w > 0.0)).any(axis=1)] = math.inf
    return sums


def implicit_risk_bound(gen: DivergenceGenerator, n, divergence_sum):
    """Largest a in [0, 1 - 1/N] whose divergence floor still reaches the
    observed sum; the floor is non-increasing, so bisection applies.

    ``n`` and ``divergence_sum`` may be arrays, which broadcast.  Every
    element is bisected under its own stop test, so it takes the steps it
    would take alone; scalars give a float.
    """
    n, hi = _hypotheses(n)
    total = _divergence_sums(divergence_sum)
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
    n, hi = _hypotheses(n)
    a = _values(a)
    ok = (0.0 <= a) & (a < hi)
    if not _all(ok):
        raise ValueError(f"a={_first_failing(a, ok)!r} must lie in [0, 1 - 1/N)")
    total = _divergence_sums(divergence_sum)
    slope = _uniform_slope(gen, n, a)
    if _any(slope == 0.0):
        raise ValueError("zero slope: a is too close to 1 - 1/N")
    floor = _uniform_floor(gen, n, a)
    with np.errstate(invalid="ignore"):  # an infinite slope or floor is replaced below
        value = _clip(a + (total - floor) / slope, 0.0, hi)
    # the tangent at an infinite floor carries no constraint
    value = _choose(np.isinf(floor), hi, value)
    value = _choose(np.isinf(slope), _clip(a, 0.0, hi), value)
    return float(value) if np.ndim(value) == 0 else value


# ---------------------------------------------------------------------------
# Named closed-form bounds
# ---------------------------------------------------------------------------


#: the parameters each named risk family reads, its statistic last, and
#: what its checks demand
_FAMILIES = {
    "fano": (("n", "avg_kl"), "fano needs n >= 2 and avg_kl >= 0"),
    "chi2": (("n", "divergence_sum"), "chi2 needs n >= 2 and a nonnegative sum"),
    "hellinger": (("n", "h_sq"), "hellinger needs n >= 2 and h_sq in [0, 2]"),
    "tv": (("n", "divergence_sum"), "tv needs n >= 2 and a nonnegative sum"),
    "power_l": (("n", "exponent", "divergence_sum"), "power_l needs n >= 2, exponent > 1, sum >= 0"),
}
NAMED_FAMILIES = tuple(_FAMILIES) + ("reverse_kl_tv",)


def _family(family: str) -> tuple:
    """The parameters and the check message of a named risk family."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown bound family {family!r}; choose from {NAMED_FAMILIES}")
    return _FAMILIES[family]


def named_risk_bounds(family: str, n: int, stat, exponent: float = 3.0):
    """The unclamped risk bound of a named family at N = n for each
    statistic in ``stat`` (an array or a float), after its checks: a NaN
    statistic is refused by name (hellinger's range check refuses it too),
    and so is one out of range.  The formulas are listed in
    :func:`named_bound`; a float statistic gives a float."""
    keys, needs = _family(family)
    key = keys[-1]
    stat = _values(stat)
    if family != "hellinger" and _any(np.isnan(stat)):
        raise ValueError(f"{key} is NaN")
    if family == "hellinger":
        ok = (0.0 <= stat) & (stat <= 2.0)
    else:
        ok = stat >= 0.0
    if n < 2 or (family == "power_l" and not 1.0 < exponent < math.inf) or not _all(ok):
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


def _clamp_report(family: str, n: int, stat: float, exponent: float, inter: dict) -> BoundReport:
    """The report of a named risk family; a bound at or below 0 reads 0,
    flagged vacuous."""
    value = named_risk_bounds(family, n, stat, exponent)
    inputs = {"n": n, "exponent": exponent} if family == "power_l" else {"n": n}
    inputs[_FAMILIES[family][0][-1]] = stat
    return BoundReport(
        family=family,
        lower_bound=min(max(value, 0.0), 1.0),
        inputs=inputs,
        intermediates=inter,
        vacuous=value <= 0.0,
    )


def _reverse_kl_tv_report(s: float, inter: dict) -> BoundReport:
    """The reverse_kl_tv report for a reverse-KL sum s; +inf is vacuous."""
    if math.isnan(s):
        raise ValueError("divergence_sum is NaN")
    if s < 0:
        raise ValueError("reverse_kl_tv needs a nonnegative sum")
    value = math.sqrt(1.0 - math.exp(-s))
    return BoundReport(
        family="reverse_kl_tv",
        lower_bound=min(value, 1.0),
        inputs={"divergence_sum": s},
        intermediates=inter,
        vacuous=value >= 1.0,
        notes=("upper bound on the total variation distance",),
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

    A missing parameter, then one the family does not read, is refused by
    name (:func:`check_param_names`), and so is an ``n`` that is not
    integral (an integral float such as 16.0 is accepted; a bool is not).
    """
    keys = ("divergence_sum",) if family == "reverse_kl_tv" else _family(family)[0]
    check_param_names(family, keys, params)
    stat = float(params[keys[-1]])
    if family == "reverse_kl_tv":
        return _reverse_kl_tv_report(stat, {})
    n = params["n"]
    if isinstance(n, (bool, np.bool_)) or not float(n).is_integer():
        raise ValueError(f"n must be an integer, got {n!r}")
    exponent = check_finite("exponent", params["exponent"]) if family == "power_l" else 3.0
    return _clamp_report(family, int(n), stat, exponent, {})


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
        power = f"power:{exponent_text(exponent)}"
        name = {"fano": "kl", "chi2": "chi2", "power_l": power}[family]
        q, value = informativity.closed_forms(name, pmats)
    return (value, q) if family == "fano" else (n * value, q)


def named_bound_from_ensemble(family: str, ens: Ensemble, exponent: float = 3.0) -> BoundReport:
    """Compute the family's exact ensemble statistic, then the bound.

    Statistics are exact: the KL/chi2/power/reverse-KL informativity closed
    forms, the sorted-breakpoint total-variation informativity, and the
    average pairwise squared Hellinger distance (diagonal included); see
    :func:`ensemble_statistics`.  power_l's ``exponent`` is checked first.
    """
    n = ens.size
    source = {"statistic_source": "exact ensemble computation"}
    if family == "reverse_kl_tv":
        if n != 2:
            raise ValueError("reverse_kl_tv applies to two-member ensembles")
        value = informativity.closed_forms("reverse_kl", ens.pmf_matrix())[1]
        return _reverse_kl_tv_report(2.0 * float(value), source)
    _family(family)
    exponent = check_finite("exponent", exponent) if family == "power_l" else float(exponent)
    stat, q = ensemble_statistics(family, ens.pmf_matrix(), exponent)
    if q is not None:
        DiscreteDistribution(q)  # the minimizer passes a distribution's checks
    return _clamp_report(family, n, float(stat), exponent, source)


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
