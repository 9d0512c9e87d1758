"""Global-entropy minimax lower bounds.

A bound here needs only two functions of the problem: a packing lower bound
eta -> N(eta) for the parameter space in the loss metric, and a covering
upper bound eps -> M(eps) for the model class measured in (the square root
of) a divergence.  For a point (eta, eps) inside the profile's validity
region the risk bound is loss(eta/2) * (1 - star) with star depending on the
divergence kind; the final bound is the grid supremum over (eta, eps).

Analytic models (Gaussian location, uniform scale/shift, the d-dimensional
Gaussian ball, and support-function estimation) ship with their closed-form
divergences and entropy profiles.  Constants the source analysis leaves
symbolic must be supplied; omitted ones default to 1.0 and are flagged.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .distributions import check_finite
from .divergences import exponent_text
from .report import BoundReport

ENTROPY_KINDS = ("kl", "chi2", "power_l")


@dataclass(frozen=True)
class LossSpec:
    """A nondecreasing loss of the metric distance, checked on a grid."""

    fn: Callable[[float], float]
    name: str = "loss"

    def __post_init__(self):
        grid = np.linspace(0.0, 8.0, 65)
        vals = [self.fn(float(g)) for g in grid]
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            raise ValueError(f"loss {self.name!r} is not nondecreasing")
        if any(v < 0 for v in vals):
            raise ValueError(f"loss {self.name!r} takes negative values")

    def __call__(self, x: float) -> float:
        return _finite("loss", self.fn, x)


def _finite(what: str, fn: Callable, *args) -> float:
    """float(fn(*args)); a value past the float range, or NaN, raises
    ValueError as a count below 1 does, so a grid skips the point.  The
    message is built only on failure: this runs once per grid value."""
    try:
        value = float(fn(*args))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        call = f"{what}({', '.join(map(repr, args))})"
        raise ValueError(f"{call} = {value!r}, outside the float range")
    return value


def power_loss(exponent: float = 2.0) -> LossSpec:
    check_finite("loss exponent", exponent)
    return LossSpec(lambda x: x**exponent, name=f"power{exponent_text(exponent)}")


@dataclass(frozen=True)
class EntropyProfile:
    """Packing/covering bounds with their validity regions.

    ``packing_lower`` maps eta to N(eta) >= 1 on (0, eta_max];
    ``covering_upper`` maps eps to M(eps) >= 1 where ``covering_valid``
    holds.  ``kind`` records which divergence the covering is measured in.
    ``defaulted`` lists constants that silently fell back to 1.0.  A count
    that is not a finite float (such as an ``exp`` past 709.78) raises
    ValueError.
    """

    packing_lower: Callable[[float], float]
    eta_max: float
    covering_upper: Callable[[float], float]
    covering_valid: Callable[[float], bool]
    kind: str
    constants: dict = field(default_factory=dict)
    defaulted: tuple[str, ...] = ()

    def packing(self, eta: float) -> float:
        if not 0.0 < eta <= self.eta_max:
            raise ValueError(f"eta={eta!r} outside (0, {self.eta_max}]")
        return _finite("packing count N", self.packing_lower, eta)

    def covering(self, eps: float) -> float:
        try:
            valid = eps > 0.0 and self.covering_valid(eps)
        except OverflowError:  # eps**2 in a validity test, far outside it
            valid = False
        if not valid:
            raise ValueError(f"eps={eps!r} outside the covering validity range")
        return _finite("covering count M", self.covering_upper, eps)


def _check_kind(kind: str, profile: EntropyProfile, l: Optional[float]) -> None:
    if kind not in ENTROPY_KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {ENTROPY_KINDS}")
    if kind == "power_l" and (l is None or not 1.0 < l < math.inf or l == 2.0):
        raise ValueError(f"power_l kind needs a finite l > 1, l != 2, got {l}")
    if profile.kind == "kl" and kind != "kl":
        # chi2 >= KL, so a KL covering at radius eps undercounts the chi2 one
        raise ValueError(
            f"a profile of kind 'kl' cannot back the {kind!r} kind: its "
            "covering is measured in KL, not chi2"
        )


def _packing_part(kind: str, n: float, l: Optional[float]) -> float:
    """The part of star that depends on eta alone: log N (kl), N (chi2) or
    N^(l-1) (power_l)."""
    if n < 1.0:
        raise ValueError("profile produced a count below 1")
    if kind == "kl":
        if n <= 1.0:
            raise ValueError("kl kind needs N(eta) > 1")
        return math.log(n)
    if kind == "chi2":
        return n
    return _finite("pow", pow, n, l - 1.0)


def _covering_part(kind: str, m: float, eps: float, l: Optional[float]) -> float:
    """The part of star that depends on eps alone: log 2 + log M + eps^2
    (kl), (1 + eps^2) M (chi2) or (1 + eps^2) M^(l-1) (power_l)."""
    if m < 1.0:
        raise ValueError("profile produced a count below 1")
    eps_sq = _finite("pow", pow, eps, 2)
    if kind == "kl":
        return math.log(2.0) + math.log(m) + eps_sq
    if kind == "chi2":
        return (1.0 + eps_sq) * m
    return (1.0 + eps_sq) * _finite("pow", pow, m, l - 1.0)


def _star(kind: str, packing_part, covering_part, l: Optional[float]):
    """star from its two parts, elementwise, so the parts may be arrays that
    broadcast to a grid.  Only + - * / sqrt and the final power act here,
    and np.float_power calls the C library's pow for each element as
    Python's ** does (np.power may use a vectorised pow that differs in the
    last bit), so grid values equal scalar ones bit for bit."""
    if kind == "kl":
        return covering_part / packing_part
    if kind == "chi2":
        return 1.0 / packing_part + np.sqrt(covering_part / packing_part)
    return np.float_power(1.0 / packing_part + covering_part / packing_part, 1.0 / l)


def _point(
    kind: str, profile: EntropyProfile, eta: float, eps: float, l: Optional[float]
) -> tuple[float, float, float]:
    """(N(eta), M(eps), 1 - star) at one grid point."""
    _check_kind(kind, profile, l)
    n = profile.packing(eta)
    m = profile.covering(eps)
    star = _star(kind, _packing_part(kind, n, l), _covering_part(kind, m, eps, l), l)
    return n, m, 1.0 - float(star)


def entropy_risk_bound(
    kind: str,
    profile: EntropyProfile,
    loss: LossSpec,
    eta: float,
    eps: float,
    l: Optional[float] = None,
) -> float:
    """loss(eta/2) * (1 - star) at a single grid point, clamped at 0.

    star per kind, with N = N(eta), M = M(eps):
        kl       (log 2 + log M + eps^2) / log N        (needs N > 1)
        chi2     1/N + sqrt((1 + eps^2) M / N)
        power_l  ((1 + (1 + eps^2) M^(l-1)) / N^(l-1))^(1/l)

    Raises ValueError outside the profile validity, for a count below 1,
    and for a count, power or loss value past the float range.
    """
    return loss(eta / 2.0) * max(0.0, _point(kind, profile, eta, eps, l)[2])


def entropy_bound_factor(
    kind: str,
    profile: EntropyProfile,
    eta: float,
    eps: float,
    l: Optional[float] = None,
) -> float:
    """The unclamped parenthetical factor (1 - star); negative means the
    grid point is vacuous.  Useful for diagnosing rate behavior."""
    return _point(kind, profile, eta, eps, l)[2]


def _axis_parts(
    kind: str,
    profile: EntropyProfile,
    loss: LossSpec,
    eta_grid,
    eps_grid,
    l: Optional[float],
) -> tuple[np.ndarray, ...]:
    """The per-axis half of the grid: ``(etas, losses, packing_parts)`` for
    the eta values where the bound is defined and ``(epss, covering_parts)``
    for the eps values, in input order with duplicates kept.  N(eta),
    loss(eta/2) and M(eps) come from the same scalar calls as the point
    bound, once per grid value; a value where the point bound raises
    ValueError is dropped.  Raises ValueError when either axis is empty."""
    _check_kind(kind, profile, l)
    rows = []
    for eta in eta_grid:
        eta = float(eta)
        try:
            part = _packing_part(kind, profile.packing(eta), l)
            rows.append((eta, loss(eta / 2.0), part))
        except ValueError:
            continue
    cols = []
    for eps in eps_grid:
        eps = float(eps)
        try:
            cols.append((eps, _covering_part(kind, profile.covering(eps), eps, l)))
        except ValueError:
            continue
    if not rows or not cols:
        raise ValueError("no grid point lies inside the profile validity region")
    etas, losses, packing_part = (np.array(col) for col in zip(*rows))
    epss, covering_part = (np.array(col) for col in zip(*cols))
    return etas, losses, packing_part, epss, covering_part


def _bounds(kind: str, losses, packing_part, covering_part, l: Optional[float]):
    """loss(eta/2) * max(0, 1 - star) from the per-axis parts, elementwise
    (the parts may broadcast to a grid)."""
    # a quotient past the float range is inf without a warning, as in Python
    with np.errstate(over="ignore"):
        factor = 1.0 - _star(kind, packing_part, covering_part, l)
    return losses * np.where(factor > 0.0, factor, 0.0)


def entropy_bound_grid(
    kind: str,
    profile: EntropyProfile,
    loss: LossSpec,
    eta_grid,
    eps_grid,
    l: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`entropy_risk_bound` at every pair of the two grids.

    N(eta), loss(eta/2) and M(eps) are computed once per grid value by the
    same scalar calls as the point bound; only the star and the clamp are
    formed over the whole grid, with the same floating-point operations, so
    every value equals the point bound bit for bit.  Whether the bound is
    defined at (eta, eps) depends on each coordinate alone, so a value where
    the point bound raises ValueError drops its whole row or column.

    Returns ``(etas, epss, bounds)``: the grid values where the bound is
    defined, in input order with duplicates kept, and ``bounds[i, j]`` at
    ``(etas[i], epss[j])``.  Raises ValueError when no point is defined.
    """
    etas, losses, packing_part, epss, covering_part = _axis_parts(
        kind, profile, loss, eta_grid, eps_grid, l
    )
    bounds = _bounds(
        kind, losses[:, None], packing_part[:, None], covering_part[None, :], l
    )
    return etas, epss, bounds


def optimize_entropy_bound(
    kind: str,
    profile: EntropyProfile,
    loss: LossSpec,
    eta_grid,
    eps_grid,
    l: Optional[float] = None,
) -> BoundReport:
    """Grid supremum of :func:`entropy_risk_bound`.

    The grid is the one :func:`entropy_bound_grid` forms on the sorted eta
    and eps values, each count and loss computed once per grid value, but
    its maximum is found from |eta| + |eps| bound values, not from all
    |eta| * |eps|.  Star depends on eps only through the covering part
    c(eps) and is non-decreasing in it, so every eta row peaks where c is
    least.  The column pass forms the bound at the least c for every eta
    and takes the first maximum, row i; the row pass forms row i for every
    eps and takes the first maximum, column j.  This holds for the computed
    values, not only in real arithmetic: + - * / and sqrt round correctly,
    hence monotonically, and so do the clamp at 0 and the product with
    loss(eta/2) >= 0 (power_l's final power is the C library's pow, taken
    as monotone too).  So row i is the first row that holds the grid's
    maximum, j is the first column where it holds it, and the witness is
    the grid's first maximum in row-major order.

    Skipped points.  A point where :func:`entropy_risk_bound` raises
    ValueError is skipped and not counted in ``feasible_grid_points``: one
    outside the profile validity, one with a count below 1, kl points with
    N <= 1, and points where a count, a power or a loss value leaves the
    float range (the support_function profile's exp past 709.78, M^(l-1)
    past 1.8e308 in the power_l kind).  Skipping only drops candidates, so
    the bound stays valid.

    NaN.  A NaN count or loss is skipped like an overflow, so every
    remaining value is a number and a NaN never wins.

    Ties.  The witness is the first maximum in row-major order over
    (sorted eta, sorted eps), which is what a scan with a strict ``>``
    picks: ties break to the smallest eta, then the smallest eps, so
    reports are deterministic.

    The reported ``lower_bound``, ``packing``, ``covering`` and ``factor``
    are recomputed at the witness by the point bound, so they are exactly
    the numbers it gives there.
    """
    etas, losses, packing_part, epss, covering_part = _axis_parts(
        kind,
        profile,
        loss,
        sorted(float(e) for e in eta_grid),
        sorted(float(e) for e in eps_grid),
        l,
    )
    i = int(np.argmax(_bounds(kind, losses, packing_part, covering_part.min(), l)))
    j = int(np.argmax(_bounds(kind, losses[i], packing_part[i], covering_part, l)))
    eta, eps = float(etas[i]), float(epss[j])
    n, m, factor = _point(kind, profile, eta, eps, l)
    best = loss(eta / 2.0) * max(0.0, factor)
    inter = {
        "eta": eta,
        "eps": eps,
        "packing": n,
        "covering": m,
        "factor": factor,
        "feasible_grid_points": len(etas) * len(epss),
    }
    notes = ()
    if profile.defaulted:
        notes = (
            "profile constants defaulted to 1.0: " + ", ".join(profile.defaulted),
        )
    return BoundReport(
        family=f"entropy_{kind}",
        lower_bound=max(best, 0.0),
        inputs={"kind": kind, "loss": loss.name, "l": l, **profile.constants},
        intermediates=inter,
        vacuous=best <= 0.0,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Analytic models
# ---------------------------------------------------------------------------


class AnalyticDivergence(NamedTuple):
    kl: Optional[float]
    chi2: float


ANALYTIC_MODELS = ("gaussian_location", "uniform_scale", "uniform_shift")


def analytic_divergence(
    model: str, theta0: float, theta1: float, n: int, sigma: float = 1.0
) -> AnalyticDivergence:
    """Closed-form divergences between n-fold products of the scalar models.

    gaussian_location: unit-variance-sigma normals at theta0, theta1;
        KL = n (theta0-theta1)^2 / (2 sigma^2),
        chi2 = exp(n (theta0-theta1)^2 / sigma^2) - 1.
    uniform_scale: uniforms on [0, theta]; chi2 = (theta1/theta0)^n - 1 for
        theta0 <= theta1 and +inf otherwise; KL = n log(theta1/theta0) on
        the same domain.
    uniform_shift: uniforms on [theta, theta+1].  Any two distinct shifts
        are mutually non-absolutely-continuous, so both divergences between
        members are +inf.  What is finite is the divergence to a widened
        candidate anchored at theta1 <= theta0: the candidate uniform on
        [theta1, theta1 + 1 + 2 e'] with e' = theta0 - theta1 gives
        chi2 = (1 + 2 e')^n - 1 and KL = n log(1 + 2 e'), and those are the
        values returned.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    for name, value in (("theta0", theta0), ("theta1", theta1), ("sigma", sigma)):
        check_finite(name, value)
    try:
        return _analytic_divergence(model, theta0, theta1, n, sigma)
    except OverflowError:
        raise ValueError(
            f"{model} at theta0={theta0!r}, theta1={theta1!r}, n={n}: "
            "chi2 leaves the float range"
        ) from None


def _analytic_divergence(
    model: str, theta0: float, theta1: float, n: int, sigma: float
) -> AnalyticDivergence:
    if model == "gaussian_location":
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        gap_sq = (theta0 - theta1) ** 2 / sigma**2
        return AnalyticDivergence(kl=n * gap_sq / 2.0, chi2=math.expm1(n * gap_sq))
    if model == "uniform_scale":
        if theta0 <= 0 or theta1 <= 0:
            raise ValueError("uniform_scale needs positive endpoints")
        if theta0 > theta1:
            return AnalyticDivergence(kl=math.inf, chi2=math.inf)
        ratio = theta1 / theta0
        return AnalyticDivergence(kl=n * math.log(ratio), chi2=ratio**n - 1.0)
    if model == "uniform_shift":
        if theta0 == theta1:
            return AnalyticDivergence(kl=0.0, chi2=0.0)
        widening = theta0 - theta1
        if widening < 0:
            raise ValueError(
                "uniform_shift candidate anchor must sit at or below theta"
            )
        return AnalyticDivergence(
            kl=n * math.log1p(2.0 * widening),
            chi2=(1.0 + 2.0 * widening) ** n - 1.0,
        )
    raise ValueError(f"unknown model {model!r}; choose from {ANALYTIC_MODELS}")


def _pull_constants(params: dict, needed: tuple[str, ...]) -> tuple[dict, tuple]:
    values = {}
    defaulted = []
    for key in needed:
        if key in params:
            values[key] = float(params[key])
        else:
            values[key] = 1.0
            defaulted.append(key)
    extras = set(params) - set(needed)
    if extras:
        raise ValueError(f"unexpected profile parameters: {sorted(extras)}")
    return values, tuple(defaulted)


def _one_dim(c: dict, covering: Callable[[float], float]) -> tuple:
    """Packing c1/eta on (0, min(eta0, c1)] and validity eps <= eps0, shared
    by the three one-dimensional models."""
    c1, eps0 = c["c1"], c["eps0"]
    return (lambda eta: c1 / eta), min(c["eta0"], c1), covering, (lambda eps: eps <= eps0)


def _gaussian_1d(c: dict, kind: str) -> tuple:
    c2, n = c["c2"], c["n"]
    if kind == "kl":
        return _one_dim(c, lambda eps: c2 * math.sqrt(n) / eps)
    return _one_dim(c, lambda eps: c2 * math.sqrt(n) / math.sqrt(math.log1p(eps**2)))


def _uniform_scale(c: dict, kind: str) -> tuple:
    c3, n = c["c3"], c["n"]
    return _one_dim(c, lambda eps: c3 * n / math.log1p(eps**2))


def _uniform_shift(c: dict, kind: str) -> tuple:
    c2, n = c["c2"], c["n"]
    return _one_dim(c, lambda eps: c2 / ((1.0 + eps**2) ** (1.0 / n) - 1.0))


def _gaussian_ball(c: dict, kind: str) -> tuple:
    gamma, sigma, d = c["gamma"], c["sigma"], c["d"]
    if gamma <= 0 or sigma <= 0 or d < 1:
        raise ValueError("gaussian_ball needs gamma > 0, sigma > 0, d >= 1")
    return (
        lambda eta: (gamma / eta) ** d,
        gamma,
        lambda eps: (3.0 * gamma / (sigma * math.sqrt(math.log1p(eps**2)))) ** d,
        lambda eps: sigma * math.sqrt(math.log1p(eps**2)) <= gamma,
    )


def _support_function(c: dict, kind: str) -> tuple:
    cp, cpp = c["c_prime"], c["c_dprime"]
    gamma, sigma, eps0, n = c["gamma"], c["sigma"], c["eps0"], c["n"]
    half = (c["d"] - 1.0) / 2.0
    return (
        lambda eta: math.exp(cp * (gamma / eta) ** half),
        c["eta0"],
        lambda eps: math.exp(
            cpp * (gamma * math.sqrt(n) / (sigma * math.sqrt(math.log1p(eps**2)))) ** half
        ),
        lambda eps: math.log1p(eps**2) <= n * eps0**2 / sigma**2,
    )


# model -> (its constants in report order, the kinds it supports, a builder
# of (packing, eta_max, covering, covering_valid) from the constants and kind)
_PROFILE_SPECS = {
    "gaussian_1d": (("c1", "c2", "eta0", "eps0", "n"), ("kl", "chi2"), _gaussian_1d),
    "uniform_scale": (("c1", "c3", "eta0", "eps0", "n"), ("chi2",), _uniform_scale),
    "uniform_shift": (("c1", "c2", "eta0", "eps0", "n"), ("chi2",), _uniform_shift),
    "gaussian_ball": (("gamma", "sigma", "d"), ("chi2",), _gaussian_ball),
    "support_function": (
        ("c_prime", "c_dprime", "gamma", "sigma", "eta0", "eps0", "n", "d"),
        ("chi2",),
        _support_function,
    ),
}
PROFILE_MODELS = tuple(_PROFILE_SPECS)


def builtin_profile(model: str, kind: str = "chi2", **params) -> EntropyProfile:
    """Entropy profiles for the analytic models.

    gaussian_1d(c1, c2, eta0, eps0, n): packing c1/eta for eta <= eta0;
        covering c2 sqrt(n)/eps (kl kind) or c2 sqrt(n)/sqrt(log(1+eps^2))
        (chi2 kind) for eps <= eps0.
    uniform_scale(c1, c3, eta0, eps0, n): covering c3 n / log(1+eps^2).
    uniform_shift(c1, c2, eta0, eps0, n): covering c2/((1+eps^2)^(1/n) - 1).
    gaussian_ball(gamma, sigma, d): fully explicit; packing (gamma/eta)^d,
        covering (3 gamma / (sigma sqrt(log(1+eps^2))))^d valid while
        sigma sqrt(log(1+eps^2)) <= gamma.
    support_function(c_prime, c_dprime, gamma, sigma, eta0, eps0, n, d):
        log-packing c' (gamma/eta)^((d-1)/2); log-covering
        c'' (gamma sqrt(n) / (sigma sqrt(log(1+eps^2))))^((d-1)/2) valid
        while log(1+eps^2) <= n eps0^2 / sigma^2.

    Constants the analysis leaves unnamed default to 1.0 and are recorded in
    ``defaulted`` so reports can flag them.
    """
    if model not in _PROFILE_SPECS:
        raise ValueError(f"unknown profile model {model!r}; choose from {PROFILE_MODELS}")
    needed, kinds, build = _PROFILE_SPECS[model]
    consts, defaulted = _pull_constants(params, needed)
    # built before the kind test: a model's own value checks come first
    packing, eta_max, covering, valid = build(consts, kind)
    if kind not in kinds:
        raise ValueError(
            f"{model} profile is chi2-kind"
            if kinds == ("chi2",)
            else f"{model} profiles exist for {' and '.join(kinds)} kinds"
        )
    return EntropyProfile(
        packing_lower=packing,
        eta_max=eta_max,
        covering_upper=covering,
        covering_valid=valid,
        kind=kind,
        constants={"model": model, **consts},
        defaulted=defaulted,
    )


def _table_pairs(entries, name: str) -> list:
    """The (radius, count) pairs of a profile table as floats, sorted."""
    pairs = []
    for entry in entries:
        pair = tuple(entry) if isinstance(entry, (list, tuple, np.ndarray)) else ()
        if len(pair) != 2 or not all(
            isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_)) for x in pair
        ):
            raise ValueError(
                f"{name} table entry {entry!r} is not a [radius, count] pair of numbers"
            )
        pairs.append((float(pair[0]), float(pair[1])))
    return sorted(pairs)


def profile_from_table(
    packing: list, covering: list, kind: str = "chi2"
) -> EntropyProfile:
    """Profile from tabulated [[eta, N], ...] and [[eps, M], ...] pairs with
    log-linear interpolation; validity is the tabulated range.  An entry
    that is not a pair of two numbers is refused with its table's name."""
    pack = _table_pairs(packing, "packing")
    cover = _table_pairs(covering, "covering")
    if not pack or not cover:
        raise ValueError("packing and covering tables must be nonempty")
    if not all(0 < a < math.inf and 1 <= b < math.inf for a, b in pack + cover):
        raise ValueError(
            "table entries need finite positive radii and finite counts >= 1"
        )
    px = np.log([a for a, _ in pack])
    py = np.log([b for _, b in pack])
    cx = np.log([a for a, _ in cover])
    cy = np.log([b for _, b in cover])

    def pack_fn(eta: float) -> float:
        return float(np.exp(np.interp(math.log(eta), px, py)))

    def cover_fn(eps: float) -> float:
        return float(np.exp(np.interp(math.log(eps), cx, cy)))

    return EntropyProfile(
        packing_lower=pack_fn,
        eta_max=pack[-1][0],
        covering_upper=cover_fn,
        covering_valid=lambda eps: cover[0][0] <= eps <= cover[-1][0],
        kind=kind,
        constants={"model": "table"},
    )


class SupportFunctionSchedule(NamedTuple):
    eta: float
    u: float
    eps: float
    c: float


def support_function_schedule(
    n: int, d: int, c_prime: float, c_dprime: float, gamma: float, sigma: float
) -> SupportFunctionSchedule:
    """The (eta, u, eps) schedule for support-function estimation at sample
    size n: eta(n) = c sigma^(4/(d+3)) gamma^((d-1)/(d+3)) n^(-2/(d+3)) with
    c fixed by c^((d-1)/2) = c'/(2 + 2c''), u(n) = (gamma sqrt(n)/sigma)
    ^((d-1)/(d+3)), and eps(n) from log(1+eps^2) = u^2.  No claim is made
    about the risk value itself; the schedule feeds the chi2 entropy bound.
    A value that leaves the float range or underflows to 0 is refused,
    naming it and the inputs.
    """
    if d < 2:
        raise ValueError("support-function schedule needs d >= 2")
    if min(n, c_prime, c_dprime, gamma, sigma) <= 0:
        raise ValueError("all schedule parameters must be positive")

    def in_range(name: str, compute) -> float:
        try:
            value = compute()
        except OverflowError:
            value = math.inf
        if math.isfinite(value) and value > 0.0:
            return value
        fault = "leaves the float range" if value else "underflows to 0"
        raise ValueError(
            f"support-function schedule at n={n}, d={d}: {name} {fault} "
            f"(c_prime={c_prime!r}, c_dprime={c_dprime!r}, gamma={gamma!r}, sigma={sigma!r})"
        )

    c = in_range(
        "c = (c'/(2 + 2c''))^(2/(d-1))",
        lambda: (c_prime / (2.0 + 2.0 * c_dprime)) ** (2.0 / (d - 1.0)),
    )
    eta = in_range(
        "eta = c sigma^(4/(d+3)) gamma^((d-1)/(d+3)) n^(-2/(d+3))",
        lambda: c
        * sigma ** (4.0 / (d + 3.0))
        * gamma ** ((d - 1.0) / (d + 3.0))
        * n ** (-2.0 / (d + 3.0)),
    )
    u = in_range(
        "u = (gamma sqrt(n)/sigma)^((d-1)/(d+3))",
        lambda: (gamma * math.sqrt(n) / sigma) ** ((d - 1.0) / (d + 3.0)),
    )
    eps = in_range("eps = sqrt(e^(u^2) - 1)", lambda: math.sqrt(math.expm1(u**2)))
    return SupportFunctionSchedule(eta=eta, u=u, eps=eps, c=c)
