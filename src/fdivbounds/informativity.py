"""The f-informativity of an ensemble: inf_Q (1/N) sum_theta D_f(P_theta||Q).

Closed forms exist for the standard generators (the KL minimizer is the
uniform mixture; chi-squared and the power family minimize at a normalized
power mean of the densities; Hellinger at the squared sum of root densities;
reverse KL at the normalized geometric mean).  The objective separates over
points, so differentiable generators in general are solved through their
KKT conditions (one scalar equation per point and safeguarded Newton steps
on the multiplier, certified by the Lagrangian dual), and the total-variation
case is solved exactly by sorting each point's member masses (a fractional
knapsack over the breakpoints).  Covering families give upper bounds that
need no optimization at all.  Every divergence sum is evaluated by
:func:`.divergences.divergence_matrix`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    DiscreteDistribution,
    Ensemble,
    stack_pmfs,
    uniform_mixture,
)
from .divergences import (
    VALUE_TOL,
    DivergenceGenerator,
    apply_generator,
    builtin_generator,
    divergence_matrix,
)

CLOSED_FORM_GENERATORS = (
    "kl", "chi2", "hellinger_half", "hellinger_sq", "reverse_kl", "power:l"
)
COVERING_KINDS = ("kl", "chi2", "power_l", "hellinger_sq")


@dataclass(frozen=True)
class InformativityResult:
    value: float
    minimizer: Optional[DiscreteDistribution]
    method: str
    duality_gap: float = 0.0
    #: outer steps on the multiplier; 0 for closed forms and exact solvers
    iterations: int = 0

    def to_json(self) -> dict:
        return {
            "value": self.value if math.isfinite(self.value) else "inf",
            "minimizer": None if self.minimizer is None else self.minimizer.to_json(),
            "method": self.method,
            "duality_gap": self.duality_gap,
        }


@dataclass(frozen=True, eq=False)
class CoveringFamily:
    """Candidate reference measures Q_alpha plus an optional member->candidate
    assignment; when absent the assignment defaults to the divergence argmin."""

    candidates: tuple[DiscreteDistribution, ...]
    assignment: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        cands = tuple(self.candidates)
        if len(cands) < 1:
            raise ValueError("covering family needs at least one candidate")
        sizes = {c.support_size for c in cands}
        if len(sizes) != 1:
            raise ValueError("candidates have mixed support sizes")
        object.__setattr__(self, "candidates", cands)
        if self.assignment is not None:
            assn = tuple(int(i) for i in self.assignment)
            if any(i < 0 or i >= len(cands) for i in assn):
                raise ValueError("assignment contains an invalid candidate index")
            object.__setattr__(self, "assignment", assn)

    @property
    def size(self) -> int:
        return len(self.candidates)

    def pmf_matrix(self) -> np.ndarray:
        """Candidate densities stacked as an (M, support_size) matrix.
        Cached, read-only."""
        return self._pmf_matrix

    @functools.cached_property
    def _pmf_matrix(self) -> np.ndarray:
        return stack_pmfs(self.candidates)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def informativity_closed_form(gen_name: str, ens: Ensemble) -> InformativityResult:
    """Exact minimizer and value for kl, chi2, hellinger_half, hellinger_sq,
    reverse_kl and power:l generators.

    kl: the minimizer is the uniform mixture and the value is the mean KL
    to it.  power:l (chi2 is l=2): the first-order condition on the simplex
    puts the minimizer proportional to (sum_theta p_theta^l)^(1/l), which is
    interior to the union support, so stationarity of the convex objective
    is global optimality; the value collapses to (S^l - N)/N with
    S = sum_x (sum_theta p_theta(x)^l)^(1/l).  hellinger: Cauchy-Schwarz
    gives the minimizer proportional to (sum_theta sqrt p_theta)^2 and value
    1 - sqrt(sum u^2)/N (halved Hellinger; doubled for the squared form).
    reverse_kl: the objective is (1/N) sum_theta KL(Q||P_theta), minimized
    by the normalized geometric mean g = prod_theta p_theta^(1/N) on the
    common support, with value -log sum_x g(x); +inf when the members share
    no support point.
    """
    pmat = ens.pmf_matrix()
    n = ens.size
    if gen_name == "kl":
        mix, value = _mean_to_mixture(builtin_generator("kl"), ens)
        return InformativityResult(value, mix, "closed_form")
    if gen_name == "reverse_kl":
        common = np.all(pmat > 0.0, axis=0)
        if not np.any(common):
            return InformativityResult(math.inf, None, "closed_form")
        geo = np.zeros(pmat.shape[1])
        geo[common] = np.exp(np.log(pmat[:, common]).mean(axis=0))
        total = float(geo.sum())
        minimizer = DiscreteDistribution(geo / total)
        return InformativityResult(max(-math.log(total), 0.0), minimizer, "closed_form")
    if gen_name == "chi2":
        gen_name = "power:2"
    if gen_name.startswith("power:"):
        l = float(gen_name.split(":", 1)[1])
        if l <= 1.0:
            raise ValueError("power generator needs exponent > 1")
        s_x = (pmat**l).sum(axis=0) ** (1.0 / l)
        total = float(s_x.sum())
        minimizer = DiscreteDistribution(s_x / total)
        value = (total**l - n) / n
        method = "closed_form"
        return InformativityResult(max(value, 0.0), minimizer, method)
    if gen_name in ("hellinger_half", "hellinger_sq"):
        u = np.sqrt(pmat).sum(axis=0)
        mass = float((u**2).sum())
        minimizer = DiscreteDistribution(u**2 / mass)
        value = 1.0 - math.sqrt(mass) / n
        if gen_name == "hellinger_sq":
            value *= 2.0
        return InformativityResult(max(value, 0.0), minimizer, "closed_form")
    raise ValueError(
        f"no closed form for generator {gen_name!r}; "
        f"available: {CLOSED_FORM_GENERATORS}"
    )


def informativity_tv_exact(ens: Ensemble) -> InformativityResult:
    """inf_Q (1/N) sum_theta TV(P_theta, Q), solved exactly by a sort.

    The objective separates over points: sum_x phi_x(q_x) with
    phi_x(v) = (1/(2N)) sum_theta |p_theta(x) - v|, piecewise linear and
    convex.  Between the k-th and (k+1)-th smallest member masses at x
    (the 0-th is 0) phi_x has slope (2k - N)/(2N), so filling the unit
    budget segment by segment in slope order (a fractional knapsack over
    the sorted breakpoints) is optimal.  The slope depends on k alone, so
    that order is k-major.  Every point's largest mass is a breakpoint and
    those sum to at least 1, so the budget runs out before any point
    passes its largest mass.  The value is the objective at the returned
    minimizer, in the plain total-variation form: the minimizer may put no
    mass on a point where some member has mass.
    """
    pmat = ens.pmf_matrix()
    n = ens.size
    lengths = np.diff(np.sort(pmat, axis=0), axis=0, prepend=0.0).ravel()
    filled = np.cumsum(lengths)
    cut = int(np.searchsorted(filled, 1.0))
    take = np.where(np.arange(lengths.size) < cut, lengths, 0.0)
    if cut < lengths.size:  # else rounding left the largest masses short of 1
        take[cut] = 1.0 - (filled[cut - 1] if cut else 0.0)
    q = take.reshape(pmat.shape).sum(axis=0)
    value = float(np.abs(pmat - q).sum()) / (2.0 * n)
    return InformativityResult(value, DiscreteDistribution(q), "sorted_breakpoints")


# ---------------------------------------------------------------------------
# Numeric solver
# ---------------------------------------------------------------------------


def _objective(gen: DivergenceGenerator, pmat: np.ndarray, q: np.ndarray) -> float:
    return float(divergence_matrix(gen, pmat, q[None]).sum()) / pmat.shape[0]


def _mean_to_mixture(
    gen: DivergenceGenerator, ens: Ensemble
) -> tuple[DiscreteDistribution, float]:
    """The uniform mixture m and (1/N) sum_theta D_f(P_theta||m).

    The mixture dominates every member, but averaging can round a
    subnormal mass to 0.  With f(0+) finite, the terms m f(p/m) there have
    p/m <= N, so each is at most m max(|f(0+)|, |f(N)|) with m below the
    smallest float; they are dropped rather than read as q = 0 < p.  With
    f(0+) = +inf, some member has no mass at such a point (a mean of
    positive floats does not round to 0), so its term m f(0+) is +inf, and
    the masses are kept to say so.
    """
    mix = uniform_mixture(ens)
    pmat = ens.pmf_matrix()
    if math.isfinite(gen.f_at_zero):
        pmat = np.where(mix.pmf > 0.0, pmat, 0.0)
    return mix, _objective(gen, pmat, mix.pmf)


def _h(
    gen: DivergenceGenerator, t: np.ndarray, zero: Optional[np.ndarray]
) -> np.ndarray:
    """h(t) = f(t) - t f'(t), the slope of v -> v f(p/v) at t = p/v: the
    generator's closed-form ``h`` when it has one, else derived from f and
    f'.

    h(0) is f(0+), and h is non-increasing in t (h' = -t f'').  ``zero``
    marks the cells where t is 0, or is None when there are none; the
    solver's ratios p/v vanish exactly where p does, so it computes the
    mask once per solve.
    """
    if zero is not None:
        t = np.where(zero, 1.0, t)
    vals = gen.h(t) if gen.h is not None else gen.f(t) - t * gen.derivative(t)
    return vals if zero is None else np.where(zero, gen.f_at_zero, vals)


def informativity_numeric(
    gen: DivergenceGenerator, ens: Ensemble, tol: float = 1e-8
) -> InformativityResult:
    """Minimize the average divergence over the simplex through its KKT
    conditions.

    The objective separates over points, sum_x phi_x(q_x) with
    phi_x(v) = (1/N) sum_theta v f(p_theta(x)/v), and its slope
    phi'_x(v) = mean_theta h(p_theta(x)/v) is non-decreasing in v.  Every
    point with mass at the optimum has phi'_x(q_x) = lambda.  Some point
    holds at least 1/S of the mass and none more than 1, so lambda lies in
    [min_x phi'_x(1/S), min_x phi'_x(1)]; it is found as the root of
    g(lambda) = sum_x v_x(lambda) - 1, which increases with lambda, where
    each point's root v_x(lambda) comes from a vectorized bisection in
    log v over [1e-12 max_theta p_theta(x), 1].  The floor keeps density
    ratios at most 1e12: for a generator with finite f'(inf), h at far
    larger ratios is cancellation noise.  The bisection stops once the
    tangent slack the dual subtracts (below) is at most min(tol/2, 1e-12),
    or after 40 halvings.  The first lambda is sum_x m_x phi'_x(m_x) at
    the uniform mixture m (the bracket's midpoint when that is not
    strictly inside it), the optimality condition evaluated at the KL
    minimizer, so a KL solve takes one step.  Each later step first
    replaces the end of the lambda bracket on its side of the root, then
    takes a Newton step on g, with each dv_x/dlambda estimated from the
    point's final root bracket as the ratio of its v and slope differences
    (0 while that bracket still reaches down to the floor, and where the
    slope at 1 is below lambda, so v_x is clamped at 1); the midpoint is
    taken whenever the Newton point is not strictly inside the bracket.
    ``iterations`` counts these steps.

    The reference is restricted to the union support of the members (mass
    elsewhere can only increase every term); generators with an infinite
    f(0+) further restrict it to the common support, and the value is +inf
    when there is none.  With a single point left, its point mass is the
    only reference, returned with gap 0 and no step.  ``value`` is the
    objective at v / sum(v), and ``duality_gap`` is that primal value
    minus the Lagrangian dual
    lambda + sum_x min_{0 <= v <= 1} [phi_x(v) - lambda v].  Each point's
    minimum is bounded from below by the tangent at the top of its root
    bracket, so the reported gap is never smaller than the true one.  The
    search stops once the gap is at most ``tol``.  Total variation has no
    derivative and is routed to the exact sorted-breakpoint solver.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")
    if gen.name == "tv":
        return informativity_tv_exact(ens)
    if gen.derivative is None:
        raise ValueError(
            f"generator {gen.name!r} has no derivative; the numeric solver "
            "needs one for its optimality certificate"
        )
    pmat_full = ens.pmf_matrix()
    if math.isinf(gen.f_at_zero):
        support = np.all(pmat_full > 0.0, axis=0)
        if not np.any(support):
            return InformativityResult(math.inf, None, "kkt_bisection")
    else:
        support = np.any(pmat_full > 0.0, axis=0)
    pmat = pmat_full[:, support]
    n, s = pmat.shape
    full_q = np.zeros(pmat_full.shape[1])
    if s == 1:  # the only reference left is the point mass: nothing to solve
        full_q[support] = 1.0
        value = _objective(gen, pmat, np.ones(1))
        return InformativityResult(
            max(value, 0.0), DiscreteDistribution(full_q), "kkt_bisection"
        )
    zero = pmat == 0.0
    zero = zero if zero.any() else None

    def slope(v: np.ndarray) -> np.ndarray:
        return _h(gen, pmat / v, zero).sum(axis=0) / n

    log_floor = np.log(np.maximum(1e-12 * pmat.max(axis=0), np.finfo(float).tiny))
    top_slope = slope(np.ones(s))
    lam_lo = float(slope(np.full(s, 1.0 / s)).min())
    lam_hi = float(top_slope.min())
    # every point with mass has phi'_x(q_x) = lambda at the optimum; averaged
    # under the uniform mixture (the KL minimizer) that identity is exact
    # for KL and a first guess otherwise
    mix = pmat.sum(axis=0)
    mix /= mix.sum()
    lam = float(mix @ slope(mix))
    if not lam_lo < lam < lam_hi:
        lam = 0.5 * (lam_lo + lam_hi)
    budget = min(0.5 * tol, VALUE_TOL)
    iterations = 0
    while True:
        iterations += 1
        # each point's root bracket in log v, with v and the slope at both
        # ends; until the bottom end moves off the floor it holds v = 0, so
        # the tangent at the top also covers a root below the floor, and
        # slope -inf, so the point adds no rate to the Newton step
        lo, hi = log_floor, np.zeros(s)
        v_lo, v = np.zeros(s), np.ones(s)
        s_lo, s_hi = np.full(s, -math.inf), top_slope
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            v_mid = np.exp(mid)
            s_mid = slope(v_mid)
            up = s_mid >= lam
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
            v_lo, v = np.where(up, v_lo, v_mid), np.where(up, v_mid, v)
            s_lo, s_hi = np.where(up, s_lo, s_mid), np.where(up, s_mid, s_hi)
            # the dual subtracts this tangent slack at the top of each
            # bracket, which falls with the width squared; halve only
            # while it can still cost the certificate
            excess = np.maximum(s_hi - lam, 0.0) * (v - v_lo)
            if excess.sum() <= budget:
                break
        phi = v * apply_generator(gen, pmat / v).mean(axis=0)
        dual = lam + float((phi - lam * v - excess).sum())
        q = v / v.sum()
        value = _objective(gen, pmat, q)
        gap = value - dual
        if gap < -VALUE_TOL:
            raise RuntimeError(f"informativity solver found a negative gap {gap}")
        if gap <= tol:
            break
        # Newton on g(lambda) = sum_x v_x(lambda) - 1, each dv_x/dlambda
        # read off the point's final root bracket; a point whose slope at 1
        # is below lambda is clamped at 1 and does not move
        g = float(v.sum()) - 1.0
        if g > 0.0:
            lam_hi = lam
        else:
            lam_lo = lam
        rate = np.divide(v - v_lo, s_hi - s_lo, out=np.zeros(s), where=s_hi >= lam)
        dg = float(rate.sum())
        newton = lam - g / dg if dg > 0.0 else lam
        lam = newton if lam_lo < newton < lam_hi else 0.5 * (lam_lo + lam_hi)
        if not lam_lo < lam < lam_hi:
            raise RuntimeError(
                f"informativity solver's multiplier bracket collapsed at gap "
                f"{gap} above tol {tol}"
            )
    full_q[support] = q
    return InformativityResult(
        max(value, 0.0),
        DiscreteDistribution(full_q),
        "kkt_bisection",
        duality_gap=max(gap, 0.0),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Upper bounds
# ---------------------------------------------------------------------------


def simple_upper_chain(
    gen: DivergenceGenerator, ens: Ensemble
) -> tuple[float, float, float]:
    """Three nested upper bounds on the informativity: the mean divergence
    to the uniform mixture, the mean pairwise divergence (diagonal included),
    and the max pairwise divergence.  +inf entries are legitimate; masses
    that averaging rounds to 0 are handled as in :func:`_mean_to_mixture`."""
    pmat = ens.pmf_matrix()
    n = ens.size
    _, to_mixture = _mean_to_mixture(gen, ens)
    pairwise = divergence_matrix(gen, pmat, pmat)
    np.fill_diagonal(pairwise, 0.0)
    pair_avg = float(pairwise.sum()) / (n * n)
    pair_max = float(pairwise.max())
    return to_mixture, pair_avg, pair_max


def covering_approx_error(
    gen: DivergenceGenerator, ens: Ensemble, fam: CoveringFamily
) -> tuple[float, tuple[int, ...]]:
    """max_theta min_alpha D_f(P_theta||Q_alpha) and the argmin assignment."""
    divs = divergence_matrix(gen, ens.pmf_matrix(), fam.pmf_matrix())
    best = np.argmin(divs, axis=1)
    errors = divs[np.arange(ens.size), best]
    return float(errors.max()), tuple(int(j) for j in best)


def covering_upper_bound(
    gen: DivergenceGenerator, ens: Ensemble, fam: CoveringFamily
) -> float:
    """Upper bound on the informativity from a candidate family:

        (1/N) sum_theta  sum_x (q_j/M) f(M p_theta / q_j)  +  (1 - 1/M) f(0+),

    with j = j(theta) from the family's assignment (argmin by default).
    A point with p_theta > 0 but q_j = 0 makes the bound +inf.
    """
    if fam.candidates[0].support_size != ens.support_size:
        raise ValueError("candidate support size does not match the ensemble")
    if fam.assignment is not None:
        assignment = fam.assignment
        if len(assignment) != ens.size:
            raise ValueError("assignment length does not match the ensemble size")
    else:
        _, assignment = covering_approx_error(gen, ens, fam)
    m = fam.size
    n = ens.size
    divs = divergence_matrix(gen, ens.pmf_matrix(), fam.pmf_matrix() / m)
    total = float(divs[np.arange(n), list(assignment)].sum())
    tail = (1.0 - 1.0 / m) * gen.f_at_zero
    if math.isinf(tail):
        return math.inf if m > 1 else total / n
    return total / n + tail


def covering_specialization(kind: str, m: int, approx_error: float, l: float = 2.0) -> float:
    """Closed-form covering bounds in terms of the candidate count M and the
    max-min approximation error:

        kl            log M + err
        chi2          M (err + 1) - 1
        power_l       M^(l-1) (err + 1) - 1
        hellinger_sq  2 - (2 - err)/sqrt(M)
    """
    if m < 1:
        raise ValueError("candidate count must be at least 1")
    if approx_error < 0:
        raise ValueError("approximation error must be nonnegative")
    if kind == "kl":
        return math.log(m) + approx_error
    if kind == "chi2":
        return m * (approx_error + 1.0) - 1.0
    if kind == "power_l":
        if l <= 1.0:
            raise ValueError("power_l needs l > 1")
        return m ** (l - 1.0) * (approx_error + 1.0) - 1.0
    if kind == "hellinger_sq":
        return 2.0 - (2.0 - approx_error) / math.sqrt(m)
    raise ValueError(f"unknown covering kind {kind!r}; choose from {COVERING_KINDS}")


def covering_family_from_json(obj: dict) -> CoveringFamily:
    from .distributions import distribution_from_json

    if isinstance(obj, dict) and "candidates" in obj:
        cands = tuple(distribution_from_json(c) for c in obj["candidates"])
        assn = tuple(obj["assignment"]) if "assignment" in obj else None
        return CoveringFamily(candidates=cands, assignment=assn)
    if isinstance(obj, list):
        return CoveringFamily(
            candidates=tuple(distribution_from_json(c) for c in obj)
        )
    raise ValueError(
        'covering JSON must be a {"candidates": [...]} object or a list'
    )
