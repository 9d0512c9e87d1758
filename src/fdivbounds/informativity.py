"""The f-informativity of an ensemble: inf_Q (1/N) sum_theta D_f(P_theta||Q).

Closed forms exist for the standard generators (the KL minimizer is the
uniform mixture; chi-squared and the power family minimize at a normalized
power mean of the densities; Hellinger at the squared sum of root densities;
reverse KL at the normalized geometric mean).  The objective separates over
points, so differentiable generators in general are solved through their
KKT conditions (one scalar equation per point, its root bracketed by a
k-ary search from [floor, 1] at each multiplier step, and safeguarded
Newton steps on the multiplier, certified by the Lagrangian dual), a stack
of ensembles at once in the array operations of one solve, and the
total-variation case is solved exactly by sorting each point's member
masses (a fractional knapsack over the breakpoints).  Covering families
give upper bounds that need no optimization at all; they and the simple
upper chain come in array forms over stacks of ensembles, as the closed
forms and the KKT solve do.  Every divergence sum is evaluated by
:func:`.divergences.divergence_matrix`.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    DiscreteDistribution,
    Ensemble,
    check_json_lists,
    check_tol,
    distribution_from_json,
    stack_pmfs,
)
from .divergences import (
    VALUE_TOL,
    DivergenceGenerator,
    apply_generator,
    builtin_generator,
    divergence_matrix,
    power_exponent,
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
    #: root-bracket rounds over all steps, one evaluation of h each; kept
    #: out of ``to_json``
    rounds: int = 0

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
            assn = tuple(self.assignment)
            for i in assn:
                if isinstance(i, (bool, np.bool_)) or not isinstance(i, numbers.Integral):
                    raise ValueError(f"assignment entry {i!r} is not an integer candidate index")
            if any(i < 0 or i >= len(cands) for i in assn):
                raise ValueError("assignment contains an invalid candidate index")
            object.__setattr__(self, "assignment", tuple(int(i) for i in assn))

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
    reverse_kl and power:l generators: :func:`closed_forms` on the one
    ensemble, with no minimizer where the value is +inf.

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
    q, values = closed_forms(gen_name, ens.pmf_matrix())
    value = float(values)
    minimizer = None if math.isinf(value) else DiscreteDistribution(q)
    return InformativityResult(value, minimizer, "closed_form")


def closed_forms(gen_name: str, pmats) -> tuple[np.ndarray, np.ndarray]:
    """The closed forms of :func:`informativity_closed_form` for every
    ensemble in ``pmats`` (..., N, S): the minimizers (..., S), unchecked
    (NaN rows where a reverse-KL value is +inf), and the values (...).
    Each ensemble gets the bits it gets alone: the reverse-KL log means
    are taken over a contiguous member axis, and each log of a total is
    the C library's (``math.log``)."""
    n = pmats.shape[-2]
    if gen_name == "kl":
        return _mixture_divergence(builtin_generator("kl"), pmats)
    if gen_name == "chi2" or gen_name.startswith("power:"):
        l = 2.0 if gen_name == "chi2" else power_exponent(gen_name)
        s_x = (pmats**l).sum(axis=-2) ** (1.0 / l)
        total = s_x.sum(axis=-1)
        # float_power is the C library's pow, as Python's ** on floats;
        # a large l may overflow it to +inf, the value's documented bound
        with np.errstate(over="ignore"):
            value = (np.float_power(total, l) - n) / n
        return s_x / total[..., None], np.maximum(value, 0.0)
    if gen_name in ("hellinger_half", "hellinger_sq"):
        u2 = np.sqrt(pmats).sum(axis=-2) ** 2
        mass = u2.sum(axis=-1)
        value = np.maximum(1.0 - np.sqrt(mass) / n, 0.0)
        return u2 / mass[..., None], 2.0 * value if gen_name == "hellinger_sq" else value
    if gen_name == "reverse_kl":
        common = (pmats > 0.0).all(axis=-2)
        members = np.where(common[..., None, :], pmats, 1.0).swapaxes(-1, -2).copy()
        geo = np.where(common, np.exp(np.log(members).mean(axis=-1)), 0.0)
        totals = geo.sum(axis=-1)
        values = [max(-math.log(t), 0.0) if t > 0.0 else math.inf for t in totals.ravel().tolist()]
        with np.errstate(invalid="ignore"):  # 0/0 where no point is common
            return geo / totals[..., None], np.reshape(values, totals.shape)
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
    q, value = tv_breakpoints(ens.pmf_matrix())
    return InformativityResult(float(value), DiscreteDistribution(q), "sorted_breakpoints")


def tv_breakpoints(pmats) -> tuple[np.ndarray, np.ndarray]:
    """The sorted-breakpoint solution of :func:`informativity_tv_exact`
    for every ensemble in ``pmats`` (..., N, S): minimizers (..., S),
    unchecked, and values (...)."""
    n = pmats.shape[-2]
    # segment k runs from the k-th to the (k+1)-th smallest mass (the 0-th is 0)
    ends = np.sort(pmats, axis=-2)
    lengths = ends.copy()
    lengths[..., 1:, :] -= ends[..., :-1, :]
    lengths = lengths.reshape(lengths.shape[:-2] + (-1,))  # k-major
    filled = np.cumsum(lengths, axis=-1)
    # the first segment whose cumulative length reaches 1, as a sorted search
    cells = np.arange(lengths.shape[-1])
    cut = (filled < 1.0).sum(axis=-1, keepdims=True)
    before = cells < cut
    take = np.where(before, lengths, 0.0)
    # it takes what is left of the budget, 1 minus the last (so largest)
    # cumulative length before it; with no such segment rounding left the
    # largest masses short of 1, and nothing is added
    left = 1.0 - np.where(before, filled, 0.0).max(axis=-1, keepdims=True)
    np.copyto(take, left, where=cells == cut)
    q = take.reshape(pmats.shape).sum(axis=-2)
    gaps = np.abs(pmats - q[..., None, :])
    return q, gaps.reshape(gaps.shape[:-2] + (-1,)).sum(axis=-1) / (2.0 * n)


# ---------------------------------------------------------------------------
# Numeric solver
# ---------------------------------------------------------------------------


def _mixture_divergence(gen: DivergenceGenerator, pmats) -> tuple[np.ndarray, np.ndarray]:
    """The uniform mixtures m (..., S) of stacked members (..., N, S),
    unchecked, and (1/N) sum_theta D_f(P_theta||m) (...).

    The mixture dominates every member, but averaging can round a
    subnormal mass to 0.  With f(0+) finite, the terms m f(p/m) there have
    p/m <= N, so each is at most m max(|f(0+)|, |f(N)|) with m below the
    smallest float; they are dropped rather than read as q = 0 < p.  With
    f(0+) = +inf, some member has no mass at such a point (a mean of
    positive floats does not round to 0), so its term m f(0+) is +inf, and
    the masses are kept to say so.
    """
    n = pmats.shape[-2]
    mix = pmats.sum(axis=-2) / n  # np.mean's sum and division, without its overhead
    if math.isfinite(gen.f_at_zero) and mix.min() == 0.0:
        pmats = np.where(mix[..., None, :] > 0.0, pmats, 0.0)
    divs = divergence_matrix(gen, pmats, mix[..., None, :])
    return mix, divs.sum(axis=(-2, -1)) / n


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


#: cells of h one bracket round may evaluate: N * S * (K - 1)
_CELL_BUDGET = 1024


def _bracket_arity(cells: int) -> tuple[int, int]:
    """The bracket split K for brackets over ``cells`` = N S cells, the
    largest power of two in [2, 1024] with cells (K - 1) <= _CELL_BUDGET
    (2 when there is none), and the round cap ceil(40 / log2 K), the reach
    of 40 halvings."""
    bits = max(1, min(10, (_CELL_BUDGET // cells + 1).bit_length() - 1))
    return 1 << bits, -(-40 // bits)


def informativity_numeric(
    gen: DivergenceGenerator, ens: Ensemble, tol: float = 1e-8
) -> InformativityResult:
    """Minimize the average divergence over the simplex through its KKT
    conditions: :func:`kkt_solutions` on the one ensemble, which documents
    the method and the certificate.  ``value`` is +inf, with no minimizer,
    when an infinite f(0+) leaves the members no common support point.
    Total variation has no derivative and is routed to the exact
    sorted-breakpoint solver."""
    if gen.name == "tv":
        check_tol(tol)
        return informativity_tv_exact(ens)
    q, values, gaps, iterations, rounds = kkt_solutions(gen, ens.pmf_matrix()[None], tol)
    value = float(values[0])
    return InformativityResult(
        value,
        None if math.isinf(value) else DiscreteDistribution(q[0]),
        "kkt_bisection",
        duality_gap=float(gaps[0]),
        iterations=int(iterations[0]),
        rounds=int(rounds[0]),
    )


def kkt_solutions(
    gen: DivergenceGenerator, pmats, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the average divergence of every ensemble in ``pmats``
    (B, N, S) over the simplex through its KKT conditions: the minimizers
    (B, S), unchecked, the values, the duality gaps, the multiplier steps
    (``iterations``) and the bracket rounds, each (B,).  Each ensemble gets
    the bits, steps and rounds it gets alone: the ensembles of one support
    pattern share every array operation, each with its own multiplier,
    brackets and stopping masks, and every sum over members or points is
    added in the order of a one-ensemble solve.

    The objective separates over points, sum_x phi_x(q_x) with
    phi_x(v) = (1/N) sum_theta v f(p_theta(x)/v), and its slope
    phi'_x(v) = mean_theta h(p_theta(x)/v) is non-decreasing in v.  Every
    point with mass at the optimum has phi'_x(q_x) = lambda.  Some point
    holds at least 1/S of the mass and none more than 1, so lambda lies in
    [min_x phi'_x(1/S), min_x phi'_x(1)]; it is found as the root of
    g(lambda) = sum_x v_x(lambda) - 1, which increases with lambda, where
    each point's root v_x(lambda) is bracketed in log v within
    [1e-12 max_theta p_theta(x), 1].  The floor keeps density ratios at
    most 1e12: for a generator with finite f'(inf), h at far larger ratios
    is cancellation noise.  The brackets shrink by a k-ary search: each
    round splits every point's bracket into K equal parts in log v and
    evaluates h at all K - 1 interior candidates of all points of all
    ensembles still narrowing in one call.  K is the power of two in
    [2, 1024] that keeps N S (K - 1) within about 1,024 cells per
    ensemble, so large ensembles fall back to plain halving.  The new
    bracket is the first candidate whose slope reaches lambda and the one
    before it, not a count of the candidates below lambda, so
    s(lo) < lambda <= s(hi) holds by construction even where h is noise.
    An ensemble stops narrowing once the tangent slack the dual subtracts
    (below) is at most min(tol/2, 1e-12), or after ceil(40 / log2 K)
    rounds, the reach of 40 halvings.  The first lambda is
    sum_x m_x phi'_x(m_x) at the uniform mixture m (the bracket's midpoint
    when that is not strictly inside it), the optimality condition
    evaluated at the KL minimizer, so a KL solve takes one step.  Each
    later step first replaces the end of the lambda bracket on its side of
    the root, then takes a Newton step on g, with each dv_x/dlambda
    estimated from the point's final root bracket as the ratio of its v
    and slope differences (0 while that bracket still reaches down to the
    floor, and where the slope at 1 is below lambda, so v_x is clamped at
    1); the midpoint is taken whenever the Newton point is not strictly
    inside the bracket.  Every step searches each point's root from the
    full bracket [floor, 1].

    The reference is restricted to the union support of the members (mass
    elsewhere can only increase every term); generators with an infinite
    f(0+) further restrict it to the common support, and the value is +inf,
    with an all-zero minimizer, when there is none.  With a single point
    left, its point mass is the only reference, returned with gap 0 and no
    step.  Each value is the objective at v / sum(v), clamped at 0, and
    each gap is that primal value minus the Lagrangian dual
    lambda + sum_x min_{0 <= v <= 1} [phi_x(v) - lambda v], clamped at 0.
    Each point's minimum is bounded from below by the tangent at the top
    of its root bracket, so the reported gap is never smaller than the
    true one.  An ensemble's search stops once its gap is at most ``tol``.
    """
    check_tol(tol)
    if gen.derivative is None:
        raise ValueError(
            f"generator {gen.name!r} has no derivative; the numeric solver "
            "needs one for its optimality certificate"
        )
    pmats = np.asarray(pmats, dtype=float)
    b, _, width = pmats.shape
    positive = pmats > 0.0
    if math.isinf(gen.f_at_zero):
        support = positive.all(axis=1)
    else:
        support = positive.any(axis=1)
    if support.all():  # no point to drop: the stack is one group as it is
        return _kkt_group(gen, pmats, tol)
    qs = np.zeros((b, width))
    outs = (np.empty(b), np.empty(b), np.empty(b, dtype=int), np.empty(b, dtype=int))
    patterns, pattern_of = np.unique(support, axis=0, return_inverse=True)
    for i, points in enumerate(patterns):
        rows = np.flatnonzero(pattern_of == i)
        q, *results = _kkt_group(gen, pmats[rows][..., points], tol)
        qs[np.ix_(rows, points)] = q
        for out, res in zip(outs, results):
            out[rows] = res
    return (qs,) + outs


def _objectives(gen: DivergenceGenerator, pmats: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """(1/N) sum_theta D_f(P_theta||Q) for stacked members (B, N, S) and
    one reference Q (B, S) each."""
    divs = divergence_matrix(gen, pmats, qs[:, None, :])[..., 0]
    return divs.sum(axis=-1) / pmats.shape[1]


def _bracket_views(bracket: np.ndarray, k: int) -> tuple:
    """Views into the root brackets (3, k + 1, B, S) of :func:`_kkt_group`,
    so every write to the bracket moves them: the ends (rows 0 and k), the
    k - 1 candidates between, the bracket flat per plane, and, for k > 2,
    the flat offsets of each point's cells in rows 0 and 1 of a plane."""
    ends = bracket[:, ::k]
    size = ends[0, 0].size
    cells = None
    if k > 2:
        cells = np.arange(size).reshape(ends.shape[2:]) + np.array([[[0]], [[size]]])
    return ends, bracket[:, 1:k], bracket.reshape(3, -1), cells, size


def _member_layout(pmats: np.ndarray) -> tuple:
    """The members of a stack (B, N, S) laid out outermost, (N, 1, B, S),
    so each sum over them is a run of vector adds in member order, and the
    mask of their zero masses (None when there is none)."""
    members = np.ascontiguousarray(pmats.transpose(1, 0, 2))[:, None]
    zero = members == 0.0
    return members, zero if zero.any() else None


def _kkt_group(gen: DivergenceGenerator, pmats: np.ndarray, tol: float) -> tuple:
    """:func:`kkt_solutions` on a stack (B, N, S) of one support pattern,
    compressed to its S support points."""
    b, n, s = pmats.shape
    if s <= 1:
        none = np.zeros(b, dtype=int)
        if s == 0:  # no common support point under an infinite f(0+)
            return np.zeros((b, 0)), np.full(b, math.inf), np.zeros(b), none, none
        # the only reference left is the point mass: nothing to solve
        q = np.ones((b, 1))
        return q, np.maximum(_objectives(gen, pmats, q), 0.0), np.zeros(b), none, none
    members, zero = _member_layout(pmats)

    def slope(v: np.ndarray, out=None) -> np.ndarray:
        """phi'_x at the masses v, an (m, B, S) array."""
        return np.divide(_h(gen, members / v, zero).sum(axis=0), n, out=out)

    log_floor = np.log(np.maximum(1e-12 * pmats.max(axis=1), np.finfo(float).tiny))
    mix = members.sum(axis=0).reshape(b, s)
    mix /= mix.sum(axis=-1, keepdims=True)
    probe = np.empty((3, b, s))
    probe[0], probe[1], probe[2] = 1.0, 1.0 / s, mix
    top_slope, uniform_slope, mix_slope = slope(probe)
    lam_lo = uniform_slope.min(axis=-1)
    lam_hi = top_slope.min(axis=-1)
    # every point with mass has phi'_x(q_x) = lambda at the optimum; averaged
    # under the uniform mixture (the KL minimizer) that identity is exact
    # for KL and a first guess otherwise.  Each row's dot product has the
    # bits of a one-row BLAS dot
    lam = np.vecdot(mix, mix_slope)
    lam = np.where((lam_lo < lam) & (lam < lam_hi), lam, 0.5 * (lam_lo + lam_hi))
    budget = min(0.5 * tol, VALUE_TOL)
    k, max_rounds = _bracket_arity(n * s)
    frac = (np.arange(1, k) / k)[:, None, None]
    # each point's root bracket: log v, v and the slope (planes 0-2) at its
    # bottom end (row 0), its top end (row k) and the k - 1 candidates
    # between, set to the fresh ends at each multiplier step.  A fresh
    # bottom end is the floor held as v = 0, so the tangent at the top also
    # covers a root below the floor, with slope -inf, so the point adds no
    # rate to the Newton step; a fresh top end is v = 1
    fresh = np.empty((3, 2, b, s))
    fresh[0, 0], fresh[0, 1] = log_floor, 0.0
    fresh[1, 0], fresh[1, 1] = 0.0, 1.0
    fresh[2, 0], fresh[2, 1] = -math.inf, top_slope
    bracket = np.empty((3, k + 1, b, s))
    ends, (logv_mid, v_mid, s_mid), flat, cells, size = _bracket_views(bracket, k)
    (lo, hi), (v_lo, v), (s_lo, s_hi) = ends
    reached = np.ones((k, b, s), dtype=bool)
    below = reached[:-1]
    q_out, value_out, gap_out = np.empty((b, s)), np.empty(b), np.empty(b)
    iterations, rounds_out = np.empty(b, dtype=int), np.empty(b, dtype=int)
    # the ensembles still solving, and their rounds so far
    live, rounds = np.arange(b), np.zeros(b, dtype=int)
    iteration = 0
    while True:
        iteration += 1
        ends[...] = fresh
        live_count = len(live)
        # one ensemble's multiplier as a float, cheaper to broadcast than a column
        lam_col = float(lam[0]) if live_count == 1 else lam[:, None]
        # the dual subtracts this tangent slack at the top of each bracket,
        # which falls with the width squared; narrow only while it can
        # still cost the certificate
        full_rounds = 0
        for step in range(max_rounds + 1):
            slack = np.vecdot(np.maximum(s_hi - lam_col, 0.0), v - v_lo)
            if live_count == 1:  # a float test costs less than an array one
                fitting = int(float(slack[0]) <= budget)
            else:
                fits = slack <= budget
                fitting = np.count_nonzero(fits)
            if step == max_rounds or fitting == live_count:
                break
            np.multiply(frac, hi - lo, out=logv_mid)
            logv_mid += lo
            np.exp(logv_mid, out=v_mid)
            slope(v_mid, out=s_mid)
            # the first candidate whose slope reaches lambda and the one
            # before it: s_lo < lambda <= s_hi holds by construction, even
            # where h is cancellation noise; with none, the top end stays
            np.greater_equal(s_mid, lam_col, out=below)
            if k == 2:  # one candidate: rows 0-1 where it reaches lambda, else 1-2
                moved = np.where(below[0], bracket[:, :2], bracket[:, 1:])
            else:
                moved = flat.take(cells + size * reached.argmax(axis=0), axis=1)
            if fitting:  # an ensemble that fits keeps its brackets
                np.copyto(ends, moved, where=~fits[:, None])
                rounds += ~fits
            else:
                ends[...] = moved
                full_rounds += 1
        rounds += full_rounds
        phi = v * (apply_generator(gen, members[:, 0] / v).sum(axis=0) / n)
        dual = lam + (phi - lam_col * v).sum(axis=-1) - slack
        total = v.sum(axis=-1)
        q = v / total[:, None]
        value = _objectives(gen, pmats, q)
        gap = value - dual
        negative = gap < -VALUE_TOL
        if np.count_nonzero(negative):
            raise RuntimeError(
                f"informativity solver found a negative gap {gap[negative][0]}"
            )
        done = gap <= tol
        finished = np.count_nonzero(done)
        if finished:
            at = live[done]
            q_out[at], value_out[at], gap_out[at] = q[done], value[done], gap[done]
            iterations[at], rounds_out[at] = iteration, rounds[done]
            if finished == live_count:
                break
            # the ensembles still solving leave the finished ones behind
            keep = ~done
            live, rounds, pmats = live[keep], rounds[keep], pmats[keep]
            members, zero = _member_layout(pmats)
            lam, lam_lo, lam_hi = lam[keep], lam_lo[keep], lam_hi[keep]
            lam_col = lam[:, None]
            total, gap = total[keep], gap[keep]
            bracket = bracket.compress(keep, axis=2)
            fresh = fresh.compress(keep, axis=2)
            reached = reached.compress(keep, axis=1)
            below = reached[:-1]
            ends, (logv_mid, v_mid, s_mid), flat, cells, size = _bracket_views(bracket, k)
            (lo, hi), (v_lo, v), (s_lo, s_hi) = ends
        # Newton on g(lambda) = sum_x v_x(lambda) - 1, each dv_x/dlambda
        # read off the point's final root bracket; a point whose slope at 1
        # is below lambda is clamped at 1 and does not move
        g = total - 1.0
        above = g > 0.0
        lam_lo, lam_hi = np.where(above, lam_lo, lam), np.where(above, lam, lam_hi)
        rate = np.divide(
            v - v_lo, s_hi - s_lo, out=np.zeros(v.shape), where=s_hi >= lam_col
        )
        dg = rate.sum(axis=-1)
        newton = lam - np.divide(g, dg, out=np.zeros(dg.shape), where=dg > 0.0)
        inside = (lam_lo < newton) & (newton < lam_hi)
        if np.count_nonzero(inside) == len(lam):
            lam = newton
        else:
            lam = np.where(inside, newton, 0.5 * (lam_lo + lam_hi))
            collapsed = ~((lam_lo < lam) & (lam < lam_hi))
            if np.count_nonzero(collapsed):
                raise RuntimeError(
                    f"informativity solver's multiplier bracket collapsed at gap "
                    f"{gap[collapsed][0]} above tol {tol}"
                )
    return q_out, np.maximum(value_out, 0.0), np.maximum(gap_out, 0.0), iterations, rounds_out


# ---------------------------------------------------------------------------
# Upper bounds
# ---------------------------------------------------------------------------


def simple_upper_chain(
    gen: DivergenceGenerator, ens: Ensemble
) -> tuple[float, float, float]:
    """Three nested upper bounds on the informativity: the mean divergence
    to the uniform mixture, the mean pairwise divergence (diagonal included),
    and the max pairwise divergence.  +inf entries are legitimate.
    :func:`simple_upper_chains` on the one ensemble."""
    chains = simple_upper_chains(gen, ens.pmf_matrix()[None])
    return tuple(float(chain[0]) for chain in chains)


def simple_upper_chains(
    gen: DivergenceGenerator, pmats
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three bounds of :func:`simple_upper_chain` for every ensemble in
    ``pmats`` (B, N, S), each (B,), and each ensemble with the bits of its
    one-ensemble call: the mean divergence to the uniform mixture, the
    N x N pairwise divergences with the diagonal set to 0, summed and
    divided by N^2, and their max.  One kernel call takes each member
    against the members and the mixture; where the mixture rounded a mass
    to 0, the mean divergence to it is :func:`_mixture_divergence`'s,
    which drops that point."""
    b, n, _ = pmats.shape
    mix = pmats.sum(axis=-2) / n
    divs = divergence_matrix(gen, pmats, np.concatenate([pmats, mix[:, None]], axis=1))
    if math.isfinite(gen.f_at_zero) and mix.min() == 0.0:
        to_mixture = _mixture_divergence(gen, pmats)[1]
    else:
        to_mixture = divs[..., n].sum(axis=-1) / n
    pairwise = divs[..., :n].reshape(b, n * n)
    pairwise[:, :: n + 1] = 0.0  # the diagonal
    return to_mixture, pairwise.sum(axis=-1) / (n * n), pairwise.max(axis=-1)


def covering_upper_bound(
    gen: DivergenceGenerator, ens: Ensemble, fam: CoveringFamily
) -> float:
    """Upper bound on the informativity from a candidate family:

        (1/N) sum_theta  sum_x (q_j/M) f(M p_theta / q_j)  +  (1 - 1/M) f(0+),

    with j = j(theta) from the family's assignment (argmin by default):
    :func:`covering_bounds` on the one ensemble and family, which states
    the conventions.
    """
    assignments = None if fam.assignment is None else np.array([fam.assignment])
    pmats, qmats = ens.pmf_matrix()[None], fam.pmf_matrix()[None]
    return float(covering_bounds(gen, pmats, qmats, assignments=assignments)[2][0])


def covering_errors(
    gen: DivergenceGenerator, pmats, qmats, counts=None
) -> tuple[np.ndarray, np.ndarray]:
    """For every ensemble in ``pmats`` (B, N, S) and its candidates
    ``qmats`` (B, M, S): the max-min error
    max_theta min_alpha D_f(P_theta||Q_alpha) (B,) and the argmin
    assignment (B, N), the first candidate on ties.  Each ensemble gets the
    bits of its one-ensemble call.

    ``counts`` (B,), when given, holds each ensemble's candidate count
    M_b in [1, M]: its candidates are the first M_b rows of its stack, and
    the rows after them are padding, which neither the minimum nor the
    assignment reads.  Padding lets families of different sizes share one
    stack."""
    if qmats.shape[-1] != pmats.shape[-1]:
        raise ValueError("candidate support size does not match the ensemble")
    divs = divergence_matrix(gen, pmats, qmats)
    if counts is not None:
        padding = np.arange(divs.shape[-1]) >= np.asarray(counts)[:, None, None]
        np.copyto(divs, math.inf, where=padding)
    best = divs.argmin(axis=-1)
    rows = divs.reshape(-1, divs.shape[-1])
    nearest = rows[np.arange(len(rows)), best.ravel()].reshape(best.shape)
    return nearest.max(axis=-1), best


def covering_bounds(
    gen: DivergenceGenerator, pmats, qmats, counts=None, assignments=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`covering_errors` (the max-min errors (B,) and the argmin
    assignments (B, N), with ``counts`` as there) and the generic covering
    bounds (B,) of every ensemble in ``pmats`` (B, N, S), each with the
    bits of its one-ensemble call:

        (1/N) sum_theta D_f(P_theta || Q_j(theta) / M) + (1 - 1/M) f(0+),

    j(theta) from ``assignments`` (B, N), candidate indices below each
    count, or the argmin when None; the assignments returned are the
    argmin either way.  A point with p_theta > 0 but q_j = 0 makes the
    bound +inf, and so does an infinite f(0+) with M > 1; with M = 1 the
    f(0+) term is 0.  The assigned divergences come from one paired
    kernel call, each member against its candidate.
    """
    errors, best = covering_errors(gen, pmats, qmats, counts)
    b, n, _ = pmats.shape
    # every ensemble's M, as one count or a column of counts
    m = np.asarray(qmats.shape[1] if counts is None else counts)
    if assignments is None:
        assignments = best
    elif np.shape(assignments) != (b, n):
        raise ValueError("assignment length does not match the ensemble size")
    elif not ((0 <= assignments) & (assignments < m[..., None])).all():
        raise ValueError("assignment contains an invalid candidate index")
    chosen = qmats[np.arange(b)[:, None], assignments] / m[..., None, None]
    assigned = divergence_matrix(gen, pmats[:, :, None], chosen[:, :, None])
    mean = assigned[..., 0, 0].sum(axis=-1) / n
    if math.isinf(gen.f_at_zero):
        return errors, best, np.where(m > 1, math.inf, mean)
    return errors, best, mean + (1.0 - 1.0 / m) * gen.f_at_zero


def covering_specialization(kind: str, m: int, approx_error: float, l: float = 2.0) -> float:
    """Closed-form covering bounds in terms of the candidate count M and the
    max-min approximation error:

        kl            log M + err
        chi2          M (err + 1) - 1
        power_l       M^(l-1) (err + 1) - 1
        hellinger_sq  2 - (2 - err)/sqrt(M)

    :func:`covering_specializations` at one (M, err).
    """
    return float(covering_specializations(kind, np.array([m]), np.array([approx_error]), l)[0])


def covering_specializations(kind: str, counts, errors, l: float = 2.0) -> np.ndarray:
    """The bounds of :func:`covering_specialization` for every candidate
    count in ``counts`` and its max-min error in ``errors`` (...), each
    with the bits of its own scalar evaluation: log M is the C library's
    (``math.log``), where numpy's vector log need not match it bit for bit,
    and M^(l-1) is the C library's ``pow``, as Python's ``**`` on floats;
    a power past the float range is +inf."""
    counts = np.asarray(counts)
    errors = np.asarray(errors, dtype=float)
    if counts.min() < 1:
        raise ValueError("candidate count must be at least 1")
    if errors.min() < 0:
        raise ValueError("approximation error must be nonnegative")
    if kind == "kl":
        logs = [math.log(m) for m in counts.ravel().tolist()]
        return np.reshape(logs, counts.shape) + errors
    if kind == "chi2":
        return counts * (errors + 1.0) - 1.0
    if kind == "power_l":
        if not 1.0 < l < math.inf:
            raise ValueError(f"power_l needs a finite l > 1, got {l}")
        with np.errstate(over="ignore"):
            return np.float_power(counts, l - 1.0) * (errors + 1.0) - 1.0
    if kind == "hellinger_sq":
        return 2.0 - (2.0 - errors) / np.sqrt(counts)
    raise ValueError(f"unknown covering kind {kind!r}; choose from {COVERING_KINDS}")


def covering_family_from_json(obj: dict) -> CoveringFamily:
    """A family from a {"candidates": [...], "assignment": [...]} object,
    the assignment optional, or from a bare list of candidates."""
    obj = {"candidates": obj} if isinstance(obj, list) else obj
    if not isinstance(obj, dict) or "candidates" not in obj:
        raise ValueError('covering JSON must be a {"candidates": [...]} object or a list')
    check_json_lists(obj, "covering", ("candidates", "assignment"))
    cands = tuple(distribution_from_json(c) for c in obj["candidates"])
    assn = tuple(obj["assignment"]) if "assignment" in obj else None
    return CoveringFamily(candidates=cands, assignment=assn)
