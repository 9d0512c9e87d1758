"""The f-informativity of an ensemble: inf_Q (1/N) sum_theta D_f(P_theta||Q).

Closed forms exist for the standard generators (the KL minimizer is the
uniform mixture; chi-squared and the power family minimize at a normalized
power mean of the densities; Hellinger at the squared sum of root densities).
A Frank-Wolfe solver with exact line search and a duality-gap certificate
covers differentiable generators in general, and the total-variation case is
solved exactly by sorting each point's member masses (a fractional knapsack
over the breakpoints).  Covering families give upper bounds that need no
optimization at all.  Every divergence sum is evaluated by
:func:`.divergences.divergence_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import DiscreteDistribution, Ensemble, uniform_mixture
from .divergences import DivergenceGenerator, builtin_generator, divergence_matrix

CLOSED_FORM_GENERATORS = ("kl", "chi2", "hellinger_half", "hellinger_sq", "power:l")
COVERING_KINDS = ("kl", "chi2", "power_l", "hellinger_sq")


@dataclass(frozen=True)
class InformativityResult:
    value: float
    minimizer: Optional[DiscreteDistribution]
    method: str
    duality_gap: float = 0.0

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
        """Candidate densities stacked as an (M, support_size) matrix."""
        return np.stack([c.pmf for c in self.candidates])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def informativity_closed_form(gen_name: str, ens: Ensemble) -> InformativityResult:
    """Exact minimizer and value for kl, chi2, hellinger_half, hellinger_sq
    and power:l generators.

    kl: the minimizer is the uniform mixture and the value is the mean KL
    to it.  power:l (chi2 is l=2): the first-order condition on the simplex
    puts the minimizer proportional to (sum_theta p_theta^l)^(1/l), which is
    interior to the union support, so stationarity of the convex objective
    is global optimality; the value collapses to (S^l - N)/N with
    S = sum_x (sum_theta p_theta(x)^l)^(1/l).  hellinger: Cauchy-Schwarz
    gives the minimizer proportional to (sum_theta sqrt p_theta)^2 and value
    1 - sqrt(sum u^2)/N (halved Hellinger; doubled for the squared form).
    """
    pmat = ens.pmf_matrix()
    n = ens.size
    if gen_name == "kl":
        mix = uniform_mixture(ens)
        value = _objective(builtin_generator("kl"), pmat, mix.pmf)
        return InformativityResult(value, mix, "closed_form")
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


def _gradient(gen: DivergenceGenerator, pmat: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d/dq_x of the average divergence; h(t) = f(t) - t f'(t) per member.

    h is non-increasing in t (h' = -t f''), so an overflowing h at a huge
    density ratio means the coordinate is starving: -inf is its honest value.
    Coordinates with q = 0 get the same treatment through t = +inf.
    """
    n, s = pmat.shape
    grad = np.zeros(s)
    for theta in range(n):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = np.where(q > 0.0, pmat[theta] / np.where(q > 0.0, q, 1.0), np.inf)
            t = np.where((q == 0.0) & (pmat[theta] == 0.0), 0.0, t)
            pos = t > 0.0
            h = np.full(s, gen.f_at_zero)
            h[pos] = gen.f(t[pos]) - t[pos] * gen.derivative(t[pos])
        h[np.isnan(h)] = -math.inf
        grad += h
    return grad / n


def _coordinate_slope(gen: DivergenceGenerator, pcol: np.ndarray, v: float) -> float:
    """The single-coordinate gradient sum_theta h(p_theta/v) (without 1/N)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = pcol / v if v > 0.0 else np.where(pcol > 0.0, np.inf, 0.0)
        pos = t > 0.0
        h = np.full(pcol.shape, gen.f_at_zero)
        h[pos] = gen.f(t[pos]) - t[pos] * gen.derivative(t[pos])
    h[np.isnan(h)] = -math.inf
    return float(h.sum())


def informativity_numeric(
    gen: DivergenceGenerator,
    ens: Ensemble,
    tol: float = 1e-8,
    max_iter: int = 10**5,
) -> InformativityResult:
    """Pairwise Frank-Wolfe minimization of the average divergence over the
    simplex: each step transfers mass from the worst occupied coordinate to
    the best one, with an exact line search (only two density ratios move,
    so the search costs O(N) per probe).

    The reference is restricted to the union support of the members (mass
    elsewhere can only increase every term); generators with an infinite
    f(0+) further restrict it to the common support.  Starts from the
    uniform mixture and stops once the linear-minimization duality gap
    falls below ``tol``.  Total variation has no derivative and is routed
    to the exact sorted-breakpoint solver instead.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
            return InformativityResult(math.inf, None, "pairwise_frank_wolfe")
    else:
        support = np.any(pmat_full > 0.0, axis=0)
    pmat = pmat_full[:, support]
    start = pmat.mean(axis=0)
    q = start / start.sum()
    gap = math.inf
    best_gap = math.inf
    since_progress = 0
    for _ in range(max_iter):
        grad = _gradient(gen, pmat, q)
        target = int(np.argmin(grad))
        occupied = q > 0.0
        value_dot = float(np.where(occupied, grad * q, 0.0).sum())
        gap = value_dot - grad[target]
        if gap <= tol:
            break
        if gap < best_gap * (1.0 - 1e-6):
            best_gap = gap
            since_progress = 0
        else:
            since_progress += 1
            if since_progress > 200:
                # gap plateau: the requested tolerance sits below what the
                # coordinate scales can resolve in floating point
                raise RuntimeError(
                    f"informativity solver stalled at gap {gap} above tol {tol}"
                )
        away_grad = np.where(occupied, grad, -math.inf)
        away = int(np.argmax(away_grad))
        if away == target:
            raise RuntimeError(f"informativity solver stalled at gap {gap}")
        step = _transfer_line_search(gen, pmat, q, target, away)
        if step <= 0.0:
            raise RuntimeError(f"informativity solver stalled at gap {gap}")
        q[target] += step
        q[away] -= step
        if q[away] < 0.0:
            q[away] = 0.0
    else:
        raise RuntimeError(
            f"informativity solver did not reach gap {tol} in {max_iter} iterations"
        )
    full_q = np.zeros(pmat_full.shape[1])
    full_q[support] = q
    minimizer = DiscreteDistribution(full_q / full_q.sum())
    value = _objective(gen, pmat, q)
    return InformativityResult(
        max(value, 0.0), minimizer, "pairwise_frank_wolfe", duality_gap=gap
    )


def _transfer_line_search(
    gen: DivergenceGenerator, pmat: np.ndarray, q: np.ndarray, target: int, away: int
) -> float:
    """Exact step for moving mass away -> target, by bisection on the
    directional derivative (increasing along the segment by convexity)."""
    budget = float(q[away])
    p_target = pmat[:, target]
    p_away = pmat[:, away]

    def dphi(step: float) -> float:
        gain = _coordinate_slope(gen, p_target, q[target] + step)
        loss = _coordinate_slope(gen, p_away, budget - step)
        return gain - loss

    if dphi(0.0) >= 0.0:
        return 0.0
    if dphi(budget) <= 0.0:
        return budget
    lo, hi = 0.0, budget
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dphi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Upper bounds
# ---------------------------------------------------------------------------


def simple_upper_chain(
    gen: DivergenceGenerator, ens: Ensemble
) -> tuple[float, float, float]:
    """Three nested upper bounds on the informativity: the mean divergence
    to the uniform mixture, the mean pairwise divergence (diagonal included),
    and the max pairwise divergence.  +inf entries are legitimate."""
    pmat = ens.pmf_matrix()
    n = ens.size
    to_mixture = _objective(gen, pmat, uniform_mixture(ens).pmf)
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
