"""Exact testing risks on finite ensembles.

The Bayes testing risk has the closed form 1 - sum_x max_theta w_theta
p_theta(x), attained by the maximum-a-posteriori test.  The minimax testing
risk is reported through its prior dual: the maximum of the Bayes risk over
priors.  For one member it is 0; for two it is found exactly by sorting
the breakpoints of the Bayes risk in the prior; for more, it is a linear
program.  The Bayes risk at the maximizing prior is a certified lower bound
on the minimax risk, and the worst-case error of a randomized test (the one
that equalizes the two errors, or the one in the LP's duals) a certified
upper bound; their gap is reported, and bounded by the caller's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .distributions import Ensemble, check_mass_rows, check_tol


def bayes_risk_exact(ens: Ensemble) -> float:
    """1 - sum_x max_theta w_theta p_theta(x) under the ensemble prior."""
    return float(bayes_risks(ens.weights(), ens.pmf_matrix()))


def bayes_risks(w, pmats) -> np.ndarray:
    """:func:`bayes_risk_exact` for priors w (..., N) and members
    (..., N, S), which broadcast; each gets the bits of its own call."""
    scored = w[..., :, None] * pmats
    return 1.0 - scored.max(axis=-2).sum(axis=-1)


def map_test(ens: Ensemble) -> np.ndarray:
    """Per sample point, the member index maximizing w_theta p_theta(x).

    Ties break to the lowest index, so the assignment is deterministic.
    """
    return map_tests(ens.weights(), ens.pmf_matrix())


def map_tests(w, pmats) -> np.ndarray:
    """:func:`map_test` for priors w (..., N) and members (..., N, S)."""
    return (w[..., :, None] * pmats).argmax(axis=-2)


def error_probability(ens: Ensemble, choice: np.ndarray) -> float:
    """Average error sum_theta w_theta P_theta{T != theta} of a test."""
    choice = np.asarray(choice)
    if choice.shape != (ens.support_size,):
        raise ValueError("test assignment length must match the support size")
    if choice.min() < 0 or choice.max() >= ens.size:
        raise ValueError("test assignment contains an invalid member index")
    return float(error_probabilities(ens.weights(), ens.pmf_matrix(), choice))


def error_probabilities(w, pmats, choice) -> np.ndarray:
    """:func:`error_probability` for priors w (..., N), members
    (..., N, S) and checked tests ``choice`` (..., S)."""
    picked = np.take_along_axis(pmats, choice[..., None, :], axis=-2)[..., 0, :]
    correct = np.take_along_axis(w, choice, axis=-1) * picked
    return 1.0 - correct.sum(axis=-1)


@dataclass(frozen=True)
class MinimaxResult:
    """Certified minimax testing risk.

    ``value`` is the Bayes risk at the witness ``prior``, a lower bound on
    the minimax risk.  ``value + duality_gap`` is the worst-case error of
    the certifying randomized test, an upper bound, so ``duality_gap`` is
    the primal-dual gap: the width of the interval that holds the minimax
    risk."""

    value: float
    prior: np.ndarray
    duality_gap: float
    #: how the value was found, kept out of ``to_json`` and of equality:
    #: ``method`` is ``closed_form`` (one member), ``two_point_sort``,
    #: ``highs_dual_simplex`` or ``highs_ipm``, and ``iterations`` HiGHS's
    #: iteration count for the LP that solved it (shared by the blocks of one
    #: LP), or None where no LP ran
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __eq__(self, other) -> bool:
        """Equal value, gap and prior entries; the generated equality would
        compare the prior arrays with ``==``, whose truth value is
        ambiguous."""
        if not isinstance(other, MinimaxResult):
            return NotImplemented
        return (
            self.value == other.value
            and self.duality_gap == other.duality_gap
            and np.array_equal(self.prior, other.prior)
        )

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "prior": [float(v) for v in self.prior],
            "duality_gap": self.duality_gap,
        }


#: Ensembles of three or more members with at most this many cells
#: (members x support points) share a block-diagonal LP on the dual simplex
#: in ``minimax_risks``; larger ones get an interior-point LP each.
#: One- and two-member ensembles never reach an LP.  Median time per ensemble, B
#: ensembles in one dual-simplex LP against one call each on the dual
#: simplex and on the interior-point method (two runs of 5 reps, one of 3
#: at 20 x 500; 2 vCPUs, one BLAS thread, scipy 1.17.1):
#:
#:     block size   B    one LP, per ensemble   dual simplex   interior point
#:     3 x 8        60   0.21-0.22 ms           2.0 ms         2.2 ms
#:     5 x 32       32   1.5 ms                 2.7-3.0 ms     3.0-3.5 ms
#:     4 x 64       16   2.6-2.7 ms             3.5-3.6 ms     3.3-3.5 ms
#:     6 x 64       16   4.4-4.6 ms             4.2-4.5 ms     3.9-4.2 ms
#:     8 x 72        8   6.5-6.6 ms             5.6-5.7 ms     4.8-4.9 ms
#:     12 x 128      8   27 ms                  15 ms          9.0-9.2 ms
#:     20 x 500      2   316 ms                 232 ms         55 ms
#:
#: Below a few hundred cells ``linprog``'s input handling outweighs HiGHS's
#: solve, and one call pays it once; above, the simplex on the joined LP
#: costs more than the blocks alone, and the interior-point method (with
#: its crossover to a vertex) less than the simplex on each.
BATCH_CELLS = 256

#: The most cells one joined LP takes; more small ensembles start another.
#: The simplex's cost per block grows with the LP: 4 x 8 blocks took
#: 0.5, 0.6-0.8 and 1.2 ms each in LPs of 240, 960 and 3,840 blocks
#: (2.7-3.2 ms as separate calls), and 256 blocks of 6 x 40 (61,440 cells)
#: cost the same as separate calls, where 64 of them took 3.0 ms each
#: against 3.8.
LP_CELLS = 16384


def minimax_risk(ens: Ensemble, tol: float = 1e-6) -> MinimaxResult:
    """The certified minimax testing risk of one ensemble; see
    ``minimax_risks``."""
    return minimax_risks([ens], tol)[0]


def minimax_risks(ensembles, tol: float = 1e-6) -> list[MinimaxResult]:
    """Maximize the Bayes risk over priors on the simplex, for each ensemble:
    an ``Ensemble`` or its (N, S) member matrix, whose rows are checked as
    pmfs (``check_mass_rows``).

    The objective w -> 1 - sum_x max_theta w_theta p_theta(x) is concave and
    piecewise linear.  For one member it is 0, certified by the test that
    always decides that member.  For two members it is found exactly by a sort
    (``_two_point_sort``), in O(S log S) and to rounding.  For more, the
    maximization is the exact linear program

        min sum_x t_x  s.t.  t_x >= w_theta p_theta(x),  w in the simplex,

    solved with HiGHS, its primal and dual feasibility tolerances set to
    min(1e-7, tol / 10) (1e-7 is its default), so a certificate finer than
    the default can be asked for, but at least 1e-10, the least HiGHS
    accepts (``HIGHS_MIN_FEASIBILITY``).  The duals of the N*S rows
    t_x >= w_theta p_theta(x), clipped at 0 with each column normalized,
    are a randomized test delta(theta|x); its worst-case error
    1 - min_theta sum_x delta(theta|x) p_theta(x) is the certified upper
    value, and the Bayes risk at the LP's prior the lower one.

    Ensembles of at most ``BATCH_CELLS`` cells are solved together on the
    dual simplex as the blocks of a block-diagonal LP, each with its own w,
    t and simplex row, up to ``LP_CELLS`` cells per LP; larger ensembles
    are solved alone on HiGHS's interior-point method, which then crosses
    over to a vertex.  Results come back in input order, each naming its
    method in ``diagnostics``, and an ensemble's prior, if it carries one,
    is ignored.

    ``tol`` bounds the certified gap: a larger one raises, as does a solve
    that HiGHS does not report as optimal.  It also guards the prior: the
    Bayes risk at the found prior may sit at most ``tol`` below the
    uniform-prior Bayes risk, which the maximum never does; a smaller
    shortfall is replaced by the uniform prior, a larger one raises.
    """
    check_tol(tol)
    pmats = [
        ens.pmf_matrix() if isinstance(ens, Ensemble) else _member_matrix(ens)
        for ens in ensembles
    ]
    results: list = [None] * len(pmats)
    groups, batch, cells = [], [], 0
    for i, p in enumerate(pmats):
        if p.shape[0] == 1:
            # always deciding the only member never errs: no solve needed
            results[i] = _certify(p, np.ones(1), np.ones_like(p), tol, "closed_form", None)
            continue
        if p.shape[0] == 2:
            w, test = _two_point_sort(p)
            results[i] = _certify(p, w, test, tol, "two_point_sort", None)
            continue
        if p.size > BATCH_CELLS:
            groups.append(([i], "highs-ipm"))
            continue
        if cells + p.size > LP_CELLS:
            groups.append((batch, "highs-ds"))
            batch, cells = [], 0
        batch.append(i)
        cells += p.size
    if batch:
        groups.append((batch, "highs-ds"))
    for group, method in groups:
        solved, nit = _solve_prior_lps([pmats[i] for i in group], tol / 10.0, method)
        for i, (w, duals) in zip(group, solved):
            results[i] = _certify(pmats[i], w, duals, tol, _METHOD_NAMES[method], nit)
    return results


def _member_matrix(pmat) -> np.ndarray:
    """An (N, S) member matrix as a float array, each row checked as a pmf."""
    pmat = check_mass_rows(pmat)
    if pmat.ndim != 2:
        raise ValueError("member matrix must be 2-d, one row per member")
    return pmat


#: HiGHS's default primal and dual feasibility tolerance
HIGHS_FEASIBILITY = 1e-7
#: the least feasibility tolerance HiGHS accepts: it warns on a smaller one
#: and solves at its default instead
HIGHS_MIN_FEASIBILITY = 1e-10


#: diagnostics names of the ``linprog`` methods ``minimax_risks`` uses
_METHOD_NAMES = {"highs-ds": "highs_dual_simplex", "highs-ipm": "highs_ipm"}


def _two_point_sort(pmat: np.ndarray) -> tuple:
    """The maximizing prior (w, 1 - w) of the two-member Bayes risk
    R(w) = sum_x min(w p0(x), (1 - w) p1(x)), and the randomized test that
    certifies it, as a 2 x S array of decision probabilities.

    R is concave and piecewise linear with breakpoints w_x = p1(x) /
    (p0(x) + p1(x)) at the live points (p0 + p1 > 0); its right slope at w
    is sum_{w_x > w} p0 - sum_{w_x <= w} p1, which falls as w grows and is
    -sum p1 past the last breakpoint, so the maximum sits at the first
    sorted breakpoint where that slope is at most 0.  The test there decides member 0 where
    w_x < w, member 1 where w_x > w, and on the tied points member 0 with
    the probability that makes its two errors equal, so its worst-case
    error is R(w); dead points go to member 0."""
    p0, p1 = pmat
    mass = p0 + p1
    live = np.flatnonzero(mass > 0.0)
    breaks = p1[live] / mass[live]
    order = np.argsort(breaks, kind="stable")
    b, q0, q1 = breaks[order], p0[live][order], p1[live][order]
    below1 = np.cumsum(q1)
    above0 = np.append(np.cumsum(q0[::-1])[-2::-1], 0.0)
    # slopes right of each breakpoint, read at the last of its ties
    last = np.append(b[1:] != b[:-1], True)
    k = int(np.flatnonzero(last & (above0 <= below1))[0])
    w = b[k]
    first = int(np.searchsorted(b, w))
    tied0, tied1 = q0[first : k + 1].sum(), q1[first : k + 1].sum()
    before1 = below1[first - 1] if first else 0.0
    # err0 = above0 + (1 - lam) tied0 equals err1 = before1 + lam tied1
    lam = min(1.0, max(0.0, (above0[k] + tied0 - before1) / (tied0 + tied1)))
    decide0 = np.ones(pmat.shape[1])
    decide0[live] = np.where(breaks < w, 1.0, np.where(breaks > w, 0.0, lam))
    return np.array([w, 1.0 - w]), np.vstack([decide0, 1.0 - decide0])


def _solve_prior_lps(pmats: list, feasibility: float, method: str) -> tuple:
    """One block-diagonal LP over the prior LPs of ``pmats``, solved by the
    ``linprog`` ``method`` to a primal and dual feasibility tolerance of
    min(HIGHS_FEASIBILITY, ``feasibility``), clamped from below at
    HIGHS_MIN_FEASIBILITY: per block, the prior part of the solution and the
    N x S duals of its rows, and HiGHS's iteration count.  The options are
    passed only to tighten the default: passing them costs about 0.4 ms a
    call, 17% of a 2 x 8 solve."""
    feasibility = max(feasibility, HIGHS_MIN_FEASIBILITY)
    ns = np.array([p.shape[0] for p in pmats])
    ss = np.array([p.shape[1] for p in pmats])
    # block k's variables are [w_0..w_{n-1}, t_0..t_{s-1}] from var_off[k];
    # its rows theta*s + x, from row_off[k], hold w_theta p_theta(x) - t_x
    var_off = np.concatenate([[0], np.cumsum(ns + ss)])
    row_off = np.concatenate([[0], np.cumsum(ns * ss)])
    n_var, n_row = int(var_off[-1]), int(row_off[-1])
    block = np.repeat(np.arange(len(pmats)), ns * ss)
    local = np.arange(n_row) - row_off[block]
    theta, x = np.divmod(local, ss[block])
    # each row is the pair (w_theta, t_x), interleaved
    cols = np.empty(2 * n_row, dtype=np.intp)
    cols[0::2] = var_off[block] + theta
    cols[1::2] = var_off[block] + ns[block] + x
    vals = np.empty(2 * n_row)
    vals[0::2] = np.concatenate([p.ravel() for p in pmats])
    vals[1::2] = -1.0
    a_ub = coo_matrix((vals, (np.repeat(np.arange(n_row), 2), cols)), shape=(n_row, n_var))
    n_off = np.concatenate([[0], np.cumsum(ns)])
    w_block = np.repeat(np.arange(len(pmats)), ns)
    w_cols = var_off[w_block] + np.arange(n_off[-1]) - n_off[w_block]
    a_eq = coo_matrix((np.ones(w_cols.size), (w_block, w_cols)), shape=(len(pmats), n_var))
    cost = np.ones(n_var)
    cost[w_cols] = 0.0
    bounds = np.full((n_var, 2), np.inf)
    bounds[:, 0] = -np.inf
    bounds[w_cols, 0] = 0.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(n_row),
        A_eq=a_eq,
        b_eq=np.ones(len(pmats)),
        bounds=bounds,
        method=method,
        options=None
        if feasibility >= HIGHS_FEASIBILITY
        else {
            "primal_feasibility_tolerance": feasibility,
            "dual_feasibility_tolerance": feasibility,
        },
    )
    if res.status != 0:
        raise RuntimeError(f"prior maximization failed to converge: {res.message}")
    duals = -res.ineqlin.marginals
    solved = [
        (
            res.x[var_off[k] : var_off[k] + ns[k]],
            duals[row_off[k] : row_off[k + 1]].reshape(ns[k], ss[k]),
        )
        for k in range(len(pmats))
    ]
    return solved, int(res.nit)


def _certify(
    pmat: np.ndarray, w: np.ndarray, duals: np.ndarray, tol: float, method: str, iterations
) -> MinimaxResult:
    """The lower value from the found prior, the upper value from the
    randomized test in ``duals`` (per point, unnormalized weights on the
    members), and the checks ``tol`` sets."""
    n = pmat.shape[0]
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    value = float(bayes_risks(w, pmat))
    # the maximum never sits below the uniform-prior Bayes risk
    uniform = np.full(n, 1.0 / n)
    uniform_value = float(bayes_risks(uniform, pmat))
    if uniform_value > value + tol:
        raise RuntimeError("solver returned a value below the uniform Bayes risk")
    if uniform_value > value:
        value, w = uniform_value, uniform
    test = np.clip(duals, 0.0, None)
    test = test / test.sum(axis=0)
    upper = 1.0 - float((test * pmat).sum(axis=1).min())
    gap = upper - value
    # also refuses a NaN, from the prior or from a dual column summing to 0
    if not gap <= tol:
        raise RuntimeError(f"certified gap {gap!r} exceeds tol {tol!r}")
    return MinimaxResult(
        value=float(value),
        prior=w,
        duality_gap=max(0.0, gap),
        diagnostics={"method": method, "iterations": iterations},
    )
