"""Exact testing risks on finite ensembles.

The Bayes testing risk has the closed form 1 - sum_x max_theta w_theta
p_theta(x), attained by the maximum-a-posteriori test.  The minimax testing
risk is reported through its prior dual: the maximum of the Bayes risk over
priors, which is computed exactly as a linear program.  The Bayes risk at
the LP's prior is a certified lower bound on the minimax risk, and the
worst-case error of the randomized test in the LP's duals a certified upper
bound; their gap is reported, and bounded by the caller's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .distributions import Ensemble, check_mass_rows


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
    the randomized test read from the LP's duals, an upper bound, so
    ``duality_gap`` is the LP's primal-dual gap: the width of the interval
    that holds the minimax risk."""

    value: float
    prior: np.ndarray
    duality_gap: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "prior": [float(v) for v in self.prior],
            "duality_gap": self.duality_gap,
        }


#: Ensembles with at most this many cells (members x support points) share
#: a block-diagonal LP in ``minimax_risks``; larger ones get an LP each.
#: Median time per ensemble, B ensembles in one LP against one ``linprog``
#: call each (two runs, 2 vCPUs, one BLAS thread, scipy 1.17.1):
#:
#:     block size   B    one LP, per ensemble   separate calls
#:     3 x 8        60   0.29-0.38 ms           3.1-5.2 ms
#:     5 x 32       32   2.3-3.4 ms             3.6-3.8 ms
#:     6 x 64       16   5.9-6.1 ms             5.9-6.4 ms
#:     8 x 72        8   9.7-11.3 ms            7.7-8.2 ms
#:     12 x 128      8   40-46 ms               21-24 ms
#:
#: Below a few hundred cells ``linprog``'s input handling outweighs HiGHS's
#: solve, and one call pays it once; above, the simplex on the joined LP
#: costs more than the blocks alone.
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
    piecewise linear, so the maximization is the exact linear program

        min sum_x t_x  s.t.  t_x >= w_theta p_theta(x),  w in the simplex,

    solved with HiGHS, its primal and dual feasibility tolerances set to
    min(1e-7, tol / 10) (1e-7 is its default), so a certificate finer than
    the default can be asked for, but at least 1e-10, the least HiGHS
    accepts (``HIGHS_MIN_FEASIBILITY``).  The duals of the N*S rows
    t_x >= w_theta p_theta(x), clipped at 0 with each column normalized,
    are a randomized test delta(theta|x); its worst-case error
    1 - min_theta sum_x delta(theta|x) p_theta(x) is the certified upper
    value, and the Bayes risk at the LP's prior the lower one.

    Ensembles of at most ``BATCH_CELLS`` cells are solved together as the
    blocks of a block-diagonal LP, each with its own w, t and simplex row,
    up to ``LP_CELLS`` cells per LP; larger ensembles are solved alone.
    Results come back in input order, and an ensemble's prior, if it
    carries one, is ignored.

    ``tol`` bounds the certified gap: a larger one raises, as does a solve
    that HiGHS does not report as optimal.  It also guards the prior: the
    Bayes risk at the LP's prior may sit at most ``tol`` below the
    uniform-prior Bayes risk, which the maximum never does; a smaller
    shortfall is replaced by the uniform prior, a larger one raises.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")
    pmats = [
        ens.pmf_matrix() if isinstance(ens, Ensemble) else _member_matrix(ens)
        for ens in ensembles
    ]
    groups, batch, cells = [], [], 0
    for i, p in enumerate(pmats):
        if p.size > BATCH_CELLS:
            groups.append([i])
            continue
        if cells + p.size > LP_CELLS:
            groups.append(batch)
            batch, cells = [], 0
        batch.append(i)
        cells += p.size
    if batch:
        groups.append(batch)
    results: list = [None] * len(pmats)
    for group in groups:
        solved = _solve_prior_lps([pmats[i] for i in group], tol / 10.0)
        for i, (w, duals) in zip(group, solved):
            results[i] = _certify(pmats[i], w, duals, tol)
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


def _solve_prior_lps(pmats: list, feasibility: float) -> list:
    """One block-diagonal LP over the prior LPs of ``pmats``, solved to a
    primal and dual feasibility tolerance of min(HIGHS_FEASIBILITY,
    ``feasibility``), clamped from below at HIGHS_MIN_FEASIBILITY; per
    block, the prior part of the solution and the N x S duals of its rows.
    The options are passed only to tighten the default: passing them costs
    about 0.4 ms a call, 17% of a 2 x 8 solve."""
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
        method="highs",
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
    return [
        (
            res.x[var_off[k] : var_off[k] + ns[k]],
            duals[row_off[k] : row_off[k + 1]].reshape(ns[k], ss[k]),
        )
        for k in range(len(pmats))
    ]


def _certify(pmat: np.ndarray, w: np.ndarray, duals: np.ndarray, tol: float) -> MinimaxResult:
    """The lower value from the LP's prior, the upper value from the
    randomized test in its duals, and the checks ``tol`` sets."""
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
    return MinimaxResult(value=float(value), prior=w, duality_gap=max(0.0, gap))
