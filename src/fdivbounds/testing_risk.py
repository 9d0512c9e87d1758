"""Exact testing risks on finite ensembles.

The Bayes testing risk has the closed form 1 - sum_x max_theta w_theta
p_theta(x), attained by the maximum-a-posteriori test.  The minimax testing
risk is reported through its prior dual: the maximum of the Bayes risk over
priors, which is computed exactly as a linear program.  The dual value is a
certified lower bound on the minimax risk; the gap to the best deterministic
test found is reported rather than asserted to vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .distributions import Ensemble


def bayes_risk_exact(ens: Ensemble) -> float:
    """1 - sum_x max_theta w_theta p_theta(x) under the ensemble prior."""
    scored = ens.weights()[:, None] * ens.pmf_matrix()
    return float(1.0 - scored.max(axis=0).sum())


def map_test(ens: Ensemble) -> np.ndarray:
    """Per sample point, the member index maximizing w_theta p_theta(x).

    Ties break to the lowest index, so the assignment is deterministic.
    """
    scored = ens.weights()[:, None] * ens.pmf_matrix()
    return scored.argmax(axis=0)


def error_probability(ens: Ensemble, choice: np.ndarray) -> float:
    """Average error sum_theta w_theta P_theta{T != theta} of a test."""
    choice = np.asarray(choice)
    if choice.shape != (ens.support_size,):
        raise ValueError("test assignment length must match the support size")
    if choice.min() < 0 or choice.max() >= ens.size:
        raise ValueError("test assignment contains an invalid member index")
    pmat = ens.pmf_matrix()
    w = ens.weights()
    correct = w[choice] * pmat[choice, np.arange(ens.support_size)]
    return float(1.0 - correct.sum())


def worst_case_error(ens: Ensemble, choice: np.ndarray) -> float:
    """max_theta P_theta{T != theta}: the minimax value of one test."""
    choice = np.asarray(choice)
    pmat = ens.pmf_matrix()
    hits = np.zeros(ens.size)
    for theta in range(ens.size):
        hits[theta] = pmat[theta, choice == theta].sum()
    return float(1.0 - hits.min())


@dataclass(frozen=True)
class MinimaxResult:
    """Dual value max_w (Bayes risk), its witness prior, and the gap to the
    best deterministic test evaluated along the way."""

    value: float
    prior: np.ndarray
    duality_gap: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "prior": [float(v) for v in self.prior],
            "duality_gap": self.duality_gap,
        }


def minimax_risk(
    ens: Ensemble, tol: float = 1e-6, max_iter: int = 10**5
) -> MinimaxResult:
    """Maximize the Bayes risk over priors on the simplex.

    The objective w -> 1 - sum_x max_theta w_theta p_theta(x) is concave and
    piecewise linear, so the maximization is the exact linear program

        min sum_x t_x  s.t.  t_x >= w_theta p_theta(x),  w in the simplex,

    solved with HiGHS under its own default tolerances.  ``tol`` does not
    reach HiGHS: it is the most the Bayes risk at the LP's prior may sit
    below the uniform-prior Bayes risk, which the maximum never does.  A
    smaller shortfall is replaced by the uniform prior, a larger one
    raises.  ``max_iter`` caps the solver iterations (non-convergence
    raises).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    pmat = ens.pmf_matrix()
    n, s = pmat.shape
    # variables: [w_0..w_{n-1}, t_0..t_{s-1}]
    cost = np.concatenate([np.zeros(n), np.ones(s)])
    # row theta*s + x holds w_theta p_theta(x) - t_x, entered as the
    # interleaved pairs (w_theta, t_x)
    r = n * s
    rows = np.repeat(np.arange(r), 2)
    cols = np.empty(2 * r, dtype=np.intp)
    cols[0::2] = np.repeat(np.arange(n), s)
    cols[1::2] = np.tile(n + np.arange(s), n)
    vals = np.empty(2 * r)
    vals[0::2] = pmat.ravel()
    vals[1::2] = -1.0
    a_ub = coo_matrix((vals, (rows, cols)), shape=(r, n + s))
    a_eq = coo_matrix(
        (np.ones(n), (np.zeros(n, dtype=int), np.arange(n))), shape=(1, n + s)
    )
    bounds = [(0.0, None)] * n + [(None, None)] * s
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(r),
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=bounds,
        method="highs",
        options={"maxiter": max_iter},
    )
    if res.status != 0:
        raise RuntimeError(f"prior maximization failed to converge: {res.message}")
    w = np.clip(res.x[:n], 0.0, None)
    w = w / w.sum()
    witness = Ensemble(members=ens.members, prior=w)
    value = bayes_risk_exact(witness)
    # the dual value never sits below the uniform-prior Bayes risk
    uniform_value = bayes_risk_exact(Ensemble(members=ens.members))
    if uniform_value > value + tol:
        raise RuntimeError("solver returned a value below the uniform Bayes risk")
    if uniform_value > value:
        value = uniform_value
        w = np.full(n, 1.0 / n)
        witness = Ensemble(members=ens.members, prior=w)
    uniform = Ensemble(members=ens.members)
    upper = min(
        worst_case_error(witness, map_test(witness)),
        worst_case_error(uniform, map_test(uniform)),
    )
    gap = max(0.0, upper - value)
    if math.isnan(value):
        raise RuntimeError("prior maximization produced NaN")
    return MinimaxResult(value=float(value), prior=w, duality_gap=float(gap))
