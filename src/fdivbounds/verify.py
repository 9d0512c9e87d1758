"""Invariant suites: every inequality the library claims, checked against
brute-force oracles at desk scale.

Each check returns a JSON-able record with the worst observed slack (negative
slack breaks an inequality) and a pass flag; suites aggregate checks.  All
randomness flows from seeded generators, so reports are byte-identical across
runs with the same seed.  The same functions back the ``verify`` subcommand
and the acceptance tests (which raise the trial counts).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .distributions import DiscreteDistribution, Ensemble, product_distribution, uniform_mixture
from .divergences import (
    DivergenceGenerator,
    apply_generator,
    builtin_generator,
    default_generators,
    eval_divergence,
    squared_hellinger,
    total_variation,
    uniform_divergence_floor,
)
from .entropy_bounds import (
    EntropyProfile,
    LossSpec,
    builtin_profile,
    entropy_bound_factor,
    entropy_risk_bound,
    optimize_entropy_bound,
    power_loss,
)
from .informativity import (
    CoveringFamily,
    covering_approx_error,
    covering_specialization,
    covering_upper_bound,
    informativity_closed_form,
    informativity_numeric,
    informativity_tv_exact,
    simple_upper_chain,
)
from .mixture_bounds import (
    implicit_risk_bound,
    map_reference_mass,
    named_bound,
    named_bound_from_ensemble,
    tangent_risk_bound,
    two_point_target,
    two_point_witness,
    weighted_divergence_floor,
    weighted_divergence_sum,
)
from .testing_risk import bayes_risk_exact, map_test, minimax_risk, error_probability
from . import constructions as cons

SUITE_NAMES = ("core", "mixture", "jf", "entropy", "constructions")


def _record(name: str, passed: bool, **extra) -> dict:
    out = {"name": name, "pass": bool(passed)}
    out.update(extra)
    return out


def _random_ensemble(
    rng: np.random.Generator,
    n_max: int = 6,
    support_max: int = 12,
    with_prior: bool = False,
) -> Ensemble:
    n = int(rng.integers(2, n_max + 1))
    s = int(rng.integers(2, support_max + 1))
    members = _draw_members(rng, n, s)
    prior = rng.dirichlet(np.ones(n)) if with_prior else None
    return Ensemble(members=members, prior=prior)


def _draw_members(rng: np.random.Generator, n: int, s: int) -> tuple:
    """n flat-Dirichlet distributions on s points from one draw; the rows
    come out of the random stream exactly as n single draws would."""
    return tuple(DiscreteDistribution(row) for row in rng.dirichlet(np.ones(s), size=n))


# ---------------------------------------------------------------------------
# core: distributions and exact testing risks
# ---------------------------------------------------------------------------


def check_product_marginals(seed: int, trials: int = 50) -> dict:
    rng = np.random.default_rng([seed, 10])
    worst = 0.0
    for _ in range(trials):
        s = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        base = DiscreteDistribution(rng.dirichlet(np.ones(s)))
        prod = product_distribution(base, n)
        cube = prod.pmf.reshape((s,) * n)
        for axis in range(n):
            other = tuple(a for a in range(n) if a != axis)
            marg = cube.sum(axis=other) if other else cube
            worst = max(worst, float(np.abs(marg - base.pmf).max()))
        worst = max(worst, abs(float(prod.pmf.sum()) - 1.0))
    return _record("product_marginals", worst <= 1e-12, trials=trials, worst_error=worst)


def check_map_achieves_bayes(seed: int, trials: int = 200) -> dict:
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    for _ in range(trials):
        ens = _random_ensemble(rng, with_prior=bool(rng.integers(0, 2)))
        gap = abs(error_probability(ens, map_test(ens)) - bayes_risk_exact(ens))
        worst = max(worst, gap)
    return _record("map_achieves_bayes", worst <= 1e-12, trials=trials, worst_error=worst)


def check_bayes_concavity(seed: int, trials: int = 200) -> dict:
    rng = np.random.default_rng([seed, 12])
    worst = math.inf
    for _ in range(trials):
        ens = _random_ensemble(rng)
        w1 = rng.dirichlet(np.ones(ens.size))
        w2 = rng.dirichlet(np.ones(ens.size))
        mid = Ensemble(members=ens.members, prior=(w1 + w2) / 2.0)
        r1 = bayes_risk_exact(Ensemble(members=ens.members, prior=w1))
        r2 = bayes_risk_exact(Ensemble(members=ens.members, prior=w2))
        slack = bayes_risk_exact(mid) - (r1 + r2) / 2.0
        worst = min(worst, slack)
    return _record("bayes_concavity", worst >= -1e-12, trials=trials, worst_slack=worst)


def check_minimax_dominates_priors(seed: int, trials: int = 60) -> dict:
    rng = np.random.default_rng([seed, 13])
    tol = 1e-6
    worst = math.inf
    for _ in range(trials):
        ens = _random_ensemble(rng, n_max=4, support_max=8)
        res = minimax_risk(ens, tol=tol)
        for _ in range(5):
            w = rng.dirichlet(np.ones(ens.size))
            r = bayes_risk_exact(Ensemble(members=ens.members, prior=w))
            worst = min(worst, res.value + tol - r)
        worst = min(
            worst, res.value - bayes_risk_exact(Ensemble(members=ens.members))
        )
        worst = min(worst, 1.0 - 1.0 / ens.size + 1e-12 - res.value)
    return _record(
        "minimax_dominates_priors", worst >= -1e-12, trials=trials, worst_slack=worst
    )


# ---------------------------------------------------------------------------
# mixture: the core inequality and its named specializations
# ---------------------------------------------------------------------------


def check_weighted_soundness(seed: int, trials: int = 1000) -> dict:
    """The central sweep: random ensembles, priors, references, and every
    built-in generator; the weighted divergence sum must dominate the floor."""
    rng = np.random.default_rng([seed, 20])
    gens = default_generators()
    worst = math.inf
    checked = 0
    for t in range(trials):
        ens = _random_ensemble(rng, with_prior=True)
        if t % 7 == 0 and ens.support_size > 2:
            # exercise references with a dead point; the sum may be infinite
            q = rng.dirichlet(np.ones(ens.support_size))
            q[int(rng.integers(0, ens.support_size))] = 0.0
            q = q / q.sum()
        else:
            q = rng.dirichlet(np.ones(ens.support_size))
        qd = DiscreteDistribution(q)
        w_mass = map_reference_mass(ens, qd)
        if not 0.0 < w_mass < 1.0:
            continue
        rbar = bayes_risk_exact(ens)
        for gen in gens:
            lhs = weighted_divergence_sum(gen, ens, qd)
            if math.isinf(lhs):
                checked += 1
                continue
            rhs = weighted_divergence_floor(gen, w_mass, rbar)
            worst = min(worst, lhs - rhs)
            checked += 1
    return _record(
        "weighted_soundness", worst >= -1e-9, trials=checked, worst_slack=worst
    )


def check_uniform_floor_shape(seed: int, trials: int = 40) -> dict:
    """The uniform divergence floor is non-increasing and midpoint convex."""
    rng = np.random.default_rng([seed, 21])
    gens = default_generators()
    worst = math.inf
    for _ in range(trials):
        gen = gens[int(rng.integers(0, len(gens)))]
        n = int(rng.integers(2, 7))
        grid = np.linspace(0.0, 1.0 - 1.0 / n, 33)
        vals = np.array([uniform_divergence_floor(gen, n, a) for a in grid])
        finite = np.isfinite(vals)
        diffs = vals[finite][:-1] - vals[finite][1:]
        if diffs.size:
            worst = min(worst, float(diffs.min()))
        for i in range(0, 29, 3):
            lhs = uniform_divergence_floor(gen, n, (grid[i] + grid[i + 2]) / 2.0)
            rhs = (vals[i] + vals[i + 2]) / 2.0
            if math.isfinite(lhs) and math.isfinite(rhs):
                worst = min(worst, rhs - lhs)
    return _record(
        "uniform_floor_shape", worst >= -1e-10, trials=trials, worst_slack=worst
    )


def _two_point_objective(gen, v, a_grid, c_grid):
    """D_f(P1||Q) + D_f(P2||Q) on the two-point family with TV = v, where
    P1 = (a, 1-a), P2 = (a-v, 1-a+v), Q = (c, 1-c)."""
    a = a_grid[:, None]
    c = c_grid[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        total = c * apply_generator(gen, a / c)
        total = total + (1 - c) * apply_generator(gen, (1 - a) / (1 - c))
        total = total + c * apply_generator(gen, (a - v) / c)
        total = total + (1 - c) * apply_generator(gen, (1 - a + v) / (1 - c))
    return total


def minimize_two_point(gen: DivergenceGenerator, v: float, rounds: int = 4) -> float:
    """Numeric minimum of the two-point divergence sum at total variation v,
    by nested grid refinement (81 points per axis per round)."""
    a_lo, a_hi = v, 1.0
    c_lo, c_hi = 1e-9, 1.0 - 1e-9
    best = math.inf
    for _ in range(rounds):
        a_grid = np.linspace(a_lo, a_hi, 81)
        c_grid = np.linspace(c_lo, c_hi, 81)
        vals = _two_point_objective(gen, v, a_grid, c_grid)
        vals = np.where(np.isnan(vals), math.inf, vals)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, float(vals[idx]))
        a_step = (a_hi - a_lo) / 80.0
        c_step = (c_hi - c_lo) / 80.0
        a_c, c_c = float(a_grid[idx[0]]), float(c_grid[idx[1]])
        a_lo, a_hi = max(v, a_c - 2 * a_step), min(1.0, a_c + 2 * a_step)
        c_lo, c_hi = max(1e-12, c_c - 2 * c_step), min(1.0 - 1e-12, c_c + 2 * c_step)
    return best


def check_two_point_sharpness(seed: int, trials: int = 11) -> dict:
    """The constructive witness hits f(1+V)+f(1-V) to 1e-12 and the numeric
    minimum over two-point instances agrees to 1e-6."""
    del seed  # deterministic grid check
    gens = [builtin_generator(g) for g in ("kl", "chi2", "power:3")]
    worst_witness = 0.0
    worst_numeric = 0.0
    floor_slack = math.inf
    v_grid = np.round(np.linspace(0.0, 1.0, trials), 10)
    for v in v_grid:
        for gen in gens:
            target = two_point_target(float(v), gen)
            _, _, _, achieved = two_point_witness(float(v), gen)
            worst_witness = max(worst_witness, abs(achieved - target))
            numeric = minimize_two_point(gen, float(v))
            worst_numeric = max(worst_numeric, abs(numeric - target))
            floor_slack = min(floor_slack, numeric - target)
    passed = worst_witness <= 1e-12 and worst_numeric <= 1e-6 and floor_slack >= -1e-9
    return _record(
        "two_point_sharpness",
        passed,
        trials=int(len(v_grid) * 3),
        worst_witness_error=worst_witness,
        worst_numeric_error=worst_numeric,
        numeric_floor_slack=floor_slack,
    )


def check_pair_inequalities(seed: int, trials: int = 1000) -> dict:
    """Pinsker, the mixture-KL/total-variation inequality, and the
    Hellinger/total-variation inequality on random pairs."""
    rng = np.random.default_rng([seed, 22])
    kl = builtin_generator("kl")
    worst = math.inf
    for _ in range(trials):
        s = int(rng.integers(2, 17))
        p1 = DiscreteDistribution(rng.dirichlet(np.ones(s)))
        p2 = DiscreteDistribution(rng.dirichlet(np.ones(s)))
        v = total_variation(p1, p2)
        worst = min(worst, eval_divergence(kl, p1, p2) - 2.0 * v * v)
        mix = DiscreteDistribution((p1.pmf + p2.pmf) / 2.0)
        lhs = eval_divergence(kl, p1, mix) + eval_divergence(kl, p2, mix)
        rhs = (1 + v) * math.log1p(v) + (1 - v) * math.log1p(-v) if v < 1 else math.inf
        if math.isfinite(rhs):
            worst = min(worst, lhs - rhs)
        h_sq = squared_hellinger(p1, p2)
        worst = min(worst, math.sqrt(h_sq) * math.sqrt(1 - h_sq / 4.0) - v)
    return _record(
        "pair_inequalities", worst >= -1e-12, trials=trials, worst_slack=worst
    )


def check_pinsker_constant(seed: int) -> dict:
    """The factor 2 in D >= 2V^2 is approached by two-point pairs: the best
    ratio D/(2V^2) over a near-degenerate family comes within 5% of 1."""
    del seed
    kl = builtin_generator("kl")
    best = math.inf
    for t in np.geomspace(1e-4, 0.49, 200):
        p1 = DiscreteDistribution(np.array([0.5 + t, 0.5 - t]))
        p2 = DiscreteDistribution(np.array([0.5 - t, 0.5 + t]))
        v = 2.0 * t
        ratio = eval_divergence(kl, p1, p2) / (2.0 * v * v)
        best = min(best, ratio)
    return _record(
        "pinsker_constant", 1.0 - 1e-12 <= best <= 1.05, best_ratio=float(best)
    )


def check_named_bound_soundness(seed: int, trials: int = 1000) -> dict:
    """Every named bound fed exact ensemble statistics stays below the exact
    uniform-prior Bayes risk; the chi2 bound is tight on identical members."""
    rng = np.random.default_rng([seed, 23])
    worst = math.inf
    families = ("fano", "chi2", "hellinger", "tv", "power_l")
    for _ in range(trials):
        ens = _random_ensemble(rng, n_max=5, support_max=8)
        rbar = bayes_risk_exact(Ensemble(members=ens.members))
        for fam in families:
            report = named_bound_from_ensemble(fam, ens)
            worst = min(worst, rbar - report.lower_bound)
    member = DiscreteDistribution(np.array([0.3, 0.7]))
    ident = Ensemble(members=(member, member, member))
    tight = named_bound_from_ensemble("chi2", ident).lower_bound
    exact = abs(tight - (1.0 - 1.0 / 3.0)) <= 1e-12
    return _record(
        "named_bound_soundness",
        worst >= -1e-9 and exact,
        trials=trials,
        worst_slack=worst,
        identical_member_gap=abs(tight - 2.0 / 3.0),
    )


def check_implicit_vs_oracle(seed: int, trials: int = 120) -> dict:
    """Inverting the uniform floor at the exact informativity never beats the
    exact Bayes risk; the tangent relaxation never beats the inversion."""
    rng = np.random.default_rng([seed, 24])
    worst = math.inf
    worst_tangent = math.inf
    for t in range(trials):
        ens = _random_ensemble(rng, n_max=5, support_max=8)
        n = ens.size
        rbar = bayes_risk_exact(Ensemble(members=ens.members))
        name = ("kl", "chi2", "hellinger_half", "power:3")[t % 4]
        gen = builtin_generator(name)
        total = n * informativity_closed_form(name, ens).value
        bound = implicit_risk_bound(gen, n, total)
        worst = min(worst, rbar - bound)
        a = float(rng.uniform(0.0, 1.0 - 1.0 / n - 1e-6))
        tangent = tangent_risk_bound(gen, n, total, a)
        worst_tangent = min(worst_tangent, bound - tangent)
    return _record(
        "implicit_vs_oracle",
        worst >= -1e-9 and worst_tangent >= -1e-9,
        trials=trials,
        worst_slack=worst,
        worst_tangent_slack=worst_tangent,
    )


# ---------------------------------------------------------------------------
# jf: informativity oracles and covering bounds
# ---------------------------------------------------------------------------


def grid_informativity(gen: DivergenceGenerator, ens: Ensemble, step: float = 1e-3) -> float:
    """Grid-search oracle for the informativity: a coarse sweep of the
    simplex followed by nested local grids down to ``step``.  The objective
    is convex, so the coarse argmin localizes the optimum and the refinement
    is exhaustive at the final resolution.

    The objective separates over points, sum_x phi_x(q_x), so the coarse
    sweep (:func:`_coarse_objective`) evaluates each member's term once per
    distinct value of a grid column and gathers the terms cell by cell; the
    refinement evaluates its small grids whole (:func:`_grid_objective`).
    Both give the same values bit for bit."""
    pmat = ens.pmf_matrix()
    s = pmat.shape[1]
    coarse = 0.02 if s <= 4 else 0.05
    vals = _coarse_objective(gen, pmat, coarse)
    center = _simplex_grid(s, coarse)[int(np.argmin(vals))]
    best = float(vals.min())
    radius = coarse
    while radius > step / 2.0:
        axes = [
            np.clip(np.linspace(c - radius, c + radius, 9), 0.0, 1.0)
            for c in center[:-1]
        ]
        mesh = np.stack([m.ravel() for m in np.meshgrid(*axes)], axis=1)
        last = 1.0 - mesh.sum(axis=1)
        keep = last >= -1e-12
        qs = np.column_stack([mesh[keep], np.clip(last[keep], 0.0, None)])
        vals = _grid_objective(gen, pmat, qs)
        idx = int(np.argmin(vals))
        if vals[idx] < best:
            best = float(vals[idx])
            center = qs[idx]
        radius /= 4.0
    return best


def _terms(gen: DivergenceGenerator, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q f(p/q) cell by cell, p broadcast against q, evaluated apart from
    :func:`.divergences.divergence_matrix` so that the oracle is
    independent of it: f(0+) where p = 0 < q, and where q = 0 the term is
    +inf if p > 0, else 0."""
    live = q > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p / np.where(live, q, 1.0)
        vals = np.where(ratio == 0, gen.f_at_zero, gen.f(ratio))
        return np.where(live, q * vals, np.where(p > 0, np.inf, 0.0))


def _grid_objective(gen: DivergenceGenerator, pmat: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """(1/N) sum_theta D_f(P_theta||q) for every row q of ``qs``.  One
    member at a time, so the temporaries stay at the grid's size."""
    total = np.zeros(qs.shape[0])
    for p in pmat:
        total = total + _terms(gen, p, qs).sum(axis=1)
    return total / pmat.shape[0]


def _coarse_objective(gen: DivergenceGenerator, pmat: np.ndarray, step: float) -> np.ndarray:
    """:func:`_grid_objective` over the whole of ``_simplex_grid(S, step)``,
    bit for bit, from the grid's distinct column values.

    Each member's row sum is its terms added column by column, left to
    right, and the members' sums are added in member order, as
    ``_grid_objective`` adds them."""
    (first, cells), *rest = _grid_columns(pmat.shape[1], step)
    rows = _terms(gen, pmat[:, :1], first).take(cells, axis=1)
    for x, (values, cells) in enumerate(rest, start=1):
        rows += _terms(gen, pmat[:, x, None], values).take(cells, axis=1)
    total = np.zeros(rows.shape[1])
    for row in rows:
        total = total + row
    return total / pmat.shape[0]


@functools.lru_cache(maxsize=16)
def _simplex_grid(s: int, step: float) -> np.ndarray:
    """A grid of the simplex on s points: the first coordinate steps by
    ``step`` and the rest are the (s - 1)-point grid scaled to the mass
    left, so only the first and, at s = 2, the second column are multiples
    of ``step``.  Cached per (s, step), so the array is read-only."""
    ticks = int(round(1.0 / step))
    if s == 2:
        a = np.arange(ticks + 1) / ticks
        grid = np.column_stack([a, 1.0 - a])
    else:
        pieces = []
        for first in range(ticks + 1):
            rest = _simplex_grid(s - 1, step) * ((ticks - first) / ticks)
            col = np.full((rest.shape[0], 1), first / ticks)
            pieces.append(np.hstack([col, rest]))
        grid = np.vstack(pieces)
    grid.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=16)
def _grid_columns(s: int, step: float) -> tuple:
    """Per column of ``_simplex_grid(s, step)``: its distinct values and
    each cell's index into them.  The later columns are products of
    scaled ticks, so they hold more than 1/step + 1 values (at s = 4 and
    step 0.02: 51, 904, 12,996 and 22,928 of 132,651 cells), still far
    fewer than the cells.  Cached and read-only, like the grid."""
    columns = []
    for col in _simplex_grid(s, step).T:
        values, cells = np.unique(col, return_inverse=True)
        values.setflags(write=False)
        cells.setflags(write=False)
        columns.append((values, cells))
    return tuple(columns)


def informativity_oracle_ensembles(seed: int, trials: int):
    """The seeded ensembles of :func:`check_informativity_oracles`: 2 to 4
    flat-Dirichlet members on 2 to 4 points."""
    rng = np.random.default_rng([seed, 30])
    for _ in range(trials):
        s = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        yield Ensemble(members=_draw_members(rng, n, s))


def check_informativity_oracles(
    seed: int, trials: int = 200, grid_stride: int = 5
) -> dict:
    """Closed forms match the KKT solver to 1e-6 (all three standard
    generators per ensemble) and the grid-search oracle to 2e-3 (one
    generator per ensemble, cycling; every ensemble when grid_stride=1)."""
    names = ("kl", "chi2", "hellinger_half")
    worst_numeric = 0.0
    worst_grid = 0.0
    for t, ens in enumerate(informativity_oracle_ensembles(seed, trials)):
        closed = {}
        for name in names:
            closed[name] = informativity_closed_form(name, ens).value
            numeric = informativity_numeric(
                builtin_generator(name), ens, tol=1e-9
            ).value
            worst_numeric = max(worst_numeric, abs(closed[name] - numeric))
        if t % grid_stride == 0:
            name = names[t % len(names)]
            oracle = grid_informativity(builtin_generator(name), ens, step=1e-3)
            worst_grid = max(worst_grid, abs(closed[name] - oracle))
    passed = worst_numeric <= 1e-6 and worst_grid <= 2e-3
    return _record(
        "informativity_oracles",
        passed,
        trials=trials,
        worst_numeric_error=worst_numeric,
        worst_grid_error=worst_grid,
    )


def check_compensation_identity(seed: int, trials: int = 200) -> dict:
    """sum KL(P_theta||Q) = sum KL(P_theta||mixture) + N KL(mixture||Q)."""
    rng = np.random.default_rng([seed, 31])
    kl = builtin_generator("kl")
    worst = 0.0
    for _ in range(trials):
        ens = _random_ensemble(rng, n_max=5, support_max=8)
        q = DiscreteDistribution(rng.dirichlet(np.ones(ens.support_size)))
        mix = uniform_mixture(ens)
        lhs = sum(eval_divergence(kl, m, q) for m in ens.members)
        rhs = sum(eval_divergence(kl, m, mix) for m in ens.members)
        rhs += ens.size * eval_divergence(kl, mix, q)
        worst = max(worst, abs(lhs - rhs))
    return _record(
        "compensation_identity", worst <= 1e-10, trials=trials, worst_error=worst
    )


def check_upper_chain(seed: int, trials: int = 150) -> dict:
    """The three simple upper bounds are nested and sit above the
    informativity (the first one is exactly it for KL)."""
    rng = np.random.default_rng([seed, 32])
    worst = math.inf
    kl_gap = 0.0
    for t in range(trials):
        ens = _random_ensemble(rng, n_max=5, support_max=8)
        name = ("kl", "chi2", "hellinger_half", "power:3")[t % 4]
        gen = builtin_generator(name)
        chain = simple_upper_chain(gen, ens)
        for a, b in zip(chain, chain[1:]):
            if math.isfinite(b):
                worst = min(worst, b - a)
        value = informativity_closed_form(name, ens).value
        worst = min(worst, chain[0] - value)
        if name == "kl":
            kl_gap = max(kl_gap, abs(chain[0] - value))
    return _record(
        "upper_chain",
        worst >= -1e-9 and kl_gap <= 1e-12,
        trials=trials,
        worst_slack=worst,
        kl_equality_gap=kl_gap,
    )


def check_covering_validity(seed: int, trials: int = 500) -> dict:
    """Generic and specialized covering bounds dominate the exact
    informativity on random (ensemble, family) instances."""
    rng = np.random.default_rng([seed, 33])
    worst = math.inf
    worst_relation = math.inf
    kl_identity = 0.0
    kinds = (
        ("kl", "kl", 2.0),
        ("chi2", "chi2", 2.0),
        ("power_l", "power:3", 3.0),
        ("hellinger_sq", "hellinger_sq", 2.0),
    )
    for t in range(trials):
        ens = _random_ensemble(rng, n_max=5, support_max=6)
        m = int(rng.integers(1, 5))
        fam = CoveringFamily(candidates=_draw_members(rng, m, ens.support_size))
        kind, gen_name, l = kinds[t % len(kinds)]
        gen = builtin_generator(gen_name)
        exact = informativity_closed_form(gen_name, ens).value
        generic = covering_upper_bound(gen, ens, fam)
        err, assignment = covering_approx_error(gen, ens, fam)
        special = covering_specialization(kind, fam.size, err, l=l)
        worst = min(worst, generic - exact, special - exact)
        worst_relation = min(worst_relation, special - generic)
        if kind == "kl":
            avg_err = float(
                np.mean(
                    [
                        eval_divergence(gen, member, fam.candidates[j])
                        for member, j in zip(ens.members, assignment)
                    ]
                )
            )
            kl_identity = max(
                kl_identity, abs(generic - (math.log(fam.size) + avg_err))
            )
    passed = worst >= -1e-9 and worst_relation >= -1e-12 and kl_identity <= 1e-9
    return _record(
        "covering_validity",
        passed,
        trials=trials,
        worst_slack=worst,
        worst_specialization_slack=worst_relation,
        kl_identity_error=kl_identity,
    )


# ---------------------------------------------------------------------------
# entropy: the global bounds
# ---------------------------------------------------------------------------


def _constant_profile(n: float, m: float) -> EntropyProfile:
    return EntropyProfile(
        packing_lower=lambda eta: n,
        eta_max=100.0,
        covering_upper=lambda eps: m,
        covering_valid=lambda eps: True,
        kind="chi2",
        constants={"model": "constant", "n": n, "m": m},
    )


def check_entropy_arithmetic(seed: int = 0) -> dict:
    """Three frozen point evaluations of the entropy bound."""
    del seed
    loss = LossSpec(lambda x: 0.1, name="const")
    vals = (
        entropy_risk_bound("chi2", _constant_profile(100, 4), loss, 1.0, 1.0),
        entropy_risk_bound("kl", _constant_profile(1024, 4), loss, 1.0, 1.0),
        entropy_risk_bound("power_l", _constant_profile(100, 4), loss, 1.0, 1.0, l=3.0),
    )
    targets = (0.0707157287525381, 0.0555730495911104, 0.0851119444704617)
    worst = max(abs(v - t) for v, t in zip(vals, targets))
    return _record("entropy_arithmetic", worst <= 1e-5, worst_error=worst)


def check_entropy_monotonicity(seed: int = 0) -> dict:
    """The bound factor is non-decreasing in the packing count and
    non-increasing in the covering count."""
    del seed
    worst = math.inf
    loss = power_loss(1.0)
    for kind, l in (("kl", None), ("chi2", None), ("power_l", 3.0)):
        for m in (1.0, 2.0, 8.0):
            vals = [
                entropy_risk_bound(kind, _constant_profile(n, m), loss, 1.0, 1.0, l=l)
                for n in (4.0, 16.0, 256.0, 4096.0)
            ]
            worst = min(worst, min(b - a for a, b in zip(vals, vals[1:])))
        for n in (64.0, 1024.0):
            vals = [
                entropy_risk_bound(kind, _constant_profile(n, m), loss, 1.0, 1.0, l=l)
                for m in (1.0, 2.0, 4.0, 16.0)
            ]
            worst = min(worst, min(a - b for a, b in zip(vals, vals[1:])))
    return _record("entropy_monotonicity", worst >= -1e-12, worst_slack=worst)


def check_entropy_finite_chain(seed: int, trials: int = 60) -> dict:
    """Soundness of the chi2 entropy bound reproduced stepwise on explicit
    finite instances: with exact packing count, covering count, and max-min
    error, every link of the chain holds against exact oracle values."""
    rng = np.random.default_rng([seed, 40])
    chi2 = builtin_generator("chi2")
    loss = power_loss(1.0)
    worst = math.inf
    for _ in range(trials):
        ens = _random_ensemble(rng, n_max=6, support_max=8)
        m = int(rng.integers(1, 4))
        fam = CoveringFamily(candidates=_draw_members(rng, m, ens.support_size))
        n = ens.size
        err, _ = covering_approx_error(chi2, ens, fam)
        eps = math.sqrt(err) if err > 0 else 1e-9
        profile = _constant_profile(float(n), float(m))
        point = entropy_risk_bound("chi2", profile, loss, 2.0, eps)
        j_exact = informativity_closed_form("chi2", ens).value
        cover_j = covering_specialization("chi2", m, err)
        rbar = bayes_risk_exact(Ensemble(members=ens.members))
        # link 1: covering bound dominates the exact informativity
        worst = min(worst, cover_j - j_exact)
        # link 2: the chi2 risk bound at the exact informativity is sound
        risk_at_exact = 1.0 - 1.0 / n - math.sqrt(j_exact / n)
        worst = min(worst, rbar - risk_at_exact)
        # link 3: the entropy point value is the weakest element of the chain
        risk_at_cover = max(0.0, 1.0 - 1.0 / n - math.sqrt(cover_j / n))
        worst = min(worst, risk_at_cover - point)
        worst = min(worst, rbar - point)
    return _record(
        "entropy_finite_chain", worst >= -1e-9, trials=trials, worst_slack=worst
    )


def check_rate_contrast(seed: int = 0) -> dict:
    """Location-model contrast: with packing 1/eta and sample size n, the
    kl-kind factor at eta = 1/sqrt(n) is nonpositive for large n while the
    optimized chi2-kind bound scaled by n stays in a narrow band."""
    del seed
    n_values = (100, 1000, 10000)
    eps_grid = np.geomspace(0.01, 1.0, 33)
    kl_factors = []
    scaled = []
    for n in n_values:
        kl_prof = builtin_profile(
            "gaussian_1d", kind="kl", c1=1.0, c2=1.0, eta0=1.0, eps0=1.0, n=float(n)
        )
        eta = 1.0 / math.sqrt(n)
        best = -math.inf
        for eps in eps_grid:
            best = max(best, entropy_bound_factor("kl", kl_prof, eta, float(eps)))
        kl_factors.append(best)
        chi_prof = builtin_profile(
            "gaussian_1d", kind="chi2", c1=1.0, c2=1.0, eta0=1.0, eps0=1.0, n=float(n)
        )
        report = optimize_entropy_bound(
            "chi2",
            chi_prof,
            power_loss(2.0),
            np.geomspace(1e-3, 1.0, 64),
            eps_grid,
        )
        scaled.append(report.lower_bound * n)
    band = max(scaled) / min(scaled) if min(scaled) > 0 else math.inf
    passed = kl_factors[-1] <= 0.0 and band <= 3.0 and min(scaled) > 0
    return _record(
        "rate_contrast",
        passed,
        kl_factors=[float(v) for v in kl_factors],
        chi2_scaled_bounds=[float(v) for v in scaled],
        band_ratio=float(band),
    )


def check_ball_volumetrics(seed: int = 0) -> dict:
    """Packing/covering counts of the planar disc verified on a fine lattice:
    greedy maximal packings beat (Gamma/eta)^2 and are covers of size at most
    (3 Gamma/eps)^2.  Each radius is packed once, and a point counts as
    covered when some center within its lattice window
    (:func:`_lattice_window`) lies at distance at most eps."""
    del seed
    gamma = 1.0
    step = 0.02
    ax = np.arange(-gamma, gamma + step / 2, step)
    inside = ax[None, :] ** 2 + ax[:, None] ** 2 <= gamma**2
    packings = {r: _greedy_packing(ax, inside, r) for r in (0.15, 0.2, 0.3, 0.5)}
    ok = True
    details = {}
    for eta in (0.15, 0.2, 0.3):
        count = len(packings[eta])
        floor = (gamma / eta) ** 2
        details[f"packing_eta_{eta}"] = [count, floor]
        ok = ok and count >= floor
    for eps in (0.2, 0.3, 0.5):
        centers = packings[eps]
        ceil_count = (3.0 * gamma / eps) ** 2
        covered = np.zeros_like(inside)
        for i, j in centers:
            rows, cols, d2 = _lattice_window(ax, i, j, eps)
            covered[rows, cols] |= np.sqrt(d2) <= eps + 1e-12
        covers = bool(covered[inside].all())
        details[f"covering_eps_{eps}"] = [len(centers), ceil_count, covers]
        ok = ok and covers and len(centers) <= ceil_count
    return _record("ball_volumetrics", ok, **details)


def _greedy_packing(ax: np.ndarray, inside: np.ndarray, radius: float) -> list:
    """Greedy maximal packing of the lattice points (ax[j], ax[i]) where
    ``inside[i, j]``: in row-major order, each point still alive becomes a
    center and kills every point at squared distance below radius^2.  Only
    the center's lattice window can hold such points, so only it is
    tested.  Returns the centers' (i, j) in the order chosen."""
    alive = inside.copy()
    flat = alive.reshape(-1)
    chosen = []
    while True:
        at = int(flat.argmax())
        if not flat[at]:
            return chosen
        i, j = divmod(at, ax.size)
        chosen.append((i, j))
        rows, cols, d2 = _lattice_window(ax, i, j, radius)
        alive[rows, cols] &= d2 >= radius**2


def _lattice_window(ax: np.ndarray, i: int, j: int, radius: float) -> tuple:
    """The rows and columns within ceil(radius/step) + 1 lattice steps of
    point (i, j), and the squared distances (x - x_j)^2 + (y - y_i)^2 of
    their points to it.  Every lattice point outside lies at least one
    step beyond ``radius``, so no test with a threshold below that can
    reach it."""
    reach = math.ceil(radius / (ax[1] - ax[0])) + 1
    rows = slice(max(i - reach, 0), i + reach + 1)
    cols = slice(max(j - reach, 0), j + reach + 1)
    d2 = (ax[cols] - ax[j]) ** 2 + ((ax[rows] - ax[i]) ** 2)[:, None]
    return rows, cols, d2


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def check_gilbert_varshamov_count(seed: int = 0) -> dict:
    """For every k in 1..400 Gilbert's exact count
    ceil(2^k / sum_{i<ceil(k/4)} C(k, i)) reaches ceil(e^(k/8)), the code
    size the estimation bounds read.  The sums are exact integers from
    :func:`_binomial_prefix_sums`."""
    del seed
    short = [
        k
        for k, volume in enumerate(_binomial_prefix_sums(400), start=1)
        if -(-(1 << k) // volume) < math.ceil(math.exp(k / 8.0))
    ]
    return _record("gilbert_varshamov_count", not short, k_max=400, short_at=short)


def _binomial_prefix_sums(k_max: int) -> list:
    """sum_{i < ceil(k/4)} C(k, i) for k = 1..k_max, in order, from the rows
    of Pascal's triangle (C(k, i) = C(k-1, i-1) + C(k-1, i)) in exact
    integers.  Entry i of a row needs only entries up to i of the row
    before, so each row is kept to its first ceil(k_max/4) + 1 entries."""
    width = -(-k_max // 4)
    row = [1] + [0] * width
    sums = []
    for k in range(1, k_max + 1):
        row = [1] + [a + b for a, b in zip(row, row[1:])]
        sums.append(sum(row[: -(-k // 4)]))
    return sums


def check_code_invariants(seed: int) -> dict:
    ok = True
    details = {}
    for k in (8, 16, 24, 32):
        code = cons.varshamov_gilbert_code(k, seed=seed)
        good = cons.verify_code(code) and code.size >= math.ceil(math.exp(k / 8.0))
        details[f"k_{k}"] = [code.size, code.min_distance]
        ok = ok and good and code.min_distance >= k / 4.0
    return _record("code_invariants", ok, **details)


def check_spectral_separation(seed: int, trials: int = 100) -> dict:
    rng = np.random.default_rng([seed, 50])
    worst = math.inf
    for p, k, alpha in ((8, 3, 0.5), (12, 4, 1.0), (16, 6, 2.0)):
        fam = cons.build_cov_family(p, k, alpha)
        for _ in range(trials):
            tau = rng.integers(0, 2, size=k)
            tau_prime = rng.integers(0, 2, size=k)
            if np.array_equal(tau, tau_prime):
                continue
            achieved, guaranteed = cons.spectral_separation(fam, tau, tau_prime)
            worst = min(worst, achieved - guaranteed)
    return _record(
        "spectral_separation", worst >= -1e-10, trials=3 * trials, worst_slack=worst
    )


def check_kl_frobenius(seed: int, trials: int = 60) -> dict:
    rng = np.random.default_rng([seed, 51])
    worst_tail = math.inf
    worst_quad = math.inf
    worst_decay = -math.inf
    for _ in range(trials):
        k = int(rng.integers(3, 9))
        p = 2 * k + int(rng.integers(0, 4))
        alpha = float(rng.uniform(0.5, 2.0))
        fam = cons.build_cov_family(p, k, alpha)
        tau = rng.integers(0, 2, size=k).astype(float)
        m = int(rng.integers(1, k))
        rep = cons.kl_frobenius_check(fam, tau, m)
        worst_tail = min(worst_tail, rep.tail_bound - rep.frobenius_sq)
        if rep.frobenius_sq > 0:
            worst_quad = min(
                worst_quad, rep.c_spec * rep.frobenius_sq - rep.exact_kl
            )
    fam = cons.build_cov_family(24, 8, 1.0)
    cap = 1.0 / (fam.delta**2 * fam.alpha * (2 * fam.alpha + 1))
    for window in range(1, 7):
        m = fam.k - window
        if m < 1:
            continue
        rep = cons.kl_frobenius_check(fam, np.ones(fam.k), m)
        worst_decay = max(worst_decay, rep.tail_bound * window ** (2 * fam.alpha) - cap)
    passed = worst_tail >= -1e-12 and worst_quad >= -1e-12 and worst_decay <= 1e-12
    return _record(
        "kl_frobenius",
        passed,
        trials=trials,
        worst_tail_slack=worst_tail,
        worst_quadratic_slack=worst_quad,
        decay_excess=worst_decay,
    )


def check_cap_formulas(seed: int = 0) -> dict:
    del seed
    worst_closed = 0.0
    worst_floor = math.inf
    for eps in (0.005, 0.01, 0.02, 0.1, 0.3):
        geom = cons.cap_geometry(eps, 2, 1.0)
        closed = 2.0 * (geom.alpha_angle - math.sin(geom.alpha_angle))
        worst_closed = max(worst_closed, abs(cons.cap_distance(geom) - closed))
    for eps in np.geomspace(0.001, 0.5, 40):
        geom = cons.cap_geometry(float(eps), 2, 1.0)
        worst_floor = min(
            worst_floor,
            math.sin(geom.beta_angle)
            - math.sqrt(float(eps)) / (2.0 * math.sqrt(2.0)),
        )
    return _record(
        "cap_formulas",
        worst_closed <= 1e-9 and worst_floor >= -1e-12,
        closed_form_error=worst_closed,
        sin_beta_slack=worst_floor,
    )


def check_support_packing(seed: int) -> dict:
    res = cons.support_packing_bound(2, 1.0, 0.01, seed=seed)
    ok = res.n_caps == 22
    ok = ok and res.log_count >= res.n_caps / 8.0 - 1e-12
    # additivity: recompute a witness code's distances from per-cap terms
    code = cons.varshamov_gilbert_code(res.n_caps, seed=seed)
    ok = ok and code.size >= res.code_size
    packed_dists = []
    for i in range(code.size):
        for j in range(i + 1, code.size):
            ups = cons.hamming_distance(code.words[i], code.words[j])
            per_cap_sum = float(sum(res.cap_dist**res.geometry.p_index for _ in range(ups)))
            direct = ups * res.cap_dist**res.geometry.p_index
            packed_dists.append(abs(per_cap_sum - direct))
            ok = ok and direct ** (1.0 / res.geometry.p_index) >= res.min_distance - 1e-12
    additivity = max(packed_dists) if packed_dists else 0.0
    ratios = []
    for eps in (0.01, 0.02, 0.05, 0.1, 0.2):
        geom = cons.cap_geometry(eps, 2, 1.0)
        capd = cons.cap_distance(geom)
        ratios.append(capd / (eps * math.sqrt(eps)))
    ok = ok and min(ratios) > 0.5 and additivity <= 1e-12
    return _record(
        "support_packing",
        ok,
        n_caps=res.n_caps,
        code_size=res.code_size,
        additivity_error=additivity,
        claim_ratios=[float(r) for r in ratios],
    )


def check_covariance_smoke(seed: int) -> dict:
    """The full assembly at the smallest acceptance size is positive and its
    separation and KL-domination verifiers hold at the pipeline's own
    parameters."""
    report = cons.covariance_minimax_bound(64, 1.0, seed=seed)
    k = report.intermediates["k"]
    fam = cons.build_cov_family(report.inputs["p"], k, 1.0)
    rng = np.random.default_rng([seed, 52])
    worst = math.inf
    for _ in range(10):
        tau = rng.integers(0, 2, size=k)
        tau_prime = rng.integers(0, 2, size=k)
        if np.array_equal(tau, tau_prime):
            continue
        achieved, guaranteed = cons.spectral_separation(fam, tau, tau_prime)
        worst = min(worst, achieved - guaranteed)
    rep = cons.kl_frobenius_check(fam, np.ones(k), report.intermediates["m"])
    ok = (
        report.lower_bound > 0
        and not report.vacuous
        and worst >= -1e-10
        and rep.frobenius_sq <= rep.tail_bound + 1e-12
    )
    return _record(
        "covariance_smoke",
        ok,
        bound=report.lower_bound,
        spectral_slack=worst,
        tail_slack=rep.tail_bound - rep.frobenius_sq,
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _scaled(trials, default):
    return default if trials is None else trials


def _suite_core(seed: int, trials=None) -> list:
    return [
        check_product_marginals(seed, _scaled(trials, 50)),
        check_map_achieves_bayes(seed, _scaled(trials, 200)),
        check_bayes_concavity(seed, _scaled(trials, 200)),
        check_minimax_dominates_priors(seed, min(_scaled(trials, 60), 200)),
    ]


def _suite_mixture(seed: int, trials=None) -> list:
    return [
        check_weighted_soundness(seed, _scaled(trials, 400)),
        check_uniform_floor_shape(seed, _scaled(trials, 40)),
        check_two_point_sharpness(seed),
        check_pair_inequalities(seed, _scaled(trials, 400)),
        check_pinsker_constant(seed),
        check_named_bound_soundness(seed, _scaled(trials, 400)),
        check_implicit_vs_oracle(seed, _scaled(trials, 120)),
    ]


def _suite_jf(seed: int, trials=None) -> list:
    return [
        check_informativity_oracles(seed, min(_scaled(trials, 60), 200)),
        check_compensation_identity(seed, _scaled(trials, 200)),
        check_upper_chain(seed, _scaled(trials, 150)),
        check_covering_validity(seed, _scaled(trials, 300)),
    ]


def _suite_entropy(seed: int, trials=None) -> list:
    return [
        check_entropy_arithmetic(),
        check_entropy_monotonicity(),
        check_entropy_finite_chain(seed, _scaled(trials, 60)),
        check_rate_contrast(),
        check_ball_volumetrics(),
    ]


def _suite_constructions(seed: int, trials=None) -> list:
    return [
        check_gilbert_varshamov_count(),
        check_code_invariants(seed),
        check_spectral_separation(seed, min(_scaled(trials, 100), 100)),
        check_kl_frobenius(seed, min(_scaled(trials, 60), 100)),
        check_cap_formulas(),
        check_support_packing(seed),
        check_covariance_smoke(seed),
    ]


_SUITES = {
    "core": _suite_core,
    "mixture": _suite_mixture,
    "jf": _suite_jf,
    "entropy": _suite_entropy,
    "constructions": _suite_constructions,
}


def run_suite(name: str = "all", seed: int = 0, trials=None) -> dict:
    """Run one suite (or all) and return a deterministic report."""
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    suites = {}
    for suite_name in names:
        checks = _SUITES[suite_name](seed, trials)
        suites[suite_name] = {
            "checks": checks,
            "pass": all(c["pass"] for c in checks),
        }
    return {
        "seed": seed,
        "suites": suites,
        "pass": all(s["pass"] for s in suites.values()),
    }
