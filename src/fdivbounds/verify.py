"""Invariant suites: every inequality the library claims, checked against
brute-force oracles at desk scale.

Each check returns a JSON-able record with the worst observed slack (negative
slack breaks an inequality) and a pass flag; suites aggregate checks.  All
randomness flows from seeded generators, so reports are byte-identical across
runs with the same seed.  The same functions back the ``verify`` subcommand
and the acceptance tests (which raise the trial counts).
"""

from __future__ import annotations

import copy
import functools
import math
import time
from typing import NamedTuple

import numpy as np

from .distributions import (
    DiscreteDistribution,
    Ensemble,
    check_mass_rows,
    product_distribution,
)
from .divergences import (
    DivergenceGenerator,
    apply_generator,
    builtin_generator,
    default_generators,
    divergence_matrix,
    squared_hellingers,
    total_variations,
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
    closed_forms,
    covering_bounds,
    covering_errors,
    covering_specializations,
    kkt_solutions,
    simple_upper_chains,
)
from .mixture_bounds import (
    ensemble_statistics,
    implicit_risk_bound,
    map_reference_masses,
    named_bound_from_ensemble,
    named_risk_bounds,
    tangent_risk_bound,
    two_point_pairs,
    two_point_sums,
    two_point_target,
    uniform_divergence_floor,
    weighted_divergence_floor,
    weighted_sums,
)
from .testing_risk import (
    bayes_risks,
    error_probabilities,
    map_tests,
    minimax_risks,
)
from . import constructions as cons


def _record(name: str, passed: bool, **extra) -> dict:
    out = {"name": name, "pass": bool(passed)}
    out.update(extra)
    return out


def _normalized(raw: np.ndarray) -> np.ndarray:
    """Flat-Dirichlet rows from standard exponentials ``raw`` (..., S): each
    row times the reciprocal of its left-to-right sum.  For alpha = 1
    numpy's ``Generator.dirichlet`` draws the same exponentials from the
    stream and scales them the same way, so a row drawn as
    ``rng.standard_exponential(s)`` and normalized here has exactly the
    bits of ``rng.dirichlet(np.ones(s))``, and leaves the stream at the same
    position.  ``np.cumsum`` keeps that left-to-right order, where
    ``.sum()`` adds pairwise from 8 points on."""
    return raw * (1.0 / np.cumsum(raw, axis=-1)[..., -1:])


def _draw_arrays(
    rng: np.random.Generator,
    n_max: int = 6,
    support_max: int = 12,
    with_prior: bool = False,
) -> tuple:
    """A random ensemble as raw arrays, in this random-stream order: the
    member count n (2 <= n <= n_max), the point count s
    (2 <= s <= support_max), n x s standard exponentials for the members
    and n for the prior, or None.  :func:`_normalized` makes them the
    flat-Dirichlet members and prior that n + 1 single Dirichlet draws
    would give; :func:`_stacked` does that once per shape group, and
    :func:`_by_support` once per support size."""
    n = int(rng.integers(2, n_max + 1))
    s = int(rng.integers(2, support_max + 1))
    members = rng.standard_exponential((n, s))
    prior = rng.standard_exponential(n) if with_prior else None
    return members, prior


def _draw_family(rng: np.random.Generator, m: int, s: int, rows: int) -> np.ndarray:
    """m raw flat-Dirichlet candidates on s points (see :func:`_draw_arrays`),
    padded to ``rows`` rows by repeating the first, so that families of
    different sizes stack (see :func:`.informativity.covering_errors`)."""
    cands = rng.standard_exponential((m, s))
    return np.concatenate([cands, np.repeat(cands[:1], rows - m, axis=0)])


def _by_shape(arrays) -> list:
    """(shape, trial indices) for each shape among ``arrays``, in order of
    first appearance."""
    groups: dict = {}
    for i, arr in enumerate(arrays):
        groups.setdefault(arr.shape, []).append(i)
    return [(shape, np.array(idx)) for shape, idx in groups.items()]


def _stacked(arrays, idx) -> np.ndarray:
    """The raw draws ``arrays`` at ``idx``, which share one shape, stacked
    and normalized (:func:`_normalized`), every row checked as the
    distribution classes check a pmf or a prior (``check_mass_rows``).
    The checks whose library calls average over the member axis stack
    each (members x points) shape group (:func:`_by_shape`); the others
    use :func:`_by_support`."""
    return check_mass_rows(_normalized(np.stack([arrays[i] for i in idx])))


class _SupportGroup(NamedTuple):
    """The trials of one support size s, from :func:`_by_support`."""

    #: the trials' indices, in draw order
    idx: np.ndarray
    #: each trial's member count n
    counts: np.ndarray
    #: every member row, normalized and checked, trial after trial (R, s)
    rows: np.ndarray
    #: True at each trial's real members (B, n_max)
    live: np.ndarray
    #: each trial's rows, zero past its count (B, n_max, s)
    members: np.ndarray

    def divergences(self, gen: DivergenceGenerator, qs) -> np.ndarray:
        """D_f(P_theta||Q) of every member row against its trial's
        reference, ``qs`` (B, s), in one kernel call on the flat rows,
        laid out per trial (B, n_max), zero past each trial's count."""
        paired = np.repeat(qs, self.counts, axis=0)[:, None]
        out = np.zeros(self.live.shape)
        out[self.live] = divergence_matrix(gen, self.rows[:, None], paired)[:, 0, 0]
        return out

    def priors(self, arrays) -> np.ndarray:
        """Raw per-trial draws ``arrays`` (..., n) zero-padded to n_max
        entries (B, ..., n_max), then normalized and checked as
        :func:`_stacked` does.  The zeros leave each row's total, and so
        its normalized entries, with the bits of the unpadded row."""
        lead = np.shape(arrays[self.idx[0]])[:-1]
        raw = np.zeros((len(self.idx),) + lead + self.live.shape[1:])
        for j, (i, n) in enumerate(zip(self.idx, self.counts)):
            raw[j, ..., :n] = arrays[i]
        return check_mass_rows(_normalized(raw), "prior")


def _by_support(members) -> list:
    """The raw member draws ``members`` (each n x s) grouped by support
    size s alone, in order of first appearance, as :class:`_SupportGroup`:
    at most 11 groups in verify's sweeps, where (n, s) shapes give up to
    55, each paying its own stacking, row check and library calls.

    Every member row is normalized and checked once, as the flat rows
    (R, s) that the divergence kernel reads paired with its trial's
    reference (:meth:`_SupportGroup.divergences`), and laid out per trial
    with zero rows past each count (B, n_max, s) for the maxima,
    argmaxima and member sums.  A check reads the same bits as one (n, s)
    group would give it, because
    - the kernel reduces over points only, so each row's divergence is
      that of its own call;
    - the zero rows come after the real members, so they change no max
      of the non-negative w_theta p_theta(x) and no first-index argmax;
    - a sum over the member axis adds them last, and adding 0 to a sum
      of fewer than 8 terms (added left to right) changes no bit.
    The weights of a weighted sum are not padded: a zero weight sends
    :func:`.mixture_bounds.weighted_sums` down its per-instance loop, one
    dot product per trial, to redo the 0 * inf = NaN of a padded row."""
    groups: dict = {}
    for i, arr in enumerate(members):
        groups.setdefault(arr.shape[-1], []).append(i)
    out = []
    for idx in groups.values():
        counts = np.array([len(members[i]) for i in idx])
        rows = check_mass_rows(_normalized(np.concatenate([members[i] for i in idx])))
        live = np.arange(counts.max()) < counts[:, None]
        padded = np.zeros(live.shape + rows.shape[1:])
        padded[live] = rows
        out.append(_SupportGroup(np.array(idx), counts, rows, live, padded))
    return out


def _fold_min(start: float, values) -> float:
    """``min(start, v)`` folded over ``values`` in C order, as the builtin
    does it: a NaN never replaces the running value, and of equal values
    the first stays (so a 0.0 stays ahead of a later -0.0)."""
    vals = np.ravel(values)
    vals = vals[~np.isnan(vals)]
    if not (vals.size and vals.min() < start):
        return start
    return float(vals[np.argmax(vals == vals.min())])


def _fold_max(start: float, values) -> float:
    """``max(start, v)`` folded over ``values``, as :func:`_fold_min`."""
    return -_fold_min(-start, -np.ravel(values))


# ---------------------------------------------------------------------------
# core: distributions and exact testing risks
# ---------------------------------------------------------------------------


def check_product_marginals(seed: int, trials: int) -> dict:
    rng = np.random.default_rng([seed, 10])
    worst = 0.0
    for _ in range(trials):
        s = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        base = DiscreteDistribution(_normalized(rng.standard_exponential(s)))
        prod = product_distribution(base, n)
        cube = prod.pmf.reshape((s,) * n)
        for axis in range(n):
            other = tuple(a for a in range(n) if a != axis)
            marg = cube.sum(axis=other) if other else cube
            worst = max(worst, float(np.abs(marg - base.pmf).max()))
        worst = max(worst, abs(float(prod.pmf.sum()) - 1.0))
    return _record("product_marginals", worst <= 1e-12, trials=trials, worst_error=worst)


def check_map_achieves_bayes(seed: int, trials: int) -> dict:
    """The MAP test's error equals the Bayes risk, with and without a
    prior.  Trials are drawn one by one and scored by shape; the uniform
    prior is kept raw as ones, which normalize to exactly 1/n."""
    rng = np.random.default_rng([seed, 11])
    members, priors = [], []
    for _ in range(trials):
        with_prior = bool(rng.integers(0, 2))
        pmat, prior = _draw_arrays(rng, with_prior=with_prior)
        members.append(pmat)
        priors.append(np.ones(len(pmat)) if prior is None else prior)
    gaps = np.empty(trials)
    for group in _by_support(members):
        pmats, w = group.members, group.priors(priors)
        errors = error_probabilities(w, pmats, map_tests(w, pmats))
        gaps[group.idx] = np.abs(errors - bayes_risks(w, pmats))
    worst = _fold_max(0.0, gaps)
    return _record("map_achieves_bayes", worst <= 1e-12, trials=trials, worst_error=worst)


def check_bayes_concavity(seed: int, trials: int) -> dict:
    """The Bayes risk is concave in the prior: at the midpoint of two
    drawn priors it is at least the mean of theirs."""
    rng = np.random.default_rng([seed, 12])
    members, firsts, seconds = [], [], []
    for _ in range(trials):
        pmat, _ = _draw_arrays(rng)
        members.append(pmat)
        firsts.append(rng.standard_exponential(len(pmat)))
        seconds.append(rng.standard_exponential(len(pmat)))
    slacks = np.empty(trials)
    for group in _by_support(members):
        pmats = group.members
        w1, w2 = group.priors(firsts), group.priors(seconds)
        mid = check_mass_rows((w1 + w2) / 2.0, "prior")
        halves = (bayes_risks(w1, pmats) + bayes_risks(w2, pmats)) / 2.0
        slacks[group.idx] = bayes_risks(mid, pmats) - halves
    worst = _fold_min(math.inf, slacks)
    return _record("bayes_concavity", worst >= -1e-12, trials=trials, worst_slack=worst)


def check_minimax_dominates_priors(seed: int, trials: int) -> dict:
    """The certified minimax risk dominates every drawn prior's Bayes risk,
    the uniform one included, stays below 1 - 1/N, and its certificate's
    gap is at most 1e-9.  All member matrices go to one ``minimax_risks``
    call, in draw order, which sorts the two-member ones and solves the
    rest as one block-diagonal LP; the six priors of each trial (the
    uniform one kept raw as ones) are scored with one Bayes-risk call per
    support size."""
    rng = np.random.default_rng([seed, 13])
    tol = 1e-6
    members, priors = [], []
    for _ in range(trials):
        pmat, _ = _draw_arrays(rng, n_max=4, support_max=8)
        members.append(pmat)
        priors.append(np.vstack([rng.standard_exponential((5, len(pmat))), np.ones(len(pmat))]))
    groups = _by_support(members)
    for group in groups:  # the normalized members, in draw order
        for j, (i, n) in enumerate(zip(group.idx, group.counts)):
            members[i] = group.members[j, :n]
    results = minimax_risks(members, tol=tol)
    values = np.array([res.value for res in results])
    slacks = np.empty((trials, 7))
    for group in groups:
        risks = bayes_risks(group.priors(priors), group.members[:, None])
        at = values[group.idx]
        slacks[group.idx, :5] = at[:, None] + tol - risks[:, :5]
        slacks[group.idx, 5] = at - risks[:, 5]
        slacks[group.idx, 6] = 1.0 - 1.0 / group.counts + 1e-12 - at
    worst = _fold_min(math.inf, slacks)
    worst_gap = _fold_max(0.0, [res.duality_gap for res in results])
    return _record(
        "minimax_dominates_priors",
        worst >= -1e-12 and worst_gap <= 1e-9,
        trials=trials,
        worst_slack=worst,
        worst_gap=worst_gap,
    )


# ---------------------------------------------------------------------------
# mixture: the core inequality and its named specializations
# ---------------------------------------------------------------------------


def check_weighted_soundness(seed: int, trials: int) -> dict:
    """The central sweep: random ensembles, priors, references, and every
    built-in generator; the weighted divergence sum must dominate the floor.
    Trials whose MAP reference mass W is 0 or 1 are skipped, and an
    infinite sum is counted as checked.  One kernel call per support size
    and generator on the member rows (:func:`_by_support`), one
    weighted-sum call per member count and generator, and one floor call
    per generator."""
    rng = np.random.default_rng([seed, 20])
    gens = default_generators()
    members, priors, refs = [], [], []
    dead = np.zeros(trials, dtype=bool)
    for t in range(trials):
        pmat, prior = _draw_arrays(rng, with_prior=True)
        s = pmat.shape[1]
        q = rng.standard_exponential(s)
        if t % 7 == 0 and s > 2:
            # exercise references with a dead point; the sum may be infinite
            q = _normalized(q)
            q[int(rng.integers(0, s))] = 0.0
            q = q / q.sum()
            dead[t] = True
        members.append(pmat)
        priors.append(prior)
        refs.append(q)
    # per trial: W, the Bayes risk, the prior and each member's divergence
    # per generator, padded past the member count; then each generator's
    # sums per member count, unpadded; the floor is elementwise, so each
    # generator gets one floor call over all trials
    ns = np.array([len(pmat) for pmat in members])
    w_mass, rbar = np.empty(trials), np.empty(trials)
    weights = np.zeros((trials, ns.max()))
    divs = np.zeros((len(gens), trials, ns.max()))
    for group in _by_support(members):
        idx, pmats, w = group.idx, group.members, group.priors(priors)
        qs, raw = np.stack([refs[i] for i in idx]), ~dead[idx]
        qs[raw] = _normalized(qs[raw])  # dead-point references came normalized
        check_mass_rows(qs)
        w_mass[idx] = map_reference_masses(w, pmats, qs)
        rbar[idx] = bayes_risks(w, pmats)
        weights[idx, : w.shape[1]] = w
        for g, gen in enumerate(gens):
            divs[g, idx, : w.shape[1]] = group.divergences(gen, qs)
    sums = np.empty((trials, len(gens)))
    for n in np.unique(ns):
        at = ns == n
        for g in range(len(gens)):
            sums[at, g] = weighted_sums(weights[at, :n], divs[g, at, :n])
    valid = (0.0 < w_mass) & (w_mass < 1.0)
    # slack per (trial, generator); NaN where nothing is checked
    slacks = np.full((trials, len(gens)), math.nan)
    for g, gen in enumerate(gens):
        live = valid & ~np.isinf(sums[:, g])
        floor = weighted_divergence_floor(gen, w_mass[live], rbar[live])
        slacks[live, g] = sums[live, g] - floor
    worst = _fold_min(math.inf, slacks)
    checked = int(valid.sum()) * len(gens)
    return _record(
        "weighted_soundness", worst >= -1e-9, trials=checked, worst_slack=worst
    )


def check_uniform_floor_shape(seed: int, trials: int) -> dict:
    """The uniform divergence floor is non-increasing and midpoint convex.
    Each generator's trials are evaluated in two floor calls."""
    rng = np.random.default_rng([seed, 21])
    gens = default_generators()
    picks, ns = np.empty(trials, dtype=int), np.empty(trials, dtype=int)
    for t in range(trials):
        picks[t] = int(rng.integers(0, len(gens)))
        ns[t] = int(rng.integers(2, 7))
    grids = np.stack([np.linspace(0.0, 1.0 - 1.0 / n, 33) for n in ns])
    vals = np.empty_like(grids)
    # midpoints of grid points i and i + 2 for i = 0, 3, ..., 27
    mid_vals = np.empty((trials, 10))
    for g in np.unique(picks):
        sel = picks == g
        n = ns[sel, None]
        vals[sel] = uniform_divergence_floor(gens[g], n, grids[sel])
        mids = (grids[sel, 0:28:3] + grids[sel, 2:30:3]) / 2.0
        mid_vals[sel] = uniform_divergence_floor(gens[g], n, mids)
    chords = (vals[:, 0:28:3] + vals[:, 2:30:3]) / 2.0
    with np.errstate(invalid="ignore"):  # inf - inf where a value is infinite
        gaps = chords - mid_vals
    convex = np.where(np.isfinite(mid_vals) & np.isfinite(chords), gaps, math.nan)
    # per trial: the least decrease between finite neighbours, then the chords
    slacks = np.full((trials, 11), math.nan)
    slacks[:, 1:] = convex
    for t, row in enumerate(vals):
        finite = row[np.isfinite(row)]
        if finite.size > 1:
            slacks[t, 0] = float((finite[:-1] - finite[1:]).min())
    worst = _fold_min(math.inf, slacks)
    return _record(
        "uniform_floor_shape", worst >= -1e-10, trials=trials, worst_slack=worst
    )


def _two_point_objective(gen, v: float, a_grid, c_grid) -> np.ndarray:
    """D_f(P1||Q) + D_f(P2||Q) on the two-point family with TV = v, where
    P1 = (a, 1-a), P2 = (a-v, 1-a+v), Q = (c, 1-c), for every a of the
    1-D ``a_grid`` against every c of the 1-D ``c_grid``: an (A, C) array."""
    a = a_grid[:, None]
    c = c_grid[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        total = c * apply_generator(gen, a / c)
        total = total + (1 - c) * apply_generator(gen, (1 - a) / (1 - c))
        total = total + c * apply_generator(gen, (a - v) / c)
        total = total + (1 - c) * apply_generator(gen, (1 - a + v) / (1 - c))
    return total


#: refinement rounds of the two-point grid minimizer
_TWO_POINT_ROUNDS = 4


def minimize_two_points(gen: DivergenceGenerator, vs) -> np.ndarray:
    """Numeric minimum of the two-point divergence sum at every total
    variation in ``vs``, by nested grid refinement (81 points per axis per
    round), one total variation at a time."""
    best = []
    for v in np.asarray(vs, dtype=float).tolist():
        a_lo, a_hi, c_lo, c_hi = v, 1.0, 1e-9, 1.0 - 1e-9
        low = math.inf
        for _ in range(_TWO_POINT_ROUNDS):
            a_grid, c_grid = np.linspace(a_lo, a_hi, 81), np.linspace(c_lo, c_hi, 81)
            vals = _two_point_objective(gen, v, a_grid, c_grid).reshape(-1)
            vals = np.where(np.isnan(vals), math.inf, vals)
            at = int(vals.argmin())
            low = min(low, vals[at])
            a_step = (a_hi - a_lo) / 80.0
            c_step = (c_hi - c_lo) / 80.0
            a_c, c_c = a_grid[at // 81], c_grid[at % 81]
            a_lo, a_hi = max(v, a_c - 2 * a_step), min(1.0, a_c + 2 * a_step)
            c_lo, c_hi = max(1e-12, c_c - 2 * c_step), min(1.0 - 1e-12, c_c + 2 * c_step)
        best.append(low)
    return np.array(best)


def check_two_point_sharpness(seed: int) -> dict:
    """The constructive witness hits f(1+V)+f(1-V) to 1e-12 and the numeric
    minimum over two-point instances agrees to 1e-6, at 11 total variations
    in [0, 1] for each generator.  The witness sums take one array call per
    generator; :func:`minimize_two_points` refines one total variation at a
    time."""
    del seed  # deterministic grid check
    gens = [builtin_generator(g) for g in ("kl", "chi2", "power:3")]
    v_grid = np.round(np.linspace(0.0, 1.0, 11), 10)
    pairs = check_mass_rows(two_point_pairs(v_grid))
    # (v, generator) entries, v-major as the checks run
    witness, numeric = np.empty((v_grid.size, len(gens))), np.empty((v_grid.size, len(gens)))
    for g, gen in enumerate(gens):
        target = two_point_target(v_grid, gen)
        witness[:, g] = np.abs(two_point_sums(gen, pairs) - target)
        numeric[:, g] = minimize_two_points(gen, v_grid) - target
    worst_witness = _fold_max(0.0, witness)
    worst_numeric = _fold_max(0.0, np.abs(numeric))
    floor_slack = _fold_min(math.inf, numeric)
    passed = worst_witness <= 1e-12 and worst_numeric <= 1e-6 and floor_slack >= -1e-9
    return _record(
        "two_point_sharpness",
        passed,
        trials=int(len(v_grid) * 3),
        worst_witness_error=worst_witness,
        worst_numeric_error=worst_numeric,
        numeric_floor_slack=floor_slack,
    )


def check_pair_inequalities(seed: int, trials: int) -> dict:
    """Pinsker, the mixture-KL/total-variation inequality, and the
    Hellinger/total-variation inequality on random pairs, scored by
    support size."""
    rng = np.random.default_rng([seed, 22])
    kl = builtin_generator("kl")
    pairs = []
    for _ in range(trials):
        s = int(rng.integers(2, 17))
        pairs.append(rng.standard_exponential((2, s)))
    # per trial: Pinsker, the mixture inequality (NaN where vacuous), Hellinger
    slacks = np.full((trials, 3), math.nan)
    for _, idx in _by_shape(pairs):
        both = _stacked(pairs, idx)
        p1, p2 = both[:, 0], both[:, 1]
        v = total_variations(p1, p2)
        slacks[idx, 0] = divergence_matrix(kl, p1[:, None], p2[:, None])[:, 0, 0] - 2.0 * v * v
        mix = check_mass_rows((p1 + p2) / 2.0)
        to_mix = divergence_matrix(kl, both, mix[:, None])
        lhs = to_mix[:, 0, 0] + to_mix[:, 1, 0]
        for i, t in enumerate(idx):
            if v[i] < 1:
                rhs = (1 + v[i]) * math.log1p(v[i]) + (1 - v[i]) * math.log1p(-v[i])
                slacks[t, 1] = lhs[i] - rhs
        h_sq = squared_hellingers(p1, p2)
        slacks[idx, 2] = np.sqrt(h_sq) * np.sqrt(1 - h_sq / 4.0) - v
    worst = _fold_min(math.inf, slacks)
    return _record(
        "pair_inequalities", worst >= -1e-12, trials=trials, worst_slack=worst
    )


def check_pinsker_constant(seed: int) -> dict:
    """The factor 2 in D >= 2V^2 is approached by two-point pairs: the best
    ratio D/(2V^2) over a near-degenerate family comes within 5% of 1."""
    del seed
    t = np.geomspace(1e-4, 0.49, 200)
    p1 = check_mass_rows(np.stack([0.5 + t, 0.5 - t], axis=1))
    p2 = check_mass_rows(np.stack([0.5 - t, 0.5 + t], axis=1))
    divs = divergence_matrix(builtin_generator("kl"), p1[:, None], p2[:, None])[:, 0, 0]
    v = 2.0 * t
    best = _fold_min(math.inf, divs / (2.0 * v * v))
    return _record(
        "pinsker_constant", 1.0 - 1e-12 <= best <= 1.05, best_ratio=float(best)
    )


def check_named_bound_soundness(seed: int, trials: int) -> dict:
    """Every named bound fed exact ensemble statistics stays below the exact
    uniform-prior Bayes risk; the chi2 bound is tight on identical members.
    Statistics and bounds are computed per shape, one family at a time."""
    rng = np.random.default_rng([seed, 23])
    families = ("fano", "chi2", "hellinger", "tv", "power_l")
    members = [_draw_arrays(rng, n_max=5, support_max=8)[0] for _ in range(trials)]
    slacks = np.empty((trials, len(families)))
    for (n, _), idx in _by_shape(members):
        pmats = _stacked(members, idx)
        rbar = bayes_risks(np.full(n, 1.0 / n), pmats)
        for f, fam in enumerate(families):
            stat, minimizers = ensemble_statistics(fam, pmats)
            if minimizers is not None:
                check_mass_rows(minimizers)
            bound = np.minimum(np.maximum(named_risk_bounds(fam, n, stat), 0.0), 1.0)
            slacks[idx, f] = rbar - bound
    worst = _fold_min(math.inf, slacks)
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


def check_implicit_vs_oracle(seed: int, trials: int) -> dict:
    """Inverting the uniform floor at the exact informativity never beats the
    exact Bayes risk; the tangent relaxation never beats the inversion.
    The generator cycles with the trial; informativities are computed per
    shape and generator, and each generator's bisections run together."""
    rng = np.random.default_rng([seed, 24])
    names = ("kl", "chi2", "hellinger_half", "power:3")
    members, anchors = [], np.empty(trials)
    for t in range(trials):
        pmat, _ = _draw_arrays(rng, n_max=5, support_max=8)
        members.append(pmat)
        anchors[t] = float(rng.uniform(0.0, 1.0 - 1.0 / len(pmat) - 1e-6))
    cycle = np.arange(trials) % len(names)
    ns = np.array([len(pmat) for pmat in members])
    rbar, totals = np.empty(trials), np.empty(trials)
    for (n, _), idx in _by_shape(members):
        pmats = _stacked(members, idx)
        rbar[idx] = bayes_risks(np.full(n, 1.0 / n), pmats)
        for k, name in enumerate(names):
            sel = cycle[idx] == k
            if sel.any():
                minimizers, values = closed_forms(name, pmats[sel])
                check_mass_rows(minimizers)
                totals[idx[sel]] = n * values
    bounds, tangents = np.empty(trials), np.empty(trials)
    for k, name in enumerate(names):
        sel = cycle == k
        gen = builtin_generator(name)
        bounds[sel] = implicit_risk_bound(gen, ns[sel], totals[sel])
        tangents[sel] = tangent_risk_bound(gen, ns[sel], totals[sel], anchors[sel])
    worst = _fold_min(math.inf, rbar - bounds)
    worst_tangent = _fold_min(math.inf, bounds - tangents)
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


def grid_informativity(gen: DivergenceGenerator, pmat: np.ndarray, step: float = 1e-3) -> float:
    """Grid-search oracle for the informativity of the members ``pmat``
    (N, S): a coarse sweep of the simplex followed by nested local grids
    down to ``step``.  The objective is convex, so the coarse argmin
    localizes the optimum and the refinement is exhaustive at the final
    resolution.

    The coarse sweep (:func:`_coarse_minimum`) screens the grid with an
    approximate objective and evaluates exactly only the cells within a
    rounding margin of its minimum; the refinement evaluates its small
    grids whole (:func:`_grid_objective`).  Both give the minimum and
    first argmin that exact values on every cell give, bit for bit."""
    s = pmat.shape[1]
    coarse = 0.02 if s <= 4 else 0.05
    best, at = _coarse_minimum(gen, pmat, coarse)
    center = _simplex_grid(s, coarse)[at]
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
    independent of it: f(0+) where p = 0 < q (through
    :func:`.divergences.apply_generator`), and where q = 0 the term is +inf
    if p > 0, else 0."""
    live = q > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = apply_generator(gen, p / np.where(live, q, 1.0))
        return np.where(live, q * vals, np.where(p > 0, np.inf, 0.0))


def _grid_objective(gen: DivergenceGenerator, pmat: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """(1/N) sum_theta D_f(P_theta||q) for every row q of ``qs``.  One
    member at a time, so the temporaries stay at the grid's size."""
    total = np.zeros(qs.shape[0])
    for p in pmat:
        total = total + _terms(gen, p, qs).sum(axis=1)
    return total / pmat.shape[0]


def _coarse_minimum(gen: DivergenceGenerator, pmat: np.ndarray, step: float) -> tuple:
    """(min, first argmin) of :func:`_grid_objective` over the whole of
    ``_simplex_grid(S, step)``, bit for bit, without its exact value on
    every cell.

    The objective separates over points, and on the grid's lattice
    (:func:`_grid_columns`) each leading column depends on its own lattice
    axes and the last two take far fewer distinct values than there are
    cells.  So a screen sums each column's terms over the members first,
    broadcasts the leading ones and gathers the last two once each.  Its
    value A(c) adds the same m = N*S terms as the exact N*V(c), in
    another order.

    The margin.  Any order of m terms is within gamma*B_c of their real
    sum, where gamma = (m - 1)u/(1 - (m - 1)u), u = 2^-53 and B_c is the
    cell's sum of absolute terms; the division by N adds a relative u and
    at most 2^-1075 where it underflows.  So a cell with
    A(c) > A(c0) + 4*gamma*B + 3u*B + N*2^-1074, c0 the screen's argmin
    and B >= every B_c, has V(c) > V(c0) >= min V.  B is the sum over
    members and columns of the largest finite absolute term each member
    has in the column: a cell with a +inf term has V = A = +inf.  The margin
    8*m*u*B + 2^-1022 covers that bound, the rounding of B and that of
    the threshold, so every cell of the exact minimum lies within it;
    :func:`_grid_objective` evaluates those cells in ascending order.
    Where the screen's minimum is not finite (a NaN or -inf term, or
    every cell +inf) or B is past 2^1000, where a sum could overflow,
    every cell is evaluated exactly."""
    grid = _simplex_grid(pmat.shape[1], step)
    leading, ((values0, cells0), (values1, cells1)) = _grid_columns(pmat.shape[1], step)
    p = pmat.reshape(pmat.shape + (1,) * cells0.ndim)
    x = len(leading)
    terms = [_terms(gen, p[:, k], values) for k, values in enumerate(leading)]
    terms.append(_terms(gen, pmat[:, x, None], values0))
    terms.append(_terms(gen, pmat[:, x + 1, None], values1))
    with np.errstate(invalid="ignore", over="ignore"):
        sums = [t.sum(axis=0) for t in terms]
        approx = sums[x][cells0] + sum(sums[:x])
        approx += sums[x + 1][cells1]
        bound = sum(
            np.max(np.abs(t), axis=tuple(range(1, t.ndim)), where=np.isfinite(t), initial=0.0).sum()
            for t in terms
        )
    low = float(approx.min())
    if math.isfinite(low) and bound < 2.0**1000:
        margin = 8.0 * pmat.size * 2.0**-53 * bound + 2.0**-1022
        cells = np.flatnonzero(approx <= low + margin)
    else:
        cells = np.arange(grid.shape[0])
    vals = _grid_objective(gen, pmat, grid[cells])
    at = int(np.argmin(vals))
    return float(vals[at]), int(cells[at])


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
    """The columns of ``_simplex_grid(s, step)`` on its lattice: the grid's
    rows are the cells of a (1/step + 1)^(s - 1) lattice in C order, and
    column x depends only on the first min(x + 1, s - 1) lattice indices.

    Returns (leading, gathered).  ``leading`` holds columns 0 to s - 3,
    column x as an array of the lattice's shape with every axis past the
    x-th of length 1, ready to broadcast.  ``gathered`` holds the last two
    columns, which span the whole lattice, as their distinct values and
    each cell's index into them, in the lattice's shape; they hold more
    than 1/step + 1 values (at s = 4 and step 0.02: 12,996 and 22,928 of
    132,651 cells), still far fewer than the cells.  Cached and read-only,
    like the grid."""
    grid = _simplex_grid(s, step)
    lattice = (int(round(1.0 / step)) + 1,) * (s - 1)
    leading = []
    for x in range(s - 2):
        axes = tuple(slice(None) if a <= x else slice(0, 1) for a in range(s - 1))
        leading.append(grid[:, x].reshape(lattice)[axes])
    gathered = []
    for col in grid[:, s - 2 :].T:
        values, cells = np.unique(col, return_inverse=True)
        cells = cells.reshape(lattice)
        values.setflags(write=False)
        cells.setflags(write=False)
        gathered.append((values, cells))
    return tuple(leading), tuple(gathered)


def informativity_oracle_draws(seed: int, trials: int) -> list:
    """The seeded members of :func:`check_informativity_oracles` as
    arrays: 2 to 4 flat-Dirichlet members on 2 to 4 points, an n x s array
    per trial, each normalized on its own (:func:`_normalized`), since the
    grid oracle reads single trials."""
    rng = np.random.default_rng([seed, 30])
    draws = []
    for _ in range(trials):
        s = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        draws.append(_normalized(rng.standard_exponential((n, s))))
    return draws


def check_informativity_oracles(
    seed: int, trials: int, grid_stride: int = 5
) -> dict:
    """Closed forms match the KKT solver to 1e-6 (all three standard
    generators per ensemble) and the grid-search oracle to 2e-3 (one
    generator per ensemble, cycling; every ensemble when grid_stride=1).
    The ensembles of each shape are solved together, with one closed-form
    call and one batched KKT solve per generator."""
    names = ("kl", "chi2", "hellinger_half")
    members = informativity_oracle_draws(seed, trials)
    closed = np.empty((trials, len(names)))
    numeric = np.empty((trials, len(names)))
    for _, idx in _by_shape(members):
        pmats = check_mass_rows(np.stack([members[i] for i in idx]))
        for j, name in enumerate(names):
            closed[idx, j] = closed_forms(name, pmats)[1]
            numeric[idx, j] = kkt_solutions(builtin_generator(name), pmats, tol=1e-9)[1]
    worst_numeric = _fold_max(0.0, np.abs(closed - numeric))
    worst_grid = 0.0
    for t in range(0, trials, grid_stride):
        j = t % len(names)
        oracle = grid_informativity(builtin_generator(names[j]), members[t], step=1e-3)
        worst_grid = max(worst_grid, abs(float(closed[t, j]) - oracle))
    passed = worst_numeric <= 1e-6 and worst_grid <= 2e-3
    return _record(
        "informativity_oracles",
        passed,
        trials=trials,
        worst_numeric_error=worst_numeric,
        worst_grid_error=worst_grid,
    )


def check_compensation_identity(seed: int, trials: int) -> dict:
    """sum KL(P_theta||Q) = sum KL(P_theta||mixture) + N KL(mixture||Q),
    with three kernel calls per support size (:func:`_by_support`); each
    sum over members, the mixture's included, is added in member order."""
    rng = np.random.default_rng([seed, 31])
    kl = builtin_generator("kl")
    members, refs = [], []
    for _ in range(trials):
        pmat, _ = _draw_arrays(rng, n_max=5, support_max=8)
        members.append(pmat)
        refs.append(rng.standard_exponential(pmat.shape[1]))
    errors = np.empty(trials)
    for group in _by_support(members):
        pmats, counts, qs = group.members, group.counts, _stacked(refs, group.idx)
        total = pmats[:, 0]
        for i in range(1, pmats.shape[1]):
            total = total + pmats[:, i]
        mix = check_mass_rows(total / counts[:, None])
        to_q, to_mix = group.divergences(kl, qs), group.divergences(kl, mix)
        lhs, rhs = to_q[:, 0], to_mix[:, 0]
        for i in range(1, pmats.shape[1]):
            lhs, rhs = lhs + to_q[:, i], rhs + to_mix[:, i]
        rhs = rhs + counts * divergence_matrix(kl, mix[:, None], qs[:, None])[:, 0, 0]
        errors[group.idx] = np.abs(lhs - rhs)
    worst = _fold_max(0.0, errors)
    return _record(
        "compensation_identity", worst <= 1e-10, trials=trials, worst_error=worst
    )


def check_upper_chain(seed: int, trials: int) -> dict:
    """The three simple upper bounds are nested and sit above the
    informativity (the first one is exactly it for KL).  The generator
    cycles with the trial; each shape and generator takes one chain call
    (:func:`.informativity.simple_upper_chains`) and one closed-form
    call."""
    rng = np.random.default_rng([seed, 32])
    names = ("kl", "chi2", "hellinger_half", "power:3")
    members = [_draw_arrays(rng, n_max=5, support_max=8)[0] for _ in range(trials)]
    cycle = np.arange(trials) % len(names)
    # per trial: the two nesting slacks (NaN past an infinite bound), then
    # the slack to the informativity
    slacks = np.full((trials, 3), math.nan)
    kl_gaps = np.full(trials, math.nan)
    for _, idx in _by_shape(members):
        pmats = _stacked(members, idx)
        for k, name in enumerate(names):
            sel = cycle[idx] == k
            if not sel.any():
                continue
            at = idx[sel]
            chain = np.stack(simple_upper_chains(builtin_generator(name), pmats[sel]), axis=1)
            minimizers, values = closed_forms(name, pmats[sel])
            check_mass_rows(minimizers)
            with np.errstate(invalid="ignore"):  # inf - inf past an infinite bound
                nested = chain[:, 1:] - chain[:, :-1]
            slacks[at, :2] = np.where(np.isfinite(chain[:, 1:]), nested, math.nan)
            slacks[at, 2] = chain[:, 0] - values
            if name == "kl":
                kl_gaps[at] = np.abs(chain[:, 0] - values)
    worst = _fold_min(math.inf, slacks)
    kl_gap = _fold_max(0.0, kl_gaps)
    return _record(
        "upper_chain",
        worst >= -1e-9 and kl_gap <= 1e-12,
        trials=trials,
        worst_slack=worst,
        kl_equality_gap=kl_gap,
    )


def check_covering_validity(seed: int, trials: int) -> dict:
    """Generic and specialized covering bounds dominate the exact
    informativity on random (ensemble, family) instances, and for KL the
    generic bound is log M plus the mean assigned divergence.  The kind
    cycles with the trial, and each family is padded to 4 candidates, so
    each shape and kind takes one closed-form call, one
    :func:`.informativity.covering_bounds` call (two kernel calls) and, for
    KL, one kernel call for the assigned divergences."""
    rng = np.random.default_rng([seed, 33])
    kinds = (
        ("kl", "kl", 2.0),
        ("chi2", "chi2", 2.0),
        ("power_l", "power:3", 3.0),
        ("hellinger_sq", "hellinger_sq", 2.0),
    )
    members, families, counts = [], [], np.empty(trials, dtype=int)
    for t in range(trials):
        pmat, _ = _draw_arrays(rng, n_max=5, support_max=6)
        counts[t] = int(rng.integers(1, 5))
        members.append(pmat)
        families.append(_draw_family(rng, counts[t], pmat.shape[1], 4))
    cycle = np.arange(trials) % len(kinds)
    # per trial: generic and specialized bound less the informativity
    slacks = np.empty((trials, 2))
    relations = np.empty(trials)
    kl_errors = np.full(trials, math.nan)
    for _, idx in _by_shape(members):
        pmats = _stacked(members, idx)
        for k, (kind, gen_name, l) in enumerate(kinds):
            sel = cycle[idx] == k
            if not sel.any():
                continue
            at, group = idx[sel], pmats[sel]
            gen = builtin_generator(gen_name)
            minimizers, exact = closed_forms(gen_name, group)
            check_mass_rows(minimizers)
            qmats = _stacked(families, at)
            errors, assignment, generic = covering_bounds(gen, group, qmats, counts[at])
            special = covering_specializations(kind, counts[at], errors, l=l)
            slacks[at, 0], slacks[at, 1] = generic - exact, special - exact
            relations[at] = special - generic
            if kind == "kl":
                chosen = qmats[np.arange(len(at))[:, None], assignment]
                assigned = divergence_matrix(gen, group[:, :, None], chosen[:, :, None])
                identity = covering_specializations(
                    "kl", counts[at], assigned[..., 0, 0].mean(axis=-1)
                )
                kl_errors[at] = np.abs(generic - identity)
    worst = _fold_min(math.inf, slacks)
    worst_relation = _fold_min(math.inf, relations)
    kl_identity = _fold_max(0.0, kl_errors)
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


def check_entropy_finite_chain(seed: int, trials: int) -> dict:
    """Soundness of the chi2 entropy bound reproduced stepwise on explicit
    finite instances: with exact packing count, covering count, and max-min
    error, every link of the chain holds against exact oracle values.
    Each family is padded to 3 candidates, so each shape takes one
    max-min error call (:func:`.informativity.covering_errors`), one
    closed-form call and one Bayes-risk call; the entropy bound is
    evaluated trial by trial."""
    rng = np.random.default_rng([seed, 40])
    chi2 = builtin_generator("chi2")
    loss = power_loss(1.0)
    members, families, counts = [], [], np.empty(trials, dtype=int)
    for t in range(trials):
        pmat, _ = _draw_arrays(rng, n_max=6, support_max=8)
        counts[t] = int(rng.integers(1, 4))
        members.append(pmat)
        families.append(_draw_family(rng, counts[t], pmat.shape[1], 3))
    ns = np.array([len(pmat) for pmat in members])
    errors, j_exact, rbar = np.empty(trials), np.empty(trials), np.empty(trials)
    for (n, _), idx in _by_shape(members):
        pmats = _stacked(members, idx)
        errors[idx] = covering_errors(chi2, pmats, _stacked(families, idx), counts[idx])[0]
        minimizers, j_exact[idx] = closed_forms("chi2", pmats)
        check_mass_rows(minimizers)
        rbar[idx] = bayes_risks(np.full(n, 1.0 / n), pmats)
    cover_j = covering_specializations("chi2", counts, errors)
    points = np.array([
        entropy_risk_bound(
            "chi2",
            _constant_profile(float(n), float(m)),
            loss,
            2.0,
            math.sqrt(err) if err > 0 else 1e-9,
        )
        for n, m, err in zip(ns.tolist(), counts.tolist(), errors.tolist())
    ])
    risk_at_exact = 1.0 - 1.0 / ns - np.sqrt(j_exact / ns)
    risk_at_cover = 1.0 - 1.0 / ns - np.sqrt(cover_j / ns)
    risk_at_cover = np.where(risk_at_cover > 0.0, risk_at_cover, 0.0)
    # per trial, link by link: the covering bound dominates the exact
    # informativity; the chi2 risk bound at the exact informativity is
    # sound; the entropy point value is the weakest element of the chain
    slacks = np.column_stack(
        [cover_j - j_exact, rbar - risk_at_exact, risk_at_cover - points, rbar - points]
    )
    worst = _fold_min(math.inf, slacks)
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
    (3 Gamma/eps)^2.  Each radius is packed once, and a lattice point counts
    as covered when some center lies at distance at most eps; every test
    runs over the whole lattice."""
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
            covered |= np.sqrt(_squared_distances(ax, i, j)) <= eps + 1e-12
        covers = bool(covered[inside].all())
        details[f"covering_eps_{eps}"] = [len(centers), ceil_count, covers]
        ok = ok and covers and len(centers) <= ceil_count
    return _record("ball_volumetrics", ok, **details)


def _greedy_packing(ax: np.ndarray, inside: np.ndarray, radius: float) -> list:
    """Greedy maximal packing of the lattice points (ax[j], ax[i]) where
    ``inside[i, j]``: in row-major order, each point still alive becomes a
    center and kills every point at squared distance below radius^2.
    Returns the centers' (i, j) in the order chosen."""
    alive = inside.copy()
    flat = alive.reshape(-1)
    chosen = []
    while True:
        at = int(flat.argmax())
        if not flat[at]:
            return chosen
        i, j = divmod(at, ax.size)
        chosen.append((i, j))
        alive &= _squared_distances(ax, i, j) >= radius**2


def _squared_distances(ax: np.ndarray, i: int, j: int) -> np.ndarray:
    """(x - x_j)^2 + (y - y_i)^2 from lattice point (ax[j], ax[i]) to every
    lattice point (ax[col], ax[row]), as a (row, col) array."""
    return (ax - ax[j]) ** 2 + ((ax - ax[i]) ** 2)[:, None]


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def check_gilbert_varshamov_count(seed: int = 0) -> dict:
    """For every k in 1..400 Gilbert's exact count
    ceil(2^k / sum_{i<ceil(k/4)} C(k, i)) reaches ceil(e^(k/8)), the code
    size the estimation bounds read.  The sums are exact integers."""
    del seed
    short = []
    for k in range(1, 401):
        volume = sum(math.comb(k, i) for i in range(-(-k // 4)))
        if -(-(1 << k) // volume) < math.ceil(math.exp(k / 8.0)):
            short.append(k)
    return _record("gilbert_varshamov_count", not short, k_max=400, short_at=short)


def check_code_invariants(seed: int) -> dict:
    ok = True
    details = {}
    for k in (8, 16, 24, 32):
        code = cons.varshamov_gilbert_code(k, seed=seed)
        good = cons.verify_code(code) and code.size >= math.ceil(math.exp(k / 8.0))
        details[f"k_{k}"] = [code.size, code.min_distance]
        ok = ok and good and code.min_distance >= k / 4.0
    return _record("code_invariants", ok, **details)


def _distinct_pairs(rng: np.random.Generator, k: int, count: int) -> tuple:
    """``count`` seeded pairs of words in {0,1}^k as two (B, k) arrays of
    the B pairs that differ: equal pairs are dropped.  One ``rng.integers``
    call draws them all; it takes the same bits from the stream, and leaves
    it in the same state, as one call per word would (the bit generator
    keeps the unused half of a 64-bit draw for the next call)."""
    pairs = rng.integers(0, 2, size=(count, 2, k))
    kept = pairs[(pairs[:, 0] != pairs[:, 1]).any(axis=1)]
    return kept[:, 0], kept[:, 1]


def check_spectral_separation(seed: int, trials: int) -> dict:
    """The guaranteed separation never exceeds the achieved one, on
    ``trials`` seeded pairs per family, each family's pairs in one call."""
    rng = np.random.default_rng([seed, 50])
    worst = math.inf
    for p, k, alpha in ((8, 3, 0.5), (12, 4, 1.0), (16, 6, 2.0)):
        fam = cons.build_cov_family(p, k, alpha)
        achieved, guaranteed = cons.spectral_separations(fam, *_distinct_pairs(rng, k, trials))
        worst = _fold_min(worst, achieved - guaranteed)
    return _record(
        "spectral_separation", worst >= -1e-10, trials=3 * trials, worst_slack=worst
    )


def check_kl_frobenius(seed: int, trials: int) -> dict:
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
    achieved, guaranteed = cons.spectral_separations(fam, *_distinct_pairs(rng, k, 10))
    worst = _fold_min(math.inf, achieved - guaranteed)
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


#: Marks a fixed check that ignores its seed in ``_SUITES``: its record is
#: computed once per process and every suite run gets a deep copy of it.
_SEED_FREE = "seed-free"

#: Each suite's checks in report order, as (check, trial count, cap): a
#: ``trials`` override replaces the count, clipped to the cap when there is
#: one.  A check with no count is fixed: ``None`` runs it on the seed alone,
#: and ``_SEED_FREE`` marks one whose record is the same at every seed.
_SUITES = {
    "core": (
        (check_product_marginals, 50, None),
        (check_map_achieves_bayes, 200, None),
        (check_bayes_concavity, 200, None),
        (check_minimax_dominates_priors, 60, 200),
    ),
    "mixture": (
        (check_weighted_soundness, 400, None),
        (check_uniform_floor_shape, 40, None),
        (check_two_point_sharpness, _SEED_FREE, None),
        (check_pair_inequalities, 400, None),
        (check_pinsker_constant, _SEED_FREE, None),
        (check_named_bound_soundness, 400, None),
        (check_implicit_vs_oracle, 120, None),
    ),
    "jf": (
        (check_informativity_oracles, 60, 200),
        (check_compensation_identity, 200, None),
        (check_upper_chain, 150, None),
        (check_covering_validity, 300, None),
    ),
    "entropy": (
        (check_entropy_arithmetic, _SEED_FREE, None),
        (check_entropy_monotonicity, _SEED_FREE, None),
        (check_entropy_finite_chain, 60, None),
        (check_rate_contrast, _SEED_FREE, None),
        (check_ball_volumetrics, _SEED_FREE, None),
    ),
    "constructions": (
        (check_gilbert_varshamov_count, _SEED_FREE, None),
        (check_code_invariants, None, None),
        (check_spectral_separation, 100, 100),
        (check_kl_frobenius, 60, 100),
        (check_cap_formulas, _SEED_FREE, None),
        (check_support_packing, None, None),
        (check_covariance_smoke, None, None),
    ),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str = "all", seed: int = 0, trials=None, timings=None) -> dict:
    """Run one suite (or all) and return a deterministic report.

    ``seed`` must be an integer >= 0 and ``trials`` None or an integer >= 1;
    either is refused by name before any check runs.  The checks marked
    ``_SEED_FREE`` run once per process: later calls get a deep copy of the
    first record, so a caller may change its report freely.

    ``timings``, when a dict, receives each check's wall time in seconds
    (``time.perf_counter``) as ``timings[suite][check]``, the copy's time
    for a seed-free check already computed; the report itself carries no
    time."""
    if name == "all":
        names = SUITE_NAMES
    elif name in _SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    _check_integer("seed", seed, 0)
    if trials is not None:
        _check_integer("trials", trials, 1)
    suites = {}
    for suite_name in names:
        checks = []
        for check, count, cap in _SUITES[suite_name]:
            start = time.perf_counter()
            if count is _SEED_FREE:
                checks.append(_seed_free_record(check))
            elif count is None:
                checks.append(check(seed))
            else:
                if trials is not None:
                    count = trials if cap is None else min(trials, cap)
                checks.append(check(seed, count))
            if timings is not None:
                timings.setdefault(suite_name, {})[checks[-1]["name"]] = (
                    time.perf_counter() - start
                )
        suites[suite_name] = {
            "checks": checks,
            "pass": all(c["pass"] for c in checks),
        }
    return {
        "seed": seed,
        "suites": suites,
        "pass": all(s["pass"] for s in suites.values()),
    }


def _check_integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


#: the first record of each seed-free check, keyed on the check alone
_SEED_FREE_RECORDS: dict = {}


def _seed_free_record(check) -> dict:
    """A deep copy of a seed-free check's record, computed on first use."""
    if check not in _SEED_FREE_RECORDS:
        _SEED_FREE_RECORDS[check] = check(0)
    return copy.deepcopy(_SEED_FREE_RECORDS[check])
