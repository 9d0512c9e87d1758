"""The block draws of the verify sweeps, the padding the library calls
read as absent, the sweeps against trial-at-a-time references, and how
``run_suite`` runs the checks of its table."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fdivbounds import verify
from fdivbounds.distributions import DiscreteDistribution, Ensemble, check_mass_rows
from fdivbounds.divergences import (
    apply_generator,
    builtin_generator,
    default_generators,
    divergence_matrix,
    squared_hellingers,
    total_variations,
)
from fdivbounds.informativity import (
    CoveringFamily,
    closed_forms,
    covering_bounds,
    kkt_solutions,
    simple_upper_chains,
)
from fdivbounds.mixture_bounds import (
    ensemble_statistics,
    map_reference_masses,
    weighted_divergence_floor,
    weighted_sums,
)
from fdivbounds.testing_risk import bayes_risks, error_probabilities, map_tests

DATA = Path(__file__).parent / "data"


def builtin_min_fold(start, values):
    for v in values:
        start = min(start, v)
    return start


def builtin_max_fold(start, values):
    for v in values:
        start = max(start, v)
    return start


@pytest.mark.parametrize(
    "values",
    [
        [0.5, -0.2, 0.1],
        [0.0, -0.0, 1.0],
        [-0.0, 0.0],
        [math.nan, 0.3, math.nan, -1.0],
        [math.nan],
        [],
        [math.inf, -math.inf, 2.0],
    ],
)
@pytest.mark.parametrize("start", [math.inf, 0.0, -0.0, -math.inf])
def test_folds_match_the_builtins(values, start):
    got_min = verify._fold_min(start, np.array(values, dtype=float))
    got_max = verify._fold_max(start, np.array(values, dtype=float))
    want_min = builtin_min_fold(start, values)
    want_max = builtin_max_fold(start, values)
    assert math.copysign(1.0, got_min) == math.copysign(1.0, want_min)
    assert got_min == want_min
    assert math.copysign(1.0, got_max) == math.copysign(1.0, want_max)
    assert got_max == want_max


def dense_two_point_minimum(gen, v, points=401):
    """Minimum of D_f(P1||Q) + D_f(P2||Q) over the two-point family with
    TV = v, P1 = (a, 1-a), P2 = (a-v, 1-a+v) and Q = (c, 1-c), on one
    dense grid of a in [v, 1] and c in [1e-9, 1 - 1e-9]."""
    a = np.linspace(v, 1.0, points)[:, None]
    c = np.linspace(1e-9, 1.0 - 1e-9, points)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        total = (
            c * apply_generator(gen, a / c)
            + (1 - c) * apply_generator(gen, (1 - a) / (1 - c))
            + c * apply_generator(gen, (a - v) / c)
            + (1 - c) * apply_generator(gen, (1 - a + v) / (1 - c))
        )
    return float(np.nanmin(total))


def test_minimize_two_points_matches_a_dense_grid():
    """The nested refinement finds the minimum that one dense grid finds,
    at 11 total variations in [0, 1] for each generator of the check."""
    v = np.round(np.linspace(0.0, 1.0, 11), 10)
    for name in ("kl", "chi2", "power:3"):
        gen = builtin_generator(name)
        found = verify.minimize_two_points(gen, v)
        dense = [dense_two_point_minimum(gen, vi) for vi in v]
        assert found.tolist() == pytest.approx(dense, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("k", [1, 3, 4, 6, 44, 45])
def test_distinct_pairs_drop_the_equal_pairs_of_one_draw(k):
    """The pairs are those of one ``integers`` call of shape (count, 2, k),
    in draw order, less the pairs of equal words."""
    for seed, count in ((0, 1), (3, 10), (5, 100)):
        a, b = np.random.default_rng([seed, 50]), np.random.default_rng([seed, 50])
        taus, tau_primes = verify._distinct_pairs(a, k, count)
        drawn = b.integers(0, 2, size=(count, 2, k))
        kept = [pair for pair in drawn if not np.array_equal(pair[0], pair[1])]
        assert taus.shape == tau_primes.shape == (len(kept), k)
        for tau, tau_prime, pair in zip(taus, tau_primes, kept):
            assert np.array_equal(tau, pair[0]) and np.array_equal(tau_prime, pair[1])
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize(
    "row,message",
    [
        ([0.5, math.nan], "non-finite"),
        ([1.2, -0.2], "negative probability"),
        ([0.5, 0.6], "sums to"),
    ],
)
def test_mass_rows_refused_as_the_class_refuses(row, message):
    with pytest.raises(ValueError, match=message):
        DiscreteDistribution(np.array(row))
    rows = np.array([[0.25, 0.75], row])
    with pytest.raises(ValueError, match=message):
        check_mass_rows(rows)


def test_prior_rows_refused_by_name():
    with pytest.raises(ValueError, match="negative prior entry"):
        check_mass_rows(np.array([[1.5, -0.5]]), "prior")
    with pytest.raises(ValueError, match="prior sums to"):
        check_mass_rows(np.array([[0.5, 0.4]]), "prior")


def test_ensemble_blocks_are_zero_past_each_size():
    """The sizes come first, one ``integers`` call each, then one block of
    exponentials; each trial's n x s corner is that corner of the block
    over its row sums, and every entry past it is zero."""
    rng, again = np.random.default_rng([9, 20]), np.random.default_rng([9, 20])
    ns, ss, pmats = verify._ensembles(rng, 50, 6, 12)
    assert np.array_equal(ns, again.integers(2, 7, size=50))
    assert np.array_equal(ss, again.integers(2, 13, size=50))
    raw = again.standard_exponential((50, 6, 12))
    assert pmats.shape == (50, 6, 12)
    assert {2, 6} <= set(ns.tolist()) and {2, 12} <= set(ss.tolist())
    for pmat, block, n, s in zip(pmats, raw, ns, ss):
        corner = block[:n, :s]
        assert pmat[:n, :s] == pytest.approx(corner / corner.sum(axis=1, keepdims=True), rel=1e-15)
        assert np.abs(pmat[:n].sum(axis=1) - 1.0).max() <= 4e-16
        assert not pmat[n:].any() and not pmat[:, s:].any()
    assert rng.bit_generator.state == again.bit_generator.state


def test_priors_and_families_are_zero_or_repeated_past_each_count():
    """Priors are zero past each member count and sum to 1; family rows
    past each candidate count repeat the first row, which
    ``covering_errors`` never reads."""
    rng = np.random.default_rng(3)
    ns = rng.integers(2, 7, size=40)
    w = verify._flat_dirichlet(rng.standard_exponential((40, 2, 6)), ns, name="prior")
    assert np.abs(w.sum(axis=-1) - 1.0).max() <= 4e-16
    assert all(not row[:, n:].any() and (row[:, :n] > 0).all() for row, n in zip(w, ns))
    ss, counts = rng.integers(2, 9, size=40), rng.integers(1, 4, size=40)
    fams = verify._families(rng, (40, 3, 8), ss, counts)
    for fam, s, m in zip(fams, ss, counts):
        assert np.abs(fam.sum(axis=1) - 1.0).max() <= 4e-16
        assert not fam[:, s:].any() and (fam[:, :s] > 0).all()
        assert all(np.array_equal(row, fam[0]) for row in fam[m:])
    uniform = verify._flat_dirichlet(np.ones((40, 6)), ns, name="prior")
    for row, n in zip(uniform, ns):
        assert row.tolist() == [1.0 / n] * n + [0.0] * (6 - n)


@pytest.mark.parametrize(
    "entry, message",
    [
        (math.nan, "pmf has a non-finite entry"),
        (-0.2, "negative probability entry"),
    ],
)
def test_a_malformed_live_row_is_refused_by_name(entry, message):
    """A bad entry of a live row is refused; one past a trial's sizes is
    zeroed like every entry there."""
    raw = np.ones((3, 4, 5))
    raw[1, 2, 1] = entry
    with pytest.raises(ValueError, match=message):
        verify._flat_dirichlet(raw.copy(), np.array([5, 5, 5]), np.array([4, 4, 4]))
    rows = verify._flat_dirichlet(raw.copy(), np.array([5, 5, 5]), np.array([4, 2, 4]))
    assert not rows[1, 2:].any()
    points = verify._flat_dirichlet(raw.copy(), np.array([5, 1, 5]), np.array([4, 4, 4]))
    assert points[1, :, 0].tolist() == [1.0] * 4 and not points[1, :, 1:].any()


def test_a_malformed_prior_is_refused_by_name():
    raw = np.ones((2, 3))
    raw[1, 0] = -0.5
    with pytest.raises(ValueError, match="negative prior entry"):
        verify._flat_dirichlet(raw.copy(), np.array([3, 3]), name="prior")
    raw[1, 0] = math.nan
    with pytest.raises(ValueError, match="prior has a non-finite entry"):
        verify._flat_dirichlet(raw.copy(), np.array([3, 3]), name="prior")


def padded(x, points=3, rows=0):
    """``x`` (..., N, S) with ``rows`` zero rows and ``points`` zero
    points appended."""
    x = np.concatenate([x, np.zeros(x.shape[:-1] + (points,))], axis=-1)
    if rows:
        x = np.concatenate([x, np.zeros(x.shape[:-2] + (rows, x.shape[-1]))], axis=-2)
    return x


def padding_cases(count=40, seed=6):
    """Random (members n x s, prior, reference, family) instances."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, s, m = int(rng.integers(2, 7)), int(rng.integers(2, 13)), int(rng.integers(1, 5))
        yield (
            rng.dirichlet(np.ones(s), size=n),
            rng.dirichlet(np.ones(n)),
            rng.dirichlet(np.ones(s)),
            rng.dirichlet(np.ones(s), size=m),
        )


def same_bits(padded_result, alone):
    assert np.asarray(padded_result).tobytes() == np.asarray(alone).tobytes()


def close(padded_result, alone):
    assert np.asarray(padded_result) == pytest.approx(np.asarray(alone), rel=1e-13)


def test_padded_points_leave_the_kernel_chains_and_solvers_bit_for_bit():
    """Zero points in every member and every reference lie outside every
    support: the divergences, the upper chains, the KKT solutions and the
    covering bounds and errors keep the bits of the unpadded call."""
    for pmat, _, q, fam in padding_cases():
        for gen in default_generators():
            same_bits(divergence_matrix(gen, padded(pmat), padded(q)[None]),
                      divergence_matrix(gen, pmat, q[None]))
            same_bits(simple_upper_chains(gen, padded(pmat)[None]),
                      simple_upper_chains(gen, pmat[None]))
        for name in ("kl", "chi2", "hellinger_sq", "power:3"):
            gen = builtin_generator(name)
            counts = np.array([len(fam)])
            stacked = np.concatenate([fam, np.repeat(fam[:1], 4 - len(fam), axis=0)])
            got = covering_bounds(gen, padded(pmat)[None], padded(stacked)[None], counts)
            want = covering_bounds(gen, pmat[None], fam[None])
            for part, alone in zip(got, want):
                same_bits(part, alone)
    for pmat, *_ in list(padding_cases())[:12]:
        for name in ("kl", "chi2", "hellinger_half"):
            gen = builtin_generator(name)
            got = kkt_solutions(gen, padded(pmat)[None], tol=1e-9)
            want = kkt_solutions(gen, pmat[None], tol=1e-9)
            same_bits(got[0][0, : pmat.shape[1]], want[0][0])
            assert not got[0][0, pmat.shape[1]:].any()
            for part, alone in zip(got[1:], want[1:]):
                same_bits(part, alone)


def test_padded_points_leave_the_closed_forms_and_statistics_to_rounding():
    """Sums over points that pass through the zero points may add in
    another order: the closed forms, the named-bound statistics and the
    pair distances agree to 1e-13 relative, and where their bits are the
    unpadded call's they stay so."""
    for pmat, _, q, _ in padding_cases():
        for name in ("kl", "chi2", "hellinger_half", "hellinger_sq", "power:3"):
            q_pad, v_pad = closed_forms(name, padded(pmat))
            q_alone, v_alone = closed_forms(name, pmat)
            close(v_pad, v_alone)
            close(q_pad[: pmat.shape[1]], q_alone)
            assert not q_pad[pmat.shape[1]:].any()
        same_bits(closed_forms("kl", padded(pmat))[1], closed_forms("kl", pmat)[1])
        for fam in ("fano", "chi2", "hellinger", "tv", "power_l"):
            close(ensemble_statistics(fam, padded(pmat)[None])[0],
                  ensemble_statistics(fam, pmat[None])[0])
        close(total_variations(padded(pmat)[0], padded(q)), total_variations(pmat[0], q))
        close(squared_hellingers(padded(pmat)[0], padded(q)), squared_hellingers(pmat[0], q))


def test_padded_rows_and_points_leave_the_testing_risks_to_rounding():
    """Zero rows of prior weight zero change no maximum and no argmax over
    members, and the zero points no sum: the Bayes risks, the MAP tests,
    their errors and the MAP reference masses of a padded block agree with
    the unpadded calls (the tests and masses bit for bit)."""
    for pmat, w, q, _ in padding_cases():
        p_pad, w_pad, q_pad = padded(pmat, rows=2), padded(w[None], points=2)[0], padded(q)
        close(bayes_risks(w_pad, p_pad), bayes_risks(w, pmat))
        tests = map_tests(w_pad, p_pad)
        same_bits(tests[: pmat.shape[1]], map_tests(w, pmat))
        close(error_probabilities(w_pad, p_pad, tests),
              error_probabilities(w, pmat, map_tests(w, pmat)))
        same_bits(map_reference_masses(w_pad, p_pad, q_pad), map_reference_masses(w, pmat, q))


# Trial-at-a-time references for the sweeps that score a padded block:
# each trial's unpadded corner of the same raw draws is normalized and
# scored alone with the one-ensemble calls, in draw order, and the worst
# value is folded with the builtin min or max.


def unpadded_draws(rng, trials, n_max, s_max):
    """The sizes and members of ``verify._ensembles``, each trial's n x s
    corner of the raw block normalized on its own."""
    ns = rng.integers(2, n_max + 1, size=trials).tolist()
    ss = rng.integers(2, s_max + 1, size=trials).tolist()
    raw = rng.standard_exponential((trials, n_max, s_max))
    return ns, ss, [normalized(block[:n, :s]) for block, n, s in zip(raw, ns, ss)]


def normalized(raw):
    return raw / raw.sum(axis=-1, keepdims=True)


def reference_map_achieves_bayes(seed, trials):
    rng = np.random.default_rng([seed, 11])
    ns, _, members = unpadded_draws(rng, trials, 6, 12)
    uniform = rng.integers(0, 2, size=trials) == 0
    priors = rng.standard_exponential((trials, 6))
    worst = 0.0
    for t, p in enumerate(members):
        w = np.full(ns[t], 1.0 / ns[t]) if uniform[t] else normalized(priors[t, : ns[t]])
        errors = error_probabilities(w, p, map_tests(w, p))
        worst = max(worst, float(abs(errors - bayes_risks(w, p))))
    return {"name": "map_achieves_bayes", "pass": worst <= 1e-12, "trials": trials,
            "worst_error": worst}


def reference_bayes_concavity(seed, trials):
    rng = np.random.default_rng([seed, 12])
    ns, _, members = unpadded_draws(rng, trials, 6, 12)
    priors = rng.standard_exponential((trials, 2, 6))
    worst = math.inf
    for t, p in enumerate(members):
        w1, w2 = normalized(priors[t, :, : ns[t]])
        halves = (bayes_risks(w1, p) + bayes_risks(w2, p)) / 2.0
        worst = min(worst, float(bayes_risks((w1 + w2) / 2.0, p) - halves))
    return {"name": "bayes_concavity", "pass": worst >= -1e-12, "trials": trials,
            "worst_slack": worst}


def reference_weighted_soundness(seed, trials):
    rng = np.random.default_rng([seed, 20])
    gens = default_generators()
    ns, ss, members = unpadded_draws(rng, trials, 6, 12)
    priors = rng.standard_exponential((trials, 6))
    refs = rng.standard_exponential((trials, 12))
    dead_at = rng.integers(0, ss)
    worst, checked = math.inf, 0
    for t, p in enumerate(members):
        q = refs[t, : ss[t]].copy()
        if t % 7 == 0 and ss[t] > 2:
            q[dead_at[t]] = 0.0
        q, w = normalized(q), normalized(priors[t, : ns[t]])
        w_mass = map_reference_masses(w, p, q)
        if not 0.0 < w_mass < 1.0:
            continue
        checked += len(gens)
        rbar = bayes_risks(w, p)
        for gen in gens:
            total = weighted_sums(w[None], divergence_matrix(gen, p, q[None])[None, :, 0])[0]
            if not math.isinf(total):
                worst = min(worst, float(total - weighted_divergence_floor(gen, w_mass, rbar)))
    return {"name": "weighted_soundness", "pass": worst >= -1e-9, "trials": checked,
            "worst_slack": worst}


def reference_compensation_identity(seed, trials):
    rng = np.random.default_rng([seed, 31])
    kl = builtin_generator("kl")
    _, ss, members = unpadded_draws(rng, trials, 5, 8)
    refs = rng.standard_exponential((trials, 8))
    worst = 0.0
    for t, p in enumerate(members):
        q = normalized(refs[t, : ss[t]])[None]
        mix = p.mean(axis=0)[None]
        lhs = divergence_matrix(kl, p, q).sum()
        rhs = divergence_matrix(kl, p, mix).sum() + len(p) * divergence_matrix(kl, mix, q)[0, 0]
        worst = max(worst, float(abs(lhs - rhs)))
    return {"name": "compensation_identity", "pass": worst <= 1e-10, "trials": trials,
            "worst_error": worst}


BLOCK_SWEEPS = {
    verify.check_map_achieves_bayes: reference_map_achieves_bayes,
    verify.check_bayes_concavity: reference_bayes_concavity,
    verify.check_weighted_soundness: reference_weighted_soundness,
    verify.check_compensation_identity: reference_compensation_identity,
}


@pytest.mark.parametrize("check", BLOCK_SWEEPS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("trials", [1, None, 1000])
def test_block_sweeps_equal_their_trial_at_a_time_references(check, trials):
    """Whole records at suite seeds 0-3, at one trial, the suite's count
    and 1000: the names, pass flags and trial counts exactly, and the
    worst values to rounding (1e-12 relative or 1e-13 absolute: some are
    rounding errors themselves), since a padded sum over points may add in
    another order."""
    if trials is None:
        trials = next(c for suite in verify._SUITES.values() for f, c, _ in suite if f is check)
    for seed in range(4):
        got, want = check(seed, trials), BLOCK_SWEEPS[check](seed, trials)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-13), key
            else:
                assert got[key] == value, key


@pytest.mark.parametrize(
    "suite, trials, expected",
    [
        (
            "core",
            201,
            {
                "product_marginals": 201,
                "map_achieves_bayes": 201,
                "bayes_concavity": 201,
                "minimax_dominates_priors": 200,
            },
        ),
        (
            "constructions",
            150,
            {
                "gilbert_varshamov_count": None,
                "code_invariants": None,
                "spectral_separation": 300,
                "kl_frobenius": 100,
                "cap_formulas": None,
                "support_packing": None,
                "covariance_smoke": None,
            },
        ),
        (
            "jf",
            201,
            {
                "informativity_oracles": 200,
                "compensation_identity": 201,
                "upper_chain": 201,
                "covering_validity": 201,
            },
        ),
    ],
)
def test_trials_override_replaces_each_count_up_to_its_cap(suite, trials, expected):
    """``verify --trials T`` reaches every sweep, capped where the suite
    caps it; fixed checks ignore it.  Records stay in report order."""
    report = verify.run_suite(suite, 0, trials=trials)
    checks = report["suites"][suite]["checks"]
    assert [(c["name"], c.get("trials")) for c in checks] == list(expected.items())


@pytest.mark.parametrize(
    "check",
    [
        verify.check_map_achieves_bayes,
        verify.check_bayes_concavity,
        verify.check_minimax_dominates_priors,
        verify.check_weighted_soundness,
        verify.check_compensation_identity,
        verify.check_informativity_oracles,
        verify.check_upper_chain,
        verify.check_covering_validity,
        verify.check_entropy_finite_chain,
    ],
)
def test_array_sweeps_build_no_objects(check, monkeypatch):
    """These sweeps draw raw arrays and score them with the array forms;
    at seed 0 and the suite's trial count, not one distribution, ensemble
    or covering family is built."""
    count = next(c for suite in verify._SUITES.values() for f, c, _ in suite if f is check)
    built = []
    for cls in (DiscreteDistribution, Ensemble, CoveringFamily):
        original = cls.__post_init__

        def counted(self, original=original):
            built.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    assert check(0, count)["pass"]
    assert built == []


SEED_FREE = [
    check
    for checks in verify._SUITES.values()
    for check, count, _ in checks
    if count is verify._SEED_FREE
]


def test_the_eight_seed_free_checks_are_marked():
    assert sorted(check.__name__ for check in SEED_FREE) == [
        "check_ball_volumetrics",
        "check_cap_formulas",
        "check_entropy_arithmetic",
        "check_entropy_monotonicity",
        "check_gilbert_varshamov_count",
        "check_pinsker_constant",
        "check_rate_contrast",
        "check_two_point_sharpness",
    ]


@pytest.mark.parametrize("check", SEED_FREE, ids=lambda c: c.__name__)
def test_seed_free_checks_give_one_record_at_every_seed(check):
    """Run fresh, a marked check gives the same record at seeds 0, 1 and
    2**31 - 1, and at a seed no random generator accepts, so it never
    reads its seed; a seeded check would differ or raise."""
    want = json.dumps(check(0), sort_keys=True)
    for seed in (1, 2**31 - 1, object()):
        assert json.dumps(check(seed), sort_keys=True) == want


def _mutate(value):
    """Change every leaf of a report in place, lists included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, leaf in list(items):
        if isinstance(leaf, (dict, list)):
            _mutate(leaf)
            if isinstance(leaf, list):
                leaf.append("appended")
        else:
            value[key] = "changed"


def test_a_changed_report_leaves_the_next_report_alone():
    golden = (DATA / "verify_all_seed0.json").read_text(encoding="utf-8")
    first = verify.run_suite("all", 0)
    short_at = next(
        c["short_at"] for c in first["suites"]["constructions"]["checks"] if "short_at" in c
    )
    _mutate(first)
    assert short_at[-1] == "appended"
    second = verify.run_suite("all", 0)
    assert json.dumps(second, sort_keys=True, indent=2) + "\n" == golden


@pytest.mark.parametrize("seed", [1, 2])
def test_two_reports_in_one_process_equal_the_golden_digest(seed):
    digests = json.loads((DATA / "verify_all_sha256.json").read_text(encoding="utf-8"))
    texts = [json.dumps(verify.run_suite("all", seed), sort_keys=True) for _ in range(2)]
    assert texts[0] == texts[1]
    assert hashlib.sha256(texts[0].encode()).hexdigest() == digests[str(seed)]


def test_each_seed_free_check_runs_once_across_suite_runs(monkeypatch):
    calls = []

    def counted(check):
        def run(seed):
            calls.append(check.__name__)
            return check(seed)

        return run

    suites = {
        name: tuple(
            (counted(check) if count is verify._SEED_FREE else check, count, cap)
            for check, count, cap in checks
        )
        for name, checks in verify._SUITES.items()
    }
    monkeypatch.setattr(verify, "_SUITES", suites)
    monkeypatch.setattr(verify, "_SEED_FREE_RECORDS", {})
    first = verify.run_suite("all", 0)
    second = verify.run_suite("all", 5)
    assert sorted(calls) == sorted(check.__name__ for check in SEED_FREE)
    names = {check.__name__.removeprefix("check_") for check in SEED_FREE}

    def seed_free(report):
        return [c for s in report["suites"].values() for c in s["checks"] if c["name"] in names]

    assert len(seed_free(first)) == len(names)
    assert seed_free(first) == seed_free(second)


@pytest.mark.parametrize("suite", ["core", "mixture", "all"])
@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"trials": 0}, "trials must be an integer >= 1, got 0"),
        ({"trials": -3}, "trials must be an integer >= 1, got -3"),
        ({"trials": 2.5}, "trials must be an integer >= 1, got 2.5"),
        ({"trials": True}, "trials must be an integer >= 1, got True"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 1.0}, "seed must be an integer >= 0, got 1.0"),
    ],
)
def test_bad_trials_and_seeds_are_refused_before_any_check(suite, kwargs, message, monkeypatch):
    """A trial count of 0 once passed with nothing checked, and the other
    values failed inside numpy with messages that named neither."""
    ran = []
    suites = {
        name: tuple(((lambda *args: ran.append(args)), count, cap) for _, count, cap in checks)
        for name, checks in verify._SUITES.items()
    }
    monkeypatch.setattr(verify, "_SUITES", suites)
    with pytest.raises(ValueError) as err:
        verify.run_suite(suite, **kwargs)
    assert str(err.value) == message
    assert ran == []
