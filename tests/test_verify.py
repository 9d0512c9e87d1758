"""The helpers of the batched verify sweeps, the support-size sweeps
against trial-at-a-time references, and how ``run_suite`` runs the checks
of its table."""

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
)
from fdivbounds.informativity import CoveringFamily
from fdivbounds.mixture_bounds import (
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


def test_draw_arrays_follow_the_ensemble_stream():
    """The draws come out of the stream as the member count, the point
    count, one Dirichlet draw per member and the prior, in that order."""
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    for with_prior in (False, True, True, False):
        members, prior = verify._draw_arrays(a, with_prior=with_prior)
        n, s = int(b.integers(2, 7)), int(b.integers(2, 13))
        assert members.shape == (n, s)
        for row in verify._normalized(members):
            assert np.array_equal(row, b.dirichlet(np.ones(s)))
        assert (prior is None) == (not with_prior)
        if prior is not None:
            assert np.array_equal(verify._normalized(prior), b.dirichlet(np.ones(n)))


@pytest.mark.parametrize("k", [1, 3, 4, 6, 44, 45])
def test_distinct_pairs_follow_the_word_at_a_time_stream(k):
    """One draw of all the pairs gives the words that one ``integers``
    call per word gives, keeps the pairs that differ in draw order, and
    leaves the stream where the word-at-a-time calls leave it."""
    for seed, count in ((0, 1), (3, 10), (5, 100)):
        a, b = np.random.default_rng([seed, 50]), np.random.default_rng([seed, 50])
        taus, tau_primes = verify._distinct_pairs(a, k, count)
        kept = []
        for _ in range(count):
            tau, tau_prime = b.integers(0, 2, size=k), b.integers(0, 2, size=k)
            if not np.array_equal(tau, tau_prime):
                kept.append((tau, tau_prime))
        assert taus.shape == tau_primes.shape == (len(kept), k)
        for tau, tau_prime, (want, want_prime) in zip(taus, tau_primes, kept):
            assert np.array_equal(tau, want) and np.array_equal(tau_prime, want_prime)
        assert a.bit_generator.state == b.bit_generator.state
        assert a.random() == b.random()


@pytest.mark.parametrize("s", [*range(2, 13), 16, 64, 128, 200])
def test_normalized_exponentials_are_flat_dirichlet_draws(s):
    """Standard exponentials normalized by the helper carry exactly the
    bits of numpy's flat Dirichlet draws of the same shape, and both leave
    the stream at the same position."""
    for m in (None, 1, 5):
        a, b = np.random.default_rng([s, 1]), np.random.default_rng([s, 1])
        shape = (s,) if m is None else (m, s)
        rows = verify._normalized(a.standard_exponential(shape))
        want = b.dirichlet(np.ones(s), size=m)
        assert rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()
        assert a.standard_exponential() == b.standard_exponential()


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


def test_by_shape_groups_in_first_appearance_order():
    arrays = [np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 3)), np.zeros((2, 4))]
    groups = verify._by_shape(arrays)
    assert [shape for shape, _ in groups] == [(2, 3), (3, 3), (2, 4)]
    assert [list(idx) for _, idx in groups] == [[0, 2], [1], [3]]


def test_by_support_groups_by_point_count_in_first_appearance_order():
    """Trials group by point count alone, in order of first appearance;
    each member row, prior and divergence has the bits of its own trial,
    and past a trial's member count the rows, prior entries and
    divergences are zero."""
    rng = np.random.default_rng(4)
    shapes = [(2, 3), (3, 4), (4, 3), (2, 4), (3, 3)]
    members = [rng.standard_exponential(shape) for shape in shapes]
    priors = [rng.standard_exponential((2, n)) for n, _ in shapes]
    groups = verify._by_support(members)
    assert [g.members.shape for g in groups] == [(3, 4, 3), (2, 3, 4)]
    assert [list(g.idx) for g in groups] == [[0, 2, 4], [1, 3]]
    assert [list(g.counts) for g in groups] == [[2, 4, 3], [3, 2]]
    kl = builtin_generator("kl")
    for g in groups:
        w = g.priors(priors)
        assert w.shape == (len(g.idx), 2, g.members.shape[1])
        flat = np.concatenate([verify._normalized(members[i]) for i in g.idx])
        assert g.rows.tobytes() == flat.tobytes()
        qs = verify._normalized(rng.standard_exponential((len(g.idx), g.members.shape[2])))
        divs = g.divergences(kl, qs)
        for j, (i, n) in enumerate(zip(g.idx, g.counts)):
            p = verify._normalized(members[i])
            assert g.members[j, :n].tobytes() == p.tobytes()
            assert g.live[j].tolist() == [k < n for k in range(g.members.shape[1])]
            assert w[j, :, :n].tobytes() == verify._normalized(priors[i]).tobytes()
            assert divs[j, :n].tobytes() == divergence_matrix(kl, p, qs[j][None])[:, 0].tobytes()
            assert not g.members[j, n:].any() and not w[j, :, n:].any() and not divs[j, n:].any()


@pytest.mark.parametrize(
    "row, message",
    [
        ([0.5, math.nan, 1.0], "pmf has a non-finite entry"),
        ([0.5, -0.2, 1.0], "negative probability entry"),
    ],
)
def test_by_support_refuses_a_malformed_row_by_name(row, message):
    members = [np.ones((2, 3)), np.array([[1.0, 2.0, 3.0], row]), np.ones((3, 3))]
    with pytest.raises(ValueError, match=message):
        verify._by_support(members)


def test_support_group_priors_refuse_a_malformed_row_by_name():
    (group,) = verify._by_support([np.ones((2, 3)), np.ones((3, 3))])
    with pytest.raises(ValueError, match="negative prior entry"):
        group.priors([np.ones(2), np.array([1.0, -0.5, 1.0])])
    with pytest.raises(ValueError, match="prior has a non-finite entry"):
        group.priors([np.array([1.0, math.nan]), np.ones(3)])


# Trial-at-a-time references for the sweeps that group by support size:
# each trial is drawn, normalized and scored alone, in draw order, and the
# worst value is folded with the builtin min or max.


def reference_map_achieves_bayes(seed, trials):
    rng = np.random.default_rng([seed, 11])
    worst = 0.0
    for _ in range(trials):
        with_prior = bool(rng.integers(0, 2))
        pmat, prior = verify._draw_arrays(rng, with_prior=with_prior)
        p = verify._normalized(pmat)
        w = verify._normalized(np.ones(len(p)) if prior is None else prior)
        errors = error_probabilities(w, p, map_tests(w, p))
        worst = max(worst, float(abs(errors - bayes_risks(w, p))))
    return {"name": "map_achieves_bayes", "pass": worst <= 1e-12, "trials": trials,
            "worst_error": worst}


def reference_bayes_concavity(seed, trials):
    rng = np.random.default_rng([seed, 12])
    worst = math.inf
    for _ in range(trials):
        pmat, _ = verify._draw_arrays(rng)
        w1 = verify._normalized(rng.standard_exponential(len(pmat)))
        w2 = verify._normalized(rng.standard_exponential(len(pmat)))
        p = verify._normalized(pmat)
        halves = (bayes_risks(w1, p) + bayes_risks(w2, p)) / 2.0
        worst = min(worst, float(bayes_risks((w1 + w2) / 2.0, p) - halves))
    return {"name": "bayes_concavity", "pass": worst >= -1e-12, "trials": trials,
            "worst_slack": worst}


def reference_weighted_soundness(seed, trials):
    rng = np.random.default_rng([seed, 20])
    gens = default_generators()
    worst, checked = math.inf, 0
    for t in range(trials):
        pmat, prior = verify._draw_arrays(rng, with_prior=True)
        s = pmat.shape[1]
        q = verify._normalized(rng.standard_exponential(s))
        if t % 7 == 0 and s > 2:
            q[int(rng.integers(0, s))] = 0.0
            q = q / q.sum()
        p, w = verify._normalized(pmat), verify._normalized(prior)
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
    worst = 0.0
    for _ in range(trials):
        pmat, _ = verify._draw_arrays(rng, n_max=5, support_max=8)
        q = verify._normalized(rng.standard_exponential(pmat.shape[1]))[None]
        p = verify._normalized(pmat)
        mix = p.mean(axis=0)[None]
        to_q = divergence_matrix(kl, p, q)[:, 0]
        to_mix = divergence_matrix(kl, p, mix)[:, 0]
        lhs, rhs = to_q[0], to_mix[0]
        for i in range(1, len(p)):
            lhs, rhs = lhs + to_q[i], rhs + to_mix[i]
        rhs = rhs + len(p) * divergence_matrix(kl, mix, q)[0, 0]
        worst = max(worst, float(abs(lhs - rhs)))
    return {"name": "compensation_identity", "pass": worst <= 1e-10, "trials": trials,
            "worst_error": worst}


SUPPORT_SWEEPS = {
    verify.check_map_achieves_bayes: reference_map_achieves_bayes,
    verify.check_bayes_concavity: reference_bayes_concavity,
    verify.check_weighted_soundness: reference_weighted_soundness,
    verify.check_compensation_identity: reference_compensation_identity,
}


@pytest.mark.parametrize("check", SUPPORT_SWEEPS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("trials", [1, None, 1000])
def test_support_sweeps_equal_their_trial_at_a_time_references(check, trials):
    """Whole records, every bit (``json.dumps`` keeps the sign of a zero),
    at suite seeds 0-3, at one trial, the suite's count and 1000."""
    if trials is None:
        trials = next(c for suite in verify._SUITES.values() for f, c, _ in suite if f is check)
    for seed in range(4):
        got = json.dumps(check(seed, trials), sort_keys=True)
        assert got == json.dumps(SUPPORT_SWEEPS[check](seed, trials), sort_keys=True)


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
