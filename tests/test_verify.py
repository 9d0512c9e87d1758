"""The helpers of the shape-batched verify sweeps."""

import math

import numpy as np
import pytest

from fdivbounds import verify
from fdivbounds.distributions import DiscreteDistribution, Ensemble, check_mass_rows
from fdivbounds.divergences import builtin_generator
from fdivbounds.informativity import CoveringFamily


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


def test_minimize_two_points_equals_one_at_a_time():
    v = np.round(np.linspace(0.0, 1.0, 11), 10)
    for name in ("kl", "chi2", "power:3"):
        gen = builtin_generator(name)
        together = verify.minimize_two_points(gen, v)
        for i, vi in enumerate(v):
            alone = verify.minimize_two_points(gen, np.array([vi]))
            assert together[i].tobytes() == alone[0].tobytes()


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
        verify.check_minimax_dominates_priors,
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
