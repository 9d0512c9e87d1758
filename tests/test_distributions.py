import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdivbounds.distributions import (
    DiscreteDistribution,
    Ensemble,
    distribution_from_json,
    ensemble_from_json,
    product_distribution,
    uniform_mixture,
    validate,
)
from fdivbounds.informativity import CoveringFamily, covering_family_from_json


class TestDiscreteDistribution:
    def test_uniform_two_points_valid(self):
        dist = DiscreteDistribution(np.array([0.5, 0.5]))
        assert dist.support_size == 2
        assert validate(dist) is dist

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            DiscreteDistribution(np.array([0.5, 0.6]))

    def test_point_mass_with_zero_entry_valid(self):
        dist = DiscreteDistribution(np.array([1.0, 0.0]))
        assert dist.pmf[1] == 0.0

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDistribution(np.array([1.1, -0.1]))

    def test_rounding_slack_within_input_tolerance(self):
        DiscreteDistribution(np.array([0.5, 0.5 + 5e-10]))
        with pytest.raises(ValueError):
            DiscreteDistribution(np.array([0.5, 0.5 + 5e-9]))

    @pytest.mark.parametrize(
        "pmf", [[np.nan, 1.0], [0.5, 0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf, 0.5]]
    )
    def test_non_finite_entry_rejected(self, pmf):
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteDistribution(np.array(pmf))

    def test_pmf_is_immutable(self):
        dist = DiscreteDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            dist.pmf[0] = 1.0


class TestEnsemble:
    def test_requires_two_members(self):
        m = DiscreteDistribution(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="at least 2"):
            Ensemble(members=(m,))

    def test_mixed_support_rejected(self):
        a = DiscreteDistribution(np.array([1.0, 0.0]))
        b = DiscreteDistribution(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="mixed support"):
            Ensemble(members=(a, b))

    def test_default_prior_uniform(self):
        a = DiscreteDistribution(np.array([1.0, 0.0]))
        b = DiscreteDistribution(np.array([0.0, 1.0]))
        ens = Ensemble(members=(a, b))
        assert np.allclose(ens.weights(), [0.5, 0.5])

    def test_bad_prior_rejected(self):
        a = DiscreteDistribution(np.array([1.0, 0.0]))
        b = DiscreteDistribution(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            Ensemble(members=(a, b), prior=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Ensemble(members=(a, b), prior=np.array([1.0]))

    @pytest.mark.parametrize("prior", [[np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_prior_rejected(self, prior):
        a = DiscreteDistribution(np.array([1.0, 0.0]))
        b = DiscreteDistribution(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            Ensemble(members=(a, b), prior=np.array(prior))

    def test_uniform_mixture(self):
        a = DiscreteDistribution(np.array([1.0, 0.0]))
        b = DiscreteDistribution(np.array([0.0, 1.0]))
        assert np.allclose(uniform_mixture(Ensemble(members=(a, b))).pmf, [0.5, 0.5])


class TestProductDistribution:
    def test_fair_coin_squared(self):
        base = DiscreteDistribution(np.array([0.5, 0.5]))
        prod = product_distribution(base, 2)
        assert np.allclose(prod.pmf, [0.25, 0.25, 0.25, 0.25])

    def test_degenerate_base(self):
        base = DiscreteDistribution(np.array([1.0]))
        assert np.allclose(product_distribution(base, 3).pmf, [1.0])

    def test_biased_coin_lexicographic(self):
        base = DiscreteDistribution(np.array([0.2, 0.8]))
        prod = product_distribution(base, 2)
        # index 2*x1 + x2: direct multiplication oracle
        assert np.allclose(prod.pmf, [0.04, 0.16, 0.16, 0.64])

    def test_size_cap(self):
        base = DiscreteDistribution(np.full(10, 0.1))
        with pytest.raises(ValueError, match="cap"):
            product_distribution(base, 7)
        product_distribution(base, 6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_marginals_recover_base(self, n):
        rng = np.random.default_rng(7)
        base = DiscreteDistribution(rng.dirichlet(np.ones(3)))
        prod = product_distribution(base, n)
        assert validate(prod)
        cube = prod.pmf.reshape((3,) * n)
        for axis in range(n):
            other = tuple(a for a in range(n) if a != axis)
            marg = cube.sum(axis=other) if other else cube
            assert np.abs(marg - base.pmf).max() <= 1e-12


class TestJsonRoundTrip:
    def test_distribution(self):
        dist = DiscreteDistribution(np.array([0.25, 0.75]))
        again = distribution_from_json(json.loads(json.dumps(dist.to_json())))
        assert np.array_equal(again.pmf, dist.pmf)

    def test_ensemble_with_prior_and_labels(self):
        a = DiscreteDistribution(np.array([1.0, 0.0]))
        b = DiscreteDistribution(np.array([0.0, 1.0]))
        ens = Ensemble(members=(a, b), prior=np.array([0.3, 0.7]), labels=(0.1, 0.2))
        again = ensemble_from_json(json.loads(json.dumps(ens.to_json())))
        assert again.size == 2
        assert np.allclose(again.prior, [0.3, 0.7])
        assert again.labels == (0.1, 0.2)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            distribution_from_json({"not_pmf": [1.0]})
        with pytest.raises(ValueError):
            ensemble_from_json({"members": []})


# ---------------------------------------------------------------------------
# Rejection behaviour, pinned against the plain check sequence
# ---------------------------------------------------------------------------


def _expected_error(values, name, negative, length=None):
    """The message the constructors give, from the checks run one by one in
    the order shape, non-finite, length (priors only), negative, sum; None
    when the vector is accepted."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        return f"{name} must be a nonempty 1-d vector"
    if not np.all(np.isfinite(arr)):
        return f"{name} has a non-finite entry"
    if length is not None and arr.size != length:
        return "prior length does not match member count"
    if np.any(arr < 0):
        return negative(arr)
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        return f"{name} sums to {total!r}, not 1"
    return None


def _pmf_error(values):
    return _expected_error(
        values, "pmf", lambda arr: f"negative probability entry (min {arr.min()!r})"
    )


_FAULTS = (
    "none", "nan", "inf", "-inf", "negative", "off", "overflow",
    "overflow_negative", "empty", "2d", "column",
)


@st.composite
def _mass_vectors(draw):
    """A normalized vector (zero and subnormal entries included), then at
    most one fault: a non-finite or negative entry, a total off by more
    than the input tolerance, a finite vector whose sum overflows, or the
    wrong shape."""
    raw = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=6
        )
    )
    total = math.fsum(raw)
    vec = [v / total for v in raw] if total > 0.0 else [1.0] + raw[1:]
    fault = draw(st.sampled_from(_FAULTS))
    i = draw(st.integers(0, len(vec) - 1))
    if fault in ("nan", "inf", "-inf"):
        vec[i] = float(fault)
    elif fault == "negative":
        vec[i] = -draw(st.floats(5e-324, 2.0))
    elif fault == "off":
        shift = draw(st.floats(2e-9, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
        vec = [v * (1.0 + shift) for v in vec]
    elif fault == "overflow":
        vec = [1e308] * (len(vec) + 1)
    elif fault == "overflow_negative":
        vec = [1e308] * (len(vec) + 1) + [-1.0]
    elif fault == "empty":
        vec = []
    elif fault == "2d":
        vec = [vec, vec]
    elif fault == "column":
        vec = [[v] for v in vec]
    return vec


_BASE = (
    DiscreteDistribution(np.array([1.0, 0.0])),
    DiscreteDistribution(np.array([0.25, 0.75])),
    DiscreteDistribution(np.array([0.0, 1.0])),
)

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestConstructorRejection:
    @_PROPERTY
    @given(_mass_vectors())
    @example([1e308, 1e308])
    @example([1e308, 1e308, -1.0])
    @example([1.0, 5e-324, 0.0])
    @example([0.5, 0.5 - 5e-324, 1e-310])
    def test_distribution(self, values):
        expected = _pmf_error(values)
        if expected is None:
            dist = DiscreteDistribution(np.array(values, dtype=float))
            assert np.array_equal(dist.pmf, np.array(values, dtype=float))
            assert not dist.pmf.flags.writeable
        else:
            with pytest.raises(ValueError) as err:
                DiscreteDistribution(values)
            assert str(err.value) == expected

    @_PROPERTY
    @given(_mass_vectors())
    @example([1e308, 1e308, 1e308])
    @example([0.5, 0.5])
    @example([1e308, 1e308])
    @example([0.0, 1.0, 5e-324])
    def test_ensemble_prior(self, values):
        expected = _expected_error(
            values, "prior", lambda arr: "negative prior entry", length=len(_BASE)
        )
        if expected is None:
            ens = Ensemble(members=_BASE, prior=values)
            assert np.array_equal(ens.prior, np.array(values, dtype=float))
            assert ens.weights() is ens.prior
        else:
            with pytest.raises(ValueError) as err:
                Ensemble(members=_BASE, prior=values)
            assert str(err.value) == expected

    @_PROPERTY
    @given(st.lists(_mass_vectors(), max_size=3))
    def test_covering_family_from_json(self, candidates):
        expected = next(
            (err for err in map(_pmf_error, candidates) if err is not None), None
        )
        if expected is None and not candidates:
            expected = "covering family needs at least one candidate"
        elif expected is None and len({len(c) for c in candidates}) > 1:
            expected = "candidates have mixed support sizes"
        if expected is None:
            fam = covering_family_from_json({"candidates": [{"pmf": c} for c in candidates]})
            assert np.array_equal(fam.pmf_matrix(), np.array(candidates, dtype=float))
        else:
            with pytest.raises(ValueError) as err:
                covering_family_from_json({"candidates": [{"pmf": c} for c in candidates]})
            assert str(err.value) == expected

    def test_overflowing_sum_reports_the_sum(self):
        with pytest.raises(ValueError) as err:
            DiscreteDistribution(np.array([1e308, 1e308]))
        assert str(err.value) == "pmf sums to inf, not 1"
        with pytest.raises(ValueError) as err:
            Ensemble(members=_BASE[:2], prior=np.array([1e308, 1e308]))
        assert str(err.value) == "prior sums to inf, not 1"

    def test_mismatched_members(self):
        with pytest.raises(ValueError, match="mixed support sizes"):
            Ensemble(members=(_BASE[0], DiscreteDistribution(np.array([1.0]))))


# ---------------------------------------------------------------------------
# Cached stacks
# ---------------------------------------------------------------------------


def _read_only_and_cached(get, expected):
    first = get()
    assert get() is first
    assert not first.flags.writeable
    assert np.array_equal(first, expected)
    with pytest.raises(ValueError):
        first[0] = 0.5
    with pytest.raises(ValueError):
        first += 0.0


class TestCachedStacks:
    def test_ensemble_pmf_matrix(self):
        ens = Ensemble(members=_BASE)
        _read_only_and_cached(ens.pmf_matrix, np.stack([m.pmf for m in _BASE]))

    def test_uniform_weights(self):
        ens = Ensemble(members=_BASE)
        _read_only_and_cached(ens.weights, np.full(3, 1.0 / 3.0))

    def test_prior_weights(self):
        ens = Ensemble(members=_BASE, prior=[0.2, 0.3, 0.5])
        _read_only_and_cached(ens.weights, np.array([0.2, 0.3, 0.5]))
        assert ens.weights() is ens.prior

    def test_covering_family_pmf_matrix(self):
        fam = CoveringFamily(candidates=_BASE[1:])
        _read_only_and_cached(fam.pmf_matrix, np.stack([c.pmf for c in _BASE[1:]]))

    def test_each_object_stacks_its_own_members(self):
        a = Ensemble(members=_BASE[:2])
        b = Ensemble(members=_BASE[1:])
        assert np.array_equal(a.pmf_matrix(), np.stack([_BASE[0].pmf, _BASE[1].pmf]))
        assert np.array_equal(b.pmf_matrix(), np.stack([_BASE[1].pmf, _BASE[2].pmf]))
