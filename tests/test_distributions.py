import json

import numpy as np
import pytest

from fdivbounds.distributions import (
    DiscreteDistribution,
    Ensemble,
    distribution_from_json,
    ensemble_from_json,
    product_distribution,
    uniform_mixture,
    validate,
)


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
