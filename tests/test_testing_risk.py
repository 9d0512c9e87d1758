import numpy as np
import pytest

from fdivbounds.distributions import DiscreteDistribution, Ensemble
from fdivbounds.testing_risk import (
    bayes_risk_exact,
    map_test,
    minimax_risk,
    error_probability,
    worst_case_error,
)


def ens_of(*rows, prior=None):
    members = tuple(DiscreteDistribution(np.array(r)) for r in rows)
    return Ensemble(members=members, prior=None if prior is None else np.array(prior))


TWO_POINT = ens_of([0.75, 0.25], [0.25, 0.75])


class TestBayesRisk:
    def test_two_member_example(self):
        assert bayes_risk_exact(TWO_POINT) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_identical_members(self, n):
        member = [0.4, 0.6]
        ens = ens_of(*[member] * n)
        assert bayes_risk_exact(ens) == pytest.approx(1.0 - 1.0 / n, abs=1e-15)

    def test_degenerate_prior(self):
        ens = ens_of([0.75, 0.25], [0.25, 0.75], prior=[1.0, 0.0])
        assert bayes_risk_exact(ens) == 0.0

    def test_uniform_prior_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            s = int(rng.integers(2, 13))
            ens = Ensemble(
                members=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
                )
            )
            assert bayes_risk_exact(ens) <= 1.0 - 1.0 / n + 1e-12

    def test_concavity_in_prior(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(2, 9))
            members = tuple(
                DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
            )
            w1, w2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            mid = bayes_risk_exact(Ensemble(members=members, prior=(w1 + w2) / 2))
            avg = (
                bayes_risk_exact(Ensemble(members=members, prior=w1))
                + bayes_risk_exact(Ensemble(members=members, prior=w2))
            ) / 2.0
            assert mid >= avg - 1e-12


class TestMapTest:
    def test_two_member_example(self):
        assert map_test(TWO_POINT).tolist() == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        ens = ens_of([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        assert map_test(ens).tolist() == [0, 0]

    def test_degenerate_prior_picks_supported_member(self):
        ens = ens_of([0.75, 0.25], [0.25, 0.75], prior=[1.0, 0.0])
        assert map_test(ens).tolist() == [0, 0]

    def test_map_achieves_bayes_risk(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            s = int(rng.integers(2, 13))
            ens = Ensemble(
                members=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
                ),
                prior=rng.dirichlet(np.ones(n)),
            )
            err = error_probability(ens, map_test(ens))
            assert err == pytest.approx(bayes_risk_exact(ens), abs=1e-12)

    def error_probability_validates_assignment(self):
        with pytest.raises(ValueError):
            error_probability(TWO_POINT, np.array([0, 5]))
        with pytest.raises(ValueError):
            error_probability(TWO_POINT, np.array([0]))


class TestMinimaxRisk:
    def test_two_member_example(self):
        res = minimax_risk(TWO_POINT, tol=1e-6)
        assert res.value == pytest.approx(0.25, abs=1e-9)
        # the witness prior attains the reported value
        attained = bayes_risk_exact(Ensemble(members=TWO_POINT.members, prior=res.prior))
        assert attained == pytest.approx(res.value, abs=1e-12)
        assert res.duality_gap <= 1e-9

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            minimax_risk(TWO_POINT, tol=tol)

    def test_identical_members(self):
        ens = ens_of([0.4, 0.6], [0.4, 0.6], [0.4, 0.6])
        assert minimax_risk(ens).value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_mutually_singular_members(self):
        ens = ens_of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        res = minimax_risk(ens)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.duality_gap == pytest.approx(0.0, abs=1e-12)

    def test_dominates_every_prior(self):
        rng = np.random.default_rng(3)
        tol = 1e-6
        for _ in range(50):
            n = int(rng.integers(2, 5))
            s = int(rng.integers(2, 9))
            members = tuple(
                DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
            )
            res = minimax_risk(Ensemble(members=members), tol=tol)
            for _ in range(8):
                w = rng.dirichlet(np.ones(n))
                assert (
                    bayes_risk_exact(Ensemble(members=members, prior=w))
                    <= res.value + tol
                )
            assert res.value >= bayes_risk_exact(Ensemble(members=members)) - 1e-12

    def test_gap_bounded_by_worst_case_of_any_test(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            members = tuple(
                DiscreteDistribution(rng.dirichlet(np.ones(6))) for _ in range(3)
            )
            ens = Ensemble(members=members)
            res = minimax_risk(ens)
            assert res.duality_gap >= -1e-12
            assert res.value + res.duality_gap <= worst_case_error(ens, map_test(ens)) + 1e-12

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            minimax_risk(TWO_POINT, tol=0.0)
