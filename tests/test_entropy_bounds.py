import math

import numpy as np
import pytest

from fdivbounds.distributions import DiscreteDistribution, Ensemble
from fdivbounds.divergences import builtin_generator
from fdivbounds.entropy_bounds import (
    EntropyProfile,
    LossSpec,
    analytic_divergence,
    builtin_profile,
    entropy_bound_factor,
    entropy_bound_grid,
    entropy_risk_bound,
    optimize_entropy_bound,
    power_loss,
    profile_from_table,
    support_function_schedule,
)
from fdivbounds.informativity import (
    CoveringFamily,
    covering_approx_error,
    covering_specialization,
    informativity_closed_form,
)
from fdivbounds.testing_risk import bayes_risk_exact
from fdivbounds import verify
from fdivbounds.verify import check_rate_contrast, check_ball_volumetrics


def constant_profile(n, m):
    return EntropyProfile(
        packing_lower=lambda eta: n,
        eta_max=100.0,
        covering_upper=lambda eps: m,
        covering_valid=lambda eps: True,
        kind="chi2",
    )


TENTH_LOSS = LossSpec(lambda x: 0.1, name="tenth")


class TestPointEvaluation:
    def test_chi2_hand_value(self):
        val = entropy_risk_bound("chi2", constant_profile(100, 4), TENTH_LOSS, 1.0, 1.0)
        assert val == pytest.approx(0.1 * (1 - 0.01 - math.sqrt(0.08)), abs=1e-12)
        assert val == pytest.approx(0.07072, abs=1e-5)

    def test_kl_hand_value(self):
        val = entropy_risk_bound("kl", constant_profile(1024, 4), TENTH_LOSS, 1.0, 1.0)
        expected = 0.1 * (1 - (math.log(2) + math.log(4) + 1) / math.log(1024))
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.05557, abs=1e-5)

    def test_power_l_hand_value(self):
        val = entropy_risk_bound(
            "power_l", constant_profile(100, 4), TENTH_LOSS, 1.0, 1.0, l=3.0
        )
        assert val == pytest.approx(0.1 * (1 - (33.0 / 10**4) ** (1.0 / 3.0)), abs=1e-12)
        assert val == pytest.approx(0.08511, abs=1e-5)

    def test_clamped_at_zero(self):
        val = entropy_risk_bound("chi2", constant_profile(1, 4), TENTH_LOSS, 1.0, 1.0)
        assert val == 0.0

    def test_kl_needs_nontrivial_packing(self):
        with pytest.raises(ValueError, match="N\\(eta\\) > 1"):
            entropy_risk_bound("kl", constant_profile(1, 4), TENTH_LOSS, 1.0, 1.0)

    def test_power_l_excludes_two(self):
        with pytest.raises(ValueError):
            entropy_risk_bound(
                "power_l", constant_profile(100, 4), TENTH_LOSS, 1.0, 1.0, l=2.0
            )

    def test_monotonicity_in_counts(self):
        loss = power_loss(1.0)
        for kind, l in (("kl", None), ("chi2", None), ("power_l", 3.0)):
            prev = -1.0
            for n in (4, 64, 4096):
                val = entropy_risk_bound(kind, constant_profile(n, 2), loss, 1.0, 1.0, l=l)
                assert val >= prev - 1e-12
                prev = val
            prev = math.inf
            for m in (1, 4, 64):
                val = entropy_risk_bound(kind, constant_profile(4096, m), loss, 1.0, 1.0, l=l)
                assert val <= prev + 1e-12
                prev = val


class TestGridOptimization:
    def test_singleton_grid_equals_point(self):
        point = entropy_risk_bound("chi2", constant_profile(100, 4), TENTH_LOSS, 1.0, 1.0)
        rep = optimize_entropy_bound(
            "chi2", constant_profile(100, 4), TENTH_LOSS, [1.0], [1.0]
        )
        assert rep.lower_bound == pytest.approx(point, abs=1e-15)
        assert rep.intermediates["eta"] == 1.0

    def test_vacuous_profile_reports_zero(self):
        rep = optimize_entropy_bound(
            "chi2", constant_profile(1, 8), TENTH_LOSS, [0.5, 1.0], [0.5, 1.0]
        )
        assert rep.lower_bound == 0.0
        assert rep.vacuous

    def test_empty_feasible_grid_rejected(self):
        prof = builtin_profile("gaussian_ball", gamma=1.0, sigma=1.0, d=2)
        with pytest.raises(ValueError, match="validity"):
            optimize_entropy_bound("chi2", prof, power_loss(2.0), [5.0], [1.0])

    def test_gaussian_ball_against_dense_sweep(self):
        """Grid optimum matches an independent dense sweep of the closed-form
        objective (d=2, radius 10, unit noise, covering radius fixed by the
        e^(d/2) rule).  The optimum is ~1.51e-3: small but strictly positive."""
        gamma, sigma, d = 10.0, 1.0, 2
        eps = math.sqrt(math.e - 1.0)
        prof = builtin_profile("gaussian_ball", gamma=gamma, sigma=sigma, d=d)

        def oracle_bound(eta):
            n = (gamma / eta) ** d
            m = (3 * gamma / (sigma * math.sqrt(math.log1p(eps**2)))) ** d
            star = 1 / n + math.sqrt((1 + eps**2) * m / n)
            return (eta / 2) ** 2 * max(0.0, 1 - star)

        etas = np.geomspace(1e-3, 10, 20001)
        oracle = max(oracle_bound(float(e)) for e in etas)
        rep = optimize_entropy_bound("chi2", prof, power_loss(2.0), etas, [eps])
        assert rep.lower_bound == pytest.approx(oracle, abs=1e-12)
        assert rep.lower_bound == pytest.approx(1.5130826e-3, abs=1e-8)
        assert rep.lower_bound > 0 and not rep.vacuous


def reference_optimum(kind, profile, loss, eta_grid, eps_grid, l=None):
    """The per-point scan the grid optimizer replaced: (best, witness,
    feasible) from one entropy_risk_bound call per (eta, eps)."""
    best, witness, feasible = -1.0, None, 0
    for eta in sorted(float(e) for e in eta_grid):
        for eps in sorted(float(e) for e in eps_grid):
            try:
                value = entropy_risk_bound(kind, profile, loss, eta, eps, l=l)
            except ValueError:
                continue
            feasible += 1
            if value > best:
                best, witness = value, (eta, eps)
    return best, witness, feasible


_MESSY_RNG = np.random.default_rng(17)
# unsorted, with duplicates, zero, a negative value, NaN and points past every
# profile's validity region on both axes; eta = 1 and 10 are eta_max of
# gaussian_1d and gaussian_ball, where N = 1; eps = 1e200 has a square past
# the float range
MESSY_ETAS = np.concatenate(
    [
        _MESSY_RNG.permutation(np.geomspace(1e-4, 20.0, 36)),
        [0.5, 0.5, 1.0, 10.0, 0.0, -1.0, np.nan],
    ]
)
MESSY_EPSS = np.concatenate(
    [
        _MESSY_RNG.permutation(np.geomspace(1e-3, 50.0, 36)),
        [0.7, 0.7, 0.0, -1.0, 1e200],
    ]
)
GRID_PROFILES = {
    "gaussian_1d": {"c1": 1.0, "c2": 1.0, "eta0": 2.0, "eps0": 1.0, "n": 100.0},
    "uniform_scale": {"c1": 1.0, "c3": 1.0, "eta0": 1.0, "eps0": 1.0, "n": 25.0},
    "uniform_shift": {"c1": 1.0, "c2": 1.0, "eta0": 1.0, "eps0": 2.0, "n": 25.0},
    "gaussian_ball": {"gamma": 10.0, "sigma": 1.0, "d": 2},
    "support_function": {
        "c_prime": 1.0,
        "c_dprime": 1.0,
        "gamma": 1.0,
        "sigma": 1.0,
        "eta0": 0.5,
        "eps0": 1.0,
        "n": 100.0,
        "d": 3.0,
    },
    "table": None,
}
GRID_KINDS = (("kl", None), ("chi2", None), ("power_l", 3.0), ("power_l", 1.5))


def grid_profile(model, kind):
    if model == "table":
        return profile_from_table(
            [[0.01, 1000.0], [0.1, 120.0], [1.0, 10.0]],
            [[0.1, 4.0], [0.5, 3.0], [1.0, 2.0]],
        )
    profile_kind = "kl" if kind == "kl" and model == "gaussian_1d" else "chi2"
    return builtin_profile(model, kind=profile_kind, **GRID_PROFILES[model])


class TestGridEvaluation:
    @pytest.mark.parametrize("kind,l", GRID_KINDS)
    @pytest.mark.parametrize("model", sorted(GRID_PROFILES))
    def test_optimizer_matches_scalar_reference_loop(self, model, kind, l):
        """Per-axis evaluation picks the scan's bound, witness and feasible
        count, and every grid value is the point bound bit for bit.  The
        grids hold points outside validity, kl rows with N = 1, overflowing
        counts (support_function), duplicates and unsorted input."""
        prof = grid_profile(model, kind)
        loss = power_loss(2.0)
        best, witness, feasible = reference_optimum(
            kind, prof, loss, MESSY_ETAS, MESSY_EPSS, l=l
        )
        rep = optimize_entropy_bound(kind, prof, loss, MESSY_ETAS, MESSY_EPSS, l=l)
        assert 0 < feasible < MESSY_ETAS.size * MESSY_EPSS.size
        assert rep.intermediates["feasible_grid_points"] == feasible
        assert (rep.intermediates["eta"], rep.intermediates["eps"]) == witness
        assert rep.lower_bound == max(best, 0.0)
        assert rep.vacuous == (best <= 0.0)
        etas, epss, bounds = entropy_bound_grid(
            kind, prof, loss, MESSY_ETAS, MESSY_EPSS, l=l
        )
        assert bounds.size == feasible
        for eta, row in zip(etas.tolist(), bounds.tolist()):
            for eps, value in zip(epss.tolist(), row):
                assert value == entropy_risk_bound(kind, prof, loss, eta, eps, l=l)

    @pytest.mark.parametrize("kind,l", GRID_KINDS)
    def test_exact_tie_breaks_to_smallest_pair(self, kind, l):
        prof = constant_profile(100.0, 2.0)
        flat = LossSpec(lambda x: 1.0, name="flat")
        etas, epss = [0.5, 0.2, 0.9, 0.2], [0.3, 0.1, 0.7]
        best, witness, feasible = reference_optimum(kind, prof, flat, etas, epss, l=l)
        rep = optimize_entropy_bound(kind, prof, flat, etas, epss, l=l)
        assert witness == (0.2, 0.1)
        assert (rep.intermediates["eta"], rep.intermediates["eps"]) == witness
        assert rep.intermediates["feasible_grid_points"] == feasible == 12
        assert rep.lower_bound == best

    def test_point_bound_matches_written_formulas(self):
        """The one star formula gives, bit for bit, the three formulas of
        the entropy_risk_bound docstring written out with Python floats."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = float(np.exp(rng.uniform(0.01, 30.0)))
            m = float(np.exp(rng.uniform(0.0, 30.0)))
            eps = float(rng.uniform(0.01, 3.0))
            l = float(rng.choice([1.5, 3.0, 7.0]))
            prof = constant_profile(n, m)
            stars = {
                "kl": (math.log(2.0) + math.log(m) + eps**2) / math.log(n),
                "chi2": 1.0 / n + math.sqrt((1.0 + eps**2) * m / n),
                "power_l": (
                    1.0 / n ** (l - 1.0)
                    + (1.0 + eps**2) * m ** (l - 1.0) / n ** (l - 1.0)
                )
                ** (1.0 / l),
            }
            for kind, star in stars.items():
                assert entropy_bound_factor(kind, prof, 1.0, eps, l=l) == 1.0 - star
                assert entropy_risk_bound(
                    kind, prof, TENTH_LOSS, 1.0, eps, l=l
                ) == 0.1 * max(0.0, 1.0 - star)

    def test_counts_evaluated_once_per_axis_value(self):
        """On a 256 x 256 grid the counts run once per valid grid value and
        once more at the witness, not once per point."""
        calls = {"packing": 0, "covering": 0}

        def packing(eta):
            calls["packing"] += 1
            return (10.0 / eta) ** 2

        def covering(eps):
            calls["covering"] += 1
            return (30.0 / math.sqrt(math.log1p(eps**2))) ** 2

        prof = EntropyProfile(
            packing_lower=packing,
            eta_max=10.0,
            covering_upper=covering,
            covering_valid=lambda eps: math.log1p(eps**2) <= 100.0,
            kind="chi2",
        )
        etas = np.geomspace(1e-3, 100.0, 256)
        epss = np.geomspace(1e-3, 1e30, 256)
        valid_etas = int(np.sum(etas <= 10.0))
        valid_epss = sum(math.log1p(e**2) <= 100.0 for e in epss.tolist())
        assert 0 < valid_etas < 256 and 0 < valid_epss < 256
        rep = optimize_entropy_bound("chi2", prof, power_loss(2.0), etas, epss)
        assert calls == {"packing": valid_etas + 1, "covering": valid_epss + 1}
        assert rep.intermediates["feasible_grid_points"] == valid_etas * valid_epss
        assert rep.lower_bound > 0

    def test_support_function_count_overflow_is_skipped(self):
        """exp((gamma/eta)^((d-1)/2)) leaves the float range at eta = 1e-4,
        d = 3: a ValueError at the point, a skipped row in the grid."""
        prof = grid_profile("support_function", "chi2")
        with pytest.raises(ValueError, match="float range"):
            prof.packing(1e-4)
        with pytest.raises(ValueError, match="float range"):
            entropy_risk_bound("chi2", prof, power_loss(2.0), 1e-4, 1.0)
        rep = optimize_entropy_bound("chi2", prof, power_loss(2.0), [1e-4, 0.1], [1.0])
        assert rep.intermediates["feasible_grid_points"] == 1
        assert rep.intermediates["eta"] == 0.1

    def test_power_l_covering_power_overflow_is_skipped(self):
        """M(eps)^(l-1) leaves the float range for gaussian_ball d = 10,
        l = 40 at eps = 0.5, while eps = 1 stays finite."""
        prof = builtin_profile("gaussian_ball", gamma=1.0, sigma=1.0, d=10)
        loss = power_loss(2.0)
        with pytest.raises(ValueError, match="float range"):
            entropy_risk_bound("power_l", prof, loss, 0.9, 0.5, l=40.0)
        rep = optimize_entropy_bound("power_l", prof, loss, [0.9], [0.5, 1.0], l=40.0)
        assert rep.intermediates["feasible_grid_points"] == 1
        assert rep.intermediates["eps"] == 1.0
        with pytest.raises(ValueError, match="validity"):
            optimize_entropy_bound("power_l", prof, loss, [0.9], [0.5], l=40.0)


class TestProfileKindGuard:
    """A covering measured in KL undercounts the chi2 covering (chi2 >= KL),
    so it cannot back the chi2 or power_l bounds."""

    KL_PROFILE = builtin_profile(
        "gaussian_1d", kind="kl", c1=1.0, c2=1.0, eta0=1.0, eps0=1.0, n=100.0
    )
    ETAS = np.geomspace(1e-3, 1.0, 64)
    EPSS = np.geomspace(1e-3, 1.0, 64)

    @pytest.mark.parametrize("kind,l", [("chi2", None), ("power_l", 3.0)])
    def test_kl_profile_rejected_by_every_entry_point(self, kind, l):
        loss = power_loss(2.0)
        calls = (
            lambda: entropy_risk_bound(kind, self.KL_PROFILE, loss, 0.1, 0.5, l=l),
            lambda: entropy_bound_grid(kind, self.KL_PROFILE, loss, self.ETAS, self.EPSS, l=l),
            lambda: optimize_entropy_bound(kind, self.KL_PROFILE, loss, self.ETAS, self.EPSS, l=l),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"kind 'kl' cannot back the '{kind}' kind"):
                call()

    def test_matching_and_chi2_profiles_still_accepted(self):
        loss = power_loss(2.0)
        chi2_profile = builtin_profile(
            "gaussian_1d", kind="chi2", c1=1.0, c2=1.0, eta0=1.0, eps0=1.0, n=100.0
        )
        chi2 = optimize_entropy_bound("chi2", chi2_profile, loss, self.ETAS, self.EPSS)
        # the KL-measured profile used to report 4.40e-5 here
        assert chi2.lower_bound == pytest.approx(3.2837e-5, rel=1e-4)
        for profile in (self.KL_PROFILE, chi2_profile):
            report = optimize_entropy_bound("kl", profile, loss, self.ETAS, self.EPSS)
            assert report.intermediates["feasible_grid_points"] > 0


class TestAnalyticDivergences:
    def test_gaussian_location(self):
        res = analytic_divergence("gaussian_location", 1.0, 0.0, 2)
        assert res.kl == pytest.approx(1.0, abs=1e-14)
        assert res.chi2 == pytest.approx(math.e**2 - 1.0, abs=1e-12)

    def test_uniform_scale(self):
        res = analytic_divergence("uniform_scale", 1.0, 1.1, 2)
        assert res.chi2 == pytest.approx(0.21, abs=1e-12)
        assert math.isinf(analytic_divergence("uniform_scale", 1.1, 1.0, 3).chi2)

    def test_uniform_shift_widened_candidate(self):
        res = analytic_divergence("uniform_shift", 0.25, 0.0, 2)
        assert res.chi2 == pytest.approx(1.5**2 - 1.0, abs=1e-12)
        assert res.kl == pytest.approx(2.0 * math.log(1.5), abs=1e-12)
        with pytest.raises(ValueError):
            analytic_divergence("uniform_shift", 0.0, 0.25, 2)

    @pytest.mark.parametrize(
        "model,theta0,theta1", [("uniform_scale", 1.0, 1000.0), ("uniform_shift", 1000.0, 0.0)]
    )
    def test_chi2_past_float_range_raises_value_error(self, model, theta0, theta1):
        with pytest.raises(ValueError, match="chi2 leaves the float range") as err:
            analytic_divergence(model, theta0, theta1, 1000)
        message = str(err.value)
        assert model in message and "n=1000" in message
        assert repr(theta0) in message and repr(theta1) in message

    @pytest.mark.parametrize("model", ["gaussian_location", "uniform_scale", "uniform_shift"])
    def test_coincident_parameters(self, model):
        res = analytic_divergence(model, 0.7, 0.7, 5)
        assert res.kl == 0.0 and res.chi2 == 0.0

    def test_gaussian_location_oracle_on_products(self):
        """The closed forms agree with exact finite-space computation on a
        discretized pair carried to the n-fold product."""
        from fdivbounds.distributions import product_distribution
        from fdivbounds.divergences import eval_divergence

        # two near-degenerate discrete surrogates: exact product arithmetic
        p = DiscreteDistribution(np.array([0.6, 0.4]))
        q = DiscreteDistribution(np.array([0.5, 0.5]))
        kl1 = eval_divergence(builtin_generator("kl"), p, q)
        chi1 = eval_divergence(builtin_generator("chi2"), p, q)
        for n in (2, 3, 4):
            pn = product_distribution(p, n)
            qn = product_distribution(q, n)
            assert eval_divergence(builtin_generator("kl"), pn, qn) == pytest.approx(
                n * kl1, abs=1e-12
            )
            assert eval_divergence(builtin_generator("chi2"), pn, qn) == pytest.approx(
                (1.0 + chi1) ** n - 1.0, abs=1e-12
            )


class TestBuiltinProfiles:
    def test_gaussian_ball_values(self):
        prof = builtin_profile("gaussian_ball", gamma=10.0, sigma=1.0, d=2)
        assert prof.packing(1.0) == pytest.approx(100.0, abs=1e-12)
        assert prof.covering(math.sqrt(math.e - 1.0)) == pytest.approx(900.0, abs=1e-9)
        # validity needs sigma sqrt(log(1+eps^2)) <= gamma: fails near e^(gamma^2)
        assert not prof.covering_valid(1e30)
        assert prof.covering_valid(1e9)
        assert prof.defaulted == ()

    def test_uniform_shift_value(self):
        prof = builtin_profile(
            "uniform_shift", c1=1.0, c2=1.0, eta0=1.0, eps0=2.0, n=1.0
        )
        assert prof.covering(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_unspecified_constants_are_flagged(self):
        prof = builtin_profile("gaussian_1d", kind="chi2", n=100.0)
        assert set(prof.defaulted) == {"c1", "c2", "eta0", "eps0"}
        rep = optimize_entropy_bound(
            "chi2", prof, power_loss(2.0), [0.05], [0.5]
        )
        assert any("defaulted" in note for note in rep.notes)

    def test_support_function_profile_validity(self):
        prof = builtin_profile(
            "support_function",
            c_prime=1.0,
            c_dprime=1.0,
            gamma=1.0,
            sigma=1.0,
            eta0=0.5,
            eps0=1.0,
            n=100.0,
            d=3.0,
        )
        assert prof.covering_valid(1.0)
        assert not prof.covering_valid(math.sqrt(math.exp(101.0) - 1.0))
        # log N = (gamma/eta)^((d-1)/2) = 4 at eta = 1/4, d = 3
        assert prof.packing(0.25) == pytest.approx(math.exp(4.0), rel=1e-12)

    def test_uniform_scale_profile(self):
        prof = builtin_profile(
            "uniform_scale", c1=1.0, c3=2.0, eta0=1.0, eps0=1.0, n=50.0
        )
        assert prof.covering(1.0) == pytest.approx(100.0 / math.log(2.0), rel=1e-12)
        assert not prof.covering_valid(1.5)

    @pytest.mark.parametrize(
        "model,params",
        [
            ("gaussian_1d", {"c1": 1.0, "c2": 1.0, "eta0": 1.0, "eps0": 1.0, "n": 25.0}),
            ("uniform_scale", {"c1": 1.0, "c3": 1.0, "eta0": 1.0, "eps0": 1.0, "n": 25.0}),
            ("uniform_shift", {"c1": 1.0, "c2": 1.0, "eta0": 1.0, "eps0": 1.0, "n": 25.0}),
            ("gaussian_ball", {"gamma": 5.0, "sigma": 1.0, "d": 3}),
        ],
    )
    def test_profile_counts_monotone_on_grids(self, model, params):
        """Packing counts shrink as eta grows; covering counts shrink as eps
        grows (coarser radii need fewer points)."""
        prof = builtin_profile(model, kind="chi2", **params)
        etas = np.geomspace(prof.eta_max / 100.0, prof.eta_max, 25)
        packs = [prof.packing(float(e)) for e in etas]
        assert all(b <= a + 1e-12 for a, b in zip(packs, packs[1:]))
        eps_hi = 1.0 if model != "gaussian_ball" else 10.0
        covers = [prof.covering(float(e)) for e in np.geomspace(0.05, eps_hi, 25)]
        assert all(b <= a + 1e-9 for a, b in zip(covers, covers[1:]))

    def test_optimizer_tie_break_smallest_pair(self):
        prof = constant_profile(100.0, 2.0)
        rep = optimize_entropy_bound(
            "chi2", prof, LossSpec(lambda x: 1.0, name="flat"), [0.5, 0.2], [0.3, 0.1]
        )
        # every grid point scores the same: the smallest (eta, eps) wins
        assert rep.intermediates["eta"] == 0.2
        assert rep.intermediates["eps"] == 0.1

    def test_table_profile_interpolates_loglinear(self):
        prof = profile_from_table([[0.1, 100.0], [1.0, 10.0]], [[0.1, 8.0], [1.0, 2.0]])
        mid = prof.packing(math.sqrt(0.1))  # geometric midpoint
        assert mid == pytest.approx(math.sqrt(1000.0), rel=1e-9)
        assert prof.covering_valid(0.5)
        assert not prof.covering_valid(2.0)

    @pytest.mark.parametrize(
        "packing,covering",
        [
            ([[0.1, math.nan], [1.0, 2.0]], [[0.1, 4.0], [1.0, 2.0]]),
            ([[0.1, math.inf], [1.0, 2.0]], [[0.1, 4.0], [1.0, 2.0]]),
            ([[math.nan, 100.0], [1.0, 2.0]], [[0.1, 4.0], [1.0, 2.0]]),
            ([[0.1, 100.0], [math.inf, 2.0]], [[0.1, 4.0], [1.0, 2.0]]),
            ([[0.1, 100.0], [1.0, 2.0]], [[0.1, 4.0], [1.0, -math.inf]]),
            ([[0.1, 100.0], [1.0, 2.0]], [[-math.inf, 4.0], [1.0, 2.0]]),
            ([[0.1, 100.0], [1.0, 2.0]], [[0.1, math.nan], [1.0, 2.0]]),
        ],
    )
    def test_table_profile_rejects_non_finite_entries(self, packing, covering):
        with pytest.raises(ValueError, match="finite"):
            profile_from_table(packing, covering)

    def test_schedule_exponents(self):
        s1 = support_function_schedule(100, 2, 1.0, 1.0, 1.0, 1.0)
        s2 = support_function_schedule(100 * 32, 2, 1.0, 1.0, 1.0, 1.0)
        # eta ~ n^(-2/(d+3)) = n^(-0.4) and u ~ n^(1/10) at d=2
        assert s2.eta / s1.eta == pytest.approx(32.0 ** (-0.4), rel=1e-9)
        assert s2.u / s1.u == pytest.approx(32.0 ** 0.1, rel=1e-9)
        assert math.log1p(s1.eps**2) == pytest.approx(s1.u**2, rel=1e-9)


class TestSoundnessChain:
    def test_finite_instance_chain(self):
        """On explicit finite instances the chi2 entropy bound is dominated
        stepwise: the covering relaxation, the informativity bound, and the
        exact Bayes risk, each within 1e-9."""
        rng = np.random.default_rng(5)
        chi2 = builtin_generator("chi2")
        loss = power_loss(1.0)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(2, 7))
            ens = Ensemble(
                members=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
                )
            )
            m = int(rng.integers(1, 4))
            fam = CoveringFamily(
                candidates=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(m)
                )
            )
            err, _ = covering_approx_error(chi2, ens, fam)
            eps = math.sqrt(err) if err > 0 else 1e-9
            point = entropy_risk_bound(
                "chi2", constant_profile(float(n), float(m)), loss, 2.0, eps
            )
            j_exact = informativity_closed_form("chi2", ens).value
            cover_j = covering_specialization("chi2", m, err)
            rbar = bayes_risk_exact(ens)
            assert cover_j >= j_exact - 1e-9
            assert rbar >= 1.0 - 1.0 / n - math.sqrt(j_exact / n) - 1e-9
            assert point <= max(0.0, 1 - 1 / n - math.sqrt(cover_j / n)) + 1e-9
            assert point <= rbar + 1e-9

    def test_rate_contrast(self):
        result = check_rate_contrast()
        assert result["pass"], result
        assert all(f <= 0 for f in result["kl_factors"])
        assert result["band_ratio"] <= 3.0

    def test_ball_volumetrics(self):
        result = check_ball_volumetrics()
        assert result["pass"], result

    @pytest.mark.parametrize("radius", [0.15, 0.2, 0.3, 0.5])
    def test_windowed_greedy_matches_naive(self, radius):
        """The lattice-window greedy packing picks the centers of the greedy
        that tests every remaining point, in the same order."""
        ax = np.arange(-1.0, 1.01, 0.02)
        xx, yy = np.meshgrid(ax, ax)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        pts = pts[(pts**2).sum(axis=1) <= 1.0]
        naive = []
        while pts.shape[0]:
            naive.append(tuple(pts[0]))
            pts = pts[((pts - pts[0]) ** 2).sum(axis=1) >= radius**2]
        inside = ax[None, :] ** 2 + ax[:, None] ** 2 <= 1.0
        windowed = verify._greedy_packing(ax, inside, radius)
        assert [(ax[j], ax[i]) for i, j in windowed] == naive
