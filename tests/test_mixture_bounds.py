import math

import numpy as np
import pytest

from fdivbounds.distributions import DiscreteDistribution, Ensemble
from fdivbounds.divergences import (
    builtin_generator,
    default_generators,
    divergence_matrix,
    total_variation,
)
from fdivbounds.informativity import closed_forms
from fdivbounds.mixture_bounds import (
    ensemble_statistics,
    implicit_risk_bound,
    map_reference_masses,
    named_bound,
    named_bound_from_ensemble,
    named_risk_bounds,
    tangent_risk_bound,
    two_point_target,
    two_point_witness,
    two_point_pairs,
    two_point_sums,
    weighted_divergence_floor,
    weighted_sums,
)
from fdivbounds.testing_risk import bayes_risk_exact
from fdivbounds.verify import check_weighted_soundness, minimize_two_points

KL = builtin_generator("kl")
CHI2 = builtin_generator("chi2")


def weighted_divergence_sums(gen, w, pmats, qs):
    """sum_theta w_theta D_f(P_theta||Q) of B stacked instances (priors
    (B, N), members (B, N, S), references (B, S)): the paired kernel call
    and ``weighted_sums``."""
    return weighted_sums(w, divergence_matrix(gen, pmats, qs[:, None, :])[..., 0])


class TestWeightedDivergenceFloor:
    def test_quadratic_hand_value(self):
        # 0.5 f(1.5) + 0.5 f(0.5) for f = x^2 - 1
        assert weighted_divergence_floor(CHI2, 0.5, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_zero_when_both_ratios_are_one(self):
        for gen in default_generators():
            n = 4
            val = weighted_divergence_floor(gen, 1.0 / n, 1.0 - 1.0 / n)
            assert val == pytest.approx(0.0, abs=1e-12)

    def test_kl_at_zero_risk(self):
        assert weighted_divergence_floor(KL, 0.5, 0.0) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    @pytest.mark.parametrize("name", ["kl", "reverse_kl"])
    def test_subnormal_mass_refused_by_name(self, name):
        """At W = 1e-320, (1 - rbar)/W overflows although the floor is
        finite (about 368 for kl), so +inf would not be a lower bound."""
        gen = builtin_generator(name)
        with pytest.raises(ValueError, match="W=1e-320 is so small"):
            weighted_divergence_floor(gen, 1e-320, 0.5)
        with pytest.raises(ValueError, match="W=1e-320 is so small"):
            weighted_divergence_floor(gen, np.array([0.5, 1e-320]), 0.5)

    @pytest.mark.parametrize(
        "name,value",
        [("kl", 150.0 * math.log(10.0) - math.log(2.0)), ("reverse_kl", math.log(2.0))],
    )
    def test_tiny_normal_mass_stays_finite(self, name, value):
        floor = weighted_divergence_floor(builtin_generator(name), 1e-300, 0.5)
        assert floor == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("w", [0.0, 1.0, -0.1, 1.1])
    def test_degenerate_mass_rejected(self, w):
        with pytest.raises(ValueError):
            weighted_divergence_floor(KL, w, 0.2)

    def test_soundness_sweep(self):
        """The central inequality on random ensembles, priors, references,
        and every built-in generator."""
        result = check_weighted_soundness(seed=0, trials=300)
        assert result["pass"], result

    def test_soundness_infinite_lhs_cases(self):
        # reference missing mass where a member has it: the sum is infinite
        pmat = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        q = np.array([1.0, 0.0, 0.0])
        w = np.full(2, 0.5)
        assert math.isinf(weighted_divergence_sums(KL, w[None], pmat[None], q[None])[0])

    def test_map_reference_mass_uniform_prior(self):
        pmat = np.array([[0.75, 0.25], [0.25, 0.75]])
        q = np.array([0.3, 0.7])
        w = np.full(2, 0.5)
        # uniform prior: w_{T(x)} = 1/2 everywhere
        assert map_reference_masses(w[None], pmat[None], q[None])[0] == pytest.approx(
            0.5, abs=1e-15
        )


class TestImplicitRiskBound:
    def test_quadratic_inversion(self):
        # solves 8 (0.5 - a)^2 = 0.5
        assert implicit_risk_bound(CHI2, 2, 0.5) == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("name", ["kl", "chi2", "hellinger_half", "power:3"])
    def test_zero_sum_gives_maximal_risk(self, name):
        gen = builtin_generator(name)
        assert implicit_risk_bound(gen, 4, 0.0) == pytest.approx(0.75, abs=1e-12)

    def test_bracket_end_exact(self):
        # the floor at a=0 equals the sum exactly: the bound collapses to 0
        assert implicit_risk_bound(KL, 2, 2.0 * math.log(2.0)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_huge_sum_gives_zero(self):
        assert implicit_risk_bound(KL, 3, 1e6) == 0.0

    def test_infinite_floor_at_zero_is_handled(self):
        rev = builtin_generator("reverse_kl")
        val = implicit_risk_bound(rev, 2, 5.0)
        assert 0.0 <= val <= 0.5


class TestTangentRiskBound:
    def test_zero_correction_returns_anchor(self):
        floor = 8.0 * (0.5 - 0.25) ** 2
        assert tangent_risk_bound(CHI2, 2, floor, 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_never_beats_implicit_inversion(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            name = ("kl", "chi2", "power:3", "hellinger_half")[int(rng.integers(0, 4))]
            gen = builtin_generator(name)
            total = float(rng.uniform(0.0, 3.0))
            a = float(rng.uniform(0.0, 1.0 - 1.0 / n - 1e-9))
            implicit = implicit_risk_bound(gen, n, total)
            tangent = tangent_risk_bound(gen, n, total, a)
            assert tangent <= implicit + 1e-9

    def test_implicit_inversion_sound_against_exact_risk(self):
        """Inverting the floor at the exact informativity sum never beats
        the exact uniform-prior Bayes risk."""
        from fdivbounds.informativity import informativity_closed_form

        rng = np.random.default_rng(31)
        for t in range(150):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(2, 9))
            ens = Ensemble(
                members=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
                )
            )
            name = ("kl", "chi2", "hellinger_half", "power:3")[t % 4]
            total = n * informativity_closed_form(name, ens).value
            bound = implicit_risk_bound(builtin_generator(name), n, total)
            assert bound <= bayes_risk_exact(ens) + 1e-9

    def test_fano_anchor_reproduces_log_form(self):
        """At the anchor (N-1)/(2N-1) the tangent bound collapses to
        1 - (log((2N-1)/N) + avg) / log N."""
        for n in (3, 8, 16):
            for avg in (0.2, 0.9, 2.0):
                a0 = (n - 1.0) / (2.0 * n - 1.0)
                got = tangent_risk_bound(KL, n, n * avg, a0)
                sharp = 1.0 - (math.log((2.0 * n - 1.0) / n) + avg) / math.log(n)
                assert got == pytest.approx(max(0.0, sharp), abs=1e-12)
                # the named form relaxes log((2N-1)/N) to log 2
                assert named_bound("fano", n=n, avg_kl=avg).lower_bound <= got + 1e-12

    def test_requires_derivative(self):
        with pytest.raises(ValueError, match="derivative"):
            tangent_risk_bound(builtin_generator("tv"), 2, 0.1, 0.1)


class TestNamedBounds:
    def test_fano_value(self):
        rep = named_bound("fano", n=16, avg_kl=1.0)
        assert rep.lower_bound == pytest.approx(
            1.0 - (math.log(2.0) + 1.0) / math.log(16.0), abs=1e-12
        )

    def test_chi2_identical_members(self):
        rep = named_bound("chi2", n=2, divergence_sum=0.0)
        assert rep.lower_bound == 0.5

    @pytest.mark.parametrize("n", [2.5, True, math.nan, math.inf])
    def test_non_integral_n_refused_by_name(self, n):
        """n = 2.5 once gave the n = 2 bound and reported "n": 2."""
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            named_bound("chi2", n=n, divergence_sum=0.5)

    def test_integral_float_n_accepted(self):
        """The CLI hands N=16 over as 16.0."""
        as_float = named_bound("chi2", n=16.0, divergence_sum=0.5).to_json()
        assert as_float == named_bound("chi2", n=16, divergence_sum=0.5).to_json()
        assert as_float["inputs"]["n"] == 16
        assert named_bound("fano", n=np.int64(16), avg_kl=1.0).inputs["n"] == 16

    @pytest.mark.parametrize(
        "h_sq,expected",
        [(1.0, 0.0), (0.5, 0.5 - 0.5 * math.sqrt(0.75)), (0.0, 0.5)],
    )
    def test_hellinger_two_member_values(self, h_sq, expected):
        rep = named_bound("hellinger", n=2, h_sq=h_sq)
        assert rep.lower_bound == pytest.approx(expected, abs=1e-12)

    def test_power_l_value(self):
        rep = named_bound("power_l", n=2, exponent=3.0, divergence_sum=0.0)
        assert rep.lower_bound == pytest.approx(1.0 - 0.25 ** (1.0 / 3.0), abs=1e-12)

    def test_tv_mutually_singular(self):
        rep = named_bound("tv", n=2, divergence_sum=1.0)
        assert rep.lower_bound == 0.0
        assert rep.vacuous

    def test_reverse_kl_tv_is_an_upper_bound_report(self):
        rep = named_bound("reverse_kl_tv", divergence_sum=0.5)
        assert rep.lower_bound == pytest.approx(math.sqrt(1.0 - math.exp(-0.5)), abs=1e-12)
        assert "upper bound" in rep.notes[0]

    def test_vacuous_flagged_not_suppressed(self):
        rep = named_bound("fano", n=2, avg_kl=5.0)
        assert rep.lower_bound == 0.0
        assert rep.vacuous

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown bound family"):
            named_bound("assouad", n=2)

    def test_soundness_from_exact_statistics(self):
        rng = np.random.default_rng(21)
        families = ("fano", "chi2", "hellinger", "tv", "power_l")
        for _ in range(60):
            n = int(rng.integers(2, 5))
            s = int(rng.integers(2, 7))
            ens = Ensemble(
                members=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
                )
            )
            rbar = bayes_risk_exact(ens)
            for family in families:
                rep = named_bound_from_ensemble(family, ens)
                assert rep.lower_bound <= rbar + 1e-9, (family, rep.to_json())

    def test_reverse_kl_tv_from_ensemble_bounds_tv(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            p1 = DiscreteDistribution(rng.dirichlet(np.ones(4)))
            p2 = DiscreteDistribution(rng.dirichlet(np.ones(4)))
            ens = Ensemble(members=(p1, p2))
            rep = named_bound_from_ensemble("reverse_kl_tv", ens)
            assert total_variation(p1, p2) <= rep.lower_bound + 1e-6
            bhattacharyya = float(np.sqrt(p1.pmf * p2.pmf).sum())
            assert rep.inputs["divergence_sum"] == pytest.approx(
                -2.0 * math.log(bhattacharyya), rel=1e-12
            )


#: each named family's arguments with one statistic NaN, and that argument's name
_NAN_NAMED = [
    ("fano", {"n": 4, "avg_kl": math.nan}, "avg_kl"),
    ("chi2", {"n": 4, "divergence_sum": math.nan}, "divergence_sum"),
    ("hellinger", {"n": 4, "h_sq": math.nan}, "h_sq"),
    ("tv", {"n": 4, "divergence_sum": math.nan}, "divergence_sum"),
    ("power_l", {"n": 4, "exponent": 3.0, "divergence_sum": math.nan}, "divergence_sum"),
    ("power_l", {"n": 4, "exponent": math.nan, "divergence_sum": 1.0}, "exponent"),
    ("reverse_kl_tv", {"divergence_sum": math.nan}, "divergence_sum"),
]


class TestNonFiniteStatistics:
    """A NaN statistic is refused where it enters the bound layer; a +inf
    one is the documented vacuous case."""

    @pytest.mark.parametrize("family,params,name", _NAN_NAMED)
    def test_named_bound_rejects_nan(self, family, params, name):
        with pytest.raises(ValueError, match=name):
            named_bound(family, **params)

    @pytest.mark.parametrize(
        "family,params,clamped",
        [
            ("fano", {"n": 4, "avg_kl": math.inf}, 0.0),
            ("chi2", {"n": 4, "divergence_sum": math.inf}, 0.0),
            ("tv", {"n": 4, "divergence_sum": math.inf}, 0.0),
            ("power_l", {"n": 4, "exponent": 3.0, "divergence_sum": math.inf}, 0.0),
            ("reverse_kl_tv", {"divergence_sum": math.inf}, 1.0),
        ],
    )
    def test_named_bound_infinite_statistic_is_vacuous(self, family, params, clamped):
        report = named_bound(family, **params)
        assert report.vacuous
        assert report.lower_bound == clamped

    def test_tangent_risk_bound_rejects_nan(self):
        with pytest.raises(ValueError, match="divergence_sum"):
            tangent_risk_bound(CHI2, 3, math.nan, 0.1)
        assert tangent_risk_bound(CHI2, 3, math.inf, 0.1) == 0.0

    def test_implicit_risk_bound_rejects_nan(self):
        with pytest.raises(ValueError, match="divergence_sum"):
            implicit_risk_bound(CHI2, 3, math.nan)
        assert implicit_risk_bound(CHI2, 3, math.inf) == 0.0


class TestTwoPointWitness:
    @pytest.mark.parametrize(
        "v,gen_name,expected",
        [
            (0.3, "chi2", 0.18),
            (0.0, "kl", 0.0),
            (1.0, "kl", 2.0 * math.log(2.0)),
        ],
    )
    def test_achieved_values(self, v, gen_name, expected):
        p1, p2, q, achieved = two_point_witness(v, builtin_generator(gen_name))
        assert achieved == pytest.approx(expected, abs=1e-12)
        assert total_variation(p1, p2) == pytest.approx(v, abs=1e-12)
        assert np.allclose(q.pmf, [0.5, 0.5])

    def test_witness_matches_target_formula(self):
        for v in np.linspace(0.0, 1.0, 11):
            for name in ("kl", "chi2", "power:3"):
                gen = builtin_generator(name)
                _, _, _, achieved = two_point_witness(float(v), gen)
                assert achieved == pytest.approx(
                    two_point_target(float(v), gen), abs=1e-12
                )

    def test_numeric_minimum_cannot_go_below_target(self):
        for v in (0.2, 0.5, 0.9):
            for name in ("kl", "chi2"):
                gen = builtin_generator(name)
                numeric = float(minimize_two_points(gen, np.array([v]))[0])
                target = two_point_target(v, gen)
                assert numeric >= target - 1e-9
                assert numeric == pytest.approx(target, abs=1e-6)


def _same_bits(got, expect) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(expect, dtype=float).tobytes()


class TestArrayForms:
    """Each array form gives every element the bits of its one-object call."""

    def test_implicit_and_tangent_bounds_take_their_scalar_steps(self):
        rng = np.random.default_rng(41)
        for name in ("kl", "chi2", "hellinger_half", "power:3", "reverse_kl"):
            gen = builtin_generator(name)
            n = rng.integers(2, 7, size=60)
            totals = rng.exponential(1.0, size=60)
            totals[::7] = 0.0
            totals[3::11] = math.inf
            totals[5::13] = 1e6
            anchors = rng.uniform(0.0, 1.0, size=60) * (1.0 - 1.0 / n - 1e-6)
            bounds = implicit_risk_bound(gen, n, totals)
            tangents = tangent_risk_bound(gen, n, totals, anchors)
            for i in range(60):
                ni, ti = int(n[i]), float(totals[i])
                assert _same_bits(bounds[i], implicit_risk_bound(gen, ni, ti))
                assert _same_bits(tangents[i], tangent_risk_bound(gen, ni, ti, float(anchors[i])))

    def test_implicit_bound_broadcasts_one_count(self):
        sums = np.array([0.0, 0.3, 2.0])
        got = implicit_risk_bound(CHI2, 4, sums)
        assert got.shape == (3,)
        assert [implicit_risk_bound(CHI2, 4, float(s)) for s in sums] == list(got)

    def test_weighted_sums_equal_one_instance_calls(self):
        rng = np.random.default_rng(42)
        w = rng.dirichlet(np.ones(4), size=30)
        pmats = rng.dirichlet(np.ones(6), size=(30, 4))
        qs = rng.dirichlet(np.ones(6), size=30)
        qs[::5, 2] = 0.0  # dead reference points: some sums are infinite
        qs /= qs.sum(axis=1, keepdims=True)
        # in instance 5 only member 1 has mass at the dead point, and it has
        # no weight: it is skipped, so that sum stays finite
        w[5, 1] = 0.0
        w[5] /= w[5].sum()
        pmats[5, [0, 2, 3], 2] = 0.0
        pmats[5] /= pmats[5].sum(axis=1, keepdims=True)
        for gen in default_generators():
            sums = weighted_divergence_sums(gen, w, pmats, qs)
            masses = map_reference_masses(w, pmats, qs)
            for i in range(30):
                one = slice(i, i + 1)
                assert _same_bits(sums[i], weighted_divergence_sums(gen, w[one], pmats[one], qs[one]))
                assert _same_bits(masses[i], map_reference_masses(w[i], pmats[i], qs[i]))
        assert math.isfinite(weighted_divergence_sums(KL, w, pmats, qs)[5])
        assert math.isinf(weighted_divergence_sums(KL, w, pmats, qs)[0])

    def test_named_bounds_equal_their_reports(self):
        rng = np.random.default_rng(43)
        for n, s in ((2, 3), (3, 5), (5, 8)):
            pmats = rng.dirichlet(np.ones(s), size=(25, n))
            for family in ("fano", "chi2", "hellinger", "tv", "power_l"):
                stats, _ = ensemble_statistics(family, pmats)
                values = named_risk_bounds(family, n, stats)
                for i in range(25):
                    ens = Ensemble(members=tuple(DiscreteDistribution(r) for r in pmats[i]))
                    report = named_bound_from_ensemble(family, ens)
                    assert _same_bits(min(max(values[i], 0.0), 1.0), report.lower_bound)
                    key = "h_sq" if family == "hellinger" else (
                        "avg_kl" if family == "fano" else "divergence_sum"
                    )
                    assert _same_bits(stats[i], report.inputs[key])

    @pytest.mark.parametrize("exponent", [2.5000001, 1.1234567])
    def test_power_l_statistic_at_the_exact_exponent(self, exponent):
        """The statistic was once read at the exponent rounded to six
        digits (2.5 for 2.5000001) while the report named the exact one."""
        pmat = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.2, 0.5, 0.3]])
        ens = Ensemble(members=tuple(DiscreteDistribution(r) for r in pmat))
        report = named_bound_from_ensemble("power_l", ens, exponent=exponent)
        _, value = closed_forms(f"power:{exponent!r}", pmat)
        assert report.inputs["exponent"] == exponent
        assert _same_bits(report.inputs["divergence_sum"], 3 * value)

    def test_named_risk_bounds_refuse_bad_statistics(self):
        with pytest.raises(ValueError, match="divergence_sum is NaN"):
            named_risk_bounds("chi2", 3, np.array([0.1, math.nan]))
        with pytest.raises(ValueError, match="hellinger needs"):
            named_risk_bounds("hellinger", 3, np.array([0.1, 2.5]))
        with pytest.raises(ValueError, match="tv needs"):
            named_risk_bounds("tv", 3, np.array([-0.1]))
        # a NaN exponent once gave a NaN bound and an infinite one 0.0
        for exponent in (math.nan, math.inf, 1.0):
            with pytest.raises(ValueError, match="power_l needs"):
                named_risk_bounds("power_l", 3, 0.5, exponent)

    def test_two_point_sums_equal_witnesses(self):
        v = np.round(np.linspace(0.0, 1.0, 11), 10)
        pairs = two_point_pairs(v)
        for name in ("kl", "chi2", "power:3", "reverse_kl"):
            gen = builtin_generator(name)
            sums = two_point_sums(gen, pairs)
            for i, vi in enumerate(v):
                p1, p2, _, achieved = two_point_witness(float(vi), gen)
                assert _same_bits(sums[i], achieved)
                assert np.array_equal(pairs[i], [p1.pmf, p2.pmf])


class TestEntryChecks:
    """Each public floor and inversion checks its inputs once, at entry,
    with the hypothesis count first."""

    @pytest.mark.parametrize("n", [0, 1, np.array([2, 1])])
    def test_tangent_needs_two_hypotheses(self, n):
        """N = 0 once divided by zero and N = 1 blamed the anchor a."""
        with pytest.raises(ValueError, match="need at least 2 hypotheses"):
            tangent_risk_bound(KL, n, 1.0, 0.1)
        with pytest.raises(ValueError, match="need at least 2 hypotheses"):
            implicit_risk_bound(KL, n, 1.0)

    def test_each_entry_checks_the_count_once(self, monkeypatch):
        from fdivbounds import mixture_bounds

        calls = []
        check = mixture_bounds._hypotheses

        def counted(n):
            calls.append(n)
            return check(n)

        monkeypatch.setattr(mixture_bounds, "_hypotheses", counted)
        for entry, args in (
            (mixture_bounds.uniform_divergence_floor, (KL, 4, 0.2)),
            (mixture_bounds.implicit_risk_bound, (KL, 4, 1.0)),
            (mixture_bounds.tangent_risk_bound, (KL, 4, 1.0, 0.2)),
        ):
            calls.clear()
            entry(*args)
            assert calls == [4], entry.__name__

    @pytest.mark.parametrize(
        "family,params,missing",
        [
            ("fano", {"n": 4}, "avg_kl"),
            ("power_l", {"n": 4, "divergence_sum": 1.0}, "exponent"),
            ("chi2", {"divergence_sum": 1.0}, "n"),
            ("reverse_kl_tv", {}, "divergence_sum"),
        ],
    )
    def test_named_bound_names_a_missing_parameter(self, family, params, missing):
        with pytest.raises(ValueError, match=f"^{family} needs {missing}$"):
            named_bound(family, **params)

    @pytest.mark.parametrize(
        "family,params,message",
        [
            ("fano", {"n": 4, "avg_kl": 1.0, "bogus": 3.0}, "fano does not read bogus; it reads n, avg_kl"),
            ("chi2", {"n": 4, "divergence_sum": 1.0, "exponent": 3.0},
             "chi2 does not read exponent; it reads n, divergence_sum"),
            ("reverse_kl_tv", {"n": 2, "divergence_sum": 1.0},
             "reverse_kl_tv does not read n; it reads divergence_sum"),
            ("fano", {"avg_kl": 1.0, "bogus": 3.0}, "fano needs n"),
        ],
    )
    def test_named_bound_names_an_unknown_parameter(self, family, params, message):
        """An unknown parameter was once ignored; a missing one is named
        first."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            named_bound(family, **params)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf])
    def test_ensemble_exponent_checked_before_statistics(self, exponent):
        """A NaN exponent was once reported as a non-finite pmf entry."""
        ens = Ensemble(members=(DiscreteDistribution([0.75, 0.25]), DiscreteDistribution([0.25, 0.75])))
        with pytest.raises(ValueError, match="exponent must be a finite number"):
            named_bound_from_ensemble("power_l", ens, exponent=exponent)
        with pytest.raises(ValueError, match="exponent must be a finite number"):
            named_bound("power_l", n=2, exponent=exponent, divergence_sum=1.0)
