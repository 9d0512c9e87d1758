import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fdivbounds import informativity, verify
from fdivbounds.distributions import DiscreteDistribution, Ensemble
from fdivbounds.divergences import (
    GENERATOR_NAMES,
    DivergenceGenerator,
    apply_generator,
    builtin_generator,
    divergence_matrix,
    eval_divergence,
    total_variation,
)
from fdivbounds.informativity import (
    COVERING_KINDS,
    CoveringFamily,
    covering_bounds,
    covering_errors,
    covering_specialization,
    covering_specializations,
    covering_upper_bound,
    informativity_closed_form,
    informativity_numeric,
    informativity_tv_exact,
    simple_upper_chain,
    simple_upper_chains,
)
from fdivbounds.verify import grid_informativity, informativity_oracle_draws

SINGULAR_PAIR = Ensemble(
    members=(
        DiscreteDistribution(np.array([1.0, 0.0])),
        DiscreteDistribution(np.array([0.0, 1.0])),
    )
)


def random_ensemble(rng, n_max=4, s_max=4, sparse=False):
    """Flat-Dirichlet members; with ``sparse`` every other member is zeroed
    on a random third of the points."""
    n = int(rng.integers(2, n_max + 1))
    s = int(rng.integers(2, s_max + 1))
    pmat = rng.dirichlet(np.ones(s), size=n)
    if sparse:
        for i in range(0, n, 2):
            pmat[i, rng.choice(s, size=max(1, s // 3), replace=False)] = 0.0
            pmat[i] /= pmat[i].sum()
    return Ensemble(members=tuple(DiscreteDistribution(r) for r in pmat))


def oracle_ensembles(seed, trials):
    """The draws of the informativity oracle check as ensembles."""
    return [
        Ensemble(members=tuple(DiscreteDistribution(r) for r in pmat))
        for pmat in informativity_oracle_draws(seed, trials)
    ]


#: f(t) = (t - 1)^2 / (t + 1), the triangular discrimination: f'(inf) = 1
#: is finite, so h(t) = f(t) - t f'(t) tends to -3 and large density ratios
#: leave only cancellation noise in it
TRIANGULAR = DivergenceGenerator(
    name="triangular",
    f=lambda t: (t - 1.0) ** 2 / (t + 1.0),
    f_at_zero=1.0,
    derivative=lambda t: (t - 1.0) * (t + 3.0) / (t + 1.0) ** 2,
)

#: Jensen-Shannon: f'(inf) = log 2 is finite as well
JENSEN_SHANNON = DivergenceGenerator(
    name="jensen_shannon",
    f=lambda t: t * np.log(t) - (t + 1.0) * np.log((t + 1.0) / 2.0),
    f_at_zero=math.log(2.0),
    derivative=lambda t: np.log(2.0 * t / (t + 1.0)),
)


class TestClosedForms:
    def test_chi2_singular_pair(self):
        res = informativity_closed_form("chi2", SINGULAR_PAIR)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(res.minimizer.pmf, [0.5, 0.5])

    def test_kl_singular_pair(self):
        res = informativity_closed_form("kl", SINGULAR_PAIR)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-14)

    def test_hellinger_singular_pair(self):
        res = informativity_closed_form("hellinger_half", SINGULAR_PAIR)
        assert res.value == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-14)
        assert np.allclose(res.minimizer.pmf, [0.5, 0.5])

    @pytest.mark.parametrize(
        "name", ["kl", "chi2", "hellinger_half", "hellinger_sq", "power:3", "reverse_kl"]
    )
    def test_identical_members_give_zero(self, name):
        member = DiscreteDistribution(np.array([0.3, 0.7]))
        ens = Ensemble(members=(member, member, member))
        res = informativity_closed_form(name, ens)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_minimizer_is_stationary_value(self):
        """The closed-form minimizer's objective value equals the closed-form
        value (consistency of the two formulas)."""
        rng = np.random.default_rng(7)
        for name in ("kl", "chi2", "hellinger_half", "power:3", "reverse_kl"):
            gen = builtin_generator(name)
            for _ in range(25):
                ens = random_ensemble(rng)
                res = informativity_closed_form(name, ens)
                direct = sum(
                    eval_divergence(gen, m, res.minimizer) for m in ens.members
                ) / ens.size
                assert direct == pytest.approx(res.value, abs=1e-10)

    def test_hellinger_forms_related_by_factor_two(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            ens = random_ensemble(rng)
            half = informativity_closed_form("hellinger_half", ens).value
            full = informativity_closed_form("hellinger_sq", ens).value
            assert full == pytest.approx(2.0 * half, abs=1e-12)

    def test_reverse_kl_two_members_is_minus_log_bhattacharyya(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p1, p2 = rng.dirichlet(np.ones(6), size=2)
            ens = Ensemble(members=(DiscreteDistribution(p1), DiscreteDistribution(p2)))
            res = informativity_closed_form("reverse_kl", ens)
            bhattacharyya = float(np.sqrt(p1 * p2).sum())
            assert res.value == pytest.approx(-math.log(bhattacharyya), rel=1e-12)

    def test_reverse_kl_without_common_support_is_infinite(self):
        res = informativity_closed_form("reverse_kl", SINGULAR_PAIR)
        assert math.isinf(res.value) and res.minimizer is None

    @pytest.mark.parametrize("text", ["inf", "1e400", "nan", "1", "0.5"])
    def test_power_exponent_refused_by_name(self, text):
        """power:inf once gave +inf with a uniform minimizer, and power:nan
        blamed a pmf entry."""
        name = f"power:{text}"
        with pytest.raises(ValueError, match="finite exponent > 1"):
            informativity_closed_form(name, SINGULAR_PAIR)
        with pytest.raises(ValueError, match="finite exponent > 1"):
            informativity.closed_forms(name, SINGULAR_PAIR.pmf_matrix()[None])

    def test_power_closed_form_overflow_is_silent(self):
        """A large exponent overflows the power closed form to +inf; the
        overflow once raised a RuntimeWarning (an error under -W error)."""
        ens = Ensemble(members=tuple(DiscreteDistribution(row) for row in np.eye(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = informativity_closed_form("power:1000", ens)
        assert res.value == math.inf and res.minimizer is None

    def test_no_closed_form_for_tv(self):
        with pytest.raises(ValueError, match="no closed form"):
            informativity_closed_form("tv", SINGULAR_PAIR)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_kl_subnormal_mass_stays_finite(self):
        """The mixture dominates every member, so the KL informativity is
        finite even where averaging rounds a subnormal mass to 0."""
        ens = Ensemble(
            members=(
                DiscreteDistribution(np.array([0.0, 0.0, 0.0, 1.0, 0.0])),
                DiscreteDistribution(np.array([0.0, 0.0, 0.0, 1.0, 5e-324])),
            )
        )
        closed = informativity_closed_form("kl", ens).value
        numeric = informativity_numeric(builtin_generator("kl"), ens, tol=1e-9).value
        assert math.isfinite(closed)
        assert closed == pytest.approx(numeric, abs=1e-12)


class TestNumericSolver:
    @pytest.mark.parametrize(
        "name", ["kl", "chi2", "hellinger_half", "power:3", "reverse_kl", "power:1.5"]
    )
    def test_matches_closed_forms(self, name):
        rng = np.random.default_rng(10)
        gen = builtin_generator(name)
        for _ in range(30):
            ens = random_ensemble(rng)
            closed = informativity_closed_form(name, ens).value
            res = informativity_numeric(gen, ens, tol=1e-9)
            assert res.value == pytest.approx(closed, abs=1e-6)
            assert res.duality_gap <= 1e-9
        for t in range(8):
            ens = random_ensemble(rng, n_max=12, s_max=200, sparse=t % 2 == 1)
            closed = informativity_closed_form(name, ens).value
            res = informativity_numeric(gen, ens, tol=1e-9)
            assert res.value == pytest.approx(closed, rel=1e-12)
            assert res.duality_gap <= 1e-9
            assert res.method == "kkt_bisection"

    @pytest.mark.parametrize("gen", [TRIANGULAR, JENSEN_SHANNON], ids=lambda g: g.name)
    def test_finite_slope_at_infinity_matches_grid_oracle(self, gen):
        """Generators with finite f'(inf): h is cancellation noise at huge
        density ratios, which a root bracket reaching far below the member
        masses would probe."""
        rng = np.random.default_rng(16)
        for t in range(12):
            ens = random_ensemble(rng, n_max=4, s_max=3, sparse=t % 2 == 1)
            res = informativity_numeric(gen, ens)
            oracle = grid_informativity(gen, ens.pmf_matrix(), step=1e-3)
            assert 0.0 <= res.duality_gap <= 1e-8
            assert res.value - res.duality_gap <= oracle + 1e-12
            assert res.value == pytest.approx(oracle, abs=2e-3)

    def test_root_below_bracket_floor_keeps_certificate(self):
        """At the first point the optimal reverse-KL mass is the members'
        geometric mean, about 7e-151, far below the root bracket's floor of
        1e-12 times the largest member mass.  That point keeps the floor's
        mass, and the tangent slack at the floor keeps the dual below the
        exact value."""
        ens = Ensemble(
            members=(
                DiscreteDistribution(np.array([1e-300, 0.3, 0.3, 0.4])),
                DiscreteDistribution(np.array([0.5, 0.2, 0.2, 0.1])),
            )
        )
        closed = informativity_closed_form("reverse_kl", ens).value
        res = informativity_numeric(builtin_generator("reverse_kl"), ens, tol=1e-9)
        assert res.duality_gap <= 1e-9
        assert res.value - res.duality_gap <= closed <= res.value
        assert res.minimizer.pmf[0] == pytest.approx(5e-13, rel=1e-4)

    @pytest.mark.parametrize(
        "name, pmfs, point",
        [
            ("reverse_kl", ([1.0, 0.0], [5e-324, 1.0]), 0),
            ("chi2", ([0.0, 1.0, 0.0], [0.0, 1.0, 0.0]), 1),
        ],
    )
    def test_single_support_point_is_the_point_mass(self, name, pmfs, point):
        """With one point left in the (common) support the simplex is a
        single point mass; reverse KL used to raise at gap nan here,
        because its derivative -1/t overflows at a subnormal mass."""
        ens = Ensemble(members=tuple(DiscreteDistribution(np.array(p)) for p in pmfs))
        res = informativity_numeric(builtin_generator(name), ens)
        closed = informativity_closed_form(name, ens).value
        assert res.minimizer.pmf[point] == 1.0 and res.minimizer.pmf.sum() == 1.0
        assert res.duality_gap == 0.0 and res.iterations == 0
        assert res.value == pytest.approx(closed, rel=1e-12, abs=1e-15)

    def test_reverse_kl_subnormal_mass_matches_closed_form(self):
        """The derived h = f - t f' is +inf for reverse KL at a subnormal
        ratio (f' = -1/t overflows) and the multiplier bracket used to
        collapse at gap inf here; the closed-form h = 1 - log t is finite."""
        ens = Ensemble(
            members=(
                DiscreteDistribution(np.array([5e-324, 0.5, 0.5])),
                DiscreteDistribution(np.array([0.3, 0.3, 0.4])),
            )
        )
        res = informativity_numeric(builtin_generator("reverse_kl"), ens, tol=1e-9)
        closed = informativity_closed_form("reverse_kl", ens).value
        assert closed == pytest.approx(0.1809, abs=1e-4)
        assert res.value == pytest.approx(closed, abs=1e-6)
        assert res.duality_gap <= 1e-9

    def test_multiplier_steps_on_oracle_instances(self, monkeypatch):
        """Newton steps on the multiplier from the uniform-mixture start,
        with each point's root bracket halved only while its tangent slack
        can cost the certificate: on the seed-0 ensembles of the
        informativity oracle check, the Illinois secant with 40 halvings
        per step took a median of 6 outer steps (at most 9) and 248
        evaluations of h per solve (at most 371)."""
        h_calls = [0]
        h = informativity._h

        def counted_h(*args):
            h_calls[0] += 1
            return h(*args)

        monkeypatch.setattr(informativity, "_h", counted_h)
        steps, evaluations = [], []
        for ens in oracle_ensembles(seed=0, trials=200):
            for name in ("kl", "chi2", "hellinger_half"):
                h_calls[0] = 0
                res = informativity_numeric(builtin_generator(name), ens, tol=1e-9)
                evaluations.append(h_calls[0])
                closed = informativity_closed_form(name, ens).value
                assert res.duality_gap <= 1e-9
                assert res.value == pytest.approx(closed, abs=1e-6)
                assert "iterations" not in res.to_json()
                steps.append(res.iterations)
        assert np.median(steps) <= 3
        assert max(steps) <= 4
        assert np.median(evaluations) <= 64
        assert max(evaluations) <= 100

    def test_bracket_rounds_on_oracle_instances(self, monkeypatch):
        """The k-ary bracket search evaluates h once per round, at every
        candidate of every point's bracket, and once more for the slopes
        that set up the multiplier.  On the seed-0 ensembles of the
        informativity oracle check the 40-halving search took a median of
        50 evaluations of h per solve (at most 81)."""
        h_calls = [0]
        h = informativity._h

        def counted_h(*args):
            h_calls[0] += 1
            return h(*args)

        monkeypatch.setattr(informativity, "_h", counted_h)
        evaluations = []
        for ens in oracle_ensembles(seed=0, trials=200):
            for name in ("kl", "chi2", "hellinger_half"):
                h_calls[0] = 0
                res = informativity_numeric(builtin_generator(name), ens, tol=1e-9)
                evaluations.append(h_calls[0])
                assert res.duality_gap <= 1e-9
                assert res.rounds == h_calls[0] - 1
                assert "rounds" not in res.to_json()
        assert np.median(evaluations) <= 16
        assert max(evaluations) <= 24

    @pytest.mark.parametrize("name", ["chi2", "power:3"])
    def test_kept_brackets_certify_the_reset_value(self, name, monkeypatch):
        """After a multiplier step each point keeps the ends of its root
        bracket whose slopes still lie on their side of the new multiplier.
        Solves of two or more steps certify the same value as solves that
        reset every bracket to [floor, 1] at each step, in fewer rounds."""
        rng = np.random.default_rng(23)
        ensembles = [
            random_ensemble(rng, n_max=12, s_max=200, sparse=t % 2 == 1)
            for t in range(6)
        ]
        gen = builtin_generator(name)
        kept = [informativity_numeric(gen, ens, tol=1e-9) for ens in ensembles]
        reset_ends = informativity._reset_ends

        def reset_all(ends, stale, fresh):
            reset_ends(ends, True, fresh)

        monkeypatch.setattr(informativity, "_reset_ends", reset_all)
        multi_step = 0
        for ens, warm in zip(ensembles, kept):
            cold = informativity_numeric(gen, ens, tol=1e-9)
            closed = informativity_closed_form(name, ens).value
            for res in (warm, cold):
                assert 0.0 <= res.duality_gap <= 1e-9
                assert res.value - res.duality_gap <= closed + 1e-12
            assert abs(warm.value - cold.value) <= 1e-9
            if warm.iterations >= 2:
                multi_step += 1
                assert warm.rounds < cold.rounds
        assert multi_step >= 3

    def test_kl_takes_one_step(self):
        """The mixture start is the KL multiplier itself: every point's
        slope at the uniform mixture is -1, so one step certifies."""
        rng = np.random.default_rng(17)
        ensembles = oracle_ensembles(seed=0, trials=200)
        ensembles += [
            random_ensemble(rng, n_max=12, s_max=200, sparse=t % 2 == 1)
            for t in range(6)
        ]
        for ens in ensembles:
            res = informativity_numeric(builtin_generator("kl"), ens, tol=1e-9)
            assert res.iterations == 1
            assert res.duality_gap <= 1e-9

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.integers(1, 8).flatmap(
                lambda s: st.lists(
                    st.lists(
                        st.floats(0.0, 1.0, allow_subnormal=False),
                        min_size=s,
                        max_size=s,
                    ).filter(lambda w: sum(w) > 0.0),
                    min_size=n,
                    max_size=n,
                )
            )
        ),
        st.sampled_from(
            [g for g in GENERATOR_NAMES if g not in ("tv", "power:l")]
            + ["power:3", "power:1.5"]
        ),
    )
    def test_certificate_property(self, weights, name):
        """The gap is a certificate: 0 <= gap <= tol, and the dual value
        value - gap never exceeds the exact informativity.  Masses range
        down to the smallest normal float, with exact zeros; subnormal
        masses are not drawn."""
        ens = Ensemble(
            members=tuple(
                DiscreteDistribution(np.array(w) / sum(w)) for w in weights
            )
        )
        res = informativity_numeric(builtin_generator(name), ens, tol=1e-8)
        closed = informativity_closed_form(name, ens).value
        assert 0.0 <= res.duality_gap <= 1e-8
        assert res.value - res.duality_gap <= closed + 1e-12

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            informativity_numeric(builtin_generator("chi2"), SINGULAR_PAIR, tol=tol)

    def test_identical_members(self):
        member = DiscreteDistribution(np.array([0.3, 0.7]))
        ens = Ensemble(members=(member, member))
        res = informativity_numeric(builtin_generator("power:3"), ens)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_singular_pair_matches_grid_oracle(self):
        gen = builtin_generator("power:3")
        res = informativity_numeric(gen, ens=SINGULAR_PAIR, tol=1e-9)
        oracle = grid_informativity(gen, SINGULAR_PAIR.pmf_matrix(), step=1e-3)
        assert res.value == pytest.approx(oracle, abs=2e-3)

    def test_reverse_kl_restricts_to_common_support(self):
        # members share no common support: the infimum is infinite
        res = informativity_numeric(builtin_generator("reverse_kl"), SINGULAR_PAIR)
        assert math.isinf(res.value)

    def test_tv_routes_to_exact_lp(self):
        res = informativity_numeric(builtin_generator("tv"), SINGULAR_PAIR)
        assert res.method == "sorted_breakpoints"
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.iterations == 0

    def test_tv_lp_against_fine_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ens = random_ensemble(rng, n_max=3, s_max=3)
            lp = informativity_tv_exact(ens)
            oracle = grid_informativity(builtin_generator("tv"), ens.pmf_matrix(), step=1e-3)
            assert lp.value <= oracle + 1e-9
            assert lp.value == pytest.approx(oracle, abs=2e-3)


def tv_objective(pmat, q):
    """(1/N) sum_theta TV(P_theta, Q) in the plain total-variation form."""
    return float(np.abs(pmat - q).sum()) / (2.0 * pmat.shape[0])


def tv_lp(pmat):
    """The total-variation informativity as a linear program: variables q
    and one slack e >= |p_theta(x) - q_x| per (member, point)."""
    n, s = pmat.shape
    eye = np.eye(s)
    slack = -np.eye(n * s)
    q_part = np.tile(eye, (n, 1))
    a_ub = np.block([[-q_part, slack], [q_part, slack]])
    b_ub = np.concatenate([-pmat.ravel(), pmat.ravel()])
    cost = np.concatenate([np.zeros(s), np.full(n * s, 1.0 / (2.0 * n))])
    a_eq = np.concatenate([np.ones(s), np.zeros(n * s)])[None]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
    assert res.status == 0
    return res.fun, res.x[:s]


class TestTvSortedBreakpoints:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_against_linear_program(self, sparse):
        rng = np.random.default_rng(31 + sparse)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            s = int(rng.integers(2, 21))
            pmat = rng.dirichlet(np.ones(s), size=n)
            if sparse:
                for i in range(0, n, 2):
                    pmat[i, rng.choice(s, size=max(1, s // 3), replace=False)] = 0.0
                    pmat[i] /= pmat[i].sum()
            ens = Ensemble(members=tuple(DiscreteDistribution(r) for r in pmat))
            res = informativity_tv_exact(ens)
            lp_value, lp_q = tv_lp(pmat)
            assert res.value == pytest.approx(lp_value, abs=1e-9)
            assert res.value <= tv_objective(pmat, lp_q) + 1e-15
            assert res.value == tv_objective(pmat, res.minimizer.pmf)
            assert res.method == "sorted_breakpoints"

    @pytest.mark.parametrize("pmf", [[0.2, 0.0, 0.8], [0.7, 0.2, 0.1]])
    def test_identical_members_give_zero(self, pmf):
        # the cumulative sum of [0.7, 0.2, 0.1] falls 1.1e-16 short of 1
        member = DiscreteDistribution(np.array(pmf))
        res = informativity_tv_exact(Ensemble(members=(member, member, member)))
        assert res.value == 0.0
        assert np.array_equal(res.minimizer.pmf, member.pmf)

    def test_two_members_value_is_half_their_distance(self):
        # N = 2: any q between the pair is optimal, value TV(P1, P2) / 2
        rng = np.random.default_rng(33)
        for _ in range(20):
            p1, p2 = (DiscreteDistribution(rng.dirichlet(np.ones(6))) for _ in range(2))
            res = informativity_tv_exact(Ensemble(members=(p1, p2)))
            assert res.value == pytest.approx(total_variation(p1, p2) / 2.0, abs=1e-15)


class TestSimpleUpperChain:
    def test_identical_members(self):
        member = DiscreteDistribution(np.array([0.3, 0.7]))
        ens = Ensemble(members=(member, member))
        assert simple_upper_chain(builtin_generator("kl"), ens) == (0.0, 0.0, 0.0)

    def test_chi2_pairwise_average(self):
        ens = Ensemble(
            members=(
                DiscreteDistribution(np.array([0.75, 0.25])),
                DiscreteDistribution(np.array([0.25, 0.75])),
            )
        )
        _, pair_avg, pair_max = simple_upper_chain(builtin_generator("chi2"), ens)
        assert pair_avg == pytest.approx((4.0 / 3.0 + 4.0 / 3.0) / 4.0, abs=1e-12)
        assert pair_max == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_singular_pair_infinities(self):
        chain = simple_upper_chain(builtin_generator("kl"), SINGULAR_PAIR)
        assert chain[0] == pytest.approx(math.log(2.0), abs=1e-14)
        assert math.isinf(chain[1]) and math.isinf(chain[2])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_subnormal_mass_rounded_out_of_the_mixture(self):
        """Averaging rounds the subnormal mass to 0; the to-mixture entry
        drops it as the KL closed form does, where it used to read +inf.
        Reverse KL keeps it: the first member has no mass there, so its
        divergence to the (exact) mixture is +inf."""
        ens = Ensemble(
            members=(
                DiscreteDistribution(np.array([0.0, 0.0, 0.0, 1.0, 0.0])),
                DiscreteDistribution(np.array([0.0, 0.0, 0.0, 1.0, 5e-324])),
            )
        )
        chain = simple_upper_chain(builtin_generator("kl"), ens)
        assert chain[0] == informativity_closed_form("kl", ens).value == 0.0
        assert math.isinf(chain[1]) and math.isinf(chain[2])
        assert math.isinf(simple_upper_chain(builtin_generator("reverse_kl"), ens)[0])

    def test_chain_is_nested_and_dominates_value(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            ens = random_ensemble(rng, n_max=5, s_max=6)
            for name in ("kl", "chi2", "hellinger_half"):
                chain = simple_upper_chain(builtin_generator(name), ens)
                assert chain[0] <= chain[1] + 1e-12 <= chain[2] + 2e-12
                value = informativity_closed_form(name, ens).value
                assert chain[0] >= value - 1e-9
                if name == "kl":
                    assert chain[0] == pytest.approx(value, abs=1e-12)


class TestCoveringBounds:
    def test_kl_self_cover_is_log_size(self):
        fam = CoveringFamily(candidates=SINGULAR_PAIR.members, assignment=(0, 1))
        val = covering_upper_bound(builtin_generator("kl"), SINGULAR_PAIR, fam)
        assert val == pytest.approx(math.log(2.0), abs=1e-14)

    def test_chi2_single_candidate_tight(self):
        fam = CoveringFamily(
            candidates=(DiscreteDistribution(np.array([0.5, 0.5])),)
        )
        val = covering_upper_bound(builtin_generator("chi2"), SINGULAR_PAIR, fam)
        assert val == pytest.approx(1.0, abs=1e-14)  # equals the informativity

    def test_identical_members_self_candidate(self):
        member = DiscreteDistribution(np.array([0.3, 0.7]))
        ens = Ensemble(members=(member, member))
        fam = CoveringFamily(candidates=(member,))
        assert covering_upper_bound(builtin_generator("chi2"), ens, fam) == 0.0

    def test_uncovered_mass_is_infinite(self):
        fam = CoveringFamily(candidates=(DiscreteDistribution(np.array([1.0, 0.0])),))
        val = covering_upper_bound(builtin_generator("kl"), SINGULAR_PAIR, fam)
        assert math.isinf(val)

    @pytest.mark.parametrize(
        "kind,m,err,expected",
        [
            ("kl", 1, 0.0, 0.0),
            ("chi2", 4, 1.0, 7.0),
            ("hellinger_sq", 4, 0.0, 1.0),
            ("power_l", 4, 1.0, 31.0),  # l=3: 16*2 - 1
        ],
    )
    def test_specialization_values(self, kind, m, err, expected):
        assert covering_specialization(kind, m, err, l=3.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_validity_sweep(self):
        """Generic and specialized covering bounds dominate the exact
        informativity, and specializations dominate the generic form."""
        rng = np.random.default_rng(13)
        kinds = (
            ("kl", "kl", 2.0),
            ("chi2", "chi2", 2.0),
            ("power_l", "power:3", 3.0),
            ("hellinger_sq", "hellinger_sq", 2.0),
        )
        for t in range(200):
            ens = random_ensemble(rng, n_max=5, s_max=6)
            fam = CoveringFamily(
                candidates=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(ens.support_size)))
                    for _ in range(int(rng.integers(1, 5)))
                )
            )
            kind, gen_name, l = kinds[t % 4]
            gen = builtin_generator(gen_name)
            exact = informativity_closed_form(gen_name, ens).value
            generic = covering_upper_bound(gen, ens, fam)
            err = covering_errors(gen, ens.pmf_matrix()[None], fam.pmf_matrix()[None])[0][0]
            special = covering_specialization(kind, fam.size, err, l=l)
            assert generic >= exact - 1e-9
            assert special >= generic - 1e-12

    def test_kl_generic_identity(self):
        """For the log generator the generic bound collapses exactly to
        log M + average assigned divergence."""
        rng = np.random.default_rng(14)
        gen = builtin_generator("kl")
        for _ in range(40):
            ens = random_ensemble(rng)
            fam = CoveringFamily(
                candidates=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(ens.support_size)))
                    for _ in range(3)
                )
            )
            assignment = covering_errors(gen, ens.pmf_matrix()[None], fam.pmf_matrix()[None])[1][0]
            avg = float(
                np.mean(
                    [
                        eval_divergence(gen, m, fam.candidates[j])
                        for m, j in zip(ens.members, assignment)
                    ]
                )
            )
            generic = covering_upper_bound(gen, ens, fam)
            assert generic == pytest.approx(math.log(fam.size) + avg, abs=1e-9)

    def test_compensation_identity(self):
        rng = np.random.default_rng(15)
        kl = builtin_generator("kl")
        for _ in range(100):
            ens = random_ensemble(rng, n_max=5, s_max=8)
            q = DiscreteDistribution(rng.dirichlet(np.ones(ens.support_size)))
            mix = DiscreteDistribution(ens.pmf_matrix().mean(axis=0))
            lhs = sum(eval_divergence(kl, m, q) for m in ens.members)
            rhs = sum(eval_divergence(kl, m, mix) for m in ens.members)
            rhs += ens.size * eval_divergence(kl, mix, q)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_bad_covering_inputs(self):
        with pytest.raises(ValueError):
            CoveringFamily(candidates=())
        with pytest.raises(ValueError):
            CoveringFamily(
                candidates=(DiscreteDistribution(np.array([1.0, 0.0])),),
                assignment=(2,),
            )
        with pytest.raises(ValueError):
            covering_specialization("kl", 0, 0.0)
        # a float entry was once truncated by int(), so [0.7, 1.9, 0] read
        # as [0, 1, 0]; a nested list ended in a TypeError
        for entry in (0.7, 1.0, [0], True, "0", None):
            message = re.escape(f"assignment entry {entry!r} is not an integer")
            with pytest.raises(ValueError, match=message):
                CoveringFamily(candidates=SINGULAR_PAIR.members, assignment=(0, entry))

    def test_integer_assignment_entries_are_kept(self):
        cands = SINGULAR_PAIR.members
        fam = CoveringFamily(candidates=cands, assignment=np.array([1, 0]))
        assert fam.assignment == (1, 0)
        assert all(type(i) is int for i in fam.assignment)


def _masked_grid_objective(gen, pmat, qs):
    """The grid oracle's objective in its first, fully masked form: every
    boundary case (q = 0 with or without mass, p = 0, an infinite ratio)
    selected by its own mask."""
    total = np.zeros(qs.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for theta in range(pmat.shape[0]):
            ratio = np.where(qs > 0, pmat[theta] / np.where(qs > 0, qs, 1.0), np.inf)
            ratio = np.where((qs == 0) & (pmat[theta] == 0), 0.0, ratio)
            vals = apply_generator(gen, np.where(np.isfinite(ratio), ratio, 1.0))
            vals = np.where(np.isfinite(ratio), vals, np.inf)
            term = np.where((qs == 0) & np.isinf(ratio), np.inf, qs * vals)
            term = np.where(qs == 0, np.where(np.isinf(ratio), np.inf, 0.0), term)
            total = total + term.sum(axis=1)
    return total / pmat.shape[0]


def _coarse_objective(gen, pmat, step):
    """The grid oracle's exact objective on every cell of
    ``verify._simplex_grid(S, step)``, in the sweep it once ran: each
    member's terms of the leading columns evaluated on their own lattice
    axes and broadcast, those of the last two columns evaluated once per
    distinct value and gathered, each member's row added column by column,
    left to right, and the members' rows added in member order, as
    ``verify._grid_objective`` adds them."""
    leading, ((values0, cells0), (values1, cells1)) = verify._grid_columns(pmat.shape[1], step)
    p = pmat.reshape(pmat.shape + (1,) * cells0.ndim)
    lead = [verify._terms(gen, p[:, x], values) for x, values in enumerate(leading)]
    lead = functools.reduce(np.add, lead) if lead else None
    x = len(leading)
    terms0 = verify._terms(gen, pmat[:, x, None], values0)
    terms1 = verify._terms(gen, pmat[:, x + 1, None], values1)
    total = np.zeros(cells0.shape)
    for n in range(pmat.shape[0]):
        row = terms0[n][cells0]
        if lead is not None:
            row = lead[n] + row
        total = total + (row + terms1[n][cells1])
    return total.ravel() / pmat.shape[0]


class TestGridOracle:
    @pytest.mark.parametrize("name", ["kl", "chi2", "hellinger_half", "reverse_kl"])
    def test_bit_equal_to_masked_reference(self, name, monkeypatch):
        """The oracle's objective and its whole search give the masked
        form's values bit for bit, on 2-4 x 2-4 ensembles, half of them
        with zero masses."""
        gen = builtin_generator(name)
        rng = np.random.default_rng(11)
        ensembles = [random_ensemble(rng, sparse=t % 2 == 1) for t in range(8)]
        found = [grid_informativity(gen, ens.pmf_matrix(), step=1e-3) for ens in ensembles]
        for ens in ensembles:
            pmat = ens.pmf_matrix()
            qs = verify._simplex_grid(pmat.shape[1], 0.02)
            assert np.array_equal(
                verify._grid_objective(gen, pmat, qs),
                _masked_grid_objective(gen, pmat, qs),
                equal_nan=True,
            )
        monkeypatch.setattr(verify, "_grid_objective", _masked_grid_objective)
        reference = [grid_informativity(gen, ens.pmf_matrix(), step=1e-3) for ens in ensembles]
        assert [v.hex() for v in found] == [v.hex() for v in reference]

    @pytest.mark.parametrize("name", ["kl", "chi2", "hellinger_half", "reverse_kl"])
    def test_coarse_sweep_bit_equal_to_masked_reference(self, name):
        """The separable coarse sweep gives the masked form's values over
        the whole grid bit for bit, so the same +inf cells and the same
        argmin: 2-4 points at spacing 0.02, half the ensembles with zero
        masses, and one 5-point ensemble at 0.05."""
        gen = builtin_generator(name)
        rng = np.random.default_rng(23)
        cases = [(random_ensemble(rng, sparse=t % 2 == 1), 0.02) for t in range(6)]
        five = rng.dirichlet(np.ones(5), size=2)
        five[0, 1] = 0.0
        five[0] /= five[0].sum()
        cases.append((Ensemble(members=tuple(DiscreteDistribution(r) for r in five)), 0.05))
        for ens, step in cases:
            pmat = ens.pmf_matrix()
            reference = _masked_grid_objective(
                gen, pmat, verify._simplex_grid(pmat.shape[1], step)
            )
            swept = _coarse_objective(gen, pmat, step)
            assert np.array_equal(swept.view(np.int64), reference.view(np.int64))

    @pytest.mark.parametrize(
        "name", ["kl", "chi2", "hellinger_half", "reverse_kl", "tv", "power:3"]
    )
    def test_screen_finds_the_exact_sweeps_minimum(self, name):
        """The screened coarse sweep returns the minimum and first argmin
        of the exact objective on every cell, bit for bit: on the oracle's
        draws, on identical members and on a point dead in every member
        (where reverse_kl's f(0+) is +inf), at 2-5 points."""
        gen = builtin_generator(name)
        rng = np.random.default_rng(43)
        cases = [pmat for seed in (0, 1) for pmat in informativity_oracle_draws(seed, 60)[::5]]
        for s in (2, 3, 4, 5):
            cases.append(np.tile(rng.dirichlet(np.ones(s)), (3, 1)))
            dead = rng.dirichlet(np.ones(s), size=3)
            dead[:, 1] = 0.0
            cases.append(dead / dead.sum(axis=1, keepdims=True))
        for pmat in cases:
            step = 0.02 if pmat.shape[1] <= 4 else 0.05
            exact = _coarse_objective(gen, pmat, step)
            at = int(np.argmin(exact))
            low, found = verify._coarse_minimum(gen, pmat, step)
            assert found == at and np.float64(low).tobytes() == exact[at].tobytes()

    def test_screen_where_every_cell_is_infinite(self):
        """Under reverse_kl, members with disjoint supports put +inf on
        every cell; the screen then evaluates every cell and returns the
        exact sweep's +inf at cell 0."""
        gen = builtin_generator("reverse_kl")
        pmat = np.array([[0.6, 0.4, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
        exact = _coarse_objective(gen, pmat, 0.02)
        assert np.isposinf(exact).all()
        assert verify._coarse_minimum(gen, pmat, 0.02) == (math.inf, 0)


def test_oracle_draws_follow_one_stream():
    """The oracle check's raw draws come out of one random stream as the
    point count, the member count and one Dirichlet call per trial."""
    for seed in (0, 5):
        draws = informativity_oracle_draws(seed, 60)
        rng = np.random.default_rng([seed, 30])
        assert len(draws) == 60
        for pmat in draws:
            s, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            assert pmat.tobytes() == rng.dirichlet(np.ones(s), size=n).tobytes()
            assert pmat.shape == (n, s)


def test_one_dirichlet_call_draws_the_same_members():
    """One size-m Dirichlet draw yields the rows that m single draws
    would, so the verify reports do not change with the batching; the
    padding repeats the first row."""
    for m in (1, 3, 4):
        batched = verify._normalized(verify._draw_family(np.random.default_rng([3, 30]), m, 5, 4))
        single = np.random.default_rng([3, 30])
        drawn = [single.dirichlet(np.ones(5)) for _ in range(m)]
        assert np.array_equal(batched, np.stack(drawn + drawn[:1] * (4 - m)))


def reverse_kl_reference(pmat):
    """The one-ensemble reverse-KL closed form as first written, value and
    minimizer: the geometric mean over a column selection, whose Fortran
    order makes the mean over members numpy's pairwise sum."""
    common = np.all(pmat > 0.0, axis=0)
    if not np.any(common):
        return math.inf, None
    geo = np.zeros(pmat.shape[1])
    geo[common] = np.exp(np.log(pmat[:, common]).mean(axis=0))
    total = float(geo.sum())
    return max(-math.log(total), 0.0), geo / total


class TestStackedClosedForms:
    """The stacked closed forms and sorted breakpoints give every ensemble
    the bits of its one-ensemble result."""

    @pytest.mark.parametrize(
        "name", ["kl", "chi2", "hellinger_half", "hellinger_sq", "power:3", "power:1.5"]
    )
    def test_closed_forms_equal_one_ensemble_results(self, name):
        rng = np.random.default_rng(51)
        for n, s in ((2, 2), (3, 7), (5, 9)):
            pmats = rng.dirichlet(np.ones(s), size=(20, n))
            pmats[::4, 0, 0] = 0.0  # zero masses, one row renormalized
            pmats[::4, 0] /= pmats[::4, 0].sum(axis=1, keepdims=True)
            minimizers, values = informativity.closed_forms(name, pmats)
            for i in range(20):
                ens = Ensemble(members=tuple(DiscreteDistribution(r) for r in pmats[i]))
                one = informativity_closed_form(name, ens)
                assert values[i].tobytes() == np.float64(one.value).tobytes()
                assert minimizers[i].tobytes() == one.minimizer.pmf.tobytes()

    @pytest.mark.parametrize("n", [2, 5, 8, 9, 12])
    def test_reverse_kl_stack_equals_slices_and_reference(self, n):
        """Stacks of 2 to 12 ensembles, on both sides of 8 members, where a
        mean over members becomes a pairwise sum: sparse supports, no common
        support point (+inf, no minimizer), identical members (-0.0, as
        before) and a common subnormal mass."""
        rng = np.random.default_rng(53 + n)
        for b in (2, 3, 7, 12):
            s = int(rng.integers(2, 40))
            pmats = rng.dirichlet(np.full(s, 0.5), size=(b, n))
            for i in range(0, b, 4):
                pmats[i, 0, rng.choice(s, size=max(1, s // 3), replace=False)] = 0.0
            pmats[1::4, 0] = np.eye(s)[0]
            pmats[1::4, 1:, 0] = 0.0
            pmats[2::4, :, 1] = 5e-324
            pmats[3::4] = pmats[3::4, :1]
            pmats /= pmats.sum(axis=-1, keepdims=True)
            minimizers, values = informativity.closed_forms("reverse_kl", pmats)
            assert np.isinf(values[1::4]).all()
            assert (np.abs(values[3::4]) <= 1e-12).all()
            for i in range(b):
                q_alone, value_alone = informativity.closed_forms("reverse_kl", pmats[i])
                ens = Ensemble(members=tuple(DiscreteDistribution(r) for r in pmats[i]))
                one = informativity_closed_form("reverse_kl", ens)
                value, q = reverse_kl_reference(pmats[i])
                assert bits(values[i]) == bits(value_alone) == bits(one.value) == bits(value)
                if q is None:
                    assert one.minimizer is None
                    continue
                assert minimizers[i].tobytes() == q_alone.tobytes() == q.tobytes()
                assert one.minimizer.pmf.tobytes() == q.tobytes()

    def test_closed_forms_take_every_closed_form_name(self):
        pmats = np.random.default_rng(54).dirichlet(np.ones(4), size=(3, 2))
        for name in informativity.CLOSED_FORM_GENERATORS:
            minimizers, values = informativity.closed_forms(name.replace(":l", ":2.5"), pmats)
            assert minimizers.shape == (3, 4) and values.shape == (3,)
            assert np.isfinite(values).all() and (values > 0.0).all()

    def test_tv_breakpoints_equal_one_ensemble_results(self):
        rng = np.random.default_rng(52)
        for n, s in ((2, 3), (4, 4), (5, 8)):
            pmats = rng.dirichlet(np.ones(s), size=(20, n))
            pmats[1] = pmats[1, :1]  # identical members
            minimizers, values = informativity.tv_breakpoints(pmats)
            for i in range(20):
                ens = Ensemble(members=tuple(DiscreteDistribution(r) for r in pmats[i]))
                one = informativity_tv_exact(ens)
                assert values[i].tobytes() == np.float64(one.value).tobytes()
                assert minimizers[i].tobytes() == one.minimizer.pmf.tobytes()


class TestKKTSolutions:
    """A stack solved at once gives every ensemble the bits, steps and
    rounds of its solve alone."""

    @staticmethod
    def assert_slices_equal(gen, pmats):
        stacked = informativity.kkt_solutions(gen, pmats, tol=1e-9)
        for i in range(len(pmats)):
            alone = informativity.kkt_solutions(gen, pmats[i : i + 1], tol=1e-9)
            for field_stack, field_alone in zip(stacked, alone):
                assert field_stack[i].tobytes() == field_alone[0].tobytes()
        return stacked

    @pytest.mark.parametrize(
        "name", ["kl", "chi2", "hellinger_half", "hellinger_sq", "reverse_kl", "power:3"]
    )
    @pytest.mark.parametrize("n, s", [(2, 2), (3, 4), (4, 9), (8, 5), (12, 40)])
    def test_stack_equals_each_slice(self, name, n, s):
        """Shapes from 2 x 2 to 12 x 40 (sums over 8 or more members add
        pairwise), with partial supports: every third ensemble has a member
        zeroed on a third of the points, so one stack holds several support
        patterns, and ensembles finish at different steps."""
        rng = np.random.default_rng(61)
        pmats = rng.dirichlet(np.ones(s), size=(9, n))
        for i in range(0, 9, 3):
            pmats[i, 0, rng.choice(s, size=max(1, s // 3), replace=False)] = 0.0
            pmats[i, 0] /= pmats[i, 0].sum()
        _, _, gaps, iterations, _ = self.assert_slices_equal(builtin_generator(name), pmats)
        assert (gaps <= 1e-9).all()
        if name == "chi2":
            assert len(set(iterations.tolist())) > 1

    def test_empty_common_support_and_one_point_support(self):
        """Reverse KL on members with no common point is +inf with an
        all-zero minimizer; a single support point is its point mass; both
        sit in one stack with ordinary ensembles."""
        pmats = np.array(
            [
                [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
                [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]],
                [[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]],
                [[0.1, 0.0, 0.9], [0.0, 0.0, 1.0]],
            ]
        )
        q, values, gaps, iterations, rounds = self.assert_slices_equal(
            builtin_generator("reverse_kl"), pmats
        )
        assert math.isinf(values[0]) and not q[0].any()
        assert q[1].tolist() == [0.0, 1.0, 0.0] and values[1] == 0.0
        assert q[3].tolist() == [0.0, 0.0, 1.0]
        assert (iterations[[0, 1, 3]] == 0).all() and (rounds[[0, 1, 3]] == 0).all()
        assert iterations[2] >= 1 and gaps[2] <= 1e-9

    def test_numeric_is_the_one_ensemble_case(self):
        rng = np.random.default_rng(62)
        gen = builtin_generator("hellinger_half")
        for t in range(4):
            ens = random_ensemble(rng, n_max=9, s_max=30, sparse=t % 2 == 1)
            res = informativity_numeric(gen, ens, tol=1e-9)
            q, values, gaps, iterations, rounds = informativity.kkt_solutions(
                gen, ens.pmf_matrix()[None], tol=1e-9
            )
            assert res.minimizer.pmf.tobytes() == q[0].tobytes()
            assert (res.value, res.duality_gap) == (values[0], gaps[0])
            assert (res.iterations, res.rounds) == (iterations[0], rounds[0])

    def test_needs_a_derivative(self):
        with pytest.raises(ValueError, match="no derivative"):
            informativity.kkt_solutions(builtin_generator("tv"), np.full((1, 2, 2), 0.5))


#: the generators of the covering and chain array-form tests
ARRAY_FORM_GENERATORS = ["kl", "chi2", "power:3", "hellinger_sq", "reverse_kl"]


def sparse_stack(rng, b, n, s):
    """b stacks of n flat-Dirichlet rows on s points; in every third stack
    the first row is zeroed on a third of the points."""
    rows = rng.dirichlet(np.ones(s), size=(b, n))
    for i in range(0, b, 3):
        rows[i, 0, rng.choice(s, size=max(1, s // 3), replace=False)] = 0.0
        rows[i, 0] /= rows[i, 0].sum()
    return rows


def objects(pmat, qmat, assignment=None):
    ens = Ensemble(members=tuple(DiscreteDistribution(r) for r in pmat))
    cands = tuple(DiscreteDistribution(r) for r in qmat)
    return ens, CoveringFamily(candidates=cands, assignment=assignment)


def reference_covering(gen, pmat, qmat, assignment=None):
    """The covering bounds of one ensemble as first written: the full
    member x candidate matrices, the generic bound's terms gathered from
    the one against the scaled candidates."""
    n, m = len(pmat), len(qmat)
    divs = divergence_matrix(gen, pmat, qmat)
    best = np.argmin(divs, axis=1)
    err = float(divs[np.arange(n), best].max())
    chosen = best if assignment is None else list(assignment)
    total = float(divergence_matrix(gen, pmat, qmat / m)[np.arange(n), chosen].sum())
    if math.isinf(gen.f_at_zero):
        return err, tuple(best.tolist()), math.inf if m > 1 else total / n
    return err, tuple(best.tolist()), total / n + (1.0 - 1.0 / m) * gen.f_at_zero


def reference_chain(gen, pmat):
    """The simple upper chain of one ensemble as first written."""
    n = len(pmat)
    to_mixture = float(informativity._mixture_divergence(gen, pmat)[1])
    pairwise = divergence_matrix(gen, pmat, pmat)
    np.fill_diagonal(pairwise, 0.0)
    return to_mixture, float(pairwise.sum()) / (n * n), float(pairwise.max())


def bits(x):
    return np.float64(x).tobytes()


class TestCoveringArrays:
    """The array forms of the covering bounds and of the simple upper
    chain give every ensemble the bits of its slice alone, of the
    one-object functions and of the first, one-ensemble formulas."""

    @pytest.mark.parametrize("name", ARRAY_FORM_GENERATORS)
    @pytest.mark.parametrize("b, n, s, m", [(2, 2, 2, 1), (5, 3, 6, 3), (12, 8, 5, 4), (7, 12, 40, 2)])
    def test_stack_equals_each_slice(self, name, b, n, s, m):
        """Stacks of 2 to 12 ensembles, 2 to 12 members (sums over 8 or
        more add pairwise), with zero masses in members and candidates."""
        gen = builtin_generator(name)
        rng = np.random.default_rng(71)
        pmats, qmats = sparse_stack(rng, b, n, s), sparse_stack(rng, b, m, s)
        stacked = covering_bounds(gen, pmats, qmats) + simple_upper_chains(gen, pmats)
        for i in range(b):
            one = slice(i, i + 1)
            alone = covering_bounds(gen, pmats[one], qmats[one])
            alone += simple_upper_chains(gen, pmats[one])
            for field_stack, field_alone in zip(stacked, alone):
                assert field_stack[i].tobytes() == field_alone[0].tobytes()

    @pytest.mark.parametrize("name", ["kl", "reverse_kl"])
    def test_chain_stack_with_a_mass_the_mixture_rounds_to_0(self, name):
        """One ensemble's mixture rounds a subnormal mass to 0: its
        to-mixture entry drops that point (kl) or reads +inf (reverse_kl)
        in the stack as alone, and the other ensembles keep their bits."""
        gen = builtin_generator(name)
        pmats = np.random.default_rng(74).dirichlet(np.ones(5), size=(4, 2))
        pmats[2] = [[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0, 5e-324]]
        stacked = simple_upper_chains(gen, pmats)
        for i in range(4):
            alone = simple_upper_chains(gen, pmats[i : i + 1])
            for field_stack, field_alone in zip(stacked, alone):
                assert field_stack[i].tobytes() == field_alone[0].tobytes()
        assert stacked[0][2] == (0.0 if name == "kl" else math.inf)

    @pytest.mark.parametrize("name", ARRAY_FORM_GENERATORS)
    def test_one_ensemble_equals_the_object_functions(self, name):
        """The B = 1 case is the one-object functions, and both give the
        first formulas' bits, with and without an explicit assignment."""
        gen = builtin_generator(name)
        rng = np.random.default_rng(72)
        for t in range(16):
            n, s, m = 2 + t % 5, 2 + t % 7, 1 + t % 4
            pmat, qmat = sparse_stack(rng, 1, n, s)[0], sparse_stack(rng, 1, m, s)[0]
            assignment = tuple(rng.integers(0, m, size=n).tolist()) if t % 2 else None
            ens, fam = objects(pmat, qmat, assignment)
            given = None if assignment is None else np.array([assignment])
            errors, best, generic = covering_bounds(gen, pmat[None], qmat[None], assignments=given)
            err, argmin, bound = reference_covering(gen, pmat, qmat, assignment)
            assert bits(errors[0]) == bits(err)
            assert tuple(best[0].tolist()) == argmin
            assert bits(generic[0]) == bits(covering_upper_bound(gen, ens, fam)) == bits(bound)
            chains = simple_upper_chains(gen, pmat[None])
            for arr, one, ref in zip(chains, simple_upper_chain(gen, ens), reference_chain(gen, pmat)):
                assert bits(arr[0]) == bits(one) == bits(ref)

    def test_specializations_equal_the_scalar_formulas(self):
        """Each count and error gets the bits of the scalar formulas, log M
        from the C library."""
        counts = np.array([1, 2, 3, 4, 7, 4, 1, 1000])
        errors = np.array([0.0, 0.25, 1.5, 1e-9, 3.0, 0.125, 2.0, 0.5])
        formulas = {
            "kl": lambda m, e: math.log(m) + e,
            "chi2": lambda m, e: m * (e + 1.0) - 1.0,
            "power_l": lambda m, e: m ** (3.7 - 1.0) * (e + 1.0) - 1.0,
            "hellinger_sq": lambda m, e: 2.0 - (2.0 - e) / math.sqrt(m),
        }
        for kind in COVERING_KINDS:
            values = covering_specializations(kind, counts, errors, l=3.7)
            for value, m, e in zip(values, counts.tolist(), errors.tolist()):
                assert bits(value) == bits(formulas[kind](m, e))
                assert bits(value) == bits(covering_specialization(kind, m, e, l=3.7))

    def test_uncovered_mass_makes_only_its_bound_infinite(self):
        """A candidate with q = 0 < p makes that ensemble's generic bound
        +inf and leaves the others finite."""
        gen = builtin_generator("kl")
        pmats = np.array([[[0.5, 0.5], [0.25, 0.75]]] * 3)
        qmats = np.array([[[0.5, 0.5]], [[1.0, 0.0]], [[0.75, 0.25]]])
        errors, _, generic = covering_bounds(gen, pmats, qmats)
        assert np.isinf(generic[1]) and np.isinf(errors[1])
        assert np.isfinite(generic[[0, 2]]).all() and np.isfinite(errors[[0, 2]]).all()

    def test_infinite_f_at_zero(self):
        """With f(0+) = +inf, one candidate adds no f(0+) term (the bound
        is the mean divergence to it; it once read NaN), and two or more
        make the bound +inf."""
        gen = builtin_generator("reverse_kl")
        pmat = np.array([[0.5, 0.5], [0.25, 0.75]])
        q = np.array([[0.4, 0.6]])
        ens, fam = objects(pmat, q)
        mean = float(divergence_matrix(gen, pmat, q).sum()) / 2
        assert covering_upper_bound(gen, ens, fam) == mean
        assert covering_bounds(gen, pmat[None], q[None])[2][0] == mean
        ens, fam = objects(pmat, np.array([[0.4, 0.6], [0.5, 0.5]]))
        assert covering_upper_bound(gen, ens, fam) == math.inf

    def test_explicit_assignment(self):
        """The generic bound reads the given assignment; the returned
        assignment is still the argmin, as is the error."""
        gen = builtin_generator("chi2")
        pmat = np.array([[0.9, 0.1], [0.1, 0.9]])
        qmat = np.array([[0.85, 0.15], [0.15, 0.85]])
        errors, best, argmin_bound = covering_bounds(gen, pmat[None], qmat[None])
        _, best_given, given_bound = covering_bounds(
            gen, pmat[None], qmat[None], assignments=np.array([[1, 0]])
        )
        assert best.tolist() == best_given.tolist() == [[0, 1]]
        swapped = divergence_matrix(gen, pmat, qmat / 2)[[0, 1], [1, 0]]
        assert given_bound[0] == float(swapped.sum()) / 2 + 0.5 * gen.f_at_zero
        assert given_bound[0] > argmin_bound[0]
        with pytest.raises(ValueError, match="assignment length"):
            covering_bounds(gen, pmat[None], qmat[None], assignments=np.array([[0]]))
        # a negative index would wrap around, and one past the count would
        # read a padding row
        for bad, counts in (([[0, -1]], None), ([[0, 1]], [1])):
            with pytest.raises(ValueError, match="invalid candidate index"):
                covering_bounds(gen, pmat[None], qmat[None], counts, np.array(bad))

    def test_ties_go_to_the_first_candidate(self):
        gen = builtin_generator("kl")
        pmat = np.array([[0.5, 0.5], [0.2, 0.8]])
        far, near = [0.9, 0.1], [0.3, 0.7]
        _, best = covering_errors(gen, pmat[None], np.array([[far, near, near, far]]))
        assert best.tolist() == [[1, 1]]
        _, best = covering_errors(gen, pmat[None], np.array([[near, near]]))
        assert best.tolist() == [[0, 0]]

    @pytest.mark.parametrize("name", ARRAY_FORM_GENERATORS)
    def test_padded_families_equal_unpadded_ones(self, name):
        """Families of 1 to 4 candidates padded to 4 rows, by repeating
        the first candidate or with a member itself (which would be the
        nearest candidate), give each family's unpadded bits."""
        gen = builtin_generator(name)
        rng = np.random.default_rng(73)
        pmats = sparse_stack(rng, 8, 3, 5)
        counts = np.array([1, 2, 3, 4, 1, 2, 3, 4])
        families = [sparse_stack(rng, 1, m, 5)[0] for m in counts]
        for fill in ("first", "member"):
            padded = np.stack([
                np.concatenate([q, np.repeat(q[:1] if fill == "first" else p[:1], 4 - len(q), axis=0)])
                for p, q in zip(pmats, families)
            ])
            stacked = covering_bounds(gen, pmats, padded, counts)
            for i, q in enumerate(families):
                alone = covering_bounds(gen, pmats[i : i + 1], q[None])
                for field_stack, field_alone in zip(stacked, alone):
                    assert field_stack[i].tobytes() == field_alone[0].tobytes()
