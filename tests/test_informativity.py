import math

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
    eval_divergence,
    total_variation,
)
from fdivbounds.informativity import (
    CoveringFamily,
    covering_approx_error,
    covering_specialization,
    covering_upper_bound,
    informativity_closed_form,
    informativity_numeric,
    informativity_tv_exact,
    simple_upper_chain,
)
from fdivbounds.verify import grid_informativity, informativity_oracle_ensembles

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
            oracle = grid_informativity(gen, ens, step=1e-3)
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
        for ens in informativity_oracle_ensembles(seed=0, trials=200):
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

    def test_kl_takes_one_step(self):
        """The mixture start is the KL multiplier itself: every point's
        slope at the uniform mixture is -1, so one step certifies."""
        rng = np.random.default_rng(17)
        ensembles = list(informativity_oracle_ensembles(seed=0, trials=200))
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
        oracle = grid_informativity(gen, SINGULAR_PAIR, step=1e-3)
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
            oracle = grid_informativity(builtin_generator("tv"), ens, step=1e-3)
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
            err, _ = covering_approx_error(gen, ens, fam)
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
            _, assignment = covering_approx_error(gen, ens, fam)
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


class TestGridOracle:
    @pytest.mark.parametrize("name", ["kl", "chi2", "hellinger_half", "reverse_kl"])
    def test_bit_equal_to_masked_reference(self, name, monkeypatch):
        """The oracle's objective and its whole search give the masked
        form's values bit for bit, on 2-4 x 2-4 ensembles, half of them
        with zero masses."""
        gen = builtin_generator(name)
        rng = np.random.default_rng(11)
        ensembles = [random_ensemble(rng, sparse=t % 2 == 1) for t in range(8)]
        found = [grid_informativity(gen, ens, step=1e-3) for ens in ensembles]
        for ens in ensembles:
            pmat = ens.pmf_matrix()
            qs = verify._simplex_grid(pmat.shape[1], 0.02)
            assert np.array_equal(
                verify._grid_objective(gen, pmat, qs),
                _masked_grid_objective(gen, pmat, qs),
                equal_nan=True,
            )
        monkeypatch.setattr(verify, "_grid_objective", _masked_grid_objective)
        reference = [grid_informativity(gen, ens, step=1e-3) for ens in ensembles]
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
            swept = verify._coarse_objective(gen, pmat, step)
            assert np.array_equal(swept.view(np.int64), reference.view(np.int64))


def test_one_dirichlet_call_draws_the_same_members():
    """One size-n Dirichlet draw yields the rows that n single draws
    would, so the verify reports do not change with the batching."""
    batched = verify._draw_members(np.random.default_rng([3, 30]), 4, 5)
    single = np.random.default_rng([3, 30])
    for member in batched:
        assert np.array_equal(member.pmf, single.dirichlet(np.ones(5)))
