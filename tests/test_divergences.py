import math

import numpy as np
import pytest

from fdivbounds.distributions import DiscreteDistribution
from fdivbounds.divergences import (
    DivergenceGenerator,
    builtin_generator,
    default_generators,
    divergence_matrix,
    eval_divergence,
    squared_hellinger,
    total_variation,
    uniform_divergence_floor,
    uniform_divergence_floor_derivative,
)


def dist(*vals):
    return DiscreteDistribution(np.array(vals))


class TestGeneratorCatalog:
    @pytest.mark.parametrize(
        "name,f_at_zero",
        [
            ("kl", 0.0),
            ("chi2", -1.0),
            ("hellinger_half", 1.0),
            ("hellinger_sq", 1.0),
            ("tv", 0.5),
            ("reverse_kl", math.inf),
            ("power:3", -1.0),
        ],
    )
    def test_boundary_values(self, name, f_at_zero):
        gen = builtin_generator(name)
        assert gen.f_at_zero == f_at_zero
        assert float(gen.f(np.array([1.0]))[0]) == 0.0

    def test_power_needs_exponent_above_one(self):
        with pytest.raises(ValueError):
            builtin_generator("power:1")

    def test_power_generators_are_built_once(self):
        gen = builtin_generator("power:3")
        assert builtin_generator("power:3.0") is gen
        assert default_generators()[-1] is gen
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(ValueError, match="exponent > 1"):
                builtin_generator("power:0.5")

    @pytest.mark.parametrize(
        "name",
        ["kl", "chi2", "hellinger_half", "hellinger_sq", "reverse_kl", "power:3", "power:1.5"],
    )
    def test_closed_form_h_matches_derived(self, name):
        """h(t) = f(t) - t f'(t), and at t = 0+ it tends to f(0+)."""
        gen = builtin_generator(name)
        t = np.geomspace(1e-6, 1e3, 91)
        derived = gen.f(t) - t * gen.derivative(t)
        assert np.allclose(gen.h(t), derived, rtol=1e-12, atol=1e-9)
        near_zero = float(gen.h(np.array([1e-300]))[0])
        if math.isinf(gen.f_at_zero):
            assert near_zero > 600.0
        else:
            assert near_zero == pytest.approx(gen.f_at_zero, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown generator"):
            builtin_generator("renyi")

    def test_user_generator_accepted_when_convex(self):
        gen = DivergenceGenerator(
            name="exp_centered",
            f=lambda x: np.exp(x) - np.e * x,
            f_at_zero=1.0,
            derivative=lambda x: np.exp(x) - np.e,
        )
        assert eval_divergence(gen, dist(0.5, 0.5), dist(0.5, 0.5)) == 0.0

    def test_user_generator_rejected_when_concave(self):
        with pytest.raises(ValueError, match="convexity"):
            DivergenceGenerator(name="sqrt", f=lambda x: np.sqrt(x) - x, f_at_zero=0.0)

    def test_f_at_one_must_vanish(self):
        with pytest.raises(ValueError, match="f\\(1\\)"):
            DivergenceGenerator(name="shifted", f=lambda x: x, f_at_zero=0.0)


class TestEvalDivergence:
    def test_chi2_direct_summation(self):
        # 0.25*(2^2-1) + 0.75*((2/3)^2-1)
        val = eval_divergence(builtin_generator("chi2"), dist(0.5, 0.5), dist(0.25, 0.75))
        assert val == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("name", [g.name for g in default_generators()])
    def test_identical_arguments_give_zero(self, name):
        gen = builtin_generator(name)
        p = dist(0.3, 0.2, 0.5)
        assert eval_divergence(gen, p, p) == 0.0

    def test_absolute_continuity_failure_is_infinite(self):
        val = eval_divergence(builtin_generator("kl"), dist(1.0, 0.0), dist(0.0, 1.0))
        assert math.isinf(val)

    def test_zero_mass_point_uses_boundary_value(self):
        # p=(0,1), q=(0.5,0.5): term q*f(0) at the first point
        val = eval_divergence(builtin_generator("chi2"), dist(0.0, 1.0), dist(0.5, 0.5))
        assert val == pytest.approx(0.5 * (-1.0) + 0.5 * 3.0, abs=1e-15)

    def test_reverse_kl_swaps_arguments(self):
        p, q = dist(0.3, 0.7), dist(0.6, 0.4)
        rev = eval_divergence(builtin_generator("reverse_kl"), p, q)
        fwd = eval_divergence(builtin_generator("kl"), q, p)
        assert rev == pytest.approx(fwd, abs=1e-14)

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            eval_divergence(builtin_generator("kl"), dist(1.0), dist(0.5, 0.5))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        worst = math.inf
        for _ in range(300):
            s = int(rng.integers(2, 17))
            p = DiscreteDistribution(rng.dirichlet(np.ones(s)))
            q = DiscreteDistribution(rng.dirichlet(np.ones(s)))
            for gen in default_generators():
                v = eval_divergence(gen, p, q)
                assert v >= 0.0
                worst = min(worst, v)
        assert worst >= 0.0

    def test_hellinger_forms_differ_by_factor_two(self):
        rng = np.random.default_rng(4)
        half = builtin_generator("hellinger_half")
        full = builtin_generator("hellinger_sq")
        for _ in range(50):
            p = DiscreteDistribution(rng.dirichlet(np.ones(5)))
            q = DiscreteDistribution(rng.dirichlet(np.ones(5)))
            assert eval_divergence(full, p, q) == pytest.approx(
                2.0 * eval_divergence(half, p, q), abs=1e-12
            )
            assert eval_divergence(full, p, q) == pytest.approx(
                squared_hellinger(p, q), abs=1e-12
            )

    def test_tv_generator_matches_plain_tv_on_shared_support(self):
        rng = np.random.default_rng(5)
        gen = builtin_generator("tv")
        for _ in range(50):
            p = DiscreteDistribution(rng.dirichlet(np.ones(4)))
            q = DiscreteDistribution(rng.dirichlet(np.ones(4)))
            assert eval_divergence(gen, p, q) == pytest.approx(
                total_variation(p, q), abs=1e-14
            )


class TestUniformDivergenceFloor:
    def test_chi2_closed_form(self):
        # N^3/(N-1) (1 - 1/N - a)^2 for the quadratic generator
        val = uniform_divergence_floor(builtin_generator("chi2"), 2, 0.25)
        assert val == pytest.approx(8.0 * 0.25**2, abs=1e-14)

    @pytest.mark.parametrize("name", ["kl", "chi2", "tv", "power:3"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_vanishes_at_maximal_risk(self, name, n):
        val = uniform_divergence_floor(builtin_generator(name), n, 1.0 - 1.0 / n)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_kl_at_zero_risk(self):
        val = uniform_divergence_floor(builtin_generator("kl"), 2, 0.0)
        assert val == pytest.approx(2.0 * math.log(2.0), abs=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            uniform_divergence_floor(builtin_generator("kl"), 2, 0.6)

    @pytest.mark.parametrize("name", [g.name for g in default_generators()])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_non_increasing_and_midpoint_convex(self, name, n):
        gen = builtin_generator(name)
        grid = np.linspace(0.0, 1.0 - 1.0 / n, 41)
        vals = [uniform_divergence_floor(gen, n, a) for a in grid]
        for a, b in zip(vals, vals[1:]):
            if math.isfinite(b):
                assert b <= a + 1e-12
        for i in range(0, 39, 2):
            mid = uniform_divergence_floor(gen, n, (grid[i] + grid[i + 2]) / 2.0)
            if math.isfinite(vals[i]) and math.isfinite(vals[i + 2]):
                assert mid <= (vals[i] + vals[i + 2]) / 2.0 + 1e-12

    def test_derivative_matches_finite_differences(self):
        gen = builtin_generator("chi2")
        for n in (2, 4):
            for a in (0.1, 0.3):
                step = 1e-6
                numeric = (
                    uniform_divergence_floor(gen, n, a + step)
                    - uniform_divergence_floor(gen, n, a - step)
                ) / (2 * step)
                assert uniform_divergence_floor_derivative(gen, n, a) == pytest.approx(
                    numeric, rel=1e-6
                )

    def test_derivative_requires_differentiable_generator(self):
        with pytest.raises(ValueError, match="derivative"):
            uniform_divergence_floor_derivative(builtin_generator("tv"), 2, 0.1)


class TestClassicalPairInequalities:
    """Pinsker, the mixture-KL bound, and the Hellinger-TV bound."""

    def test_random_pair_sweep(self):
        rng = np.random.default_rng(11)
        kl = builtin_generator("kl")
        for _ in range(400):
            s = int(rng.integers(2, 17))
            p1 = DiscreteDistribution(rng.dirichlet(np.ones(s)))
            p2 = DiscreteDistribution(rng.dirichlet(np.ones(s)))
            v = total_variation(p1, p2)
            assert eval_divergence(kl, p1, p2) >= 2.0 * v * v - 1e-12
            mix = DiscreteDistribution((p1.pmf + p2.pmf) / 2.0)
            lhs = eval_divergence(kl, p1, mix) + eval_divergence(kl, p2, mix)
            rhs = (1 + v) * math.log1p(v) + (1 - v) * math.log1p(-v)
            assert lhs >= rhs - 1e-12
            h = math.sqrt(squared_hellinger(p1, p2))
            assert v <= h * math.sqrt(1.0 - h * h / 4.0) + 1e-12


def pair_loop(gen, pmat, qmat):
    """D_f for every row pair, one pair at a time: the conventions written
    out, and each pair reduced by a dot product of the q row with its row of
    f-values (masked points hold 0.0)."""
    out = np.empty((len(pmat), len(qmat)))
    for i, p in enumerate(pmat):
        for j, q in enumerate(qmat):
            if np.any((q == 0.0) & (p > 0.0)):
                out[i, j] = math.inf
                continue
            both = (p > 0.0) & (q > 0.0)
            vals = np.zeros(p.size)
            vals[both] = gen.f(p[both] / q[both])
            vals[(p == 0.0) & (q > 0.0)] = gen.f_at_zero
            total = float(np.dot(q, vals))
            out[i, j] = 0.0 if -1e-12 <= total < 0.0 else total
    return out


class TestDivergenceMatrix:
    @pytest.mark.parametrize("gen", default_generators(), ids=lambda g: g.name)
    def test_dense_rows_bit_equal_to_pair_loop(self, gen):
        rng = np.random.default_rng(21)
        for _ in range(20):
            s = int(rng.integers(2, 129))
            pmat = rng.dirichlet(np.ones(s), size=int(rng.integers(1, 9)))
            qmat = rng.dirichlet(np.ones(s), size=int(rng.integers(1, 9)))
            got = divergence_matrix(gen, pmat, qmat)
            assert got.shape == (len(pmat), len(qmat))
            assert np.array_equal(got, pair_loop(gen, pmat, qmat))
            for i, p in enumerate(pmat):
                for j, q in enumerate(qmat):
                    one = eval_divergence(gen, DiscreteDistribution(p), DiscreteDistribution(q))
                    assert one == got[i, j]

    @pytest.mark.parametrize("gen", default_generators(), ids=lambda g: g.name)
    def test_boundary_conventions(self, gen):
        pmat = np.array(
            [
                [0.0, 0.5, 0.5],  # p = 0 where q > 0: q * f(0+)
                [0.2, 0.0, 0.8],  # p > 0 where the third q row is 0: +inf
                [0.0, 0.0, 1.0],  # p = q = 0 at the first point: no term
            ]
        )
        qmat = np.array([[0.25, 0.25, 0.5], [0.0, 0.5, 0.5], [0.5, 0.5, 0.0]])
        got = divergence_matrix(gen, pmat, qmat)
        assert np.array_equal(got, pair_loop(gen, pmat, qmat))
        assert math.isinf(got[1, 1]) and math.isinf(got[1, 2]) and math.isinf(got[2, 2])
        if math.isinf(gen.f_at_zero):  # reverse_kl: any p = 0 < q is infinite
            assert math.isinf(got[0, 0]) and math.isinf(got[2, 0])
        else:
            dead = 0.25 * gen.f_at_zero
            live = 0.25 * float(gen.f(np.array([2.0]))[0]) + 0.5 * float(gen.f(np.array([1.0]))[0])
            assert got[0, 0] == pytest.approx(max(dead + live, 0.0), abs=1e-15)
        # a point where both vanish contributes nothing: same as dropping it
        dropped = divergence_matrix(gen, pmat[:1, 1:], qmat[1:2, 1:])
        assert got[0, 1] == pytest.approx(dropped[0, 0], abs=1e-15)

    @pytest.mark.parametrize("gen", default_generators(), ids=lambda g: g.name)
    def test_jensen_slack_clamped(self, gen):
        rng = np.random.default_rng(22)
        clamped = 0
        for _ in range(200):
            s = int(rng.integers(2, 33))
            p = rng.dirichlet(np.ones(s))
            q = p * (1.0 + 1e-9 * rng.standard_normal(s))
            q /= q.sum()
            raw = float(np.dot(q, gen.f(p / q)))
            got = divergence_matrix(gen, p[None], q[None])[0, 0]
            assert got >= 0.0
            if -1e-12 <= raw < 0.0:
                clamped += 1
                assert got == 0.0
            else:
                assert got == raw
        if gen.name not in ("tv", "hellinger_sq"):  # their f is nonnegative
            assert clamped > 0

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            divergence_matrix(builtin_generator("kl"), np.ones((2, 3)) / 3, np.ones((1, 2)) / 2)
