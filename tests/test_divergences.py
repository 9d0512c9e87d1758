import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdivbounds.distributions import DiscreteDistribution
from fdivbounds.divergences import (
    DivergenceGenerator,
    apply_generator,
    builtin_generator,
    default_generators,
    divergence_matrix,
    eval_divergence,
    power_exponent,
    squared_hellinger,
    total_variation,
)
from fdivbounds.mixture_bounds import (
    _uniform_slope,
    tangent_risk_bound,
    two_point_target,
    uniform_divergence_floor,
    weighted_divergence_floor,
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

    @pytest.mark.parametrize("text", ["inf", "1e400", "nan", "-inf", "1", "0.5"])
    def test_power_exponent_must_be_finite_above_one(self, text):
        """power:inf and power:1e400 once built a generator whose
        divergences read +inf."""
        with pytest.raises(ValueError, match=f"finite exponent > 1, got '{text}'"):
            builtin_generator(f"power:{text}")

    def test_power_exponent_is_read_exactly(self):
        assert power_exponent("power:2.5000001") == 2.5000001
        assert builtin_generator("power:2.5000001").f(np.array([2.0]))[0] == 2.0**2.5000001 - 1.0

    @pytest.mark.parametrize(
        "exponent,name",
        [(2.5000001, "power:2.5000001"), (1.1234567, "power:1.1234567"),
         (3.0, "power:3"), (1.5, "power:1.5")],
    )
    def test_power_name_round_trips(self, exponent, name):
        """The name once kept 6 digits, so power:2.5000001 was named
        power:2.5; whole exponents still print without a trailing .0."""
        gen = builtin_generator(f"power:{exponent!r}")
        assert gen.name == name
        assert builtin_generator(gen.name) is gen
        assert power_exponent(gen.name) == exponent

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

    def test_convexity_message_prints_plain_floats(self):
        """The message once printed x=np.float64(...)."""
        with pytest.raises(ValueError) as err:
            DivergenceGenerator(name="sqrt", f=lambda x: np.sqrt(x) - x, f_at_zero=0.0)
        message = str(err.value)
        assert "np." not in message
        x, y = (float(part.split("=")[1]) for part in message.split(" at ")[1].split(", "))
        assert message.endswith(f"x={x!r}, y={y!r}")

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
                assert _uniform_slope(gen, n, a) == pytest.approx(numeric, rel=1e-6)

    def test_derivative_requires_differentiable_generator(self):
        with pytest.raises(ValueError, match="derivative"):
            _uniform_slope(builtin_generator("tv"), 2, 0.1)
        with pytest.raises(ValueError, match="derivative"):
            tangent_risk_bound(builtin_generator("tv"), 2, 0.5, 0.1)


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
    @pytest.mark.parametrize("p,q", [(5e-324, 3.0), (2.0**-52, np.finfo(float).max)])
    def test_underflowing_ratio_takes_f_at_zero(self, gen, p, q):
        """A positive p whose ratio to an unnormalized q underflows to 0
        gets f(0+), as a zero mass does; kl once read NaN here.  2^-52 sits
        just below the p.min() under which the kernel reads q.max()."""
        with np.errstate(divide="raise", invalid="raise"):
            got = divergence_matrix(gen, [[p, 0.5]], [[q, 0.5]])
            zero = divergence_matrix(gen, [[0.0, 0.5]], [[q, 0.5]])
        assert same_bits(got, zero)

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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 6),
        s=st.integers(1, 40),
        zeros=st.sampled_from([0.0, 0.0, 0.1, 0.5]),
        layouts=st.tuples(*[st.sampled_from(["C", "F", "slice", "T", "reversed"])] * 2),
        gen=st.sampled_from(default_generators()),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_layout_bit_equal_to_contiguous_and_pair_loop(
        self, n, m, s, zeros, layouts, gen, seed
    ):
        rng = np.random.default_rng(seed)

        def draw(rows, layout):
            mat = rng.dirichlet(np.ones(s), size=rows)
            mat[rng.random(mat.shape) < zeros] = 0.0
            if layout == "F":
                return np.asfortranarray(mat)
            if layout == "slice":  # a column slice, as the informativity solver passes
                wide = np.zeros((rows, 2 * s))
                wide[:, 1::2] = mat
                return wide[:, 1::2]
            if layout == "T":
                return mat.T.copy().T
            if layout == "reversed":  # negative strides
                return mat[::-1, ::-1].copy()[::-1, ::-1]
            return mat

        pmat, qmat = draw(n, layouts[0]), draw(m, layouts[1])
        pdense, qdense = np.ascontiguousarray(pmat), np.ascontiguousarray(qmat)
        with np.errstate(over="ignore"):
            got = divergence_matrix(gen, pmat, qmat)
            dense = divergence_matrix(gen, pdense, qdense)
            # np.dot over a strided row adds in another order, so the loop
            # reads contiguous rows
            looped = pair_loop(gen, pdense, qdense)
        assert got.tobytes() == dense.tobytes()
        assert np.array_equal(got, looped)  # as floats: the loop's dot may give -0.0

    def test_support_mismatch(self):
        with pytest.raises(ValueError, match="support"):
            divergence_matrix(builtin_generator("kl"), np.ones((2, 3)) / 3, np.ones((1, 2)) / 2)


def f_one(gen, x):
    """f at one point by a one-element call, f(0+) at 0: the scalar rule
    every array floor must reproduce bit for bit."""
    return gen.f_at_zero if x == 0.0 else float(gen.f(np.array([x]))[0])


def floor_one(gen, x, y, wx, wy):
    """wx f(x) + wy f(y) from scalar f values, +inf where either is."""
    first, second = f_one(gen, x), f_one(gen, y)
    if math.isinf(first) or math.isinf(second):
        return math.inf
    return wx * first + wy * second


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestBatchAxes:
    """The batched kernel and the array floors give, element by element,
    the bits of their one-instance forms."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        b=st.integers(1, 5),
        n=st.integers(1, 5),
        m=st.integers(1, 4),
        s=st.integers(1, 24),
        zeros=st.sampled_from([0.0, 0.0, 0.1, 0.4]),
        dead=st.booleans(),
        near=st.booleans(),
        gen=st.sampled_from(default_generators()),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_kernel_bit_equal_to_2d_calls(
        self, b, n, m, s, zeros, dead, near, gen, seed
    ):
        rng = np.random.default_rng(seed)
        pmat = rng.dirichlet(np.ones(s), size=(b, n))
        pmat[rng.random(pmat.shape) < zeros] = 0.0
        if near:  # references a hair from the members: Jensen slack near 0
            qmat = pmat[:, np.arange(m) % n] * (1.0 + 1e-9 * rng.standard_normal((b, m, s)))
        else:
            qmat = rng.dirichlet(np.ones(s), size=(b, m))
            qmat[rng.random(qmat.shape) < zeros] = 0.0
        if dead:  # a dead reference point: +inf wherever p has mass there
            qmat[..., 0] = 0.0
        with np.errstate(over="ignore"):
            got = divergence_matrix(gen, pmat, qmat)
            each = np.stack([divergence_matrix(gen, pmat[i], qmat[i]) for i in range(b)])
            shared = divergence_matrix(gen, pmat, qmat[0])
            each_shared = np.stack([divergence_matrix(gen, p, qmat[0]) for p in pmat])
        assert got.shape == (b, n, m)
        assert got.tobytes() == each.tobytes()
        assert shared.tobytes() == each_shared.tobytes()

    def test_batched_kernel_reaches_every_convention(self):
        kl = builtin_generator("kl")
        pmat = np.array([[[0.0, 0.5, 0.5], [0.2, 0.0, 0.8]], [[0.3, 0.3, 0.4], [0.3, 0.3, 0.4]]])
        qmat = np.array([[[0.25, 0.25, 0.5]], [[0.0, 0.5, 0.5]]])
        got = divergence_matrix(kl, pmat, qmat)
        assert got.shape == (2, 2, 1)
        assert math.isinf(got[1, 0, 0]) and math.isinf(got[1, 1, 0])
        for i in range(2):
            assert np.array_equal(got[i], pair_loop(kl, pmat[i], qmat[i]))
        assert math.isfinite(got[0, 0, 0]) and math.isfinite(got[0, 1, 0])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        gen=st.sampled_from(default_generators()),
        k=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_array_floors_equal_scalar_rule(self, gen, k, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 9, size=k)
        hi = 1.0 - 1.0 / n
        a = rng.uniform(0.0, 1.0, size=k) * hi
        a[rng.random(k) < 0.2] = 0.0
        ends = rng.random(k) < 0.2
        a[ends] = hi[ends]
        w = rng.uniform(0.0, 1.0, size=k)
        w[w == 0.0] = 0.5
        r = rng.uniform(0.0, 1.0, size=k)
        r[rng.random(k) < 0.2] = 0.0
        v = rng.uniform(0.0, 1.0, size=k)
        v[rng.random(k) < 0.2] = 1.0
        uniform = uniform_divergence_floor(gen, n, a)
        weighted = weighted_divergence_floor(gen, w, r)
        target = two_point_target(v, gen)
        for i in range(k):
            ni, ai = int(n[i]), float(a[i])
            expect = floor_one(gen, ni * (1.0 - ai), ni * ai / (ni - 1.0), 1.0, ni - 1.0)
            assert same_bits(uniform[i], expect)
            assert same_bits(uniform_divergence_floor(gen, ni, ai), expect)
            wi, ri = float(w[i]), float(r[i])
            expect = floor_one(gen, (1.0 - ri) / wi, ri / (1.0 - wi), wi, 1.0 - wi)
            assert same_bits(weighted[i], expect)
            assert same_bits(weighted_divergence_floor(gen, wi, ri), expect)
            vi = float(v[i])
            expect = floor_one(gen, 1.0 + vi, 1.0 - vi, 1.0, 1.0)
            assert same_bits(target[i], expect)
            assert same_bits(two_point_target(vi, gen), expect)
        if gen.derivative is not None:
            slopes = _uniform_slope(gen, n, a)
            for i in range(k):
                ni, ai = int(n[i]), float(a[i])
                inner = ni * ai / (ni - 1.0)
                left = float(gen.derivative(np.array([inner if inner else 1e-300]))[0])
                right = float(gen.derivative(np.array([ni * (1.0 - ai)]))[0])
                assert same_bits(slopes[i], ni * (left - right))

    @pytest.mark.parametrize("layout", ["C", "F", "columns", "columns with a zero"])
    def test_apply_generator_keeps_the_input_layout(self, layout):
        """A later reduction adds in an order set by the memory layout (an
        axis-0 mean of a Fortran-ordered 8-row array is a pairwise sum),
        so the result keeps the layout ``np.empty_like`` gives."""
        kl = builtin_generator("kl")
        base = np.random.default_rng(3).uniform(0.1, 2.0, size=(8, 6))
        if layout == "columns with a zero":
            base[0, 0] = 0.0
        x = base if layout == "C" else np.asfortranarray(base)
        if layout.startswith("columns"):
            x = base[:, np.array([True, False, True, True, False, True])]
        got = apply_generator(kl, x)
        assert got.strides == np.empty_like(x).strides
        for (i, j), v in np.ndenumerate(x):
            assert same_bits(got[i, j], f_one(kl, v))

    def test_apply_generator_takes_f_zero_only_at_zero(self):
        kl = builtin_generator("kl")
        x = np.array([[0.0, 0.5], [2.0, 0.0]])
        got = apply_generator(kl, x)
        assert got[0, 0] == 0.0 and got[1, 1] == 0.0
        assert same_bits(got[0, 1], f_one(kl, 0.5)) and same_bits(got[1, 0], f_one(kl, 2.0))
        assert same_bits(apply_generator(kl, 0.5), f_one(kl, 0.5))


class TestFloorInputChecks:
    """The floors refuse bad input by name, elementwise in array form."""

    def test_derivative_needs_two_hypotheses(self):
        """The tangent inversion, the floor's slope's one caller, checks n."""
        with pytest.raises(ValueError, match="need at least 2 hypotheses"):
            tangent_risk_bound(builtin_generator("kl"), 1, 0.5, 0.0)
        with pytest.raises(ValueError, match="need at least 2 hypotheses"):
            uniform_divergence_floor(builtin_generator("kl"), np.array([2, 1]), 0.0)

    @pytest.mark.parametrize("v", [1.5, -0.1, math.nan])
    def test_two_point_target_refuses_v_outside_unit_interval(self, v):
        chi2 = builtin_generator("chi2")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            two_point_target(v, chi2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            two_point_target(np.array([0.3, v]), chi2)

    def test_array_checks_name_the_first_bad_element(self):
        kl = builtin_generator("kl")
        with pytest.raises(ValueError, match="a=0.75 outside"):
            uniform_divergence_floor(kl, 2, np.array([0.1, 0.75, 0.9]))
        with pytest.raises(ValueError, match="a=nan outside"):
            uniform_divergence_floor(kl, 3, np.array([0.1, math.nan]))
        with pytest.raises(ValueError, match="W=1.0"):
            weighted_divergence_floor(kl, np.array([0.5, 1.0]), 0.2)
