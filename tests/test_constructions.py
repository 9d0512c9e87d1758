import math

import numpy as np
import pytest

from fdivbounds.constructions import (
    build_cov_family,
    cap_distance,
    cap_geometry,
    covariance_minimax_bound,
    default_delta,
    gaussian_kl,
    hamming_distance,
    kl_frobenius_check,
    spectral_separation,
    sphere_packing_points,
    support_packing_bound,
    varshamov_gilbert_code,
    verify_code,
)
from fdivbounds import constructions as cons
from fdivbounds import verify


class TestBinaryCodes:
    def test_hamming_single_flip(self):
        assert hamming_distance((0, 0, 1), (0, 1, 1)) == 1

    @pytest.mark.parametrize("k", [8, 16, 24, 32])
    def test_sizes_and_distances(self, k):
        code = varshamov_gilbert_code(k, seed=0)
        assert code.size >= math.ceil(math.exp(k / 8.0))
        assert code.min_distance >= k / 4.0
        assert verify_code(code)

    def test_k8_example(self):
        code = varshamov_gilbert_code(8, seed=0)
        assert code.size >= 3
        assert code.min_distance >= 2

    def test_k16_example(self):
        code = varshamov_gilbert_code(16, seed=0)
        assert code.size >= 8
        assert code.min_distance >= 4

    def test_deterministic_given_seed(self):
        a = varshamov_gilbert_code(24, seed=5)
        b = varshamov_gilbert_code(24, seed=5)
        assert np.array_equal(a.words, b.words)
        c = varshamov_gilbert_code(24, seed=6)
        assert not np.array_equal(a.words, c.words)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            varshamov_gilbert_code(7)

    def test_largest_pipeline_length_allowed_longer_refused(self):
        assert math.ceil(math.exp(88 / 8.0)) <= 2**16
        with pytest.raises(ValueError, match="k=89"):
            varshamov_gilbert_code(89)
        with pytest.raises(ValueError, match="k=200"):
            varshamov_gilbert_code(200)

    def test_exhaustive_distance_check_by_independent_loop(self):
        code = varshamov_gilbert_code(16, seed=3)
        words = code.words
        observed = min(
            hamming_distance(words[i], words[j])
            for i in range(code.size)
            for j in range(i + 1, code.size)
        )
        assert observed == code.min_distance
        assert observed >= 4


class TestGilbertVarshamovCount:
    def test_exact_count_reaches_size_for_every_length(self):
        """Gilbert's count ceil(2^k / V(k, ceil(k/4) - 1)), in exact integers,
        is at least ceil(e^(k/8)) for every k up to 400."""
        for k in range(1, 401):
            size = math.ceil(math.exp(k / 8.0))
            distance = math.ceil(k / 4.0)
            ball = sum(math.comb(k, i) for i in range(distance))
            assert -(-(2**k) // ball) >= size, k
            if k >= 8:
                assert cons._gilbert_varshamov(k) == (size, distance)

    def test_pascal_prefix_sums_match_comb(self):
        sums = verify._binomial_prefix_sums(400)
        assert sums == [
            sum(math.comb(k, i) for i in range(math.ceil(k / 4.0)))
            for k in range(1, 401)
        ]

    def test_float_range_guard_names_k(self):
        assert cons._gilbert_varshamov(5678)[1] == 1420
        with pytest.raises(ValueError, match="k=5679"):
            cons._gilbert_varshamov(5679)


class TestCovarianceFamily:
    def test_base_entries(self):
        fam = build_cov_family(4, 2, 1.0, 4.0)
        assert fam.base[0, 0] == 1.0
        assert fam.base[0, 1] == pytest.approx(1.0 / 4.0)
        assert fam.base[0, 2] == pytest.approx(1.0 / 16.0)
        assert fam.base[0, 3] == pytest.approx(1.0 / 36.0)
        np.linalg.cholesky(fam.base)  # positive definite

    def test_all_ones_tau_reproduces_base(self):
        fam = build_cov_family(6, 3, 1.0, 4.0)
        assert np.array_equal(fam.materialize(np.ones(3)), fam.base)

    def test_all_zeros_tau_clears_block(self):
        fam = build_cov_family(6, 3, 1.0, 4.0)
        mat = fam.materialize(np.zeros(3))
        assert np.all(mat[:3, 3:] == 0.0)
        assert np.all(mat[3:, :3] == 0.0)
        sym = mat - mat.T
        assert np.abs(sym).max() == 0.0

    def test_small_delta_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            build_cov_family(8, 4, 0.1, 1.0)
        with pytest.raises(ValueError, match="decay class"):
            build_cov_family(8, 4, 1.0, 0.5)

    def test_default_delta_is_exact(self):
        import mpmath

        # smallest integer above 2 zeta(1.05) + 1 = 42.15...
        assert default_delta(0.05) == 43
        assert default_delta(1.0) == 5
        for alpha in np.linspace(0.05, 3.0, 400):
            tail = 2 * mpmath.zeta(mpmath.mpf(float(alpha)) + 1) + 1
            assert default_delta(float(alpha)) == int(mpmath.floor(tail)) + 1

    def test_shape_constraint(self):
        with pytest.raises(ValueError, match="2k <= p"):
            build_cov_family(5, 3, 1.0, 4.0)

    def test_default_delta_diagonal_dominance(self):
        for alpha in (0.5, 1.0, 2.0):
            delta = default_delta(alpha)
            assert delta > 2.0 * sum(j ** -(alpha + 1.0) for j in range(1, 10**5)) + 1.0 - 1
            fam = build_cov_family(12, 4, alpha, float(delta))
            floor, _ = fam.gershgorin_interval()
            assert floor > 0.0


class TestSpectralSeparation:
    def test_small_family_example(self):
        fam = build_cov_family(4, 2, 1.0, 4.0)
        achieved, guaranteed = spectral_separation(fam, [1, 0], [0, 0])
        s2 = (1.0 / 4.0) * (1.0 / 4.0 + 1.0 / 9.0)
        assert fam.harmonic_tail() == pytest.approx(s2, abs=1e-15)
        assert guaranteed == pytest.approx(s2 * math.sqrt(0.5), abs=1e-15)
        assert achieved >= guaranteed - 1e-10

    def test_full_flip_gives_tail_itself(self):
        fam = build_cov_family(8, 3, 1.0, 4.0)
        _, guaranteed = spectral_separation(fam, np.ones(3), np.zeros(3))
        assert guaranteed == pytest.approx(fam.harmonic_tail(), abs=1e-15)

    def test_equal_taus_rejected(self):
        fam = build_cov_family(8, 3, 1.0, 4.0)
        with pytest.raises(ValueError, match="differ"):
            spectral_separation(fam, [1, 0, 1], [1, 0, 1])

    @pytest.mark.parametrize("p,k,alpha", [(8, 3, 0.5), (12, 4, 1.0), (16, 6, 2.0)])
    def test_random_pair_sweep(self, p, k, alpha):
        fam = build_cov_family(p, k, alpha)
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            tau = rng.integers(0, 2, size=k)
            tau_prime = rng.integers(0, 2, size=k)
            if np.array_equal(tau, tau_prime):
                continue
            achieved, guaranteed = spectral_separation(fam, tau, tau_prime)
            assert achieved >= guaranteed - 1e-10
            checked += 1

    def test_harmonic_tail_dominates_inverse_power(self):
        # S_k >= 2^(-alpha-1) k^(-alpha) / delta: the closed-form floor
        for alpha in (0.5, 1.0, 2.0):
            for k in (3, 6, 12):
                fam = build_cov_family(2 * k, k, alpha)
                floor = 2.0 ** (-alpha - 1.0) * k ** (-alpha) / fam.delta
                assert fam.harmonic_tail() >= floor - 1e-15


class TestGaussianKl:
    def test_identical_matrices(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert gaussian_kl(sigma, sigma, 1) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_hand_value(self):
        val = gaussian_kl(np.array([[1.0]]), np.array([[2.0]]), 1)
        assert val == pytest.approx(0.5 * (0.5 - 1.0 + math.log(2.0)), abs=1e-14)

    def test_linear_in_sample_count(self):
        s0 = np.array([[1.0, 0.2], [0.2, 1.5]])
        s1 = np.eye(2)
        assert gaussian_kl(s0, s1, 2) == pytest.approx(2 * gaussian_kl(s0, s1, 1), abs=1e-12)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p = int(rng.integers(2, 6))
            a = rng.normal(size=(p, p))
            s0 = a @ a.T + p * np.eye(p)
            b = rng.normal(size=(p, p))
            s1 = b @ b.T + p * np.eye(p)
            inv1 = np.linalg.inv(s1)
            expected = 0.5 * (
                np.trace(inv1 @ s0)
                - p
                + np.linalg.slogdet(s1)[1]
                - np.linalg.slogdet(s0)[1]
            )
            assert gaussian_kl(s0, s1, 1) == pytest.approx(expected, abs=1e-9)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kl(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), 1)


class TestKlFrobenius:
    def test_noop_truncation_gives_zeros(self):
        fam = build_cov_family(6, 3, 1.0, 4.0)
        rep = kl_frobenius_check(fam, np.array([0.0, 1.0, 1.0]), 2)
        assert rep.exact_kl == 0.0
        assert rep.frobenius_sq == 0.0

    def test_dense_oracle_values(self):
        fam = build_cov_family(6, 3, 1.0, 4.0)
        tau = np.array([1.0, 1.0, 1.0])
        rep = kl_frobenius_check(fam, tau, 2)
        a0 = fam.materialize(tau)
        tau_prime = np.array([0.0, 1.0, 1.0])
        a1 = fam.materialize(tau_prime)
        assert rep.frobenius_sq == pytest.approx(((a0 - a1) ** 2).sum(), abs=1e-15)
        inv1 = np.linalg.inv(a1)
        expected_kl = 0.5 * (
            np.trace(inv1 @ a0) - 6 + np.linalg.slogdet(a1)[1] - np.linalg.slogdet(a0)[1]
        )
        assert rep.exact_kl == pytest.approx(expected_kl, abs=1e-12)

    def test_single_coordinate_flip_row_sum(self):
        fam = build_cov_family(10, 4, 1.0, 4.0)
        tau = np.array([0.0, 1.0, 0.0, 1.0])
        rep = kl_frobenius_check(fam, tau, 3)  # zeroes coordinates 1..2
        # only row 2 (1-based) actually flips; its block row is a[1, k:]
        expected = 2.0 * float((fam.base[1, 4:] ** 2).sum())
        assert rep.frobenius_sq == pytest.approx(expected, abs=1e-15)

    def test_inequalities_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            k = int(rng.integers(3, 8))
            p = 2 * k + int(rng.integers(0, 3))
            alpha = float(rng.uniform(0.5, 2.0))
            fam = build_cov_family(p, k, alpha)
            tau = rng.integers(0, 2, size=k).astype(float)
            m = int(rng.integers(1, k))
            rep = kl_frobenius_check(fam, tau, m)
            assert rep.frobenius_sq <= rep.tail_bound + 1e-12
            assert rep.exact_kl <= rep.c_spec * rep.frobenius_sq + 1e-12

    def test_tail_decay_bounded(self):
        fam = build_cov_family(24, 8, 1.0)
        cap = 1.0 / (fam.delta**2 * fam.alpha * (2 * fam.alpha + 1))
        for window in range(1, 7):
            m = fam.k - window
            rep = kl_frobenius_check(fam, np.ones(fam.k), m)
            assert rep.tail_bound * window ** (2 * fam.alpha) <= cap + 1e-12

    def test_m_range_enforced(self):
        fam = build_cov_family(6, 3, 1.0, 4.0)
        with pytest.raises(ValueError):
            kl_frobenius_check(fam, np.ones(3), 0)
        with pytest.raises(ValueError):
            kl_frobenius_check(fam, np.ones(3), 3)


class TestCovarianceBound:
    def test_smallest_pipeline_is_positive(self):
        rep = covariance_minimax_bound(64, 1.0, seed=0)
        assert rep.lower_bound > 0.0
        assert not rep.vacuous
        inter = rep.intermediates
        assert inter["code_size"] >= math.exp(inter["k"] / 8.0)
        assert inter["code_min_distance"] >= inter["k"] / 4.0

    def test_window_must_fit(self):
        with pytest.raises(ValueError, match="delta_report"):
            covariance_minimax_bound(64, 1.0, delta_report=0.05)

    def test_p_floor_enforced(self):
        with pytest.raises(ValueError, match="below 2k"):
            covariance_minimax_bound(64, 1.0, p=10)

    def test_code_past_float_range_refused_before_family(self, monkeypatch):
        def no_family(*args, **kwargs):
            raise AssertionError("the dense family was built")

        monkeypatch.setattr(cons, "build_cov_family", no_family)
        with pytest.raises(ValueError, match="k=6433"):
            covariance_minimax_bound(n=2 * 10**8, alpha=1.0)

    def test_alpha_half_at_256_is_counted(self):
        """k = 176 used to need a 588 GiB greedy build (MemoryError)."""
        rep = covariance_minimax_bound(256, 0.5)
        inter = rep.intermediates
        assert inter["k"] == 176
        assert inter["code_size"] == math.ceil(math.exp(176 / 8.0))
        assert inter["code_min_distance"] == 44
        assert math.isfinite(rep.lower_bound) and rep.lower_bound > 0.0

    def test_seed_is_inert(self):
        a = covariance_minimax_bound(64, 1.0, seed=0).to_json()
        b = covariance_minimax_bound(64, 1.0, seed=5).to_json()
        assert a == b
        assert "seed" not in a["inputs"]

    def test_approx_error_dominates_sampled_truncation_kls(self):
        """The uniform quadratic-form bound used for the covering error
        really does dominate exact truncation KLs at the pipeline sizes."""
        rep = covariance_minimax_bound(64, 1.0, seed=0)
        k, m = rep.intermediates["k"], rep.intermediates["m"]
        n = rep.inputs["n"]
        fam = build_cov_family(rep.inputs["p"], k, 1.0)
        rng = np.random.default_rng(29)
        for _ in range(5):
            tau = rng.integers(0, 2, size=k).astype(float)
            exact = kl_frobenius_check(fam, tau, m).exact_kl
            assert n * exact <= rep.intermediates["approx_error"] + 1e-12


class TestCapGeometry:
    def test_small_epsilon_example(self):
        geom = cap_geometry(0.1, 2, 1.0)
        assert geom.alpha_angle == pytest.approx(math.acos(0.9), abs=1e-15)
        assert geom.beta_angle == pytest.approx(
            math.acos(0.9) - math.acos(0.95), abs=1e-15
        )
        assert math.sin(geom.beta_angle) >= math.sqrt(0.1) / (2 * math.sqrt(2))

    def test_half_epsilon_example(self):
        geom = cap_geometry(0.5, 2, 1.0)
        assert geom.alpha_angle == pytest.approx(math.pi / 3.0, abs=1e-12)
        assert geom.beta_angle == pytest.approx(
            math.pi / 3.0 - math.acos(0.75), abs=1e-12
        )

    def test_angles_shrink_with_epsilon(self):
        prev_alpha, prev_beta = math.inf, math.inf
        for eps in (0.5, 0.1, 0.01, 0.001):
            g = cap_geometry(eps, 2, 1.0)
            assert g.alpha_angle < prev_alpha and g.beta_angle < prev_beta
            prev_alpha, prev_beta = g.alpha_angle, g.beta_angle

    def test_sin_beta_floor_on_grid(self):
        for eps in np.geomspace(0.001, 0.5, 60):
            g = cap_geometry(float(eps), 2, 1.0)
            assert math.sin(g.beta_angle) >= math.sqrt(eps) / (2 * math.sqrt(2)) - 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cap_geometry(0.0, 2, 1.0)
        with pytest.raises(ValueError):
            cap_geometry(1.0, 2, 1.0)


class TestCapDistance:
    @pytest.mark.parametrize("eps", [0.005, 0.01, 0.02, 0.1, 0.3])
    def test_planar_l1_closed_form(self, eps):
        geom = cap_geometry(eps, 2, 1.0)
        closed = 2.0 * (geom.alpha_angle - math.sin(geom.alpha_angle))
        assert cap_distance(geom) == pytest.approx(closed, abs=1e-9)

    def test_vanishes_with_epsilon(self):
        vals = [cap_distance(cap_geometry(e, 2, 1.0)) for e in (0.2, 0.02, 0.002)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_three_dimensional_refinement_stability(self):
        """Quadrature value is stable under halved tolerance (refinement
        oracle) for d=3, p=2."""
        from scipy import integrate

        geom = cap_geometry(0.1, 3, 2.0)
        val = cap_distance(geom)
        alpha = geom.alpha_angle

        def integrand(t):
            return (1.0 - math.cos(alpha - t)) ** 2 * math.sin(t)

        ref, _ = integrate.quad(integrand, 0.0, alpha, epsabs=1e-14, epsrel=1e-13)
        assert val == pytest.approx((2.0 * math.pi * ref) ** 0.5, rel=1e-9)


class TestSpherePacking:
    def test_circle_count_exact(self):
        pts = sphere_packing_points(2, 0.01, seed=0)
        expected = math.floor(math.pi / math.asin(math.sqrt(2) * 0.1))
        assert pts.shape == (22, 2)
        assert expected == 22

    def test_circle_pairwise_distances(self):
        pts = sphere_packing_points(2, 0.01, seed=1)
        thr = 2.0 * math.sqrt(2) * 0.1
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.linalg.norm(pts[i] - pts[j]) > thr

    def test_circle_degenerate_epsilon(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            sphere_packing_points(2, 0.999, seed=0)

    def test_sphere_three_dimensional(self):
        eps = 0.04
        pts = sphere_packing_points(3, eps, seed=0)
        assert pts.shape[0] >= 10
        assert np.allclose((pts**2).sum(axis=1), 1.0, atol=1e-12)
        thr = 2.0 * math.sqrt(2) * math.sqrt(eps)
        gram = pts @ pts.T
        np.fill_diagonal(gram, -1.0)
        min_dist = math.sqrt(2.0 - 2.0 * gram.max())
        assert min_dist > thr
        # achieved packing constant, reported not asserted against any target
        c1 = pts.shape[0] * math.sqrt(eps) ** 2
        assert c1 > 0

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="d in"):
            sphere_packing_points(4, 0.01, seed=0)


class TestSupportPacking:
    def test_reference_case(self):
        res = support_packing_bound(2, 1.0, 0.01, seed=0)
        assert res.n_caps == 22
        assert res.code_size >= math.ceil(math.exp(22 / 8.0))  # 16
        assert res.log_count >= 22 / 8.0
        assert res.min_distance == pytest.approx(
            res.code_min_distance * res.cap_dist, abs=1e-15
        )
        assert res.code_min_distance >= 22 / 4.0

    def test_pairwise_distances_from_additivity(self):
        """Recompute every pairwise distance of a witness code from per-cap
        contributions and check the floor (N/4)^(1/p) * cap_dist."""
        res = support_packing_bound(2, 1.0, 0.02, seed=0)
        code = varshamov_gilbert_code(res.n_caps, seed=0)
        assert code.size >= res.code_size
        words = code.words
        floor = (res.n_caps / 4.0) * res.cap_dist
        for i in range(code.size):
            for j in range(i + 1, code.size):
                ups = hamming_distance(words[i], words[j])
                assert ups > 0  # code words never coincide
                dist_p = ups * res.cap_dist  # p = 1
                assert dist_p >= floor - 1e-12
                assert dist_p >= res.min_distance - 1e-12

    def test_claim_ratio_bounded_below(self):
        ratios = []
        for eps in (0.01, 0.02, 0.05, 0.1, 0.2):
            geom = cap_geometry(eps, 2, 1.0)
            ratios.append(cap_distance(geom) / (eps * math.sqrt(eps)))
        assert min(ratios) > 0.5

    def test_too_few_caps_rejected(self):
        # eps = 0.3 fits only 3 caps on the circle: below the code floor
        with pytest.raises(ValueError, match="at least 8"):
            support_packing_bound(2, 1.0, 0.3, seed=0)

    @pytest.mark.parametrize("eps", [0.005, 0.01])
    def test_three_dimensional_packings_are_counted(self, eps):
        """d = 3 at eps = 0.005 used to need a 3.56 TiB greedy build and at
        eps = 0.01 did not finish within 400 s."""
        res = support_packing_bound(3, 1.0, eps, seed=0)
        n = res.n_caps
        assert res.code_size == math.ceil(math.exp(n / 8.0))
        assert res.code_min_distance == math.ceil(n / 4.0)
        assert math.isfinite(res.log_count) and math.isfinite(res.min_distance)
        assert res.min_distance == pytest.approx(
            res.code_min_distance * res.cap_dist, rel=1e-15
        )
