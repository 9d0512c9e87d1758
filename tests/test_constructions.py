import itertools
import math

import numpy as np
import pytest
from scipy import linalg as scipy_linalg

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
    spectral_separations,
    sphere_packing_points,
    support_packing_bound,
    varshamov_gilbert_code,
    verify_code,
)
from fdivbounds import constructions as cons


def sequential_code(k, seed):
    """The greedy build one candidate at a time over the builder's seeded
    stream: each is kept when at distance >= ceil(k/4) from every word kept
    before it, until ceil(e^(k/8)) words.  Returns (words, min distance)."""
    target, needed = cons._code_size(k), math.ceil(k / 4.0)
    kept, min_dist = [], k
    for block in cons._candidate_blocks(k, seed, target):
        for row in block:
            if kept:
                nearest = int(np.bitwise_count(np.array(kept) ^ row).sum(axis=1).min())
                if nearest < needed:
                    continue
                min_dist = min(min_dist, nearest)
            kept.append(row)
            if len(kept) == target:
                words = np.unpackbits(np.array(kept).view(np.uint8), axis=1)[:, :k]
                return words, min_dist
    raise AssertionError("candidate budget exhausted")


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

    @pytest.mark.parametrize("k", [8, 12, 16, 20, 24, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_block_filter_matches_sequential_build(self, k, seed):
        code = varshamov_gilbert_code(k, seed=seed)
        words, min_dist = sequential_code(k, seed)
        assert np.array_equal(code.words, words)
        assert code.min_distance == min_dist

    @pytest.mark.parametrize("k", [40, 70])  # one and two 64-bit words a row
    def test_nearest_kept_word_a_slice_at_a_time(self, monkeypatch, k):
        # a tiny step compares each block against two kept words at a time
        monkeypatch.setattr(cons, "_PAIRS_PER_STEP", 16)
        rng = np.random.default_rng(k)
        rows = cons._pack_rows(rng.integers(0, 2, size=(7, k), dtype=np.uint8))
        kept = cons._pack_rows(rng.integers(0, 2, size=(51, k), dtype=np.uint8))
        kept[37] = rows[4]
        kept[37, 0] ^= np.uint64(0b1011)  # one word at distance 3, far in
        brute = [int(np.bitwise_count(kept ^ row).sum(axis=1).min()) for row in rows]
        assert cons._nearest(rows, kept).tolist() == brute
        assert brute[4] == 3

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
                assert cons._gilbert_varshamov(k) == (math.log(size), distance)

    def test_log_size_continues_past_float_range(self):
        """The log of ceil(e^(k/8)) is exact while e^(k/8) is a float and
        k/8 past it, so no length is refused for the float range."""
        assert cons._gilbert_varshamov(5678) == (
            math.log(math.ceil(math.exp(5678 / 8.0))),
            1420,
        )
        assert cons._gilbert_varshamov(5678)[0] == pytest.approx(5678 / 8.0, rel=1e-15)
        assert cons._gilbert_varshamov(5679) == (5679 / 8.0, 1420)
        assert cons._gilbert_varshamov(110_000) == (13_750.0, 27_500)
        assert cons._code_size(5678) == math.ceil(math.exp(5678 / 8.0))
        assert cons._code_size(5679) is None


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

    @pytest.mark.parametrize(
        "k,alpha", [(k, 0.3) for k in range(3, 7)] + [(k, 0.5) for k in range(3, 6)]
    )
    def test_indefinite_members_refused(self, k, alpha):
        """delta = 1.5 leaves some of the 2^k members indefinite although the
        tau = 1 member is positive definite; the Gershgorin floor refuses the
        family."""
        unchecked = cons.CovarianceFamily(p=2 * k, k=k, alpha=alpha, delta=1.5)
        np.linalg.cholesky(unchecked.base)
        smallest = min(
            np.linalg.eigvalsh(unchecked.materialize(np.array(tau))).min()
            for tau in itertools.product((0.0, 1.0), repeat=k)
        )
        assert smallest < 0.0
        with pytest.raises(ValueError, match="positive definite"):
            build_cov_family(2 * k, k, alpha, 1.5)

    def test_nonpositive_floor_refused_even_when_members_are_definite(self):
        """alpha = 1, delta = 2: every member of this family is positive
        definite, but the floor does not certify it, so it is refused."""
        unchecked = cons.CovarianceFamily(p=8, k=4, alpha=1.0, delta=2.0)
        assert unchecked.gershgorin_interval()[0] <= 0.0
        for tau in itertools.product((0.0, 1.0), repeat=4):
            assert np.linalg.eigvalsh(unchecked.materialize(np.array(tau))).min() > 0.0
        with pytest.raises(ValueError, match="positive definite"):
            build_cov_family(8, 4, 1.0, 2.0)

    @pytest.mark.parametrize("p,k,alpha", [(6, 3, 0.5), (9, 4, 1.0), (10, 5, 2.0)])
    def test_every_member_inside_gershgorin_interval(self, p, k, alpha):
        fam = build_cov_family(p, k, alpha)
        floor, ceil = fam.gershgorin_interval()
        assert floor > 0.0
        for tau in itertools.product((0.0, 1.0), repeat=k):
            evals = np.linalg.eigvalsh(fam.materialize(np.array(tau)))
            assert floor - 1e-12 <= evals.min() and evals.max() <= ceil + 1e-12

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

    @pytest.mark.parametrize(
        "shape", [(8, 3, 0.5), (12, 4, 1.0), (16, 6, 2.0), "covariance_smoke"]
    )
    def test_batch_equals_the_single_pair_formula(self, shape):
        """The stacked kernel gives, bit for bit, what one pair at a time
        gives through the two dense members: the three verify families and
        the family of ``covariance_minimax_bound(64, 1.0)``."""
        if shape == "covariance_smoke":
            report = covariance_minimax_bound(64, 1.0)
            k = report.intermediates["k"]
            fam = build_cov_family(report.inputs["p"], k, 1.0)
        else:
            fam = build_cov_family(*shape)
        rng = np.random.default_rng(41)
        pairs = rng.integers(0, 2, size=(40, 2, fam.k))
        pairs = pairs[(pairs[:, 0] != pairs[:, 1]).any(axis=1)]
        achieved, guaranteed = spectral_separations(fam, pairs[:, 0], pairs[:, 1])
        for (tau, tau_prime), got, floor in zip(pairs, achieved, guaranteed):
            diff = fam.materialize(tau) - fam.materialize(tau_prime)
            expected = float(np.abs(np.linalg.eigvalsh(diff)).max())
            ups = hamming_distance(tau, tau_prime)
            assert got.hex() == expected.hex()
            assert floor.hex() == (fam.harmonic_tail() * math.sqrt(ups / fam.k)).hex()
            assert spectral_separation(fam, tau, tau_prime) == (got, floor)

    def test_batch_refuses_equal_pairs_and_wrong_lengths(self):
        fam = build_cov_family(8, 3, 1.0, 4.0)
        with pytest.raises(ValueError, match="differ"):
            spectral_separations(fam, [[1, 0, 1], [0, 0, 1]], [[0, 0, 1], [0, 0, 1]])
        for taus, tau_primes in (
            ([[1, 0]], [[0, 0]]),
            ([[1, 0, 1, 0]], [[0, 0, 1, 0]]),
            ([[1, 0, 1]], [[0, 0, 1], [1, 1, 1]]),
        ):
            with pytest.raises(ValueError, match="length 3"):
                spectral_separations(fam, taus, tau_primes)
        with pytest.raises(ValueError, match="length 3"):
            spectral_separation(fam, [1, 0], [0, 0])

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
        with pytest.raises(ValueError, match="positive definite"):
            gaussian_kl(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        sigma = np.array([[1.0, bad], [bad, 1.0]])
        for args in ((sigma, np.eye(2)), (np.eye(2), sigma)):
            with pytest.raises(ValueError, match="finite"):
                gaussian_kl(*args)

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            gaussian_kl(np.zeros((0, 0)), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="equal order"):
            gaussian_kl(np.eye(2), np.eye(3))


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
            dense_tail = 2.0 * float((fam.base[: m - 1, k:] ** 2).sum())
            assert fam.frobenius_tail(m) == pytest.approx(dense_tail, rel=1e-14, abs=0)
            radius = float(np.abs(fam.base - np.eye(p)).sum(axis=1).max())
            assert fam.gershgorin_interval() == pytest.approx(
                (1.0 - radius, 1.0 + radius), rel=1e-14, abs=0
            )

    @staticmethod
    def _seeded_truncations(seed, count):
        """``count`` (A(tau), A(tau'), report) triples with k from 3 to 8,
        drawn as the verify check draws them, truncations that change
        nothing left out."""
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            k = int(rng.integers(3, 9))
            p = 2 * k + int(rng.integers(0, 4))
            fam = build_cov_family(p, k, float(rng.uniform(0.5, 2.0)))
            tau = rng.integers(0, 2, size=k).astype(float)
            m = int(rng.integers(1, k))
            rep = kl_frobenius_check(fam, tau, m)
            if rep.frobenius_sq > 0:
                tau_prime = tau.copy()
                tau_prime[: m - 1] = 0.0
                out.append((fam.materialize(tau), fam.materialize(tau_prime), rep))
        return out

    def test_one_cholesky_matches_the_general_solves(self):
        """exact_kl and c_spec agree with the route through a general
        solve of S1^-1 S0 and its non-symmetric eigenvalues to 1e-12
        relative.  The KL also gets an absolute floor of 2 p eps, the
        rounding of the p-term trace the reference cancels against p: at a
        KL near 1e-7 that reference is only good to about 1e-9 relative."""
        eps = np.finfo(float).eps
        for s0, s1, rep in self._seeded_truncations(29, 200):
            p = s0.shape[0]
            b = scipy_linalg.solve(s1, s0)
            kl = 0.5 * (np.trace(b) - p + np.linalg.slogdet(s1)[1] - np.linalg.slogdet(s0)[1])
            lam_b = float(np.real(np.linalg.eigvals(b)).min())
            c_spec = 1.0 / (2.0 * np.linalg.eigvalsh(s1).min() ** 2 * min(1.0, lam_b))
            assert rep.exact_kl == pytest.approx(kl, rel=1e-12, abs=2 * p * eps)
            assert rep.c_spec == pytest.approx(c_spec, rel=1e-12, abs=0)
            assert gaussian_kl(s0, s1, 3) == 3 * rep.exact_kl

    def test_kl_against_high_precision(self):
        """Summed per eigenvalue of the whitened matrix, the KL keeps its
        relative accuracy when it is small: within 1e-11 of a 30-digit
        evaluation of (tr(S1^-1 S0) - p + log det S1 - log det S0) / 2."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for s0, s1, rep in self._seeded_truncations(37, 8):
                m0, m1 = mpmath.matrix(s0.tolist()), mpmath.matrix(s1.tolist())
                ratio = m1**-1 * m0
                trace = mpmath.fsum(ratio[i, i] for i in range(s0.shape[0]))
                exact = (
                    trace - s0.shape[0] + mpmath.log(mpmath.det(m1)) - mpmath.log(mpmath.det(m0))
                ) / 2
                assert rep.exact_kl == pytest.approx(float(exact), rel=1e-11, abs=0)

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

    def test_code_past_float_range_is_counted_in_logs(self):
        """k = 6433 puts e^(k/8) past the float range: the bound reads the
        log count, and code_size is None."""
        rep = covariance_minimax_bound(n=2 * 10**8, alpha=1.0)
        inter = rep.intermediates
        assert inter["k"] == 6433
        assert inter["code_size"] is None
        assert inter["log_code_size"] == 6433 / 8.0
        assert math.isfinite(rep.lower_bound) and rep.lower_bound > 0.0
        assert not rep.vacuous

    def test_bound_allocates_no_dense_family(self, monkeypatch):
        def no_base(self):
            raise AssertionError("the dense p x p base was built")

        monkeypatch.setattr(cons.CovarianceFamily, "base", property(no_base))
        rep = covariance_minimax_bound(n=10**12, alpha=1.0)
        assert rep.intermediates["k"] == 110_000
        assert rep.intermediates["log_code_size"] == 13_750.0
        assert math.isfinite(rep.lower_bound) and rep.lower_bound > 0.0

    @pytest.mark.parametrize(
        "alpha,band", [(1.0, (6.0e-4, 6.9e-4)), (2.0, (6.4e-5, 8.6e-5))]
    )
    def test_paper_rate_out_to_1e12(self, alpha, band):
        """bound * n^(alpha/(2 alpha + 1)) stays in a fixed band from n = 1e4
        to 1e12: the bound keeps the n^(-alpha/(2 alpha + 1)) rate."""
        scaled = [
            covariance_minimax_bound(10**e, alpha).lower_bound
            * 10 ** (e * alpha / (2.0 * alpha + 1.0))
            for e in (4, 6, 8, 10, 12)
        ]
        assert all(band[0] <= v <= band[1] for v in scaled), scaled
        if alpha == 1.0:
            assert scaled == sorted(scaled)

    def test_alpha_half_at_256_is_counted(self):
        """k = 176 used to need a 588 GiB greedy build (MemoryError)."""
        rep = covariance_minimax_bound(256, 0.5)
        inter = rep.intermediates
        assert inter["k"] == 176
        assert inter["code_size"] == math.ceil(math.exp(176 / 8.0))
        assert inter["log_code_size"] == math.log(inter["code_size"])
        assert inter["code_min_distance"] == 44
        assert math.isfinite(rep.lower_bound) and rep.lower_bound > 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        """delta = nan once gave a NaN bound marked non-vacuous and
        delta = inf a 0.0 bound over all-zero perturbations; alpha = inf
        ran, and alpha = nan and a non-finite delta_report failed only in a
        float-to-int conversion."""
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            covariance_minimax_bound(64, bad)
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            build_cov_family(12, 4, bad)
        with pytest.raises(ValueError, match="delta must be a finite number"):
            covariance_minimax_bound(64, 1.0, delta=bad)
        with pytest.raises(ValueError, match="delta must be a finite number"):
            build_cov_family(12, 4, 1.0, bad)
        with pytest.raises(ValueError, match="delta_report must be a positive finite"):
            covariance_minimax_bound(64, 1.0, delta_report=bad)

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


def rowwise_farthest_points(mesh, threshold):
    """Farthest-point selection with each step's squared distances reduced
    over the rows of ``mesh``, in its first form."""
    chosen = [0]
    dist_sq = ((mesh - mesh[0]) ** 2).sum(axis=1)
    while True:
        idx = int(dist_sq.argmax())
        if dist_sq[idx] <= threshold**2:
            return mesh[chosen]
        chosen.append(idx)
        dist_sq = np.minimum(dist_sq, ((mesh - mesh[idx]) ** 2).sum(axis=1))


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

    @pytest.mark.parametrize(
        "eps,seeds", [(0.002, 2), (0.005, 8), (0.01, 8), (0.02, 8), (0.03, 8), (0.05, 8)]
    )
    def test_selection_bit_equal_to_rowwise_reference(self, eps, seeds):
        """The column-wise farthest-point selection picks the rows, in the
        order, that the row-wise squared distances pick, on the seeded
        meshes that ``sphere_packing_points`` draws at seeds 0-7 (0-1 at
        eps = 0.002, where the row-wise reference takes 0.7 s a mesh)."""
        threshold = 2.0 * math.sqrt(2.0) * math.sqrt(eps)
        for seed in range(seeds):
            mesh = cons._fibonacci_sphere(max(4096, int(64.0 / eps)), np.random.default_rng(seed))
            want = rowwise_farthest_points(mesh, threshold)
            assert cons._farthest_point_selection(mesh, threshold).tobytes() == want.tobytes()
            assert sphere_packing_points(3, eps, seed=seed).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p_rejected(self, p):
        """p = nan once slipped past the p < 1 guard into NaN distances, and
        p = inf died with a ZeroDivisionError in the claim ratio."""
        with pytest.raises(ValueError, match="p must be a finite number"):
            cap_geometry(0.01, 2, p)
        with pytest.raises(ValueError, match="p must be a finite number"):
            support_packing_bound(2, p, 0.01, seed=0)

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
