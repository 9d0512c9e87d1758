"""Combinatorial and geometric constructions behind the applications.

Three independent pieces live here: binary codes (the bounds count them by
Gilbert-Varshamov; a seeded greedy builder gives witnesses), the
off-diagonal-decay covariance family with its spectral-separation and
KL-vs-Frobenius verifiers plus the full bound assembly, and spherical-cap
packings of the sphere with the support-function distance integral.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from scipy import integrate, linalg, special

from .distributions import check_finite, check_integer
from .report import BoundReport

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# ---------------------------------------------------------------------------
# Binary codes
# ---------------------------------------------------------------------------


def hamming_distance(u, v) -> int:
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError("words must have equal length")
    return int(np.count_nonzero(u != v))


@dataclass(frozen=True, eq=False)
class BinaryCode:
    """Words of a fixed length with a recorded minimum pairwise distance."""

    length: int
    words: np.ndarray  # (m, length) array of 0/1
    min_distance: int

    @property
    def size(self) -> int:
        return int(self.words.shape[0])


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack an (m, k) 0/1 array into (m, ceil(k/64)) uint64 rows."""
    m, k = bits.shape
    padded = np.zeros((m, ((k + 63) // 64) * 64), dtype=np.uint8)
    padded[:, :k] = bits
    as_bytes = np.packbits(padded, axis=1)
    return as_bytes.view(np.uint64).reshape(m, -1)


def verify_code(code: BinaryCode) -> bool:
    """Exhaustive pairwise re-check of both code invariants."""
    k = code.length
    m = code.size
    if m < math.exp(k / 8.0):
        return False
    packed = _pack_rows(code.words.astype(np.uint8))
    needed = k / 4.0
    for i in range(m - 1):
        dists = np.bitwise_count(packed[i + 1 :] ^ packed[i]).sum(axis=1)
        if dists.min() < needed:
            return False
    return True


def _gilbert_varshamov(k: int) -> tuple[float, int]:
    """(log ceil(e^(k/8)), ceil(k/4)): the log-size and the minimum Hamming
    distance of a binary code of length k that Gilbert's count guarantees;
    both applications read only these.

    Gilbert's count: add words of {0,1}^k one at a time, each at distance
    >= r from every word added before.  A word rules out at most
    V(k, r-1) = sum_{i<r} C(k, i) words, so at least 2^k / V(k, r-1) are
    added.  For j <= k/2 and lam = j/k, 1 = sum_i C(k,i) lam^i (1-lam)^(k-i)
    >= V(k, j) lam^j (1-lam)^(k-j), so V(k, j) <= e^(k H(j/k)) with H the
    entropy in nats, increasing on [0, 1/2].  With r = ceil(k/4),
    (r-1)/k < 1/4 and, for every k >= 1,

        2^k / V(k, r-1) >= e^((ln 2 - H(1/4)) k) = e^(0.1308 k) > e^(k/8).

    The log is that of the exact ceiling where e^(k/8) is a float (k <= 5678)
    and k/8 past that, where the two differ by less than e^(-k/8) < 1e-300.
    """
    if k < 8:
        raise ValueError("code length must be at least 8")
    size = _code_size(k)
    return (k / 8.0 if size is None else math.log(size)), math.ceil(k / 4.0)


def _code_size(k: int) -> Optional[int]:
    """ceil(e^(k/8)), the Gilbert-Varshamov code size, or None where e^(k/8)
    is past the float range."""
    return math.ceil(math.exp(k / 8.0)) if k / 8.0 <= _LOG_FLOAT_MAX else None


def _candidate_blocks(k: int, seed: int, target: int):
    """The seeded candidate stream of :func:`varshamov_gilbert_code`, as
    packed blocks: every word of {0,1}^k in random order for k <= 16, else
    up to 64 * target + 4096 random words."""
    rng = np.random.default_rng(seed)
    step = 4096 if target > 4096 else 1024
    if k <= 16:
        order = rng.permutation(1 << k)
        for start in range(0, 1 << k, step):
            bits = (order[start : start + step, None] >> np.arange(k)[::-1]) & 1
            yield _pack_rows(bits.astype(np.uint8))
    else:
        # the block sizes cut the seeded stream, so they fix the words drawn
        budget = 64 * target + 4096
        for start in range(0, budget, step):
            size = min(step, budget - start)
            yield _pack_rows(rng.integers(0, 2, size=(size, k), dtype=np.uint8))


def varshamov_gilbert_code(k: int, seed: int = 0) -> BinaryCode:
    """Greedy code over {0,1}^k: words arrive in seeded-random order and are
    kept when at Hamming distance >= k/4 from everything kept so far; the
    build stops at ceil(exp(k/8)) words.

    Candidates are taken one at a time.  The kept words are stored as one
    row per 64-bit slot, so a candidate's distances to all of them take one
    XOR and one popcount per slot.  The pairwise property holds by
    construction, and the exact minimum pairwise distance is recorded on the
    result.  ``_gilbert_varshamov`` shows a code of this size exists; if the
    random order is unlucky within the candidate budget, a retry with a
    different seed is signalled by RuntimeError.  Codes above 2^16 words
    (k >= 89; the applications never built one past k = 88) are refused
    with ValueError.
    """
    check_integer("k", k, 8)
    check_integer("seed", seed, 0)
    log_target, needed = _gilbert_varshamov(k)
    if log_target > 16.0 * math.log(2.0):
        raise ValueError(
            f"a code of length k={k} needs ceil(e^(k/8)) words, above the "
            "65536 this builder allows"
        )
    target = _code_size(k)
    slots = (k + 63) // 64
    kept = np.zeros((slots, target), dtype=np.uint64)
    # reused buffers; the builder's lengths stay below 256, so uint8 holds a distance
    xor = np.empty(target, dtype=np.uint64)
    dist = np.empty(target, dtype=np.uint8)
    slot_dist = np.empty(target, dtype=np.uint8)
    count = 0
    min_dist = k
    for word in itertools.chain.from_iterable(_candidate_blocks(k, seed, target)):
        if count:
            near = dist[:count]
            np.bitwise_count(np.bitwise_xor(kept[0, :count], word[0], out=xor[:count]), out=near)
            for w in range(1, slots):
                near += np.bitwise_count(
                    np.bitwise_xor(kept[w, :count], word[w], out=xor[:count]), out=slot_dist[:count]
                )
            nearest = int(near.min())
            if nearest < needed:
                continue
            min_dist = min(min_dist, nearest)
        kept[:, count] = word
        count += 1
        if count == target:
            break
    if count < target:
        raise RuntimeError(
            f"greedy code build found {count} of {target} words within the "
            f"candidate budget; retry with another seed"
        )
    words = np.unpackbits(np.ascontiguousarray(kept.T).view(np.uint8), axis=1)[:, :k]
    words.setflags(write=False)
    return BinaryCode(length=k, words=words, min_distance=int(min_dist))


# ---------------------------------------------------------------------------
# Covariance family
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def default_delta(alpha: float) -> int:
    """Smallest integer exceeding 2 zeta(alpha + 1) + 1, where
    zeta(alpha + 1) = sum_j j^(-alpha-1); this makes every family matrix
    strictly diagonally dominant, hence positive definite."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return int(math.floor(2.0 * float(special.zeta(alpha + 1.0)) + 1.0)) + 1


@dataclass(frozen=True, eq=False)
class CovarianceFamily:
    """Base matrix with unit diagonal and off-diagonal decay
    d(g) = 1/(delta g^(alpha+1)) at gap g = |i-j|, partitioned at k; tau in
    {0,1}^k scales the rows of the off-diagonal block.  The scalars the bound
    reads are O(p) sums over d; the dense ``base`` is built on first use."""

    p: int
    k: int
    alpha: float
    delta: float

    def _decay(self, gaps: np.ndarray) -> np.ndarray:
        return 1.0 / (self.delta * gaps ** (self.alpha + 1.0))

    @cached_property
    def base(self) -> np.ndarray:
        idx = np.arange(self.p)
        with np.errstate(divide="ignore"):
            base = self._decay(np.abs(idx[:, None] - idx[None, :]).astype(float))
        np.fill_diagonal(base, 1.0)
        base.setflags(write=False)
        return base

    def materialize(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if tau.shape != (self.k,):
            raise ValueError(f"tau must have length {self.k}")
        out = self.base.copy()
        block = self.base[: self.k, self.k :] * tau[:, None]
        out[: self.k, self.k :] = block
        out[self.k :, : self.k] = block.T
        return out

    def harmonic_tail(self) -> float:
        """sum_{i=k}^{2k-1} 1/(delta i^(alpha+1)): the exact per-coordinate
        floor used by the spectral separation guarantee."""
        i = np.arange(self.k, 2 * self.k, dtype=float)
        return float((i ** -(self.alpha + 1.0)).sum() / self.delta)

    def gershgorin_interval(self) -> tuple[float, float]:
        """Eigenvalue interval valid for every tau in [0,1]^k: 1 -+ the
        largest off-diagonal row sum, where row i's is c[i] + c[p-1-i] with
        c the prefix sums of the decay."""
        c = np.concatenate(([0.0], np.cumsum(self._decay(np.arange(1.0, self.p)))))
        radius = float((c + c[::-1]).max())
        return 1.0 - radius, 1.0 + radius

    def frobenius_tail(self, m: int) -> float:
        """2 sum_{r < m-1} sum_{k <= j < p} base[r, j]^2, as
        2 sum_g count(g) d(g)^2 over the gaps g = j - r, with count(g) the
        number of such (r, j) pairs; a sum of positive terms, so nothing
        cancels."""
        gaps = np.arange(self.k - m + 2, self.p)
        count = np.minimum(m - 2, self.p - 1 - gaps) - np.maximum(0, self.k - gaps) + 1
        weights = np.clip(count, 0, None).astype(float)
        return 2.0 * float(weights @ self._decay(gaps.astype(float)) ** 2)


def _check_decay(alpha: float, delta: Optional[float]) -> None:
    if check_finite("alpha", alpha) <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if delta is not None:
        check_finite("delta", delta)


def build_cov_family(
    p: int, k: int, alpha: float, delta: Optional[float] = None
) -> CovarianceFamily:
    """The family of order p split at k (delta defaults to default_delta).
    A positive Gershgorin floor certifies all 2^k members positive definite
    at once; a family without one raises ValueError."""
    check_integer("p", p, 1)
    check_integer("k", k, 1)
    _check_decay(alpha, delta)
    if delta is None:
        delta = float(default_delta(alpha))
    if 2 * k > p:
        raise ValueError("family needs 2k <= p")
    if delta < 1.0:
        raise ValueError("delta below 1 puts the family outside the decay class")
    fam = CovarianceFamily(p=p, k=k, alpha=alpha, delta=float(delta))
    floor, _ = fam.gershgorin_interval()
    if floor <= 0.0:
        raise ValueError(
            f"Gershgorin floor {floor:.6g} is not positive, so the family is "
            f"not certified positive definite; increase delta ({delta})"
        )
    return fam


def spectral_separation(fam: CovarianceFamily, tau, tau_prime) -> tuple[float, float]:
    """(achieved, guaranteed) spectral-norm separation of two family members;
    see :func:`spectral_separations`."""
    achieved, guaranteed = spectral_separations(fam, [tau], [tau_prime])
    return float(achieved[0]), float(guaranteed[0])


def spectral_separations(fam: CovarianceFamily, taus, tau_primes) -> tuple:
    """(achieved, guaranteed) spectral-norm separations of the pairs of
    family members ``taus[b]``, ``tau_primes[b]`` (B, k), as two (B,) arrays.

    Two members differ only in the off-diagonal block and its transpose,
    where the difference is ``base[:k, k:] * tau - base[:k, k:] * tau'`` row
    by row: the bits of ``materialize(tau) - materialize(tau')``.  achieved
    is the largest eigenvalue magnitude of each difference, from one stacked
    symmetric eigensolve; guaranteed is the exact harmonic tail times
    sqrt(hamming/k) and never exceeds achieved (up to 1e-10).  A pair of
    equal members, or a tau of the wrong length, raises ValueError.
    """
    taus = np.asarray(taus, dtype=float)
    tau_primes = np.asarray(tau_primes, dtype=float)
    if taus.shape != tau_primes.shape or taus.ndim != 2 or taus.shape[1] != fam.k:
        raise ValueError(f"tau must have length {fam.k}")
    ups = np.count_nonzero(taus != tau_primes, axis=1)
    if not ups.all():
        raise ValueError("tau and tau_prime must differ")
    block = fam.base[: fam.k, fam.k :]
    edge = block * taus[:, :, None] - block * tau_primes[:, :, None]
    diffs = np.zeros((len(taus), fam.p, fam.p))
    diffs[:, : fam.k, fam.k :] = edge
    diffs[:, fam.k :, : fam.k] = edge.transpose(0, 2, 1)
    achieved = np.abs(np.linalg.eigvalsh(diffs)).max(axis=1)
    guaranteed = fam.harmonic_tail() * np.sqrt(ups / fam.k)
    return achieved, guaranteed


def _whitened_eigenvalues(sigma0: np.ndarray, sigma1: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of B = L^-1 S0 L^-T with S1 = L L^T: one
    Cholesky factor, two triangular solves (B is L^-1 X^T for
    X = L^-1 S0, as S0 is symmetric) and one symmetric eigensolve.  B has
    the eigenvalues of S1^-1 S0 and is positive definite exactly when S0
    is.  A non-finite entry, or a matrix that is not positive definite,
    raises ValueError."""
    sigma0 = np.asarray(sigma0, dtype=float)
    sigma1 = np.asarray(sigma1, dtype=float)
    if sigma0.shape != sigma1.shape or sigma0.ndim != 2 or sigma0.shape[0] != sigma0.shape[1]:
        raise ValueError("covariances must be square matrices of equal order")
    if not sigma0.size:
        raise ValueError("covariances must have at least one row")
    if not (np.isfinite(sigma0).all() and np.isfinite(sigma1).all()):
        raise ValueError("covariance matrices must be finite")
    try:
        chol = np.linalg.cholesky(sigma1)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrices must be positive definite") from exc
    # LAPACK's triangular solve on its own: the bits of
    # scipy.linalg.solve_triangular without its 10-15 us of input handling
    half, _ = linalg.lapack.dtrtrs(chol, sigma0, lower=1)
    whitened, _ = linalg.lapack.dtrtrs(chol, half.T, lower=1)
    evals = np.linalg.eigvalsh(whitened)
    if not (evals > 0.0).all():
        raise ValueError("covariance matrices must be positive definite")
    return evals


def _kl_from_eigenvalues(evals: np.ndarray) -> float:
    """Single-sample KL(N(0,S0)||N(0,S1)) from the eigenvalues of
    B = L^-1 S0 L^-T: (tr(B) - p - log det B) / 2, summed per eigenvalue as
    (lam - 1 - log lam) / 2, which keeps the cancellation of tr(B) - p from
    costing relative accuracy when the KL is small."""
    return float(((evals - 1.0) - np.log(evals)).sum()) / 2.0


def gaussian_kl(sigma0: np.ndarray, sigma1: np.ndarray, n: int = 1) -> float:
    """KL between n-fold products of centered Gaussians:
    n (tr(S1^-1 S0) - p + log det S1 - log det S0) / 2, from the one
    Cholesky factor of S1 (:func:`_whitened_eigenvalues`)."""
    return n * _kl_from_eigenvalues(_whitened_eigenvalues(sigma0, sigma1))


@dataclass(frozen=True)
class KlFrobeniusReport:
    exact_kl: float
    frobenius_sq: float
    tail_bound: float
    c_spec: float


def _quadratic_form_constant(sigma1: np.ndarray, evals: np.ndarray) -> float:
    """C with KL(N(0,S0)||N(0,S1)) <= C ||S0 - S1||_F^2, from the extreme
    eigenvalues: C = 1/(2 lam_min(S1)^2 min(1, lam_min(B))), where
    B = L^-1 S0 L^-T with S1 = L L^T has the eigenvalues of S1^-1 S0 and is
    symmetric, so ``evals`` comes from a symmetric eigensolve
    (:func:`_whitened_eigenvalues`)."""
    lam_min1 = float(np.linalg.eigvalsh(sigma1)[0])
    return 1.0 / (2.0 * lam_min1**2 * min(1.0, float(evals[0])))


def kl_frobenius_check(fam: CovarianceFamily, tau, m: int) -> KlFrobeniusReport:
    """Compare the exact single-sample KL between A(tau) and its truncation
    tau' (coordinates below the 1-based index m zeroed out) against the exact
    squared Frobenius distance and the tail sum
    2 sum_{r<m} sum_{j<=p-k} a_{r,k+j}^2 that dominates it
    (``CovarianceFamily.frobenius_tail``).

    The reported c_spec certifies exact_kl <= c_spec * frobenius_sq via a
    quadratic-form bound computed from the extreme eigenvalues; no claim
    about any external constant is made.  Both read one Cholesky factor of
    A(tau') and the eigenvalues of the whitened B = L^-1 A(tau) L^-T
    (:func:`_whitened_eigenvalues`).
    """
    check_integer("m", m, 1)
    tau = np.asarray(tau, dtype=float)
    if m >= fam.k:
        raise ValueError("need 1 <= m < k")
    tau_prime = tau.copy()
    tau_prime[: m - 1] = 0.0
    a0 = fam.materialize(tau)
    a1 = fam.materialize(tau_prime)
    frob_sq = float(((a0 - a1) ** 2).sum())
    tail = fam.frobenius_tail(m)
    if np.array_equal(tau, tau_prime):
        return KlFrobeniusReport(0.0, 0.0, tail, 0.0)
    evals = _whitened_eigenvalues(a0, a1)
    return KlFrobeniusReport(
        _kl_from_eigenvalues(evals), frob_sq, tail, _quadratic_form_constant(a1, evals)
    )


def covariance_minimax_bound(
    n: int,
    alpha: float,
    p: Optional[int] = None,
    delta: Optional[float] = None,
    delta_report: float = 2.75,
    seed: int = 0,
) -> BoundReport:
    """Minimax lower bound for spectral-norm covariance estimation under
    off-diagonal decay, assembled end to end.

    Chooses k = ceil(4 * delta_report * n^(1/(2 alpha + 1))) and the
    truncation window k - m = round(n^(1/(2 alpha + 1))), takes a code over
    {0,1}^k of ceil(e^(k/8)) words at minimum distance ups_min = ceil(k/4),
    which the Gilbert-Varshamov count guarantees (``_gilbert_varshamov``;
    only its log is read), and combines: the guaranteed spectral separation
    eta = S_k sqrt(ups_min/k) between code members, the log-count Fano step,
    and the covering step over the 2^(k-m+1) truncation candidates whose
    approximation error is dominated by c_u * tail_sum (c_u a uniform
    quadratic-form constant from the Gershgorin eigenvalue interval, valid
    for every tau simultaneously).  Every quantity in the chain is exact,
    nothing is sampled, and each is an O(p) closed form of the family, so no
    p x p array is allocated at any n.  ``code_size`` is None past k = 5678,
    where e^(k/8) leaves the float range.  ``seed`` does nothing: no code is
    built, and the keyword stays only so that callers that pass it keep
    working.
    """
    _check_decay(alpha, delta)
    check_integer("n", n, 1)
    if p is not None:
        check_integer("p", p, 1)
    if not (math.isfinite(delta_report) and delta_report > 0):
        raise ValueError(
            f"delta_report must be a positive finite number, got {delta_report}"
        )
    rate = n ** (1.0 / (2.0 * alpha + 1.0))
    km = max(1, round(rate))
    k = math.ceil(4.0 * delta_report * rate)
    if k <= km:
        raise ValueError("delta_report too small: truncation window swallows k")
    m = k - km
    log_code_size, code_min_distance = _gilbert_varshamov(k)
    if p is None:
        p = 2 * k
    if p < 2 * k:
        raise ValueError(f"p={p} is below 2k={2 * k} for these parameters")
    fam = build_cov_family(p, k, alpha, delta)
    s_k = fam.harmonic_tail()
    eta = s_k * math.sqrt(code_min_distance / k)
    lam_floor, lam_ceil = fam.gershgorin_interval()
    c_u = 1.0 / (2.0 * lam_floor**2 * min(1.0, lam_floor / lam_ceil))
    tail = fam.frobenius_tail(m)
    approx_error = n * c_u * tail
    avg_kl_bound = (km + 1) * math.log(2.0) + approx_error
    rbar = 1.0 - (math.log(2.0) + avg_kl_bound) / log_code_size
    value = (eta / 2.0) * max(0.0, rbar)
    return BoundReport(
        family="covariance_spectral",
        lower_bound=value,
        inputs={
            "n": n,
            "alpha": alpha,
            "p": p,
            "delta": fam.delta,
            "delta_report": delta_report,
        },
        intermediates={
            "k": k,
            "m": m,
            "window": km,
            "code_size": _code_size(k),
            "log_code_size": log_code_size,
            "code_min_distance": code_min_distance,
            "harmonic_tail": s_k,
            "eta": eta,
            "lambda_floor": lam_floor,
            "lambda_ceil": lam_ceil,
            "c_uniform": c_u,
            "frobenius_tail": tail,
            "approx_error": approx_error,
            "avg_kl_bound": avg_kl_bound,
            "testing_risk_bound": max(0.0, rbar),
        },
        vacuous=rbar <= 0.0,
    )


# ---------------------------------------------------------------------------
# Spherical caps and support functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapGeometry:
    """Angles of the cap cut at height 1 - epsilon on the unit sphere.

    alpha is the angular radius of the cap (cos alpha = 1 - epsilon);
    beta solves cos(alpha - beta) = 1 - epsilon/2 and satisfies
    sin beta >= sqrt(epsilon)/(2 sqrt 2).
    """

    epsilon: float
    alpha_angle: float
    beta_angle: float
    dimension: int
    p_index: float


def _check_p_index(p: float) -> None:
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be a finite number at least 1, got {p}")


def cap_geometry(epsilon: float, d: int, p: float) -> CapGeometry:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    _check_p_index(p)
    alpha = math.acos(1.0 - epsilon)
    beta = alpha - math.acos(1.0 - epsilon / 2.0)
    if not 0.0 < beta < alpha < math.pi / 2.0 + 1e-15:
        raise ValueError("degenerate cap geometry")
    floor = math.sqrt(epsilon) / (2.0 * math.sqrt(2.0))
    if math.sin(beta) < floor - 1e-12:
        raise ValueError("cap geometry violates the sin(beta) floor")
    return CapGeometry(
        epsilon=epsilon,
        alpha_angle=alpha,
        beta_angle=beta,
        dimension=d,
        p_index=float(p),
    )


def _sphere_surface_area(dim: int) -> float:
    """Surface area of the unit sphere S^dim embedded in R^(dim+1)."""
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / special.gamma((dim + 1) / 2.0)


def cap_distance(geom: CapGeometry) -> float:
    """L^p distance between the support functions of the cap's two bodies
    (ball-with-cap-cut vs ball), by adaptive quadrature of

        delta^p = C6 int_0^alpha (1 - cos(alpha - t))^p sin^(d-2) t dt,

    where C6 is the surface area of S^(d-2) for d >= 3 and 2 for d = 2
    (each polar angle on the circle is hit by two directions)."""
    d = geom.dimension
    p = geom.p_index
    alpha = geom.alpha_angle
    c6 = 2.0 if d == 2 else _sphere_surface_area(d - 2)

    def integrand(t: float) -> float:
        return (1.0 - math.cos(alpha - t)) ** p * math.sin(t) ** (d - 2)

    integral, err = integrate.quad(integrand, 0.0, alpha, epsabs=1e-13, epsrel=1e-12)
    if err > 1e-10:
        raise RuntimeError(f"cap distance quadrature error {err} above tolerance")
    return (c6 * integral) ** (1.0 / p)


def sphere_packing_points(d: int, epsilon: float, seed: int = 0) -> np.ndarray:
    """Points on S^(d-1) with pairwise Euclidean distance strictly above
    2 sqrt(2) sqrt(epsilon).

    d=2 uses the exact circle construction: the largest count of equally
    spaced points whose chord clears the threshold, rotated by a seeded
    offset.  d=3 runs farthest-point selection on a seeded Fibonacci mesh,
    refining the mesh if it is too coarse to make progress; the selection
    works on the mesh's coordinate columns and adds each squared distance's
    three terms in the order a row-wise sum adds them, so it picks the
    points that the row-wise form picks, bit for bit
    (:func:`_farthest_point_selection`).  The pairwise property is
    re-verified exhaustively before returning.
    """
    check_integer("seed", seed, 0)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    threshold = 2.0 * math.sqrt(2.0) * math.sqrt(epsilon)
    rng = np.random.default_rng(seed)
    if d == 2:
        if threshold >= 2.0 * math.sin(math.pi / 2.0):
            raise ValueError("epsilon too large: fewer than 2 points fit")
        count = math.floor(2.0 * math.pi / (2.0 * math.asin(threshold / 2.0)))
        while count >= 2 and 2.0 * math.sin(math.pi / count) <= threshold:
            count -= 1
        if count < 2:
            raise ValueError("epsilon too large: fewer than 2 points fit")
        offset = rng.uniform(0.0, 2.0 * math.pi)
        angles = offset + 2.0 * math.pi * np.arange(count) / count
        points = np.column_stack([np.cos(angles), np.sin(angles)])
    elif d == 3:
        mesh_size = max(4096, int(64.0 / epsilon))
        points = None
        while mesh_size <= 2**20:
            mesh = _fibonacci_sphere(mesh_size, rng)
            selected = _farthest_point_selection(mesh, threshold)
            if selected.shape[0] >= 2:
                points = selected
                break
            mesh_size *= 4
        if points is None:
            raise ValueError("mesh refinement cap reached before 2 points fit")
    else:
        raise ValueError("sphere packing is provided for d in {2, 3}")
    gram = points @ points.T
    np.fill_diagonal(gram, -1.0)
    min_dist = math.sqrt(max(0.0, 2.0 - 2.0 * float(gram.max())))
    if min_dist <= threshold:
        raise RuntimeError("packing verification failed; mesh too coarse")
    return points


def _fibonacci_sphere(count: int, rng: np.random.Generator) -> np.ndarray:
    i = np.arange(count, dtype=float) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return pts @ rot


def _farthest_point_selection(mesh: np.ndarray, threshold: float) -> np.ndarray:
    """Greedy farthest-point selection on the (M, 3) ``mesh``: start at row
    0 and keep adding the row farthest from those chosen while its squared
    distance clears ``threshold``^2; the first farthest row wins ties.

    The mesh is held as three contiguous coordinate columns and each
    step's squared distances are formed as (dx*dx + dy*dy) + dz*dz into
    reused buffers.  That is the left-to-right order in which
    ``((mesh - mesh[idx]) ** 2).sum(axis=1)`` adds its three terms, so every
    distance, and with it the selection, has the bits of the row-wise
    form, at a fraction of the cost of a width-3 reduction."""
    cols = [np.ascontiguousarray(c) for c in mesh.T]
    dist_sq = np.empty(mesh.shape[0])
    cand = np.empty_like(dist_sq)
    term = np.empty_like(dist_sq)

    def squared_distances(idx: int, out: np.ndarray) -> np.ndarray:
        np.subtract(cols[0], cols[0][idx], out=out)
        np.multiply(out, out, out=out)
        for col in cols[1:]:
            np.subtract(col, col[idx], out=term)
            np.multiply(term, term, out=term)
            np.add(out, term, out=out)
        return out

    chosen = [0]
    squared_distances(0, dist_sq)
    thr_sq = threshold**2
    while True:
        idx = int(dist_sq.argmax())
        if dist_sq[idx] <= thr_sq:
            break
        chosen.append(idx)
        np.minimum(dist_sq, squared_distances(idx, cand), out=dist_sq)
    return mesh[chosen]


@dataclass(frozen=True, eq=False)
class SupportPackingResult:
    """A packing of convex bodies obtained by cutting code-selected caps off
    the unit ball, with its certified size and separation.  code_size and
    code_min_distance are those of the Gilbert-Varshamov code over
    {0,1}^n_caps that indexes the bodies; code_size is None where e^(n_caps/8)
    is past the float range, and log_count is its log."""

    log_count: float
    min_distance: float
    n_caps: int
    cap_dist: float
    claim_ratio: float
    points: np.ndarray
    code_size: Optional[int]
    code_min_distance: int
    geometry: CapGeometry

    def to_json(self) -> dict:
        return {
            "log_count": self.log_count,
            "min_distance": self.min_distance,
            "n_caps": self.n_caps,
            "cap_distance": self.cap_dist,
            "claim_ratio": self.claim_ratio,
            "code_size": self.code_size,
            "code_min_distance": self.code_min_distance,
            "epsilon": self.geometry.epsilon,
        }


def support_packing_bound(
    d: int, p: float, epsilon: float, seed: int = 0
) -> SupportPackingResult:
    """Pack convex bodies by support-function distance: place N disjoint caps
    on the sphere, index bodies by codewords over {0,1}^N (a 1 keeps the cap,
    a 0 cuts it), and use cap disjointness to add the per-cap distances:

        delta_p(body_tau, body_tau')^p = hamming(tau, tau') * cap_dist^p.

    The code is one of ceil(e^(N/8)) words at minimum distance ceil(N/4),
    which the Gilbert-Varshamov count guarantees (``_gilbert_varshamov``);
    none is built, and ``varshamov_gilbert_code(n_caps, seed)`` gives a
    witness.  Returns the log-size of that code (>= N/8) and the minimum
    pairwise distance ceil(N/4)^(1/p) * cap_dist.  claim_ratio is
    cap_dist^p / (eps^p eps^((d-1)/2)), the per-cap distance normalized by
    its small-epsilon scale.  seed places the caps.
    """
    _check_p_index(p)
    points = sphere_packing_points(d, epsilon, seed=seed)
    n_caps = points.shape[0]
    if n_caps < 8:
        raise ValueError(
            f"only {n_caps} caps fit at epsilon={epsilon}; the code layer "
            "needs at least 8"
        )
    log_count, code_min_distance = _gilbert_varshamov(n_caps)
    geom = cap_geometry(epsilon, d, p)
    capd = cap_distance(geom)
    min_distance = code_min_distance ** (1.0 / p) * capd
    ratio = capd**p / (epsilon**p * epsilon ** ((d - 1) / 2.0))
    return SupportPackingResult(
        log_count=log_count,
        min_distance=min_distance,
        n_caps=n_caps,
        cap_dist=capd,
        claim_ratio=ratio,
        points=points,
        code_size=_code_size(n_caps),
        code_min_distance=code_min_distance,
        geometry=geom,
    )
