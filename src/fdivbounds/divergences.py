"""Convex-generator f-divergences on finite spaces.

A divergence is parametrized by a convex generator f with f(1) = 0.  The
boundary behavior is stored explicitly: ``f_at_zero`` is the limit f(0+),
and a point where q = 0 but p > 0 forces the divergence to +inf (the
absolute-continuity convention).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import DiscreteDistribution

#: slack allowed before a tiny negative value is treated as a real violation
VALUE_TOL = 1e-12

#: grid on which midpoint convexity of a candidate generator is checked
_CONVEXITY_GRID = np.linspace(0.0, 16.0, 33)


@dataclass(frozen=True)
class DivergenceGenerator:
    """Convex generator f: [0, inf) -> R with f(1) = 0.

    ``f``, ``derivative`` and ``h`` must accept numpy arrays of strictly
    positive floats; the value at 0 is always taken from ``f_at_zero`` so f
    itself is never evaluated there.  ``h`` is h(t) = f(t) - t f'(t) in
    closed form, the intercept of the tangent at t that the informativity
    solver reads; without it the solver derives h from ``f`` and
    ``derivative``, which overflows where f' does at tiny t.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    f_at_zero: float
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if float(self.f(np.array([1.0]))[0]) != 0.0:
            raise ValueError(f"generator {self.name!r} has f(1) != 0")
        _check_midpoint_convexity(self)


def _check_midpoint_convexity(gen: "DivergenceGenerator") -> None:
    vals = apply_generator(gen, _CONVEXITY_GRID)
    x = _CONVEXITY_GRID[:, None]
    y = _CONVEXITY_GRID[None, :]
    mid = apply_generator(gen, (x + y) / 2.0)
    rhs = (vals[:, None] + vals[None, :]) / 2.0
    bad = mid > rhs + VALUE_TOL
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"generator {gen.name!r} fails midpoint convexity at "
            f"x={x[i, 0]!r}, y={y[0, j]!r}"
        )


def apply_generator(gen: DivergenceGenerator, x) -> np.ndarray:
    """Evaluate f elementwise, routing exact zeros through f_at_zero.

    The only home of the f(0+) rule: :func:`divergence_matrix` and the
    divergence floors read f_at_zero through it and nowhere else.  f sees
    the nonzero entries as one contiguous vector, at least 1-d, so an
    entry gets the bits it gets in a one-element call.  The result has the
    memory layout of ``x``, which a later reduction's order depends on."""
    arr = np.asarray(x, dtype=float)
    if arr.flags.c_contiguous and np.count_nonzero(arr) == arr.size:
        return np.asarray(gen.f(arr.reshape(-1)), dtype=float).reshape(arr.shape)
    out = np.full_like(arr, gen.f_at_zero)
    live = arr != 0.0
    if live.any():
        out[live] = gen.f(arr[live])
    return out


def _values(x):
    """``x`` as a float array, or as a float when it is a scalar: plain
    float arithmetic rounds as numpy's does and skips its per-call cost."""
    arr = np.asarray(x, dtype=float)
    return arr if arr.ndim else float(arr)


def _any(mask) -> bool:
    """Whether some entry of a boolean array, or a boolean scalar, is true."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def _all(mask) -> bool:
    """Whether every entry of a boolean array, or a boolean scalar, is true."""
    return bool(mask.all() if isinstance(mask, np.ndarray) else mask)


def _clip(x, lo, hi):
    """min(max(x, lo), hi), elementwise on arrays."""
    if isinstance(x, np.ndarray) or isinstance(hi, np.ndarray):
        return np.minimum(np.maximum(x, lo), hi)
    return min(max(x, lo), hi)


def _floor_sum(gen: DivergenceGenerator, x, y, wx, wy):
    """wx f(x) + wy f(y) elementwise for x and y of one shape, +inf where
    either f is: the shape of every divergence floor.  Both arguments go
    through one :func:`apply_generator` call; scalars give a float."""
    vals = apply_generator(gen, np.array([x, y]))
    fx, fy = vals[0], vals[1]
    total = wx * fx + wy * fy
    if not isinstance(total, np.ndarray):
        return math.inf if math.isinf(fx) or math.isinf(fy) else float(total)
    inf = np.isinf(fx) | np.isinf(fy)
    return np.where(inf, math.inf, total) if inf.any() else total


# ---------------------------------------------------------------------------
# Built-in generators
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _make_power(exponent: float) -> DivergenceGenerator:
    """The power generator x^l - 1, built and convexity-checked once per
    exponent; generators are immutable, so every caller shares it."""
    if not exponent > 1.0:
        raise ValueError("power generator needs exponent > 1")
    return DivergenceGenerator(
        name=f"power:{exponent:g}",
        f=lambda x: x**exponent - 1.0,
        f_at_zero=-1.0,
        derivative=lambda x: exponent * x ** (exponent - 1.0),
        h=lambda x: (1.0 - exponent) * x**exponent - 1.0,
    )


_FIXED_GENERATORS = {
    "kl": DivergenceGenerator(
        name="kl",
        f=lambda x: x * np.log(x),
        f_at_zero=0.0,
        derivative=lambda x: np.log(x) + 1.0,
        h=lambda x: -x,
    ),
    "chi2": DivergenceGenerator(
        name="chi2",
        f=lambda x: x**2 - 1.0,
        f_at_zero=-1.0,
        derivative=lambda x: 2.0 * x,
        h=lambda x: -1.0 - x**2,
    ),
    "hellinger_half": DivergenceGenerator(
        name="hellinger_half",
        f=lambda x: 1.0 - np.sqrt(x),
        f_at_zero=1.0,
        derivative=lambda x: -0.5 / np.sqrt(x),
        h=lambda x: 1.0 - 0.5 * np.sqrt(x),
    ),
    "hellinger_sq": DivergenceGenerator(
        name="hellinger_sq",
        f=lambda x: (np.sqrt(x) - 1.0) ** 2,
        f_at_zero=1.0,
        derivative=lambda x: 1.0 - 1.0 / np.sqrt(x),
        h=lambda x: 1.0 - np.sqrt(x),
    ),
    "tv": DivergenceGenerator(
        name="tv",
        f=lambda x: np.abs(x - 1.0) / 2.0,
        f_at_zero=0.5,
        derivative=None,
    ),
    "reverse_kl": DivergenceGenerator(
        name="reverse_kl",
        f=lambda x: -np.log(x),
        f_at_zero=math.inf,
        derivative=lambda x: -1.0 / x,
        h=lambda x: 1.0 - np.log(x),
    ),
}

#: names accepted by :func:`builtin_generator` (``power:l`` takes any l > 1)
GENERATOR_NAMES = tuple(_FIXED_GENERATORS) + ("power:l",)


def builtin_generator(name: str) -> DivergenceGenerator:
    """Look up a generator by name; ``power:l`` parses l from the name."""
    if name in _FIXED_GENERATORS:
        return _FIXED_GENERATORS[name]
    if name.startswith("power:"):
        return _make_power(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown generator {name!r}; choose from {GENERATOR_NAMES}")


def default_generators() -> tuple[DivergenceGenerator, ...]:
    """The seven built-ins with power fixed at l=3."""
    return tuple(_FIXED_GENERATORS.values()) + (_make_power(3.0),)


# ---------------------------------------------------------------------------
# Divergence evaluation
# ---------------------------------------------------------------------------


def eval_divergence(
    gen: DivergenceGenerator, p: DiscreteDistribution, q: DiscreteDistribution
) -> float:
    """D_f(P||Q) = sum_x q(x) f(p(x)/q(x)) under counting measure, with the
    conventions of :func:`divergence_matrix`."""
    return float(divergence_matrix(gen, p.pmf[None], q.pmf[None])[0, 0])


def divergence_matrix(gen: DivergenceGenerator, pmat, qmat) -> np.ndarray:
    """D_f(P_i||Q_j) = sum_x q_j(x) f(p_i(x)/q_j(x)) for every row P_i of
    ``pmat`` (..., N, S) and every row Q_j of ``qmat`` (..., M, S), as a
    (..., N, M) array.  The leading batch axes broadcast against each
    other, so a stack of B ensembles against one reference each (the paired
    form) is (B, N, S) against (B, 1, S).

    The rows need not be normalized.  Conventions: a point with q = 0 and
    p = 0 contributes nothing; q = 0 with p > 0 makes the divergence +inf;
    p = 0 with q > 0 contributes q * f(0+).  Tiny negative totals
    (floating-point Jensen slack) are clamped to 0.  Each pair is reduced by
    one dot product of the q row with its row of f-values.

    The ratios are written into a fresh C-ordered (..., N, M, S) array and
    the q rows are read C-ordered, so the reduction adds in one order
    whatever the layout of ``pmat`` and ``qmat`` (a column slice, a
    Fortran-ordered or a transposed array) and whatever the batch axes:
    each pair is bit for bit that of a 2-d call on contiguous copies.  Where
    q = 0 the ratio is left at 1, so the point adds q f(1) = 0; zero ratios
    take f(0+) through :func:`apply_generator`, which is skipped when every
    p mass is positive.
    """
    p = np.asarray(pmat, dtype=float)[..., :, None, :]
    q = np.ascontiguousarray(qmat, dtype=float)[..., None, :, :]
    if p.shape[-1] != q.shape[-1]:
        raise ValueError("support size mismatch")
    shape = np.broadcast_shapes(p.shape, q.shape)
    live = None if q.size == 0 or q.min() > 0.0 else q > 0.0
    if live is None:
        ratio = np.divide(p, q, out=np.empty(shape))
    else:
        ratio = np.divide(p, q, out=np.ones(shape), where=live)
    vals = gen.f(ratio) if p.size and p.min() > 0.0 else apply_generator(gen, ratio)
    total = (q[..., None, :] @ vals[..., :, None])[..., 0, 0]
    if live is not None:
        total[((p > 0.0) & ~live).any(axis=-1)] = math.inf
    if total.size and not total.min() >= 0.0:  # a NaN total also lands here
        total[(-VALUE_TOL <= total) & (total < 0.0)] = 0.0
    return total


def total_variation(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Half the L1 distance between the mass vectors (always finite)."""
    if p.support_size != q.support_size:
        raise ValueError("support size mismatch")
    return float(total_variations(p.pmf, q.pmf))


def total_variations(pmats, qmats) -> np.ndarray:
    """:func:`total_variation` between paired rows (..., S)."""
    return 0.5 * np.abs(pmats - qmats).sum(axis=-1)


def squared_hellinger(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """H^2(P, Q) = sum_x (sqrt p - sqrt q)^2, in [0, 2]."""
    if p.support_size != q.support_size:
        raise ValueError("support size mismatch")
    return float(squared_hellingers(p.pmf, q.pmf))


def squared_hellingers(pmats, qmats) -> np.ndarray:
    """:func:`squared_hellinger` between paired rows (..., S)."""
    return ((np.sqrt(pmats) - np.sqrt(qmats)) ** 2).sum(axis=-1)


def _first_failing(values, ok) -> float:
    """The first entry of ``values`` (broadcast against ``ok``) where ``ok``
    is False, as a float: what an array check names when it refuses."""
    return float(np.broadcast_to(values, np.shape(ok))[~np.asarray(ok)][0])


def _risk_range(n, a, slack: float = 0.0):
    """n and a as arrays or scalars, after checking every n >= 2 and every
    a in [-slack, 1 - 1/n + slack] (NaN fails), and 1 - 1/n."""
    n, a = _values(n), _values(a)
    if _any(n < 2):
        raise ValueError("need at least 2 hypotheses")
    hi = 1.0 - 1.0 / n
    ok = (-slack <= a) & (a <= hi + slack)
    if not _all(ok):
        where = "" if np.ndim(n) else f" for N={n:g}"
        raise ValueError(f"a={_first_failing(a, ok)!r} outside [0, 1 - 1/N]{where}")
    return n, a, hi


def uniform_divergence_floor(gen: DivergenceGenerator, n, a):
    """f(N(1-a)) + (N-1) f(Na/(N-1)): the least possible divergence sum
    over any reference measure when the uniform-prior testing risk is a.

    Defined for a in [0, 1 - 1/N]; convex and non-increasing in a.  ``n``
    and ``a`` may be arrays, which broadcast; scalars give a float.
    """
    n, a, hi = _risk_range(n, a, slack=VALUE_TOL)
    return _uniform_floor(gen, n, _clip(a, 0.0, hi))


def _uniform_floor(gen: DivergenceGenerator, n, a):
    """:func:`uniform_divergence_floor` at checked n and a in [0, 1 - 1/n]."""
    return _floor_sum(gen, n * (1.0 - a), n * a / (n - 1.0), 1.0, n - 1.0)


def uniform_divergence_floor_derivative(gen: DivergenceGenerator, n, a):
    """d/da of :func:`uniform_divergence_floor`; needs gen.derivative.
    Takes arrays as the floor does."""
    if gen.derivative is None:
        raise ValueError(f"generator {gen.name!r} has no derivative")
    n, a, _ = _risk_range(n, a)
    inner = n * a / (n - 1.0)
    shape = np.shape(inner)
    inner = np.atleast_1d(inner)
    # at inner = 0 the one-sided slope is probed just above zero: a
    # genuinely attained (so still valid) tangent slope, astronomically
    # steep for generators whose derivative is unbounded at 0+
    left = gen.derivative(np.where(inner == 0.0, 1e-300, inner))
    right = gen.derivative(np.atleast_1d(n * (1.0 - a)))
    out = n * (left - right)
    return out.reshape(shape) if shape else float(out[0])
