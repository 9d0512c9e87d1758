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
    strictly_convex: bool = True
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
    """Evaluate f elementwise, routing exact zeros through f_at_zero."""
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    zero = arr == 0.0
    out[zero] = gen.f_at_zero
    if np.any(~zero):
        out[~zero] = gen.f(arr[~zero])
    return out


def _f_scalar(gen: DivergenceGenerator, x: float) -> float:
    if x == 0.0:
        return gen.f_at_zero
    return float(gen.f(np.array([x]))[0])


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
        strictly_convex=False,
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
    ``pmat`` (N x S) and every row Q_j of ``qmat`` (M x S), as an N x M array.

    The rows need not be normalized.  Conventions: a point with q = 0 and
    p = 0 contributes nothing; q = 0 with p > 0 makes the divergence +inf;
    p = 0 with q > 0 contributes q * f(0+).  Tiny negative totals
    (floating-point Jensen slack) are clamped to 0.  Each pair is reduced by
    one dot product of the q row with its row of f-values.
    """
    p = np.asarray(pmat, dtype=float)[:, None, :]
    q = np.asarray(qmat, dtype=float)[None, :, :]
    if p.shape[2] != q.shape[2]:
        raise ValueError("support size mismatch")
    shape = (p.shape[0], q.shape[1], p.shape[2])
    live = q > 0.0
    ppos = p > 0.0
    # f(1) = 0 wherever the ratio is not taken; both conventions overwrite it
    vals = gen.f(np.divide(p, q, out=np.ones(shape), where=live & ppos))
    np.copyto(vals, gen.f_at_zero, where=live & ~ppos)
    np.copyto(vals, 0.0, where=~live)
    total = (q[..., None, :] @ vals[..., :, None])[..., 0, 0]
    total[(ppos & ~live).any(axis=2)] = math.inf
    total[(-VALUE_TOL <= total) & (total < 0.0)] = 0.0
    return total


def total_variation(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Half the L1 distance between the mass vectors (always finite)."""
    if p.support_size != q.support_size:
        raise ValueError("support size mismatch")
    return 0.5 * float(np.abs(p.pmf - q.pmf).sum())


def squared_hellinger(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """H^2(P, Q) = sum_x (sqrt p - sqrt q)^2, in [0, 2]."""
    if p.support_size != q.support_size:
        raise ValueError("support size mismatch")
    return float(((np.sqrt(p.pmf) - np.sqrt(q.pmf)) ** 2).sum())


def uniform_divergence_floor(gen: DivergenceGenerator, n: int, a: float) -> float:
    """f(N(1-a)) + (N-1) f(Na/(N-1)): the least possible divergence sum
    over any reference measure when the uniform-prior testing risk is a.

    Defined for a in [0, 1 - 1/N]; convex and non-increasing in a.
    """
    if n < 2:
        raise ValueError("need at least 2 hypotheses")
    hi = 1.0 - 1.0 / n
    if not -VALUE_TOL <= a <= hi + VALUE_TOL:
        raise ValueError(f"a={a!r} outside [0, 1 - 1/N] for N={n}")
    a = min(max(a, 0.0), hi)
    first = _f_scalar(gen, n * (1.0 - a))
    second = _f_scalar(gen, n * a / (n - 1.0))
    if math.isinf(first) or math.isinf(second):
        return math.inf
    return first + (n - 1.0) * second


def uniform_divergence_floor_derivative(
    gen: DivergenceGenerator, n: int, a: float
) -> float:
    """d/da of :func:`uniform_divergence_floor`; needs gen.derivative."""
    if gen.derivative is None:
        raise ValueError(f"generator {gen.name!r} has no derivative")
    hi = 1.0 - 1.0 / n
    if not 0.0 <= a <= hi:
        raise ValueError(f"a={a!r} outside [0, 1 - 1/N] for N={n}")
    inner = n * a / (n - 1.0)
    if inner == 0.0:
        # one-sided slope probed just above zero: a genuinely attained (so
        # still valid) tangent slope, astronomically steep for generators
        # whose derivative is unbounded at 0+
        probe = gen.derivative(np.array([1e-300]))[0]
        left = float(probe)
    else:
        left = float(gen.derivative(np.array([inner]))[0])
    right = float(gen.derivative(np.array([n * (1.0 - a)]))[0])
    return n * (left - right)
