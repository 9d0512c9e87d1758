"""Convex-generator f-divergences on finite spaces.

A divergence is parametrized by a convex generator f with f(1) = 0.  The
boundary behavior is stored explicitly: ``f_at_zero`` is the limit f(0+),
and a point where q = 0 but p > 0 forces the divergence to +inf (the
absolute-continuity convention).  The divergence floors built on these
generators live in :mod:`.mixture_bounds`.
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
            f"x={float(x[i, 0])!r}, y={float(y[0, j])!r}"
        )


def apply_generator(gen: DivergenceGenerator, x) -> np.ndarray:
    """Evaluate f elementwise, routing exact zeros through f_at_zero.

    The only home of the f(0+) rule: :func:`divergence_matrix` and the
    divergence floors of :mod:`.mixture_bounds` read f_at_zero through it
    and nowhere else.  f sees the nonzero entries as one contiguous vector,
    at least 1-d, so an entry gets the bits it gets in a one-element call.
    The result has the memory layout of ``x``, which a later reduction's
    order depends on."""
    arr = np.asarray(x, dtype=float)
    if arr.flags.c_contiguous and np.count_nonzero(arr) == arr.size:
        return np.asarray(gen.f(arr.reshape(-1)), dtype=float).reshape(arr.shape)
    out = np.full_like(arr, gen.f_at_zero)
    live = arr != 0.0
    if live.any():
        out[live] = gen.f(arr[live])
    return out


# ---------------------------------------------------------------------------
# Built-in generators
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _make_power(exponent: float) -> DivergenceGenerator:
    """The power generator x^l - 1 at a checked exponent, built and
    convexity-checked once per exponent; generators are immutable, so every
    caller shares it."""
    return DivergenceGenerator(
        name=f"power:{exponent_text(exponent)}",
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


def power_exponent(name: str) -> float:
    """The exponent l of a ``power:l`` name, after refusing an l that is not
    a finite number above 1 (NaN and +inf included): the one parser of the
    power family's names."""
    text = name.split(":", 1)[1]
    exponent = float(text)
    if not 1.0 < exponent < math.inf:
        raise ValueError(f"power generator needs a finite exponent > 1, got {text!r}")
    return exponent


def exponent_text(exponent: float) -> str:
    """An exponent as names print it: the shortest text that reads back as
    the same float, without a trailing ``.0`` (3.0 is ``3``), so that
    :func:`power_exponent` recovers it exactly from a ``power:l`` name."""
    text = repr(float(exponent))
    return text[:-2] if text.endswith(".0") else text


def builtin_generator(name: str) -> DivergenceGenerator:
    """Look up a generator by name; ``power:l`` parses l from the name."""
    if name in _FIXED_GENERATORS:
        return _FIXED_GENERATORS[name]
    if name.startswith("power:"):
        return _make_power(power_exponent(name))
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
    take f(0+) through :func:`apply_generator`, skipped when no ratio can
    underflow to 0: every ratio is at least p.min() / q.max(), which a
    finite q takes to 0 only when p.min() < 2^-51, so q.max() is read only
    then.
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
    pmin = p.min() if p.size and q.size else 0.0
    if pmin >= 2.0**-51 or (pmin > 0.0 and pmin / q.max() > 0.0):
        vals = gen.f(ratio)
    else:
        vals = apply_generator(gen, ratio)
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
