"""Finite discrete probability distributions and ensembles.

Everything downstream (divergence evaluation, testing risks, informativity,
covering bounds) computes exactly on these objects: the dominating measure is
counting measure on the finite sample space, so every integral is a finite sum.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: accepted normalization error on user-supplied vectors
INPUT_TOL = 1e-9
#: cap on the number of points of a product sample space
DEFAULT_PRODUCT_CAP = 10**6


def stack_pmfs(dists: Sequence["DiscreteDistribution"]) -> np.ndarray:
    """The mass vectors of ``dists`` stacked as a read-only matrix, one row
    per distribution."""
    mat = np.stack([d.pmf for d in dists])
    mat.setflags(write=False)
    return mat


def check_mass_rows(rows, name: str = "pmf", length: Optional[int] = None) -> np.ndarray:
    """Stacked mass vectors (..., S) as a float array, every row checked:
    the one rule for what a pmf (``name="pmf"``) or a prior
    (``name="prior"``, with the member count as ``length``) may be.
    ``DiscreteDistribution`` and ``Ensemble`` call it on their one row.

    A valid stack is accepted on one sum and one min: every row sum within
    INPUT_TOL of 1 and a min of at least 0 leave no room for a non-finite
    entry (+inf makes its row sum infinite, NaN and -inf fail the min).
    Any other stack is refused by the first failing check of the order
    shape (a scalar, or rows of no entries), non-finite entry, row length
    (when ``length`` is given), negative entry, row sum; the sum check
    names the first row sum off by more than INPUT_TOL, so a finite row
    whose sum overflows is refused there."""
    arr = np.asarray(rows, dtype=float)
    ndim = arr.ndim
    if not (ndim and arr.size):
        if ndim == 0 or arr.shape[-1] == 0:
            raise ValueError(f"{name} must be a nonempty 1-d vector")
        return arr  # a stack of no rows
    # one row's sum as a float: numpy scalar arithmetic and any() would cost
    # more than the sum itself
    totals = float(arr.sum()) if ndim == 1 else arr.sum(axis=-1)
    off = abs(totals - 1.0) > INPUT_TOL
    fits = length is None or arr.shape[-1] == length
    if fits and not (off if ndim == 1 else off.any()) and arr.min() >= 0.0:
        return arr
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite entry")
    if not fits:
        raise ValueError(f"{name} length does not match member count")
    if arr.min() < 0:
        low = float(arr.min())
        detail = f"probability entry (min {low!r})" if name == "pmf" else f"{name} entry"
        raise ValueError(f"negative {detail}")
    first = float(np.ravel(totals)[np.ravel(off)][0])
    raise ValueError(f"{name} sums to {first!r}, not 1")


def check_finite(name: str, value) -> float:
    """``value`` as a float, after refusing NaN and +-inf by ``name``."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value}")
    return value


def check_param_names(what: str, keys: Sequence[str], params) -> None:
    """Refuse ``params`` unless its names are exactly ``keys``, the
    parameters ``what`` reads: a missing one first, then any other one,
    each by name."""
    missing = [key for key in keys if key not in params]
    if missing:
        raise ValueError(f"{what} needs {', '.join(missing)}")
    unknown = [key for key in params if key not in keys]
    if unknown:
        raise ValueError(f"{what} does not read {', '.join(unknown)}; it reads {', '.join(keys)}")


def check_tol(tol: float) -> None:
    """Refuse a solver tolerance that is not positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a positive finite number")


def check_json_lists(obj: dict, what: str, keys: Sequence[str]) -> None:
    """Refuse each field of ``keys`` that ``obj`` has but not as a list."""
    for key in keys:
        if key in obj and not isinstance(obj[key], list):
            raise ValueError(f'{what} JSON "{key}" must be a list')


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability mass vector over a finite sample space."""

    pmf: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pmf, dtype=float)
        if arr.ndim != 1:
            raise ValueError("pmf must be a nonempty 1-d vector")
        check_mass_rows(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "pmf", arr)

    @property
    def support_size(self) -> int:
        return int(self.pmf.size)

    def to_json(self) -> dict:
        return {"pmf": [float(v) for v in self.pmf]}


def validate(dist: DiscreteDistribution) -> DiscreteDistribution:
    """Re-check the distribution invariants and hand the object back."""
    DiscreteDistribution(np.array(dist.pmf))
    return dist


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A finite family of distributions on a common sample space.

    Carries an optional prior (default uniform) and optional per-member
    labels (parameter values).  All members must share the support size.
    """

    members: tuple[DiscreteDistribution, ...]
    prior: Optional[np.ndarray] = None
    labels: Optional[tuple] = None

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 2:
            raise ValueError("ensemble needs at least 2 members")
        sizes = {m.support_size for m in members}
        if len(sizes) != 1:
            raise ValueError(f"members have mixed support sizes {sorted(sizes)}")
        object.__setattr__(self, "members", members)
        if self.prior is not None:
            w = np.array(self.prior, dtype=float)
            if w.ndim != 1:
                raise ValueError("prior must be a nonempty 1-d vector")
            check_mass_rows(w, "prior", len(members))
            w.setflags(write=False)
            object.__setattr__(self, "prior", w)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != len(members):
                raise ValueError("labels length does not match member count")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def support_size(self) -> int:
        return self.members[0].support_size

    def weights(self) -> np.ndarray:
        """The prior as an array; uniform when no prior was given.  Cached,
        read-only."""
        return self._weights

    def pmf_matrix(self) -> np.ndarray:
        """Member densities stacked as an (N, support_size) matrix.  Cached,
        read-only."""
        return self._pmf_matrix

    # built on first use, not in __post_init__: many ensembles never stack
    @functools.cached_property
    def _weights(self) -> np.ndarray:
        if self.prior is not None:
            return self.prior
        w = np.full(self.size, 1.0 / self.size)
        w.setflags(write=False)
        return w

    @functools.cached_property
    def _pmf_matrix(self) -> np.ndarray:
        return stack_pmfs(self.members)

    def to_json(self) -> dict:
        obj: dict = {"members": [m.to_json() for m in self.members]}
        if self.prior is not None:
            obj["prior"] = [float(v) for v in self.prior]
        if self.labels is not None:
            obj["labels"] = list(self.labels)
        return obj


def uniform_mixture(ens: Ensemble) -> DiscreteDistribution:
    """The equal-weight mixture of the ensemble members."""
    return DiscreteDistribution(ens.pmf_matrix().mean(axis=0))


def product_distribution(base: DiscreteDistribution, n: int) -> DiscreteDistribution:
    """The n-fold product of ``base`` in lexicographic order.

    Point (x_1, ..., x_n) of the product space sits at index
    sum_i x_i * s^(n-i) where s is the base support size, so repeated
    Kronecker products produce exactly the lexicographic layout.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    size = base.support_size**n
    if size > DEFAULT_PRODUCT_CAP:
        raise ValueError(
            f"product space has {size} points, above the cap {DEFAULT_PRODUCT_CAP}"
        )
    out = np.ones(1)
    for _ in range(n):
        out = np.kron(out, base.pmf)
    return DiscreteDistribution(out)


def distribution_from_json(obj: dict) -> DiscreteDistribution:
    if not isinstance(obj, dict) or "pmf" not in obj:
        raise ValueError('distribution JSON must be an object with a "pmf" key')
    return DiscreteDistribution(np.array(obj["pmf"], dtype=float))


def ensemble_from_json(obj: dict) -> Ensemble:
    if not isinstance(obj, dict) or "members" not in obj:
        raise ValueError('ensemble JSON must be an object with a "members" key')
    check_json_lists(obj, "ensemble", ("members", "labels"))
    members = tuple(distribution_from_json(m) for m in obj["members"])
    prior = np.array(obj["prior"], dtype=float) if "prior" in obj else None
    labels = tuple(obj["labels"]) if "labels" in obj else None
    return Ensemble(members=members, prior=prior, labels=labels)


def load_distribution(path: str) -> DiscreteDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return distribution_from_json(json.load(fh))


def load_ensemble(path: str) -> Ensemble:
    with open(path, "r", encoding="utf-8") as fh:
        return ensemble_from_json(json.load(fh))
