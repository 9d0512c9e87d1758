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
#: normalization error expected of internally constructed vectors
INTERNAL_TOL = 1e-12
#: default cap on the number of points of a product sample space
DEFAULT_PRODUCT_CAP = 10**6


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has a non-finite entry")
    return arr


def _plain_masses(arr: np.ndarray, total: float) -> bool:
    """Whether ``arr``, whose sum is ``total``, is a nonempty 1-d vector of
    non-negative entries with a finite sum.  One sum and one min decide it,
    so a valid vector skips the checks that name a fault; any other vector
    runs them in the order shape, non-finite, negative, sum (a finite vector
    whose sum overflows reaches the last)."""
    return arr.ndim == 1 and arr.size > 0 and math.isfinite(total) and arr.min() >= 0.0


def stack_pmfs(dists: Sequence["DiscreteDistribution"]) -> np.ndarray:
    """The mass vectors of ``dists`` stacked as a read-only matrix, one row
    per distribution."""
    mat = np.stack([d.pmf for d in dists])
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability mass vector over a finite sample space."""

    pmf: np.ndarray

    def __post_init__(self):
        arr = np.array(self.pmf, dtype=float)
        total = float(arr.sum())
        if not _plain_masses(arr, total):
            _as_vector(arr, "pmf")
            if np.any(arr < 0):
                raise ValueError(f"negative probability entry (min {arr.min()!r})")
        if abs(total - 1.0) > INPUT_TOL:
            raise ValueError(f"pmf sums to {total!r}, not 1")
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
            total = float(w.sum())
            plain = _plain_masses(w, total)
            if not plain:
                _as_vector(w, "prior")
            if w.size != len(members):
                raise ValueError("prior length does not match member count")
            if not plain and np.any(w < 0):
                raise ValueError("negative prior entry")
            if abs(total - 1.0) > INPUT_TOL:
                raise ValueError(f"prior sums to {total!r}, not 1")
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


def product_distribution(
    base: DiscreteDistribution, n: int, max_points: int = DEFAULT_PRODUCT_CAP
) -> DiscreteDistribution:
    """The n-fold product of ``base`` in lexicographic order.

    Point (x_1, ..., x_n) of the product space sits at index
    sum_i x_i * s^(n-i) where s is the base support size, so repeated
    Kronecker products produce exactly the lexicographic layout.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    size = base.support_size**n
    if size > max_points:
        raise ValueError(
            f"product space has {size} points, above the cap {max_points}"
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
