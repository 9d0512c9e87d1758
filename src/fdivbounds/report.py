"""Shared report container for computed bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def jsonable(value):
    """``value`` with numpy values as Python ones and +-inf as "inf"/"-inf"."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class BoundReport:
    """A computed bound plus everything needed to audit it.

    ``lower_bound`` is the bound value clamped to [0, 1] scale where that
    applies; families that bound a quantity from above (reverse_kl_tv) say so
    via ``family`` and keep the same field.  A bound that came out at or
    below zero is reported as 0 with ``vacuous`` set rather than suppressed.
    """

    family: str
    lower_bound: float
    inputs: dict = field(default_factory=dict)
    intermediates: dict = field(default_factory=dict)
    vacuous: bool = False
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "lower_bound": jsonable(self.lower_bound),
            "inputs": jsonable(self.inputs),
            "intermediates": jsonable(self.intermediates),
            "vacuous": self.vacuous,
            "notes": list(self.notes),
        }
