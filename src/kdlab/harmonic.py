"""Fourier analysis on a finite abelian group.

Functions on the group are integrated against normalized counting
measure (mass 1/|G| per point); functions on the dual against counting
measure (mass 1 per point).  With these weights the Fourier transform

    psi_hat(chi) = (1/|G|) * sum_g psi(g) * conj(chi(g))

is a unitary bijection with inverse ``psi(g) = sum_chi phi(chi) chi(g)``,
and the total masses of the two sides multiply to |G|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, Subgroup, _check_group
from .jsonio import decode_array, encode_array, finite_array


@dataclass
class GFunction:
    """Complex function on the group, indexed by canonical element order."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        self.values = finite_array(self.values, (self.group.order,), "function")

    def norm(self) -> float:
        return float(np.sqrt(np.mean(np.abs(self.values) ** 2)))

    def inner(self, other: "GFunction") -> complex:
        _check_group(self.group, other)
        return complex(np.vdot(self.values, other.values) / self.group.order)

    def normalized(self) -> "GFunction":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero function")
        return GFunction(self.group, self.values / n)

    def total_mass(self) -> complex:
        return complex(np.sum(self.values) / self.group.order)

    def to_json(self) -> list:
        return encode_array(self.values)

    @classmethod
    def from_json(cls, group: FiniteAbelianGroup, items) -> "GFunction":
        return cls(group, decode_array(items, (group.order,)))


@dataclass
class DualFunction:
    """Complex function on the dual group, indexed by character label order."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        self.values = finite_array(self.values, (self.group.order,), "function")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)))

    def inner(self, other: "DualFunction") -> complex:
        _check_group(self.group, other)
        return complex(np.vdot(self.values, other.values))

    def total_mass(self) -> complex:
        return complex(np.sum(self.values))

    def to_json(self) -> list:
        return encode_array(self.values)

    @classmethod
    def from_json(cls, group: FiniteAbelianGroup, items) -> "DualFunction":
        return cls(group, decode_array(items, (group.order,)))


def fourier(psi: GFunction) -> DualFunction:
    """psi_hat(chi) = (1/|G|) sum_g psi(g) conj(chi(g))."""
    X = psi.group.char_table
    return DualFunction(psi.group, (X.conj() @ psi.values) / psi.group.order)


def inverse_fourier(phi: DualFunction) -> GFunction:
    """psi(g) = sum_chi phi(chi) chi(g)."""
    X = phi.group.char_table
    return GFunction(phi.group, X.T @ phi.values)


def haar_density(group: FiniteAbelianGroup, subgroup: Subgroup) -> GFunction:
    """Density (|G|/|H|) * 1_H: the probability Haar measure of H against
    the ambient normalized counting measure.  Its Fourier transform is
    exactly the indicator of the annihilator of H."""
    _check_group(group, subgroup)
    values = np.zeros(group.order, dtype=complex)
    values[list(subgroup.elements)] = group.order / subgroup.order
    return GFunction(group, values)
