"""Fourier analysis on a finite abelian group.

Functions on the group are integrated against normalized counting
measure (mass 1/|G| per point); functions on the dual against counting
measure (mass 1 per point).  With these weights the Fourier transform

    psi_hat(chi) = (1/|G|) * sum_g psi(g) * conj(chi(g))

is a unitary bijection with inverse ``psi(g) = sum_chi phi(chi) chi(g)``,
and the total masses of the two sides multiply to |G|.

Every transform in the package is a group DFT of the rows of an array,
forward (`_dft_rows`) or inverse (`_idft_rows`), evaluated one of two
ways fixed per group: a dense product with the character table
X[c, g] = chi_c(g), or, on groups with a cyclic factor of at least
``LARGE_FACTOR`` (64) elements, ``numpy.fft.fftn`` / ``ifftn`` over the
factor axes of the rows reshaped to ``(rows, *factors)``.  They agree up
to rounding because X is the Kronecker product of the per-factor DFT
matrices in the C-order ravel of the element indices; below the
threshold the per-axis FFT overhead outweighs the saving over the dense
product.  `fourier` and `inverse_fourier` are the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, Subgroup, _check_group
from .jsonio import decode_array, encode_array, finite_array

LARGE_FACTOR = 64  # the smallest cyclic factor that sends a group to the FFT route


def _dft_rows(group: FiniteAbelianGroup, rows: np.ndarray) -> np.ndarray:
    """sum_g rows[..., g] conj(chi(g)), for every row and character chi."""
    if max(group.factors) >= LARGE_FACTOR:
        shaped = rows.reshape(-1, *group.factors)
        return np.fft.fftn(shaped, axes=tuple(range(1, shaped.ndim))).reshape(rows.shape)
    return rows @ group.char_table.conj()


def _idft_rows(group: FiniteAbelianGroup, rows: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_chi rows[..., chi] chi(g), for every row and element g."""
    if max(group.factors) >= LARGE_FACTOR:
        shaped = rows.reshape(-1, *group.factors)
        return np.fft.ifftn(shaped, axes=tuple(range(1, shaped.ndim))).reshape(rows.shape)
    return (rows @ group.char_table) / group.order


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
    return DualFunction(psi.group, _dft_rows(psi.group, psi.values) / psi.group.order)


def inverse_fourier(phi: DualFunction) -> GFunction:
    """psi(g) = sum_chi phi(chi) chi(g)."""
    return GFunction(phi.group, _idft_rows(phi.group, phi.values) * phi.group.order)


def haar_density(group: FiniteAbelianGroup, subgroup: Subgroup) -> GFunction:
    """Density (|G|/|H|) * 1_H: the probability Haar measure of H against
    the ambient normalized counting measure.  Its Fourier transform is
    exactly the indicator of the annihilator of H."""
    _check_group(group, subgroup)
    values = np.zeros(group.order, dtype=complex)
    values[list(subgroup.elements)] = group.order / subgroup.order
    return GFunction(group, values)
