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

Each group builds one read-only conjugate table ``char_table_conj``
beside ``char_table``, and no transform makes another.  A transform
allocates only the array it returns: the FFT route runs every factor
axis in that one array, in place, and the dense route divides its fresh
product in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, Subgroup, _check_group
from .jsonio import decode_array, encode_array, finite_array

LARGE_FACTOR = 64  # the smallest cyclic factor that sends a group to the FFT route


def _dft_rows(group: FiniteAbelianGroup, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_g rows[..., g] conj(chi(g)), for every row and character chi.

    The FFT route writes the result into ``out`` (see `_fft_rows`); the
    dense route returns a fresh product.
    """
    if max(group.factors) >= LARGE_FACTOR:
        return _fft_rows(np.fft.fftn, group, rows, out)
    return rows @ group.char_table_conj


def _idft_rows(group: FiniteAbelianGroup, rows: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_chi rows[..., chi] chi(g), for every row and element g.

    Both routes return a fresh array: the FFT route's (see `_fft_rows`),
    or the dense product, divided in place.
    """
    if max(group.factors) >= LARGE_FACTOR:
        return _fft_rows(np.fft.ifftn, group, rows, None)
    table = rows @ group.char_table
    table /= group.order
    return table


def _fft_rows(transform, group: FiniteAbelianGroup, rows: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``transform`` (fftn or ifftn) over the factor axes of every row, into ``out``.

    ``out`` is a C-contiguous complex array of rows' shape, possibly rows
    itself, or None for a fresh one.  Every factor axis then transforms
    in place in it: a strided ``out`` would be reshaped into a copy.
    """
    if out is None:
        out = np.empty(rows.shape, dtype=complex)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    shape = (-1, *group.factors)
    transform(rows.reshape(shape), axes=tuple(range(1, len(shape))), out=out.reshape(shape))
    return out


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
    hat = _dft_rows(psi.group, psi.values)
    hat /= psi.group.order
    return DualFunction(psi.group, hat)


def inverse_fourier(phi: DualFunction) -> GFunction:
    """psi(g) = sum_chi phi(chi) chi(g)."""
    psi = _idft_rows(phi.group, phi.values)
    psi *= phi.group.order
    return GFunction(phi.group, psi)


def haar_density(group: FiniteAbelianGroup, subgroup: Subgroup) -> GFunction:
    """Density (|G|/|H|) * 1_H: the probability Haar measure of H against
    the ambient normalized counting measure.  Its Fourier transform is
    exactly the indicator of the annihilator of H."""
    _check_group(group, subgroup)
    values = np.zeros(group.order, dtype=complex)
    values[list(subgroup.elements)] = group.order / subgroup.order
    return GFunction(group, values)
