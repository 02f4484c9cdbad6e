"""The Kirkwood-Dirac transform and its phase-space companions.

For an operator A with kernel K the KD table is

    KD_A(g, chi) = conj(chi(g)) * (1/|G|) * sum_{g'} K[g, g'] * chi(g'),

a unitary map from Hilbert-Schmidt operators onto tables on G x dual(G),
inverted by K[g, g'] = sum_chi KD_A(g, chi) * chi(g - g').  The same
table is reached by the symplectic Fourier transform of the
characteristic function trace(A U(g, chi, 1)) in symmetric ordering,
which is how the two routes cross-check each other in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedOrderError
from .groups import FiniteAbelianGroup, doubling
from .harmonic import DualFunction, GFunction, inverse_fourier
from .operators import Operator, PhaseSpaceFunction, check_state
from .weyl import WHElement, wh_unitary

ORDERINGS = ("standard0", "standard1", "half")


def _kd_table(group: FiniteAbelianGroup, kernel: np.ndarray) -> np.ndarray:
    X = group.char_table
    return X.conj().T * ((kernel @ X.T) / group.order)


def _kd_kernel(group: FiniteAbelianGroup, table: np.ndarray) -> np.ndarray:
    X = group.char_table
    w = table @ X
    return np.take_along_axis(w, group.diff_table, axis=1)


def kd(op: Operator) -> PhaseSpaceFunction:
    """Kirkwood-Dirac table of an operator."""
    return PhaseSpaceFunction(op.group, _kd_table(op.group, op.kernel))


def kd_inverse(table: PhaseSpaceFunction) -> Operator:
    """Kernel reconstruction K[g, g'] = sum_chi F(g, chi) chi(g - g')."""
    return Operator(table.group, _kd_kernel(table.group, table.values))


def kd_pure(psi: GFunction, psi_hat: DualFunction | None = None) -> PhaseSpaceFunction:
    """KD table of |psi><psi| via conj(chi(g)) psi(g) conj(psi_hat(chi))."""
    from .harmonic import fourier

    group = psi.group
    if psi_hat is None:
        psi_hat = fourier(psi)
    X = group.char_table
    table = X.conj().T * np.outer(psi.values, psi_hat.values.conj())
    return PhaseSpaceFunction(group, table)


def char_fn(op: Operator, ordering: str) -> PhaseSpaceFunction:
    """Characteristic function table trace(A U(g, chi, 1)), with ordering.

    ``standard0`` is the bare trace, ``standard1`` multiplies by
    conj(chi(g)), and ``half`` by conj(chi(g/2)), which needs the
    doubling map to be invertible (all cyclic factors odd).
    """
    group = op.group
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}, expected one of {ORDERINGS}")
    d = group.order
    # trace(A U(g, chi, 1)) = (1/|G|) sum_y K[y - g, y] chi(y): the delta
    # in the displacement kernel collapses one index of the product trace.
    rows = group.diff_table  # rows[y, g] = index(y - g)
    shifted = op.kernel[rows, np.arange(d)[:, None]]  # shifted[y, g] = K[y - g, y]
    base = (shifted.T @ group.char_table.T) / d  # [g, c]
    if ordering == "standard0":
        values = base
    elif ordering == "standard1":
        values = base * group.char_table.conj().T
    else:
        dbl = doubling(group)
        if not dbl.invertible:
            raise UnsupportedOrderError(
                f"half ordering needs an invertible doubling map; {group} has an even factor"
            )
        values = base * group.char_table[:, dbl.halve_table].conj().T
    return PhaseSpaceFunction(group, values)


def char_fn_point(op: Operator, a: WHElement) -> complex:
    """Single bare characteristic value trace(A U(a)) by direct composition."""
    return complex((op @ wh_unitary(a)).trace())


def symplectic_fourier(table: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """(F T)(g, chi) = (1/|G|) sum_{g', chi'} T(g', chi') chi(g') conj(chi'(g)).

    The opposite-sign pairing of the two legs makes this map its own
    inverse, so `symplectic_fourier_inverse` is the same function.
    """
    group = table.group
    X = group.char_table
    return PhaseSpaceFunction(group, (X @ table.values @ X.conj()).T / group.order)


symplectic_fourier_inverse = symplectic_fourier


def akd(op: Operator) -> PhaseSpaceFunction:
    """Anti-standard table: symplectic Fourier of the bare characteristic
    function; the complex conjugate of the KD table of the adjoint."""
    return symplectic_fourier(char_fn(op, "standard0"))


def marginals(rho: Operator, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum laws of a state read off the KD table.

    Summing KD over characters returns the kernel diagonal (density
    against normalized counting measure); averaging over the group
    returns the Born weights <chi|rho|chi> (a probability vector).
    """
    check_state(rho, tol)
    table = _kd_table(rho.group, rho.kernel)
    position = np.real(table.sum(axis=1))
    momentum = np.real(table.sum(axis=0) / rho.group.order)
    return position, momentum


def kohn_nirenberg(f: GFunction, h: DualFunction) -> Operator:
    """Operator with KD table f x h: kernel K[g, g'] = f(g) * (F^-1 h)(g - g').

    Equal to multiplication by f composed with the Fourier multiplier by
    h; the two factors do not commute in general.
    """
    if f.group != h.group:
        raise ValueError("symbol factors live on different groups")
    group = f.group
    u = inverse_fourier(h).values
    kernel = f.values[:, None] * u[group.diff_table]
    return Operator(group, kernel)


def multiplication_operator(f: GFunction) -> Operator:
    """Pointwise multiplication by f."""
    group = f.group
    return Operator(group, np.diag(f.values) * group.order)


def fourier_multiplier(h: DualFunction) -> Operator:
    """Multiplication by h on the Fourier side."""
    group = h.group
    ones = GFunction(group, np.ones(group.order, dtype=complex))
    return kohn_nirenberg(ones, h)
