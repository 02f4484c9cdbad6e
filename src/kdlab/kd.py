"""The Kirkwood-Dirac transform and its phase-space companions.

For an operator A with kernel K the KD table is

    KD_A(g, chi) = conj(chi(g)) * (1/|G|) * sum_{g'} K[g, g'] * chi(g'),

a unitary map from Hilbert-Schmidt operators onto tables on G x dual(G),
inverted by K[g, g'] = sum_chi KD_A(g, chi) * chi(g - g').  The same
table is reached by the symplectic Fourier transform of the
characteristic function trace(A U(g, chi, 1)) in symmetric ordering,
which is how the two routes cross-check each other in the test suite.

Every table transform here is a row DFT of `harmonic`, dense or FFT,
and its phase products run in place in the transform's fresh result, so
`kd` and `kd_inverse` allocate only the array they return (on the dense
route `kd_inverse` also holds its phase product, the input of its
matrix product).  `kd_pure`, `char_fn` and `symplectic_fourier` hand
their fresh results over uncopied too, through `operators._computed`;
the last two also hold one intermediate table.  The pairing is
symmetric, so the phase conj(chi(g)) at table entry [g, c] is read from
the group's one cached conjugate table, X.conj(), whose strided
transpose would cost more than the FFT itself.
Each phase product spells out its factor order with ``np.multiply``:
complex products are not bitwise commutative under FMA.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteAbelianGroup, _check_group
from .harmonic import DualFunction, GFunction, _dft_rows, _idft_rows, fourier, inverse_fourier
from .operators import Operator, PhaseSpaceFunction, _computed, check_state
from .weyl import WHElement, wh_unitary

ORDERINGS = ("standard0", "standard1", "half")


def _kd_table(group: FiniteAbelianGroup, kernel: np.ndarray) -> np.ndarray:
    table = _idft_rows(group, kernel)
    # The cached X.conj() stays the left factor: complex products are not
    # bitwise commutative under FMA, and the pinned witnesses depend on
    # these bits.
    return np.multiply(group.char_table_conj, table, out=table)


def _kd_kernel(group: FiniteAbelianGroup, table: np.ndarray) -> np.ndarray:
    # chi(g - g') = chi(g) conj(chi(g')) splits the sum into one transform,
    # made in place in the one fresh product, C-ordered whatever table's order.
    rows = np.multiply(table, group.char_table, order="C")
    return _dft_rows(group, rows, out=rows)


def kd(op: Operator) -> PhaseSpaceFunction:
    """Kirkwood-Dirac table of an operator."""
    return _computed(PhaseSpaceFunction, op.group, values=_kd_table(op.group, op.kernel))


def kd_inverse(table: PhaseSpaceFunction) -> Operator:
    """Kernel reconstruction K[g, g'] = sum_chi F(g, chi) chi(g - g')."""
    return _computed(Operator, table.group, kernel=_kd_kernel(table.group, table.values))


def kd_pure(psi: GFunction) -> PhaseSpaceFunction:
    """KD table of |psi><psi| via conj(chi(g)) psi(g) conj(psi_hat(chi))."""
    group = psi.group
    table = np.outer(psi.values, fourier(psi).values.conj())
    np.multiply(group.char_table_conj, table, out=table)
    return _computed(PhaseSpaceFunction, group, values=table)


def char_fn(op: Operator, ordering: str) -> PhaseSpaceFunction:
    """Characteristic function table trace(A U(g, chi, 1)), with ordering.

    ``standard0`` is the bare trace, ``standard1`` multiplies by
    conj(chi(g)), and ``half`` by conj(chi(g/2)), whose ``halve_table``
    exists only when every cyclic factor is odd.
    """
    group = op.group
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}, expected one of {ORDERINGS}")
    # trace(A U(g, chi, 1)) = (1/|G|) sum_y K[y - g, y] chi(y): the delta
    # in the displacement kernel collapses one index of the product trace.
    # One flat gather lays K[y - g, y] out C-ordered in [g, y], the rows
    # the transform reads.
    base = _idft_rows(group, op.kernel.ravel()[group.shift_table])  # [g, c]
    if ordering == "standard0":
        values = base
    elif ordering == "standard1":
        values = np.multiply(base, group.char_table_conj, out=base)
    else:
        # halve_table raises UnsupportedOrderError when a factor is even
        values = np.multiply(base, group.char_table_conj[group.halve_table], out=base)
    return _computed(PhaseSpaceFunction, group, values=values)


def char_fn_point(op: Operator, a: WHElement) -> complex:
    """Single bare characteristic value trace(A U(a)) by direct composition."""
    return complex((op @ wh_unitary(a)).trace())


def symplectic_fourier(table: PhaseSpaceFunction) -> PhaseSpaceFunction:
    """(F T)(g, chi) = (1/|G|) sum_{g', chi'} T(g', chi') chi(g') conj(chi'(g)).

    The opposite-sign pairing of the two legs makes this map its own
    inverse.
    """
    group = table.group
    inner = _idft_rows(group, table.values.T).T  # (1/|G|) sum_g' T(g', chi') chi(g')
    return _computed(PhaseSpaceFunction, group, values=_dft_rows(group, inner).T)


def akd(op: Operator) -> PhaseSpaceFunction:
    """Anti-standard table: symplectic Fourier of the bare characteristic
    function; the complex conjugate of the KD table of the adjoint."""
    return symplectic_fourier(char_fn(op, "standard0"))


def marginals(rho: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum laws of a state read off the KD table.

    Summing KD over characters returns the kernel diagonal (density
    against normalized counting measure); averaging over the group
    returns the Born weights <chi|rho|chi> (a probability vector).
    """
    check_state(rho)
    table = _kd_table(rho.group, rho.kernel)
    position = np.real(table.sum(axis=1))
    momentum = np.real(table.sum(axis=0) / rho.group.order)
    return position, momentum


def kohn_nirenberg(f: GFunction, h: DualFunction) -> Operator:
    """Operator with KD table f x h: kernel K[g, g'] = f(g) * (F^-1 h)(g - g').

    Equal to multiplication by f composed with the Fourier multiplier by
    h; the two factors do not commute in general.
    """
    _check_group(f.group, h)
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
