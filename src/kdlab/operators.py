"""Operators on L2 of the group and tables on its phase space.

An operator is stored through its integral kernel K, acting by

    (A psi)(g) = (1/|G|) * sum_{g'} K[g, g'] * psi(g').

The matrix ``K/|G|`` is the ordinary linear-algebra representation, so
trace, spectra and positivity reduce to standard dense routines, while

    trace(A)  = (1/|G|)   * sum_g K[g, g]
    <A, B>    = (1/|G|^2) * sum conj(K_A) * K_B

match the kernel-level conventions used by the phase-space transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatchError, NotAStateError, PreconditionError
from .groups import FiniteAbelianGroup, _check_group, _wrap
from .harmonic import GFunction
from .jsonio import decode_array, encode_array, finite_array, finite_complex, hermitian_defect, json_object
from .tolerances import DEFAULT, Tolerances


class Operator:
    """Kernel operator on L2(G)."""

    def __init__(self, group: FiniteAbelianGroup, kernel):
        self.group = group
        self.kernel = finite_array(kernel, (group.order,) * 2, "kernel")

    @classmethod
    def from_matrix(cls, group: FiniteAbelianGroup, matrix) -> "Operator":
        """Build from the ordinary matrix representation M = K/|G|."""
        return cls(group, np.asarray(matrix, dtype=complex) * group.order)

    @classmethod
    def identity(cls, group: FiniteAbelianGroup) -> "Operator":
        return cls(group, np.eye(group.order, dtype=complex) * group.order)

    @classmethod
    def pure_state(cls, psi: GFunction) -> "Operator":
        """Rank-one kernel psi(g) * conj(psi(g')); a state when psi has unit norm."""
        v = psi.values
        return cls(psi.group, np.outer(v, v.conj()))

    @property
    def matrix(self) -> np.ndarray:
        return self.kernel / self.group.order

    def apply(self, psi: GFunction) -> GFunction:
        _check_group(self.group, psi)
        return GFunction(self.group, self.kernel @ psi.values / self.group.order)

    def compose(self, other: "Operator") -> "Operator":
        _check_group(self.group, other)
        return Operator(self.group, self.kernel @ other.kernel / self.group.order)

    def __matmul__(self, other: "Operator") -> "Operator":
        return self.compose(other)

    def adjoint(self) -> "Operator":
        return Operator(self.group, self.kernel.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.kernel) / self.group.order)

    def hs_inner(self, other: "Operator") -> complex:
        _check_group(self.group, other)
        return complex(np.vdot(self.kernel, other.kernel) / self.group.order**2)

    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.kernel) / self.group.order)

    def hs_distance(self, other: "Operator") -> float:
        return (self - other).hs_norm()

    def is_hermitian(self) -> bool:
        return hermitian_defect(self.matrix) <= DEFAULT.structural

    def __add__(self, other: "Operator") -> "Operator":
        _check_group(self.group, other)
        return Operator(self.group, self.kernel + other.kernel)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_group(self.group, other)
        return Operator(self.group, self.kernel - other.kernel)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.group, self.kernel * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.group, -self.kernel)

    def __repr__(self) -> str:
        return f"Operator on {self.group}"

    def to_json(self) -> dict:
        return {"group": self.group.to_json(), "kernel": encode_array(self.kernel)}

    @classmethod
    def from_json(cls, obj: dict, group: FiniteAbelianGroup | None = None) -> "Operator":
        return cls(*_group_tagged(obj, "kernel", "operator", group))


def _group_tagged(obj: dict, key: str, what: str, group: FiniteAbelianGroup | None):
    """The declared group, which must be group if one is given, and the (|G|, |G|) array under key."""
    obj = json_object(obj, ("group", key))
    declared = FiniteAbelianGroup.from_json(obj["group"])
    if group is not None and group != declared:
        raise GroupMismatchError(f"{what} declares {declared}, expected {group}")
    d = declared.order
    return declared, decode_array(obj[key], (d, d))


def check_state(rho: Operator, tol: Tolerances = DEFAULT) -> None:
    """Validate the state preconditions, naming the violated one.

    They are tested at ``tol.positivity`` but never below rounding
    (``DEFAULT.exact``): a tighter or negative bound is left to the
    verdict that reads it, so it cannot reject an exact state.
    """
    bound = max(tol.positivity, DEFAULT.exact)
    if not np.isfinite(rho.kernel).all():
        raise NotAStateError("kernel has NaN or infinite entries")
    m = rho.matrix
    herm = hermitian_defect(m)
    if herm > bound:
        raise NotAStateError(f"not Hermitian: max |M - M*| / max(1, max |M|) = {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > bound:
        raise NotAStateError(f"trace is {tr:.12g}, expected 1")
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if eigs.min() < -bound:
        raise NotAStateError(f"not positive semidefinite: lowest eigenvalue {eigs.min():.3e}")


@dataclass
class PhaseSpaceFunction:
    """Complex table on G x dual(G), rows by element, columns by label."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        self.values = finite_array(self.values, (self.group.order,) * 2, "table")

    def norm(self) -> float:
        """L2 norm against (normalized counting) x (counting) measure."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) / self.group.order))

    def inner(self, other: "PhaseSpaceFunction") -> complex:
        _check_group(self.group, other)
        return complex(np.vdot(self.values, other.values) / self.group.order)

    def total_mass(self) -> complex:
        return complex(np.sum(self.values) / self.group.order)

    def max_abs_imag(self) -> float:
        return float(np.max(np.abs(self.values.imag)))

    def min_real(self) -> float:
        return float(np.min(self.values.real))

    def __sub__(self, other: "PhaseSpaceFunction") -> "PhaseSpaceFunction":
        _check_group(self.group, other)
        return PhaseSpaceFunction(self.group, self.values - other.values)

    def __add__(self, other: "PhaseSpaceFunction") -> "PhaseSpaceFunction":
        _check_group(self.group, other)
        return PhaseSpaceFunction(self.group, self.values + other.values)

    def to_json(self) -> dict:
        return {"group": self.group.to_json(), "values": encode_array(self.values)}

    @classmethod
    def from_json(cls, obj: dict, group: FiniteAbelianGroup | None = None) -> "PhaseSpaceFunction":
        return cls(*_group_tagged(obj, "values", "table", group))

    def to_csv(self) -> str:
        """Rows ``g,chi,re,im`` in lexicographic (element, label) order.

        Residue and label tuples are dash-joined so they stay single CSV
        fields for any number of factors.
        """
        lines = ["g,chi,re,im"]
        rr = self.group.residues
        for gi in range(self.group.order):
            gtxt = "-".join(str(r) for r in rr[gi])
            for ci in range(self.group.order):
                ctxt = "-".join(str(c) for c in rr[ci])
                z = self.values[gi, ci]
                lines.append(f"{gtxt},{ctxt},{float(z.real)!r},{float(z.imag)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, group: FiniteAbelianGroup, text: str) -> "PhaseSpaceFunction":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or lines[0].strip().lower() != "g,chi,re,im":
            raise ValueError("expected header 'g,chi,re,im'")
        d = group.order
        values = np.full((d, d), np.nan, dtype=complex)
        if len(lines) - 1 != d * d:
            raise ValueError(f"expected {d * d} data rows, got {len(lines) - 1}")
        for ln in lines[1:]:
            gtxt, ctxt, re_, im_ = (part.strip() for part in ln.split(","))
            gi = group.index_of([int(v) for v in gtxt.split("-")])
            ci = group.index_of([int(v) for v in ctxt.split("-")])
            values[gi, ci] = finite_complex(re_, im_)
        if np.isnan(values).any():
            raise ValueError("duplicate or missing (g, chi) rows")
        return cls(group, values)


@np.errstate(over="ignore", invalid="ignore")
def _computed(cls, group: FiniteAbelianGroup, **arrays):
    """`_wrap` around arrays a transform just made, once every entry is finite.

    One sum settles it for almost every array.  Only a sum that is not
    finite, which finite entries can reach by overflow, sends an array
    to the entrywise test.
    """
    if not all(np.isfinite(array.sum()) or np.isfinite(array).all() for array in arrays.values()):
        raise PreconditionError(f"{', '.join(arrays)} has NaN, infinite or overflowing entries")
    return _wrap(cls, group, **arrays)
