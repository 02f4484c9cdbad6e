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

from .errors import GroupMismatchError, NotAStateError
from .groups import FiniteAbelianGroup
from .harmonic import GFunction
from .jsonio import decode_array, encode_array, finite_complex


class Operator:
    """Kernel operator on L2(G)."""

    def __init__(self, group: FiniteAbelianGroup, kernel):
        kernel = np.asarray(kernel, dtype=complex)
        if kernel.shape != (group.order, group.order):
            raise ValueError(
                f"kernel must be {group.order}x{group.order} for {group}, got {kernel.shape}"
            )
        self.group = group
        self.kernel = kernel.copy()

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
        if psi.group != self.group:
            raise GroupMismatchError("function lives on a different group")
        return GFunction(self.group, self.kernel @ psi.values / self.group.order)

    def compose(self, other: "Operator") -> "Operator":
        if other.group != self.group:
            raise GroupMismatchError("operators live on different groups")
        return Operator(self.group, self.kernel @ other.kernel / self.group.order)

    def __matmul__(self, other: "Operator") -> "Operator":
        return self.compose(other)

    def adjoint(self) -> "Operator":
        return Operator(self.group, self.kernel.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.kernel) / self.group.order)

    def hs_inner(self, other: "Operator") -> complex:
        if other.group != self.group:
            raise GroupMismatchError("operators live on different groups")
        return complex(np.vdot(self.kernel, other.kernel) / self.group.order**2)

    def hs_norm(self) -> float:
        return float(np.linalg.norm(self.kernel) / self.group.order)

    def hs_distance(self, other: "Operator") -> float:
        return (self - other).hs_norm()

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        m = self.matrix
        scale = max(1.0, float(np.max(np.abs(m))))
        return bool(np.max(np.abs(m - m.conj().T)) <= tol * scale)

    def __add__(self, other: "Operator") -> "Operator":
        if other.group != self.group:
            raise GroupMismatchError("operators live on different groups")
        return Operator(self.group, self.kernel + other.kernel)

    def __sub__(self, other: "Operator") -> "Operator":
        if other.group != self.group:
            raise GroupMismatchError("operators live on different groups")
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
        declared = FiniteAbelianGroup.from_json(obj["group"])
        if group is not None and group != declared:
            raise GroupMismatchError(f"operator declares {declared}, expected {group}")
        d = declared.order
        return cls(declared, decode_array(obj["kernel"], (d, d)))


def trace_product(a: Operator, b: Operator) -> complex:
    """trace(A B) without forming the composed kernel."""
    if a.group != b.group:
        raise GroupMismatchError("operators live on different groups")
    return complex(np.sum(a.kernel * b.kernel.T) / a.group.order**2)


def check_state(rho: Operator, tol: float = 1e-9) -> None:
    """Validate the state preconditions, naming the violated one."""
    if not np.isfinite(rho.kernel).all():
        raise NotAStateError("kernel has NaN or infinite entries")
    scale = max(1.0, float(np.max(np.abs(rho.kernel))) / rho.group.order)
    herm = float(np.max(np.abs(rho.kernel - rho.kernel.conj().T))) / rho.group.order
    if herm > tol * scale:
        raise NotAStateError(f"not Hermitian: max |K - K*| / |G| = {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > tol:
        raise NotAStateError(f"trace is {tr:.12g}, expected 1")
    eigs = np.linalg.eigvalsh((rho.matrix + rho.matrix.conj().T) / 2)
    if eigs.min() < -tol:
        raise NotAStateError(f"not positive semidefinite: lowest eigenvalue {eigs.min():.3e}")


@dataclass
class PhaseSpaceFunction:
    """Complex table on G x dual(G), rows by element, columns by label."""

    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        d = self.group.order
        if arr.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} table for {self.group}, got {arr.shape}")
        self.values = arr.copy()

    def norm(self) -> float:
        """L2 norm against (normalized counting) x (counting) measure."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) / self.group.order))

    def inner(self, other: "PhaseSpaceFunction") -> complex:
        if self.group != other.group:
            raise GroupMismatchError("tables live on different groups")
        return complex(np.vdot(self.values, other.values) / self.group.order)

    def total_mass(self) -> complex:
        return complex(np.sum(self.values) / self.group.order)

    def max_abs_imag(self) -> float:
        return float(np.max(np.abs(self.values.imag)))

    def min_real(self) -> float:
        return float(np.min(self.values.real))

    def __sub__(self, other: "PhaseSpaceFunction") -> "PhaseSpaceFunction":
        if self.group != other.group:
            raise GroupMismatchError("tables live on different groups")
        return PhaseSpaceFunction(self.group, self.values - other.values)

    def __add__(self, other: "PhaseSpaceFunction") -> "PhaseSpaceFunction":
        if self.group != other.group:
            raise GroupMismatchError("tables live on different groups")
        return PhaseSpaceFunction(self.group, self.values + other.values)

    def to_json(self) -> dict:
        return {"group": self.group.to_json(), "values": encode_array(self.values)}

    @classmethod
    def from_json(cls, obj: dict, group: FiniteAbelianGroup | None = None) -> "PhaseSpaceFunction":
        declared = FiniteAbelianGroup.from_json(obj["group"])
        if group is not None and group != declared:
            raise GroupMismatchError(f"table declares {declared}, expected {group}")
        d = declared.order
        return cls(declared, decode_array(obj["values"], (d, d)))

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
