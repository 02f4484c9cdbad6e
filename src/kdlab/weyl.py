"""Phase-space translations: modulations, shifts and their central phases.

The displacement group collects triples (g, chi, z) with |z| = 1 under

    (g, chi, z) * (g', chi', z') = (g + g', chi * chi', z * z' * conj(chi'(g))),

realized unitarily by U(g, chi, z) = z * M_chi * T_g, where
(T_g psi)(x) = psi(x - g) and (M_chi psi)(x) = chi(x) psi(x).
Conjugating an operator by U translates its phase-space representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import Character, Element, FiniteAbelianGroup, _check_group
from .jsonio import decode_complex, encode_complex, json_object, unit_phase
from .operators import Operator


@dataclass(frozen=True)
class WHElement:
    """Displacement (g, chi, z) with a unimodular central phase z."""

    g: Element
    chi: Character
    z: complex = 1.0 + 0.0j

    def __post_init__(self):
        _check_group(self.g.group, self.chi)
        object.__setattr__(self, "z", unit_phase(self.z, "central phase"))

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.g.group

    def to_json(self) -> dict:
        return {
            "g": list(self.g.residues),
            "chi": list(self.chi.label),
            "z": encode_complex(self.z),
        }

    @classmethod
    def from_json(cls, group: FiniteAbelianGroup, obj: dict) -> "WHElement":
        obj = json_object(obj, ("g", "chi", "z"))   # z is optional
        z = decode_complex(obj["z"]) if "z" in obj else 1.0 + 0.0j
        return cls(group.element(obj["g"]), group.character(obj["chi"]), z)


def wh_identity(group: FiniteAbelianGroup) -> WHElement:
    return WHElement(group.zero, group.trivial_character, 1.0 + 0.0j)


def wh_mul(a: WHElement, b: WHElement) -> WHElement:
    _check_group(a.group, b)
    z = a.z * b.z * np.conj(b.chi(a.g))
    return WHElement(a.g + b.g, a.chi * b.chi, z)


def wh_inv(a: WHElement) -> WHElement:
    return WHElement(-a.g, a.chi.conjugate(), np.conj(a.z * a.chi(a.g)))


def wh_unitary(a: WHElement) -> Operator:
    """Kernel of U(g, chi, z): K[x, y] = |G| * z * chi(x) * delta(y, x - g)."""
    group = a.group
    d = group.order
    kernel = np.zeros((d, d), dtype=complex)
    rows = np.arange(d)
    cols = group.diff_table[rows, a.g.index]
    kernel[rows, cols] = d * a.z * group.char_table[a.chi.index, rows]
    return Operator(group, kernel)


def wh_conjugate(op: Operator, a: WHElement) -> Operator:
    """U(a) A U(a)^*; translates phase space by (g, chi) regardless of z."""
    _check_group(op.group, a)
    u = wh_unitary(a)
    return u @ op @ u.adjoint()
