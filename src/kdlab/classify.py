"""Classification of pure states with nonnegative KD tables.

Every pure state whose KD table is pointwise nonnegative is a modulated
subgroup indicator: for a subgroup H, a coset g + H and a character
coset chi * ann(H),

    psi(g') = chi(g') * 1_H(g' - g) / sqrt(|H| / |G|),

and its KD table is exactly the 0/1 indicator of (g + H) x (chi * ann(H)).
The family is finite: |G| states per subgroup, one per pair of cosets,
and it is closed under phase-space displacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GroupMismatchError, PreconditionError
from .groups import (
    Character,
    Element,
    FiniteAbelianGroup,
    Subgroup,
    annihilator,
    coset_reps,
    enumerate_subgroups,
)
from .harmonic import GFunction
from .jsonio import encode_array
from .operators import Operator, PhaseSpaceFunction


@dataclass(frozen=True, eq=False)
class KdPureState:
    """A member of the KD-positive pure family, with canonical coset data."""

    subgroup: Subgroup
    g_rep: Element
    chi_rep: Character
    vector: GFunction = field(repr=False)

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.subgroup.group

    @property
    def key(self) -> tuple:
        return (self.subgroup.elements, self.g_rep.index, self.chi_rep.index)

    def __eq__(self, other) -> bool:
        return isinstance(other, KdPureState) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def projector(self) -> Operator:
        return Operator.pure_state(self.vector)

    def indicator_table(self) -> PhaseSpaceFunction:
        """The exact KD table: indicator of (g + H) x (chi * ann(H))."""
        group = self.group
        row = np.zeros(group.order)
        row[group.add_table[self.g_rep.index, list(self.subgroup.elements)]] = 1.0
        ann = annihilator(group, self.subgroup)
        col = np.zeros(group.order)
        col[group.add_table[self.chi_rep.index, list(ann.elements)]] = 1.0
        return PhaseSpaceFunction(group, np.outer(row, col).astype(complex))

    def to_json(self) -> dict:
        return {
            "H": list(self.subgroup.elements),
            "g": list(self.g_rep.residues),
            "chi": list(self.chi_rep.label),
            "vector": encode_array(self.vector.values),
        }

    def __repr__(self) -> str:
        return f"KdPureState(H={list(self.subgroup.elements)}, g={self.g_rep}, chi={self.chi_rep})"


def make_subgroup_state(subgroup: Subgroup, g: Element, chi: Character) -> KdPureState:
    """Build the family member for (H, g + H, chi * ann(H)).

    The coset representatives are canonicalized to the smallest element
    index and smallest label index, so equal cosets give the identical
    member (the vector only changes by a global phase across a coset,
    which the canonical representative fixes).
    """
    group = subgroup.group
    if g.group != group or chi.group != group:
        raise GroupMismatchError("coset data lives on a different group")
    members = list(subgroup.elements)
    g_rep = group.element_by_index(int(np.min(group.add_table[g.index, members])))
    ann = annihilator(group, subgroup)
    chi_rep = group.character_by_index(int(np.min(group.add_table[chi.index, list(ann.elements)])))
    support = group.add_table[g_rep.index, members]
    density = subgroup.order / group.order
    values = np.zeros(group.order, dtype=complex)
    values[support] = group.char_table[chi_rep.index, support] / np.sqrt(density)
    return KdPureState(subgroup, g_rep, chi_rep, GFunction(group, values))


@lru_cache(maxsize=None)
def enumerate_kd_positive_pure(group: FiniteAbelianGroup) -> tuple[KdPureState, ...]:
    """All KD-positive pure states: |G| * (number of subgroups) members.

    Deterministic order: subgroups by (order, index tuple), then coset
    representatives by element index, then character cosets by label index.
    """
    members: list[KdPureState] = []
    for subgroup in enumerate_subgroups(group):
        ann = annihilator(group, subgroup)
        chis = [group.character_by_index(c.index) for c in coset_reps(group, ann)]
        for g in coset_reps(group, subgroup):
            members.extend(make_subgroup_state(subgroup, g, chi) for chi in chis)
    return tuple(members)


@lru_cache(maxsize=None)
def _family_vectors(group: FiniteAbelianGroup) -> np.ndarray:
    family = enumerate_kd_positive_pure(group)
    return np.stack([m.vector.values for m in family])


def recognize_kd_positive_pure(
    psi: GFunction,
    tol: float = 1e-7,
    norm_tol: float = 1e-6,
) -> KdPureState | None:
    """Match a unit vector against the family, up to global phase.

    Returns the member whose overlap modulus exceeds 1 - tol, or None.
    A perturbation of size eps away from a member costs roughly eps^2/2
    in overlap, so the default tol rejects 1e-3 perturbations with two
    orders of margin.
    """
    if abs(psi.norm() - 1.0) > norm_tol:
        raise PreconditionError(f"input vector norm {psi.norm():.12g} is not 1 within {norm_tol}")
    vectors = _family_vectors(psi.group)
    overlaps = np.abs(vectors.conj() @ psi.values) / psi.group.order
    best = int(np.argmax(overlaps))
    if overlaps[best] > 1.0 - tol:
        return enumerate_kd_positive_pure(psi.group)[best]
    return None


def family_to_json(members) -> list:
    return [m.to_json() for m in members]
