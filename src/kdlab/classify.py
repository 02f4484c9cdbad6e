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
    coset_labels,
    enumerate_subgroups,
)
from .harmonic import GFunction
from .jsonio import encode_array
from .operators import Operator, PhaseSpaceFunction
from .tolerances import DEFAULT


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
    values = _coset_vectors(subgroup, g_rep.index, [chi_rep.index])[0]
    return KdPureState(subgroup, g_rep, chi_rep, GFunction(group, values))


def _coset_vectors(subgroup: Subgroup, g: int, chi_reps) -> np.ndarray:
    """Vectors of the members on the coset g + H, one row per character rep.

    Row i is chi_i(g') on g + H and 0 elsewhere, scaled by 1 / sqrt(|H| / |G|);
    g and the chi_i must be canonical representatives.
    """
    group = subgroup.group
    support = group.add_table[g, list(subgroup.elements)]
    vectors = np.zeros((len(chi_reps), group.order), dtype=complex)
    density = subgroup.order / group.order
    vectors[:, support] = group.char_table[np.ix_(chi_reps, support)] / np.sqrt(density)
    return vectors


@lru_cache(maxsize=None)
def _coset_labels(group: FiniteAbelianGroup) -> tuple[tuple[Subgroup, np.ndarray, np.ndarray], ...]:
    """Per subgroup H, in lattice order: the coset labels of G/H and of dual(G)/ann(H).

    The family and the fragment context both read these, so member order
    and coset indicators agree by construction.  The labels are the
    canonical (minimal-index) representatives.
    """
    out = []
    for subgroup in enumerate_subgroups(group):
        g_labels = coset_labels(group, subgroup)
        chi_labels = coset_labels(group, annihilator(group, subgroup))
        g_labels.setflags(write=False)
        chi_labels.setflags(write=False)
        out.append((subgroup, g_labels, chi_labels))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_kd_positive_pure(group: FiniteAbelianGroup) -> tuple[KdPureState, ...]:
    """All KD-positive pure states: |G| * (number of subgroups) members.

    Deterministic order: subgroups by (order, index tuple), then coset
    representatives by element index, then character cosets by label index.
    Built one subgroup at a time from its coset labels: the representatives
    are the distinct labels, already canonical, so each element coset and
    each character coset gets one shared `Element` / `Character`, and each
    element coset its member vectors from one gather of the character table.
    """
    members: list[KdPureState] = []
    for subgroup, g_labels, chi_labels in _coset_labels(group):
        chi_reps = np.unique(chi_labels)
        chis = [group.character_by_index(int(c)) for c in chi_reps]
        for g in np.unique(g_labels).tolist():
            g_rep = group.element_by_index(g)
            vectors = _coset_vectors(subgroup, g, chi_reps)
            members.extend(
                KdPureState(subgroup, g_rep, chi, GFunction(group, v)) for chi, v in zip(chis, vectors)
            )
    return tuple(members)


@lru_cache(maxsize=None)
def _family_vectors(group: FiniteAbelianGroup) -> np.ndarray:
    family = enumerate_kd_positive_pure(group)
    return np.stack([m.vector.values for m in family])


def recognize_kd_positive_pure(
    psi: GFunction,
    tol: float = DEFAULT.recognition,
) -> KdPureState | None:
    """Match a unit vector against the family, up to global phase.

    Returns the member whose overlap modulus exceeds 1 - tol, or None.
    A perturbation of size eps away from a member costs roughly eps^2/2
    in overlap, so the default tol rejects 1e-3 perturbations with two
    orders of margin.
    """
    if abs(psi.norm() - 1.0) > 1e-6:
        raise PreconditionError(f"input vector norm {psi.norm():.12g} is not 1 within 1e-6")
    vectors = _family_vectors(psi.group)
    overlaps = np.abs(vectors.conj() @ psi.values) / psi.group.order
    best = int(np.argmax(overlaps))
    if overlaps[best] > 1.0 - tol:
        return enumerate_kd_positive_pure(psi.group)[best]
    return None


def family_to_json(members) -> list:
    return [m.to_json() for m in members]
