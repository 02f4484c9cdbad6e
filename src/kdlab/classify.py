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
from functools import cached_property, lru_cache

import numpy as np

from .errors import PreconditionError
from .groups import (
    Character,
    Element,
    FiniteAbelianGroup,
    Subgroup,
    _check_group,
    annihilator,
    coset_labels,
    enumerate_subgroups,
)
from .harmonic import GFunction
from .jsonio import encode_array
from .operators import Operator, PhaseSpaceFunction
from .tolerances import DEFAULT, Tolerances


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
        return (self.group, self.subgroup.elements, self.g_rep.index, self.chi_rep.index)

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
    _check_group(group, g, chi)
    labels = coset_labels(group, subgroup)
    g_rep = group.element_by_index(int(labels[g.index]))
    chi_rep = group.character_by_index(int(coset_labels(group, annihilator(group, subgroup))[chi.index]))
    values = _coset_vectors(np.zeros((1, 1, group.order), dtype=complex), subgroup,
                            labels[None] == g_rep.index, [chi_rep.index])
    return KdPureState(subgroup, g_rep, chi_rep, GFunction(group, values[0, 0]))


def _coset_vectors(out: np.ndarray, subgroup: Subgroup, g_ind: np.ndarray, chi_reps) -> np.ndarray:
    """Fill ``out``, zeros of shape (k, m, |G|), with member vectors and return it.

    Row (i, j) is chi_j / sqrt(|H| / |G|) on the coset g_ind[i] marks and 0
    elsewhere; the chi_j must be canonical representatives.
    """
    group = subgroup.group
    rows = group.char_table[chi_reps] / np.sqrt(subgroup.order / group.order)
    np.copyto(out, rows, where=g_ind[:, None, :])
    return out


@dataclass(frozen=True, eq=False)
class _Family:
    """The KD-positive pure family of one group, and its coset data.

    ``members`` run in family order: subgroup, then element coset, then
    character coset.  Row i of the read-only ``vectors`` is member i's
    vector, which views it.  ``cosets`` holds per subgroup H
    ``(g_ind, chi_ind)``: the 0/1 indicators of G/H and of dual(G)/ann(H),
    one row per coset in family order, so ``g_ind[0]`` marks H and
    ``chi_ind[0]`` ann(H).

    Member (H, g, chi) has the KD table row (x) col, the 0/1 rectangle
    (g + H) x (chi * ann(H)), so the geometry needs only the indicator
    stacks R and C, built on first use, never |G|^2-entry tables nor the
    n x n Gram matrix.  A member's pairing with a real table T is
    ((R T) * C).sum(1) / |G|; a combination lam has the table
    (R^T diag(lam)) C; and two rectangles overlap in the product of their
    row and column overlaps, so the Gram columns of members idx are
    (R R[idx]^T) * (C C[idx]^T) / |G|, exact overlap counts / |G|.  The
    minimum-norm span coefficients of T are pair(F(F(T) / N)), with F the
    symplectic Fourier transform and N(g, chi) the number of subgroups H
    with g in H and chi in ann(H), also built on first use (see
    `fragment.span_membership`).
    """

    group: FiniteAbelianGroup
    members: tuple[KdPureState, ...] = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    cosets: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    @cached_property
    def R(self) -> np.ndarray:
        """(n, |G|) 0/1 indicators of g + H, family order."""
        return np.concatenate([np.repeat(g, len(chi), axis=0) for g, chi in self.cosets], dtype=float)

    @cached_property
    def C(self) -> np.ndarray:
        """(n, |G|) 0/1 indicators of chi * ann(H), family order."""
        return np.concatenate([np.tile(chi, (len(g), 1)) for g, chi in self.cosets], dtype=float)

    @cached_property
    def N(self) -> np.ndarray:
        """(|G|, |G|) exact integer counts N(g, chi) of the subgroups H with g in H and chi in ann(H)."""
        h = np.array([g_ind[0] for g_ind, _ in self.cosets], dtype=np.int64)
        ann = np.array([chi_ind[0] for _, chi_ind in self.cosets], dtype=np.int64)
        return h.T @ ann

    def pair(self, table: np.ndarray) -> np.ndarray:
        """HS inner products <Pi_i, A> of every member with A, from A's real KD table."""
        return ((self.R @ table) * self.C).sum(1) / self.group.order

    def combine(self, lam: np.ndarray) -> np.ndarray:
        """KD table of sum_i lam_i Pi_i."""
        return (self.R.T * lam) @ self.C

    def overlaps(self, idx: np.ndarray) -> np.ndarray:
        """Gram columns <Pi_i, Pi_j>, every member i against each j in idx: overlap counts / |G|."""
        return (self.R @ self.R[idx].T) * (self.C @ self.C[idx].T) / self.group.order


@lru_cache(maxsize=None)
def _family(group: FiniteAbelianGroup) -> _Family:
    """The family record of a group, from one pass over its subgroup lattice."""
    subgroups = enumerate_subgroups(group)
    d = group.order
    # Each large H comes after the small ann(H) the lattice derived it from,
    # so pairing both ways asks annihilator only what the lattice asked it.
    # A coset's representative is the label that labels itself; read on the
    # dual, ann(H)'s cosets are H's character cosets.
    dual, sides = {}, {}
    for h in subgroups:
        if h.elements not in dual:
            ann = annihilator(group, h).elements
            dual[h.elements], dual[ann] = ann, h.elements
        labels = coset_labels(group, h)
        reps = np.flatnonzero(labels == np.arange(d))
        sides[h.elements] = (reps, reps[:, None] == labels)
        for array in sides[h.elements]:
            array.setflags(write=False)
    # one checked Element and Character per index, shared by the members
    elements, characters = tuple(group.elements()), tuple(group.characters())
    vectors = np.zeros((d * len(subgroups), d), dtype=complex)
    members, cosets = [None] * len(vectors), []
    # Members are made in place, as their constructors would make them:
    # KdPureState's frozen __init__ sets its four fields through
    # object.__setattr__ and checks nothing, and each vector is `_wrap`'s
    # unchecked GFunction, its row finite by construction (unit-modulus
    # characters times sqrt(|G| / |H|)).  Per member, that saves the
    # dataclass call and the `_wrap` frame; each object keeps the layout
    # its constructor gives it, which keeps memory where it was.  The list
    # is made at its final size, as appends would over-allocate it.
    new, set_field, i = object.__new__, object.__setattr__, 0
    for h, block in zip(subgroups, vectors.reshape(len(subgroups), d, d)):
        (g_reps, g_ind), (chi_reps, chi_ind) = sides[h.elements], sides[dual[h.elements]]
        cosets.append((g_ind, chi_ind))
        rows = _coset_vectors(block.reshape(len(g_reps), len(chi_reps), d), h, g_ind, chi_reps)
        rows.setflags(write=False)
        chis = [characters[c] for c in chi_reps.tolist()]
        for g, coset_rows in zip(g_reps.tolist(), rows):
            g_rep = elements[g]
            for chi, v in zip(chis, coset_rows):
                vector = new(GFunction)
                vector.__dict__.update(group=group, values=v)
                member = new(KdPureState)
                set_field(member, "subgroup", h)
                set_field(member, "g_rep", g_rep)
                set_field(member, "chi_rep", chi)
                set_field(member, "vector", vector)
                members[i] = member
                i += 1
    vectors.setflags(write=False)
    return _Family(group, tuple(members), vectors, tuple(cosets))


def enumerate_kd_positive_pure(group: FiniteAbelianGroup) -> tuple[KdPureState, ...]:
    """All KD-positive pure states: |G| * (number of subgroups) members.

    Deterministic order: subgroups by (order, index tuple), then coset
    representatives by element index, then character cosets by label index.
    """
    return _family(group).members


def recognize_kd_positive_pure(psi: GFunction, tol: Tolerances = DEFAULT) -> KdPureState | None:
    """Match a unit vector against the family, up to global phase.

    Returns the member whose overlap modulus exceeds 1 - tol.recognition,
    or None.  A perturbation of size eps away from a member costs roughly
    eps^2/2 in overlap, so the default level rejects 1e-3 perturbations
    with two orders of margin.
    """
    if abs(psi.norm() - 1.0) > 1e-6:
        raise PreconditionError(f"input vector norm {psi.norm():.12g} is not 1 within 1e-6")
    family = _family(psi.group)
    overlaps = np.abs(family.vectors @ psi.values.conj()) / psi.group.order
    best = int(np.argmax(overlaps))
    if overlaps[best] > 1.0 - tol.recognition:
        return family.members[best]
    return None


def family_to_json(members) -> list:
    return [m.to_json() for m in members]
