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
    row = group.char_table[chi_rep.index] / np.sqrt(subgroup.order / group.order)
    return KdPureState(subgroup, g_rep, chi_rep, GFunction(group, np.where(labels == g_rep.index, row, 0.0)))


@dataclass(frozen=True, eq=False)
class _Family:
    """The KD-positive pure family of one group, and its coset geometry.

    ``members`` run in family order: subgroup, then element coset, then
    character coset; row i of the read-only ``vectors`` is member i's vector.
    Member (H, g, chi) has the 0/1 KD table (g + H) x (chi * ann(H)), and
    ann(H), read on the dual, is a lattice subgroup too.  So ``geometry``
    holds one (S, |G|) ``stack`` of the S = sum_H |G/H| distinct coset
    indicators, member i's row ``stack[rows[i]]`` and column
    ``stack[cols[i]]``, and ``idx[r, x]``, the member with element coset r
    whose character coset holds x.  No |G|^2-entry table nor Gram matrix:

        pair(T)      = bincount(idx, weights=stack T) / |G|
        combine(lam) = stack^T lam[idx]
        overlaps(j)  = (stack stack[rows[j]]^T)[rows] * (stack stack[cols[j]]^T)[cols] / |G|

    the last exact counts over |G|.  ``geometry`` and ``N``, the subgroup
    counts of `fragment.span_membership`, are built on first use.
    """

    group: FiniteAbelianGroup
    members: tuple[KdPureState, ...] = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    @cached_property
    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(stack, rows, cols, idx)``; the stack runs subgroup by subgroup."""
        _, dual, labels = _lattice_cosets(self.group)
        d = self.group.order
        is_rep = labels == np.arange(d)
        pos = np.take_along_axis(np.cumsum(is_rep, axis=1) - 1, labels, axis=1)   # x's coset, by rank
        m = is_rep.sum(axis=1)                                                      # |G/H|
        start = np.cumsum(m) - m
        stack = np.zeros((m.sum(), d))
        stack[start[:, None] + pos, np.arange(d)] = 1.0
        # member i = sub |G| + coset |H| + chi coset; each element coset's first
        # member (in stack order) plus the rank of chi's coset pairs it with chi
        sub, within = np.divmod(np.arange(len(self.members)), d)
        coset, chi_coset = np.divmod(within, d // m[sub])
        lead = np.flatnonzero(chi_coset == 0)
        geometry = (stack, start[sub] + coset, start[dual[sub]] + chi_coset,
                    lead[:, None] + pos[dual[sub[lead]]])
        for array in geometry:
            array.setflags(write=False)
        return geometry

    @cached_property
    def N(self) -> np.ndarray:
        """(|G|, |G|) exact integer counts N(g, chi) of the subgroups H with g in H and chi in ann(H)."""
        stack, rows, cols, _ = self.geometry   # each subgroup's first member is H x ann(H)
        h, ann = (stack[m[:: self.group.order]].astype(np.int64) for m in (rows, cols))
        return h.T @ ann

    def pair(self, table: np.ndarray) -> np.ndarray:
        """HS inner products <Pi_i, A> of every member with A, from A's real KD table."""
        stack, _, _, idx = self.geometry
        return np.bincount(idx.ravel(), (stack @ table).ravel(), len(self.members)) / self.group.order

    def combine(self, lam: np.ndarray) -> np.ndarray:
        """KD table of sum_i lam_i Pi_i."""
        stack, _, _, idx = self.geometry
        return stack.T @ lam[idx]

    def overlaps(self, j: np.ndarray) -> np.ndarray:
        """Gram columns <Pi_i, Pi_j>, every member i against each listed j: overlap counts / |G|."""
        stack, rows, cols, _ = self.geometry
        both = stack @ stack.take(np.concatenate((rows.take(j), cols.take(j))), axis=0).T   # rows, cols of j
        return both[:, : len(j)].take(rows, axis=0) * both[:, len(j) :].take(cols, axis=0) / self.group.order


@lru_cache(maxsize=None)
def _lattice_cosets(group: FiniteAbelianGroup):
    """The lattice, each H's ann(H) as a lattice index, and each H's
    `coset_labels`, the last two read-only; one pass serves `_family`
    and its ``geometry``."""
    subgroups = enumerate_subgroups(group)
    where = {h.elements: k for k, h in enumerate(subgroups)}
    # Each large H comes after the small ann(H) the lattice derived it from,
    # so pairing both ways asks annihilator only what the lattice asked it.
    dual = [None] * len(subgroups)
    for k, h in enumerate(subgroups):
        if dual[k] is None:
            a = where[annihilator(group, h).elements]
            dual[k], dual[a] = a, k
    dual, labels = np.array(dual), np.stack([coset_labels(group, h) for h in subgroups])
    dual.setflags(write=False)
    labels.setflags(write=False)
    return subgroups, dual, labels


@lru_cache(maxsize=None)
def _family(group: FiniteAbelianGroup) -> _Family:
    """The family record of a group, from one pass over its subgroup lattice."""
    subgroups, dual, labels = _lattice_cosets(group)
    d = group.order
    reps = [np.flatnonzero(row) for row in labels == np.arange(d)]   # labels that label themselves
    # one checked Element and Character per index, shared by the members
    elements, characters = tuple(group.elements()), tuple(group.characters())
    vectors = np.zeros((d * len(subgroups), d), dtype=complex)
    members = [None] * len(vectors)
    # Members are made in place, as their constructors would make them:
    # KdPureState's frozen __init__ sets its four fields through
    # object.__setattr__ and checks nothing, and each vector is `_wrap`'s
    # unchecked GFunction, its row finite by construction (unit-modulus
    # characters times sqrt(|G| / |H|)).  Per member, that saves the
    # dataclass call and the `_wrap` frame; each object keeps the layout
    # its constructor gives it, which keeps memory where it was.  The list
    # is made at its final size, as appends would over-allocate it.
    new, set_field, i = object.__new__, object.__setattr__, 0
    for k, (h, block) in enumerate(zip(subgroups, vectors.reshape(len(subgroups), d, d))):
        g_reps, chi_reps = reps[k], reps[dual[k]]
        grid = block.reshape(len(g_reps), len(chi_reps), d)
        on_coset = (g_reps[:, None] == labels[k])[:, None]
        np.copyto(grid, group.char_table[chi_reps] / np.sqrt(h.order / d), where=on_coset)
        grid.setflags(write=False)
        chis = [characters[c] for c in chi_reps.tolist()]
        for g, coset_rows in zip(g_reps.tolist(), grid):
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
    return _Family(group, tuple(members), vectors)


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
