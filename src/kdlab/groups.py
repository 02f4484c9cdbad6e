"""Finite abelian groups as explicit products of cyclic factors.

Elements of ``Z_{n1} x ... x Z_{nk}`` are addressed by a canonical index
in ``0..|G|-1``, lexicographic in the residue tuple; every vector and
matrix in the package is laid out in that order.  Characters are labeled
by tuples with the same moduli through the pairing
``chi_c(g) = prod_j exp(2*pi*i*c_j*g_j/n_j)``, so the dual group shares
the element indexing and subgroups of the dual are ordinary
:class:`Subgroup` values over label indices.  Operands of every operation
pass ``_check_group``, whose ``GroupMismatchError`` names both groups.

Every public constructor validates its input.  Two constructions skip
``Subgroup``'s checks through ``_wrap``, because their index tuples are
sorted, closed and made of Python ints by construction:
``enumerate_subgroups`` builds each subgroup as a union of cosets of a
smaller one, and ``annihilator`` reads its labels off the integer phase
table, which makes them closed by duality.  The verify rows
``group-subgroup-closure`` and ``group-annihilator-duality`` re-check
both sets independently.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    GroupMismatchError,
    GroupSpecError,
    PreconditionError,
    SubgroupBoundError,
    UnsupportedOrderError,
)
from .jsonio import json_object

SUBGROUP_ORDER_BOUND = 512


def _index(value) -> int:
    """``operator.index``, which reads a bool as 0 or 1, with bools refused."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool")
    return operator.index(value)


def _wrap(cls, group: FiniteAbelianGroup, **fields):
    """A cls on group with these fields, neither copied nor checked.

    Only for objects the library builds from data it has already checked
    or made: never for input from outside the program, which goes through
    the validating constructors.
    """
    obj = cls.__new__(cls)
    vars(obj).update(fields, group=group)
    return obj


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """values as Python ints; a bool, a float, a string or another non-integer raises."""
    try:
        return tuple(map(_index, values))
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None


class FiniteAbelianGroup:
    """Product of cyclic groups ``Z_n``, immutable after construction."""

    def __init__(self, factors: Sequence[int]):
        factors = _integers(factors, "cyclic factors")
        if not factors:
            raise ValueError("at least one cyclic factor is required")
        if factors != (1,) and any(n < 2 for n in factors):
            raise ValueError(
                "cyclic factors must be at least 2; 'Z1' denotes the trivial group only on its own"
            )
        self.factors = factors
        self.order = math.prod(factors)
        self.exponent = math.lcm(*factors)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)

    @cached_property
    def residues(self) -> np.ndarray:
        """Residue tuple of every element, shape (order, k), lexicographic."""
        table = np.indices(self.factors).reshape(len(self.factors), self.order).T
        table = np.ascontiguousarray(table)
        table.setflags(write=False)
        return table

    def _index_table(self, residues: np.ndarray) -> np.ndarray:
        """Read-only element index of every residue tuple along the last axis, reduced mod the factors."""
        r = residues % np.array(self.factors)
        table = np.ravel_multi_index(tuple(r[..., j] for j in range(len(self.factors))), self.factors)
        table.setflags(write=False)
        return table

    @cached_property
    def add_table(self) -> np.ndarray:
        """add_table[a, b] = index of a + b."""
        r = self.residues
        return self._index_table(r[:, None, :] + r[None, :, :])

    @cached_property
    def diff_table(self) -> np.ndarray:
        """diff_table[a, b] = index of a - b."""
        r = self.residues
        return self._index_table(r[:, None, :] - r[None, :, :])

    @cached_property
    def shift_table(self) -> np.ndarray:
        """shift_table[g, y] = |G| index(y - g) + y, the flat index of K[y - g, y] in a kernel K."""
        r = self.residues
        table = self._index_table(r[None, :, :] - r[:, None, :]) * self.order + np.arange(self.order)
        table.setflags(write=False)
        return table

    @cached_property
    def halve_table(self) -> np.ndarray:
        """halve_table[g] = index of g/2, the h with h + h = g: (n + 1)/2 inverts 2 mod an odd n."""
        if any(n % 2 == 0 for n in self.factors):
            raise UnsupportedOrderError(f"doubling is not invertible on {self}: even factor present")
        return self._index_table(self.residues * np.array([(n + 1) // 2 for n in self.factors]))

    @cached_property
    def char_phase(self) -> np.ndarray:
        """Integer phase numerators: chi_c(g) = exp(2*pi*i * P[c, g] / exponent).

        Accumulating the phase in exact integer arithmetic keeps the
        pairing an exact root of unity and makes the set where
        ``chi_c(g) = 1`` decidable without float comparisons.
        """
        n = self.exponent
        weights = np.array([n // f for f in self.factors], dtype=np.int64)
        r = self.residues.astype(np.int64)
        table = (r * weights) @ r.T
        table %= n
        table.setflags(write=False)
        return table

    @cached_property
    def char_table(self) -> np.ndarray:
        """Complex character table X[c, g] = chi_c(g)."""
        roots = np.exp(2j * np.pi * np.arange(self.exponent) / self.exponent)
        table = roots[self.char_phase]
        table.setflags(write=False)
        return table

    @cached_property
    def char_table_conj(self) -> np.ndarray:
        """conj(X[c, g]) = conj(chi_c(g)), made once for the transforms that read it on every call."""
        table = self.char_table.conj()
        table.setflags(write=False)
        return table

    def _reduced(self, residues: Sequence[int]) -> tuple[int, ...]:
        """One residue per factor, reduced mod that factor."""
        residues = _integers(residues, "residues")
        if len(residues) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} residues, got {len(residues)}")
        return tuple(r % n for r, n in zip(residues, self.factors))

    def index_of(self, residues: Sequence[int]) -> int:
        return int(np.ravel_multi_index(self._reduced(residues), self.factors))

    def residues_of(self, index: int) -> tuple[int, ...]:
        (index,) = _integers([index], "element indices")
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range for {self}")
        return tuple(self.residues[index].tolist())

    def element(self, residues: Sequence[int]) -> "Element":
        return Element(self, self._reduced(residues))

    def element_by_index(self, index: int) -> "Element":
        return Element(self, self.residues_of(index))

    def character(self, label: Sequence[int]) -> "Character":
        return Character(self, self._reduced(label))

    def character_by_index(self, index: int) -> "Character":
        return Character(self, self.residues_of(index))

    @property
    def zero(self) -> "Element":
        return Element(self, (0,) * len(self.factors))

    @property
    def trivial_character(self) -> "Character":
        return Character(self, (0,) * len(self.factors))

    def elements(self) -> Iterable["Element"]:
        return (self.element_by_index(i) for i in range(self.order))

    def characters(self) -> Iterable["Character"]:
        return (self.character_by_index(i) for i in range(self.order))

    def to_json(self) -> dict:
        return {"factors": list(self.factors)}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteAbelianGroup":
        return cls(tuple(json_object(obj, ("factors",))["factors"]))


def _residue_tuple(group: FiniteAbelianGroup, values: Iterable, what: str) -> tuple[int, ...]:
    """values as one in-range Python int per factor of group."""
    values = _integers(values, what)
    if len(values) != len(group.factors):
        raise ValueError(f"{what} tuple length does not match the number of factors")
    if min(values) < 0 or not all(map(operator.lt, values, group.factors)):
        raise ValueError(f"{what} {values} out of range for {group}")
    return values


def _check_group(group: FiniteAbelianGroup, *operands) -> None:
    """Raise ``GroupMismatchError`` naming the first operand not on group."""
    for x in operands:
        if x.group != group:
            raise GroupMismatchError(f"{type(x).__name__} lives on {x.group}, expected {group}")


@dataclass(frozen=True)
class Element:
    """Group element as a residue tuple."""

    group: FiniteAbelianGroup
    residues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "residues", _residue_tuple(self.group, self.residues, "residues"))

    @cached_property
    def index(self) -> int:
        return self.group.index_of(self.residues)

    def __add__(self, other: "Element") -> "Element":
        _check_group(self.group, other)
        return self.group.element([a + b for a, b in zip(self.residues, other.residues)])

    def __neg__(self) -> "Element":
        return self.group.element([-a for a in self.residues])

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __repr__(self) -> str:
        return "(" + ",".join(str(r) for r in self.residues) + ")"


@dataclass(frozen=True)
class Character:
    """Character of the group, labeled by a residue tuple of the same moduli."""

    group: FiniteAbelianGroup
    label: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "label", _residue_tuple(self.group, self.label, "label"))

    @cached_property
    def index(self) -> int:
        return self.group.index_of(self.label)

    def __mul__(self, other: "Character") -> "Character":
        _check_group(self.group, other)
        return self.group.character([a + b for a, b in zip(self.label, other.label)])

    def conjugate(self) -> "Character":
        return self.group.character([-c for c in self.label])

    def __call__(self, g: Element) -> complex:
        _check_group(self.group, g)
        return complex(self.group.char_table[self.index, g.index])

    def __repr__(self) -> str:
        return "chi(" + ",".join(str(c) for c in self.label) + ")"


def pair(chi: Character, g: Element) -> complex:
    """Evaluate the dual pairing chi(g); an exact root of unity."""
    return chi(g)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup given by the sorted tuple of its element indices."""

    group: FiniteAbelianGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        idx = _integers(self.elements, "subgroup element indices")
        object.__setattr__(self, "elements", idx)
        if not idx or idx[0] != 0 or tuple(sorted(set(idx))) != idx:
            raise ValueError("subgroup must be a sorted duplicate-free index tuple containing 0")
        if idx[-1] >= self.group.order:
            raise ValueError(f"element index {idx[-1]} out of range for {self.group}")
        if not self.mask()[self.group.add_table[np.ix_(idx, idx)]].all():
            raise ValueError("index set is not closed under the group operation")

    @property
    def order(self) -> int:
        return len(self.elements)

    def mask(self) -> np.ndarray:
        out = np.zeros(self.group.order, dtype=bool)
        out[list(self.elements)] = True
        return out

    def __contains__(self, item) -> bool:
        if isinstance(item, Element):
            _check_group(self.group, item)
            index = item.index
        else:
            (index,) = _integers([item], "element indices")
        i = bisect_left(self.elements, index)
        return i < len(self.elements) and self.elements[i] == index

    @classmethod
    def from_generators(cls, group: FiniteAbelianGroup, generators: Iterable[Element | int]) -> "Subgroup":
        members: tuple[int, ...] = (0,)
        for g in generators:
            if isinstance(g, Element):
                _check_group(group, g)
                index = g.index
            else:
                (index,) = _integers([g], "generator indices")
                if not 0 <= index < group.order:
                    raise ValueError(f"generator index {index} out of range for {group}")
            members = _extend_subgroup(group, members, index)
        return cls(group, members)

    def __repr__(self) -> str:
        return f"Subgroup{list(self.elements)} of {self.group}"


def _extend_subgroup(group: FiniteAbelianGroup, base: tuple[int, ...], g: int) -> tuple[int, ...]:
    # base is a subgroup; adjoin g by unioning the cosets base + m*g.
    add = group.add_table
    base_set = set(base)
    members = set(base)
    mg = g
    while mg not in base_set:
        members.update(int(add[h, mg]) for h in base)
        mg = int(add[mg, g])
    return tuple(sorted(members))


@lru_cache(maxsize=None)
def enumerate_subgroups(group: FiniteAbelianGroup) -> tuple[Subgroup, ...]:
    """All subgroups, sorted by (order, canonical index tuple).

    Built in two halves split at s = isqrt(|G|).  The small half, every
    subgroup of order at most s, is a breadth-first closure from the
    trivial subgroup that adjoins one generator of each cyclic subgroup of
    order at most s and keeps only results of order at most s.  It reaches
    every small subgroup K: K is the join of its cyclic subgroups, each of
    order at most |K| <= s, and adjoining them one at a time passes only
    through subgroups of K.  The large half is the annihilators of the
    small half.  The integer phase table is symmetric, so ``annihilator``
    of a subgroup, read as element indices, is again an element subgroup,
    and H -> ann(H) is an involution with |H| * |ann(H)| = |G|.  So every
    H of order above s is ann(ann(H)), where ann(H) has order
    |G| / |H| < (s + 1)^2 / (s + 1), that is at most s.
    """
    if group.order > SUBGROUP_ORDER_BOUND:
        raise SubgroupBoundError(
            f"group order {group.order} exceeds the enumeration bound {SUBGROUP_ORDER_BOUND}"
        )
    small = math.isqrt(group.order)
    factors = np.array(group.factors)
    orders = np.lcm.reduce(factors // np.gcd(group.residues, factors), axis=1)
    trivial = (0,)
    cyclic: dict[tuple[int, ...], int] = {}
    for g in np.flatnonzero((orders > 1) & (orders <= small)).tolist():
        cyclic.setdefault(_extend_subgroup(group, trivial, g), g)
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for base in frontier:
            for g in cyclic.values():
                extended = _extend_subgroup(group, base, g)
                if len(extended) <= small and extended not in seen:
                    seen.add(extended)
                    # adjoining an element outside a subgroup at least doubles it
                    if 2 * len(extended) <= small:
                        nxt.append(extended)
        frontier = nxt
    # unions of cosets of a subgroup: sorted, closed tuples of Python ints
    lattice = {t: _wrap(Subgroup, group, elements=t) for t in seen}
    for sub in list(lattice.values()):
        ann = annihilator(group, sub)
        lattice.setdefault(ann.elements, ann)
    return tuple(lattice[t] for t in sorted(lattice, key=lambda t: (len(t), t)))


@lru_cache(maxsize=None)
def annihilator(group: FiniteAbelianGroup, subgroup: Subgroup) -> Subgroup:
    """Characters trivial on the subgroup, as a subgroup of label indices.

    Decided exactly on the integer phase table, so no float tolerance is
    involved.  The labels are sorted, contain the trivial character, and
    are closed because the characters trivial on a set form a subgroup.
    """
    _check_group(group, subgroup)
    cols = group.char_phase[:, list(subgroup.elements)]
    labels = np.nonzero(~cols.any(axis=1))[0]
    return _wrap(Subgroup, group, elements=tuple(labels.tolist()))


def coset_labels(group: FiniteAbelianGroup, subgroup: Subgroup) -> np.ndarray:
    """Label of every element's coset: the smallest index in ``g + H``.

    Two elements share a coset exactly when their labels agree, and the
    labels are the minimal-index representatives.  Read on the dual, with
    ``subgroup`` a subgroup of label indices, it labels character cosets.
    """
    _check_group(group, subgroup)
    return group.add_table[:, list(subgroup.elements)].min(axis=1)


def coset_reps(group: FiniteAbelianGroup, subgroup: Subgroup) -> list[Element]:
    """Minimal-index representative of every coset, in index order."""
    return [group.element_by_index(int(i)) for i in np.unique(coset_labels(group, subgroup))]


def parse_group(text: str) -> FiniteAbelianGroup:
    """Parse a specification like ``Z4xZ2`` into a group.

    The grammar is ``factor ('x' factor)*`` with ``factor = 'Z' integer``,
    case-insensitive and whitespace-tolerant.  Errors carry the position
    of the offending character in the original string.
    """
    factors: list[int] = []
    positions: list[int] = []
    i = 0
    n = len(text)

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    if i == n:
        raise GroupSpecError("empty group specification", i)
    while True:
        if i >= n or text[i] not in "zZ":
            raise GroupSpecError("expected 'Z'", i)
        i = skip_ws(i + 1)
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if start == i:
            raise GroupSpecError("expected an integer after 'Z'", i)
        value = int(text[start:i])
        if value == 0:
            raise GroupSpecError("cyclic factor must be positive", start)
        factors.append(value)
        positions.append(start)
        if len(factors) > 1 and 1 in factors:
            raise GroupSpecError(
                "'Z1' is only allowed as the lone trivial factor", positions[factors.index(1)]
            )
        i = skip_ws(i)
        if i == n:
            break
        if text[i] not in "xX":
            raise GroupSpecError("expected 'x' between factors", i)
        i = skip_ws(i + 1)
    return FiniteAbelianGroup(tuple(factors))
