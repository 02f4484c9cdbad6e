import hashlib
import math

import numpy as np
import pytest

from kdlab.classify import make_subgroup_state
from kdlab.errors import (
    GroupMismatchError,
    GroupSpecError,
    SubgroupBoundError,
    UnsupportedOrderError,
)
from kdlab.groups import (
    Character,
    Element,
    FiniteAbelianGroup,
    Subgroup,
    annihilator,
    coset_labels,
    coset_reps,
    enumerate_subgroups,
    pair,
    parse_group,
)
from kdlab.harmonic import DualFunction, GFunction, haar_density
from kdlab.kd import kohn_nirenberg
from kdlab.operators import Operator, PhaseSpaceFunction
from kdlab.weyl import WHElement, wh_conjugate, wh_identity, wh_mul

from conftest import BATTERY, brute_force_subgroups, char_oracle, divisor_count

SUBGROUP_COUNTS = {
    "Z2": 2, "Z3": 2, "Z4": 3, "Z2xZ2": 5, "Z6": 4, "Z8": 4, "Z9": 3,
    "Z2xZ4": 8, "Z3xZ3": 6, "Z12": 6, "Z2xZ2xZ2": 16,
}


def test_parse_group_accepts_standard_specs():
    assert parse_group("Z4xZ2").factors == (4, 2)
    assert parse_group("Z4xZ2").order == 8
    assert parse_group("z6").factors == (6,)
    assert parse_group("  Z2 x Z2  ").factors == (2, 2)
    assert parse_group("z 12").factors == (12,)
    assert parse_group("Z1").order == 1
    assert parse_group("Z1").factors == (1,)


def test_parse_group_rejects_bad_specs():
    for bad in ["", "x", "Z", "Z4x", "xZ4", "4", "Z0", "Z-2", "Z4yZ2", "Z4 Z2"]:
        with pytest.raises(GroupSpecError):
            parse_group(bad)


def test_parse_group_rejects_trivial_factor_in_products():
    # Z1 denotes the trivial group only on its own; the position points
    # at the offending integer
    with pytest.raises(GroupSpecError) as info:
        parse_group("Z1xZ4")
    assert info.value.position == 1
    with pytest.raises(GroupSpecError) as info:
        parse_group("Z4xZ1")
    assert info.value.position == 4


def test_parse_error_positions_point_at_offending_token():
    with pytest.raises(GroupSpecError) as info:
        parse_group("Z4xZ0")
    assert info.value.position == 4
    with pytest.raises(GroupSpecError) as info:
        parse_group("Z4*Z2")
    assert info.value.position == 2


def test_element_arithmetic_examples():
    z4 = parse_group("Z4")
    assert (z4.element([3]) + z4.element([2])).residues == (1,)
    z22 = parse_group("Z2xZ2")
    assert (z22.element([1, 0]) + z22.element([1, 1])).residues == (0, 1)
    z6 = parse_group("Z6")
    assert (-z6.element([4])).residues == (2,)


def test_element_index_roundtrip(battery_group):
    group = battery_group
    for i in range(group.order):
        el = group.element_by_index(i)
        assert el.index == i
        assert group.index_of(el.residues) == i


Z4, Z2XZ2 = FiniteAbelianGroup((4,)), FiniteAbelianGroup((2, 2))
REJECTIONS = {
    "no-factor": (lambda: FiniteAbelianGroup(()), "at least one cyclic factor"),
    "factor-1-in-product": (lambda: FiniteAbelianGroup((3, 1)), "at least 2"),
    "element-index-past-order": (lambda: Z4.element_by_index(4), "out of range"),
    "negative-character-index": (lambda: Z4.character_by_index(-1), "out of range"),
    "short-residues": (lambda: Element(Z2XZ2, (1,)), "length does not match"),
    "long-label": (lambda: Character(Z2XZ2, (0, 0, 1)), "length does not match"),
    "residue-past-modulus": (lambda: Element(Z4, (4,)), "out of range"),
    "negative-label": (lambda: Character(Z4, (-1,)), "out of range"),
}


@pytest.mark.parametrize("make,message", list(REJECTIONS.values()), ids=list(REJECTIONS))
def test_constructors_reject_malformed_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_mixed_group_arithmetic_rejected():
    a = parse_group("Z4").element([1])
    b = parse_group("Z2xZ2").element([1, 0])
    with pytest.raises(GroupMismatchError):
        a + b


def _function(kind, group):
    return kind(group, np.ones(group.order, dtype=complex))


def _table(group):
    return PhaseSpaceFunction(group, np.ones((group.order,) * 2, dtype=complex))


# Each site of a group-agreement check, called with operands on groups a and b.
MISMATCH_SITES = {
    "Element.__add__": lambda a, b: a.zero + b.zero,
    "Character.__mul__": lambda a, b: a.trivial_character * b.trivial_character,
    "Character.__call__": lambda a, b: a.trivial_character(b.zero),
    "Subgroup.__contains__": lambda a, b: b.zero in Subgroup(a, (0,)),
    "Subgroup.from_generators": lambda a, b: Subgroup.from_generators(a, [b.zero]),
    "annihilator": lambda a, b: annihilator(a, Subgroup(b, (0,))),
    "coset_labels": lambda a, b: coset_labels(a, Subgroup(b, (0,))),
    "GFunction.inner": lambda a, b: _function(GFunction, a).inner(_function(GFunction, b)),
    "DualFunction.inner": lambda a, b: _function(DualFunction, a).inner(_function(DualFunction, b)),
    "haar_density": lambda a, b: haar_density(a, Subgroup(b, (0,))),
    "Operator.apply": lambda a, b: Operator.identity(a).apply(_function(GFunction, b)),
    "Operator.compose": lambda a, b: Operator.identity(a).compose(Operator.identity(b)),
    "Operator.hs_inner": lambda a, b: Operator.identity(a).hs_inner(Operator.identity(b)),
    "Operator.__add__": lambda a, b: Operator.identity(a) + Operator.identity(b),
    "Operator.__sub__": lambda a, b: Operator.identity(a) - Operator.identity(b),
    "PhaseSpaceFunction.inner": lambda a, b: _table(a).inner(_table(b)),
    "PhaseSpaceFunction.__add__": lambda a, b: _table(a) + _table(b),
    "PhaseSpaceFunction.__sub__": lambda a, b: _table(a) - _table(b),
    "WHElement.__post_init__": lambda a, b: WHElement(a.zero, b.trivial_character),
    "wh_mul": lambda a, b: wh_mul(wh_identity(a), wh_identity(b)),
    "wh_conjugate": lambda a, b: wh_conjugate(Operator.identity(a), wh_identity(b)),
    "kohn_nirenberg": lambda a, b: kohn_nirenberg(_function(GFunction, a), _function(DualFunction, b)),
    "make_subgroup_state": lambda a, b: make_subgroup_state(Subgroup(a, (0,)), b.zero, a.trivial_character),
}


@pytest.mark.parametrize("site", MISMATCH_SITES)
def test_group_mismatch_names_both_groups(site):
    # Z4 and Z2xZ2 have the same order, so only the group check tells them apart
    z4, z2xz2 = parse_group("Z4"), parse_group("Z2xZ2")
    with pytest.raises(GroupMismatchError) as caught:
        MISMATCH_SITES[site](z4, z2xz2)
    assert "Z4" in str(caught.value) and "Z2xZ2" in str(caught.value)


def test_pairing_examples():
    z4 = parse_group("Z4")
    assert pair(z4.character([1]), z4.element([3])) == pytest.approx(-1j)
    assert pair(z4.character([2]), z4.zero) == pytest.approx(1.0)
    z22 = parse_group("Z2xZ2")
    assert pair(z22.character([1, 1]), z22.element([1, 0])) == pytest.approx(-1.0)


def test_pairing_matches_oracle_everywhere(battery_group):
    group = battery_group
    for ci in range(group.order):
        for gi in range(group.order):
            expected = char_oracle(group, group.residues[ci], group.residues[gi])
            assert group.char_table[ci, gi] == pytest.approx(expected, abs=1e-12)


def test_pairing_is_a_bicharacter(battery_group):
    group = battery_group
    rng = np.random.default_rng(3)
    X = group.char_table
    add = group.add_table
    for _ in range(200):
        c, c2, g, g2 = rng.integers(group.order, size=4)
        assert X[c, add[g, g2]] == pytest.approx(X[c, g] * X[c, g2], abs=1e-12)
        assert X[add[c, c2], g] == pytest.approx(X[c, g] * X[c2, g], abs=1e-12)
        assert abs(X[c, g]) == pytest.approx(1.0, abs=1e-15)


def test_character_conjugate_and_product():
    z4 = parse_group("Z4")
    chi1 = z4.character([1])
    assert (chi1 * chi1).label == (2,)
    assert chi1.conjugate().label == (3,)
    g = z4.element([1])
    assert chi1.conjugate()(g) == pytest.approx(np.conj(chi1(g)))


def test_subgroup_counts_match_brute_force():
    for name in BATTERY:
        group = parse_group(name)
        subgroups = enumerate_subgroups(group)
        assert len(subgroups) == SUBGROUP_COUNTS[name]
        found = {s.elements for s in subgroups}
        assert found == brute_force_subgroups(group)


# sha256 of repr([s.elements for s in enumerate_subgroups(group)]) as the
# all-elements breadth-first closure produced it, and the subgroup counts
# from theory: one per divisor for Z_n, the Gaussian binomial sum
# sum_j binom(k, j)_p for (Z_p)^k (1+63+651+1395+651+63+1 for (Z2)^6,
# 1+40+130+40+1 for (Z3)^4), and 1+6+6+1 of orders 1, 5, 25, 125 for Z5xZ25.
PINNED_LATTICES = {
    "Z1": (1, "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42"),
    "Z512": (10, "7158eb88ca80f555d7208633bbde9e413f3526d59d5cad2174ce438b054e0931"),
    "Z5xZ25": (14, "a4fe56c858a2e60ec3cb55b84329fa5cb1352e4029b360fc0933b46915998cab"),
    "Z9xZ3": (10, "c4661f8395eca7940b441abc28f618496a8b24a757941b70234471a1c4506301"),
    "Z2xZ4xZ8": (81, "cdc7229725b83daeddffb4a3c8c8e68fdd9d16cc6659be5256842a7e68bdd7cf"),
    "Z3xZ3xZ3xZ3": (212, "65074340dea612f432e2f1d609cc3e9f51bdb723865a5c593c823e7aff824865"),
    "Z2xZ2xZ2xZ2xZ2xZ2": (2825, "8b7fde3e440a95971f107003124d4fd16eb3142bc1a8037babb78c55473cfd85"),
}


@pytest.mark.parametrize("spec", list(PINNED_LATTICES))
def test_subgroup_lattice_is_pinned_and_self_dual(spec):
    group = parse_group(spec)
    subgroups = enumerate_subgroups(group)
    count, digest = PINNED_LATTICES[spec]
    assert len(subgroups) == count
    assert hashlib.sha256(repr([s.elements for s in subgroups]).encode()).hexdigest() == digest
    lattice = {s.elements for s in subgroups}
    assert {annihilator(group, s).elements for s in subgroups} == lattice


@pytest.mark.parametrize("spec", BATTERY + list(PINNED_LATTICES))
def test_lattice_and_annihilators_match_the_validating_constructor(spec):
    # enumerate_subgroups and annihilator skip Subgroup's checks; each of
    # their results must be what the public constructor accepts and builds
    group = parse_group(spec)
    for sub in enumerate_subgroups(group):
        for built in (sub, annihilator(group, sub)):
            assert built == Subgroup(group, built.elements)
            assert all(type(i) is int for i in built.elements)


def test_cyclic_subgroup_count_is_divisor_count():
    for n in [2, 3, 4, 6, 8, 9, 12]:
        group = parse_group(f"Z{n}")
        assert len(enumerate_subgroups(group)) == divisor_count(n)


def test_subgroups_sorted_and_contain_trivial_and_full(battery_group):
    group = battery_group
    subgroups = enumerate_subgroups(group)
    orders = [s.order for s in subgroups]
    assert orders == sorted(orders)
    assert subgroups[0].elements == (0,)
    assert subgroups[-1].order == group.order
    for s in subgroups:
        assert group.order % s.order == 0


def test_subgroup_validation_rejects_non_closed_sets():
    z4 = parse_group("Z4")
    with pytest.raises(ValueError):
        Subgroup(z4, (0, 1))
    with pytest.raises(ValueError):
        Subgroup(z4, (1, 2))


def test_subgroup_from_generators():
    z12 = parse_group("Z12")
    sub = Subgroup.from_generators(z12, [z12.element([4])])
    assert sub.elements == (0, 4, 8)


def test_subgroup_from_generators_rejects_negative_index():
    # -1 used to index the addition table from the end and return all of Z4
    with pytest.raises(ValueError, match="out of range"):
        Subgroup.from_generators(parse_group("Z4"), [-1])


def test_subgroup_from_generators_rejects_index_past_order():
    with pytest.raises(ValueError, match="out of range"):
        Subgroup.from_generators(parse_group("Z4"), [7])


def test_subgroup_from_generators_rejects_foreign_element():
    foreign = parse_group("Z2xZ2").element([1, 1])
    with pytest.raises(GroupMismatchError):
        Subgroup.from_generators(parse_group("Z4"), [foreign])


def test_subgroup_rejects_index_past_order():
    with pytest.raises(ValueError, match="out of range"):
        Subgroup(parse_group("Z4"), (0, 2, 5))


@pytest.mark.parametrize("entry", [2.0, np.float64(2.0), 2.5, "2", None],
                         ids=["float", "float64", "fraction", "str", "None"])
def test_subgroup_rejects_non_integer_indices(entry):
    # a float used to reach the addition table and raise a raw IndexError
    with pytest.raises(ValueError, match="must be integers"):
        Subgroup(parse_group("Z4"), (0, entry))


@pytest.mark.parametrize("bad", [1.5, 2.5, "3", np.float64(4.7), math.inf],
                         ids=["1.5", "2.5", "str", "float64", "inf"])
@pytest.mark.parametrize("read", [
    lambda z4, v: FiniteAbelianGroup((v,)),
    lambda z4, v: z4.element([v]),
    lambda z4, v: z4.character([v]),
    lambda z4, v: z4.index_of([v]),
    lambda z4, v: z4.element_by_index(v),
    lambda z4, v: z4.character_by_index(v),
    lambda z4, v: Subgroup.from_generators(z4, [v]),
    lambda z4, v: v in Subgroup(z4, (0, 2)),
    lambda z4, v: Element(z4, (v,)),
    lambda z4, v: Character(z4, (v,)),
], ids=["factors", "element", "character", "index_of", "element_by_index",
        "character_by_index", "from_generators", "contains", "Element", "Character"])
def test_integer_inputs_reject_non_integers(read, bad):
    # int() used to truncate these: a factor 2.5 made Z2, a residue 1.5 the
    # residue 1, a generator 1.5 all of Z4; inf overflowed; Element(Z4, (1.5,))
    # was built and printed (1.5)
    with pytest.raises(ValueError, match="must be integers"):
        read(parse_group("Z4"), bad)


@pytest.mark.parametrize("entry", [2, np.int64(2), np.uint8(2)], ids=["int", "int64", "uint8"])
def test_subgroup_stores_python_ints(entry):
    sub = Subgroup(parse_group("Z4"), (0, entry))
    assert sub.elements == (0, 2)
    assert all(type(i) is int for i in sub.elements)
    assert repr(sub) == "Subgroup[0, 2] of Z4"
    assert sub == Subgroup(parse_group("Z4"), (0, 2))


@pytest.mark.parametrize("entry", [1, np.int64(1), np.uint8(1)], ids=["int", "int64", "uint8"])
@pytest.mark.parametrize("kind", [Element, Character])
def test_element_and_character_store_python_ints(kind, entry):
    z2xz4 = parse_group("Z2xZ4")
    value = kind(z2xz4, [entry, 3])
    assert value == kind(z2xz4, (1, 3))
    assert all(type(r) is int for r in (value.residues if kind is Element else value.label))
    assert repr(value).endswith("(1,3)")


def test_subgroup_membership():
    z22 = parse_group("Z2xZ2")
    sub = Subgroup(z22, (0, 2))
    assert z22.element([1, 0]) in sub
    assert z22.element([0, 1]) not in sub
    assert [i in sub for i in range(-1, 5)] == [False, True, False, True, False, False]
    # a Z4 element with index 2 used to be answered by its index alone
    with pytest.raises(GroupMismatchError):
        parse_group("Z4").element([2]) in sub


def _closure_oracle(group, generators):
    """Sums of generators by residue arithmetic until nothing new appears."""
    gens = [group.residues_of(g) for g in generators]
    members = {(0,) * len(group.factors)}
    while True:
        grown = members | {
            tuple((a + b) % n for a, b, n in zip(m, g, group.factors)) for m in members for g in gens
        }
        if grown == members:
            return tuple(sorted(group.index_of(m) for m in members))
        members = grown


def test_subgroup_from_several_generators(battery_group):
    group = battery_group
    rng = np.random.default_rng(211)
    for _ in range(8):
        picks = [int(i) for i in rng.integers(group.order, size=rng.integers(1, 4))]
        picks += [picks[0], 0]
        rng.shuffle(picks)
        generators = [group.element_by_index(i) if k % 2 else i for k, i in enumerate(picks)]
        sub = Subgroup.from_generators(group, generators)
        assert sub.elements == _closure_oracle(group, picks)
    assert Subgroup.from_generators(group, []).elements == (0,)


def test_enumeration_bound_enforced():
    with pytest.raises(SubgroupBoundError):
        enumerate_subgroups(parse_group("Z1024"))


def test_annihilator_examples():
    z4 = parse_group("Z4")
    h = Subgroup(z4, (0, 2))
    assert annihilator(z4, h).elements == (0, 2)
    assert annihilator(z4, Subgroup(z4, (0,))).order == 4
    assert annihilator(z4, Subgroup(z4, tuple(range(4)))).elements == (0,)


def test_annihilator_duality(battery_group):
    group = battery_group
    for sub in enumerate_subgroups(group):
        ann = annihilator(group, sub)
        assert sub.order * ann.order == group.order
        assert annihilator(group, ann).elements == sub.elements
        # every annihilator character is exactly 1 on the subgroup
        rows = np.array(ann.elements)
        cols = np.array(sub.elements)
        assert np.max(np.abs(group.char_table[np.ix_(rows, cols)] - 1.0)) == 0.0


def test_coset_reps_partition(battery_group):
    group = battery_group
    for sub in enumerate_subgroups(group):
        reps = coset_reps(group, sub)
        assert len(reps) == group.order // sub.order
        seen = set()
        members = list(sub.elements)
        for rep in reps:
            coset = frozenset(group.add_table[rep.index, members].tolist())
            assert rep.index == min(coset)
            seen.update(coset)
        assert seen == set(range(group.order))


def test_coset_reps_examples():
    z4 = parse_group("Z4")
    reps = coset_reps(z4, Subgroup(z4, (0, 2)))
    assert [r.index for r in reps] == [0, 1]
    z22 = parse_group("Z2xZ2")
    reps = coset_reps(z22, Subgroup(z22, (0, 2)))  # {(0,0),(1,0)}
    assert [r.residues for r in reps] == [(0, 0), (0, 1)]


def test_doubling_examples():
    z3 = parse_group("Z3")
    assert z3.halve_table[z3.element([1]).index] == z3.element([2]).index
    z9 = parse_group("Z9")
    assert z9.element_by_index(int(z9.halve_table[z9.element([1]).index])).residues == (5,)
    with pytest.raises(UnsupportedOrderError):
        parse_group("Z4").halve_table


def test_doubling_is_cached():
    # one halving table per group, built once
    z9 = parse_group("Z9")
    assert z9.halve_table is z9.halve_table


def test_doubling_halve_is_inverse(battery_group):
    group = battery_group
    if group.order % 2 == 0:
        with pytest.raises(UnsupportedOrderError):
            group.halve_table
        return
    for el in group.elements():
        half = group.element_by_index(int(group.halve_table[el.index]))
        assert (half + half).index == el.index


INDEX_TABLE_GROUPS = BATTERY + ["Z512", "Z2xZ2xZ2xZ2xZ2xZ2"]


@pytest.mark.parametrize("spec", INDEX_TABLE_GROUPS)
def test_index_tables_match_element_arithmetic(spec):
    # every pair up to order 64; on Z512 every column of 16 seeded rows
    group = parse_group(spec)
    elements = list(group.elements())
    rows = range(group.order)
    if group.order > 64:
        rows = np.random.default_rng(0).choice(group.order, size=16, replace=False).tolist()
    for a in rows:
        assert group.add_table[a].tolist() == [(elements[a] + b).index for b in elements]
        assert group.diff_table[a].tolist() == [(elements[a] - b).index for b in elements]
    for table in (group.add_table, group.diff_table):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1


@pytest.mark.parametrize("spec", INDEX_TABLE_GROUPS)
def test_halve_table_doubles_back_to_the_identity(spec):
    group = parse_group(spec)
    if any(n % 2 == 0 for n in group.factors):
        for _ in range(2):   # a refused access caches nothing, so the next one raises too
            with pytest.raises(UnsupportedOrderError, match=f"not invertible on {group}: even factor"):
                group.halve_table
        return
    half = group.halve_table
    assert not half.flags.writeable
    assert np.array_equal(group.add_table[half, half], np.arange(group.order))


def test_group_json_roundtrip(battery_group):
    group = battery_group
    again = FiniteAbelianGroup.from_json(group.to_json())
    assert again == group


def test_written_factor_order_is_preserved():
    assert parse_group("Z2xZ3").factors == (2, 3)
    assert parse_group("Z3xZ2").factors == (3, 2)
    assert parse_group("Z2xZ3") != parse_group("Z6")
