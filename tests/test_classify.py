import dataclasses
import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from kdlab.classify import (
    KdPureState,
    _family,
    _lattice_cosets,
    enumerate_kd_positive_pure,
    make_subgroup_state,
    recognize_kd_positive_pure,
)
from kdlab.errors import GroupMismatchError, PreconditionError
from kdlab.groups import (
    Character,
    Element,
    FiniteAbelianGroup,
    Subgroup,
    annihilator,
    enumerate_subgroups,
    parse_group,
)
from kdlab.harmonic import GFunction
from kdlab.kd import kd
from kdlab.weyl import WHElement, wh_conjugate

from conftest import BATTERY


FAMILY_SIZES = {"Z2": 4, "Z4": 12, "Z2xZ2": 20, "Z6": 24}


@pytest.mark.parametrize("name,count", sorted(FAMILY_SIZES.items()))
def test_family_sizes_frozen(name, count):
    group = parse_group(name)
    assert len(enumerate_kd_positive_pure(group)) == count


# sha256 of repr([(m.subgroup.elements, m.g_rep.residues, m.chi_rep.label)
# for m in members]) and of _family(group).vectors.tobytes(), as the family
# built them when each coset representative was its own checked Element and
# Character: member order, representatives and vector bits must not move.
PINNED_FAMILIES = {
    "Z6": ("eac1ee1ed87c7ba1c38035ba7bc079c45bc064b2220aac4efd27beea224bef9c",
           "e0cefb3c8820088a7f8d03f0a06b31d6708769ca1b85fdf778c95c9a70fd356d"),
    "Z2xZ4": ("cc140909b05a1c12b58eb655296dffa0d0c430f20efc480d0087b4932b36720d",
              "199b94b5e368af59b7555328900a0d7e7462ed8d37baa8bff61cb3e204436021"),
    "Z2xZ2xZ2xZ2": ("6f8635844b53312ab0e0a99ce898c30640bdaff7020a3cf8ad6d67cf5fa8a46a",
                    "6f96cafab5eff48a3bdce48689ff357e4dc223d43aaaa7bfb9e726aa5a7871f7"),
    "Z3xZ3xZ3": ("d965502fae3f26e558f14a1ebe5160b40411a108fd9c9cade45068b8fc72d158",
                 "9ae18ea6c7e3b696d168ab2d111d92844ba53a0917dbbc4fc69f341ea733c886"),
    "Z128": ("a87996203f92c10eb15fee21b7a30f73185d21cf9de3d610c550d9c66bfbb970",
             "a8c843b9402b2e0e177699c04d2fdd4553c94748357f0ba51a19ede0abd942f7"),
}


@pytest.mark.parametrize("name", list(PINNED_FAMILIES))
def test_family_is_pinned(name):
    group = parse_group(name)
    members = enumerate_kd_positive_pure(group)
    coset_data = [(m.subgroup.elements, m.g_rep.residues, m.chi_rep.label) for m in members]
    digests = (hashlib.sha256(repr(coset_data).encode()).hexdigest(),
               hashlib.sha256(_family(group).vectors.tobytes()).hexdigest())
    assert digests == PINNED_FAMILIES[name]


@pytest.mark.parametrize("name", ["Z2xZ2xZ2xZ2", "Z6xZ6"])
def test_family_checks_each_element_and_character_once(name, monkeypatch):
    # the family builds one checked Element and Character per index and
    # shares them, rather than one per coset representative per subgroup
    counts = {Element: 0, Character: 0}

    def counting(cls):
        original = cls.__post_init__

        def post_init(self):
            counts[cls] += 1
            original(self)
        return post_init

    for cls in counts:
        monkeypatch.setattr(cls, "__post_init__", counting(cls))
    for cached in (enumerate_subgroups, annihilator, _lattice_cosets, _family):
        cached.cache_clear()
    group = parse_group(name)
    members = enumerate_kd_positive_pure(group)
    assert len(members) == group.order * len(enumerate_subgroups(group))
    assert 0 < counts[Element] <= group.order
    assert 0 < counts[Character] <= group.order


def test_hashing_the_family_computes_each_index_once(monkeypatch):
    # a member's key reads its Element's and Character's index; the members
    # share one of each per index, and each computes its index once
    calls = []
    index_of = FiniteAbelianGroup.index_of

    def counting(self, residues):
        calls.append(residues)
        return index_of(self, residues)

    for cached in (enumerate_subgroups, annihilator, _lattice_cosets, _family):
        cached.cache_clear()
    group = parse_group("Z6xZ6")
    members = enumerate_kd_positive_pure(group)
    monkeypatch.setattr(FiniteAbelianGroup, "index_of", counting)
    assert len(set(members)) == len(members)
    assert len(calls) <= 2 * group.order
    calls.clear()
    set(members)
    assert calls == []


@pytest.mark.parametrize("name", BATTERY + ["Z2xZ2xZ2xZ2", "Z6xZ6"])
def test_members_made_in_place_match_their_constructors(name):
    # _family makes members without calling KdPureState or GFunction; each
    # must be what those constructors make, frozen, and keep viewing its
    # row of the read-only family record
    family = _family(parse_group(name))
    group = family.group   # the cached record's, which an equal group object finds
    names = [f.name for f in dataclasses.fields(KdPureState)]
    for member, row in zip(family.members, family.vectors):
        assert type(member) is KdPureState and type(member.vector) is GFunction
        built = KdPureState(member.subgroup, member.g_rep, member.chi_rep, GFunction(group, member.vector.values))
        for field in names[:-1]:
            assert getattr(member, field) is getattr(built, field)
        assert member.vector.group is built.vector.group
        assert member.vector.values.dtype == built.vector.values.dtype
        assert np.array_equal(member.vector.values, built.vector.values)
        assert vars(member.vector).keys() == vars(built.vector).keys()
        assert np.shares_memory(member.vector.values, row)
        assert not member.vector.values.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            member.g_rep = member.g_rep
        with pytest.raises(dataclasses.FrozenInstanceError):
            del member.vector
    for member in family.members[:: max(1, len(family.members) // 16)]:
        for copy in (pickle.loads(pickle.dumps(member)), dataclasses.replace(member)):
            assert copy == member and copy.key == member.key
            assert np.array_equal(copy.vector.values, member.vector.values)


def test_family_size_formula(battery_group):
    group = battery_group
    family = enumerate_kd_positive_pure(group)
    assert len(family) == group.order * len(enumerate_subgroups(group))
    assert len(set(family)) == len(family)


def test_make_subgroup_state_z4_example():
    z4 = parse_group("Z4")
    h = Subgroup(z4, (0, 2))
    member = make_subgroup_state(h, z4.zero, z4.trivial_character)
    assert member.vector.values == pytest.approx([np.sqrt(2), 0, np.sqrt(2), 0], abs=1e-12)
    table = kd(member.projector())
    expected = np.zeros((4, 4))
    expected[np.ix_([0, 2], [0, 2])] = 1.0
    assert table.values == pytest.approx(expected, abs=1e-12)


def test_make_subgroup_state_edge_subgroups(battery_group):
    group = battery_group
    d = group.order
    whole = Subgroup(group, tuple(range(d)))
    trivial = Subgroup(group, (0,))
    for ci in range(d):
        chi = group.character_by_index(ci)
        member = make_subgroup_state(whole, group.zero, chi)
        assert member.vector.values == pytest.approx(group.char_table[ci], abs=1e-12)
    for gi in range(d):
        g = group.element_by_index(gi)
        member = make_subgroup_state(trivial, g, group.trivial_character)
        expected = np.zeros(d)
        expected[gi] = np.sqrt(d)
        assert member.vector.values == pytest.approx(expected, abs=1e-12)


def test_make_subgroup_state_canonicalizes_cosets():
    z4 = parse_group("Z4")
    h = Subgroup(z4, (0, 2))
    base = make_subgroup_state(h, z4.element_by_index(1), z4.character_by_index(1))
    shifted = make_subgroup_state(h, z4.element_by_index(3), z4.character_by_index(3))
    assert base == shifted
    assert np.max(np.abs(base.vector.values - shifted.vector.values)) == 0.0


def test_make_subgroup_state_group_mismatch():
    z4 = parse_group("Z4")
    z2 = parse_group("Z2")
    h = Subgroup(z4, (0, 2))
    with pytest.raises(GroupMismatchError):
        make_subgroup_state(h, z2.zero, z4.trivial_character)


def test_family_unit_norm_and_indicator(battery_group):
    group = battery_group
    for member in enumerate_kd_positive_pure(group):
        assert abs(member.vector.norm() - 1.0) <= 1e-12
        table = kd(member.projector())
        assert np.max(np.abs(table.values - member.indicator_table().values)) <= 1e-12
        assert table.min_real() >= -1e-12
        assert table.max_abs_imag() <= 1e-12


def test_family_pairwise_distinct(battery_group):
    group = battery_group
    family = enumerate_kd_positive_pure(group)
    mats = np.stack([m.projector().kernel for m in family]) / group.order
    flat = mats.reshape(len(family), -1)
    gram = np.abs(flat.conj() @ flat.T)
    dists = np.sqrt(np.maximum(np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2 * gram.real, 0))
    np.fill_diagonal(dists, np.inf)
    assert dists.min() > 1e-6


@pytest.mark.parametrize("first,second", [("Z4", "Z2xZ2"), ("Z2", "Z3")])
def test_members_of_different_groups_are_distinct(first, second):
    # The first member of each family is the trivial-subgroup state at 0
    # with the trivial character: the same indices in both groups.
    a = enumerate_kd_positive_pure(parse_group(first))[0]
    b = enumerate_kd_positive_pure(parse_group(second))[0]
    assert a.subgroup.elements == b.subgroup.elements
    assert (a.g_rep.index, a.chi_rep.index) == (b.g_rep.index, b.chi_rep.index)
    assert a != b
    assert len({a, b}) == 2
    assert a == enumerate_kd_positive_pure(parse_group(first))[0]


def test_subgroup_annihilator_mass_identity(battery_group):
    group = battery_group
    for h in enumerate_subgroups(group):
        dual = annihilator(group, h)
        assert (h.order / group.order) * dual.order == pytest.approx(1.0)


@pytest.mark.parametrize("name", BATTERY + ["Z128", "Z3xZ3xZ3xZ3"])
def test_subgroup_counts_match_the_per_subgroup_sum(name):
    # N(g, chi) counts the subgroups H with g in H and chi in ann(H); read
    # here from the lattice and the annihilators, not from the coset stack
    group = parse_group(name)
    expected = np.zeros((group.order, group.order), dtype=np.int64)
    for h in enumerate_subgroups(group):
        expected[np.ix_(h.elements, annihilator(group, h).elements)] += 1
    counts = _family(group).N
    assert counts.dtype.kind == "i"
    assert np.array_equal(counts, expected)


def test_recognize_position_state_z2():
    z2 = parse_group("Z2")
    member = recognize_kd_positive_pure(GFunction(z2, [np.sqrt(2), 0.0]))
    assert member is not None
    assert member.subgroup.elements == (0,)
    assert member.g_rep.index == 0


def test_recognize_is_phase_invariant():
    z2 = parse_group("Z2")
    psi = GFunction(z2, np.exp(1j * np.pi / 7) * z2.char_table[1])
    member = recognize_kd_positive_pure(psi)
    assert member is not None
    assert member.subgroup.order == 2
    assert member.chi_rep.index == 1


def test_recognize_rejects_negative_state():
    z2 = parse_group("Z2")
    psi = GFunction(z2, [1.2, np.sqrt(0.56)])
    assert recognize_kd_positive_pure(psi) is None


def test_recognize_rejects_small_perturbations(battery_group):
    group = battery_group
    d = group.order
    rng = np.random.default_rng(109)
    family = enumerate_kd_positive_pure(group)
    for k in range(min(10, len(family))):
        base = family[int(rng.integers(len(family)))].vector.values
        noise = rng.normal(size=d) + 1j * rng.normal(size=d)
        # remove the component along the member so the error is purely transverse
        noise -= (np.vdot(base, noise) / np.vdot(base, base)) * base
        noise *= 1e-3 / (np.linalg.norm(noise) / np.sqrt(d))
        bumped = base + noise
        bumped /= np.linalg.norm(bumped) / np.sqrt(d)
        assert recognize_kd_positive_pure(GFunction(group, bumped)) is None


def test_recognize_accepts_every_member(battery_group):
    group = battery_group
    rng = np.random.default_rng(113)
    for member in enumerate_kd_positive_pure(group):
        phase = np.exp(2j * np.pi * rng.random())
        found = recognize_kd_positive_pure(GFunction(group, phase * member.vector.values))
        assert found == member


def test_recognize_copies_no_family_stack():
    # Z256: the member-vector stack is 9.4 MB; a warm recognition reads it
    # in place, allocating only the overlaps
    group = parse_group("Z256")
    member = enumerate_kd_positive_pure(group)[1000]
    recognize_kd_positive_pure(member.vector)
    tracemalloc.start()
    found = recognize_kd_positive_pure(member.vector)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert found == member
    assert peak <= 1_000_000


def test_recognize_rejects_non_normalized():
    z2 = parse_group("Z2")
    with pytest.raises(PreconditionError):
        recognize_kd_positive_pure(GFunction(z2, [1.0, 0.0]))


def test_family_closed_under_displacement(battery_group):
    group = battery_group
    rng = np.random.default_rng(127)
    family = enumerate_kd_positive_pure(group)
    for _ in range(10):
        member = family[int(rng.integers(len(family)))]
        a = WHElement(
            group.element_by_index(int(rng.integers(group.order))),
            group.character_by_index(int(rng.integers(group.order))),
            1.0,
        )
        moved = wh_conjugate(member.projector(), a)
        # recover the pure vector from the rank-one kernel
        eigvals, eigvecs = np.linalg.eigh(moved.kernel / group.order)
        top = eigvecs[:, -1] * np.sqrt(group.order)
        assert recognize_kd_positive_pure(GFunction(group, top)) is not None


def test_family_json_shape():
    z4 = parse_group("Z4")
    family = enumerate_kd_positive_pure(z4)
    blob = [m.to_json() for m in family]
    assert len(blob) == len(family)
    first = blob[0]
    assert set(first) == {"H", "g", "chi", "vector"}
    assert first["H"] == list(family[0].subgroup.elements)
    assert len(first["vector"]) == 4
