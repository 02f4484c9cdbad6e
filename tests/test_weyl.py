import numpy as np
import pytest

from kdlab.classify import enumerate_kd_positive_pure, recognize_kd_positive_pure
from kdlab.errors import PreconditionError
from kdlab.groups import parse_group
from kdlab.harmonic import GFunction
from kdlab.kd import kd
from kdlab.operators import Operator
from kdlab.weyl import WHElement, wh_conjugate, wh_identity, wh_inv, wh_mul, wh_unitary

from conftest import random_operator


def _random_wh(group, rng):
    g = group.element_by_index(int(rng.integers(group.order)))
    chi = group.character_by_index(int(rng.integers(group.order)))
    z = np.exp(2j * np.pi * rng.random())
    return WHElement(g, chi, z)


def _wh_close(a, b, tol=1e-12):
    return a.g == b.g and a.chi == b.chi and abs(a.z - b.z) <= tol


def test_group_law_examples():
    z4 = parse_group("Z4")
    a = WHElement(z4.element([1]), z4.character([1]), 1.0)
    sq = wh_mul(a, a)
    assert sq.g.residues == (2,)
    assert sq.chi.label == (2,)
    assert sq.z == pytest.approx(-1j)

    z2 = parse_group("Z2")
    b = WHElement(z2.element([1]), z2.character([1]), 1.0)
    sq = wh_mul(b, b)
    assert sq.g.residues == (0,)
    assert sq.chi.label == (0,)
    assert sq.z == pytest.approx(-1.0)


def test_identity_laws(battery_group):
    group = battery_group
    rng = np.random.default_rng(2)
    e = wh_identity(group)
    for _ in range(20):
        a = _random_wh(group, rng)
        assert _wh_close(wh_mul(a, e), a)
        assert _wh_close(wh_mul(e, a), a)
        assert _wh_close(wh_mul(a, wh_inv(a)), e)
        assert _wh_close(wh_inv(wh_inv(a)), a)


def test_inverse_example():
    z4 = parse_group("Z4")
    a = WHElement(z4.element([1]), z4.character([1]), 1.0)
    inv = wh_inv(a)
    assert inv.g.residues == (3,)
    assert inv.chi.label == (3,)
    assert inv.z == pytest.approx(-1j)


def test_associativity(battery_group):
    group = battery_group
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b, c = (_random_wh(group, rng) for _ in range(3))
        left = wh_mul(wh_mul(a, b), c)
        right = wh_mul(a, wh_mul(b, c))
        assert left.g == right.g and left.chi == right.chi
        assert left.z == pytest.approx(right.z, abs=1e-12)


def test_unit_modulus_enforced():
    z2 = parse_group("Z2")
    with pytest.raises(ValueError):
        WHElement(z2.element([0]), z2.character([0]), 1.5)


@pytest.mark.parametrize("z", [complex("nan"), complex("nan+1j"), complex("inf")],
                         ids=["nan", "nan-real-part", "inf"])
def test_non_finite_phase_rejected(z):
    z2 = parse_group("Z2")
    with pytest.raises(PreconditionError, match="unit circle"):
        WHElement(z2.zero, z2.trivial_character, z)


def test_unitary_action_examples():
    z2 = parse_group("Z2")
    psi = GFunction(z2, [2.0, 3.0])
    shift = wh_unitary(WHElement(z2.element([1]), z2.character([0]), 1.0))
    assert shift.apply(psi).values == pytest.approx([3.0, 2.0])
    modulate = wh_unitary(WHElement(z2.element([0]), z2.character([1]), 1.0))
    assert modulate.apply(psi).values == pytest.approx([2.0, -3.0])
    assert wh_unitary(wh_identity(z2)).matrix == pytest.approx(np.eye(2))


def test_representation_property(battery_group):
    group = battery_group
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = _random_wh(group, rng), _random_wh(group, rng)
        lhs = wh_unitary(a) @ wh_unitary(b)
        rhs = wh_unitary(wh_mul(a, b))
        assert np.max(np.abs(lhs.kernel - rhs.kernel)) <= 1e-10


def test_unitarity_and_adjoint(battery_group):
    group = battery_group
    rng = np.random.default_rng(8)
    eye = np.eye(group.order)
    for _ in range(30):
        a = _random_wh(group, rng)
        u = wh_unitary(a)
        assert np.max(np.abs((u @ u.adjoint()).matrix - eye)) <= 1e-10
        assert np.max(np.abs(wh_unitary(wh_inv(a)).kernel - u.adjoint().kernel)) <= 1e-10


def test_conjugation_examples():
    z2 = parse_group("Z2")
    delta0 = Operator.pure_state(GFunction(z2, [np.sqrt(2), 0]))
    delta1 = Operator.pure_state(GFunction(z2, [0, np.sqrt(2)]))
    moved = wh_conjugate(delta0, WHElement(z2.element([1]), z2.character([0]), 1.0))
    assert np.max(np.abs(moved.kernel - delta1.kernel)) <= 1e-12
    same = wh_conjugate(delta0, wh_identity(z2))
    assert np.max(np.abs(same.kernel - delta0.kernel)) <= 1e-12


def test_conjugation_preserves_trace(battery_group):
    group = battery_group
    rng = np.random.default_rng(10)
    for _ in range(20):
        op = random_operator(group, rng)
        a = _random_wh(group, rng)
        assert wh_conjugate(op, a).trace() == pytest.approx(op.trace(), abs=1e-10)


def test_kd_covariance_translation(battery_group):
    group = battery_group
    rng = np.random.default_rng(12)
    diff = group.diff_table
    for _ in range(100):
        op = random_operator(group, rng)
        a = _random_wh(group, rng)
        moved = kd(wh_conjugate(op, a)).values
        translated = kd(op).values[np.ix_(diff[:, a.g.index], diff[:, a.chi.index])]
        assert np.max(np.abs(moved - translated)) <= 1e-10


def test_family_closed_under_conjugation(small_groups):
    for group in small_groups:
        rng = np.random.default_rng(group.order)
        family = enumerate_kd_positive_pure(group)
        for member in family:
            a = _random_wh(group, rng)
            moved = wh_conjugate(member.projector(), a)
            # rank-one projector again; extract its range vector
            w, v = np.linalg.eigh(moved.matrix)
            vec = GFunction(group, v[:, -1] * np.sqrt(group.order))
            hit = recognize_kd_positive_pure(vec)
            assert hit is not None


def test_wh_element_json_roundtrip():
    z4 = parse_group("Z4")
    a = WHElement(z4.element([3]), z4.character([2]), np.exp(0.7j))
    again = WHElement.from_json(z4, a.to_json())
    assert again.g == a.g and again.chi == a.chi
    assert again.z == pytest.approx(a.z, abs=1e-15)
