import numpy as np
import pytest
import scipy.optimize

from kdlab.classify import enumerate_kd_positive_pure
from kdlab.errors import NotAStateError, NotHermitianError, NotKdPositiveError
from kdlab.fragment import (
    _context,
    _random_direction,
    _simplex_nnls,
    conv_membership,
    find_conv_gap_witness,
    is_kd_positive_state,
    is_kd_real,
    kd_real_dimension,
    project_onto_kdpos,
    span_membership,
)
from kdlab.groups import parse_group
from kdlab.harmonic import GFunction
from kdlab.kd import multiplication_operator
from kdlab.operators import Operator, check_state
from kdlab.weyl import WHElement, wh_unitary

from conftest import random_hermitian, random_state


def _family_mixture(group, rng, k=None):
    family = enumerate_kd_positive_pure(group)
    weights = rng.dirichlet(np.ones(k or len(family)))
    picks = rng.choice(len(family), size=weights.size, replace=False)
    kernel = sum(w * family[i].projector().kernel for w, i in zip(weights, picks))
    return Operator(group, kernel)


def test_kd_real_dimension_frozen():
    assert kd_real_dimension(parse_group("Z2")) == 3
    assert kd_real_dimension(parse_group("Z4")) == 8
    assert kd_real_dimension(parse_group("Z1")) == 1


def test_kd_real_multiplication_operator(battery_group):
    group = battery_group
    rng = np.random.default_rng(131)
    op = multiplication_operator(GFunction(group, rng.normal(size=group.order)))
    result = is_kd_real(op)
    assert result.is_real
    assert result.methods_agree
    assert result.worst_violation <= 1e-12


def test_kd_real_rejects_circular_state_z2():
    z2 = parse_group("Z2")
    rho = Operator.pure_state(GFunction(z2, [1.0, 1.0j]))
    result = is_kd_real(rho)
    assert not result.is_real
    assert result.methods_agree
    # KD(0, chi_0) = (1 - i)/2, so the direct route sees exactly 1/2
    assert result.direct_violation == pytest.approx(0.5, abs=1e-12)


def test_kd_real_family_projectors(battery_group):
    for member in enumerate_kd_positive_pure(battery_group):
        result = is_kd_real(member.projector())
        assert result.is_real
        assert result.methods_agree


def test_kd_real_requires_hermitian():
    z2 = parse_group("Z2")
    with pytest.raises(NotHermitianError):
        is_kd_real(Operator(z2, [[0.0, 1.0], [0.0, 0.0]]))


def test_kd_real_methods_agree(battery_group):
    group = battery_group
    rng = np.random.default_rng(137)
    for _ in range(200):
        result = is_kd_real(random_hermitian(group, rng))
        assert result.methods_agree
        if not result.is_real:
            lo = min(result.direct_violation, result.support_violation)
            hi = max(result.direct_violation, result.support_violation)
            assert hi <= 10.0 * lo


def test_kd_positive_examples():
    z2 = parse_group("Z2")
    mixed = Operator.identity(z2) * 0.5
    assert is_kd_positive_state(mixed).is_positive
    rho = Operator.pure_state(GFunction(z2, [1.2, np.sqrt(0.56)]))
    result = is_kd_positive_state(rho)
    assert not result.is_positive
    assert result.worst_violation == pytest.approx(0.169, abs=1e-3)
    with pytest.raises(NotAStateError):
        is_kd_positive_state(Operator.identity(z2))
    with pytest.raises(NotAStateError):
        is_kd_positive_state(Operator(z2, [[np.nan, 0.0], [0.0, 2.0]]))


def test_kd_positive_family_and_mixtures(battery_group):
    group = battery_group
    rng = np.random.default_rng(139)
    for member in enumerate_kd_positive_pure(group):
        assert is_kd_positive_state(member.projector()).is_positive
    for _ in range(10):
        assert is_kd_positive_state(_family_mixture(group, rng)).is_positive


def test_positive_implies_real_chain(battery_group):
    group = battery_group
    rng = np.random.default_rng(149)
    seen_positive = 0
    for _ in range(10):
        rho = _family_mixture(group, rng)
        if is_kd_positive_state(rho).is_positive:
            seen_positive += 1
            assert is_kd_real(rho).is_real
    for _ in range(20):
        rho = random_state(group, rng)
        if is_kd_positive_state(rho).is_positive:
            assert is_kd_real(rho).is_real
    assert seen_positive == 10


def test_span_membership_family_and_dimension(battery_group):
    group = battery_group
    for member in enumerate_kd_positive_pure(group):
        result = span_membership(member.projector())
        assert result.verdict == "inside"
        assert result.residual <= 1e-10
        assert result.span_dimension == kd_real_dimension(group)


def test_span_membership_real_combinations(battery_group):
    group = battery_group
    rng = np.random.default_rng(151)
    family = enumerate_kd_positive_pure(group)
    for _ in range(5):
        coeffs = rng.normal(size=len(family))
        kernel = sum(c * m.projector().kernel for c, m in zip(coeffs, family))
        result = span_membership(Operator(group, kernel))
        assert result.verdict == "inside"
        rebuilt = np.tensordot(result.weights, np.stack([m.projector().matrix for m in family]), axes=1)
        assert np.max(np.abs(rebuilt - kernel / group.order)) <= 1e-8


def _off_support_op(group):
    """Hermitian operator with characteristic mass only where chi(g) != 1.

    Built from a displacement unitary at such a point; on exponent-2
    groups the symmetric combination can cancel (U* = -U there), so the
    antisymmetric one is used as the fallback.
    """
    phases = group.char_phase
    hits = np.argwhere(phases.T != 0)
    gi, ci = (int(v) for v in hits[0])
    a = WHElement(group.element_by_index(gi), group.character_by_index(ci), 1.0)
    u = wh_unitary(a)
    sym = u + u.adjoint()
    anti = 1j * (u - u.adjoint())
    return sym if sym.hs_norm() > anti.hs_norm() else anti


def test_span_membership_off_support_displacement(battery_group):
    # displacement mass at a point with chi(g) != 1 leaves the span and
    # the orthogonal remainder certifies it
    group = battery_group
    if not (group.char_phase != 0).any():
        pytest.skip("trivial pairing")
    op = _off_support_op(group)
    result = span_membership(op)
    assert result.verdict == "outside"
    assert result.gap is not None and result.gap > 1e-8
    # the witness pairs to zero with the family and to gap with the operator
    witness = result.witness
    family_side = max(abs(complex(witness.hs_inner(m.projector())).real)
                      for m in enumerate_kd_positive_pure(group))
    assert family_side <= 1e-8
    assert complex(witness.hs_inner(op)).real == pytest.approx(result.gap, abs=1e-8)


def test_span_membership_requires_hermitian():
    z2 = parse_group("Z2")
    with pytest.raises(NotHermitianError):
        span_membership(Operator(z2, [[0.0, 2.0], [0.0, 0.0]]))


def test_conv_membership_mixed_state_z2():
    z2 = parse_group("Z2")
    result = conv_membership(Operator.identity(z2) * 0.5)
    assert result.verdict == "inside"
    assert result.residual <= 1e-10
    # the active-set optimum splits evenly over the two position states
    assert result.weights[:2] == pytest.approx([0.5, 0.5], abs=1e-10)
    assert result.weights[2:] == pytest.approx([0.0, 0.0], abs=1e-10)


def test_conv_membership_projectors(battery_group):
    group = battery_group
    family = enumerate_kd_positive_pure(group)
    for i, member in enumerate(family[: min(len(family), 40)]):
        result = conv_membership(member.projector())
        assert result.verdict == "inside"
        assert result.weights[i] == pytest.approx(1.0, abs=1e-9)


def test_conv_membership_mixtures_reconstruct(battery_group):
    group = battery_group
    rng = np.random.default_rng(157)
    family = enumerate_kd_positive_pure(group)
    mats = np.stack([m.projector().matrix for m in family])
    for _ in range(5):
        rho = _family_mixture(group, rng)
        result = conv_membership(rho)
        assert result.verdict == "inside"
        assert result.weights.min() >= 0.0
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-12)
        rebuilt = np.tensordot(result.weights, mats, axes=1)
        assert np.linalg.norm(rebuilt - rho.matrix) <= 1e-8


def test_conv_membership_rejects_non_kd_positive():
    z2 = parse_group("Z2")
    rho = Operator.pure_state(GFunction(z2, [1.2, np.sqrt(0.56)]))
    with pytest.raises(NotKdPositiveError):
        conv_membership(rho)


def test_membership_result_json_shapes():
    z2 = parse_group("Z2")
    inside = conv_membership(Operator.identity(z2) * 0.5).to_json()
    assert inside["verdict"] == "inside"
    assert {entry["index"] for entry in inside["certificate"]["weights"]} == {0, 1}
    outside = span_membership(_off_support_op(z2)).to_json()
    assert outside["verdict"] == "outside"
    assert "witness" in outside["certificate"]
    assert outside["certificate"]["gap"] > 0


def test_simplex_nnls_against_penalty_oracle():
    # scipy's plain NNLS with a heavy sum-penalty row approximates the
    # simplex-constrained optimum; residuals must match closely
    rng = np.random.default_rng(163)
    for trial in range(10):
        m, n = 30, 12
        a = rng.normal(size=(m, n))
        if trial % 2 == 0:
            y = a @ rng.dirichlet(np.ones(n)) + 0.01 * rng.normal(size=m)
        else:
            y = rng.normal(size=m)
        lam, residual, converged = _simplex_nnls(a.T @ a, a.T @ y, a, y)
        assert converged
        assert lam.min() >= 0.0
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        penalty = 1e6
        a_aug = np.vstack([a, penalty * np.ones(n)])
        y_aug = np.append(y, penalty)
        x, _ = scipy.optimize.nnls(a_aug, y_aug)
        x = x / x.sum()
        oracle = float(np.linalg.norm(y - a @ x))
        assert residual <= oracle + 1e-6
        assert oracle <= residual + 1e-6


def test_project_keeps_members_fixed(battery_group):
    group = battery_group
    rng = np.random.default_rng(167)
    family = enumerate_kd_positive_pure(group)
    member = family[int(rng.integers(len(family)))]
    result = project_onto_kdpos(member.projector())
    assert result.converged
    assert result.distance <= 1e-10
    mixture = _family_mixture(group, rng)
    result = project_onto_kdpos(mixture)
    assert result.distance <= 1e-10


def test_project_moves_negative_state():
    z2 = parse_group("Z2")
    rho = Operator.pure_state(GFunction(z2, [1.2, np.sqrt(0.56)]))
    result = project_onto_kdpos(rho)
    assert result.converged
    assert result.distance > 0.05
    check_state(result.state)
    assert is_kd_positive_state(result.state, tol=1e-8).is_positive


def test_project_idempotent(battery_group):
    group = battery_group
    rng = np.random.default_rng(173)
    rho = random_state(group, rng)
    first = project_onto_kdpos(rho, tol=1e-10)
    second = project_onto_kdpos(first.state, tol=1e-10)
    assert second.distance <= 2e-10


def test_project_small_perturbation_nonexpansive(battery_group):
    group = battery_group
    d = group.order
    rng = np.random.default_rng(179)
    noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    noise = (noise + noise.conj().T) / 2
    noise -= np.trace(noise) * np.eye(d) / d
    noise *= 1e-3 / np.linalg.norm(noise)
    rho0 = Operator.from_matrix(group, np.eye(d) / d + noise)
    result = project_onto_kdpos(rho0)
    assert result.distance <= 2e-3


def test_project_requires_hermitian():
    z2 = parse_group("Z2")
    with pytest.raises(NotHermitianError):
        project_onto_kdpos(Operator(z2, [[1.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# reference: the projector-matrix geometry that table coordinates replaced


def _embed(matrix):
    return np.concatenate([matrix.real.ravel(), matrix.imag.ravel()])


def _embedded_family(group):
    """Family projectors as 2 d^2 reals (Euclidean dot = HS inner product)
    and an orthonormal SVD basis of their span."""
    embed = np.stack([_embed(m.projector().matrix) for m in enumerate_kd_positive_pure(group)])
    _, s, vt = np.linalg.svd(embed, full_matrices=False)
    return embed, vt[: int(np.sum(s > s[0] * 1e-10))]


def _embedded_conv(embed, rho):
    y = _embed(rho.matrix)
    lam, residual, _ = _simplex_nnls(embed @ embed.T, embed @ y, embed.T, y)
    return lam, residual


def test_table_geometry_matches_matrix_embedding(battery_group):
    group = battery_group
    d = group.order
    embed, basis = _embedded_family(group)
    ctx = _context(group)
    assert np.max(np.abs(ctx.gram - embed @ embed.T)) <= 1e-12
    assert np.linalg.matrix_rank(ctx.tables) == basis.shape[0]

    direction = _random_direction(group, np.random.default_rng(181))
    rng = np.random.default_rng(181)
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    reference = basis.T @ (basis @ _embed((raw + raw.conj().T) / 2.0))
    assert np.max(np.abs(_embed(direction) - reference / np.linalg.norm(reference))) <= 1e-12

    # Full mixtures and the maximally mixed state have many optimal weight
    # vectors (the family is linearly dependent), so the two solves may
    # stop at different ones; sparse mixtures and members have one.
    rng = np.random.default_rng(191)
    family = enumerate_kd_positive_pure(group)
    cases = [
        (_family_mixture(group, rng), False),
        (Operator.identity(group) * (1.0 / d), False),
        (_family_mixture(group, rng, k=3), True),
        (family[len(family) // 2].projector(), True),
    ]
    for rho, unique in cases:
        result = conv_membership(rho)
        lam, residual = _embedded_conv(embed, rho)
        assert abs(result.residual - residual) <= 1e-10
        if unique:
            assert np.max(np.abs(result.weights - lam)) <= 1e-10

    inside = Operator(group, sum(c * m.projector().kernel
                                 for c, m in zip(rng.normal(size=len(family)), family)))
    for op in (inside, random_hermitian(group, rng)):
        result = span_membership(op)
        y = _embed(op.matrix)
        coeffs, *_ = np.linalg.lstsq(embed.T, y, rcond=None)
        assert abs(result.residual - np.linalg.norm(y - embed.T @ coeffs)) <= 1e-10
        if result.weights is not None:
            assert np.max(np.abs(result.weights - coeffs)) <= 1e-10


# seed-0 witnesses: (gap, iterations_used, directions_tried)
PINNED_WITNESSES = {"Z2xZ2": (6.525240423259e-2, 100, 1), "Z6": (2.548644395291e-2, 300, 3)}


@pytest.mark.parametrize("name", ["Z2xZ2", "Z6"])
def test_witness_search_finds_gap(name):
    group = parse_group(name)
    w = find_conv_gap_witness(group, seed=0, budget=10000)
    assert w is not None
    gap, iterations, directions = PINNED_WITNESSES[name]
    assert w.gap == pytest.approx(gap, abs=1e-10)
    assert (w.iterations_used, w.directions_tried) == (iterations, directions)
    # the state is strictly feasible and sits outside the hull
    assert is_kd_positive_state(w.state).is_positive
    result = conv_membership(w.state)
    assert result.verdict == "outside"
    _, residual = _embedded_conv(_embedded_family(group)[0], w.state)
    assert abs(result.residual - residual) <= 1e-10
    # certificate re-verifies: direct evaluation reproduces the gap
    family = enumerate_kd_positive_pure(group)
    value = complex(w.functional.hs_inner(w.state)).real
    best = max(complex(w.functional.hs_inner(m.projector())).real for m in family)
    assert value - best == pytest.approx(w.gap, abs=1e-8)


def test_witness_search_deterministic():
    group = parse_group("Z2xZ2")
    a = find_conv_gap_witness(group, seed=0, budget=10000)
    b = find_conv_gap_witness(group, seed=0, budget=10000)
    assert a is not None and b is not None
    assert a.gap == b.gap
    assert a.directions_tried == b.directions_tried
    assert np.array_equal(a.state.kernel, b.state.kernel)


def test_witness_search_none_within_budget():
    # hull equality groups: a short run must come back empty-handed
    assert find_conv_gap_witness(parse_group("Z2"), seed=0, budget=300) is None
    assert find_conv_gap_witness(parse_group("Z3"), seed=0, budget=300) is None


def test_witness_json_shape():
    w = find_conv_gap_witness(parse_group("Z2xZ2"), seed=0, budget=10000)
    blob = w.to_json()
    assert blob["gap"] == w.gap
    assert set(blob) == {"gap", "conv_residual", "iterations_used",
                         "directions_tried", "state", "functional"}
