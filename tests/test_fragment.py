import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize

from kdlab import fragment
from kdlab.circle import circle_is_classical, geometric_state
from kdlab.classify import (
    _family,
    _lattice_cosets,
    enumerate_kd_positive_pure,
    make_subgroup_state,
    recognize_kd_positive_pure,
)
from kdlab.errors import NotAStateError, NotHermitianError, NotKdPositiveError, PreconditionError
from kdlab.fragment import (
    _dykstra,
    _eigh,
    _project_kd_nonneg,
    _project_simplex,
    _random_direction,
    _simplex_nnls,
    _verify_outside_candidate,
    conv_membership,
    find_conv_gap_witness,
    is_kd_positive_state,
    is_kd_real,
    kd_real_dimension,
    project_onto_kdpos,
    span_membership,
)
from kdlab.groups import annihilator, coset_labels, coset_reps, enumerate_subgroups, parse_group
from kdlab.harmonic import GFunction
from kdlab.jsonio import encode_array
from kdlab.kd import _kd_table, char_fn, multiplication_operator, symplectic_fourier
from kdlab.operators import Operator, PhaseSpaceFunction, check_state
from kdlab.tolerances import DEFAULT, Tolerances
from kdlab.verify import verify_group
from kdlab.weyl import WHElement, wh_unitary

from conftest import BATTERY, random_hermitian, random_state


def _family_mixture(group, rng, k=None):
    family = enumerate_kd_positive_pure(group)
    weights = rng.dirichlet(np.ones(k or len(family)))
    picks = rng.choice(len(family), size=weights.size, replace=False)
    kernel = sum(w * family[i].projector().kernel for w, i in zip(weights, picks))
    return Operator(group, kernel)


def _zero_cell_mixture(group, rng, k=5):
    """A Dirichlet mixture of up to k members whose KD tables are zero at
    (0, 0): those whose element or character coset misses the identity."""
    family = [m for m in enumerate_kd_positive_pure(group) if (m.g_rep.index, m.chi_rep.index) != (0, 0)]
    weights = rng.dirichlet(np.ones(min(k, len(family))))
    picks = rng.choice(len(family), size=weights.size, replace=False)
    rho = Operator(group, sum(w * family[i].projector().kernel for w, i in zip(weights, picks)))
    assert abs(_kd_table(group, rho.kernel)[0, 0]) <= 1e-15
    return rho


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


def test_kd_real_on_the_trivial_group():
    # Z1 has no point with chi(g) != 1: the support route reads nothing
    result = is_kd_real(Operator.identity(parse_group("Z1")))
    assert result.is_real
    assert result.support_violation == 0.0


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
    # constructors reject NaN; a kernel corrupted afterwards still fails
    # the state check
    corrupted = Operator.identity(z2) * 0.5
    corrupted.kernel[0, 0] = np.nan
    with pytest.raises(NotAStateError):
        is_kd_positive_state(corrupted)


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
    rho = Operator.identity(z2) * 0.5
    result = conv_membership(rho)
    assert result.verdict == "inside"
    assert result.residual <= 1e-10
    # a strictly positive table: the span certificate weighs all four members
    assert result.weights == pytest.approx([0.25] * 4, abs=1e-10)
    # the active-set optimum on the same correlations splits evenly over
    # the two position states
    family = _family(z2)
    lam, converged, _, _ = _simplex_nnls(family, family.pair(_kd_table(z2, rho.kernel).real))
    assert converged
    assert lam[:2] == pytest.approx([0.5, 0.5], abs=1e-10)
    assert lam[2:] == pytest.approx([0.0, 0.0], abs=1e-10)


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


def test_conv_membership_reports_convergence():
    z2 = parse_group("Z2")
    result = conv_membership(Operator.identity(z2) * 0.5)
    assert result.converged is True
    assert "converged" not in result.to_json()
    assert span_membership(Operator.identity(z2) * 0.5).converged is None


def test_conv_membership_reports_iterations(battery_group):
    # the mixed state's span certificate takes no active-set iteration; a
    # sparse mixture with a zero KD cell is reached from the best vertex
    # in a positive count below the iteration cap
    group = battery_group
    rho = Operator.identity(group) * (1.0 / group.order)
    result = conv_membership(rho)
    assert result.verdict == "inside"
    assert result.converged is True
    assert result.iterations == 0
    assert "iterations" not in result.to_json()
    assert span_membership(rho).iterations is None
    sparse = _zero_cell_mixture(group, np.random.default_rng(163))
    result = conv_membership(sparse)
    n = len(enumerate_kd_positive_pure(group))
    assert result.verdict == "inside"
    assert result.converged is True
    assert 0 < result.iterations < 50 * n + 200


def test_negative_membership_bound_leaves_inside_points_inconclusive(battery_group):
    # -1 is a bound no residual meets, so nothing is inside; the residual
    # of a point in the hull or span is zero or rounding and certifies no
    # gap (an exact fit used to divide by zero, a rounding one to say "outside")
    group = battery_group
    bound = DEFAULT.override(membership=-1.0)
    family = enumerate_kd_positive_pure(group)
    rng = np.random.default_rng(211)
    states = [m.projector() for m in family[:40]]
    states += [Operator.identity(group) * (1.0 / group.order), _family_mixture(group, rng, k=min(5, len(family)))]
    for rho in states:
        hull = conv_membership(rho, bound)
        assert hull.verdict == "inconclusive"
        assert np.isfinite(hull.gap) and np.isfinite(hull.witness.kernel).all()
        assert span_membership(rho, bound).verdict == "inconclusive"


def test_negative_membership_bound_keeps_outside_verdicts():
    group = parse_group("Z2xZ2")
    bound = DEFAULT.override(membership=-1.0)
    op = _off_support_op(group)
    assert span_membership(op).verdict == "outside"
    assert span_membership(op, bound).to_json() == span_membership(op).to_json()
    state = find_conv_gap_witness(group, seed=0, budget=100).state
    assert conv_membership(state).verdict == "outside"
    assert conv_membership(state, bound).to_json() == conv_membership(state).to_json()


@pytest.mark.parametrize("name", BATTERY)
def test_negative_positivity_bound_fails_the_verdict_not_the_preconditions(name):
    group = parse_group(name)
    mixed = Operator.identity(group) * (1.0 / group.order)
    bound = DEFAULT.override(positivity=-1.0)
    check_state(mixed, bound)
    assert not is_kd_positive_state(mixed, bound).is_positive
    with pytest.raises(NotAStateError, match="trace"):
        check_state(mixed * 2.0, bound)


def _comparable(value):
    if isinstance(value, tuple):
        return [_comparable(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    return repr(value)


DECIDER_LEVELS = {
    "is_kd_real": {"structural"},
    "is_kd_positive_state": {"positivity"},
    "check_state": {"positivity"},
    "span_membership": {"membership"},
    "conv_membership": {"membership", "positivity"},
    "recognize_kd_positive_pure": {"recognition"},
    "circle_is_classical": {"positivity"},
    "find_conv_gap_witness": {"witness_gap", "positivity", "membership"},
    "_verify_outside_candidate": {"witness_gap", "positivity", "membership"},
}


def _decide(name, tol):
    z2xz2, z4 = parse_group("Z2xZ2"), parse_group("Z4")
    mixed = Operator.identity(z4) * 0.25
    return {
        "is_kd_real": lambda: is_kd_real(random_hermitian(z4, np.random.default_rng(5)), tol),
        "is_kd_positive_state": lambda: is_kd_positive_state(mixed, tol),
        "check_state": lambda: check_state(mixed, tol),
        "span_membership": lambda: span_membership(_off_support_op(z4), tol),
        "conv_membership": lambda: conv_membership(mixed, tol),
        "recognize_kd_positive_pure":
            lambda: recognize_kd_positive_pure(enumerate_kd_positive_pure(z4)[3].vector, tol),
        "circle_is_classical": lambda: circle_is_classical(geometric_state(0.3, 4), tol),
        "find_conv_gap_witness": lambda: find_conv_gap_witness(z2xz2, seed=0, budget=100, tol=tol),
        "_verify_outside_candidate": lambda: _verify_outside_candidate(
            _family(z2xz2), find_conv_gap_witness(z2xz2, seed=0, budget=100).state.matrix, tol),
    }[name]()


@pytest.mark.parametrize("extreme", [-1.0, 1e9])
@pytest.mark.parametrize("name", list(DECIDER_LEVELS))
def test_each_decider_reads_only_its_own_levels(name, extreme):
    # every level the decider does not read is set where any check that
    # read it would fail (-1) or pass (1e9); the result must not move
    levels = DECIDER_LEVELS[name]
    others = {f.name: extreme for f in dataclasses.fields(Tolerances) if f.name not in levels}
    assert _comparable(_decide(name, DEFAULT.override(**others))) == _comparable(_decide(name, DEFAULT))


def test_one_lattice_and_one_family_per_group():
    # earlier tests may have built Z6 already, so count from empty caches
    group = parse_group("Z6")
    for cached in (enumerate_subgroups, _lattice_cosets, _family):
        cached.cache_clear()
    family = enumerate_kd_positive_pure(group)
    n, d = len(family), group.order
    # enumeration alone builds the vectors, not the coset geometry
    arrays = {name: v.shape for name, v in vars(_family(group)).items() if isinstance(v, np.ndarray)}
    assert arrays == {"vectors": (n, d)}
    conv_membership(Operator.identity(group) * (1.0 / group.order))
    span_membership(random_hermitian(group, np.random.default_rng(223)))
    assert recognize_kd_positive_pure(family[7].vector) == family[7]
    verify_group(group)
    assert enumerate_subgroups.cache_info().misses == 1
    assert _lattice_cosets.cache_info().misses == 1
    assert _family.cache_info().misses == 1
    arrays = {name: v.shape for name, v in vars(_family(group)).items() if isinstance(v, np.ndarray)}
    # the span solve adds the subgroup counts N(g, chi), d x d, and the
    # solves the geometry: the s = sum_H |G/H| distinct coset indicators,
    # member -> row and member -> column maps, and (row, chi) -> member
    assert arrays == {"vectors": (n, d), "N": (d, d)}
    s = sum(d // h.order for h in enumerate_subgroups(group))
    assert [a.shape for a in _family(group).geometry] == [(s, d), (n,), (n,), (s, d)]


@pytest.mark.parametrize("name", ["Z2xZ2xZ2xZ2", "Z6xZ6"])
def test_family_and_its_geometry_share_one_lattice_coset_pass(name, monkeypatch):
    # the vectors and the hull geometry both read every subgroup's coset
    # labels; one pass labels each subgroup once, and its arrays are read-only
    calls = []
    labels_of = coset_labels

    def counted(*args):
        calls.append(1)
        return labels_of(*args)

    monkeypatch.setattr("kdlab.classify.coset_labels", counted)
    group = parse_group(name)
    for cached in (enumerate_subgroups, annihilator, _lattice_cosets, _family):
        cached.cache_clear()
    enumerate_kd_positive_pure(group)
    assert conv_membership(Operator.identity(group) * (1.0 / group.order)).verdict == "inside"
    assert len(calls) == len(enumerate_subgroups(group))
    _, dual, labels = _lattice_cosets(group)
    assert not dual.flags.writeable and not labels.flags.writeable


@pytest.mark.parametrize("name", ["Z2xZ2xZ2xZ2", "Z3xZ3xZ3", "Z6xZ6"])
def test_family_asks_annihilator_nothing_new_after_the_lattice(name):
    # every large H was reached as ann(K) of a small K, so the family pairs
    # each subgroup with its annihilator from what the lattice already asked
    group = parse_group(name)
    for cached in (enumerate_subgroups, annihilator, _lattice_cosets, _family):
        cached.cache_clear()
    enumerate_subgroups(group)
    misses = annihilator.cache_info().misses
    _family(group)
    assert annihilator.cache_info().misses == misses


@pytest.mark.parametrize("name", ["Z6", "Z2xZ2xZ2"])
def test_member_vectors_are_read_only_rows_of_one_stack(name):
    group = parse_group(name)
    family = _family(group)
    assert np.isfinite(family.vectors).all()
    for member in family.members:
        assert np.shares_memory(member.vector.values, family.vectors)
        with pytest.raises(ValueError):
            member.vector.values[0] = 1.0


def _member_vector(member):
    """One member's vector, built on its own from its coset data."""
    group = member.group
    support = group.add_table[member.g_rep.index, list(member.subgroup.elements)]
    density = member.subgroup.order / group.order
    values = np.zeros(group.order, dtype=complex)
    values[support] = group.char_table[member.chi_rep.index, support] / np.sqrt(density)
    return values


def _stacked_indicators(group):
    """(n, |G|) 0/1 stacks of every member's coset g + H and character
    coset chi * ann(H), in family order, read from the members' own coset
    data: the n x |G| reference for the family record's geometry."""
    members = enumerate_kd_positive_pure(group)
    rows, cols = np.zeros((2, len(members), group.order))
    dual = {}
    for i, m in enumerate(members):
        h = m.subgroup.elements
        if h not in dual:
            dual[h] = list(annihilator(group, m.subgroup).elements)
        rows[i, group.add_table[m.g_rep.index, list(h)]] = 1.0
        cols[i, group.add_table[m.chi_rep.index, dual[h]]] = 1.0
    return rows, cols


@pytest.mark.parametrize("name", BATTERY + ["Z64", "Z4xZ4", "Z6xZ6"])
def test_family_and_context_match_member_by_member_construction(name):
    # the per-subgroup build must reproduce, bit for bit, one canonicalizing
    # constructor call per coset pair, one vector per member, and a stack
    # of per-member KD tables as row (x) column indicators
    group = parse_group(name)
    d = group.order
    reference = []
    for subgroup in enumerate_subgroups(group):
        chis = [group.character_by_index(c.index) for c in coset_reps(group, annihilator(group, subgroup))]
        for g in coset_reps(group, subgroup):
            reference.extend(make_subgroup_state(subgroup, g, chi) for chi in chis)
    family = enumerate_kd_positive_pure(group)
    assert [m.key for m in family] == [m.key for m in reference]
    for member, expected in zip(family, reference):
        assert (member.g_rep, member.chi_rep) == (expected.g_rep, expected.chi_rep)
        assert np.array_equal(member.vector.values, expected.vector.values)
        assert np.array_equal(member.vector.values, _member_vector(expected))
        # array_equal takes -0.0 for 0.0; the JSON text does not
        assert (json.dumps(encode_array(member.vector.values))
                == json.dumps(encode_array(_member_vector(expected))))
    ones = np.stack([m.indicator_table().values.real for m in reference])
    ctx = _family(group)
    rows, cols = _stacked_indicators(group)
    assert np.array_equal(rows[:, :, None] * cols[:, None, :], ones)
    # a unit combination is the member's own table, exactly
    assert np.array_equal(np.stack([ctx.combine(e) for e in np.eye(len(ones))]), ones)
    ones = ones.reshape(len(ones), d * d)
    assert np.array_equal(ctx.overlaps(np.arange(len(ones))), ones @ ones.T / d)
    assert np.array_equal(ctx.overlaps(np.array([3, 1])), ones @ ones[[3, 1]].T / d)


@pytest.mark.parametrize("name", BATTERY + ["Z64", "Z128", "Z2xZ2xZ2xZ2", "Z3xZ3xZ3", "Z6xZ6",
                                            "Z2xZ2xZ2xZ2xZ2", "Z3xZ3xZ3xZ3"])
def test_rectangle_pairing_and_combination_match_dense_stack(name):
    # pair, combine and overlaps against the stacked formulas on the n x |G|
    # row and column indicators of the member cosets, and, up to |G| = 64,
    # against the stacked member tables too (on Z3^4 they would take 900 MB)
    group = parse_group(name)
    d = group.order
    ctx = _family(group)
    rows, cols = _stacked_indicators(group)
    n = len(rows)
    dense = None
    if d <= 64:
        dense = np.stack([m.indicator_table().values.real.ravel()
                          for m in enumerate_kd_positive_pure(group)])
    rng = np.random.default_rng(229)
    for _ in range(3):
        table = rng.normal(size=(d, d))
        lam = rng.normal(size=n)
        picks = rng.choice(n, size=min(n, 7), replace=False)
        pairs = [(ctx.pair(table), ((rows @ table) * cols).sum(1) / d),
                 (ctx.combine(lam), (rows.T * lam) @ cols),
                 (ctx.overlaps(picks), (rows @ rows[picks].T) * (cols @ cols[picks].T) / d)]
        if dense is not None:
            pairs += [(ctx.pair(table), dense @ table.ravel() / d),
                      (ctx.combine(lam).ravel(), lam @ dense)]
        for got, expected in pairs:
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))


def test_hull_membership_on_a_large_family_holds_only_the_indicators():
    # Z2^5 has 11 968 members: a Gram matrix would take 1.1 GB, n x |G|
    # row and column stacks 5.8 MB, and the geometry of its S = 2451
    # distinct coset indicators 1.4 MB
    group = parse_group("Z2xZ2xZ2xZ2xZ2")
    d = group.order
    ctx = _family(group)
    n = len(enumerate_kd_positive_pure(group))
    assert n == 11968
    assert ctx.vectors.nbytes == n * d * 16      # the one copy of the member vectors
    rng = np.random.default_rng(233)
    for rho in (Operator.identity(group) * (1.0 / d), _family_mixture(group, rng, k=5)):
        result = conv_membership(rho)
        assert result.verdict == "inside"
        assert result.converged
    # read after the solves, so arrays built on first use are counted too,
    # also inside tuples; N, the span's (|G|, |G|) subgroup counts, is not
    # geometry
    s = sum(d // h.order for h in enumerate_subgroups(group))
    geometry = [a for k, v in vars(ctx).items() if k not in ("vectors", "N")
                for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert geometry
    assert sum(a.nbytes for a in geometry) <= 2 * s * d * 8 + 2 * n * 8
    assert not any(a.shape == (n, d) for a in geometry)


def test_span_membership_on_a_large_family_stacks_no_tables():
    # Z2^5: the 11 968 stacked member tables would take 98 MB; the solve
    # reads the H and ann(H) indicators and the coset stack only
    group = parse_group("Z2xZ2xZ2xZ2xZ2")
    d = group.order
    family = enumerate_kd_positive_pure(group)
    n = len(family)
    rng = np.random.default_rng(239)
    picks = rng.choice(n, size=4, replace=False)
    vectors = np.stack([family[i].vector.values for i in picks])
    inside = Operator.from_matrix(group, (vectors.T * rng.normal(size=4)) @ vectors.conj() / d)
    _family(group)                      # built first; the bound covers the solve and the geometry it builds
    for op, verdict in ((inside, "inside"), (random_hermitian(group, rng), "outside")):
        tracemalloc.start()
        result = span_membership(op)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert result.verdict == verdict
        assert result.span_dimension == kd_real_dimension(group) == 528
        assert peak <= 2 * n * d * 8
    weights = span_membership(inside).weights
    every = np.stack([m.vector.values for m in family])
    rebuilt = (every.T * weights) @ every.conj() / d
    assert np.max(np.abs(rebuilt - inside.matrix)) <= 1e-8


def test_span_builds_the_count_table_once(monkeypatch):
    # N(g, chi) is a fact of the group: the first span solve builds it on
    # the family record, and later solves read it there
    group = parse_group("Z2xZ2xZ2xZ2")
    family = _family(group)
    builds = []
    build = type(family).N.func
    monkeypatch.setattr(type(family).N, "func", lambda self: builds.append(self) or build(self))
    family.__dict__.pop("N", None)
    rng = np.random.default_rng(251)
    first, second = (span_membership(random_hermitian(group, rng)) for _ in range(2))
    assert first.verdict == second.verdict == "outside"
    assert builds == [family]


@pytest.mark.parametrize("name", BATTERY + ["Z64", "Z128", "Z2xZ2xZ2xZ2", "Z3xZ3xZ3", "Z6xZ6"])
def test_span_residual_is_the_off_support_characteristic_mass(name):
    # The span is the KD-real operators, whose bare characteristic function
    # vanishes where chi(g) != 1; projecting onto them zeroes exactly that
    # mass, so the residual is its norm, read here without the family.
    group = parse_group(name)
    off_support = group.char_phase.T != 0
    rng = np.random.default_rng(241)
    for _ in range(3):
        op = random_hermitian(group, rng)
        c = char_fn(op, "standard0").values
        expected = np.sqrt(np.sum(np.abs(c[off_support]) ** 2) / group.order)
        result = span_membership(op)
        assert abs(result.residual - expected) <= 1e-12 * max(1.0, expected)
    if group.order < 64:
        return
    # Z64 and Z128 take the FFT route of the transforms
    family = enumerate_kd_positive_pure(group)
    picks = rng.choice(len(family), size=4, replace=False)
    vectors = np.stack([family[i].vector.values for i in picks])
    inside = Operator.from_matrix(group, (vectors.T * rng.normal(size=4)) @ vectors.conj() / group.order)
    result = span_membership(inside)
    assert result.verdict == "inside"
    assert result.span_dimension == kd_real_dimension(group)
    every = np.stack([m.vector.values for m in family])
    rebuilt = (every.T * result.weights) @ every.conj() / group.order
    assert np.max(np.abs(rebuilt - inside.matrix)) <= 1e-8


def _table_span_reference(op):
    """The span projection in KD-table coordinates, without the characteristic function.

    Minimum-norm coefficients pair(F(F(Re T) / N)), F the symplectic Fourier
    transform and N the subgroup counts, and the remainder T - combine(them).
    """
    group = op.group
    family = _family(group)
    table = _kd_table(group, op.kernel)
    fhat = symplectic_fourier(PhaseSpaceFunction(group, table.real)).values
    q = np.divide(fhat, family.N, out=np.zeros_like(fhat), where=family.N > 0)
    coeffs = family.pair(symplectic_fourier(PhaseSpaceFunction(group, q)).values.real)
    return coeffs, table - family.combine(coeffs)


def _member_combination(group, rng, k=4):
    """A seeded real combination of k family projectors: in the span."""
    family = enumerate_kd_positive_pure(group)
    picks = rng.choice(len(family), size=k, replace=False)
    return Operator(group, sum(c * family[i].projector().kernel for c, i in zip(rng.normal(size=k), picks)))


@pytest.mark.parametrize("name", BATTERY + ["Z64", "Z128", "Z2xZ2xZ2xZ2", "Z3xZ3xZ3", "Z6xZ6"])
def test_span_matches_the_table_coordinate_reference(name):
    # span_membership reads the remainder off the characteristic function;
    # the reference projects the KD table instead, so the two share only the
    # family record.  The remainder's table is the witness table times the residual.
    group = parse_group(name)
    rng = np.random.default_rng(269)
    for op, verdict in ((_member_combination(group, rng), "inside"), (random_hermitian(group, rng), "outside")):
        coeffs, remainder = _table_span_reference(op)
        scale = max(1.0, op.hs_norm())
        expected = float(np.linalg.norm(remainder)) / np.sqrt(group.order)
        result = span_membership(op)
        assert result.verdict == verdict
        assert abs(result.residual - expected) <= 1e-12 * scale
        if verdict == "inside":
            assert np.max(np.abs(result.weights - coeffs)) <= 1e-12 * scale
            continue
        table = _kd_table(group, result.witness.kernel)
        assert np.max(np.abs(table * result.residual - remainder)) <= 1e-12 * scale
        gap = float(np.vdot(remainder, _kd_table(group, op.kernel)).real) / group.order / expected
        assert abs(result.gap - gap) <= 1e-12 * scale


@pytest.mark.parametrize("name", BATTERY + ["Z64", "Z2xZ2xZ2xZ2"])
def test_span_verdicts_hold_at_every_scale(name):
    # tol.membership is absolute: an in-span operator reads "inside" until its
    # off-support rounding passes it, then "inconclusive", never "outside",
    # as its gap stays under the rounding floor DEFAULT.exact ||A||.  The
    # probe's characteristic function is exactly zero off chi(g) = 1, so it is
    # inside at every scale; an operator off the span is outside at every scale,
    # and each certificate re-verifies on the returned witness.
    group = parse_group(name)
    d = group.order
    family = _family(group)
    rng = np.random.default_rng(271)
    combination, off_span = _member_combination(group, rng).kernel, random_hermitian(group, rng).kernel
    for s in (10.0 ** k for k in range(-3, 16)):
        probe = np.eye(d, dtype=complex) / d     # diag(1/|G|, s, 1/|G|, ...)
        probe[1, 1] = s
        assert span_membership(Operator.from_matrix(group, probe)).verdict == "inside"
        assert span_membership(Operator(group, s * combination)).verdict != "outside"
        op = Operator(group, s * off_span)
        result = span_membership(op)
        assert result.verdict == "outside"
        w = _kd_table(group, result.witness.kernel)
        assert np.max(np.abs(family.pair(w.real))) <= max(DEFAULT.membership, DEFAULT.exact)
        assert float(np.vdot(w, _kd_table(group, op.kernel)).real) / d == pytest.approx(result.gap, rel=1e-10)


def test_hull_query_reads_one_kd_table(monkeypatch):
    # the positivity probe's table is the one the hull solve reads
    calls = []

    def counted(group, kernel):
        calls.append(group)
        return _kd_table(group, kernel)

    group = parse_group("Z6")
    monkeypatch.setattr(fragment, "_kd_table", counted)
    result = conv_membership(_family_mixture(group, np.random.default_rng(3)))
    assert result.verdict == "inside"
    assert len(calls) == 1


def test_membership_result_json_shapes():
    z2 = parse_group("Z2")
    inside = conv_membership(Operator.identity(z2) * 0.5).to_json()
    assert inside["verdict"] == "inside"
    assert [(entry["index"], entry["weight"]) for entry in inside["certificate"]["weights"]] == [
        (i, pytest.approx(0.25, abs=1e-12)) for i in range(4)]
    outside = span_membership(_off_support_op(z2)).to_json()
    assert outside["verdict"] == "outside"
    assert "witness" in outside["certificate"]
    assert outside["certificate"]["gap"] > 0


class _GramFamily:
    """The hull solver's read of a family, from its dense Gram matrix."""

    def __init__(self, gram):
        self.gram = gram

    def overlaps(self, idx):
        return self.gram[:, idx]


def _reference_simplex_nnls(family, corr, lam0=None):
    """The dense active-set solve: one minimum-norm ``lstsq`` on the whole
    (k + 1)-square KKT system per iteration, with no carried inverse."""
    n = corr.size
    scale = max(1.0, float(np.max(np.abs(corr))))
    start = int(np.argmax(2.0 * corr - 1.0))
    if lam0 is None:
        lam0 = np.zeros(n)
        lam0[start] = 1.0
    passive = [int(i) for i in np.flatnonzero(lam0)]
    cols = family.overlaps(np.array(passive))
    lam = lam0
    converged = False
    iterations = 0
    for iterations in range(1, 50 * n + 201):
        idx = np.array(passive)
        k = idx.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = cols[idx]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.append(corr[idx], 1.0)
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        s, nu = sol[:k], float(sol[k])
        if s.min() >= -1e-12:
            lam = np.zeros(n)
            lam[idx] = np.clip(s, 0.0, None)
            lam /= lam.sum()
            grad = corr - cols @ lam[idx]
            slack = grad - nu
            slack[idx] = -np.inf
            j = int(np.argmax(slack))
            if slack[j] <= 1e-12 * scale:
                converged = True
                break
            passive.append(j)
            cols = np.column_stack([cols, family.overlaps(np.array([j]))])
        else:
            lam_p = lam[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(s < 0, lam_p / np.maximum(lam_p - s, 1e-300), np.inf)
            alpha = min(max(float(np.min(steps)), 0.0), 1.0)
            lam_p = lam_p + alpha * (s - lam_p)
            keep = lam_p > 1e-14
            lam = np.zeros(n)
            lam[idx[keep]] = lam_p[keep]
            passive = [int(i) for i in idx[keep]]
            cols = cols[:, keep]
            if not passive:
                passive = [start]
                cols = family.overlaps(np.array(passive))
                lam[:] = 0.0
                lam[start] = 1.0
    total = lam.sum()
    if total > 0:
        lam = lam / total
    return lam, converged, iterations


def _compare_with_reference(family, corr, residual_of, start=None):
    """Solve both ways, the reference from the start state's weights; the
    residuals must agree within 1e-12 of the scale.  Returns the solver's state."""
    lam, converged, _, state = _simplex_nnls(family, corr, start)
    ref, ref_converged, _ = _reference_simplex_nnls(family, corr, None if start is None else start[0])
    scale = max(1.0, float(np.max(np.abs(corr))))
    assert converged and ref_converged
    assert lam.min() >= 0.0
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(residual_of(lam) - residual_of(ref)) <= 1e-12 * scale
    return state


def test_simplex_nnls_matches_dense_reference_on_the_battery(battery_group):
    # the mixed state cold, then an ascent path cold and warm from the
    # previous step's state, as the witness search solves it
    group = battery_group
    d = group.order
    ctx = _family(group)

    def solve(table, start=None):
        return _compare_with_reference(
            ctx, ctx.pair(table.real), lambda w: np.linalg.norm(table - ctx.combine(w)), start)

    solve(_kd_table(group, np.eye(d, dtype=complex)))
    direction = _random_direction(group, np.random.default_rng(223))
    current = np.eye(d, dtype=complex) / d
    previous = None
    for _ in range(6):
        current, _, _ = _dykstra(group, current + 0.25 * direction, 12, 1e-12)
        table = _kd_table(group, current * d)
        state = solve(table)
        if previous is not None:
            solve(table, previous)
        previous = state


@pytest.mark.parametrize("name", ["Z2xZ2xZ2xZ2", "Z3xZ3xZ3"])
def test_simplex_nnls_matches_dense_reference_on_full_mixtures(name):
    # dense mixtures of every member: the passive set grows to kd_real_dimension
    group = parse_group(name)
    ctx = _family(group)
    n = len(ctx.members)
    rng = np.random.default_rng(227)
    for _ in range(10):
        table = ctx.combine(rng.dirichlet(np.ones(n)))
        _compare_with_reference(ctx, ctx.pair(table), lambda w: np.linalg.norm(table - ctx.combine(w)))


def _gram_problems():
    """40 seeded least-squares problems (a, y), half of them with dependent columns."""
    rng = np.random.default_rng(229)
    for trial in range(40):
        m, n = int(rng.integers(5, 30)), int(rng.integers(2, 25))
        if trial % 2:
            rank = int(rng.integers(1, min(m, n) + 1))
            a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        else:
            a = rng.normal(size=(m, n))
        y = a @ rng.dirichlet(np.ones(n)) if trial % 4 < 2 else rng.normal(size=m)
        yield a, y


def test_simplex_nnls_matches_dense_reference_on_gram_problems():
    # a row of ones gives every column the family's unit trace, so even
    # dependent columns are never pivoted on
    for a, y in _gram_problems():
        a, y = np.vstack([a, np.ones(a.shape[1])]), np.append(y, 1.0)
        _compare_with_reference(_GramFamily(a.T @ a), a.T @ y, lambda w: np.linalg.norm(y - a @ w))


def test_simplex_nnls_stops_unconverged_on_a_dependent_join(monkeypatch):
    # without unit trace a dependent column can join; the solve stops there
    # with feasible weights, and the hull verdict is "inconclusive"
    stopped = 0
    for a, y in _gram_problems():
        family, corr = _GramFamily(a.T @ a), a.T @ y
        lam, converged, _, _ = _simplex_nnls(family, corr)
        assert lam.min() >= 0.0
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        if converged:
            ref, _, _ = _reference_simplex_nnls(family, corr)
            scale = max(1.0, float(np.max(np.abs(corr))))
            assert abs(np.linalg.norm(y - a @ lam) - np.linalg.norm(y - a @ ref)) <= 1e-12 * scale
        stopped += not converged
    assert 0 < stopped < 40
    monkeypatch.setattr(fragment, "PIVOT_FLOOR", 1.0)
    group = parse_group("Z6")
    family = enumerate_kd_positive_pure(group)
    two = Operator(group, (family[1].projector().kernel + family[8].projector().kernel) / 2)
    assert np.min(_kd_table(group, two.kernel).real) <= DEFAULT.exact   # no span certificate
    result = conv_membership(two)
    assert result.converged is False
    assert result.verdict == "inconclusive"
    assert result.iterations == 1


def test_cold_hull_solve_calls_no_lstsq(monkeypatch):
    # the mixed state of Z64 takes 64 active-set iterations, each of which
    # was one dense KKT lstsq; the carried inverse needs none, and neither
    # does conv_membership, which certifies that state from its span
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    group = parse_group("Z64")
    family = _family(group)
    table = _kd_table(group, np.eye(group.order, dtype=complex))
    _, converged, iterations, _ = _simplex_nnls(family, family.pair(table.real))
    assert converged
    assert iterations == 64
    assert calls == []
    assert conv_membership(_mixed(group)).verdict == "inside"
    assert calls == []


def _count_calls(monkeypatch, name):
    """Count the calls of ``fragment``'s function ``name``, such as the
    minimum-norm span solve that span and hull share."""
    calls = []
    solve = getattr(fragment, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fragment, name, counted)
    return calls


def _mixed(group):
    return Operator.identity(group) * (1.0 / group.order)


def _assert_certifies(rho, result):
    """An inside verdict whose simplex weights rebuild rho, from the member vectors, within tol.membership."""
    group = rho.group
    assert result.verdict == "inside"
    assert result.weights.min() >= 0.0
    assert abs(result.weights.sum() - 1.0) <= 1e-12
    vectors = np.stack([m.vector.values for m in enumerate_kd_positive_pure(group)])
    rebuilt = (vectors.T * result.weights) @ vectors.conj() / group.order
    assert Operator.from_matrix(group, rebuilt).hs_distance(rho) <= DEFAULT.membership


@pytest.mark.parametrize("name", ["Z9", "Z12", "Z3xZ3", "Z64", "Z4xZ4", "Z6xZ6",
                                  "Z2xZ2xZ2xZ2", "Z3xZ3xZ3", "Z128"])
def test_mixed_states_take_the_span_certificate(name, monkeypatch):
    # the active set would need |G| joins for the maximally mixed state;
    # its span coefficients are all positive, so one span solve certifies
    # it before any active-set iteration
    calls = _count_calls(monkeypatch, "_span_coefficients")
    solves = _count_calls(monkeypatch, "_simplex_nnls")
    group = parse_group(name)
    rho = _mixed(group)
    result = conv_membership(rho)
    assert calls == [1]
    assert solves == []
    assert result.converged is True
    assert result.iterations == 0
    assert np.count_nonzero(result.weights) > group.order
    _assert_certifies(rho, result)


@pytest.mark.parametrize("name", ["Z2", "Z2xZ2", "Z6", "Z8", "Z9", "Z64"])
def test_span_certified_states_make_no_active_set_solve(name, monkeypatch):
    # on small groups the active set could solve the mixed state in a few
    # joins, but a strictly positive table is offered the span first
    solves = _count_calls(monkeypatch, "_simplex_nnls")
    group = parse_group(name)
    rho = _mixed(group)
    result = conv_membership(rho)
    assert solves == []
    assert (result.verdict, result.converged, result.iterations) == ("inside", True, 0)
    _assert_certifies(rho, result)


@pytest.mark.parametrize("name", ["Z9", "Z12", "Z64", "Z6xZ6"])
def test_span_certificates_are_the_renormalized_span_coefficients(name):
    # the mixed state and full mixtures concentrated near the uniform one,
    # whose span coefficients are all nonnegative: the hull weights are
    # those coefficients over their sum, to the bit
    group = parse_group(name)
    family = _family(group)
    rng = np.random.default_rng(257)
    members = np.stack([m.projector().kernel for m in family.members])
    states = [_mixed(group)]
    states += [Operator(group, np.tensordot(rng.dirichlet(np.full(len(members), 20.0)), members, axes=1))
               for _ in range(3)]
    for rho in states:
        coeffs = fragment._span_coefficients(family, char_fn(rho, "standard0").values)
        assert coeffs.min() >= 0.0
        result = conv_membership(rho)
        assert result.iterations == 0
        assert np.array_equal(result.weights, coeffs / coeffs.sum())


@pytest.mark.parametrize("name", ["Z2xZ2xZ2xZ2", "Z6xZ6"])
def test_full_mixtures_read_inside_with_simplex_weights(name):
    group = parse_group(name)
    rho = _family_mixture(group, np.random.default_rng(233))
    _assert_certifies(rho, conv_membership(rho))


def _zero_cell_state(group):
    """The uniform mixture of the members whose KD table is zero at (0, 0):
    dense elsewhere, so the active set needs many joins, but that cell
    computes to a rounding of either sign."""
    family = enumerate_kd_positive_pure(group)
    picks = [m for m in family if _kd_table(group, m.projector().kernel)[0, 0].real < 0.5]
    return Operator(group, sum(m.projector().kernel for m in picks) / len(picks))


@pytest.mark.parametrize("name", ["Z4xZ4", "Z6xZ6", "Z64", "Z2xZ2xZ2xZ2", "Z12"])
def test_states_the_span_cannot_certify_make_no_span_solve(name, monkeypatch):
    # a member, a sparse mixture and a table with a zero cell: no dense
    # positive weights rebuild them, and no span solve is made
    calls = _count_calls(monkeypatch, "_span_coefficients")
    group = parse_group(name)
    rng = np.random.default_rng(239)
    family = enumerate_kd_positive_pure(group)
    member = family[int(rng.integers(len(family)))].projector()
    zero_cell = _zero_cell_state(group)
    assert abs(_kd_table(group, zero_cell.kernel)[0, 0]) <= 1e-15
    for rho in (member, _family_mixture(group, rng, k=5), zero_cell):
        result = conv_membership(rho)
        assert result.verdict == "inside"
        assert calls == []
    # |G|^2 - 1 nonzero cells, |G| per member, one member joined per iteration
    assert result.iterations >= group.order


@pytest.mark.parametrize("name", ["Z6xZ6", "Z128"])
def test_negative_span_coefficients_leave_the_solve_uninterrupted(name, monkeypatch):
    # a full Dirichlet mixture whose span coefficients dip below zero: the
    # span solve is made once, and the active set carries on to exactly
    # the weights, count and flag of a solve that never paused
    calls = _count_calls(monkeypatch, "_span_coefficients")
    group = parse_group(name)
    rho = _family_mixture(group, np.random.default_rng(241))
    family = _family(group)
    c = char_fn(rho, "standard0").values
    assert fragment._span_coefficients(family, c).min() < 0.0
    calls.clear()
    result = conv_membership(rho)
    assert calls == [1]
    lam, converged, iterations, _ = _simplex_nnls(family, family.pair(_kd_table(group, rho.kernel).real))
    assert iterations >= group.order    # |G|^2 nonzero cells, |G| per member
    assert (result.converged, result.iterations) == (converged, iterations)
    assert np.array_equal(result.weights, lam)
    _assert_certifies(rho, result)


def test_a_negative_membership_bound_refuses_the_span_certificate(monkeypatch):
    # the span weights of the mixed state are positive but cannot meet a
    # negative bound, so the active set runs to its own end, inconclusive
    calls = _count_calls(monkeypatch, "_span_coefficients")
    group = parse_group("Z64")
    rho = _mixed(group)
    result = conv_membership(rho, DEFAULT.override(membership=-1.0))
    assert calls == [1]
    assert result.verdict == "inconclusive"
    assert result.converged is True
    assert result.iterations == 64


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
        lam, converged, _, _ = _simplex_nnls(_GramFamily(a.T @ a), a.T @ y)
        residual = float(np.linalg.norm(y - a @ lam))
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


def _vertex_state(family, i, n):
    """The state a cold solve starts from, at vertex i instead of the best one."""
    lam = np.zeros(n)
    lam[i] = 1.0
    col = family.overlaps(np.array([i]))
    return lam, np.array([i]), 1.0 / col[[i]], col


def test_simplex_nnls_warm_start_matches_cold(battery_group):
    # targets along one ascent path, as the witness search sees them;
    # a start from any vertex, or from the previous step's state, must
    # reach the cold solve's hull residual
    group = battery_group
    d = group.order
    ctx = _family(group)
    n = len(ctx.members)
    rng = np.random.default_rng(197)
    direction = _random_direction(group, rng)
    current = np.eye(d, dtype=complex) / d
    previous = None
    for _ in range(6):
        current, _, _ = _dykstra(group, current + 0.25 * direction, 12, 1e-12)
        table = _kd_table(group, current * d)
        corr = ctx.pair(table.real)
        lam, converged, _, state = _simplex_nnls(ctx, corr)
        residual = np.linalg.norm(table - ctx.combine(lam)) / np.sqrt(d)
        assert converged
        starts = [_vertex_state(ctx, int(rng.integers(n)), n)] + ([previous] if previous is not None else [])
        for start in starts:
            warm, warm_converged, _, _ = _simplex_nnls(ctx, corr, start)
            warm_residual = np.linalg.norm(table - ctx.combine(warm)) / np.sqrt(d)
            assert warm_converged
            assert warm.min() >= 0.0
            assert warm.sum() == pytest.approx(1.0, abs=1e-12)
            assert abs(warm_residual - residual) <= 1e-12
        previous = state


def test_warm_hull_solves_track_cold_ones_along_an_ascent(battery_group):
    # the seed-0 search's first direction, 100 steps, each solve warm from
    # the state the previous one ended in, as the witness search runs it:
    # every carried G_P^-1 stays an accurate inverse of a well-conditioned
    # block (the solver never pivots past PIVOT_FLOOR), and every warm
    # residual is the cold one
    group = battery_group
    d = group.order
    ctx = _family(group)
    direction = _random_direction(group, np.random.default_rng(0))
    current = np.eye(d, dtype=complex) / d
    state = None
    for _ in range(100):
        current, _, _ = _dykstra(group, current + fragment.STEP_SIZE * direction,
                                 fragment.SEARCH_PROJ_ITERS, 1e-12)
        table = _kd_table(group, current * d)
        corr = ctx.pair(table.real)
        scale = max(1.0, float(np.max(np.abs(corr))))
        warm, warm_converged, _, state = _simplex_nnls(ctx, corr, state)
        cold, cold_converged, _, _ = _simplex_nnls(ctx, corr)
        assert warm_converged and cold_converged
        residuals = [np.linalg.norm(table - ctx.combine(lam)) / np.sqrt(d) for lam in (warm, cold)]
        assert abs(residuals[0] - residuals[1]) <= 1e-12 * scale
        _, passive, inv, buffer = state
        block = buffer[passive, :passive.size]
        assert np.linalg.cond(block) * fragment.PIVOT_FLOOR <= 1.0
        assert np.max(np.abs(inv @ block - np.eye(passive.size))) <= 1e-9


def _wrapper_simplex_nnls(family, corr, start=None):
    """`_simplex_nnls` as it was written with numpy's Python-level helpers
    np.clip, np.append and np.outer, line for line otherwise."""
    n = corr.size
    scale = max(1.0, float(np.max(np.abs(corr))))
    if start is None:
        passive = np.array([int(np.argmax(2.0 * corr - 1.0))])
        lam = np.zeros(n)
        lam[passive] = 1.0
        buffer = family.overlaps(passive)
        inv = np.linalg.inv(buffer[passive])
    else:
        lam, passive, inv, buffer = start
    converged = False
    iterations = 0
    for iterations in range(1, 50 * n + 201):
        a = inv @ corr[passive]
        b = inv.sum(axis=1)
        nu = (a.sum() - 1.0) / b.sum()
        s = a - nu * b
        if s.min() >= -1e-12:
            lam = np.zeros(n)
            lam[passive] = np.clip(s, 0.0, None)
            lam /= lam.sum()
            grad = corr - buffer[:, :passive.size] @ lam[passive]
            slack = grad - nu
            slack[passive] = -np.inf
            j = int(np.argmax(slack))
            if slack[j] <= 1e-12 * scale:
                converged = True
                break
            col = family.overlaps(np.array([j]))[:, 0]
            u = inv @ col[passive]
            sigma = col[j] - col[passive] @ u
            if sigma <= fragment.PIVOT_FLOOR * col[j]:
                break
            w = np.append(-u, 1.0)
            bordered = np.outer(w, w / sigma)
            bordered[:-1, :-1] += inv
            inv = bordered
            k = passive.size
            if k == buffer.shape[1]:
                grown = np.empty((n, min(2 * k, n)))
                grown[:, :k] = buffer
                buffer = grown
            buffer[:, k] = col
            passive = np.append(passive, j)
        else:
            lam_p = lam[passive]
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(s < 0, lam_p / np.maximum(lam_p - s, 1e-300), np.inf)
            alpha = min(max(float(np.min(steps)), 0.0), 1.0)
            lam_p = lam_p + alpha * (s - lam_p)
            keep = lam_p > 1e-14
            lam = np.zeros(n)
            lam[passive[keep]] = lam_p[keep]
            d = inv[:, ~keep]
            inv = (inv - d @ np.linalg.solve(d[~keep], d.T))[np.ix_(keep, keep)]
            passive = passive[keep]
            buffer[:, :passive.size] = buffer[:, np.flatnonzero(keep)]
    total = lam.sum()
    if total > 0:
        lam = lam / total
    return lam, converged, iterations, (lam, passive, inv, buffer)


def _assert_same_solve(got, expected):
    (lam, converged, iterations, (_, passive, inv, buffer)) = got
    (lam_x, converged_x, iterations_x, (_, passive_x, inv_x, buffer_x)) = expected
    assert (converged, iterations) == (converged_x, iterations_x)
    assert passive.dtype == passive_x.dtype
    assert np.array_equal(passive, passive_x)
    assert np.array_equal(lam, lam_x)
    assert np.array_equal(inv, inv_x)
    assert np.array_equal(buffer[:, :passive.size], buffer_x[:, :passive.size])


@pytest.mark.parametrize("name", ["Z64", "Z4xZ4", "Z6xZ6", "Z2xZ2xZ2xZ2", "Z3xZ3xZ3", "Z6", "Z8", "Z2xZ4"])
def test_simplex_nnls_keeps_the_bits_of_its_wrapper_helper_form(name):
    # the build workload's context solve (the mixed state), then an ascent
    # as the witness search runs it: each point solved cold, and warm from
    # the previous point's state along two separate chains, one per solver
    group = parse_group(name)
    d = group.order
    ctx = _family(group)
    table = _kd_table(group, np.eye(d, dtype=complex))
    _assert_same_solve(_simplex_nnls(ctx, ctx.pair(table.real)),
                       _wrapper_simplex_nnls(ctx, ctx.pair(table.real)))
    direction = _random_direction(group, np.random.default_rng(0))
    current = np.eye(d, dtype=complex) / d
    state = state_x = None
    for _ in range(12 if d <= 8 else 4):
        current, _, _ = _dykstra(group, current + fragment.STEP_SIZE * direction,
                                 fragment.SEARCH_PROJ_ITERS, 1e-12)
        corr = ctx.pair(_kd_table(group, current * d).real)
        _assert_same_solve(_simplex_nnls(ctx, corr), _wrapper_simplex_nnls(ctx, corr))
        warm, warm_x = _simplex_nnls(ctx, corr, state), _wrapper_simplex_nnls(ctx, corr, state_x)
        _assert_same_solve(warm, warm_x)
        state, state_x = warm[3], warm_x[3]


def test_witness_ascent_inverts_one_gram_block(monkeypatch):
    # a 100-step single-direction ascent: the first solve is cold and
    # inverts its 1 x 1 block, each later one resumes from the state the
    # previous solve ended in; none rebuilds or conditions a support.  The
    # candidate check, whose fresh hull solve is cold, is left out.
    calls = {"cond": 0, "inv": 0}
    monkeypatch.setattr(fragment, "_verify_outside_candidate", lambda *args: None)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    assert find_conv_gap_witness(parse_group("Z8"), seed=0, budget=100) is None
    assert calls == {"cond": 0, "inv": 1}


def _reference_project_simplex(values):
    """Sorted form of the simplex projection, for any input order."""
    u = np.sort(values)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, values.size + 1)
    k = np.max(np.nonzero(u - css / ks > 0)[0]) + 1
    return np.clip(values - css[k - 1] / k, 0.0, None)


def _cumsum_project_simplex(values):
    """The array form of the simplex shift on ascending values."""
    u = values[::-1]
    css = np.cumsum(u) - 1.0
    k = np.count_nonzero(u - css / np.arange(1, values.size + 1) > 0)
    return np.maximum(values - css[k - 1] / k, 0.0)


SIMPLEX_INPUTS = {
    "ties": [-0.5, 0.25, 0.25, 0.25, 0.75, 0.75],
    "all-equal": [0.3] * 7,
    "one-positive": [-2.0, -1.0, -0.5, 0.4],
    "on-simplex": [0.0, 0.1, 0.2, 0.3, 0.4],
    "all-negative": [-3.0, -2.5, -1.0, -0.25],
    "length-1": [0.7],
}


@pytest.mark.parametrize("values", list(SIMPLEX_INPUTS.values()), ids=list(SIMPLEX_INPUTS))
def test_project_simplex_matches_cumsum_form_exactly(values):
    values = np.array(values)
    assert np.array_equal(_project_simplex(values), _cumsum_project_simplex(values))


def _reference_project_kd_nonneg(group, matrix):
    """The clamp on the scaled table, inverted by the difference-table gather
    K[g, g'] = w[g, g - g'] with w = T X."""
    d = group.order
    clamped = np.clip(_kd_table(group, matrix * d).real, 0.0, None).astype(complex)
    w = clamped @ group.char_table
    return np.take_along_axis(w, group.diff_table, axis=1) / d


def test_lean_dykstra_step_matches_reference(battery_group):
    group = battery_group
    d = group.order
    rng = np.random.default_rng(199)
    for _ in range(20):
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = (raw + raw.conj().T) / 4.0
        vals = np.linalg.eigvalsh(herm)
        assert np.max(np.abs(_project_simplex(vals) - _reference_project_simplex(vals))) <= 1e-12
        assert np.array_equal(_project_simplex(vals), _cumsum_project_simplex(vals))
        matrix = np.eye(d) / d + herm / d
        lean = _project_kd_nonneg(group, matrix)
        assert np.max(np.abs(lean - _reference_project_kd_nonneg(group, matrix))) <= 1e-12


def _reference_dykstra(group, m0, max_iter, tol):
    """The alternation with an ``eigh`` on every iteration."""
    x = m0
    p = np.zeros_like(m0)
    q = np.zeros_like(m0)
    y = x
    gap = np.inf
    its = 0
    for its in range(1, max_iter + 1):
        xp = x + p
        herm = (xp + xp.conj().T) / 2.0
        vals, vecs = np.linalg.eigh(herm)
        y = (vecs * _project_simplex(vals)) @ vecs.conj().T
        p = xp - y
        yq = y + q
        x = _project_kd_nonneg(group, yq)
        q = yq - x
        gap = float(np.linalg.norm(y - x))
        if gap <= tol:
            break
    return y, gap, its


def _counting_eigh(monkeypatch):
    """Count the ``fragment._eigh`` calls made from now on."""
    calls = []
    eigh = fragment._eigh

    def counted(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(fragment, "_eigh", counted)
    return calls


# The battery's orders and three larger ones.
_EIGH_ORDERS = sorted({parse_group(name).order for name in BATTERY} | {16, 27, 36})


def _hermitian_cases(d, rng):
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    stack = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    return [
        (raw + raw.conj().T) / 2.0,
        np.outer(v, v.conj()),                      # rank one
        np.eye(d, dtype=complex),                   # one eigenvalue, d-fold
        (stack + stack.conj().transpose(0, 2, 1)) / 2.0,
    ]


@pytest.mark.parametrize("d", _EIGH_ORDERS)
def test_eigh_seam_matches_numpy_bit_for_bit(d):
    rng = np.random.default_rng(1000 + d)
    for matrix in _hermitian_cases(d, rng):
        vals, vecs = _eigh(matrix)
        ref_vals, ref_vecs = np.linalg.eigh(matrix)
        assert vals.shape == matrix.shape[:-1] and vecs.shape == matrix.shape
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)


@pytest.mark.parametrize("entry, bad", [
    ((3, 2), np.nan), ((3, 2), np.inf), ((3, 2), -np.inf), ((3, 2), complex(0.0, np.nan)),
    ((3, 2), complex(0.0, np.inf)), ((1, 1), np.nan), ((1, 1), np.inf),
], ids=["nan", "inf", "-inf", "nan-imag", "inf-imag", "diagonal-nan", "diagonal-inf"])
@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4)], ids=["matrix", "stack"])
def test_eigh_seam_raises_on_non_finite_input(shape, entry, bad):
    # LAPACK gives a failed matrix NaN eigenvalues: numpy's eigh raises on
    # a NaN entry but returns them for an inf; the seam raises on both,
    # with no warning
    matrix = np.zeros(shape, dtype=complex) + np.eye(4)
    last = matrix.reshape(-1, 4, 4)[-1]         # only the last matrix of a stack fails
    last[entry] = bad
    last[entry[::-1]] = np.conj(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _eigh(matrix)


def test_witness_search_and_projection_bypass_numpy_eigh(monkeypatch):
    # the same bits with the seam as with numpy's eigh in its place, and
    # no call left to numpy's eigh
    z6 = parse_group("Z6")
    rho = random_hermitian(parse_group("Z8"), np.random.default_rng(233))
    with monkeypatch.context() as patch:
        patch.setattr(fragment, "_eigh", np.linalg.eigh)
        ref_witness = find_conv_gap_witness(z6, seed=0)
        ref_projection = project_onto_kdpos(rho, max_iter=300)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    witness = find_conv_gap_witness(z6, seed=0)
    projection = project_onto_kdpos(rho, max_iter=300)
    assert (witness.gap, witness.conv_residual) == (ref_witness.gap, ref_witness.conv_residual)
    assert (witness.iterations_used, witness.directions_tried) == PINNED_WITNESSES["Z6"][1:]
    assert np.array_equal(witness.state.matrix, ref_witness.state.matrix)
    assert np.array_equal(witness.functional.matrix, ref_witness.functional.matrix)
    assert np.array_equal(projection.state.matrix, ref_projection.state.matrix)
    assert (projection.distance, projection.residual, projection.converged, projection.iterations) == (
        ref_projection.distance, ref_projection.residual, ref_projection.converged, ref_projection.iterations)


def test_shift_step_matches_always_eigh_reference(battery_group):
    # random full-rank states, witness-like steps off the mixed state, and
    # nearly pure states, whose iterates start full rank and can lose rank
    # on the way, where the shift must hand back to eigh
    group = battery_group
    d = group.order
    rng = np.random.default_rng(227)
    starts = [random_state(group, rng).matrix for _ in range(3)]
    starts += [np.eye(d) / d + 0.25 * _random_direction(group, rng) for _ in range(3)]
    for _ in range(3):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        starts.append(0.9 * np.outer(v, v.conj()) / np.vdot(v, v).real + 0.1 * np.eye(d) / d)
    for m0 in starts:
        for max_iter in (12, 300):
            y, gap, its = _dykstra(group, m0, max_iter, 1e-12)
            ref_y, ref_gap, ref_its = _reference_dykstra(group, m0, max_iter, 1e-12)
            assert np.max(np.abs(y - ref_y)) <= 1e-12
            assert abs(gap - ref_gap) <= 1e-12
            assert its == ref_its


def test_full_rank_projection_skips_most_eigh_calls(monkeypatch):
    group = parse_group("Z8")
    rho = random_state(group, np.random.default_rng(229))
    assert np.linalg.eigvalsh(rho.matrix)[0] > 1e-6
    calls = _counting_eigh(monkeypatch)
    result = project_onto_kdpos(rho, max_iter=100, tol=0.0)
    assert result.iterations == 100
    assert 1 <= len(calls) <= 10
    check_state(result.state)


def test_rank_one_projection_takes_eigh_every_iteration(battery_group, monkeypatch):
    # a pure state never anchors the shift test, so the run is the reference's, bit for bit
    group = battery_group
    family = enumerate_kd_positive_pure(group)
    m0 = family[len(family) // 2].projector().matrix
    ref_y, ref_gap, ref_its = _reference_dykstra(group, m0, 20, -1.0)
    calls = _counting_eigh(monkeypatch)
    y, gap, its = _dykstra(group, m0, 20, -1.0)
    assert len(calls) == its == ref_its == 20
    assert np.array_equal(y, ref_y)
    assert gap == ref_gap


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
    assert is_kd_positive_state(result.state, DEFAULT.override(positivity=1e-8)).is_positive


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


def test_project_requires_an_iteration():
    # with no step taken the input itself, not KD-positive here, would
    # come back as the projected state
    rho = Operator.pure_state(GFunction(parse_group("Z2"), [1.2, np.sqrt(0.56)]))
    for max_iter in (0, -3, 2.5, np.nan):
        with pytest.raises(PreconditionError):
            project_onto_kdpos(rho, max_iter=max_iter)
    assert project_onto_kdpos(rho, max_iter=1).iterations == 1


def test_project_requires_a_finite_tolerance():
    # tol=inf used to stop after one iteration and report convergence on
    # a point still far from KD-positive; tol=nan could never converge
    rho = random_hermitian(parse_group("Z8"), np.random.default_rng(239))
    for tol in (np.inf, -np.inf, np.nan):
        with pytest.raises(PreconditionError, match="finite"):
            project_onto_kdpos(rho, tol=tol)
    assert project_onto_kdpos(rho, tol=1e-6).converged
    for tol in (0.0, -1.0):
        assert project_onto_kdpos(rho, max_iter=50, tol=tol).iterations == 50


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
    lam, _, _, _ = _simplex_nnls(_GramFamily(embed @ embed.T), embed @ y)
    return lam, float(np.linalg.norm(y - embed.T @ lam))


@pytest.mark.parametrize("name", BATTERY + ["Z2xZ2xZ2xZ2", "Z3xZ3xZ3", "Z4xZ4"])
def test_table_geometry_matches_matrix_embedding(name):
    group = parse_group(name)
    d = group.order
    embed, basis = _embedded_family(group)
    ctx = _family(group)
    assert np.max(np.abs(ctx.overlaps(np.arange(len(embed))) - embed @ embed.T)) <= 1e-12
    rows, cols = _stacked_indicators(group)
    tables = (rows[:, :, None] * cols[:, None, :]).reshape(len(embed), d * d)
    assert np.linalg.matrix_rank(tables) == basis.shape[0]

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
PINNED_WITNESSES = {
    "Z2xZ2": (6.525240423259e-2, 100, 1),
    "Z6": (2.548644395291e-2, 300, 3),
    "Z12": (2.073246352947543e-2, 100, 1),
    "Z2xZ4": (3.1111023527868348e-2, 100, 1),
    "Z2xZ2xZ2": (5.660256856057752e-2, 100, 1),
}


@pytest.mark.parametrize("name", list(PINNED_WITNESSES))
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
    assert result.converged
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
    # so must a positivity bound no polished candidate can meet, not even
    # its trace check: each candidate is rejected, the budget runs out
    assert find_conv_gap_witness(parse_group("Z2xZ2"), budget=100,
                                 tol=DEFAULT.override(positivity=1e-16)) is None


def test_witness_search_budget_can_end_inside_a_direction(monkeypatch):
    # Z6's pinned witness comes from its third direction at step 300 of a
    # full budget; with 250 steps that direction stops halfway and its best
    # iterate up to there is the same witness
    witness = find_conv_gap_witness(parse_group("Z6"), seed=0, budget=250)
    assert (witness.iterations_used, witness.directions_tried) == (250, 3)
    assert witness.gap == pytest.approx(PINNED_WITNESSES["Z6"][0], abs=1e-10)
    # Z8 finds nothing, and runs exactly its budget of ascent steps: one
    # search-sized projection each, whether the budget ends inside the
    # first direction or inside the second
    calls = []
    dykstra = fragment._dykstra
    monkeypatch.setattr(fragment, "_dykstra",
                        lambda group, m0, max_iter, tol: calls.append(max_iter) or dykstra(group, m0, max_iter, tol))
    for budget in (37, 150):
        calls.clear()
        assert find_conv_gap_witness(parse_group("Z8"), seed=0, budget=budget) is None
        assert calls.count(fragment.SEARCH_PROJ_ITERS) == budget


def test_witness_search_rejects_negative_budget():
    group = parse_group("Z2xZ2")
    with pytest.raises(PreconditionError):
        find_conv_gap_witness(group, seed=0, budget=-5)
    assert find_conv_gap_witness(group, seed=0, budget=0) is None


@pytest.mark.parametrize("budget", [np.nan, 2.5, np.inf, "3"])
def test_witness_search_rejects_non_integer_budget(budget):
    # a NaN budget would otherwise read as "budget exhausted", and an
    # infinite one would never end on a group without a hull gap
    with pytest.raises(PreconditionError, match="budget must be an integer"):
        find_conv_gap_witness(parse_group("Z2"), seed=0, budget=budget)


@pytest.mark.parametrize("call", [
    lambda: find_conv_gap_witness(parse_group("Z2"), seed=True),
    lambda: find_conv_gap_witness(parse_group("Z2"), budget=True),
    lambda: project_onto_kdpos(Operator.identity(parse_group("Z2")) * 0.5, max_iter=True),
    lambda: verify_group(parse_group("Z2"), seed=False),
], ids=["seed", "budget", "max_iter", "verify-seed"])
def test_bool_counts_are_rejected(call):
    # operator.index(True) is 1, so a bool used to pass as a count
    with pytest.raises(PreconditionError, match="must be an integer, got (True|False)"):
        call()


@pytest.mark.parametrize("seed", [-1, 1.5, np.nan, "0"])
@pytest.mark.parametrize("run", [find_conv_gap_witness, verify_group])
def test_bad_seed_is_rejected_before_any_step(run, seed):
    # not a raw TypeError, and not a report of 28 error rows
    with pytest.raises(PreconditionError, match="seed"):
        run(parse_group("Z2"), seed=seed)


def test_witness_json_shape():
    w = find_conv_gap_witness(parse_group("Z2xZ2"), seed=0, budget=10000)
    blob = w.to_json()
    assert blob["gap"] == w.gap
    assert set(blob) == {"gap", "conv_residual", "iterations_used",
                         "directions_tried", "state", "functional"}
