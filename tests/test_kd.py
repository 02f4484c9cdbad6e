import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from kdlab.circle import BandLimitedOperator
from kdlab.errors import NotAStateError, PreconditionError, UnsupportedOrderError
from kdlab.groups import parse_group
from kdlab.harmonic import (
    LARGE_FACTOR,
    DualFunction,
    GFunction,
    _dft_rows,
    _idft_rows,
    fourier,
    inverse_fourier,
)
from kdlab.kd import (
    _kd_kernel,
    _kd_table,
    akd,
    char_fn,
    char_fn_point,
    fourier_multiplier,
    kd,
    kd_inverse,
    kd_pure,
    kohn_nirenberg,
    marginals,
    multiplication_operator,
    symplectic_fourier,
)
from kdlab.operators import Operator, PhaseSpaceFunction
from kdlab.verify import CHECKS, run_check
from kdlab.weyl import WHElement

from conftest import BATTERY, child_env, kd_oracle, random_hermitian, random_operator, random_state

# Groups whose largest cyclic factor sends the KD transform through the FFT route.
# Z81 is the odd one, where the half ordering applies.
LARGE_FACTOR_GROUPS = ["Z64", "Z128", "Z2xZ64", "Z4xZ64", "Z512", "Z81"]


def _dense_table(group, kernel):
    X = group.char_table
    return X.conj().T * ((kernel @ X.T) / group.order)


def _dense_kernel(group, table):
    X = group.char_table
    return (table * X.T) @ X.conj()


def _dense_char_fn(group, kernel):
    # bare trace(A U(g, chi, 1)) = (1/|G|) sum_y K[y - g, y] chi(y)
    d = group.order
    shifted = kernel[group.diff_table, np.arange(d)[:, None]]
    return (shifted.T @ group.char_table.T) / d


def _dense_symplectic_fourier(group, table):
    X = group.char_table
    return (X @ table @ X.conj()).T / group.order


def test_kd_matches_defining_sum(battery_group):
    group = battery_group
    rng = np.random.default_rng(31)
    for _ in range(5):
        op = random_operator(group, rng)
        table = kd(op)
        assert np.max(np.abs(table.values - kd_oracle(group, op.kernel))) <= 1e-12


def test_kd_position_state_z2():
    z2 = parse_group("Z2")
    psi = GFunction(z2, [np.sqrt(2), 0.0])
    table = kd(Operator.pure_state(psi))
    assert table.values[0] == pytest.approx([1.0, 1.0], abs=1e-12)
    assert table.values[1] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_kd_character_state_z2():
    z2 = parse_group("Z2")
    psi = GFunction(z2, z2.char_table[1].copy())
    table = kd(Operator.pure_state(psi))
    expected = np.zeros((2, 2))
    expected[:, 1] = 1.0
    assert table.values == pytest.approx(expected, abs=1e-12)


def test_kd_negative_value_z2():
    # pure state with a strictly negative KD value
    z2 = parse_group("Z2")
    b = np.sqrt(0.56)
    table = kd(Operator.pure_state(GFunction(z2, [1.2, b])))
    assert table.values[1, 1] == pytest.approx(b * (b - 1.2) / 2, abs=1e-12)
    assert table.values[1, 1].real < -0.168


def test_kd_roundtrip_and_unitarity(battery_group):
    group = battery_group
    rng = np.random.default_rng(37)
    for _ in range(50):
        a = random_operator(group, rng)
        b = random_operator(group, rng)
        ta, tb = kd(a), kd(b)
        assert kd_inverse(ta).hs_distance(a) <= 1e-10
        assert ta.inner(tb) == pytest.approx(a.hs_inner(b), abs=1e-10)
        assert abs(ta.norm() - a.hs_norm()) <= 1e-10


def test_kd_inverse_examples():
    z2 = parse_group("Z2")
    # delta state round trip
    delta = Operator.pure_state(GFunction(z2, [np.sqrt(2), 0.0]))
    assert kd_inverse(kd(delta)).hs_distance(delta) <= 1e-12
    # indicator of G x {chi_0} inverts to the trivial-character projector
    indicator = np.zeros((2, 2), dtype=complex)
    indicator[:, 0] = 1.0
    rebuilt = kd_inverse(PhaseSpaceFunction(z2, indicator))
    chi0 = Operator.pure_state(GFunction(z2, np.ones(2)))
    assert rebuilt.hs_distance(chi0) <= 1e-12
    # zero table inverts to the zero operator
    zero = kd_inverse(PhaseSpaceFunction(z2, np.zeros((2, 2))))
    assert np.max(np.abs(zero.kernel)) == 0.0


def test_kd_pure_matches_projector_route(battery_group):
    group = battery_group
    rng = np.random.default_rng(41)
    for _ in range(20):
        values = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
        psi = GFunction(group, values)
        direct = kd_pure(psi)
        via_op = kd(Operator.pure_state(psi))
        assert np.max(np.abs(direct.values - via_op.values)) <= 1e-12


def test_char_fn_character_projector_z2():
    z2 = parse_group("Z2")
    chi0 = Operator.pure_state(GFunction(z2, np.ones(2)))
    table = char_fn(chi0, "standard0")
    expected = np.zeros((2, 2))
    expected[:, 0] = 1.0
    assert table.values == pytest.approx(expected, abs=1e-12)


def test_char_fn_trace_at_identity(battery_group):
    group = battery_group
    rng = np.random.default_rng(43)
    mixed = Operator.identity(group) * (1.0 / group.order)
    assert char_fn(mixed, "standard0").values[0, 0] == pytest.approx(1.0, abs=1e-12)
    op = random_operator(group, rng)
    assert char_fn(op, "standard0").values[0, 0] == pytest.approx(complex(op.trace()), abs=1e-12)


def test_char_fn_point_agrees_with_table(battery_group):
    group = battery_group
    rng = np.random.default_rng(47)
    for _ in range(5):
        op = random_operator(group, rng)
        table = char_fn(op, "standard0")
        for _ in range(5):
            a = WHElement(
                group.element_by_index(int(rng.integers(group.order))),
                group.character_by_index(int(rng.integers(group.order))),
                1.0,
            )
            direct = char_fn_point(op, a)
            assert direct == pytest.approx(table.values[a.g.index, a.chi.index], abs=1e-10)


def test_char_fn_ordering_relations(battery_group):
    group = battery_group
    rng = np.random.default_rng(53)
    op = random_operator(group, rng)
    bare = char_fn(op, "standard0")
    std1 = char_fn(op, "standard1")
    phases = group.char_table.conj().T
    assert np.max(np.abs(std1.values - bare.values * phases)) <= 1e-12
    if group.order % 2:
        half = char_fn(op, "half")
        half_phases = group.char_table[:, group.halve_table].conj().T
        assert np.max(np.abs(half.values - bare.values * half_phases)) <= 1e-12
    else:
        with pytest.raises(UnsupportedOrderError):
            char_fn(op, "half")


def test_char_fn_rejects_unknown_ordering():
    z2 = parse_group("Z2")
    with pytest.raises(ValueError):
        char_fn(Operator.identity(z2), "weyl")


def test_symplectic_fourier_of_constant(battery_group):
    group = battery_group
    d = group.order
    table = symplectic_fourier(PhaseSpaceFunction(group, np.ones((d, d))))
    expected = np.zeros((d, d))
    expected[0, 0] = d
    assert table.values == pytest.approx(expected, abs=1e-10)
    # and the inverse pair: point mass at (0, chi_0) spreads to the constant 1/|G|
    point = np.zeros((d, d))
    point[0, 0] = 1.0
    back = symplectic_fourier(PhaseSpaceFunction(group, point))
    assert back.values == pytest.approx(np.full((d, d), 1.0 / d), abs=1e-10)


def test_symplectic_fourier_unitary_involution(battery_group):
    group = battery_group
    d = group.order
    rng = np.random.default_rng(59)
    for _ in range(20):
        table = PhaseSpaceFunction(group, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        image = symplectic_fourier(table)
        assert abs(image.norm() - table.norm()) <= 1e-10
        assert np.max(np.abs(symplectic_fourier(image).values - table.values)) <= 1e-10


def test_oconnell_identity(battery_group):
    # kd(A) equals the symplectic transform of the ordered characteristic function
    group = battery_group
    rng = np.random.default_rng(61)
    for _ in range(10):
        op = random_operator(group, rng)
        lhs = kd(op)
        rhs = symplectic_fourier(char_fn(op, "standard1"))
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10


def test_akd_identities(battery_group):
    group = battery_group
    rng = np.random.default_rng(67)
    for _ in range(10):
        op = random_operator(group, rng)
        anti = akd(op)
        assert np.max(np.abs(anti.values - kd(op.adjoint()).values.conj())) <= 1e-10
        herm = random_hermitian(group, rng)
        assert np.max(np.abs(akd(herm).values - kd(herm).values.conj())) <= 1e-10


def test_akd_examples():
    z2 = parse_group("Z2")
    chi0 = Operator.pure_state(GFunction(z2, np.ones(2)))
    assert np.max(np.abs(akd(chi0).values - kd(chi0).values)) <= 1e-12
    zero = Operator(z2, np.zeros((2, 2)))
    assert np.max(np.abs(akd(zero).values)) == pytest.approx(0.0, abs=1e-15)


def test_marginals_examples():
    z2 = parse_group("Z2")
    rho = Operator.pure_state(GFunction(z2, [1.2, np.sqrt(0.56)]))
    position, momentum = marginals(rho)
    assert position == pytest.approx([1.44, 0.56], abs=1e-12)
    chi0 = Operator.pure_state(GFunction(z2, np.ones(2)))
    _, momentum = marginals(chi0)
    assert momentum == pytest.approx([1.0, 0.0], abs=1e-12)
    z6 = parse_group("Z6")
    mixed = Operator.identity(z6) * (1.0 / 6)
    position, momentum = marginals(mixed)
    assert position == pytest.approx(np.ones(6), abs=1e-12)
    assert momentum == pytest.approx(np.full(6, 1.0 / 6), abs=1e-12)


def test_marginals_are_born_weights(battery_group):
    group = battery_group
    rng = np.random.default_rng(71)
    for _ in range(30):
        rho = random_state(group, rng)
        position, momentum = marginals(rho)
        assert position == pytest.approx(np.diag(rho.kernel).real, abs=1e-10)
        assert np.sum(position) / group.order == pytest.approx(1.0, abs=1e-10)
        assert np.sum(momentum) == pytest.approx(1.0, abs=1e-10)
        for ci in range(group.order):
            chi_vec = GFunction(group, group.char_table[ci].copy())
            born = chi_vec.inner(rho.apply(chi_vec)).real
            assert momentum[ci] == pytest.approx(born, abs=1e-10)
        assert kd(rho).total_mass() == pytest.approx(1.0, abs=1e-10)


def test_marginals_rejects_non_states():
    z2 = parse_group("Z2")
    with pytest.raises(NotAStateError, match="[Hh]ermitian"):
        marginals(Operator(z2, [[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotAStateError, match="trace"):
        marginals(Operator.identity(z2))
    with pytest.raises(NotAStateError, match="positive"):
        marginals(Operator(z2, np.diag([4.0, -2.0])))


def test_total_mass_is_trace(battery_group):
    group = battery_group
    rng = np.random.default_rng(73)
    for _ in range(20):
        op = random_operator(group, rng)
        assert kd(op).total_mass() == pytest.approx(complex(op.trace()), abs=1e-10)


def test_kohn_nirenberg_z2_example():
    z2 = parse_group("Z2")
    f = GFunction(z2, [2.0, 0.0])
    h = DualFunction(z2, np.ones(2))
    op = kohn_nirenberg(f, h)
    expected = np.zeros((2, 2))
    expected[0, 0] = 4.0
    assert op.kernel == pytest.approx(expected, abs=1e-12)
    assert kd(op).values == pytest.approx(np.outer(f.values, h.values), abs=1e-12)


def test_kohn_nirenberg_symbol_quantization(battery_group):
    group = battery_group
    d = group.order
    rng = np.random.default_rng(79)
    for _ in range(10):
        f = GFunction(group, rng.normal(size=d) + 1j * rng.normal(size=d))
        h = DualFunction(group, rng.normal(size=d) + 1j * rng.normal(size=d))
        op = kohn_nirenberg(f, h)
        assert np.max(np.abs(kd(op).values - np.outer(f.values, h.values))) <= 1e-10
        composed = multiplication_operator(f) @ fourier_multiplier(h)
        assert op.hs_distance(composed) <= 1e-10


def test_kohn_nirenberg_constant_symbol_cases(battery_group):
    group = battery_group
    d = group.order
    rng = np.random.default_rng(83)
    h = DualFunction(group, rng.normal(size=d) + 1j * rng.normal(size=d))
    ones = GFunction(group, np.ones(d))
    assert kohn_nirenberg(ones, h).hs_distance(fourier_multiplier(h)) <= 1e-12
    f = GFunction(group, rng.normal(size=d) + 1j * rng.normal(size=d))
    const = DualFunction(group, np.ones(d))
    assert kohn_nirenberg(f, const).hs_distance(multiplication_operator(f)) <= 1e-12


def test_multiplication_operator_kd_is_symbol(battery_group):
    group = battery_group
    rng = np.random.default_rng(89)
    f = GFunction(group, rng.normal(size=group.order))
    table = kd(multiplication_operator(f))
    expected = np.tile(f.values[:, None], (1, group.order))
    assert np.max(np.abs(table.values - expected)) <= 1e-12


def test_kohn_nirenberg_ordering_matters():
    # the two compositions of the same symbols differ by a fixed margin
    z4 = parse_group("Z4")
    rng = np.random.default_rng(97)
    f = GFunction(z4, rng.normal(size=4) + 1j * rng.normal(size=4))
    h = DualFunction(z4, rng.normal(size=4) + 1j * rng.normal(size=4))
    forward = kohn_nirenberg(f, h)
    reverse = fourier_multiplier(h) @ multiplication_operator(f)
    assert forward.hs_distance(reverse) > 0.1


def test_kohn_nirenberg_group_mismatch():
    f = GFunction(parse_group("Z2"), np.ones(2))
    h = DualFunction(parse_group("Z4"), np.ones(4))
    with pytest.raises(ValueError):
        kohn_nirenberg(f, h)


@pytest.mark.parametrize("name", ["Z3", "Z9", "Z3xZ3"])
def test_half_order_table_real_for_hermitian_odd(name):
    group = parse_group(name)
    rng = np.random.default_rng(101)
    for _ in range(20):
        herm = random_hermitian(group, rng)
        wig = symplectic_fourier(char_fn(herm, "half"))
        assert wig.max_abs_imag() <= 1e-10
        op = random_operator(group, rng)
        lhs = symplectic_fourier(char_fn(op, "half")).values.conj()
        rhs = symplectic_fourier(char_fn(op.adjoint(), "half")).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


@pytest.mark.parametrize("name", ["Z2", "Z4", "Z6", "Z2xZ2", "Z12"])
def test_half_order_rejected_on_even_groups(name):
    group = parse_group(name)
    with pytest.raises(UnsupportedOrderError):
        char_fn(Operator.identity(group), "half")


def test_phase_space_csv_roundtrip(battery_group):
    group = battery_group
    d = group.order
    rng = np.random.default_rng(103)
    table = PhaseSpaceFunction(group, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    back = PhaseSpaceFunction.from_csv(group, table.to_csv())
    assert np.max(np.abs(back.values - table.values)) <= 1e-15


def test_phase_space_csv_rejects_malformed():
    z2 = parse_group("Z2")
    table = PhaseSpaceFunction(z2, np.arange(4, dtype=float).reshape(2, 2))
    lines = table.to_csv().strip().splitlines()
    with pytest.raises(ValueError, match="header"):
        PhaseSpaceFunction.from_csv(z2, "\n".join(["a,b,c,d"] + lines[1:]))
    with pytest.raises(ValueError, match="rows"):
        PhaseSpaceFunction.from_csv(z2, "\n".join(lines[:-1]))
    duplicated = lines[:3] + [lines[2]] + lines[4:]
    with pytest.raises(ValueError, match="duplicate or missing"):
        PhaseSpaceFunction.from_csv(z2, "\n".join(duplicated))


def test_phase_space_json_roundtrip():
    z6 = parse_group("Z6")
    rng = np.random.default_rng(107)
    table = PhaseSpaceFunction(z6, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    back = PhaseSpaceFunction.from_json(table.to_json())
    assert back.group == z6
    assert np.max(np.abs(back.values - table.values)) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda z2, v: Operator(z2, [[v, 0.0], [0.0, 1.0]]),
    lambda z2, v: GFunction(z2, [v, 1.0]),
    lambda z2, v: DualFunction(z2, [1.0, complex(0.0, v)]),
    lambda z2, v: PhaseSpaceFunction(z2, [[1.0, 0.0], [0.0, v]]),
    lambda z2, v: BandLimitedOperator(1, np.diag([1.0, v, 1.0])),
], ids=["Operator", "GFunction", "DualFunction", "PhaseSpaceFunction", "BandLimitedOperator"])
def test_constructors_reject_non_finite_values(build, bad):
    with pytest.raises(PreconditionError, match="NaN or infinite"):
        build(parse_group("Z2"), bad)


@pytest.mark.parametrize("bad", [True, np.True_, "1"], ids=["bool", "numpy-bool", "string"])
@pytest.mark.parametrize("build", [
    lambda z2, v: Operator(z2, [[1, 0], [0, v]]),
    lambda z2, v: GFunction(z2, [v, 1.0]),
    lambda z2, v: DualFunction(z2, [1.0, v]),
    lambda z2, v: PhaseSpaceFunction(z2, [[1.0, 0.0], [0.0, v]]),
    lambda z2, v: BandLimitedOperator(1, [[1.0, 0, 0], [0, v, 0], [0, 0, 1.0]]),
    lambda z2, v: Operator(z2, np.full((2, 2), v)),
], ids=["Operator", "GFunction", "DualFunction", "PhaseSpaceFunction", "BandLimitedOperator", "array"])
def test_constructors_reject_bool_and_string_entries(build, bad):
    # numpy reads True as 1 and "1" as 1.0: Operator(Z2, [["1", 0], [0, True]])
    # was the identity
    with pytest.raises(PreconditionError, match="not bools or strings"):
        build(parse_group("Z2"), bad)


@pytest.mark.parametrize("name", LARGE_FACTOR_GROUPS)
def test_fft_route_matches_dense_products(name):
    group = parse_group(name)
    assert max(group.factors) >= LARGE_FACTOR
    assert np.array_equal(group.char_table, group.char_table.T)
    rng = np.random.default_rng(109)
    op = random_operator(group, rng)
    table = _kd_table(group, op.kernel)
    scale = float(np.max(np.abs(op.kernel)))
    assert np.max(np.abs(table - _dense_table(group, op.kernel))) <= 1e-12 * scale
    back = _kd_kernel(group, table)
    assert np.max(np.abs(back - _dense_kernel(group, table))) <= 1e-12 * scale
    # fourier and inverse_fourier are the one-row case: each equals, bit
    # for bit, its row of a batched row transform
    d = group.order
    X = group.char_table
    rows = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    forward, inverse = _dft_rows(group, rows), _idft_rows(group, rows)
    for i, values in enumerate(rows):
        scale = float(np.max(np.abs(values)))
        hat = fourier(GFunction(group, values)).values
        back = inverse_fourier(DualFunction(group, values)).values
        assert np.max(np.abs(hat - X.conj() @ values / d)) <= 1e-12 * scale
        assert np.max(np.abs(back - X.T @ values)) <= 1e-12 * scale
        assert np.array_equal(hat, forward[i] / d)
        assert np.array_equal(back, inverse[i] * d)


@pytest.mark.parametrize("name", LARGE_FACTOR_GROUPS)
def test_fft_route_char_fn_and_symplectic_fourier_match_dense_products(name):
    group = parse_group(name)
    d = group.order
    rng = np.random.default_rng(137)
    op = random_operator(group, rng)
    base = _dense_char_fn(group, op.kernel)
    phases = {"standard0": np.ones((d, d)), "standard1": group.char_table.conj().T}
    if group.order % 2:
        phases["half"] = group.char_table[:, group.halve_table].conj().T
    else:
        with pytest.raises(UnsupportedOrderError):
            char_fn(op, "half")
    scale = float(np.max(np.abs(op.kernel)))
    for ordering, phase in phases.items():
        values = char_fn(op, ordering).values
        assert np.max(np.abs(values - base * phase)) <= 1e-12 * scale, ordering
    table = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    image = symplectic_fourier(PhaseSpaceFunction(group, table)).values
    scale = float(np.max(np.abs(table)))
    assert np.max(np.abs(image - _dense_symplectic_fourier(group, table))) <= 1e-12 * scale


@pytest.mark.parametrize("name", LARGE_FACTOR_GROUPS)
def test_fft_route_roundtrip_and_unitarity(name):
    group = parse_group(name)
    rng = np.random.default_rng(113)
    a = random_operator(group, rng)
    b = random_operator(group, rng)
    ta, tb = kd(a), kd(b)
    assert kd_inverse(ta).hs_distance(a) <= 1e-10
    assert ta.inner(tb) == pytest.approx(a.hs_inner(b), abs=1e-10)
    assert abs(ta.norm() - a.hs_norm()) <= 1e-10


@pytest.mark.parametrize("name", ["Z4", "Z64"])
def test_transforms_wrap_fresh_arrays_and_refuse_overflow(name):
    # kd and kd_inverse hand the arrays they compute to their results
    # uncopied: no result may share memory with its input, and a
    # transform that overflows is refused like non-finite input
    group = parse_group(name)
    op = random_operator(group, np.random.default_rng(131))
    table = kd(op)
    back = kd_inverse(table)
    assert not np.shares_memory(table.values, op.kernel)
    assert not np.shares_memory(back.kernel, table.values)
    huge = PhaseSpaceFunction(group, np.full((group.order, group.order), 1e308))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(PreconditionError, match="overflowing"):
        kd_inverse(huge)


@pytest.mark.parametrize("name", BATTERY)
def test_small_groups_keep_dense_products_bit_for_bit(name):
    # the pinned seed-0 witnesses depend on these exact bits
    group = parse_group(name)
    assert max(group.factors) < LARGE_FACTOR
    rng = np.random.default_rng(127)
    kernel = random_operator(group, rng).kernel
    table = _kd_table(group, kernel)
    assert np.array_equal(table, _dense_table(group, kernel))
    assert np.array_equal(_kd_kernel(group, table), _dense_kernel(group, table))
    assert np.array_equal(char_fn(Operator(group, kernel), "standard0").values,
                          _dense_char_fn(group, kernel))


def test_import_leaves_numpy_fft_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kdlab; print('numpy.fft' in sys.modules)"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["Z64", "Z128"])
def test_fft_route_passes_transform_checks(name):
    # these checks cross the FFT table against its other composition,
    # symplectic_fourier of char_fn (FFTs too on these groups), and the
    # family tables against exact indicators
    group = parse_group(name)
    picked = [
        check for check in CHECKS
        if check.applies(group) and (
            check.name.startswith(("kd-", "weyl-"))
            or check.name in ("pure-family-indicator", "pure-family-positivity")
        )
    ]
    assert len(picked) == 13
    failures = [
        (result.name, result.status, result.measured)
        for result in (run_check(check, group, seed=0) for check in picked)
        if result.status != "pass"
    ]
    assert failures == []


def _fft_route(group):
    return max(group.factors) >= LARGE_FACTOR


def _reference_dft_rows(group, rows):
    # the row transforms written out directly, each step in a fresh array
    if _fft_route(group):
        shaped = rows.reshape(-1, *group.factors)
        return np.fft.fftn(shaped, axes=tuple(range(1, shaped.ndim))).reshape(rows.shape)
    return rows @ group.char_table.conj()


def _reference_idft_rows(group, rows):
    if _fft_route(group):
        shaped = rows.reshape(-1, *group.factors)
        return np.fft.ifftn(shaped, axes=tuple(range(1, shaped.ndim))).reshape(rows.shape)
    return (rows @ group.char_table) / group.order


def _reference_char_fn_base(group, kernel):
    d = group.order
    shifted = kernel[group.diff_table, np.arange(d)[:, None]]
    return _reference_idft_rows(group, shifted.T)


@pytest.mark.parametrize("name", BATTERY + LARGE_FACTOR_GROUPS)
def test_transforms_leave_inputs_untouched_and_keep_their_bits(name):
    # the transforms write only into arrays they made themselves, and
    # their results are bit for bit those of the plain formulas
    group = parse_group(name)
    X = group.char_table
    rng = np.random.default_rng(139)
    op = random_operator(group, rng)
    table = PhaseSpaceFunction(group, rng.normal(size=X.shape) + 1j * rng.normal(size=X.shape))
    psi = GFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
    inputs = (op.kernel, table.values, psi.values)
    before = [array.tobytes() for array in inputs]

    assert np.array_equal(kd(op).values, X.conj() * _reference_idft_rows(group, op.kernel))
    assert np.array_equal(kd_inverse(table).kernel, _reference_dft_rows(group, table.values * X))
    # base stays the left factor of the phase product; np.multiply keeps
    # that order where `base * X.conj()` would not: from 256 KiB on, numpy
    # elides the temporary conjugate by computing X.conj() * base into it
    base = _reference_char_fn_base(group, op.kernel)
    phases = {"standard0": None, "standard1": X}
    if group.order % 2:
        phases["half"] = X[group.halve_table]
    for ordering, phase in phases.items():
        expected = base if phase is None else np.multiply(base, phase.conj())
        assert np.array_equal(char_fn(op, ordering).values, expected), ordering
    inner = _reference_idft_rows(group, table.values.T).T
    assert np.array_equal(symplectic_fourier(table).values, _reference_dft_rows(group, inner).T)
    hat = _reference_dft_rows(group, psi.values) / group.order
    assert np.array_equal(kd_pure(psi).values, X.conj() * np.outer(psi.values, hat.conj()))

    assert [array.tobytes() for array in inputs] == before
    # a Fortran-ordered table still gets a C-ordered product to transform in place
    f_table = PhaseSpaceFunction(group, np.asfortranarray(table.values))
    assert f_table.values.flags.f_contiguous
    assert np.allclose(kd_inverse(f_table).kernel, kd_inverse(table).kernel, rtol=0, atol=1e-12)
    conj = group.char_table_conj
    assert conj is group.char_table_conj
    assert not conj.flags.writeable
    assert np.array_equal(conj, X.conj())


@pytest.mark.parametrize("name", ["Z6", "Z2xZ4", "Z6xZ6", "Z2xZ2xZ2xZ2", "Z64", "Z128", "Z256"])
def test_char_fn_gathers_through_the_shift_table_bit_for_bit(name):
    # one flat gather, C-ordered in [g, y], gives char_fn the bits of the
    # two-index gather and transposed transform it replaces, for C- and
    # F-ordered kernels alike; the table is read-only and made once
    group = parse_group(name)
    d = group.order
    table = group.shift_table
    assert table is group.shift_table
    assert not table.flags.writeable and table.flags.c_contiguous
    y = np.arange(d)
    assert np.array_equal(table // d, group.diff_table.T)
    assert np.array_equal(table % d, np.broadcast_to(y, (d, d)))
    rng = np.random.default_rng(149)
    kernel = random_operator(group, rng).kernel
    for k in (kernel, np.asfortranarray(kernel)):
        old = _idft_rows(group, k[group.diff_table, y[:, None]].T)
        assert np.array_equal(char_fn(Operator(group, k), "standard0").values, old)


@pytest.mark.parametrize("name", ["Z64", "Z256", "Z512", "Z2xZ64"])
def test_fft_route_transforms_allocate_only_their_result(name):
    # each FFT-route transform runs in the one array it returns: no
    # fresh conjugate table, no second buffer for a later factor axis
    group = parse_group(name)
    result_bytes = group.order ** 2 * 16
    op = random_operator(group, np.random.default_rng(149))
    table = kd(op)
    kd_inverse(table)  # warm: the cached tables and numpy's FFT plans
    for transform, arg in ((kd, op), (kd_inverse, table)):
        tracemalloc.start()
        try:
            out = transform(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del out
        assert peak <= 1.05 * result_bytes, (transform.__name__, peak / result_bytes)


def test_phase_space_transforms_copy_no_result():
    # kd_pure, char_fn and symplectic_fourier hand the arrays they make to
    # their results uncopied: on Z512 kd_pure holds only its outer product,
    # the other two one intermediate table besides their result
    group = parse_group("Z512")
    result_bytes = group.order ** 2 * 16
    rng = np.random.default_rng(151)
    op = random_operator(group, rng)
    psi = GFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
    table = kd(op)
    calls = [(kd_pure, (psi,), psi.values, 1.1), (symplectic_fourier, (table,), table.values, 2.1),
             (char_fn, (op, "standard0"), op.kernel, 2.1), (char_fn, (op, "standard1"), op.kernel, 2.1)]
    for transform, args, source, bound in calls:
        transform(*args)  # warm
        tracemalloc.start()
        try:
            out = transform(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(out.values, source)
        del out
        assert peak <= bound * result_bytes, (transform.__name__, args[1:], peak / result_bytes)


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z64"])
def test_phase_space_transforms_refuse_overflowing_results(name):
    group = parse_group(name)
    d = group.order
    huge_op = Operator(group, np.full((d, d), 1e308))
    calls = [lambda: kd_pure(GFunction(group, np.full(d, 1e200))),
             lambda: symplectic_fourier(PhaseSpaceFunction(group, np.full((d, d), 1e308)))]
    calls += [lambda o=o: char_fn(huge_op, o) for o in ("standard0", "standard1", "half")
              if o != "half" or group.order % 2]
    for call in calls:
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(PreconditionError, match="overflowing"):
            call()


def test_kd_of_a_finite_table_whose_sum_overflows():
    # every entry is 7.5e307, but their sum overflows: the table is finite
    # and must be returned, without a RuntimeWarning, and inverted back
    op = Operator(parse_group("Z2"), np.diag([1.5e308, 1.5e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = kd(op)
        back = kd_inverse(table)
    assert np.array_equal(table.values, np.full((2, 2), 7.5e307 + 0j))
    assert np.max(np.abs(back.kernel - op.kernel)) <= 1e-15 * 1.5e308
