import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import kdlab.circle
from kdlab.circle import (
    MAX_SCAN_CELLS,
    BandLimitedOperator,
    _column,
    _refine,
    _spectrum,
    circle_is_classical,
    circle_kd_eval,
    circle_negativity_search,
    geometric_hs_norm_sq,
    geometric_state,
    geometric_weights,
)
from kdlab.errors import NotHermitianError, PreconditionError
from kdlab.tolerances import DEFAULT

from conftest import child_env


def _random_band_state(K, rng):
    n = 2 * K + 1
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = x @ x.conj().T
    return BandLimitedOperator(K, m / np.trace(m).real)


def _vacuum(K):
    d = np.zeros(2 * K + 1)
    d[K] = 1.0
    return BandLimitedOperator.from_diagonal(K, d)


def _two_mode_plus(K):
    # (|0> + |1>)(<0| + <1|)/2
    c = np.zeros((2 * K + 1, 2 * K + 1))
    c[np.ix_([K, K + 1], [K, K + 1])] = 0.5
    return BandLimitedOperator(K, c)


def test_vacuum_table_is_flat():
    op = _vacuum(3)
    for theta in np.linspace(0.0, 2 * np.pi, 9):
        z = np.exp(1j * theta)
        assert circle_kd_eval(op, 0, z) == pytest.approx(1.0, abs=1e-14)
        for m in (-3, -1, 1, 2):
            assert circle_kd_eval(op, m, z) == pytest.approx(0.0, abs=1e-14)


def test_two_mode_state_table_values():
    op = _two_mode_plus(4)
    assert circle_kd_eval(op, 0, 1j) == pytest.approx(0.5 + 0.5j, abs=1e-14)
    # KD(z, 0) = (1 + z)/2 and KD(z, 1) = (1 + 1/z)/2
    for theta in np.linspace(0.1, 6.0, 7):
        z = np.exp(1j * theta)
        assert circle_kd_eval(op, 0, z) == pytest.approx((1 + z) / 2, abs=1e-13)
        assert circle_kd_eval(op, 1, z) == pytest.approx((1 + 1 / z) / 2, abs=1e-13)


def test_two_mode_state_worst_imag():
    op = _two_mode_plus(4)
    result = circle_negativity_search(op, 64)
    assert result.max_abs_imag == pytest.approx(0.5, abs=1e-12)
    assert result.imag_mode in (0, 1)
    assert abs(np.sin(result.imag_angle)) == pytest.approx(1.0, abs=1e-9)
    assert not circle_is_classical(op).is_classical


def test_diagonal_mixture_is_classical():
    K = 6
    d = np.zeros(2 * K + 1)
    d[K] = 0.3
    d[K + 5] = 0.7
    op = BandLimitedOperator.from_diagonal(K, d)
    for theta in np.linspace(0.0, 6.0, 5):
        z = np.exp(1j * theta)
        assert circle_kd_eval(op, 0, z) == pytest.approx(0.3, abs=1e-14)
        assert circle_kd_eval(op, 5, z) == pytest.approx(0.7, abs=1e-14)
        assert circle_kd_eval(op, -2, z) == pytest.approx(0.0, abs=1e-14)
    assert circle_is_classical(op).is_classical
    assert circle_negativity_search(op, 64).violation <= 1e-12


def test_diagonal_states_flat_at_any_grid():
    rng = np.random.default_rng(181)
    for K in (1, 3, 6):
        diag = np.abs(rng.normal(size=2 * K + 1))
        diag /= diag.sum()
        op = BandLimitedOperator.from_diagonal(K, diag)
        for grid in (4 * K + 4, 4 * K + 5, 128):
            assert circle_negativity_search(op, grid).violation <= 1e-12


def test_random_non_diagonal_states_violate():
    rng = np.random.default_rng(191)
    for _ in range(25):
        K = int(rng.integers(1, 6))
        op = _random_band_state(K, rng)
        off = op.coeffs - np.diag(np.diag(op.coeffs))
        assert np.max(np.abs(off)) > 1e-3
        result = circle_negativity_search(op, 1024)
        assert result.violation > 1e-6
        assert not circle_is_classical(op).is_classical


def test_classicality_agrees_with_search():
    rng = np.random.default_rng(193)
    for _ in range(20):
        K = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            diag = np.abs(rng.normal(size=2 * K + 1))
            op = BandLimitedOperator.from_diagonal(K, diag / diag.sum())
        else:
            op = _random_band_state(K, rng)
        verdict = circle_is_classical(op, DEFAULT.override(positivity=1e-9)).is_classical
        search = circle_negativity_search(op, 1024).violation <= 1e-9
        assert verdict == search


def test_grid_size_precondition():
    op = _vacuum(5)
    with pytest.raises(PreconditionError):
        circle_negativity_search(op, 4 * 5 + 3)
    circle_negativity_search(op, 4 * 5 + 4)


def test_grid_cell_bound_is_checked_before_the_scan():
    # K = 1 keeps the scan small should the check be missing
    op = _vacuum(1)
    grid = MAX_SCAN_CELLS // 3 + 1
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="above the scan bound"):
            circle_negativity_search(op, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _overflowing_band():
    """K = 2 with finite entries 1e308 and 1.5e308 in one column, whose table overflows a float."""
    c = np.zeros((5, 5))
    c[0, 0], c[1, 0] = 1e308, 1.5e308
    return BandLimitedOperator(2, c)


def test_search_refuses_a_scan_that_could_overflow():
    # refused before the scan, so without a numpy RuntimeWarning; a millionth
    # of the same coefficients scans to finite extremes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="too large to scan"):
            circle_negativity_search(_overflowing_band(), 20)
        scaled = BandLimitedOperator(2, _overflowing_band().coeffs * 1e-6)
        assert np.isfinite(circle_negativity_search(scaled, 20).violation)


@pytest.mark.parametrize("grid", [24.5, 25.0, "32", None])
def test_grid_size_must_be_an_integer(grid):
    with pytest.raises(PreconditionError):
        circle_negativity_search(_vacuum(5), grid)


@pytest.mark.parametrize("K,n", [(1.5, 4), (1.0, 3), ("1", 3)])
def test_band_limit_must_be_an_integer(K, n):
    # (4, 4) == (2 * 1.5 + 1,) * 2, so the shape check alone lets 1.5 in
    with pytest.raises(PreconditionError):
        BandLimitedOperator(K, np.eye(n) / n)


@pytest.mark.parametrize("K", [2.5, 2.0, "2", -1])
def test_geometric_band_limit_must_be_a_nonnegative_integer(K):
    for fn in (geometric_weights, geometric_hs_norm_sq, geometric_state):
        with pytest.raises(PreconditionError):
            fn(0.3, K)
    with pytest.raises(PreconditionError):
        BandLimitedOperator.from_diagonal(K, np.ones(6))


def test_band_limit_rejects_bools():
    # (3, 3) == (2 * True + 1,) * 2, so the shape check alone lets True in
    with pytest.raises(PreconditionError, match="must be an integer"):
        BandLimitedOperator(True, np.eye(3) / 3)
    with pytest.raises(PreconditionError, match="must be an integer"):
        geometric_weights(0.3, True)


def test_negative_band_limit_in_json_is_a_precondition():
    # rejected by the band limit's own minimum, before any reshape
    with pytest.raises(PreconditionError, match="below its minimum 0"):
        BandLimitedOperator.from_json({"K": -1, "coeffs": []})


def test_band_limit_accepts_numpy_integers():
    op = BandLimitedOperator(np.int64(1), np.eye(3) / 3)
    assert type(op.K) is int
    assert BandLimitedOperator.from_json(op.to_json()).K == 1


def _dense_table(op, grid_size):
    # V[m + K, j] = sum_k c_{km} e^{i (k - m) theta_j}, one mode at a time.
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    k = np.arange(-op.K, op.K + 1)
    rows = [op.coeffs[:, m + op.K] @ np.exp(1j * np.outer(k - m, theta)) for m in k]
    return np.array(rows)


def _refined_from(op, mode, weight, part, j, grid_size):
    theta, _ = _refine(_column(op, mode, weight), 2.0 * np.pi * j / grid_size, 2.0 * np.pi / grid_size)
    theta %= 2.0 * np.pi
    return theta, part(circle_kd_eval(op, mode, np.exp(1j * theta)))


@pytest.mark.parametrize("K", range(9))
def test_scan_matches_dense_reference(K):
    rng = np.random.default_rng(600 + K)
    n = 2 * K + 1
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ops = [BandLimitedOperator(K, (x + x.conj().T) / 2),
           BandLimitedOperator.from_diagonal(K, rng.normal(size=n))]
    for op in ops:
        for grid in (4 * K + 4, 4 * K + 5, 64):
            values = _dense_table(op, grid)
            result = circle_negativity_search(op, grid)
            # |Im| is refined as s Im, s the sign at the grid point: weight 1j * s
            for score, weight, mode, angle, extreme, part in (
                (-np.abs(values.imag), lambda v: 1j * np.sign(v.imag), result.imag_mode,
                 result.imag_angle, -result.max_abs_imag, lambda v: -abs(v.imag)),
                (values.real, lambda v: 1.0, result.real_mode, result.real_angle,
                 result.min_real, lambda v: v.real),
            ):
                row, j = divmod(int(np.argmin(score)), grid)
                assert mode == row - K
                # A column can take its extreme twice on the grid up to
                # rounding (|Im| of an odd polynomial repeats after a half
                # turn); the scan may pick either, and refines from it.
                ties = np.flatnonzero(score[row] <= score[row, j] + 1e-12)
                assert any(
                    abs(value - extreme) <= 1e-13
                    and abs(np.angle(np.exp(1j * (theta - angle)))) <= 1e-13
                    for theta, value in (
                        _refined_from(op, mode, weight(values[row, t]), part, t, grid) for t in ties
                    )
                ), (grid, mode, angle, extreme)


def _scattered_spectrum(rows, grid_size):
    """The fancy-index scatter ``_spectrum`` replaced, with its (2K + 1)^2 modulo index."""
    r = np.arange(rows.shape[0])
    spectrum = np.zeros((r.size, grid_size), dtype=complex)
    spectrum[r[:, None], (r[None, :] - r[:, None]) % grid_size] = rows
    return spectrum


@pytest.mark.parametrize("K", range(13))
def test_spectrum_matches_the_modulo_scatter_bit_for_bit(K):
    rng = np.random.default_rng(700 + K)
    n = 2 * K + 1
    rows = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rows[rng.random(size=(n, n)) < 0.2] = -0.0     # signed zeros must survive too
    for grid in (4 * K + 4, 4 * K + 5, 64):
        ours, theirs = _spectrum(rows, grid), _scattered_spectrum(rows, grid)
        assert ours.shape == theirs.shape == (n, grid)
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))


def test_eval_preconditions():
    op = _vacuum(2)
    with pytest.raises(PreconditionError):
        circle_kd_eval(op, 3, 1.0)
    with pytest.raises(PreconditionError):
        circle_kd_eval(op, 0, 1.1)
    with pytest.raises(PreconditionError):
        BandLimitedOperator.from_diagonal(2, np.ones(4))
    with pytest.raises(PreconditionError):
        op.coefficient(3, 0)


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(1.0, float("nan")), float("nan")])
def test_eval_rejects_non_finite_points(z):
    with pytest.raises(PreconditionError):
        circle_kd_eval(_vacuum(2), 0, z)


@pytest.mark.parametrize("m", [0.5, 1.0, "0"])
def test_eval_rejects_non_integer_modes(m):
    with pytest.raises(PreconditionError):
        circle_kd_eval(_vacuum(2), m, 1.0)


def test_classicality_requires_hermitian():
    c = np.zeros((3, 3))
    c[0, 2] = 1.0
    with pytest.raises(NotHermitianError):
        circle_is_classical(BandLimitedOperator(1, c))


def test_hermitian_test_is_relative_to_the_largest_coefficient():
    # m = x x* is Hermitian up to rounding relative to its entries; scaled
    # by 1e6 that rounding is far above 1e-10 in absolute terms
    rng = np.random.default_rng(1)
    x = rng.normal(size=(129, 129)) + 1j * rng.normal(size=(129, 129))
    m = x @ x.conj().T
    for scale in (1.0, 1e6):
        op = BandLimitedOperator(64, scale * m)
        assert op.is_hermitian()
        assert not circle_is_classical(op).is_classical


def test_hs_norm_dual_route():
    # Frobenius norm of the coefficients equals the phase-space L2 norm
    rng = np.random.default_rng(197)
    K = 4
    op = _random_band_state(K, rng)
    grid = 512
    angles = 2 * np.pi * np.arange(grid) / grid
    total = 0.0
    for m in range(-K, K + 1):
        values = np.array([circle_kd_eval(op, m, np.exp(1j * t)) for t in angles])
        total += np.mean(np.abs(values) ** 2)
    assert np.sqrt(total) == pytest.approx(op.hs_norm(), abs=1e-12)


def test_operator_accessors():
    op = _two_mode_plus(2)
    assert op.coefficient(0, 1) == pytest.approx(0.5)
    assert op.coefficient(-2, 2) == 0.0
    assert op.trace() == pytest.approx(1.0)
    assert op.is_hermitian()
    assert op.adjoint().coeffs == pytest.approx(op.coeffs.conj().T)
    assert op.hs_norm() == pytest.approx(1.0)


def test_geometric_state_is_classical():
    state = geometric_state(0.3, 12)
    assert circle_is_classical(state).is_classical
    assert state.trace() == pytest.approx(1.0, abs=1e-12)
    assert circle_negativity_search(state, 64).violation <= 1e-12


def test_geometric_norm_routes_agree():
    for decay, K in ((0.5, 8), (0.1, 30), (1.0, 3)):
        assert geometric_state(decay, K).hs_norm() ** 2 == pytest.approx(
            geometric_hs_norm_sq(decay, K), abs=1e-14
        )


def test_geometric_norm_limit():
    # the truncated states approach the closed-form squared norm, which
    # goes to zero as the decay flattens
    a = 0.01
    expected = (1 - np.exp(-a)) / (1 + np.exp(-a))
    assert geometric_hs_norm_sq(a, 2000) == pytest.approx(expected, abs=1e-4)
    assert expected < 0.006


def test_geometric_weights_preconditions():
    with pytest.raises(PreconditionError):
        geometric_weights(0.0, 5)
    with pytest.raises(PreconditionError):
        geometric_weights(-1.0, 5)


@pytest.mark.parametrize("decay", [float("nan"), float("inf"), -float("inf")])
def test_geometric_decay_must_be_finite(decay):
    for fn in (geometric_weights, geometric_hs_norm_sq, geometric_state):
        with pytest.raises(PreconditionError):
            fn(decay, 5)


def test_band_limited_json_roundtrip():
    rng = np.random.default_rng(199)
    op = _random_band_state(3, rng)
    back = BandLimitedOperator.from_json(op.to_json())
    assert back.K == 3
    assert np.max(np.abs(back.coeffs - op.coeffs)) == 0.0


def test_search_report_locations():
    op = _two_mode_plus(1)
    blob = circle_negativity_search(op, 64).to_json()
    z = blob["imag_location"]["z"]
    assert z["re"] ** 2 + z["im"] ** 2 == pytest.approx(1.0, abs=1e-12)
    assert blob["violation"] == pytest.approx(0.5, abs=1e-9)
    assert blob["grid_size"] == 64


def test_refine_reaches_minimum_between_grid_points():
    # -cos(u) + 0.3 cos(2u) with u = t - 0.1 has its minima -43/60 at
    # cos(u) = 5/6, which no point of the 24-point grid hits
    def fun(t):
        u = t - 0.1
        return -np.cos(u) + 0.3 * np.cos(2.0 * u)

    def taylor(t):
        u = np.asarray(t) - 0.1
        return np.stack([fun(t), np.sin(u) - 0.6 * np.sin(2.0 * u),
                         np.cos(u) - 1.2 * np.cos(2.0 * u)], axis=-1)

    grid = 2.0 * np.pi * np.arange(24) / 24
    theta0 = float(grid[np.argmin(fun(grid))])
    theta, value = _refine(taylor, theta0, 2.0 * np.pi / 24)
    assert value == pytest.approx(-43.0 / 60.0, abs=1e-12)
    assert value == fun(theta) < fun(theta0)
    u = np.angle(np.exp(1j * (theta - 0.1)))
    assert abs(abs(u) - np.arccos(5.0 / 6.0)) <= 1e-7


def _gaussian_well(t, depth, center, width):
    # -depth exp(-x^2) with x = (t - center) / width: slope and curvature
    x = (np.asarray(t) - center) / width
    e = depth * np.exp(-x * x)
    return 2.0 * x / width * e, 2.0 / width**2 * (1.0 - 2.0 * x * x) * e


def test_refine_never_returns_above_the_grid_point():
    # a minimum exactly at the grid point, and a narrow well at the grid
    # point beside a wide shallow one that the bracket search runs into
    h = 0.1

    def exact(t):
        return 1.0 - np.cos(t - 1.0)

    def exact_taylor(t):
        u = np.asarray(t) - 1.0
        return np.stack([exact(t), np.sin(u), np.cos(u)], axis=-1)

    assert _refine(exact_taylor, 1.0, h)[1] <= exact(1.0) == 0.0

    def wells(t):
        return -np.exp(-((t / (0.05 * h)) ** 2)) - 0.5 * np.exp(-(((t - 0.7 * h) / (0.2 * h)) ** 2))

    def wells_taylor(t):
        narrow, wide = _gaussian_well(t, 1.0, 0.0, 0.05 * h), _gaussian_well(t, 0.5, 0.7 * h, 0.2 * h)
        return np.stack([wells(t), narrow[0] + wide[0], narrow[1] + wide[1]], axis=-1)

    # The wide well's tail tilts the narrow one: its minimum lies about
    # 1e-8 from the grid point and 4e-12 below it, and is what is found.
    theta, value = _refine(wells_taylor, 0.0, h)
    assert value == wells(theta) <= wells(0.0)
    assert abs(theta) <= 1e-7


def test_constant_columns_report_the_grid_point():
    # every column of a diagonal operator is constant in z, so no bracket
    # point refines below the grid point and the grid point is reported
    result = circle_negativity_search(geometric_state(0.3, 64), 260)
    assert result.real_angle == result.imag_angle == 0.0
    assert result.violation <= 1e-12


def test_refinement_never_loses_to_a_dense_bracket_sample():
    # Each extreme is at least as good as the best of 4097 direct
    # evaluations across the bracket of the grid point it was refined from.
    rng = np.random.default_rng(701)
    for case in range(240):
        K = int(rng.integers(0, 13))
        n = 2 * K + 1
        if case % 3 == 0:
            op = BandLimitedOperator.from_diagonal(K, rng.normal(size=n))
        else:
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            op = BandLimitedOperator(K, (x + x.conj().T) / 2)
        grid = (4 * K + 4, 4 * K + 5, 64)[case // 3 % 3]
        result = circle_negativity_search(op, grid)
        margin = 1e-12 * np.sum(np.abs(op.coeffs))
        values = _dense_table(op, grid)
        spacing = 2.0 * np.pi / grid
        k = np.arange(-K, K + 1)
        for mode, angle, score, part, reported in (
            (result.real_mode, result.real_angle, values.real, lambda v: v.real, result.min_real),
            (result.imag_mode, result.imag_angle, -np.abs(values.imag), lambda v: -abs(v.imag),
             -result.max_abs_imag),
        ):
            assert reported == part(circle_kd_eval(op, mode, np.exp(1j * angle)))
            row = score[mode + K]
            # the grid point refined from: an extreme of its row whose
            # bracket holds the reported angle
            j = next(j for j in np.flatnonzero(row <= row.min() + 1e-12)
                     if abs(np.angle(np.exp(1j * (angle - 2.0 * np.pi * j / grid)))) <= spacing)
            theta = 2.0 * np.pi * j / grid + np.linspace(-spacing, spacing, 4097)
            dense = part(np.exp(1j * np.outer(theta, k - mode)) @ op.coeffs[:, mode + K])
            assert reported <= dense.min() + margin, (case, K, grid, mode)


def test_refinement_makes_few_column_evaluations(monkeypatch):
    # every value, slope and curvature the refiner reads comes from _taylor
    calls = []
    evaluate = kdlab.circle._taylor

    def counting(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(kdlab.circle, "_taylor", counting)
    circle_negativity_search(geometric_state(0.3, 64), 260)
    assert len(calls) <= 4
    calls.clear()
    rng = np.random.default_rng(703)
    x = rng.normal(size=(129, 129)) + 1j * rng.normal(size=(129, 129))
    circle_negativity_search(BandLimitedOperator(64, (x + x.conj().T) / 2), 260)
    assert len(calls) <= 20


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kdlab; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
