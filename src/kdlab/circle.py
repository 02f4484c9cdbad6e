"""Band-limited operators on the unit circle.

The circle carries probability Haar measure and its dual is the integers
with counting measure; the Fourier basis is z |-> z^k.  A band-limited
operator keeps modes k in [-K, K] and is stored as the coefficient
matrix c[k, l] of sum c_{kl} |k><l|.  Its phase-space table has the
closed form KD_A(z, m) = sum_k c_{km} z^{k-m}, a trigonometric
polynomial in z of degree at most 2K.  The negativity search reports the
extremes of the table on a uniform grid of more than 4K points (one
alias-free inverse FFT per column), each refined by a few safeguarded
Newton steps on its column polynomial within one grid spacing of its
grid point; it certifies no bound, since a dip between grid points can
be missed.  Classicality is decided exactly, by the diagonal test, not by
the search.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NotHermitianError, PreconditionError
from .jsonio import (
    decode_array, encode_array, finite_array, hermitian_defect, integer, json_number, json_object,
    unit_phase,
)
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class BandLimitedOperator:
    """Operator sum c_{kl} |k><l| with modes k, l in [-K, K].

    coeffs[k + K, l + K] holds c_{kl}; the array is copied and frozen.
    """

    K: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "K", integer(self.K, "band limit", 0))
        c = finite_array(self.coeffs, (2 * self.K + 1,) * 2, "coefficient matrix")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_diagonal(cls, K: int, diagonal) -> "BandLimitedOperator":
        K = integer(K, "band limit", 0)
        return cls(K, np.diag(finite_array(diagonal, (2 * K + 1,), "diagonal")))

    def coefficient(self, k: int, l: int) -> complex:
        if abs(k) > self.K or abs(l) > self.K:
            raise PreconditionError(f"mode ({k}, {l}) outside band [-{self.K}, {self.K}]")
        return complex(self.coeffs[k + self.K, l + self.K])

    def is_hermitian(self) -> bool:
        return hermitian_defect(self.coeffs) <= DEFAULT.structural

    def trace(self) -> complex:
        return complex(np.trace(self.coeffs))

    def hs_norm(self) -> float:
        # Fourier modes are orthonormal, so the operator norm is the
        # Frobenius norm of the coefficient matrix.
        return float(np.linalg.norm(self.coeffs))

    def adjoint(self) -> "BandLimitedOperator":
        return BandLimitedOperator(self.K, self.coeffs.conj().T)

    def to_json(self) -> dict:
        return {"K": self.K, "coeffs": encode_array(self.coeffs)}

    @classmethod
    def from_json(cls, payload: dict) -> "BandLimitedOperator":
        K = band_limit(payload)
        return cls(K, decode_array(payload["coeffs"], (2 * K + 1, 2 * K + 1)))


def band_limit(payload: dict) -> int:
    """The band limit K of a band operator's JSON payload, read without its coefficients."""
    payload = json_object(payload, ("K", "coeffs"))
    # a non-integer K is a malformed payload, a negative one a precondition
    return integer(json_number(payload["K"], (int,)), "band limit", 0)


def circle_kd_eval(op: BandLimitedOperator, m: int, z: complex) -> complex:
    """Evaluate the phase-space table at (z, m): sum_k c_{km} z^{k-m}."""
    m = integer(m, "mode")
    if abs(m) > op.K:
        raise PreconditionError(f"mode {m} outside band [-{op.K}, {op.K}]")
    z = unit_phase(z, "evaluation point")
    powers = z ** (np.arange(-op.K, op.K + 1) - m)
    return complex(op.coeffs[:, m + op.K] @ powers)


@dataclass
class NegativitySearchResult:
    """Worst deviations of the phase-space table from a nonnegative one."""

    max_abs_imag: float
    imag_mode: int
    imag_angle: float
    min_real: float
    real_mode: int
    real_angle: float
    grid_size: int

    @property
    def violation(self) -> float:
        return max(self.max_abs_imag, -self.min_real, 0.0)

    def to_json(self) -> dict:
        return {
            "max_abs_imag": self.max_abs_imag,
            "imag_location": {
                "m": self.imag_mode,
                "z": {"re": float(np.cos(self.imag_angle)), "im": float(np.sin(self.imag_angle))},
            },
            "min_real": self.min_real,
            "real_location": {
                "m": self.real_mode,
                "z": {"re": float(np.cos(self.real_angle)), "im": float(np.sin(self.real_angle))},
            },
            "violation": self.violation,
            "grid_size": self.grid_size,
        }


# Cells (2K + 1) * grid of the negativity scan, at most: each complex array
# of the scan then holds at most 64 MiB.  At the smallest grid, 4K + 4, the
# bound admits band limits up to K = 723.
MAX_SCAN_CELLS = 2**22


def scan_grid(K: int, grid_size) -> int:
    """grid_size as an integer grid of at least 4K + 4 points whose scan fits ``MAX_SCAN_CELLS``.

    Both bounds depend on K alone, so a band file can be refused before
    its coefficients are decoded.
    """
    grid_size = integer(grid_size, "grid size", 4 * K + 4)
    cells = (2 * K + 1) * grid_size
    if cells > MAX_SCAN_CELLS:
        raise PreconditionError(
            f"grid size {grid_size} over {2 * K + 1} modes makes {cells} cells, "
            f"above the scan bound {MAX_SCAN_CELLS}"
        )
    return grid_size


# The bracket sample that starts each refinement has 2 * _HALF_SAMPLE + 1
# evenly spaced points; the middle one is the grid point itself.
_HALF_SAMPLE = 4


def _taylor(terms: np.ndarray, ifreqs: np.ndarray, theta) -> np.ndarray:
    """Value, slope and curvature of Re sum_j a_j e^{i q_j theta}.

    ``terms`` stacks a_j, i q_j a_j and -q_j^2 a_j as its three columns and
    ``ifreqs`` holds i q_j; ``theta`` is one angle or an array of them, and
    the three numbers run along the last axis of the result.
    """
    return (np.exp(np.multiply.outer(theta, ifreqs)) @ terms).real


def _column(op: BandLimitedOperator, mode: int, weight: complex):
    """Taylor evaluator of Re(weight * KD_A(e^{i theta}, mode)), for ``_refine``."""
    q = np.arange(-op.K, op.K + 1) - mode
    a = weight * op.coeffs[:, mode + op.K]
    terms = np.stack([a, 1j * q * a, -(q * q) * a], axis=1)
    ifreqs = 1j * q
    return lambda theta: _taylor(terms, ifreqs, theta)


def _refine(taylor, theta0: float, spacing: float) -> tuple[float, float]:
    """Minimize a smooth function on [theta0 - spacing, theta0 + spacing].

    ``taylor(theta)`` returns value, slope and curvature along its last
    axis, for one angle or an array of them.  The search starts from the
    lowest of 2 * ``_HALF_SAMPLE`` + 1 evenly spaced bracket points, the
    grid point winning ties, and takes safeguarded Newton steps: each
    step stays in the bracket and is taken only if it lowers the value,
    else it is halved; where the curvature is not positive the step
    heads downhill to the bracket edge.  It stops once a step's
    first-order change falls below the rounding of the sampled values,
    so a constant function reports the grid point.  Returns the angle
    and its value.
    """
    lo, hi = theta0 - spacing, theta0 + spacing
    # The middle offset is exactly 0, so the grid point is sampled as given.
    offsets = spacing / _HALF_SAMPLE * np.arange(-_HALF_SAMPLE, _HALF_SAMPLE + 1)
    sample = taylor(theta0 + offsets)
    best = int(np.argmin(sample[:, 0]))
    if sample[_HALF_SAMPLE, 0] <= sample[best, 0]:
        best = _HALF_SAMPLE
    noise = np.finfo(float).eps * float(np.max(np.abs(sample[:, 0])))
    theta = theta0 + offsets[best]
    value, slope, curvature = sample[best]
    while True:
        step = -slope / curvature if curvature > 0 else -np.copysign(spacing, slope)
        trial = min(max(theta + step, lo), hi)
        while abs(slope * (trial - theta)) > noise:
            at_trial = taylor(trial)
            if at_trial[0] < value:
                break
            trial = theta + (trial - theta) / 2
        else:  # no step is left above rounding
            return float(theta), float(value)
        theta, (value, slope, curvature) = trial, at_trial


def _spectrum(rows: np.ndarray, grid_size: int) -> np.ndarray:
    """(n, grid_size) array whose row r holds rows[r, k] at (k - r) mod grid_size.

    ``rows`` is n x n and grid_size is at least n + 1.  One buffer is
    read two ways: as the spectrum, and as a skewed view whose row r
    starts r cells early, so its cell (r, k) is spectrum[r, k - r].
    Entries with k >= r land in place; an entry with k < r wraps to the
    end of spectrum row r, which is cell (r + 1, k + 1) of the view.
    """
    n = rows.shape[0]
    flat = np.zeros((n + 1) * (grid_size - 1), dtype=complex)
    skewed = flat.reshape(n + 1, grid_size - 1)[:, :n]
    wraps = np.tri(n, k=-1, dtype=bool)     # k < r
    np.copyto(skewed[:-1], rows, where=~wraps)
    np.copyto(skewed[1:, 1:], rows[:, :-1], where=wraps[:, :-1])
    return flat[: n * grid_size].reshape(n, grid_size)


def circle_negativity_search(
    op: BandLimitedOperator, grid_size: int
) -> NegativitySearchResult:
    """Scan the phase-space table for imaginary parts and negative reals.

    Reports the worst grid values, each sharpened by a few safeguarded
    Newton steps on its column polynomial within one grid spacing of its
    grid point (for |Im|, on s Im with s the sign at the grid point); the
    grid point wins ties, and each reported value is ``circle_kd_eval``
    at the reported angle.  The grid holds more points than the 4K + 1
    frequencies k - m of a column, so one unscaled inverse DFT per column
    evaluates every grid value without aliasing.  The result is no
    certificate: a deeper minimum between other grid points is not seen,
    so a violation of zero does not prove a nonnegative table.  The scan
    holds (2K + 1) * grid_size cells, at most ``MAX_SCAN_CELLS``, none overflowing.
    """
    grid_size = scan_grid(op.K, grid_size)
    # The scan and its refinement evaluate the table and two angle derivatives: at most
    # (2K)^2 times a column's absolute sum (once at K = 0), doubled for the sums' rounding.
    with np.errstate(over="ignore"):
        reach = 2.0 * max(1, 4 * op.K**2) * float(np.max(np.abs(op.coeffs).sum(axis=0)))
    if not np.isfinite(reach):
        raise PreconditionError("coefficients too large to scan: the table's values could overflow")
    # Row m + K holds c_{km} at frequency k - m.
    values = np.fft.ifft(_spectrum(op.coeffs.T, grid_size), axis=1, norm="forward")
    # Row-major order: ties go to the lowest mode, then the lowest angle.
    imag_row, j_imag = divmod(int(np.argmax(np.abs(values.imag))), grid_size)
    real_row, j_real = divmod(int(np.argmin(values.real)), grid_size)
    imag_mode, real_mode = imag_row - op.K, real_row - op.K
    spacing = 2.0 * np.pi / grid_size

    def refined(mode, weight, j):
        # Re(i s f) = -s Im f, so weight 1j * s maximizes s Im f.
        theta, _ = _refine(_column(op, mode, weight), 2.0 * np.pi * j / grid_size, spacing)
        theta %= 2.0 * np.pi
        return theta, circle_kd_eval(op, mode, np.exp(1j * theta))

    imag_angle, at_imag = refined(imag_mode, 1j * np.sign(values[imag_row, j_imag].imag), j_imag)
    real_angle, at_real = refined(real_mode, 1.0, j_real)
    return NegativitySearchResult(
        max_abs_imag=abs(at_imag.imag),
        imag_mode=imag_mode,
        imag_angle=imag_angle,
        min_real=at_real.real,
        real_mode=real_mode,
        real_angle=real_angle,
        grid_size=grid_size,
    )


@dataclass
class CircleClassicalResult:
    is_classical: bool
    max_offdiag: float
    min_diag: float

    def to_json(self) -> dict:
        return asdict(self)


def circle_is_classical(op: BandLimitedOperator, tol: Tolerances = DEFAULT) -> CircleClassicalResult:
    """Decide classicality: diagonal coefficients, none below -tol.positivity.

    The phase-space table of a diagonal operator is constant in z and
    equals the diagonal, so the test is exact and reads no grid.
    """
    if not op.is_hermitian():
        raise NotHermitianError("classicality test requires a Hermitian operator")
    off = op.coeffs - np.diag(np.diag(op.coeffs))
    max_offdiag = float(np.max(np.abs(off))) if op.K > 0 else 0.0
    min_diag = float(np.min(np.diag(op.coeffs).real))
    return CircleClassicalResult(
        is_classical=(max_offdiag <= tol.positivity and min_diag >= -tol.positivity),
        max_offdiag=max_offdiag,
        min_diag=min_diag,
    )


def geometric_weights(decay: float, K: int) -> np.ndarray:
    """Normalized weights e^{-decay k}, k = 0..K."""
    if not 0 < decay < np.inf:  # NaN fails this too
        raise PreconditionError(f"decay rate must be positive and finite, got {decay!r}")
    w = np.exp(-decay * np.arange(integer(K, "band limit", 0) + 1))
    return w / w.sum()


def geometric_state(decay: float, K: int) -> BandLimitedOperator:
    """Truncated geometric diagonal state on modes 0..K (zero on k < 0)."""
    weights = geometric_weights(decay, K)
    diagonal = np.zeros(2 * K + 1)
    diagonal[K:] = weights
    return BandLimitedOperator.from_diagonal(K, diagonal)


def geometric_hs_norm_sq(decay: float, K: int) -> float:
    """Squared norm of the truncated geometric state, without the matrix.

    As K grows this tends to (1 - e^-decay) / (1 + e^-decay), which
    vanishes as decay -> 0: the infinite-band limit escapes to zero in
    operator norm even though every truncation is a genuine state.
    """
    w = geometric_weights(decay, K)
    return float(w @ w)
