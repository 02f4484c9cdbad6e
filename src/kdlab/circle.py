"""Band-limited operators on the unit circle.

The circle carries probability Haar measure and its dual is the integers
with counting measure; the Fourier basis is z |-> z^k.  A band-limited
operator keeps modes k in [-K, K] and is stored as the coefficient
matrix c[k, l] of sum c_{kl} |k><l|.  Its phase-space table has the
closed form KD_A(z, m) = sum_k c_{km} z^{k-m}, a trigonometric
polynomial in z of degree at most 2K, so positivity and reality can be
decided by Nyquist-safe grid evaluation plus local refinement instead
of discretizing the group.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import NotHermitianError, PreconditionError
from .jsonio import decode_array, encode_array
from .tolerances import DEFAULT


@dataclass(frozen=True)
class BandLimitedOperator:
    """Operator sum c_{kl} |k><l| with modes k, l in [-K, K].

    coeffs[k + K, l + K] holds c_{kl}; the array is copied and frozen.
    """

    K: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.K < 0:
            raise PreconditionError("band limit must be nonnegative")
        c = np.array(self.coeffs, dtype=complex)
        n = 2 * self.K + 1
        if c.shape != (n, n):
            raise PreconditionError(
                f"coefficient matrix must be {n}x{n}, got {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_diagonal(cls, K: int, diagonal) -> "BandLimitedOperator":
        d = np.asarray(diagonal, dtype=complex)
        if d.shape != (2 * K + 1,):
            raise PreconditionError(
                f"diagonal must have length {2 * K + 1}, got {d.shape}"
            )
        return cls(K, np.diag(d))

    def coefficient(self, k: int, l: int) -> complex:
        if abs(k) > self.K or abs(l) > self.K:
            raise PreconditionError(f"mode ({k}, {l}) outside band [-{self.K}, {self.K}]")
        return complex(self.coeffs[k + self.K, l + self.K])

    def is_hermitian(self, tol: float = DEFAULT.structural) -> bool:
        return bool(np.max(np.abs(self.coeffs - self.coeffs.conj().T)) <= tol)

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
        K = int(payload["K"])
        return cls(K, decode_array(payload["coeffs"], (2 * K + 1, 2 * K + 1)))


def circle_kd_eval(op: BandLimitedOperator, m: int, z: complex) -> complex:
    """Evaluate the phase-space table at (z, m): sum_k c_{km} z^{k-m}."""
    if abs(m) > op.K:
        raise PreconditionError(f"mode {m} outside band [-{op.K}, {op.K}]")
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-12:
        raise PreconditionError(f"evaluation point must lie on the unit circle, |z| = {abs(z)!r}")
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


def _column_at(op: BandLimitedOperator, m: int, theta: float) -> complex:
    exps = np.arange(-op.K, op.K + 1) - m
    return complex(op.coeffs[:, m + op.K] @ np.exp(1j * exps * theta))


def _refine(fun, theta0: float, spacing: float) -> tuple[float, float]:
    """Minimize a smooth 2pi-periodic function near a grid minimizer."""
    res = minimize_scalar(
        fun, bounds=(theta0 - spacing, theta0 + spacing), method="bounded",
        options={"xatol": 1e-14},
    )
    theta = float(res.x)
    value = float(res.fun)
    grid_value = float(fun(theta0))
    if grid_value < value:
        return theta0, grid_value
    return theta, value


def circle_negativity_search(
    op: BandLimitedOperator, grid_size: int
) -> NegativitySearchResult:
    """Scan the phase-space table for imaginary parts and negative reals.

    The table column at mode m is a trigonometric polynomial of degree
    at most 2K, so a uniform grid of at least 4K + 4 points cannot skip
    a sign change; the worst grid points are then sharpened by bounded
    local minimization.
    """
    if grid_size < 4 * op.K + 4:
        raise PreconditionError(
            f"grid size {grid_size} below the safe minimum {4 * op.K + 4}"
        )
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    # E[p + 2K, j] = exp(i p angle_j) for p in [-2K, 2K]; column m uses
    # the contiguous slice p = k - m, k in [-K, K].
    E = np.exp(1j * np.outer(np.arange(-2 * op.K, 2 * op.K + 1), angles))
    worst_imag = -1.0
    imag_mode = 0
    imag_angle = 0.0
    worst_real = np.inf
    real_mode = 0
    real_angle = 0.0
    for m in range(-op.K, op.K + 1):
        col = op.coeffs[:, m + op.K]
        values = col @ E[op.K - m: 3 * op.K - m + 1, :]
        j_imag = int(np.argmax(np.abs(values.imag)))
        if abs(values.imag[j_imag]) > worst_imag:
            worst_imag = abs(values.imag[j_imag])
            imag_mode, imag_angle = m, float(angles[j_imag])
        j_real = int(np.argmin(values.real))
        if values.real[j_real] < worst_real:
            worst_real = float(values.real[j_real])
            real_mode, real_angle = m, float(angles[j_real])
    spacing = 2.0 * np.pi / grid_size
    imag_angle, neg_imag = _refine(
        lambda t: -abs(_column_at(op, imag_mode, t).imag), imag_angle, spacing
    )
    real_angle, min_real = _refine(
        lambda t: _column_at(op, real_mode, t).real, real_angle, spacing
    )
    return NegativitySearchResult(
        max_abs_imag=-neg_imag,
        imag_mode=imag_mode,
        imag_angle=imag_angle % (2.0 * np.pi),
        min_real=min_real,
        real_mode=real_mode,
        real_angle=real_angle % (2.0 * np.pi),
        grid_size=grid_size,
    )


@dataclass
class CircleClassicalResult:
    is_classical: bool
    max_offdiag: float
    min_diag: float

    def to_json(self) -> dict:
        return {
            "is_classical": self.is_classical,
            "max_offdiag": self.max_offdiag,
            "min_diag": self.min_diag,
        }


def circle_is_classical(
    op: BandLimitedOperator, tol: float = DEFAULT.positivity
) -> CircleClassicalResult:
    """Decide classicality: diagonal coefficients, none below -tol.

    For band-limited operators the phase-space table of a diagonal
    operator is constant in z and equals the diagonal, so this test
    agrees with the grid search at matching tolerance.
    """
    if not op.is_hermitian():
        raise NotHermitianError("classicality test requires a Hermitian operator")
    off = op.coeffs - np.diag(np.diag(op.coeffs))
    max_offdiag = float(np.max(np.abs(off))) if op.K > 0 else 0.0
    min_diag = float(np.min(np.diag(op.coeffs).real))
    return CircleClassicalResult(
        is_classical=(max_offdiag <= tol and min_diag >= -tol),
        max_offdiag=max_offdiag,
        min_diag=min_diag,
    )


def geometric_weights(decay: float, K: int) -> np.ndarray:
    """Normalized weights e^{-decay k}, k = 0..K."""
    if decay <= 0:
        raise PreconditionError("decay rate must be positive")
    w = np.exp(-decay * np.arange(K + 1))
    return w / w.sum()


def geometric_state(decay: float, K: int) -> BandLimitedOperator:
    """Truncated geometric diagonal state on modes 0..K (zero on k < 0)."""
    diagonal = np.zeros(2 * K + 1)
    diagonal[K:] = geometric_weights(decay, K)
    return BandLimitedOperator.from_diagonal(K, diagonal)


def geometric_hs_norm_sq(decay: float, K: int) -> float:
    """Squared norm of the truncated geometric state, without the matrix.

    As K grows this tends to (1 - e^-decay) / (1 + e^-decay), which
    vanishes as decay -> 0: the infinite-band limit escapes to zero in
    operator norm even though every truncation is a genuine state.
    """
    w = geometric_weights(decay, K)
    return float(w @ w)
