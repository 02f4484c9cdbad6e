"""Helpers for the JSON wire format.

Complex scalars travel as ``{"re": float, "im": float}`` objects and
complex arrays as flat row-major lists of such pairs.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import PreconditionError


def encode_complex(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def decode_complex(obj) -> complex:
    if not isinstance(obj, dict) or set(obj) - {"re", "im"}:
        raise ValueError(f"expected a {{re, im}} pair, got {obj!r}")
    return finite_complex(obj.get("re", 0.0), obj.get("im", 0.0))


def finite_complex(re, im) -> complex:
    """Complex number from two real parts, rejecting NaN and infinities."""
    z = complex(float(re), float(im))
    if not np.isfinite(z):
        raise PreconditionError(f"non-finite number {z!r}")
    return z


def encode_array(values: np.ndarray) -> list:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [encode_complex(z) for z in flat]


def decode_array(items, shape) -> np.ndarray:
    flat = np.array([decode_complex(p) for p in items], dtype=complex)
    expected = int(np.prod(shape))
    if flat.size != expected:
        raise ValueError(f"expected {expected} complex entries, got {flat.size}")
    return flat.reshape(shape)


def dumps(obj) -> str:
    """Deterministic JSON encoding: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
