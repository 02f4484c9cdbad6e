"""The JSON wire format and the value checks every input shares.

Complex scalars travel as ``{"re": float, "im": float}`` objects and
complex arrays as flat row-major lists of such pairs.  Every value type
reads its arrays through `finite_array`, its unit phases through
`unit_phase` and its scalar integer parameters through `integer`, so a
wrong shape, a NaN, an infinity, a bool or string entry or a fractional
count is rejected whether it comes from a file or a constructor; every
Hermitian test reads one relative `hermitian_defect`.  The real parts
of a file's complex entries and a band file's K are read through
`json_number`: a bool or a string in a number's place is a malformed
payload, and an integer too large for a float is a violated
precondition, as an infinity is.  Every JSON object of a file, a
complex pair included, is read through `json_object`, so a key the
reader does not know is malformed.  Every file is parsed by `loads`,
which refuses a repeated key, one that ``json.loads`` would resolve
silently to its last value, and nesting deeper than Python's recursion
limit.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from .errors import PreconditionError
from .tolerances import DEFAULT


def encode_complex(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def decode_complex(obj) -> complex:
    obj = json_object(obj, ("re", "im"))    # a missing part is 0
    return finite_complex(json_number(obj.get("re", 0.0)), json_number(obj.get("im", 0.0)))


def json_object(obj, keys: tuple[str, ...]) -> dict:
    """obj if it is a JSON object whose keys all lie in keys; else ValueError.

    Every object a file holds is read through it, so a file of another
    kind or a misspelled key is refused rather than ignored.  A missing
    key is left to the lookup that reads it, which raises KeyError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object with keys among {list(keys)}, got {type(obj).__name__}")
    extra = obj.keys() - keys
    if extra:
        raise ValueError(f"unexpected key {min(extra, key=str)!r}, expected keys among {list(keys)}")
    return obj


def json_number(value, kinds: tuple[type, ...] = (int, float)):
    """value if it is a JSON number of one of kinds; a bool or a string raises TypeError.

    ``json`` reads true as a bool, which is an int to Python, so bools are
    turned away by name.
    """
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def finite_complex(re, im) -> complex:
    """Complex number from two real parts, rejecting NaN, infinities and overflow."""
    try:
        z = complex(float(re), float(im))
    except OverflowError:
        raise PreconditionError("number too large for a float") from None
    if not np.isfinite(z):
        raise PreconditionError(f"non-finite number {z!r}")
    return z


def finite_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Complex copy of values, of the given shape and with finite numeric entries only.

    numpy reads True as 1 and "1" as 1.0, and a list mixing numbers with
    bools can come out with an integer dtype, so anything but an array of
    a numeric dtype is checked entry by entry.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iufc") and any(
            isinstance(v, (bool, np.bool_, str, bytes)) for v in np.array(values, dtype=object).flat):
        raise PreconditionError(f"{what} must hold numbers, not bools or strings")
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise PreconditionError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{what} has NaN or infinite entries")
    return arr


def integer(value, what: str, minimum: int | None = None) -> int:
    """value as a Python int of at least minimum; a bool, a float, a string or NaN raises."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise PreconditionError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise PreconditionError(f"{what} {value} is below its minimum {minimum}")
    return value


def unit_phase(z, what: str) -> complex:
    """z as a complex number of modulus 1, within the exact tolerance."""
    z = complex(z)
    if not abs(abs(z) - 1.0) <= DEFAULT.exact:  # NaN fails this too
        raise PreconditionError(f"{what} must lie on the unit circle, got |z| = {abs(z)!r}")
    return z


def hermitian_defect(matrix: np.ndarray) -> float:
    """max |M - M*| / max(1, max |M|), so rounding reads the same at any scale."""
    return float(np.max(np.abs(matrix - matrix.conj().T))) / max(1.0, float(np.max(np.abs(matrix))))


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


def loads(text: str):
    """The JSON value of text; a repeated key or too deep a nesting raises ValueError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested deeper than the recursion limit") from None


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"repeated key {repeated!r}")
    return obj
