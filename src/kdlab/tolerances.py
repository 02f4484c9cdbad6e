"""Numerical tolerance ladder used across the package.

Exact combinatorial identities are checked at 1e-12, structural linear
algebra at 1e-10, state positivity at 1e-9, membership residuals at
1e-8 and witness gaps at 1e-6.  Each level absorbs the noise of the
computations below it, so a gap certified at 1e-6 survives the 1e-9
slack in the feasibility checks that produced it.

Every function that decides a verdict takes one record, ``tol=DEFAULT``,
and reads its own level(s) from it; the command line builds the record
from its ``--tol-*`` flags.  A level must be finite.  A negative level
is a bound no residual or violation meets: under a negative membership
level no point is inside the span or hull, and one is outside only with
a gap above rounding, inconclusive otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import PreconditionError


@dataclass(frozen=True)
class Tolerances:
    exact: float = 1e-12        # indicator tables, character modulus, lattice identities
    structural: float = 1e-10   # unitarity, round trips, covariance
    positivity: float = 1e-9    # PSD slack and KD positivity of states
    membership: float = 1e-8    # span / hull residuals
    witness_gap: float = 1e-6   # separating-functional gaps
    recognition: float = 1e-7   # pure-family overlap deficit

    def __post_init__(self):
        # NaN would fail every comparison and infinity pass every one.
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise PreconditionError(f"tolerance {f.name} must be finite, got {value!r}")

    def override(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT = Tolerances()
