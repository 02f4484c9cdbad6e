"""Shared fixtures and independent oracles for the test suite.

The oracles recompute quantities from their defining formulas with
plain loops and cmath, so they share no code path with the library.
"""
import cmath
import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import kdlab
from kdlab.groups import FiniteAbelianGroup, parse_group
from kdlab.operators import Operator

BATTERY = [
    "Z2", "Z3", "Z4", "Z2xZ2", "Z6", "Z8", "Z9",
    "Z2xZ4", "Z3xZ3", "Z12", "Z2xZ2xZ2",
]


def child_env() -> dict:
    """Environment for a child interpreter that imports this checkout's kdlab.

    Pytest's ``pythonpath`` setting reaches only this process, so the
    ``src`` directory holding the imported package is put first on the
    child's ``PYTHONPATH``.
    """
    src = str(Path(kdlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(params=BATTERY)
def battery_group(request) -> FiniteAbelianGroup:
    return parse_group(request.param)


@pytest.fixture
def small_groups() -> list[FiniteAbelianGroup]:
    return [parse_group(s) for s in ("Z2", "Z3", "Z4", "Z2xZ2", "Z6")]


def char_oracle(group: FiniteAbelianGroup, label, residues) -> complex:
    """Pairing from the product formula, one factor at a time."""
    value = 1.0 + 0.0j
    for c, g, n in zip(label, residues, group.factors):
        value *= cmath.exp(2j * cmath.pi * c * g / n)
    return value


def fourier_oracle(group: FiniteAbelianGroup, values) -> np.ndarray:
    """Transform by the defining sum: (1/|G|) sum psi(g) conj(chi(g))."""
    out = np.zeros(group.order, dtype=complex)
    for ci in range(group.order):
        label = group.residues[ci]
        acc = 0.0 + 0.0j
        for gi in range(group.order):
            acc += values[gi] * char_oracle(group, label, group.residues[gi]).conjugate()
        out[ci] = acc / group.order
    return out


def kd_oracle(group: FiniteAbelianGroup, kernel) -> np.ndarray:
    """Table from the defining sum, entry by entry."""
    d = group.order
    out = np.zeros((d, d), dtype=complex)
    for gi in range(d):
        for ci in range(d):
            label = group.residues[ci]
            chi_g = char_oracle(group, label, group.residues[gi])
            acc = 0.0 + 0.0j
            for hj in range(d):
                acc += kernel[gi, hj] * char_oracle(group, label, group.residues[hj])
            out[gi, ci] = chi_g.conjugate() * acc / d
    return out


def brute_force_subgroups(group: FiniteAbelianGroup) -> set:
    """All addition-closed subsets containing zero, by exhaustion.

    Only usable for |G| <= 12 or so; the battery stays in range.
    """
    add = group.add_table
    found = set()
    others = [i for i in range(group.order) if i != 0]
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            subset = (0,) + combo
            members = np.array(subset)
            if np.isin(add[np.ix_(members, members)], members).all():
                found.add(tuple(sorted(subset)))
    return found


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def random_operator(group: FiniteAbelianGroup, rng) -> Operator:
    d = group.order
    return Operator(group, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def random_hermitian(group: FiniteAbelianGroup, rng) -> Operator:
    op = random_operator(group, rng)
    return (op + op.adjoint()) * 0.5


def random_state(group: FiniteAbelianGroup, rng) -> Operator:
    d = group.order
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = x @ x.conj().T
    return Operator.from_matrix(group, m / np.trace(m).real)
