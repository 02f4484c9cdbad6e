"""Named invariant checks and the report they assemble.

Each check is a pure function of (group, rng, tolerances) returning a
measured value that must stay on the right side of a threshold.  Checks
draw their randomness from a generator seeded by (run seed, crc32 of
the check name), so the report is reproducible and independent of
execution order.  Check names and anchors are stable identifiers: the
anchor states the mathematical fact being verified.
"""
from __future__ import annotations

import datetime
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classify import enumerate_kd_positive_pure
from .errors import UnsupportedOrderError
from .fragment import (
    _context,
    conv_membership,
    is_kd_positive_state,
    kd_real_dimension,
    span_membership,
)
from .groups import FiniteAbelianGroup, annihilator, enumerate_subgroups
from .harmonic import DualFunction, GFunction, fourier, haar_density, inverse_fourier
from .jsonio import dumps
from .kd import akd, char_fn, kd, kd_inverse, kohn_nirenberg, marginals, symplectic_fourier
from .operators import Operator, PhaseSpaceFunction
from .tolerances import DEFAULT, Tolerances
from .weyl import WHElement, wh_conjugate, wh_inv, wh_mul, wh_unitary
from . import circle as circ


# ---------------------------------------------------------------------------
# random inputs


def _random_operator(group: FiniteAbelianGroup, rng) -> Operator:
    d = group.order
    return Operator(group, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def _random_hermitian(group: FiniteAbelianGroup, rng) -> Operator:
    a = _random_operator(group, rng)
    return (a + a.adjoint()) * 0.5


def _random_state(group: FiniteAbelianGroup, rng) -> Operator:
    d = group.order
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = x @ x.conj().T
    return Operator.from_matrix(group, m / np.trace(m).real)


def _random_wh(group: FiniteAbelianGroup, rng) -> WHElement:
    g = group.element_by_index(int(rng.integers(group.order)))
    chi = group.character_by_index(int(rng.integers(group.order)))
    z = np.exp(2j * np.pi * rng.random())
    return WHElement(g, chi, z)


def _table_diff(a: PhaseSpaceFunction, b: PhaseSpaceFunction) -> float:
    return float(np.max(np.abs(a.values - b.values)))


# ---------------------------------------------------------------------------
# checks


def _check_pairing_bicharacter(group, rng, tol):
    X = group.char_table
    add = group.add_table
    worst = 0.0
    for _ in range(50):
        c, c2, g, g2 = rng.integers(group.order, size=4)
        worst = max(worst, abs(X[c, add[g, g2]] - X[c, g] * X[c, g2]))
        worst = max(worst, abs(X[add[c, c2], g] - X[c, g] * X[c2, g]))
    worst = max(worst, float(np.max(np.abs(np.abs(X) - 1.0))))
    return worst


def _check_subgroup_closure(group, rng, tol):
    bad = 0
    subgroups = enumerate_subgroups(group)
    for sub in subgroups:
        members = np.array(sub.elements)
        closed = np.isin(group.add_table[np.ix_(members, members)], members).all()
        if not closed or 0 not in sub.elements:
            bad += 1
    if len(set(s.elements for s in subgroups)) != len(subgroups):
        bad += 1
    return float(bad)


def _check_annihilator_duality(group, rng, tol):
    worst = 0
    for sub in enumerate_subgroups(group):
        ann = annihilator(group, sub)
        worst = max(worst, abs(sub.order * ann.order - group.order))
        double = annihilator(group, ann)
        if double.elements != sub.elements:
            worst = max(worst, 1)
    return float(worst)


def _check_fourier_roundtrip(group, rng, tol):
    worst = 0.0
    for _ in range(50):
        psi = GFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
        back = inverse_fourier(fourier(psi))
        worst = max(worst, float(np.max(np.abs(back.values - psi.values))))
    return worst


def _check_plancherel(group, rng, tol):
    worst = 0.0
    for _ in range(50):
        psi = GFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
        worst = max(worst, abs(psi.norm() - fourier(psi).norm()))
    return worst


def _check_subgroup_density_transform(group, rng, tol):
    worst = 0.0
    for sub in enumerate_subgroups(group):
        hat = fourier(haar_density(group, sub))
        target = np.zeros(group.order, dtype=complex)
        target[list(annihilator(group, sub).elements)] = 1.0
        worst = max(worst, float(np.max(np.abs(hat.values - target))))
    return worst


def _check_wh_representation(group, rng, tol):
    worst = 0.0
    for _ in range(30):
        a, b = _random_wh(group, rng), _random_wh(group, rng)
        lhs = wh_unitary(a) @ wh_unitary(b)
        rhs = wh_unitary(wh_mul(a, b))
        worst = max(worst, float(np.max(np.abs(lhs.kernel - rhs.kernel))))
    return worst


def _check_wh_unitarity(group, rng, tol):
    eye = Operator.identity(group)
    worst = 0.0
    for _ in range(30):
        a = _random_wh(group, rng)
        u = wh_unitary(a)
        worst = max(worst, float(np.max(np.abs((u @ u.adjoint()).kernel - eye.kernel))))
        worst = max(worst, float(np.max(np.abs(wh_unitary(wh_inv(a)).kernel - u.adjoint().kernel))))
    return worst


def _check_wh_kd_translation(group, rng, tol):
    diff = group.diff_table
    worst = 0.0
    for _ in range(30):
        op = _random_operator(group, rng)
        a = _random_wh(group, rng)
        moved = kd(wh_conjugate(op, a)).values
        table = kd(op).values
        translated = table[np.ix_(diff[:, a.g.index], diff[:, a.chi.index])]
        worst = max(worst, float(np.max(np.abs(moved - translated))))
    return worst


def _check_kd_roundtrip(group, rng, tol):
    worst = 0.0
    for _ in range(50):
        op = _random_operator(group, rng)
        back = kd_inverse(kd(op))
        worst = max(worst, float(np.max(np.abs(back.kernel - op.kernel))))
    return worst


def _check_kd_unitarity(group, rng, tol):
    worst = 0.0
    for _ in range(50):
        a, b = _random_operator(group, rng), _random_operator(group, rng)
        worst = max(worst, abs(a.hs_inner(b) - kd(a).inner(kd(b))))
    return worst


def _check_symplectic_involution(group, rng, tol):
    worst = 0.0
    for _ in range(50):
        d = group.order
        table = PhaseSpaceFunction(group, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        twice = symplectic_fourier(symplectic_fourier(table))
        worst = max(worst, _table_diff(twice, table))
    return worst


def _check_char_fn_factorization(group, rng, tol):
    worst = 0.0
    for _ in range(30):
        op = _random_operator(group, rng)
        worst = max(worst, _table_diff(kd(op), symplectic_fourier(char_fn(op, "standard1"))))
        worst = max(worst, _table_diff(akd(op), symplectic_fourier(char_fn(op, "standard0"))))
    return worst


def _check_adjoint_conjugation(group, rng, tol):
    worst = 0.0
    for _ in range(30):
        op = _random_operator(group, rng)
        lhs = akd(op).values
        rhs = kd(op.adjoint()).values.conj()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _check_state_marginals(group, rng, tol):
    worst = 0.0
    for _ in range(30):
        rho = _random_state(group, rng)
        position, momentum = marginals(rho)
        worst = max(worst, float(np.max(np.abs(position - np.diag(rho.kernel).real))))
        for c in range(group.order):
            chi_vec = GFunction(group, group.char_table[c].copy())
            born = chi_vec.inner(rho.apply(chi_vec)).real
            worst = max(worst, abs(momentum[c] - born))
        worst = max(worst, abs(kd(rho).total_mass() - 1.0))
    return worst


def _check_product_symbol_quantization(group, rng, tol):
    worst = 0.0
    for _ in range(30):
        f = GFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
        h = DualFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
        table = kd(kohn_nirenberg(f, h)).values
        worst = max(worst, float(np.max(np.abs(table - np.outer(f.values, h.values)))))
    return worst


def _check_wigner_real(group, rng, tol):
    worst = 0.0
    for _ in range(30):
        op = _random_hermitian(group, rng)
        wig = symplectic_fourier(char_fn(op, "half"))
        worst = max(worst, float(np.max(np.abs(wig.values.imag))))
    return worst


def _check_half_order_parity_guard(group, rng, tol):
    op = _random_hermitian(group, rng)
    try:
        char_fn(op, "half")
    except UnsupportedOrderError:
        return 0.0
    return 1.0


def _check_family_count(group, rng, tol):
    family = enumerate_kd_positive_pure(group)
    expected = group.order * len(enumerate_subgroups(group))
    return float(abs(len(family) - expected) + (len(set(family)) != len(family)))


def _check_family_indicator(group, rng, tol):
    worst = 0.0
    for member in enumerate_kd_positive_pure(group):
        table = kd(member.projector())
        worst = max(worst, _table_diff(table, member.indicator_table()))
    return worst


def _check_family_positivity(group, rng, tol):
    worst = 0.0
    for member in enumerate_kd_positive_pure(group):
        worst = max(worst, is_kd_positive_state(member.projector()).worst_violation)
    return worst


def _check_recognition_roundtrip(group, rng, tol):
    from .classify import recognize_kd_positive_pure

    failures = 0
    for member in enumerate_kd_positive_pure(group):
        hit = recognize_kd_positive_pure(member.vector)
        if hit is None or hit.key != member.key:
            failures += 1
    for _ in range(20):
        v = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
        psi = GFunction(group, v).normalized()
        hit = recognize_kd_positive_pure(psi)
        if hit is not None:
            overlap = abs(hit.vector.inner(psi)) / 1.0
            if overlap <= 1.0 - 1e-7:
                failures += 1
    return float(failures)


def _check_real_dimension(group, rng, tol):
    rank = np.linalg.matrix_rank(_context(group, 512).tables)
    return float(abs(rank - kd_real_dimension(group)))


def _check_projector_membership(group, rng, tol):
    worst = 0.0
    for member in enumerate_kd_positive_pure(group):
        res = conv_membership(member.projector())
        if res.verdict != "inside":
            return float("inf")
        worst = max(worst, res.residual)
    return worst


def _check_mixed_membership(group, rng, tol):
    mixed = Operator.from_matrix(group, np.eye(group.order, dtype=complex) / group.order)
    res = conv_membership(mixed)
    return res.residual if res.verdict == "inside" else float("inf")


def _check_certificate_reconstruction(group, rng, tol):
    projectors = np.stack([m.projector().matrix for m in enumerate_kd_positive_pure(group)])
    worst = 0.0
    for _ in range(10):
        weights = rng.dirichlet(np.ones(len(projectors)))
        matrix = np.tensordot(weights, projectors, axes=1)
        rho = Operator.from_matrix(group, matrix)
        res = conv_membership(rho)
        if res.verdict != "inside" or res.weights is None:
            return float("inf")
        rebuilt = np.tensordot(res.weights, projectors, axes=1)
        worst = max(worst, Operator.from_matrix(group, rebuilt).hs_distance(rho))
    return worst


def _check_span_consistency(group, rng, tol):
    projectors = np.stack([m.projector().matrix for m in enumerate_kd_positive_pure(group)])
    worst = 0.0
    for _ in range(10):
        weights = rng.dirichlet(np.ones(len(projectors)))
        matrix = np.tensordot(weights, projectors, axes=1)
        res = span_membership(Operator.from_matrix(group, matrix))
        if res.verdict != "inside":
            return float("inf")
        worst = max(worst, res.residual)
    return worst


def _check_circle_diagonal_forward(group, rng, tol):
    worst = 0.0
    for _ in range(10):
        diag = rng.dirichlet(np.ones(9))
        op = circ.BandLimitedOperator.from_diagonal(4, diag)
        worst = max(worst, circ.circle_negativity_search(op, 64).violation)
    return worst


def _check_circle_offdiagonal_violation(group, rng, tol):
    smallest = np.inf
    for _ in range(10):
        n = 9
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = x @ x.conj().T
        m /= np.trace(m).real
        op = circ.BandLimitedOperator(4, m)
        smallest = min(smallest, circ.circle_negativity_search(op, 64).violation)
    return float(smallest)


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    fn: Callable
    tolerance: Callable[[Tolerances], float]
    direction: str = "le"                    # pass iff measured <= tol ("ge": >=)
    applies: Callable[[FiniteAbelianGroup], bool] = lambda group: True


def _odd(group: FiniteAbelianGroup) -> bool:
    return group.order % 2 == 1


CHECKS: tuple[Check, ...] = (
    Check("group-pairing-bicharacter", "character pairing is multiplicative in both slots with unit modulus",
          _check_pairing_bicharacter, lambda t: t.exact),
    Check("group-subgroup-closure", "enumerated subgroups are closed, contain zero, and are distinct",
          _check_subgroup_closure, lambda t: 0.5),
    Check("group-annihilator-duality", "annihilator orders multiply to the group order and double annihilator returns the subgroup",
          _check_annihilator_duality, lambda t: 0.5),
    Check("harmonic-fourier-roundtrip", "inverse transform undoes the transform pointwise",
          _check_fourier_roundtrip, lambda t: t.structural),
    Check("harmonic-plancherel", "the transform preserves the weighted norm",
          _check_plancherel, lambda t: t.structural),
    Check("harmonic-subgroup-density-transform", "normalized subgroup indicators transform to annihilator indicators",
          _check_subgroup_density_transform, lambda t: t.structural),
    Check("weyl-representation", "displacement unitaries compose by the twisted group law",
          _check_wh_representation, lambda t: t.structural),
    Check("weyl-unitarity", "displacements are unitary and the group inverse gives the adjoint",
          _check_wh_unitarity, lambda t: t.structural),
    Check("weyl-kd-translation", "conjugating by a displacement translates the phase-space table",
          _check_wh_kd_translation, lambda t: t.structural),
    Check("kd-roundtrip", "the inverse table map recovers the kernel",
          _check_kd_roundtrip, lambda t: t.structural),
    Check("kd-unitarity", "the table map preserves Hilbert-Schmidt inner products",
          _check_kd_unitarity, lambda t: t.structural),
    Check("kd-symplectic-involution", "the symplectic transform applied twice is the identity",
          _check_symplectic_involution, lambda t: t.structural),
    Check("kd-char-fn-factorization", "tables factor through the symplectic transform of ordered characteristic functions",
          _check_char_fn_factorization, lambda t: t.structural),
    Check("kd-adjoint-conjugation", "the anti-ordered table is the conjugate of the adjoint's table",
          _check_adjoint_conjugation, lambda t: t.structural),
    Check("kd-state-marginals", "table marginals reproduce position and momentum laws with unit mass",
          _check_state_marginals, lambda t: t.structural),
    Check("kd-product-symbol-quantization", "quantizing a product symbol returns exactly that table",
          _check_product_symbol_quantization, lambda t: t.structural),
    Check("kd-wigner-real", "the half-ordered table of a Hermitian operator is real on odd-order groups",
          _check_wigner_real, lambda t: t.structural, applies=_odd),
    Check("kd-half-order-parity-guard", "the half ordering is rejected on groups with even-order factors",
          _check_half_order_parity_guard, lambda t: 0.5, applies=lambda g: not _odd(g)),
    Check("pure-family-count", "the family has order times subgroup-count distinct members",
          _check_family_count, lambda t: 0.5),
    Check("pure-family-indicator", "each family table is exactly a coset-rectangle indicator",
          _check_family_indicator, lambda t: t.exact),
    Check("pure-family-positivity", "each family projector passes the positivity test",
          _check_family_positivity, lambda t: t.positivity),
    Check("pure-recognition-roundtrip", "recognition returns each member and rejects generic vectors",
          _check_recognition_roundtrip, lambda t: 0.5),
    Check("fragment-real-dimension", "family span dimension equals the phase-count dimension formula",
          _check_real_dimension, lambda t: 0.5),
    Check("fragment-projector-membership", "every family projector lies in the hull",
          _check_projector_membership, lambda t: t.membership),
    Check("fragment-mixed-membership", "the maximally mixed state lies in the hull",
          _check_mixed_membership, lambda t: t.membership),
    Check("fragment-certificate-reconstruction", "inside certificates rebuild the queried state",
          _check_certificate_reconstruction, lambda t: t.membership),
    Check("fragment-span-consistency", "hull members lie in the real span",
          _check_span_consistency, lambda t: t.membership),
    Check("circle-diagonal-forward", "diagonal band operators show no table negativity",
          _check_circle_diagonal_forward, lambda t: t.exact),
    Check("circle-offdiagonal-violation", "generic non-diagonal band states show a table violation",
          _check_circle_offdiagonal_violation, lambda t: t.witness_gap, direction="ge"),
)


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class CheckResult:
    name: str
    anchor: str
    status: str
    measured: float
    tolerance: float
    direction: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "direction": self.direction,
        }


@dataclass
class VerificationReport:
    group: str
    seed: int
    pure_states: int
    checks: list[CheckResult] = field(default_factory=list)
    timestamp: str = ""

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status != "pass")

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "suite": "all",
            "group": self.group,
            "seed": self.seed,
            "pure_states": self.pure_states,
            "checks": [c.to_json() for c in self.checks],
            "summary": {"passed": self.passed, "failed": self.failed,
                        "total": len(self.checks)},
            "timestamp": self.timestamp,
        }

    def render(self) -> str:
        return dumps(self.to_json())


def _check_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def run_check(check: Check, group: FiniteAbelianGroup, seed: int,
              tolerances: Tolerances = DEFAULT) -> CheckResult:
    rng = _check_rng(seed, check.name)
    threshold = check.tolerance(tolerances)
    measured = float(check.fn(group, rng, tolerances))
    if check.direction == "le":
        ok = measured <= threshold
    else:
        ok = measured >= threshold
    return CheckResult(
        name=check.name,
        anchor=check.anchor,
        status="pass" if ok else "fail",
        measured=measured,
        tolerance=threshold,
        direction=check.direction,
    )


def verify_group(group: FiniteAbelianGroup, seed: int = 0,
                 tolerances: Tolerances = DEFAULT) -> VerificationReport:
    """Run every applicable check against one group, sorted by name."""
    results = [
        run_check(check, group, seed, tolerances)
        for check in sorted(CHECKS, key=lambda c: c.name)
        if check.applies(group)
    ]
    return VerificationReport(
        group=repr(group),
        seed=seed,
        pure_states=len(enumerate_kd_positive_pure(group)),
        checks=results,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
