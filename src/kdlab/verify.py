"""Named invariant checks and the report they assemble.

Each check is a generator of (group, rng, tol) yielding its measurements;
`run_check` keeps the worst one and bounds it by the level of the run's
tolerance record that the check names (0.5 for a count).  The deciders a
check calls read that same record.
Checks draw their randomness from a generator seeded by (run seed, crc32
of the check name), so the report is reproducible and independent of
execution order.  Check names and anchors are stable identifiers: the
anchor states the mathematical fact being verified.
"""
from __future__ import annotations

import datetime
import traceback
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .classify import enumerate_kd_positive_pure, recognize_kd_positive_pure
from .errors import UnsupportedOrderError
from .fragment import (
    MembershipResult, conv_membership, is_kd_positive_state, kd_real_dimension, span_membership,
)
from .groups import FiniteAbelianGroup, annihilator, enumerate_subgroups
from .harmonic import DualFunction, GFunction, fourier, haar_density, inverse_fourier
from .jsonio import integer
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


def _table_diff(a: np.ndarray, b) -> float:
    return float(np.max(np.abs(a - b)))


def _inside(res: MembershipResult, measure: Callable = lambda res: res.residual) -> float:
    """What `measure` reads of a membership result that says inside (its
    residual by default), else infinity."""
    return measure(res) if res.verdict == "inside" else np.inf


# ---------------------------------------------------------------------------
# checks


def _check_pairing_bicharacter(group, rng, tol):
    X = group.char_table
    add = group.add_table
    for _ in range(50):
        c, c2, g, g2 = rng.integers(group.order, size=4)
        yield abs(X[c, add[g, g2]] - X[c, g] * X[c, g2])
        yield abs(X[add[c, c2], g] - X[c, g] * X[c2, g])
    yield _table_diff(np.abs(X), 1.0)


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
    yield bad


def _check_annihilator_duality(group, rng, tol):
    for sub in enumerate_subgroups(group):
        ann = annihilator(group, sub)
        yield abs(sub.order * ann.order - group.order)
        double = annihilator(group, ann)
        yield double.elements != sub.elements


def _check_fourier_roundtrip(group, rng, tol):
    for _ in range(50):
        psi = GFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
        back = inverse_fourier(fourier(psi))
        yield _table_diff(back.values, psi.values)


def _check_plancherel(group, rng, tol):
    for _ in range(50):
        psi = GFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
        yield abs(psi.norm() - fourier(psi).norm())


def _check_subgroup_density_transform(group, rng, tol):
    for sub in enumerate_subgroups(group):
        hat = fourier(haar_density(group, sub))
        target = np.zeros(group.order, dtype=complex)
        target[list(annihilator(group, sub).elements)] = 1.0
        yield _table_diff(hat.values, target)


def _check_wh_representation(group, rng, tol):
    for _ in range(30):
        a, b = _random_wh(group, rng), _random_wh(group, rng)
        lhs = wh_unitary(a) @ wh_unitary(b)
        rhs = wh_unitary(wh_mul(a, b))
        yield _table_diff(lhs.kernel, rhs.kernel)


def _check_wh_unitarity(group, rng, tol):
    eye = Operator.identity(group)
    for _ in range(30):
        a = _random_wh(group, rng)
        u = wh_unitary(a)
        yield _table_diff((u @ u.adjoint()).kernel, eye.kernel)
        yield _table_diff(wh_unitary(wh_inv(a)).kernel, u.adjoint().kernel)


def _check_wh_kd_translation(group, rng, tol):
    diff = group.diff_table
    for _ in range(30):
        op = _random_operator(group, rng)
        a = _random_wh(group, rng)
        moved = kd(wh_conjugate(op, a)).values
        table = kd(op).values
        translated = table[np.ix_(diff[:, a.g.index], diff[:, a.chi.index])]
        yield _table_diff(moved, translated)


def _check_kd_roundtrip(group, rng, tol):
    for _ in range(50):
        op = _random_operator(group, rng)
        back = kd_inverse(kd(op))
        yield _table_diff(back.kernel, op.kernel)


def _check_kd_unitarity(group, rng, tol):
    for _ in range(50):
        a, b = _random_operator(group, rng), _random_operator(group, rng)
        yield abs(a.hs_inner(b) - kd(a).inner(kd(b)))


def _check_symplectic_involution(group, rng, tol):
    for _ in range(50):
        d = group.order
        table = PhaseSpaceFunction(group, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        twice = symplectic_fourier(symplectic_fourier(table))
        yield _table_diff(twice.values, table.values)


def _check_char_fn_factorization(group, rng, tol):
    for _ in range(30):
        op = _random_operator(group, rng)
        yield _table_diff(kd(op).values, symplectic_fourier(char_fn(op, "standard1")).values)
        yield _table_diff(akd(op).values, symplectic_fourier(char_fn(op, "standard0")).values)


def _check_adjoint_conjugation(group, rng, tol):
    for _ in range(30):
        op = _random_operator(group, rng)
        lhs = akd(op).values
        rhs = kd(op.adjoint()).values.conj()
        yield _table_diff(lhs, rhs)


def _check_state_marginals(group, rng, tol):
    for _ in range(30):
        rho = _random_state(group, rng)
        position, momentum = marginals(rho)
        yield _table_diff(position, np.diag(rho.kernel).real)
        for c in range(group.order):
            chi_vec = GFunction(group, group.char_table[c].copy())
            born = chi_vec.inner(rho.apply(chi_vec)).real
            yield abs(momentum[c] - born)
        yield abs(kd(rho).total_mass() - 1.0)


def _check_product_symbol_quantization(group, rng, tol):
    for _ in range(30):
        f = GFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
        h = DualFunction(group, rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
        table = kd(kohn_nirenberg(f, h)).values
        yield _table_diff(table, np.outer(f.values, h.values))


def _check_wigner_real(group, rng, tol):
    for _ in range(30):
        op = _random_hermitian(group, rng)
        wig = symplectic_fourier(char_fn(op, "half"))
        yield np.max(np.abs(wig.values.imag))


def _check_half_order_parity_guard(group, rng, tol):
    op = _random_hermitian(group, rng)
    try:
        char_fn(op, "half")
    except UnsupportedOrderError:
        yield 0
    else:
        yield 1


def _check_family_count(group, rng, tol):
    family = enumerate_kd_positive_pure(group)
    expected = group.order * len(enumerate_subgroups(group))
    yield abs(len(family) - expected) + (len(set(family)) != len(family))


def _check_family_indicator(group, rng, tol):
    for member in enumerate_kd_positive_pure(group):
        table = kd(member.projector())
        yield _table_diff(table.values, member.indicator_table().values)


def _check_family_positivity(group, rng, tol):
    for member in enumerate_kd_positive_pure(group):
        yield is_kd_positive_state(member.projector(), tol).worst_violation


def _check_recognition_roundtrip(group, rng, tol):
    failures = 0
    for member in enumerate_kd_positive_pure(group):
        hit = recognize_kd_positive_pure(member.vector, tol)
        if hit is None or hit.key != member.key:
            failures += 1
    for _ in range(20):
        v = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
        psi = GFunction(group, v).normalized()
        hit = recognize_kd_positive_pure(psi, tol)
        if hit is not None and abs(hit.vector.inner(psi)) <= 1.0 - tol.recognition:
            failures += 1
    yield failures


def _check_real_dimension(group, rng, tol):
    members = enumerate_kd_positive_pure(group)
    tables = np.empty((len(members), group.order ** 2))    # filled in place, so only one stack is held
    for row, member in zip(tables, members):
        row[:] = member.indicator_table().values.real.ravel()
    rank = np.linalg.matrix_rank(tables)
    yield abs(rank - kd_real_dimension(group))


def _check_projector_membership(group, rng, tol):
    for member in enumerate_kd_positive_pure(group):
        yield _inside(conv_membership(member.projector(), tol))


def _check_mixed_membership(group, rng, tol):
    mixed = Operator.from_matrix(group, np.eye(group.order, dtype=complex) / group.order)
    yield _inside(conv_membership(mixed, tol))


def _mix(vectors: np.ndarray, weights) -> np.ndarray:
    """Matrix of sum_i w_i |v_i><v_i| / |G|, the weighted family projectors, without their stack."""
    return (vectors.T * weights) @ vectors.conj() / vectors.shape[1]


def _family_mixtures(group, rng) -> tuple[np.ndarray, list[Operator]]:
    """The family member vectors and ten random Dirichlet mixtures of their projectors."""
    vectors = np.stack([m.vector.values for m in enumerate_kd_positive_pure(group)])
    mixtures = [_mix(vectors, rng.dirichlet(np.ones(len(vectors)))) for _ in range(10)]
    return vectors, [Operator.from_matrix(group, matrix) for matrix in mixtures]


def _check_certificate_reconstruction(group, rng, tol):
    vectors, mixtures = _family_mixtures(group, rng)
    for rho in mixtures:
        res = conv_membership(rho, tol)
        yield _inside(res, lambda inside: Operator.from_matrix(group, _mix(vectors, inside.weights)).hs_distance(rho))


def _check_span_consistency(group, rng, tol):
    for op in _family_mixtures(group, rng)[1]:
        yield _inside(span_membership(op, tol))


def _check_circle_diagonal_forward(group, rng, tol):
    for _ in range(10):
        diag = rng.dirichlet(np.ones(9))
        op = circ.BandLimitedOperator.from_diagonal(4, diag)
        yield circ.circle_negativity_search(op, 64).violation


def _check_circle_offdiagonal_violation(group, rng, tol):
    for _ in range(10):
        n = 9
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = x @ x.conj().T
        m /= np.trace(m).real
        op = circ.BandLimitedOperator(4, m)
        yield circ.circle_negativity_search(op, 64).violation


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    fn: Callable                             # (group, rng, tol) -> its measurements, the worst kept
    level: str | None                        # the Tolerances field bounding it; None: a count, bound 0.5
    direction: str = "le"                    # pass iff measured <= bound ("ge": >=)
    applies: Callable[[FiniteAbelianGroup], bool] = lambda group: True

    def bound(self, tol: Tolerances) -> float:
        return 0.5 if self.level is None else getattr(tol, self.level)


def _odd(group: FiniteAbelianGroup) -> bool:
    return group.order % 2 == 1


CHECKS: tuple[Check, ...] = (
    Check("group-pairing-bicharacter", "character pairing is multiplicative in both slots with unit modulus",
          _check_pairing_bicharacter, "exact"),
    Check("group-subgroup-closure", "enumerated subgroups are closed, contain zero, and are distinct",
          _check_subgroup_closure, None),
    Check("group-annihilator-duality", "annihilator orders multiply to the group order and double annihilator returns the subgroup",
          _check_annihilator_duality, None),
    Check("harmonic-fourier-roundtrip", "inverse transform undoes the transform pointwise",
          _check_fourier_roundtrip, "structural"),
    Check("harmonic-plancherel", "the transform preserves the weighted norm",
          _check_plancherel, "structural"),
    Check("harmonic-subgroup-density-transform", "normalized subgroup indicators transform to annihilator indicators",
          _check_subgroup_density_transform, "structural"),
    Check("weyl-representation", "displacement unitaries compose by the twisted group law",
          _check_wh_representation, "structural"),
    Check("weyl-unitarity", "displacements are unitary and the group inverse gives the adjoint",
          _check_wh_unitarity, "structural"),
    Check("weyl-kd-translation", "conjugating by a displacement translates the phase-space table",
          _check_wh_kd_translation, "structural"),
    Check("kd-roundtrip", "the inverse table map recovers the kernel",
          _check_kd_roundtrip, "structural"),
    Check("kd-unitarity", "the table map preserves Hilbert-Schmidt inner products",
          _check_kd_unitarity, "structural"),
    Check("kd-symplectic-involution", "the symplectic transform applied twice is the identity",
          _check_symplectic_involution, "structural"),
    Check("kd-char-fn-factorization", "tables factor through the symplectic transform of ordered characteristic functions",
          _check_char_fn_factorization, "structural"),
    Check("kd-adjoint-conjugation", "the anti-ordered table is the conjugate of the adjoint's table",
          _check_adjoint_conjugation, "structural"),
    Check("kd-state-marginals", "table marginals reproduce position and momentum laws with unit mass",
          _check_state_marginals, "structural"),
    Check("kd-product-symbol-quantization", "quantizing a product symbol returns exactly that table",
          _check_product_symbol_quantization, "structural"),
    Check("kd-wigner-real", "the half-ordered table of a Hermitian operator is real on odd-order groups",
          _check_wigner_real, "structural", applies=_odd),
    Check("kd-half-order-parity-guard", "the half ordering is rejected on groups with even-order factors",
          _check_half_order_parity_guard, None, applies=lambda g: not _odd(g)),
    Check("pure-family-count", "the family has order times subgroup-count distinct members",
          _check_family_count, None),
    Check("pure-family-indicator", "each family table is exactly a coset-rectangle indicator",
          _check_family_indicator, "exact"),
    Check("pure-family-positivity", "each family projector passes the positivity test",
          _check_family_positivity, "positivity"),
    Check("pure-recognition-roundtrip", "recognition returns each member and rejects generic vectors",
          _check_recognition_roundtrip, None),
    Check("fragment-real-dimension", "family span dimension equals the phase-count dimension formula",
          _check_real_dimension, None),
    Check("fragment-projector-membership", "every family projector lies in the hull",
          _check_projector_membership, "membership"),
    Check("fragment-mixed-membership", "the maximally mixed state lies in the hull",
          _check_mixed_membership, "membership"),
    Check("fragment-certificate-reconstruction", "inside certificates rebuild the queried state",
          _check_certificate_reconstruction, "membership"),
    Check("fragment-span-consistency", "hull members lie in the real span",
          _check_span_consistency, "membership"),
    Check("circle-diagonal-forward", "diagonal band operators show no table negativity",
          _check_circle_diagonal_forward, "exact"),
    Check("circle-offdiagonal-violation", "generic non-diagonal band states show a table violation",
          _check_circle_offdiagonal_violation, "witness_gap", direction="ge"),
)


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class CheckResult:
    name: str
    anchor: str
    status: str                    # "pass" | "fail" | "error"
    measured: float | None         # None when the check raised
    tolerance: float
    direction: str
    message: str | None = None     # traceback of a check that raised

    def to_json(self) -> dict:
        payload = asdict(self)
        if self.message is None:
            del payload["message"]
        return payload


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


def _check_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def run_check(check: Check, group: FiniteAbelianGroup, seed: int,
              tol: Tolerances = DEFAULT) -> CheckResult:
    """Run one check and keep its worst measurement: the largest for a "le"
    row, the smallest for a "ge" row, NaN if any is NaN.  A check that
    raises or measures nothing is reported as an error row, so one broken
    check cannot abort the rest of the report."""
    bound = check.bound(tol)
    keep = np.max if check.direction == "le" else np.min
    measured = message = None
    try:
        measured = float(keep([float(x) for x in check.fn(group, _check_rng(seed, check.name), tol)]))
    except Exception:
        message = traceback.format_exc()
    if measured is None:
        status = "error"
    elif (measured <= bound) if check.direction == "le" else (measured >= bound):
        status = "pass"
    else:
        status = "fail"
    return CheckResult(check.name, check.anchor, status, measured, bound, check.direction, message)


def verify_group(group: FiniteAbelianGroup, seed: int = 0,
                 tol: Tolerances = DEFAULT) -> VerificationReport:
    """Run every applicable check against one group, sorted by name."""
    seed = integer(seed, "seed", 0)  # before any check: a bad seed is no failed check
    pure_states = len(enumerate_kd_positive_pure(group))  # and a group over the subgroup bound runs none
    results = [
        run_check(check, group, seed, tol)
        for check in sorted(CHECKS, key=lambda c: c.name)
        if check.applies(group)
    ]
    return VerificationReport(
        group=repr(group),
        seed=seed,
        pure_states=pure_states,
        checks=results,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
