"""The classical fragment: KD reality, KD positivity, and membership in
the span or convex hull of the KD-positive pure family.

Reality of the KD table is decided two ways that must agree: directly
from the table, and from the support of the bare characteristic function
(a Hermitian operator has a real KD table exactly when that support sits
inside the set where chi(g) = 1).

Geometry lives in KD-table coordinates, A -> KD(A).ravel() / sqrt(|G|),
where the Euclidean dot product is the Hilbert-Schmidt inner product
because the KD map is unitary.  Family tables are exact 0/1 rectangles
(g + H) x (chi * ann(H)), so their Gram matrix is overlap counts / |G|.
Hull membership is a least-squares problem over the probability simplex
solved by an active-set method, and projection onto the KD-positive
states alternates, Dykstra style, between the spectral state set and the
polyhedron of real nonnegative KD tables, a plain clamp in these
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .classify import enumerate_kd_positive_pure
from .errors import NotHermitianError, NotKdPositiveError
from .groups import SUBGROUP_ORDER_BOUND, FiniteAbelianGroup
from .kd import _kd_kernel, _kd_table, char_fn, kd_inverse, symplectic_fourier
from .operators import Operator, PhaseSpaceFunction, check_state
from .tolerances import DEFAULT


# ---------------------------------------------------------------------------
# KD-table coordinates; Euclidean dot = HS inner product


def _table_vector(group: FiniteAbelianGroup, kernel: np.ndarray) -> np.ndarray:
    return _kd_table(group, kernel).ravel() / np.sqrt(group.order)


def _vector_operator(group: FiniteAbelianGroup, vec: np.ndarray) -> Operator:
    table = vec.reshape(group.order, group.order) * np.sqrt(group.order)
    return Operator(group, _kd_kernel(group, table))


@dataclass
class _FragmentContext:
    group: FiniteAbelianGroup
    tables: np.ndarray          # (n, d^2) exact 0/1 member KD tables
    gram: np.ndarray            # HS Gram: overlap counts / |G|


@lru_cache(maxsize=None)
def _context(group: FiniteAbelianGroup, bound: int = SUBGROUP_ORDER_BOUND) -> _FragmentContext:
    family = enumerate_kd_positive_pure(group, bound)
    ones = np.stack([m.indicator_table().values.real.ravel() for m in family])
    return _FragmentContext(group=group, tables=ones, gram=ones @ ones.T / group.order)


def _columns(ctx: _FragmentContext) -> np.ndarray:
    """Member vectors as the columns of the least-squares matrix."""
    return ctx.tables.T / np.sqrt(ctx.group.order)


# ---------------------------------------------------------------------------
# reality and positivity checks


@dataclass
class KdRealResult:
    is_real: bool
    worst_violation: float
    direct_violation: float     # max |Im KD|
    support_violation: float    # max |char fn| off the chi(g) = 1 set
    methods_agree: bool


def kd_real_dimension(group: FiniteAbelianGroup) -> int:
    """Real dimension of the Hermitian operators with real KD tables.

    One real degree of freedom per phase-space point with chi(g) = 1,
    counted exactly on the integer phase table.
    """
    return int(np.count_nonzero(group.char_phase == 0))


def is_kd_real(op: Operator, tol: float = DEFAULT.structural) -> KdRealResult:
    """Decide KD reality of a Hermitian operator by two routes.

    Route one reads the imaginary part of the KD table; route two checks
    that the bare characteristic function vanishes wherever chi(g) != 1.
    The two violations vanish together, and the verdicts must agree.
    """
    if not op.is_hermitian(tol=1e-10):
        raise NotHermitianError("KD reality is only defined for Hermitian operators")
    group = op.group
    direct = float(np.max(np.abs(_kd_table(group, op.kernel).imag)))
    support_values = char_fn(op, "standard0").values
    off_support = group.char_phase.T != 0
    if off_support.any():
        support = float(np.max(np.abs(support_values[off_support])))
    else:
        support = 0.0
    verdict_direct = direct <= tol
    verdict_support = support <= tol
    return KdRealResult(
        is_real=bool(verdict_direct and verdict_support),
        worst_violation=max(direct, support),
        direct_violation=direct,
        support_violation=support,
        methods_agree=verdict_direct == verdict_support,
    )


@dataclass
class KdPositivityResult:
    is_positive: bool
    worst_violation: float
    max_abs_imag: float
    min_real: float


def is_kd_positive_state(rho: Operator, tol: float = DEFAULT.positivity) -> KdPositivityResult:
    """True when the state's KD table is real and nonnegative within tol."""
    check_state(rho, tol)
    table = _kd_table(rho.group, rho.kernel)
    max_imag = float(np.max(np.abs(table.imag)))
    min_real = float(np.min(table.real))
    return KdPositivityResult(
        is_positive=bool(max_imag <= tol and min_real >= -tol),
        worst_violation=max(max_imag, -min(min_real, 0.0)),
        max_abs_imag=max_imag,
        min_real=min_real,
    )


# ---------------------------------------------------------------------------
# membership


@dataclass
class MembershipResult:
    verdict: str                       # "inside" | "outside" | "inconclusive"
    residual: float
    weights: np.ndarray | None = None
    witness: Operator | None = field(default=None, repr=False)
    gap: float | None = None
    span_dimension: int | None = None

    def to_json(self) -> dict:
        payload: dict = {"verdict": self.verdict, "residual": self.residual}
        if self.span_dimension is not None:
            payload["span_dimension"] = self.span_dimension
        if self.weights is not None:
            payload["certificate"] = {
                "weights": [
                    {"index": int(i), "weight": float(w)}
                    for i, w in enumerate(self.weights)
                    if abs(w) > 1e-12
                ]
            }
        if self.witness is not None:
            payload["certificate"] = {
                "witness": self.witness.to_json(),
                "gap": self.gap,
            }
        return payload


def span_membership(
    op: Operator, tol: float = DEFAULT.membership, bound: int = SUBGROUP_ORDER_BOUND
) -> MembershipResult:
    """Distance from the real span of the family projectors.

    Inside: real coefficients reproducing the operator.  Outside: the
    normalized orthogonal remainder W, which pairs to zero with every
    family member while <W, A> equals the reported gap.
    """
    if not op.is_hermitian(tol=1e-10):
        raise NotHermitianError("span membership is defined for Hermitian operators")
    cols = _columns(_context(op.group, bound))
    y = _table_vector(op.group, op.kernel)
    coeffs, _, rank, _ = np.linalg.lstsq(cols, y.real, rcond=None)
    r = y - cols @ coeffs
    residual = float(np.linalg.norm(r))
    if residual <= tol:
        return MembershipResult("inside", residual, weights=coeffs, span_dimension=int(rank))
    w = r / residual
    gap = float(np.vdot(w, y).real)
    family_side = float(np.max(np.abs(w.real @ cols)))
    witness = _vector_operator(op.group, w)
    if family_side <= max(tol, 1e-9 * max(1.0, gap)):
        return MembershipResult(
            "outside", residual, witness=witness, gap=gap, span_dimension=int(rank)
        )
    return MembershipResult("inconclusive", residual, span_dimension=int(rank))


def _simplex_nnls(gram, corr, embed_cols, y, opt_tol=1e-12, max_iter=None):
    """Least squares over the probability simplex by active sets.

    Minimizes ``||y - A lam||`` subject to ``lam >= 0`` and
    ``sum(lam) = 1``.  The passive-set subproblem keeps the equality
    constraint in its KKT system; negative subproblem solutions trigger
    the usual interpolation step back to the feasible region.

    Parameters
    ----------
    gram : (n, n) precomputed A^T A
    corr : (n,) precomputed A^T Re(y)
    embed_cols : (m, n) the real matrix A, used for direct residuals
    y : (m,) target; it may be complex, and its imaginary part, which
        no real combination of columns reaches, stays in the residual

    Returns (weights, residual, converged).
    """
    n = gram.shape[0]
    if max_iter is None:
        max_iter = 50 * n + 200
    scale = max(1.0, float(np.max(np.abs(corr))), float(np.max(gram)))
    start = int(np.argmax(2.0 * corr - np.diag(gram)))
    passive = [start]
    lam = np.zeros(n)
    lam[start] = 1.0
    converged = False
    for _ in range(max_iter):
        idx = np.array(passive)
        k = idx.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = gram[np.ix_(idx, idx)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.append(corr[idx], 1.0)
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        s, nu = sol[:k], float(sol[k])
        if s.min() >= -1e-12:
            lam = np.zeros(n)
            lam[idx] = np.clip(s, 0.0, None)
            lam /= lam.sum()
            grad = corr - gram @ lam
            slack = grad - nu
            slack[idx] = -np.inf
            j = int(np.argmax(slack))
            if slack[j] <= opt_tol * scale:
                converged = True
                break
            passive.append(j)
        else:
            lam_p = lam[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(s < 0, lam_p / np.maximum(lam_p - s, 1e-300), np.inf)
            alpha = min(max(float(np.min(steps)), 0.0), 1.0)
            lam_p = lam_p + alpha * (s - lam_p)
            keep = lam_p > 1e-14
            lam = np.zeros(n)
            lam[idx[keep]] = lam_p[keep]
            passive = [int(i) for i in idx[keep]]
            if not passive:
                passive = [start]
                lam[:] = 0.0
                lam[start] = 1.0
    total = lam.sum()
    if total > 0:
        lam = lam / total
    residual = float(np.linalg.norm(y - embed_cols @ lam))
    return lam, residual, converged


def conv_membership(
    rho: Operator,
    tol: float = DEFAULT.membership,
    positivity_tol: float = DEFAULT.positivity,
    bound: int = SUBGROUP_ORDER_BOUND,
) -> MembershipResult:
    """Membership of a KD-positive state in the hull of the pure family.

    Inside: simplex weights reconstructing the state within tol in HS
    norm.  Outside: the normalized residual direction W, whose value gap
    <W, rho> - max_i <W, Pi_i> is re-evaluated directly and certifies
    separation.  Queries outside the KD-positive set are rejected.
    """
    probe = is_kd_positive_state(rho, tol=positivity_tol)
    if not probe.is_positive:
        raise NotKdPositiveError(
            "hull membership asked for a state outside the KD-positive set "
            f"(worst violation {probe.worst_violation:.3e})"
        )
    ctx = _context(rho.group, bound)
    cols = _columns(ctx)
    y = _table_vector(rho.group, rho.kernel)
    lam, residual, converged = _simplex_nnls(ctx.gram, y.real @ cols, cols, y)
    if residual <= tol:
        return MembershipResult("inside", residual, weights=lam)
    r = y - cols @ lam
    w = r / np.linalg.norm(r)
    gap = float(np.vdot(w, y).real - np.max(w.real @ cols))
    witness = _vector_operator(rho.group, w)
    if converged and gap > tol:
        return MembershipResult("outside", residual, witness=witness, gap=gap)
    return MembershipResult("inconclusive", residual, witness=witness, gap=gap)


# ---------------------------------------------------------------------------
# projection onto the KD-positive states


def _project_simplex(values: np.ndarray) -> np.ndarray:
    u = np.sort(values)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, values.size + 1)
    k = np.max(np.nonzero(u - css / ks > 0)[0]) + 1
    theta = css[k - 1] / k
    return np.clip(values - theta, 0.0, None)


def _project_states(matrix: np.ndarray) -> np.ndarray:
    herm = (matrix + matrix.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    w = _project_simplex(vals)
    return (vecs * w) @ vecs.conj().T


def _project_kd_nonneg(group: FiniteAbelianGroup, matrix: np.ndarray) -> np.ndarray:
    d = group.order
    table = _kd_table(group, matrix * d)
    clamped = np.clip(table.real, 0.0, None).astype(complex)
    return _kd_kernel(group, clamped) / d


def _dykstra(group: FiniteAbelianGroup, m0: np.ndarray, max_iter: int, tol: float):
    """Dykstra alternation between the state set and the KD polyhedron.

    Returns (state-side iterate, set gap, iterations); the first output
    is exactly positive semidefinite with unit trace.
    """
    x = m0
    p = np.zeros_like(m0)
    q = np.zeros_like(m0)
    y = x
    gap = np.inf
    its = 0
    for its in range(1, max_iter + 1):
        y = _project_states(x + p)
        p = x + p - y
        x = _project_kd_nonneg(group, y + q)
        q = y + q - x
        gap = float(np.linalg.norm(y - x))
        if gap <= tol:
            break
    return y, gap, its


@dataclass
class ProjectionResult:
    state: Operator
    distance: float
    residual: float        # worst KD violation of the returned state
    converged: bool
    iterations: int


def project_onto_kdpos(
    rho0: Operator, max_iter: int = 2000, tol: float = DEFAULT.structural
) -> ProjectionResult:
    """HS projection of a Hermitian operator onto the KD-positive states.

    Alternates between the spectral projection onto {PSD, trace 1} and
    the clamp onto {KD real and nonnegative} with Dykstra corrections,
    so the limit is the metric projection onto the intersection.  The
    returned state is exactly positive with unit trace; `residual`
    reports its remaining KD violation and `converged` whether the two
    sets met within tol.
    """
    if not rho0.is_hermitian(tol=1e-10):
        raise NotHermitianError("projection input must be Hermitian")
    group = rho0.group
    m0 = rho0.matrix
    y, gap, its = _dykstra(group, m0, max_iter, tol)
    table = _kd_table(group, y * group.order)
    residual = max(float(np.max(np.abs(table.imag))), -min(float(np.min(table.real)), 0.0))
    state = Operator.from_matrix(group, y)
    return ProjectionResult(
        state=state,
        distance=float(np.linalg.norm(y - m0)),
        residual=residual,
        converged=bool(gap <= tol),
        iterations=its,
    )


# ---------------------------------------------------------------------------
# hull gap witness search


@dataclass
class GapWitness:
    state: Operator
    functional: Operator
    gap: float
    conv_residual: float
    iterations_used: int
    directions_tried: int

    def to_json(self) -> dict:
        return {
            "gap": self.gap,
            "conv_residual": self.conv_residual,
            "iterations_used": self.iterations_used,
            "directions_tried": self.directions_tried,
            "state": self.state.to_json(),
            "functional": self.functional.to_json(),
        }


def _random_direction(group: FiniteAbelianGroup, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix projected onto the family span, HS norm one.

    The span is the KD-real Hermitian operators, so the orthogonal
    projection zeroes the bare characteristic function off chi(g) = 1.
    """
    d = group.order
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = (raw + raw.conj().T) / 2.0
    values = char_fn(Operator.from_matrix(group, herm), "standard0").values
    values[group.char_phase.T != 0] = 0.0
    matrix = kd_inverse(symplectic_fourier(PhaseSpaceFunction(group, values))).matrix
    norm = np.linalg.norm(matrix)
    if norm == 0.0:
        return _random_direction(group, rng)
    return matrix / norm


def _verify_outside_candidate(ctx, matrix, gap_tol, positivity_tol, membership_tol):
    """Polish a raw candidate and certify it independently, or reject it.

    The candidate is projected tightly onto the KD-positive states, must
    pass the strict feasibility check, and its hull residual must come
    with a separating functional whose value gap, re-evaluated directly
    against every family member, clears the witness tolerance.
    """
    group = ctx.group
    polished, _, _ = _dykstra(group, matrix, 4000, 1e-13)
    rho = Operator.from_matrix(group, polished)
    if not is_kd_positive_state(rho, tol=positivity_tol).is_positive:
        return None
    result = conv_membership(rho, tol=membership_tol, positivity_tol=positivity_tol)
    if result.verdict != "outside" or result.witness is None:
        return None
    w_vec = _table_vector(group, result.witness.kernel)
    value = np.vdot(w_vec, _table_vector(group, rho.kernel)).real
    gap = float(value - np.max(w_vec.real @ _columns(ctx)))
    if gap <= gap_tol:
        return None
    return rho, result.witness, gap, result.residual


def find_conv_gap_witness(
    group: FiniteAbelianGroup,
    seed: int = 0,
    budget: int = 10000,
    gap_tol: float = DEFAULT.witness_gap,
    positivity_tol: float = DEFAULT.positivity,
    membership_tol: float = DEFAULT.membership,
    steps_per_direction: int = 100,
    step_size: float = 0.25,
    search_proj_iters: int = 12,
    bound: int = SUBGROUP_ORDER_BOUND,
) -> GapWitness | None:
    """Search for a KD-positive state outside the hull of the pure family.

    Random Hermitian directions W (projected onto the family span, where
    the whole KD-positive set lives) drive projected gradient ascent of
    <W, rho> over the set, using a lightweight Dykstra projection per
    step.  Every iterate is scored by its hull residual discounted by
    the projection slack; the best iterate of a promising direction is
    polished tightly and certified by an independent verification
    (strict feasibility, fresh hull solve, direct re-evaluation of the
    separating gap against all family members).  The budget counts
    ascent steps; None means no verified witness within the budget,
    never a proof of absence.
    """
    ctx = _context(group, bound)
    cols = _columns(ctx)
    rng = np.random.default_rng(seed)
    used = 0
    directions = 0
    trigger = max(3.0 * gap_tol, 1e-4)
    mixed = np.eye(group.order, dtype=complex) / group.order
    while used < budget:
        directions += 1
        w_mat = _random_direction(group, rng)
        # Ascent from the interior crosses the mid-boundary region where
        # hull gaps live; vertex starts stall on hull faces.
        current = mixed.copy()
        best_score = -np.inf
        best_matrix = None
        for _ in range(steps_per_direction):
            if used >= budget:
                break
            used += 1
            stepped = current + step_size * w_mat
            current, set_gap, _ = _dykstra(group, stepped, search_proj_iters, 1e-12)
            yv = _table_vector(group, current * group.order)
            _, hull_residual, _ = _simplex_nnls(ctx.gram, yv.real @ cols, cols, yv)
            score = hull_residual - 3.0 * set_gap
            if score > best_score:
                best_score = score
                best_matrix = current
        if best_matrix is not None and best_score > trigger:
            verified = _verify_outside_candidate(
                ctx, best_matrix, gap_tol, positivity_tol, membership_tol
            )
            if verified is not None:
                rho, witness, gap, conv_residual = verified
                return GapWitness(
                    state=rho,
                    functional=witness,
                    gap=gap,
                    conv_residual=conv_residual,
                    iterations_used=used,
                    directions_tried=directions,
                )
    return None
