"""The classical fragment: KD reality, KD positivity, and membership in
the span or convex hull of the KD-positive pure family.

Reality of the KD table is decided two ways that must agree: directly
from the table, and from the support of the bare characteristic function
(a Hermitian operator has a real KD table exactly when that support sits
inside the set where chi(g) = 1).

Geometry lives in KD-table coordinates: the KD map is unitary, so the
Hilbert-Schmidt inner product of A and B is sum(conj(KD_A) KD_B) / |G|,
and family tables are exact 0/1 rectangles of coset indicators, held
once per distinct coset in the family record (see `classify._Family`),
which the hull solver reads by `pair`, `combine` and, for the Gram
columns of its passive set only, `overlaps`.  The span is the KD-real
operators: its remainder is the characteristic mass where chi(g) != 1,
and its Gram operator is diagonal under the symplectic Fourier transform.

Hull membership is a least-squares problem over the probability simplex
solved by an active-set method; a strictly positive table is first
offered the span's coefficients, a hull certificate whenever none is
negative.  Projection onto the KD-positive states alternates, Dykstra
style, between the spectral state set and the polyhedron of real
nonnegative KD tables, a plain clamp in these coordinates.  The spectral
step needs an eigendecomposition only when its result may lose rank:
while Weyl's inequality, applied against the last matrix decomposed,
proves every shifted eigenvalue positive, the projection onto the states
is the shift H - sI, PSD by that proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import eigh_lo

from .classify import _family
from .errors import NotAStateError, NotHermitianError, NotKdPositiveError, PreconditionError
from .groups import FiniteAbelianGroup
from .jsonio import integer
from .kd import _kd_kernel, _kd_table, char_fn, kd_inverse, symplectic_fourier
from .operators import Operator, PhaseSpaceFunction, check_state
from .tolerances import DEFAULT, Tolerances


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


def is_kd_real(op: Operator, tol: Tolerances = DEFAULT) -> KdRealResult:
    """Decide KD reality of a Hermitian operator by two routes.

    Route one reads the imaginary part of the KD table; route two checks
    that the bare characteristic function vanishes wherever chi(g) != 1.
    The two violations vanish together, and at ``tol.structural`` the
    verdicts must agree.
    """
    if not op.is_hermitian():
        raise NotHermitianError("KD reality is only defined for Hermitian operators")
    group = op.group
    direct = float(np.max(np.abs(_kd_table(group, op.kernel).imag)))
    support_values = char_fn(op, "standard0").values
    support = float(np.max(np.abs(support_values[group.char_phase != 0]), initial=0.0))
    verdict_direct = direct <= tol.structural
    verdict_support = support <= tol.structural
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


def is_kd_positive_state(rho: Operator, tol: Tolerances = DEFAULT) -> KdPositivityResult:
    """True when the state's KD table is real and nonnegative within ``tol.positivity``."""
    return _kd_positivity(rho, tol)[0]


def _kd_positivity(rho: Operator, tol: Tolerances) -> tuple[KdPositivityResult, np.ndarray]:
    """``is_kd_positive_state`` and the KD table it read."""
    check_state(rho, tol)
    table = _kd_table(rho.group, rho.kernel)
    max_imag = float(np.max(np.abs(table.imag)))
    min_real = float(np.min(table.real))
    return KdPositivityResult(
        is_positive=bool(max_imag <= tol.positivity and min_real >= -tol.positivity),
        worst_violation=max(max_imag, -min(min_real, 0.0)),
        max_abs_imag=max_imag,
        min_real=min_real,
    ), table


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
    converged: bool | None = None      # hull solves: the active-set optimality test passed, or a span certificate held
    iterations: int | None = None      # hull solves: active-set iterations run, 0 for a span certificate

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


def _span_coefficients(family, c: np.ndarray) -> np.ndarray:
    """Minimum-norm real coefficients of the span point whose bare
    characteristic function is c on chi(g) = 1, the span's part of c.

    F, the symplectic Fourier transform, is its own inverse and takes a
    real table T to c where N > 0.  A A^T is |G| N under F, N(g, chi)
    counting the H that hold g with chi in ann(H), and A^T Y = |G|
    pair(Y); so the minimum-norm A^T (A A^T)^+ T is pair(F(c / N)).
    """
    q = np.divide(c, family.N, out=np.zeros_like(c), where=family.N > 0)
    return family.pair(symplectic_fourier(PhaseSpaceFunction(family.group, q)).values.real)


def span_membership(op: Operator, tol: Tolerances = DEFAULT) -> MembershipResult:
    """Distance from the real span of the family projectors.

    The remainder is the bare characteristic function c off chi(g) = 1.
    Inside: the minimum-norm real coefficients, within ``tol.membership``.
    Outside: the remainder's normalized KD table W, which pairs to zero
    with every member by construction while <W, A> is the gap, above that
    bound and above the rounding of A, ``DEFAULT.exact`` ||A||.
    """
    if not op.is_hermitian():
        raise NotHermitianError("span membership is defined for Hermitian operators")
    group = op.group
    family = _family(group)
    c = char_fn(op, "standard0").values
    classical = family.N > 0    # exactly where chi(g) = 1, which puts chi in ann(<g>)
    off = np.where(classical, 0.0, c)
    residual = float(np.linalg.norm(off)) / np.sqrt(group.order)
    rank = kd_real_dimension(group)
    if residual <= tol.membership:
        return MembershipResult("inside", residual, weights=_span_coefficients(family, c), span_dimension=rank)
    # its KD table; the pairing is symmetric, so X.conj() holds conj(chi(g)) at [g, chi]
    w = symplectic_fourier(PhaseSpaceFunction(group, off * group.char_table_conj)).values
    w /= residual if residual > 0.0 else 1.0    # unit norm; off = 0 needs a negative bound
    witness = Operator(group, _kd_kernel(group, w))
    gap = witness.hs_inner(op).real
    family_side = float(np.max(np.abs(family.pair(w.real))))
    floor = DEFAULT.exact * float(np.linalg.norm(c)) / np.sqrt(group.order)     # rounding of <W, A>
    if gap > max(tol.membership, floor) and family_side <= max(tol.membership, DEFAULT.exact):
        return MembershipResult("outside", residual, witness=witness, gap=gap, span_dimension=rank)
    return MembershipResult("inconclusive", residual, span_dimension=rank)


# Relative Schur pivot sigma / G_jj below which a joining column counts as
# dependent: an inverse bordered past it would lose ten of its sixteen digits.
PIVOT_FLOOR = 1e-10


def _simplex_nnls(family, corr, start=None):
    """Least squares over the probability simplex by active sets.

    Minimizes ``||y - A lam||`` subject to ``lam >= 0`` and
    ``sum(lam) = 1``, given ``A^T Re(y)`` and, from ``family.overlaps``,
    the columns of ``A^T A`` of the passive set, which hold its Gram
    block G_P and, as no weight lies off that set, the gradient.  With
    a = G_P^-1 c_P and b = G_P^-1 1, the passive-set subproblem, which
    keeps the equality constraint, solves to s = a - nu b with
    nu = (1^T a - 1) / 1^T b.  G_P^-1 is carried across iterations,
    bordered when a member joins and downdated by the Schur complement
    of the dropped block when members leave, so an iteration costs
    O(k^2) (Lawson & Hanson, *Solving Least Squares Problems*, 1974, for
    the active-set frame).  Negative subproblem solutions trigger the
    usual interpolation step back to the feasible region.  The passive
    columns lead one buffer that doubles when full.

    Unit trace keeps G_P nonsingular in exact arithmetic: a linear
    relation Pi_j = sum_p mu_p Pi_p has sum_p mu_p = 1 (take traces),
    and every passive gradient equals nu at a passive-set solution, so
    such a j has slack nu sum_p mu_p - nu = 0 and never joins.  Hence a
    joining pivot sigma / G_jj at or below ``PIVOT_FLOOR`` ends the
    solve unconverged.

    Parameters
    ----------
    family : the members, such as the family record; every member
        has unit trace and unit norm, and no overlap exceeds one
    corr : (n,) precomputed A^T Re(y)
    start : optional state returned by an earlier solve over the same
        family, such as the one for a nearby target.  The solve resumes
        from its weights, passive set, G_P^-1 and buffer, so a good
        guess needs few subproblem solves and no Gram column is formed
        twice; it takes over those arrays, so a state serves one warm
        start.  The residual reached does not depend on it; the weights
        may, where the optimum is not unique.  Without it the search
        starts from the single best vertex.

    Returns (weights, converged, iterations, state), where iterations
    counts the subproblem solves, at most 50 n + 200, and state is the
    ``start`` of a later solve.  Callers form the residual from the
    weights.
    """
    n = corr.size
    # The Gram diagonal is all ones and bounds every entry (a rectangle has
    # area |G|, and no overlap of two is larger), so the scale and the best
    # vertex, argmax 2 corr_i - ||Pi_i||^2, need only corr.
    scale = max(1.0, float(np.max(np.abs(corr))))
    if start is None:
        passive = np.array([int(np.argmax(2.0 * corr - 1.0))])
        lam = np.zeros(n)
        lam[passive] = 1.0
        buffer = family.overlaps(passive)           # Gram columns of the passive set lead it
        inv = np.linalg.inv(buffer[passive])
    else:
        lam, passive, inv, buffer = start
    converged = False
    iterations = 0
    for iterations in range(1, 50 * n + 201):
        a = inv @ corr[passive]
        b = inv.sum(axis=1)
        nu = (a.sum() - 1.0) / b.sum()
        s = a - nu * b
        if s.min() >= -1e-12:
            lam = np.zeros(n)
            lam[passive] = np.maximum(s, 0.0)
            lam /= lam.sum()
            grad = corr - buffer[:, :passive.size] @ lam[passive]
            slack = grad - nu
            slack[passive] = -np.inf
            j = int(np.argmax(slack))
            if slack[j] <= 1e-12 * scale:
                converged = True
                break
            col = family.overlaps(np.array([j]))[:, 0]
            # bordered inverse: [[inv, 0], [0, 0]] + w w^T / sigma with w = (-u, 1)
            u = inv @ col[passive]
            sigma = col[j] - col[passive] @ u
            if sigma <= PIVOT_FLOOR * col[j]:
                break
            w = np.concatenate((-u, (1.0,)))
            bordered = w[:, None] * (w / sigma)
            bordered[:-1, :-1] += inv
            inv = bordered
            k = passive.size
            if k == buffer.shape[1]:
                grown = np.empty((n, min(2 * k, n)))
                grown[:, :k] = buffer
                buffer = grown
            buffer[:, k] = col
            passive = np.concatenate((passive, (j,)))
        else:
            lam_p = lam[passive]
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(s < 0, lam_p / np.maximum(lam_p - s, 1e-300), np.inf)
            alpha = min(max(float(np.min(steps)), 0.0), 1.0)
            lam_p = lam_p + alpha * (s - lam_p)
            keep = lam_p > 1e-14
            lam = np.zeros(n)
            lam[passive[keep]] = lam_p[keep]
            # the kept block's inverse: the Schur complement of the dropped block in inv
            d = inv[:, ~keep]     # inv is symmetric, so d.T holds the dropped rows
            inv = (inv - d @ np.linalg.solve(d[~keep], d.T))[np.ix_(keep, keep)]
            passive = passive[keep]
            buffer[:, :passive.size] = buffer[:, np.flatnonzero(keep)]
    total = lam.sum()
    if total > 0:
        lam = lam / total
    return lam, converged, iterations, (lam, passive, inv, buffer)


def conv_membership(rho: Operator, tol: Tolerances = DEFAULT) -> MembershipResult:
    """Membership of a KD-positive state in the hull of the pure family.

    Inside: simplex weights reconstructing the state within
    ``tol.membership`` in HS norm.  Outside: the normalized residual
    direction W, whose value gap <W, rho> - max_i <W, Pi_i>, above that
    bound and above rounding (``DEFAULT.exact``), certifies separation.
    States that are not KD-positive at ``tol.positivity`` are rejected.

    A table whose every cell is above ``DEFAULT.exact`` has |G|^2
    nonzero cells, and a member covers |G| of them, so the active set,
    which joins one member per iteration, needs at least |G| iterations
    for it.  Such a table is first offered the minimum-norm span
    coefficients, which reproduce it exactly: if none is negative and,
    renormalized to sum one, they rebuild the state within
    ``tol.membership``, they are the inside certificate, dense, up to one
    weight per member (``converged`` True, ``iterations`` 0).  Otherwise
    the active set solves from cold.  A table with a zero cell, such as a
    member's or a sparse mixture's, cannot be rebuilt from dense positive
    weights and goes to the active set at once; the zero computes to a
    rounding of either sign, hence the bound above zero.
    """
    probe, table = _kd_positivity(rho, tol)
    if not probe.is_positive:
        raise NotKdPositiveError(
            "hull membership asked for a state outside the KD-positive set "
            f"(worst violation {probe.worst_violation:.3e})"
        )
    group = rho.group
    family = _family(group)

    def hull_residual(lam):
        # the imaginary part, which no real combination reaches, stays in r
        r = table - family.combine(lam)
        return r, float(np.linalg.norm(r)) / np.sqrt(group.order)

    if probe.min_real > DEFAULT.exact:
        coeffs = _span_coefficients(family, char_fn(rho, "standard0").values)
        if coeffs.min() >= 0.0:
            lam = coeffs / coeffs.sum()
            residual = hull_residual(lam)[1]
            if residual <= tol.membership:
                return MembershipResult("inside", residual, weights=lam, converged=True, iterations=0)
    lam, converged, iterations, _ = _simplex_nnls(family, family.pair(table.real))
    r, residual = hull_residual(lam)
    if residual <= tol.membership:
        return MembershipResult("inside", residual, weights=lam, converged=converged, iterations=iterations)
    w = r / residual if residual > 0.0 else r   # unit norm; r = 0 needs a negative bound
    gap = float(np.vdot(w, table).real) / group.order - float(np.max(family.pair(w.real)))
    witness = Operator(group, _kd_kernel(group, w))
    verdict = "outside" if converged and gap > max(tol.membership, DEFAULT.exact) else "inconclusive"
    return MembershipResult(verdict, residual, witness=witness, gap=gap, converged=converged, iterations=iterations)


# ---------------------------------------------------------------------------
# projection onto the KD-positive states


def _project_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of ascending values onto the probability simplex."""
    # eigh returns eigenvalues in ascending order, so reversing them is
    # the descending sort of Wang & Carreira-Perpinan; the entries that
    # stay positive form a prefix of that order, and k counts them.  The
    # running sum adds in the same sequence as a cumsum, so the shift is
    # the same float; on a handful of eigenvalues plain floats beat the
    # per-call cost of array operations.
    total = 0.0
    shifts = []
    k = 0
    for i, v in enumerate(reversed(values.tolist()), 1):
        total += v
        shift = (total - 1.0) / i
        shifts.append(shift)
        k += v > shift
    return np.maximum(values - shifts[k - 1], 0.0)


def _project_kd_nonneg(group: FiniteAbelianGroup, matrix: np.ndarray) -> np.ndarray:
    # Both maps are linear and the clamp is positively homogeneous, so
    # the 1/|G| scaling of the table needs no undoing.
    return _kd_kernel(group, np.maximum(_kd_table(group, matrix).real, 0.0))


def _frobenius(matrix: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex matrix, bit for bit, without its dispatch."""
    flat = matrix.reshape(-1)
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


@np.errstate(all="ignore")
def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of complex Hermitian ``(..., d, d)`` matrices, bit for bit.

    It runs the LAPACK gufunc that ``eigh`` runs, on the lower triangle,
    without the wrapper's per-call array and type checks.  A matrix that
    does not converge, or whose lower triangle holds NaN or inf, gets NaN
    eigenvalues; that raises ``LinAlgError``, with no ``RuntimeWarning``.
    """
    vals, vecs = eigh_lo(matrix, signature="D->dD")
    flat = vals.reshape(-1)
    if math.isnan(flat.dot(flat)):      # a sum of squares is NaN only if an eigenvalue is
        raise LinAlgError("Eigenvalues did not converge")
    return vals, vecs


def _dykstra(group: FiniteAbelianGroup, m0: np.ndarray, max_iter: int, tol: float):
    """Dykstra alternation between the state set and the KD polyhedron.

    Returns (state-side iterate, set gap, iterations); the first output
    is positive semidefinite with unit trace, to rounding.

    The spectral step projects H = herm(x + p) onto {PSD, trace 1}: it
    shifts the eigenvalues down by the simplex threshold and clips them
    at zero.  While every shifted eigenvalue stays positive, the
    threshold is s = (tr H - 1) / d and the projection is H - s I, with
    no eigenvectors needed.  Weyl's inequality (Horn & Johnson, *Matrix
    Analysis*, Thm 4.3.1) bounds lambda_min(H) >= lambda_min(A) -
    ||H - A||_2 >= lambda_min(A) - ||H - A||_F for the last matrix A
    that went through ``eigh``, so when that bound clears s by more than
    the rounding of A's eigenvalues, ``DEFAULT.exact`` max(1, ||A||_2),
    the shift is the projection and its result is PSD by proof.
    Otherwise ``eigh`` runs, through the `_eigh` seam straight to LAPACK,
    and A moves to H.  The bound is tried only after a full-rank
    projection of A: after a rank-deficient one, lambda_min(A) <=
    (tr A - 1) / d, and as |tr(H - A)| / d <= ||H - A||_F the test could
    not pass.
    """
    d = m0.shape[0]
    x = m0
    p = np.zeros(m0.shape, dtype=complex)
    q = np.zeros(m0.shape, dtype=complex)
    y = x
    anchor = None               # (A, lambda_min(A), rounding margin) after a full-rank projection
    gap = np.inf
    its = 0
    for its in range(1, max_iter + 1):
        p += x                  # x + p
        herm = p + p.conj().T
        herm /= 2.0
        shift = None if anchor is None else (herm.trace().real - 1.0) / d
        if shift is not None and anchor[1] - shift - _frobenius(herm - anchor[0]) > anchor[2]:
            y = herm
            y.reshape(-1)[:: d + 1] -= shift
        else:
            vals, vecs = _eigh(herm)
            w = _project_simplex(vals)
            y = (vecs * w) @ vecs.conj().T
            anchor = None
            if w[0] > 0.0:      # full rank
                anchor = (herm, vals[0], DEFAULT.exact * max(1.0, abs(vals[0]), abs(vals[-1])))
        p -= y                  # x + p - y
        q += y                  # y + q
        x = _project_kd_nonneg(group, q)
        q -= x                  # y + q - x
        gap = _frobenius(y - x)
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
    returned state is positive semidefinite with unit trace, to rounding:
    by its clipped spectrum, or by the Weyl bound of `_dykstra`'s shift
    step.  `residual` reports its remaining KD violation and `converged`
    whether the two sets met within tol.  max_iter is an integer of at
    least 1; tol must be finite, and below 0 the alternation runs all
    max_iter iterations.
    """
    max_iter = integer(max_iter, "projection iteration count", 1)
    if not math.isfinite(tol):      # NaN never converges and infinity at once
        raise PreconditionError(f"projection tolerance must be finite, got {tol!r}")
    if not rho0.is_hermitian():
        raise NotHermitianError("projection input must be Hermitian")
    group = rho0.group
    m0 = rho0.matrix
    y, gap, its = _dykstra(group, m0, max_iter, tol)
    table = _kd_table(group, y * group.order)
    residual = max(float(np.max(np.abs(table.imag))), -min(float(np.min(table.real)), 0.0))
    state = Operator.from_matrix(group, y)
    return ProjectionResult(
        state=state,
        distance=_frobenius(y - m0),
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
    values[group.char_phase != 0] = 0.0
    matrix = kd_inverse(symplectic_fourier(PhaseSpaceFunction(group, values))).matrix
    norm = np.linalg.norm(matrix)
    if norm == 0.0:
        return _random_direction(group, rng)
    return matrix / norm


# Ascent schedule of the witness search: steps per random direction, the
# step length in HS norm, and the Dykstra iterations of each step's light
# projection.
STEPS_PER_DIRECTION = 100
STEP_SIZE = 0.25
SEARCH_PROJ_ITERS = 12


def _verify_outside_candidate(family, matrix, tol: Tolerances):
    """Polish a raw candidate and certify it independently, or reject it.

    The candidate is projected tightly onto the KD-positive states, must
    pass the strict feasibility check, and its hull residual must come
    with a separating functional whose value gap, re-evaluated directly
    against every family member, clears ``tol.witness_gap``.
    """
    group = family.group
    polished, _, _ = _dykstra(group, matrix, 4000, 1e-13)
    rho = Operator.from_matrix(group, polished)
    try:
        result = conv_membership(rho, tol)
    except (NotAStateError, NotKdPositiveError):
        # conv_membership's feasibility check failed; with a positivity
        # tol below float rounding even the trace check fails
        return None
    if result.verdict != "outside" or result.witness is None:
        return None
    w = _kd_table(group, result.witness.kernel)
    value = float(np.vdot(w, _kd_table(group, rho.kernel)).real) / group.order
    gap = value - float(np.max(family.pair(w.real)))
    if gap <= tol.witness_gap:
        return None
    return rho, result.witness, gap, result.residual


def find_conv_gap_witness(
    group: FiniteAbelianGroup,
    seed: int = 0,
    budget: int = 10000,
    tol: Tolerances = DEFAULT,
) -> GapWitness | None:
    """Search for a KD-positive state outside the hull of the pure family.

    Random Hermitian directions W (projected onto the family span, where
    the whole KD-positive set lives) drive projected gradient ascent of
    <W, rho> over the set, using a lightweight Dykstra projection per
    step.  Every iterate is scored by its hull residual discounted by
    the projection slack; the best iterate of a promising direction is
    polished tightly and certified by an independent verification
    (strict feasibility, fresh hull solve, direct re-evaluation of the
    separating gap against all family members) at the positivity,
    membership and witness_gap levels of tol.  The seed and the budget,
    which counts ascent steps, are integers of at least 0; None means no
    verified witness within the budget, never a proof of absence.
    """
    seed = integer(seed, "seed", 0)
    budget = integer(budget, "witness search budget", 0)
    trigger = max(3.0 * tol.witness_gap, 1e-4)
    family = _family(group)
    root_d = np.sqrt(group.order)
    rng = np.random.default_rng(seed)
    used = 0
    directions = 0
    mixed = np.eye(group.order, dtype=complex) / group.order
    while used < budget:
        directions += 1
        w_mat = _random_direction(group, rng)
        # Ascent from the interior crosses the mid-boundary region where
        # hull gaps live; vertex starts stall on hull faces.
        current = mixed.copy()
        best_score = -np.inf
        best_matrix = None
        # Consecutive iterates are close, so each hull solve resumes from
        # the state the previous step's solve ended in.
        state = None
        for _ in range(min(STEPS_PER_DIRECTION, budget - used)):
            used += 1
            stepped = current + STEP_SIZE * w_mat
            current, set_gap, _ = _dykstra(group, stepped, SEARCH_PROJ_ITERS, 1e-12)
            table = _kd_table(group, current * group.order)
            weights, _, _, state = _simplex_nnls(family, family.pair(table.real), start=state)
            hull_residual = _frobenius(table - family.combine(weights)) / root_d
            score = hull_residual - 3.0 * set_gap
            if score > best_score:
                best_score = score
                best_matrix = current
        if best_matrix is not None and best_score > trigger:
            verified = _verify_outside_candidate(family, best_matrix, tol)
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
