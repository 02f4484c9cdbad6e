"""The three benchmark workloads and the independent checks on their outputs.

Each workload turns the workload seed into a fixed list of operations.
An operation is one closed-loop request: an optional untimed
``prepare``, a timed ``call`` made only through ``kdlab``'s public API
(looked up on the package at call time, so the tracer's wrappers are
seen), and an untimed ``check`` that recomputes what it can with plain
numpy and returns an error message or ``None``.

Why these workloads (the layer names are kdlab's module names):

* ``witness`` is the tier-1 hot path.  ``fragment``'s per-step Dykstra
  projection and simplex NNLS, plus ``kd`` at |G| <= 8, do nearly all
  the work; ``groups`` and ``classify`` do none after set-up.
* ``build`` is the write side: cold subgroup lattices, pure families and
  fragment contexts.  ``groups``, ``classify`` and the context's SVD and
  Gram matrix do the work; the per-step solvers do none.
* ``query`` is the read side: a seeded stream of warm requests with
  large-n hull membership and large-|G| transforms.  It is the only
  workload that runs ``circle``, ``verify``, ``harmonic`` and ``weyl``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import kdlab

from tracer import kdlab_modules

GAP_TOL = 1e-6            # kdlab's witness-gap tolerance (DEFAULT.witness_gap)
GAP_AGREEMENT = 1e-8      # re-evaluated gap vs reported gap
ROUNDTRIP_TOL = 1e-9      # kd -> kd_inverse, relative to the kernel scale
REBUILD_TOL = 1e-6        # HS distance of a rebuilt certificate


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    prepare: Callable[[], None] | None = None
    steps: Callable[[Any], int] | None = None   # ascent steps, witness searches only


# ---------------------------------------------------------------------------
# shared helpers


def clear_caches() -> None:
    """Empty every functools cache reachable from kdlab's module namespaces.

    Caches are found by their ``cache_clear`` attribute along each
    object's ``__wrapped__`` chain, so new or renamed cached functions are
    covered without naming them.
    """
    seen = set()
    for module in kdlab_modules():
        for value in vars(module).values():
            obj = value
            while obj is not None:
                clear = getattr(obj, "cache_clear", None)
                if callable(clear) and id(obj) not in seen:
                    seen.add(id(obj))
                    clear()
                obj = getattr(obj, "__wrapped__", None)


def mixed_state(group):
    return kdlab.Operator.identity(group) * (1.0 / group.order)


def characters(group) -> np.ndarray:
    """Character table chi_c(g) = exp(2 pi i sum_j c_j g_j / n_j), from residues alone."""
    residues = np.indices(group.factors).reshape(len(group.factors), group.order).T
    phase = (residues / np.array(group.factors, dtype=float)) @ residues.T
    return np.exp(2j * np.pi * phase)


def family_vectors(group) -> np.ndarray:
    return np.stack([m.vector.values for m in kdlab.enumerate_kd_positive_pure(group)])


def direct_gap(functional, state, vectors: np.ndarray) -> float:
    """<W, rho> - max_i <W, Pi_i>, with Pi_i = |v_i><v_i| / |G| built here."""
    w = functional.matrix
    d = vectors.shape[1]
    family_side = np.real(np.einsum("ia,ab,ib->i", vectors.conj(), w, vectors)) / d
    return float(np.real(np.vdot(w, state.matrix))) - float(np.max(family_side))


def rebuild_error(weights, vectors: np.ndarray, matrix: np.ndarray) -> float:
    d = vectors.shape[1]
    rebuilt = (vectors.T * np.asarray(weights, dtype=float)) @ vectors.conj() / d
    return float(np.linalg.norm(rebuilt - matrix))


def is_state(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    herm = (matrix + matrix.conj().T) / 2
    return (
        bool(np.max(np.abs(matrix - matrix.conj().T)) <= tol)
        and abs(np.trace(matrix).real - 1.0) <= tol
        and float(np.linalg.eigvalsh(herm).min()) >= -tol
    )


def random_state(group, rng) -> Any:
    d = group.order
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = x @ x.conj().T
    return kdlab.Operator.from_matrix(group, m / np.trace(m).real)


def random_hermitian(group, rng) -> Any:
    d = group.order
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return kdlab.Operator(group, (x + x.conj().T) / 2)


def _fail_unless(condition: bool, message: str) -> str | None:
    return None if condition else message


# ---------------------------------------------------------------------------
# witness: find_conv_gap_witness searches


# (group, number of searches): budget-exhausting searches on cyclic prime
# powers, which must return None.  The budgets of 1000 steps on Z8 and 500
# on Z9 are spent as searches of 100 steps each, one direction apiece,
# because a short operation's fastest repeat is far steadier on a shared
# machine than a long one's.
EXHAUSTING = (("Z8", 10), ("Z9", 5))
EXHAUSTING_BUDGET = 100
FINDING = ("Z2xZ2", "Z6", "Z12", "Z2xZ4", "Z2xZ2xZ2")
FINDING_SEEDS = (0, 1)
FINDING_BUDGET = 3000
# Search seeds are fixed and the workload seed only orders the searches.
# The work of a search depends strongly on its search seed (a
# witness-finding search needs one to six directions on Z6, and a
# budget-exhausting one polishes a varying number of candidates), so
# seed-drawn searches would make the list, not the code, set the spread.


class Witness:
    name = "witness"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.groups = {spec: kdlab.parse_group(spec) for spec, _ in EXHAUSTING}
        self.groups.update({spec: kdlab.parse_group(spec) for spec in FINDING})
        self.vectors: dict = {}

    def setup(self) -> None:
        for spec, group in self.groups.items():
            kdlab.conv_membership(mixed_state(group))   # builds the fragment context
            self.vectors[spec] = family_vectors(group)

    def warmup(self) -> None:
        kdlab.find_conv_gap_witness(self.groups["Z2xZ2"], seed=0, budget=FINDING_BUDGET)

    def ops(self) -> list[Op]:
        ops = [self._op(spec, seed, EXHAUSTING_BUDGET, expect_witness=False)
               for spec, count in EXHAUSTING for seed in range(count)]
        ops += [self._op(spec, seed, FINDING_BUDGET, expect_witness=True)
                for spec in FINDING for seed in FINDING_SEEDS]
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def _op(self, spec: str, seed: int, budget: int, expect_witness: bool) -> Op:
        group = self.groups[spec]

        def call():
            return kdlab.find_conv_gap_witness(group, seed=seed, budget=budget)

        def check(result):
            if not expect_witness:
                return _fail_unless(result is None, f"{spec}: prime-power search returned a witness")
            if result is None:
                return f"{spec} seed {seed}: no witness within budget {budget}"
            if not kdlab.is_kd_positive_state(result.state).is_positive:
                return f"{spec} seed {seed}: witness state is not KD-positive"
            gap = direct_gap(result.functional, result.state, self.vectors[spec])
            if gap <= GAP_TOL:
                return f"{spec} seed {seed}: re-evaluated gap {gap:.3e} below {GAP_TOL}"
            return _fail_unless(
                abs(gap - result.gap) <= GAP_AGREEMENT * max(1.0, abs(gap)),
                f"{spec} seed {seed}: reported gap {result.gap!r} vs re-evaluated {gap!r}",
            )

        kind = "finding" if expect_witness else "exhausting"
        return Op(
            label=f"{kind}:{spec}:seed{seed}",
            call=call,
            check=check,
            steps=lambda result: budget if result is None else result.iterations_used,
        )


# ---------------------------------------------------------------------------
# build: cold lattice, family and fragment context


# Z256 (a 6 s family) is left out: it would leave two repeats per run for
# every stage.  The Z128 family runs the same code, and the classify.family_s
# probe times the Z256 family.
FAMILY_ONLY = ("Z128",)
WITH_CONTEXT = ("Z64", "Z4xZ4", "Z6xZ6", "Z2xZ2xZ2xZ2", "Z3xZ3xZ3")
# Subgroup counts from theory: a cyclic group Z_n has one subgroup per
# divisor of n; (Z_p)^k has sum_j binom(k, j)_p (Gaussian binomials):
# 1+15+35+15+1 = 67 for (Z2)^4 and 1+13+13+1 = 28 for (Z3)^3.  Z4xZ4 has
# 15, and Z6xZ6 = (Z2)^2 x (Z3)^2 has 5 * 6 = 30 (coprime parts multiply).
SUBGROUP_COUNTS = {
    "Z128": 8, "Z64": 7, "Z4xZ4": 15, "Z6xZ6": 30,
    "Z2xZ2xZ2xZ2": 67, "Z3xZ3xZ3": 28,
}
MEMBERS_CHECKED = 3


class Build:
    name = "build"

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        clear_caches()
        group = kdlab.parse_group("Z2xZ2")
        kdlab.enumerate_subgroups(group)
        kdlab.enumerate_kd_positive_pure(group)
        kdlab.conv_membership(mixed_state(group))
        clear_caches()

    def ops(self) -> list[Op]:
        # A fixed order: which groups' caches and garbage coexist moves
        # peak_mb.  The seed picks the members whose tables are checked.
        ops = []
        for spec in FAMILY_ONLY + WITH_CONTEXT:
            ops += self._stages(spec, spec in WITH_CONTEXT, self.rng.random(MEMBERS_CHECKED))
        return ops

    def _stages(self, spec: str, with_context: bool, picks: np.ndarray) -> list[Op]:
        """Lattice, family and context of one group, each its own operation.

        The lattice starts from emptied caches and a fresh group object;
        each later stage uses what the one before built, so they run in
        this order.
        """
        built: dict = {}

        def lattice():
            built["group"] = kdlab.parse_group(spec)
            return kdlab.enumerate_subgroups(built["group"])

        def check_lattice(subgroups):
            return _fail_unless(len(subgroups) == SUBGROUP_COUNTS[spec],
                                f"{spec}: {len(subgroups)} subgroups, expected {SUBGROUP_COUNTS[spec]}")

        def family():
            return kdlab.enumerate_kd_positive_pure(built["group"])

        def check_family(members):
            d = built["group"].order
            if len(members) != d * SUBGROUP_COUNTS[spec]:
                return f"{spec}: family has {len(members)} members"
            X = characters(built["group"])
            for u in picks:
                psi = members[int(u * len(members))].vector.values
                psi_hat = X.conj() @ psi / d
                table = X.conj().T * np.outer(psi, psi_hat.conj())
                if not (np.allclose(table, np.round(table.real), atol=1e-9)
                        and set(np.unique(np.round(table.real))) <= {0.0, 1.0}
                        and int(np.round(table.real).sum()) == d):
                    return f"{spec}: a family table is not a 0/1 rectangle of area |G|"
            return None

        def context():
            return kdlab.conv_membership(mixed_state(built["group"]))

        def check_context(membership):
            if membership.verdict != "inside":
                return f"{spec}: maximally mixed state reported {membership.verdict}"
            d = built["group"].order
            err = rebuild_error(membership.weights, family_vectors(built["group"]), np.eye(d) / d)
            return _fail_unless(err <= REBUILD_TOL, f"{spec}: certificate rebuilds with error {err:.2e}")

        ops = [Op(f"lattice:{spec}", lattice, check_lattice, prepare=clear_caches),
               Op(f"family:{spec}", family, check_family)]
        if with_context:
            ops.append(Op(f"context:{spec}", context, check_context))
        return ops


# ---------------------------------------------------------------------------
# query: warm request stream


PROJECT_ITERS = 100
CIRCLE_K = 64
MIXTURE_SIZE = 5
# One pass of the stream: (request kind, groups it cycles through, count).
# The mix is fixed, so a pass costs about the same at every seed; the seed
# draws every input and the order.  The counts also place the median
# inside the block of Z256 transforms (150 requests are cheaper, 142 dearer)
# and the 95th percentile inside the block of Z512 transforms (8 dearer),
# so that each percentile reads one kind of request rather than jumping
# between two at a block edge.
MIX = (
    ("recognize_member", ("Z64", "Z2xZ2xZ2xZ2"), 20),
    ("recognize_perturbed", ("Z64", "Z2xZ2xZ2xZ2"), 20),
    ("circle_classical", (None,), 20),
    ("span", ("Z6", "Z8", "Z2xZ2xZ2"), 24),
    ("conv_inside", ("Z6", "Z8", "Z2xZ2xZ2"), 30),
    ("conv_outside", ("Z2xZ2", "Z6"), 16),
    ("conv_inside", ("Z2xZ2xZ2xZ2", "Z3xZ3xZ3"), 20),
    ("kd_roundtrip", ("Z256",), 60),
    ("circle_search", (None,), 40),
    ("project", ("Z8", "Z2xZ4"), 70),
    ("kd_roundtrip", ("Z512",), 24),
    ("span", ("Z2xZ2xZ2xZ2",), 6),
    ("verify", ("Z2xZ2",), 2),
)
HULL_KINDS = ("span", "conv_inside", "conv_outside")
FAMILY_KINDS = HULL_KINDS + ("recognize_member", "recognize_perturbed")


class Query:
    name = "query"

    def __init__(self, seed: int):
        self.seed = seed
        specs = {spec for _, specs, _ in MIX for spec in specs if spec is not None}
        self.groups = {spec: kdlab.parse_group(spec) for spec in sorted(specs)}
        self.vectors: dict = {}
        self.witnesses: dict = {}

    def setup(self) -> None:
        for kind, specs, _ in MIX:
            for spec in specs:
                group = self.groups.get(spec)
                if kind in FAMILY_KINDS and spec not in self.vectors:
                    self.vectors[spec] = family_vectors(group)
                    kdlab.recognize_kd_positive_pure(kdlab.GFunction(group, self.vectors[spec][0]))
                if kind in HULL_KINDS:
                    kdlab.conv_membership(mixed_state(group))   # builds the fragment context
                if kind == "conv_outside" and spec not in self.witnesses:
                    found = kdlab.find_conv_gap_witness(group, seed=self.seed, budget=10000)
                    if found is None:
                        raise RuntimeError(f"set-up found no witness state on {spec}")
                    self.witnesses[spec] = found.state
                if kind == "kd_roundtrip":   # build the group's cached tables
                    kdlab.kd_inverse(kdlab.kd(kdlab.Operator.identity(group)))

    def warmup(self) -> None:
        seen = set()
        for op in self.ops():
            kind = op.label.split("#")[0]
            if kind not in seen:
                seen.add(kind)
                op.check(op.call())

    def ops(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3])
        ops = []
        for kind, specs, count in MIX:
            make = getattr(self, f"_{kind}")
            for i in range(count):
                spec = specs[i % len(specs)]
                op = make(rng, spec, self.groups.get(spec), i)
                op.label = f"{kind}:{spec}#{i}" if spec else f"{kind}#{i}"
                ops.append(op)
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _mixture(self, rng, spec):
        vectors = self.vectors[spec]
        idx = rng.choice(len(vectors), size=MIXTURE_SIZE, replace=False)
        weights = rng.dirichlet(np.ones(MIXTURE_SIZE))
        d = vectors.shape[1]
        matrix = (vectors[idx].T * weights) @ vectors[idx].conj() / d
        return kdlab.Operator.from_matrix(self.groups[spec], matrix)

    def _conv_inside(self, rng, spec, group, i):
        rho = self._mixture(rng, spec)

        def check(result):
            if result.verdict != "inside":
                return f"{spec}: hull mixture reported {result.verdict}"
            err = rebuild_error(result.weights, self.vectors[spec], rho.matrix)
            return _fail_unless(err <= REBUILD_TOL, f"{spec}: certificate rebuilds with error {err:.2e}")

        return Op("", lambda: kdlab.conv_membership(rho), check)

    def _conv_outside(self, rng, spec, group, i):
        shift = kdlab.WHElement(
            group.element_by_index(int(rng.integers(group.order))),
            group.character_by_index(int(rng.integers(group.order))),
        )
        witness = self.witnesses[spec]

        def call():
            return kdlab.conv_membership(kdlab.wh_conjugate(witness, shift))

        def check(result):
            if result.verdict != "outside":
                return f"{spec}: displaced witness state reported {result.verdict}"
            rho = kdlab.wh_conjugate(witness, shift)
            gap = direct_gap(result.witness, rho, self.vectors[spec])
            return _fail_unless(gap > GAP_TOL, f"{spec}: displaced witness gap {gap:.3e}")

        return Op("", call, check)

    def _span(self, rng, spec, group, i):
        inside = i % 2 == 0
        if inside:
            vectors = self.vectors[spec]
            idx = rng.choice(len(vectors), size=4, replace=False)
            coeffs = rng.normal(size=4)
            op = kdlab.Operator.from_matrix(
                group, (vectors[idx].T * coeffs) @ vectors[idx].conj() / group.order
            )
        else:
            op = random_hermitian(group, rng)
        dimension = kdlab.kd_real_dimension(group)

        def check(result):
            if result.span_dimension != dimension:
                return f"{spec}: span dimension {result.span_dimension}, expected {dimension}"
            if not inside:
                return _fail_unless(result.verdict == "outside", f"{spec}: generic operator reported {result.verdict}")
            if result.verdict != "inside":
                return f"{spec}: real combination reported {result.verdict}"
            err = rebuild_error(result.weights, self.vectors[spec], op.matrix)
            return _fail_unless(err <= REBUILD_TOL, f"{spec}: span coefficients rebuild with error {err:.2e}")

        return Op("", lambda: kdlab.span_membership(op), check)

    def _recognize(self, rng, spec, group, perturbed):
        vectors = self.vectors[spec]
        index = int(rng.integers(len(vectors)))
        values = vectors[index] * np.exp(2j * np.pi * rng.random())
        if perturbed:
            noise = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
            values = values + 1e-2 * noise
            values = values / np.sqrt(np.mean(np.abs(values) ** 2))
        psi = kdlab.GFunction(group, values)

        def check(result):
            if perturbed:
                return _fail_unless(result is None, f"{spec}: perturbed vector was recognized")
            if result is None:
                return f"{spec}: family member {index} was not recognized"
            overlap = abs(np.vdot(result.vector.values, vectors[index])) / group.order
            return _fail_unless(abs(overlap - 1.0) <= 1e-9, f"{spec}: recognized a different member")

        return Op("", lambda: kdlab.recognize_kd_positive_pure(psi), check)

    def _recognize_member(self, rng, spec, group, i):
        return self._recognize(rng, spec, group, perturbed=False)

    def _recognize_perturbed(self, rng, spec, group, i):
        return self._recognize(rng, spec, group, perturbed=True)

    def _project(self, rng, spec, group, i):
        rho = random_state(group, rng)

        def check(result):
            if not 1 <= result.iterations <= PROJECT_ITERS:
                return f"{spec}: projection reported {result.iterations} iterations"
            if not is_state(result.state.matrix):
                return f"{spec}: projection returned a non-state"
            distance = float(np.linalg.norm(result.state.matrix - rho.matrix))
            return _fail_unless(
                math.isfinite(result.residual) and abs(distance - result.distance) <= 1e-9,
                f"{spec}: reported distance {result.distance!r} vs {distance!r}",
            )

        # tol=0 runs every iteration, so each request does the same work.
        return Op("", lambda: kdlab.project_onto_kdpos(rho, max_iter=PROJECT_ITERS, tol=0.0), check)

    def _kd_roundtrip(self, rng, spec, group, i):
        d = group.order
        op = kdlab.Operator(group, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        scale = float(np.max(np.abs(op.kernel)))

        def check(result):
            table, back = result
            # Unitarity for the weighted table norm: ||K||_F / |G| = ||KD||.
            norm_err = abs(table.norm() - np.linalg.norm(op.kernel) / d)
            err = float(np.max(np.abs(back.kernel - op.kernel)))
            return _fail_unless(
                err <= ROUNDTRIP_TOL * scale and norm_err <= ROUNDTRIP_TOL * scale,
                f"{spec}: round trip error {err:.2e}, norm error {norm_err:.2e}",
            )

        def call():
            table = kdlab.kd(op)
            return table, kdlab.kd_inverse(table)

        return Op("", call, check)

    def _band_operator(self, rng, diagonal: bool):
        n = 2 * CIRCLE_K + 1
        if diagonal:
            return kdlab.geometric_state(0.05 + rng.random(), CIRCLE_K)
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return kdlab.BandLimitedOperator(CIRCLE_K, (c + c.conj().T) / 2)

    def _circle_search(self, rng, spec, group, i):
        diagonal = i % 2 == 0
        op = self._band_operator(rng, diagonal)
        grid = 4 * CIRCLE_K + 4

        def table(angles):
            # V[j, m] = sum_k c_{km} z_j^(k - m), evaluated densely with numpy.
            modes = np.arange(-CIRCLE_K, CIRCLE_K + 1)
            sums = np.exp(1j * np.outer(angles, modes)) @ op.coeffs
            return sums * np.exp(-1j * np.outer(angles, modes))

        def check(result):
            if diagonal:
                return _fail_unless(result.violation <= 1e-12, f"diagonal state shows violation {result.violation:.2e}")
            at_imag = abs(table(np.array([result.imag_angle]))[0, result.imag_mode + CIRCLE_K].imag)
            at_real = table(np.array([result.real_angle]))[0, result.real_mode + CIRCLE_K].real
            values = table(2 * np.pi * np.arange(grid) / grid)
            ok = (abs(at_imag - result.max_abs_imag) <= 1e-9 * max(1.0, at_imag)
                  and abs(at_real - result.min_real) <= 1e-9 * max(1.0, abs(at_real))
                  and result.max_abs_imag >= float(np.max(np.abs(values.imag))) - 1e-9
                  and result.min_real <= float(np.min(values.real)) + 1e-9)
            return _fail_unless(ok, "reported extremes do not match direct evaluation")

        return Op("", lambda: kdlab.circle_negativity_search(op, grid), check)

    def _circle_classical(self, rng, spec, group, i):
        diagonal = i % 2 == 0
        op = self._band_operator(rng, diagonal)

        def check(result):
            return _fail_unless(result.is_classical == diagonal,
                                f"classicality {result.is_classical} for diagonal={diagonal}")

        return Op("", lambda: kdlab.circle_is_classical(op), check)

    def _verify(self, rng, spec, group, i):
        seed = int(rng.integers(2**31))

        def check(report):
            return _fail_unless(report.all_passed, f"{spec}: verify seed {seed} failed {report.failed} checks")

        return Op("", lambda: kdlab.verify_group(group, seed=seed), check)


WORKLOADS = {cls.name: cls for cls in (Witness, Build, Query)}
