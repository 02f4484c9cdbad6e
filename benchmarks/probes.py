"""Per-layer probes: short, fixed measurements of one module each.

Every probe calls the layer's public functions on fixed inputs (seeded
from the constant ``PROBE_SEED``, so the numbers compare across runs and
workloads) and reports the fastest of several repeats.  Which end-to-end metric
each probe should move is mapped in ``README.md``.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

import kdlab

from tracer import Tracer
from workloads import clear_caches, mixed_state, random_hermitian, random_state

PROBE_SEED = 20251017
REPEATS = 5
clock = time.perf_counter


def _best_time(fn, repeats: int = REPEATS) -> float:
    """Fastest of ``repeats`` calls; see ``Loop.best`` in run.py for why."""
    times = []
    for _ in range(repeats):
        start = clock()
        fn()
        times.append(clock() - start)
    return min(times)


def _mixture(group, rng, k: int = 4):
    family = kdlab.enumerate_kd_positive_pure(group)
    idx = rng.choice(len(family), size=k, replace=False)
    vectors = np.stack([family[i].vector.values for i in idx])
    weights = rng.dirichlet(np.ones(k))
    return kdlab.Operator.from_matrix(group, (vectors.T * weights) @ vectors.conj() / group.order)


def cli_cold_start(env: dict, cwd: str) -> float:
    """Wall time of ``python -m kdlab group info --group Z2`` in a fresh interpreter."""
    return _best_time(lambda: subprocess.run(
        [sys.executable, "-m", "kdlab", "group", "info", "--group", "Z2"],
        env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL, timeout=60,
    ), repeats=3)


def groups_probes() -> dict:
    specs = ("Z256", "Z512", "Z4xZ4xZ4", "Z2xZ2xZ2xZ2")

    def tables():
        for spec in specs:
            group = kdlab.parse_group(spec)
            group.char_table, group.add_table, group.diff_table

    lattice = ("Z256", "Z2xZ2xZ2xZ2", "Z6xZ6", "Z3xZ3xZ3")
    tables_s = _best_time(tables)
    per_pass, count = [], 0
    for _ in range(3):
        clear_caches()
        groups = [kdlab.parse_group(spec) for spec in lattice]
        for group in groups:
            group.add_table
        start = clock()
        count = sum(len(kdlab.enumerate_subgroups(group)) for group in groups)
        per_pass.append(clock() - start)
    return {
        "groups.tables_ms": tables_s * 1e3,
        "groups.subgroups_ms": min(per_pass) * 1e3,
        "groups.subgroups": count,
    }


def classify_probes(rng) -> dict:
    # One cold Z256 family (2304 members), lattice already built; a single
    # run, because it takes seconds.
    clear_caches()
    z256 = kdlab.parse_group("Z256")
    kdlab.enumerate_subgroups(z256)
    start = clock()
    members = len(kdlab.enumerate_kd_positive_pure(z256))
    family_s = clock() - start
    clear_caches()
    group = kdlab.parse_group("Z64")
    family = kdlab.enumerate_kd_positive_pure(group)
    vectors = [kdlab.GFunction(group, family[int(i)].vector.values)
               for i in rng.integers(len(family), size=50)]
    kdlab.recognize_kd_positive_pure(vectors[0])
    recognize_s = _best_time(lambda: [kdlab.recognize_kd_positive_pure(v) for v in vectors])
    return {
        "classify.family_s": family_s,
        "classify.members": members,
        "classify.recognize_us": recognize_s / len(vectors) * 1e6,
    }


def fragment_probes(rng) -> dict:
    out = {}
    # Context build: the first hull query on a fresh group minus a warm one.
    ctx_specs = ("Z4xZ4", "Z2xZ2xZ2xZ2")
    samples = []
    for _ in range(3):
        clear_caches()
        total = 0.0
        for spec in ctx_specs:
            group = kdlab.parse_group(spec)
            kdlab.enumerate_kd_positive_pure(group)
            rho = mixed_state(group)
            start = clock()
            kdlab.conv_membership(rho)
            first = clock() - start
            total += first - _best_time(lambda: kdlab.conv_membership(rho), repeats=3)
        samples.append(total)
    out["fragment.context_s"] = min(samples)

    z8 = kdlab.parse_group("Z8")
    state = random_state(z8, rng)
    iters = 200
    step_s = _best_time(lambda: kdlab.project_onto_kdpos(state, max_iter=iters, tol=0.0))
    out["fragment.dykstra_step_us"] = step_s / iters * 1e6

    small = [_mixture(kdlab.parse_group(spec), rng) for spec in ("Z6", "Z8") for _ in range(5)]
    for rho in small:
        kdlab.conv_membership(rho)
    out["fragment.nnls_small_ms"] = _best_time(
        lambda: [kdlab.conv_membership(r) for r in small]) / len(small) * 1e3

    z6 = kdlab.parse_group("Z6")
    stepped = mixed_state(z6) + random_hermitian(z6, rng) * 0.25
    out["fragment.polish_ms"] = _best_time(
        lambda: kdlab.project_onto_kdpos(stepped, max_iter=4000, tol=1e-13), repeats=3) * 1e3

    large = [_mixture(kdlab.parse_group(spec), rng, k=8) for spec in ("Z2xZ2xZ2xZ2", "Z3xZ3xZ3") for _ in range(3)]
    for rho in large:
        kdlab.conv_membership(rho)
    out["fragment.conv_large_ms"] = _best_time(
        lambda: [kdlab.conv_membership(r) for r in large]) / len(large) * 1e3

    z16 = kdlab.parse_group("Z2xZ2xZ2xZ2")
    herm = random_hermitian(z16, rng)
    out["fragment.span_ms"] = _best_time(lambda: kdlab.span_membership(herm), repeats=3) * 1e3

    z2x4 = kdlab.parse_group("Z2xZ4")
    start_state = random_state(z2x4, rng)
    result = kdlab.project_onto_kdpos(start_state)
    out["fragment.project_ms"] = _best_time(lambda: kdlab.project_onto_kdpos(start_state)) * 1e3
    out["fragment.project_iterations"] = result.iterations
    return out


def kd_probes(rng) -> dict:
    z8 = kdlab.parse_group("Z8")
    ops8 = [random_hermitian(z8, rng) for _ in range(50)]
    small_s = _best_time(lambda: [kdlab.kd(op) for op in ops8]) / len(ops8)
    large = []
    for spec in ("Z256", "Z512"):
        group = kdlab.parse_group(spec)
        d = group.order
        large.append(kdlab.Operator(group, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
        kdlab.kd(large[-1])
    large_s = _best_time(lambda: [kdlab.kd(op) for op in large]) / len(large)
    return {"kd.small_us": small_s * 1e6, "kd.large_ms": large_s * 1e3}


def other_probes(rng) -> dict:
    K = 64
    n = 2 * K + 1
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    band = kdlab.BandLimitedOperator(K, (c + c.conj().T) / 2)
    z2x2 = kdlab.parse_group("Z2xZ2")
    kdlab.verify_group(z2x2)
    z64 = kdlab.parse_group("Z64")
    psis = [kdlab.GFunction(z64, rng.normal(size=64) + 1j * rng.normal(size=64)) for _ in range(50)]
    state = random_state(z64, rng)
    shift = kdlab.WHElement(z64.element_by_index(5), z64.character_by_index(7))
    return {
        "circle.search_ms": _best_time(lambda: kdlab.circle_negativity_search(band, 4 * K + 4)) * 1e3,
        "verify.group_ms": _best_time(lambda: kdlab.verify_group(z2x2), repeats=3) * 1e3,
        "harmonic.fourier_us": _best_time(
            lambda: [kdlab.inverse_fourier(kdlab.fourier(p)) for p in psis]) / len(psis) * 1e6,
        "weyl.conjugate_ms": _best_time(lambda: kdlab.wh_conjugate(state, shift)) * 1e3,
        "operators.check_state_us": _best_time(
            lambda: [kdlab.check_state(state) for _ in range(50)]) / 50 * 1e6,
    }


def per_step_counts() -> dict:
    """Library calls per ascent step of one traced budget-exhausting Z8 search."""
    z8 = kdlab.parse_group("Z8")
    kdlab.conv_membership(mixed_state(z8))
    budget = 300
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        result = kdlab.find_conv_gap_witness(z8, seed=0, budget=budget)
    finally:
        tracer.active = False
        tracer.uninstall()
    steps = budget if result is None else result.iterations_used
    counts = tracer.counts
    return {
        "fragment.eigh_per_step": counts["numpy.linalg.eigh"] / steps,
        "fragment.lstsq_per_step": counts["numpy.linalg.lstsq"] / steps,
        "kd.transforms_per_step": counts["kd.calls"] / steps,
    }


def run_all(env: dict, cwd: str) -> dict:
    rng = np.random.default_rng(PROBE_SEED)
    out = {"cli.cold_start_s": cli_cold_start(env, cwd)}
    out.update(groups_probes())
    out.update(classify_probes(rng))
    out.update(fragment_probes(rng))
    out.update(kd_probes(rng))
    out.update(other_probes(rng))
    out.update(per_step_counts())
    return out
