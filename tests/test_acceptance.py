"""Acceptance gate: one test per criterion, one printed line per criterion.

Each test exercises the full group battery at the stated sample sizes
and tolerances, prints ``criterion N (<name>): PASS|FAIL`` with the
worst measured values, and then asserts.  Run with ``-s`` to see the
lines as they complete.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from kdlab.classify import enumerate_kd_positive_pure, recognize_kd_positive_pure
from kdlab.errors import UnsupportedOrderError
from kdlab.fragment import find_conv_gap_witness, is_kd_real, kd_real_dimension, span_membership
from kdlab.groups import enumerate_subgroups, parse_group
from kdlab.harmonic import GFunction
from kdlab.kd import akd, char_fn, kd, kd_inverse, marginals, symplectic_fourier
from kdlab.operators import Operator
from kdlab.weyl import WHElement, wh_conjugate
from kdlab.circle import (
    BandLimitedOperator,
    circle_negativity_search,
    geometric_hs_norm_sq,
)

from conftest import BATTERY, child_env, random_hermitian, random_operator, random_state

GROUPS = [parse_group(name) for name in BATTERY]


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status}  [{detail}]")


def test_criterion_01_kd_unitarity():
    worst_inner = 0.0
    worst_round = 0.0
    for group in GROUPS:
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            a = random_operator(group, rng)
            b = random_operator(group, rng)
            ta = kd(a)
            worst_inner = max(worst_inner, abs(ta.inner(kd(b)) - a.hs_inner(b)))
            worst_round = max(worst_round, kd_inverse(ta).hs_distance(a))
    ok = worst_inner <= 1e-10 and worst_round <= 1e-10
    _line(1, "kd unitarity", ok,
          f"worst pairing deviation {worst_inner:.2e}, worst round trip {worst_round:.2e}")
    assert ok


def test_criterion_02_ordering_identities():
    worst_table = 0.0
    worst_anti = 0.0
    for group in GROUPS:
        rng = np.random.default_rng(1002)
        for _ in range(100):
            op = random_operator(group, rng)
            direct = kd(op).values
            via_charfn = symplectic_fourier(char_fn(op, "standard1")).values
            worst_table = max(worst_table, float(np.max(np.abs(direct - via_charfn))))
            anti = akd(op).values
            conj_adj = kd(op.adjoint()).values.conj()
            worst_anti = max(worst_anti, float(np.max(np.abs(anti - conj_adj))))
    ok = worst_table <= 1e-10 and worst_anti <= 1e-10
    _line(2, "characteristic function route", ok,
          f"worst table deviation {worst_table:.2e}, worst anti-table deviation {worst_anti:.2e}")
    assert ok


def test_criterion_03_born_compatibility():
    worst = 0.0
    for group in GROUPS:
        rng = np.random.default_rng(1003)
        chars = [GFunction(group, group.char_table[ci].copy()) for ci in range(group.order)]
        for _ in range(100):
            rho = random_state(group, rng)
            position, momentum = marginals(rho)
            worst = max(worst, float(np.max(np.abs(position - np.diag(rho.kernel).real))))
            born = np.array([c.inner(rho.apply(c)).real for c in chars])
            worst = max(worst, float(np.max(np.abs(momentum - born))))
            worst = max(worst, abs(kd(rho).total_mass() - 1.0))
    ok = worst <= 1e-10
    _line(3, "Born-rule marginals", ok, f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_04_classification():
    frozen = {"Z2": 4, "Z4": 12, "Z2xZ2": 20, "Z6": 24}
    counts_ok = True
    worst_indicator = 0.0
    flagged = 0
    unrecognized = 0
    for group in GROUPS:
        family = enumerate_kd_positive_pure(group)
        expected = group.order * len(enumerate_subgroups(group))
        counts_ok = counts_ok and len(family) == expected
        name = repr(group)
        if name in frozen:
            counts_ok = counts_ok and len(family) == frozen[name]
        for member in family:
            diff = kd(member.projector()) - member.indicator_table()
            worst_indicator = max(worst_indicator, float(np.max(np.abs(diff.values))))
        # 1e4 Haar-random pure states; every KD-positive hit must be recognized
        d = group.order
        rng = np.random.default_rng(1004)
        psi = rng.normal(size=(10000, d)) + 1j * rng.normal(size=(10000, d))
        psi *= (np.sqrt(d) / np.linalg.norm(psi, axis=1))[:, None]
        hats = psi @ group.char_table.conj().T / d
        tables = group.char_table.conj().T[None, :, :] * psi[:, :, None] * hats.conj()[:, None, :]
        positive = (np.abs(tables.imag).max(axis=(1, 2)) <= 1e-9) & (
            tables.real.min(axis=(1, 2)) >= -1e-9
        )
        for i in np.nonzero(positive)[0]:
            flagged += 1
            if recognize_kd_positive_pure(GFunction(group, psi[i])) is None:
                unrecognized += 1
    ok = counts_ok and worst_indicator <= 1e-12 and unrecognized == 0
    _line(4, "positive pure state classification", ok,
          f"counts ok {counts_ok}, worst indicator deviation {worst_indicator:.2e}, "
          f"{flagged} random hits, {unrecognized} unrecognized")
    assert ok


def test_criterion_05_wh_covariance():
    worst = 0.0
    closure_ok = True
    for group in GROUPS:
        rng = np.random.default_rng(1005)
        diff = group.diff_table
        for _ in range(100):
            op = random_operator(group, rng)
            a = WHElement(
                group.element_by_index(int(rng.integers(group.order))),
                group.character_by_index(int(rng.integers(group.order))),
                np.exp(2j * np.pi * rng.random()),
            )
            moved = kd(wh_conjugate(op, a)).values
            table = kd(op).values
            translated = table[np.ix_(diff[:, a.g.index], diff[:, a.chi.index])]
            worst = max(worst, float(np.max(np.abs(moved - translated))))
        for member in enumerate_kd_positive_pure(group):
            a = WHElement(
                group.element_by_index(int(rng.integers(group.order))),
                group.character_by_index(int(rng.integers(group.order))),
                1.0,
            )
            moved = wh_conjugate(member.projector(), a)
            _, vecs = np.linalg.eigh(moved.kernel / group.order)
            top = GFunction(group, vecs[:, -1] * np.sqrt(group.order))
            closure_ok = closure_ok and recognize_kd_positive_pure(top) is not None
    ok = worst <= 1e-10 and closure_ok
    _line(5, "displacement covariance", ok,
          f"worst translation deviation {worst:.2e}, family closure {closure_ok}")
    assert ok


def test_criterion_06_reality_equivalence():
    agree = True
    dims_ok = True
    for group in GROUPS:
        rng = np.random.default_rng(1006)
        for _ in range(1000):
            result = is_kd_real(random_hermitian(group, rng))
            agree = agree and result.methods_agree
        probe = span_membership(Operator.identity(group) * (1.0 / group.order))
        dims_ok = dims_ok and probe.span_dimension == kd_real_dimension(group)
    ok = agree and dims_ok
    _line(6, "reality support equivalence", ok,
          f"methods agree {agree}, span dimensions match {dims_ok}")
    assert ok


def test_criterion_07_hull_facts():
    problems = []
    for name in ("Z2", "Z3", "Z4", "Z8", "Z9"):
        witness = find_conv_gap_witness(parse_group(name), seed=0, budget=10000)
        if witness is not None:
            problems.append(f"{name} unexpectedly produced a gap {witness.gap:.3e}")
    gaps = {}
    for name in ("Z2xZ2", "Z6"):
        start = time.monotonic()
        witness = find_conv_gap_witness(parse_group(name), seed=0, budget=10000)
        elapsed = time.monotonic() - start
        if witness is None:
            problems.append(f"{name} found no witness")
            continue
        gaps[name] = witness.gap
        if witness.gap <= 1e-6:
            problems.append(f"{name} gap {witness.gap:.3e} below tolerance")
        if elapsed >= 60.0:
            problems.append(f"{name} took {elapsed:.1f}s")
        # independent re-verification of the certificate
        family = enumerate_kd_positive_pure(parse_group(name))
        value = complex(witness.functional.hs_inner(witness.state)).real
        best = max(complex(witness.functional.hs_inner(m.projector())).real for m in family)
        if abs((value - best) - witness.gap) > 1e-8:
            problems.append(f"{name} certificate does not re-verify")
    ok = not problems
    detail = "; ".join(problems) if problems else (
        "no gaps on prime power orders, "
        + ", ".join(f"{k} gap {v:.3e}" for k, v in sorted(gaps.items()))
    )
    _line(7, "hull equality and hull gaps", ok, detail)
    assert ok


def test_criterion_08_circle():
    rng = np.random.default_rng(1008)
    worst_forward = 0.0
    for _ in range(50):
        K = int(rng.integers(1, 9))
        diag = np.abs(rng.normal(size=2 * K + 1))
        op = BandLimitedOperator.from_diagonal(K, diag / diag.sum())
        for grid in (4 * K + 4, 1024):
            worst_forward = max(worst_forward, circle_negativity_search(op, grid).violation)
    min_violation = np.inf
    for _ in range(1000):
        K = int(rng.integers(1, 9))
        n = 2 * K + 1
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = x @ x.conj().T
        op = BandLimitedOperator(K, m / np.trace(m).real)
        min_violation = min(min_violation, circle_negativity_search(op, 1024).violation)
    a = 0.01
    target = (1 - np.exp(-a)) / (1 + np.exp(-a))
    norm_error = abs(geometric_hs_norm_sq(a, 2000) - target)
    ok = worst_forward <= 1e-12 and min_violation > 1e-6 and norm_error <= 1e-4
    _line(8, "circle diagonality", ok,
          f"worst diagonal violation {worst_forward:.2e}, "
          f"smallest off-diagonal violation {min_violation:.2e}, "
          f"geometric norm error {norm_error:.2e}")
    assert ok


def test_criterion_09_half_order_parity():
    worst_imag = 0.0
    for name in ("Z3", "Z9", "Z3xZ3"):
        group = parse_group(name)
        rng = np.random.default_rng(1009)
        for _ in range(50):
            table = symplectic_fourier(char_fn(random_hermitian(group, rng), "half"))
            worst_imag = max(worst_imag, table.max_abs_imag())
    guards_ok = True
    for name in ("Z2", "Z4", "Z2xZ2", "Z6", "Z8", "Z2xZ4", "Z12", "Z2xZ2xZ2"):
        group = parse_group(name)
        messages = []
        for _ in range(2):
            with pytest.raises(UnsupportedOrderError) as err:
                char_fn(Operator.identity(group), "half")
            messages.append(str(err.value))
        guards_ok = guards_ok and messages[0] == messages[1]
    ok = worst_imag <= 1e-10 and guards_ok
    _line(9, "odd-order interpolation", ok,
          f"worst imaginary part {worst_imag:.2e}, even-order guard deterministic {guards_ok}")
    assert ok


def test_criterion_10_reproducibility():
    argv = [sys.executable, "-m", "kdlab", "verify", "all",
            "--group", "Z2xZ2", "--seed", "0", "--format", "json"]
    runs = [subprocess.run(argv, capture_output=True, text=True, env=child_env()) for _ in range(2)]
    codes_ok = all(proc.returncode == 0 for proc in runs)
    texts = []
    for proc in runs:
        lines = [ln for ln in proc.stdout.splitlines() if '"timestamp"' not in ln]
        texts.append("\n".join(lines))
    identical = texts[0] == texts[1]
    payload = json.loads(runs[0].stdout)
    states_ok = payload["pure_states"] == 20
    green = payload["summary"]["failed"] == 0
    ok = codes_ok and identical and states_ok and green
    _line(10, "reproducible verification report", ok,
          f"exit codes ok {codes_ok}, byte-identical modulo timestamp {identical}, "
          f"20 pure states {states_ok}, all green {green}")
    assert ok
