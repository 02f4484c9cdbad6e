"""Command-line surface: subcommands over groups, tables, and reports.

States and operators are read from JSON files only, so every run is
reproducible from its inputs.  Exit codes: 0 success or verdict
"inside"/true, 1 configuration or parse error, 2 violated computation
precondition, 3 verdict "outside"/false, 4 inconclusive (including an
exhausted witness budget and a failed verification suite).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import circle as circ
from .classify import enumerate_kd_positive_pure, family_to_json, recognize_kd_positive_pure
from .errors import GroupMismatchError, GroupSpecError, KdlabError, PreconditionError
from .fragment import (
    conv_membership,
    find_conv_gap_witness,
    is_kd_positive_state,
    is_kd_real,
    kd_real_dimension,
    span_membership,
)
from .groups import FiniteAbelianGroup, annihilator, enumerate_subgroups, parse_group
from .harmonic import GFunction
from .jsonio import dumps
from .kd import ORDERINGS, char_fn, kd, kd_inverse
from .operators import Operator, PhaseSpaceFunction
from .tolerances import DEFAULT, Tolerances
from .verify import verify_group
from .weyl import WHElement, wh_conjugate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PRECONDITION = 2
EXIT_OUTSIDE = 3
EXIT_INCONCLUSIVE = 4


class CliConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# input loading and output rendering


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliConfigError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliConfigError(f"invalid JSON in {path}: {exc}") from exc


def _load_operator(path: str, group: FiniteAbelianGroup) -> Operator:
    try:
        return Operator.from_json(_read_json(path), group)
    except PreconditionError:
        raise
    except (GroupMismatchError, ValueError, KeyError) as exc:
        raise CliConfigError(f"invalid operator in {path}: {exc}") from exc


def _load_table(path: str, group: FiniteAbelianGroup) -> PhaseSpaceFunction:
    try:
        if path.endswith(".csv"):
            return PhaseSpaceFunction.from_csv(group, _read_text(path))
        return PhaseSpaceFunction.from_json(_read_json(path), group)
    except PreconditionError:
        raise
    except (GroupMismatchError, ValueError, KeyError) as exc:
        raise CliConfigError(f"invalid table in {path}: {exc}") from exc


def _load_vector(path: str, group: FiniteAbelianGroup) -> GFunction:
    payload = _read_json(path)
    values = payload.get("values", payload) if isinstance(payload, dict) else payload
    try:
        return GFunction.from_json(group, values)
    except PreconditionError:
        raise
    except Exception as exc:
        raise CliConfigError(f"invalid vector in {path}: {exc}") from exc


def _load_band(path: str) -> circ.BandLimitedOperator:
    return circ.BandLimitedOperator.from_json(_read_json(path))


def _group(args) -> FiniteAbelianGroup:
    if not getattr(args, "group", None):
        raise CliConfigError("--group is required for this command")
    return parse_group(args.group)


def _tolerances(args) -> Tolerances:
    overrides = {
        name: getattr(args, f"tol_{name}")
        for name in ("exact", "structural", "positivity", "membership",
                     "witness_gap", "recognition")
        if getattr(args, f"tol_{name}", None) is not None
    }
    return DEFAULT.override(**overrides) if overrides else DEFAULT


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, complex):
        return f"{value.real:.6g}{value.imag:+.6g}i"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _render_table(payload, indent: str = "") -> str:
    """Generic key/value rendering with 6 significant digits."""
    lines = []
    if isinstance(payload, dict):
        width = max((len(str(k)) for k in payload), default=0)
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{indent}{key}:")
                lines.append(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}{str(key).ljust(width)}  {_fmt(value)}")
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}[{i}]")
                lines.append(_render_table(item, indent + "  "))
            else:
                lines.append(f"{indent}{_fmt(item)}")
    else:
        lines.append(f"{indent}{_fmt(payload)}")
    return "\n".join(lines)


def _emit(args, payload: dict, csv_text: str | None = None) -> None:
    fmt = getattr(args, "format", "table")
    if fmt == "json":
        text = dumps(payload)
    elif fmt == "csv":
        if csv_text is None:
            raise CliConfigError("csv output is not defined for this command")
        text = csv_text
    else:
        text = _render_table(payload) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_group_info(args) -> int:
    group = _group(args)
    subgroups = enumerate_subgroups(group)
    payload = {
        "group": repr(group),
        "factors": list(group.factors),
        "order": group.order,
        "exponent": group.exponent,
        "subgroups": len(subgroups),
        "kd_real_dimension": kd_real_dimension(group),
        "pure_family_size": group.order * len(subgroups),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_group_subgroups(args) -> int:
    group = _group(args)
    rows = []
    for i, sub in enumerate(enumerate_subgroups(group)):
        ann = annihilator(group, sub)
        rows.append({
            "id": i,
            "order": sub.order,
            "elements": list(sub.elements),
            "annihilator_order": ann.order,
        })
    payload = {"group": repr(group), "count": len(rows), "subgroups": rows}
    csv_lines = ["id,order,elements,annihilator_order"]
    for row in rows:
        elems = "-".join(str(e) for e in row["elements"])
        csv_lines.append(f"{row['id']},{row['order']},{elems},{row['annihilator_order']}")
    _emit(args, payload, "\n".join(csv_lines) + "\n")
    return EXIT_OK


def cmd_kd_compute(args) -> int:
    group = _group(args)
    op = _load_operator(args.operator, group)
    table = kd(op)
    _emit(args, table.to_json(), table.to_csv())
    return EXIT_OK


def cmd_kd_invert(args) -> int:
    group = _group(args)
    table = _load_table(args.table, group)
    _emit(args, kd_inverse(table).to_json())
    return EXIT_OK


def cmd_charfn(args) -> int:
    group = _group(args)
    op = _load_operator(args.operator, group)
    table = char_fn(op, args.ordering)
    _emit(args, table.to_json(), table.to_csv())
    return EXIT_OK


def cmd_wh_act(args) -> int:
    group = _group(args)
    op = _load_operator(args.operator, group)
    element = WHElement.from_json(group, _read_json(args.element))
    _emit(args, wh_conjugate(op, element).to_json())
    return EXIT_OK


def cmd_pure_enumerate(args) -> int:
    group = _group(args)
    family = enumerate_kd_positive_pure(group)
    payload = {"group": repr(group), "count": len(family), "members": family_to_json(family)}
    csv_lines = ["id,subgroup,g,chi"]
    for i, member in enumerate(family):
        sub = "-".join(str(e) for e in member.subgroup.elements)
        g = "-".join(str(r) for r in member.g_rep.residues)
        chi = "-".join(str(r) for r in member.chi_rep.label)
        csv_lines.append(f"{i},{sub},{g},{chi}")
    _emit(args, payload, "\n".join(csv_lines) + "\n")
    return EXIT_OK


def cmd_pure_recognize(args) -> int:
    group = _group(args)
    tol = _tolerances(args)
    psi = _load_vector(args.state, group)
    member = recognize_kd_positive_pure(psi, tol=tol.recognition)
    if member is None:
        _emit(args, {"recognized": False, "member": None})
        return EXIT_OUTSIDE
    _emit(args, {"recognized": True, "member": member.to_json()})
    return EXIT_OK


def cmd_check_kd_real(args) -> int:
    group = _group(args)
    tol = _tolerances(args)
    op = _load_operator(args.operator, group)
    result = is_kd_real(op, tol=tol.structural)
    _emit(args, {
        "is_real": result.is_real,
        "worst_violation": result.worst_violation,
        "direct_violation": result.direct_violation,
        "support_violation": result.support_violation,
        "methods_agree": result.methods_agree,
    })
    return EXIT_OK if result.is_real else EXIT_OUTSIDE


def cmd_check_kd_positive(args) -> int:
    group = _group(args)
    tol = _tolerances(args)
    rho = _load_operator(args.state, group)
    result = is_kd_positive_state(rho, tol=tol.positivity)
    _emit(args, {
        "is_positive": result.is_positive,
        "worst_violation": result.worst_violation,
        "max_abs_imag": result.max_abs_imag,
        "min_real": result.min_real,
    })
    return EXIT_OK if result.is_positive else EXIT_OUTSIDE


_VERDICT_EXIT = {"inside": EXIT_OK, "outside": EXIT_OUTSIDE, "inconclusive": EXIT_INCONCLUSIVE}


def cmd_member_span(args) -> int:
    group = _group(args)
    tol = _tolerances(args)
    op = _load_operator(args.operator, group)
    result = span_membership(op, tol=tol.membership)
    _emit(args, result.to_json())
    return _VERDICT_EXIT[result.verdict]


def cmd_member_conv(args) -> int:
    group = _group(args)
    tol = _tolerances(args)
    rho = _load_operator(args.state, group)
    result = conv_membership(rho, tol=tol.membership, positivity_tol=tol.positivity)
    _emit(args, result.to_json())
    return _VERDICT_EXIT[result.verdict]


def cmd_witness_search(args) -> int:
    group = _group(args)
    tol = _tolerances(args)
    witness = find_conv_gap_witness(
        group,
        seed=args.seed,
        budget=args.budget,
        gap_tol=tol.witness_gap,
        positivity_tol=tol.positivity,
        membership_tol=tol.membership,
    )
    base = {"group": repr(group), "seed": args.seed, "budget": args.budget}
    if witness is None:
        _emit(args, dict(base, found=False, witness=None))
        return EXIT_INCONCLUSIVE
    _emit(args, dict(base, found=True, witness=witness.to_json()))
    return EXIT_OK


def cmd_circle_check(args) -> int:
    tol = _tolerances(args)
    op = _load_band(args.input)
    result = circ.circle_is_classical(op, tol=tol.positivity)
    _emit(args, result.to_json())
    return EXIT_OK if result.is_classical else EXIT_OUTSIDE


def cmd_circle_search(args) -> int:
    op = _load_band(args.input)
    result = circ.circle_negativity_search(op, args.grid)
    _emit(args, result.to_json())
    return EXIT_OK


def cmd_verify_all(args) -> int:
    group = _group(args)
    tol = _tolerances(args)
    report = verify_group(group, seed=args.seed, tolerances=tol)
    _emit(args, report.to_json())
    return EXIT_OK if report.all_passed else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser, group: bool = True) -> None:
    if group:
        parser.add_argument("--group", help="group spec such as Z4 or Z2xZ2")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--format", choices=("json", "csv", "table"), default="table")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    for name, flag in (
        ("exact", "--tol-exact"),
        ("structural", "--tol-structural"),
        ("positivity", "--tol-positivity"),
        ("membership", "--tol-membership"),
        ("witness_gap", "--tol-witness-gap"),
        ("recognition", "--tol-recognition"),
    ):
        parser.add_argument(flag, dest=f"tol_{name}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdlab",
        description="Phase-space tables, classified positive pure states, and "
                    "classical-fragment membership over finite abelian groups "
                    "and band-limited circle operators.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    group_p = top.add_parser("group", help="group structure queries")
    group_sub = group_p.add_subparsers(dest="subcommand", required=True)
    p = group_sub.add_parser("info", help="order, exponent, dimensions")
    _add_common(p)
    p.set_defaults(fn=cmd_group_info)
    p = group_sub.add_parser("subgroups", help="list the subgroup lattice")
    _add_common(p)
    p.set_defaults(fn=cmd_group_subgroups)

    kd_p = top.add_parser("kd", help="phase-space table of an operator")
    kd_sub = kd_p.add_subparsers(dest="subcommand", required=True)
    p = kd_sub.add_parser("compute", help="operator JSON to table")
    _add_common(p)
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.set_defaults(fn=cmd_kd_compute)
    p = kd_sub.add_parser("invert", help="table (JSON or CSV) to operator")
    _add_common(p)
    p.add_argument("--table", required=True, help="table JSON or CSV file")
    p.set_defaults(fn=cmd_kd_invert)

    p = top.add_parser("charfn", help="ordered characteristic function")
    _add_common(p)
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.add_argument("--ordering", choices=ORDERINGS, default="standard1")
    p.set_defaults(fn=cmd_charfn)

    wh_p = top.add_parser("wh", help="displacement group actions")
    wh_sub = wh_p.add_subparsers(dest="subcommand", required=True)
    p = wh_sub.add_parser("act", help="conjugate an operator by a displacement")
    _add_common(p)
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.add_argument("--element", required=True, help="displacement JSON file")
    p.set_defaults(fn=cmd_wh_act)

    pure_p = top.add_parser("pure", help="classified positive pure states")
    pure_sub = pure_p.add_subparsers(dest="subcommand", required=True)
    p = pure_sub.add_parser("enumerate", help="list the finite family")
    _add_common(p)
    p.set_defaults(fn=cmd_pure_enumerate)
    p = pure_sub.add_parser("recognize", help="match a unit vector against the family")
    _add_common(p)
    p.add_argument("--state", required=True, help="vector JSON file")
    p.set_defaults(fn=cmd_pure_recognize)

    check_p = top.add_parser("check", help="reality and positivity tests")
    check_sub = check_p.add_subparsers(dest="subcommand", required=True)
    p = check_sub.add_parser("kd-real", help="is the table of a Hermitian operator real")
    _add_common(p)
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.set_defaults(fn=cmd_check_kd_real)
    p = check_sub.add_parser("kd-positive", help="is the table of a state nonnegative")
    _add_common(p)
    p.add_argument("--state", required=True, help="state JSON file")
    p.set_defaults(fn=cmd_check_kd_positive)

    member_p = top.add_parser("member", help="classical fragment membership")
    member_sub = member_p.add_subparsers(dest="subcommand", required=True)
    p = member_sub.add_parser("span", help="membership in the real span of the family")
    _add_common(p)
    p.add_argument("--operator", required=True, help="Hermitian operator JSON file")
    p.set_defaults(fn=cmd_member_span)
    p = member_sub.add_parser("conv", help="membership in the hull of the family")
    _add_common(p)
    p.add_argument("--state", required=True, help="state JSON file")
    p.set_defaults(fn=cmd_member_conv)

    witness_p = top.add_parser("witness", help="hull gap search")
    witness_sub = witness_p.add_subparsers(dest="subcommand", required=True)
    p = witness_sub.add_parser("search", help="look for a positive state outside the hull")
    _add_common(p)
    p.add_argument("--budget", type=int, default=10000, help="ascent step budget")
    p.set_defaults(fn=cmd_witness_search)

    circle_p = top.add_parser("circle", help="band-limited circle operators")
    circle_sub = circle_p.add_subparsers(dest="subcommand", required=True)
    p = circle_sub.add_parser("check", help="diagonal classicality test")
    _add_common(p, group=False)
    p.add_argument("--input", required=True, help="band operator JSON file")
    p.set_defaults(fn=cmd_circle_check)
    p = circle_sub.add_parser("search", help="grid search for table violations")
    _add_common(p, group=False)
    p.add_argument("--input", required=True, help="band operator JSON file")
    p.add_argument("--grid", type=int, default=1024, help="grid size (at least 4K+4)")
    p.set_defaults(fn=cmd_circle_search)

    verify_p = top.add_parser("verify", help="named invariant suites")
    verify_sub = verify_p.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("all", help="run every applicable check for a group")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map them to the config code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (CliConfigError, GroupSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KdlabError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
