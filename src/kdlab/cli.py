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
from dataclasses import asdict

from . import circle as circ
from .classify import enumerate_kd_positive_pure, family_to_json, recognize_kd_positive_pure
from .errors import GroupSpecError, KdlabError, PreconditionError
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
from .jsonio import dumps, json_object
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


def _load(path: str, what: str, parse):
    """parse(text) of the file at path.

    An unreadable file and every malformed payload (bad JSON or CSV, a
    missing key, a wrong type or entry count, a non-integer factor,
    residue or label) is a config error naming the input; a PreconditionError, raised for NaN and infinite numbers,
    passes through to exit 2.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except PreconditionError:
        raise
    except KeyError as exc:
        raise CliConfigError(f"invalid {what} in {path}: missing key {exc}") from exc
    except (OSError, ValueError, TypeError, IndexError) as exc:
        raise CliConfigError(f"invalid {what} in {path}: {exc}") from exc


def _operator(group: FiniteAbelianGroup):
    """Parser of an operator (or state) JSON file declared over group."""
    return lambda text: Operator.from_json(json.loads(text), group)


def _vector(group: FiniteAbelianGroup):
    """Parser of a vector file: a JSON list of values, or an object with "values"."""
    def parse(text):
        payload = json.loads(text)
        values = json_object(payload, ("values",))["values"] if isinstance(payload, dict) else payload
        return GFunction.from_json(group, values)
    return parse


def _table(group: FiniteAbelianGroup, path: str):
    """Parser of a table file, CSV when the path ends in .csv, else JSON."""
    if path.endswith(".csv"):
        return lambda text: PhaseSpaceFunction.from_csv(group, text)
    return lambda text: PhaseSpaceFunction.from_json(json.loads(text), group)


def _band(text: str) -> circ.BandLimitedOperator:
    return circ.BandLimitedOperator.from_json(json.loads(text))


def _tolerances(args) -> Tolerances:
    """DEFAULT, with the --tol-* flags the subcommand declares and the user set."""
    overrides = {
        name[len("tol_"):]: value
        for name, value in vars(args).items()
        if name.startswith("tol_") and value is not None
    }
    return DEFAULT.override(**overrides)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
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
    else:
        for i, item in enumerate(payload):
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}[{i}]")
                lines.append(_render_table(item, indent + "  "))
            else:
                lines.append(f"{indent}{_fmt(item)}")
    return "\n".join(lines)


def _emit(args, payload: dict, csv_text: str | None = None) -> None:
    # only the subcommands that pass csv_text offer csv as a --format choice
    if args.format == "json":
        text = dumps(payload)
    elif args.format == "csv":
        text = csv_text
    else:
        text = _render_table(payload) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliConfigError(f"cannot write {args.out}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_group_info(args) -> int:
    group = parse_group(args.group)
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
    group = parse_group(args.group)
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
    group = parse_group(args.group)
    op = _load(args.operator, "operator", _operator(group))
    table = kd(op)
    _emit(args, table.to_json(), table.to_csv())
    return EXIT_OK


def cmd_kd_invert(args) -> int:
    group = parse_group(args.group)
    table = _load(args.table, "table", _table(group, args.table))
    _emit(args, kd_inverse(table).to_json())
    return EXIT_OK


def cmd_charfn(args) -> int:
    group = parse_group(args.group)
    op = _load(args.operator, "operator", _operator(group))
    table = char_fn(op, args.ordering)
    _emit(args, table.to_json(), table.to_csv())
    return EXIT_OK


def cmd_wh_act(args) -> int:
    group = parse_group(args.group)
    op = _load(args.operator, "operator", _operator(group))
    element = _load(args.element, "displacement",
                    lambda text: WHElement.from_json(group, json.loads(text)))
    _emit(args, wh_conjugate(op, element).to_json())
    return EXIT_OK


def cmd_pure_enumerate(args) -> int:
    group = parse_group(args.group)
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
    group = parse_group(args.group)
    tol = _tolerances(args)
    psi = _load(args.state, "vector", _vector(group))
    member = recognize_kd_positive_pure(psi, tol)
    if member is None:
        _emit(args, {"recognized": False, "member": None})
        return EXIT_OUTSIDE
    _emit(args, {"recognized": True, "member": member.to_json()})
    return EXIT_OK


def cmd_check_kd_real(args) -> int:
    group = parse_group(args.group)
    tol = _tolerances(args)
    op = _load(args.operator, "operator", _operator(group))
    result = is_kd_real(op, tol)
    _emit(args, asdict(result))
    return EXIT_OK if result.is_real else EXIT_OUTSIDE


def cmd_check_kd_positive(args) -> int:
    group = parse_group(args.group)
    tol = _tolerances(args)
    rho = _load(args.state, "state", _operator(group))
    result = is_kd_positive_state(rho, tol)
    _emit(args, asdict(result))
    return EXIT_OK if result.is_positive else EXIT_OUTSIDE


_VERDICT_EXIT = {"inside": EXIT_OK, "outside": EXIT_OUTSIDE, "inconclusive": EXIT_INCONCLUSIVE}


def cmd_member_span(args) -> int:
    group = parse_group(args.group)
    tol = _tolerances(args)
    op = _load(args.operator, "operator", _operator(group))
    result = span_membership(op, tol)
    _emit(args, result.to_json())
    return _VERDICT_EXIT[result.verdict]


def cmd_member_conv(args) -> int:
    group = parse_group(args.group)
    tol = _tolerances(args)
    rho = _load(args.state, "state", _operator(group))
    result = conv_membership(rho, tol)
    _emit(args, result.to_json())
    return _VERDICT_EXIT[result.verdict]


def cmd_witness_search(args) -> int:
    group = parse_group(args.group)
    tol = _tolerances(args)
    witness = find_conv_gap_witness(group, seed=args.seed, budget=args.budget, tol=tol)
    base = {"group": repr(group), "seed": args.seed, "budget": args.budget}
    if witness is None:
        _emit(args, dict(base, found=False, witness=None))
        return EXIT_INCONCLUSIVE
    _emit(args, dict(base, found=True, witness=witness.to_json()))
    return EXIT_OK


def cmd_circle_check(args) -> int:
    tol = _tolerances(args)
    op = _load(args.input, "band operator", _band)
    result = circ.circle_is_classical(op, tol)
    _emit(args, result.to_json())
    return EXIT_OK if result.is_classical else EXIT_OUTSIDE


def cmd_circle_search(args) -> int:
    op = _load(args.input, "band operator", _band)
    result = circ.circle_negativity_search(op, args.grid)
    _emit(args, result.to_json())
    return EXIT_OK


def cmd_verify_all(args) -> int:
    group = parse_group(args.group)
    tol = _tolerances(args)
    report = verify_group(group, seed=args.seed, tol=tol)
    _emit(args, report.to_json())
    return EXIT_OK if report.all_passed else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser, *tolerances: str, group: bool = True,
                csv: bool = False, seed: bool = False) -> None:
    """Declare only the flags a subcommand reads; csv only with a CSV rendering."""
    if group:
        parser.add_argument("--group", required=True, help="group spec such as Z4 or Z2xZ2")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    formats = ("json", "csv", "table") if csv else ("json", "table")
    parser.add_argument("--format", choices=formats, default="table")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    for name in tolerances:
        parser.add_argument("--tol-" + name.replace("_", "-"), dest=f"tol_{name}",
                            type=float, default=None)


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
    _add_common(p, csv=True)
    p.set_defaults(fn=cmd_group_subgroups)

    kd_p = top.add_parser("kd", help="phase-space table of an operator")
    kd_sub = kd_p.add_subparsers(dest="subcommand", required=True)
    p = kd_sub.add_parser("compute", help="operator JSON to table")
    _add_common(p, csv=True)
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.set_defaults(fn=cmd_kd_compute)
    p = kd_sub.add_parser("invert", help="table (JSON or CSV) to operator")
    _add_common(p)
    p.add_argument("--table", required=True, help="table JSON or CSV file")
    p.set_defaults(fn=cmd_kd_invert)

    p = top.add_parser("charfn", help="ordered characteristic function")
    _add_common(p, csv=True)
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
    _add_common(p, csv=True)
    p.set_defaults(fn=cmd_pure_enumerate)
    p = pure_sub.add_parser("recognize", help="match a unit vector against the family")
    _add_common(p, "recognition")
    p.add_argument("--state", required=True, help="vector JSON file")
    p.set_defaults(fn=cmd_pure_recognize)

    check_p = top.add_parser("check", help="reality and positivity tests")
    check_sub = check_p.add_subparsers(dest="subcommand", required=True)
    p = check_sub.add_parser("kd-real", help="is the table of a Hermitian operator real")
    _add_common(p, "structural")
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.set_defaults(fn=cmd_check_kd_real)
    p = check_sub.add_parser("kd-positive", help="is the table of a state nonnegative")
    _add_common(p, "positivity")
    p.add_argument("--state", required=True, help="state JSON file")
    p.set_defaults(fn=cmd_check_kd_positive)

    member_p = top.add_parser("member", help="classical fragment membership")
    member_sub = member_p.add_subparsers(dest="subcommand", required=True)
    p = member_sub.add_parser("span", help="membership in the real span of the family")
    _add_common(p, "membership")
    p.add_argument("--operator", required=True, help="Hermitian operator JSON file")
    p.set_defaults(fn=cmd_member_span)
    p = member_sub.add_parser("conv", help="membership in the hull of the family")
    _add_common(p, "positivity", "membership")
    p.add_argument("--state", required=True, help="state JSON file")
    p.set_defaults(fn=cmd_member_conv)

    witness_p = top.add_parser("witness", help="hull gap search")
    witness_sub = witness_p.add_subparsers(dest="subcommand", required=True)
    p = witness_sub.add_parser("search", help="look for a positive state outside the hull")
    _add_common(p, "witness_gap", "positivity", "membership", seed=True)
    p.add_argument("--budget", type=int, default=10000, help="ascent step budget")
    p.set_defaults(fn=cmd_witness_search)

    circle_p = top.add_parser("circle", help="band-limited circle operators")
    circle_sub = circle_p.add_subparsers(dest="subcommand", required=True)
    p = circle_sub.add_parser("check", help="diagonal classicality test")
    _add_common(p, "positivity", group=False)
    p.add_argument("--input", required=True, help="band operator JSON file")
    p.set_defaults(fn=cmd_circle_check)
    p = circle_sub.add_parser("search", help="grid search for table violations")
    _add_common(p, group=False)
    p.add_argument("--input", required=True, help="band operator JSON file")
    p.add_argument("--grid", type=int, default=1024,
                   help=f"grid size (at least 4K+4, and (2K+1) x grid at most {circ.MAX_SCAN_CELLS})")
    p.set_defaults(fn=cmd_circle_search)

    verify_p = top.add_parser("verify", help="named invariant suites")
    verify_sub = verify_p.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("all", help="run every applicable check for a group")
    _add_common(p, "exact", "structural", "positivity", "membership", "witness_gap",
                seed=True)
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
    except (KdlabError, ValueError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
