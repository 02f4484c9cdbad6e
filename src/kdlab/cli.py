"""Command-line surface: subcommands over groups, tables, and reports.

States and operators are read from JSON files only, so every run is
reproducible from its inputs.  Each subcommand is a function
``(args, group, tol) -> (exit code, payload[, csv])``, csv a callable
that renders the CSV text, called only for ``--format csv``: `main` parses
``--group`` and builds the tolerance record before the call and writes
the output after it, so errors surface in one order: group spec,
tolerances, input files, computation.  Exit codes: 0 success or verdict
"inside"/true, 1 configuration or parse error, 2 violated computation
precondition, 3 verdict "outside"/false, 4 inconclusive (including an
exhausted witness budget and a failed verification suite).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import circle as circ
from .classify import enumerate_kd_positive_pure, recognize_kd_positive_pure
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
from .jsonio import dumps, json_object, loads
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
    repeated key, nesting past the recursion limit, a missing key, a
    wrong type or entry count, a non-integer factor, residue or label)
    is a config error naming the input; a PreconditionError, raised for
    NaN and infinite numbers, passes through to exit 2.
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
    return lambda text: Operator.from_json(loads(text), group)


def _vector(group: FiniteAbelianGroup):
    """Parser of a vector file: a JSON list of values, or an object with "values"."""
    def parse(text):
        payload = loads(text)
        values = json_object(payload, ("values",))["values"] if isinstance(payload, dict) else payload
        return GFunction.from_json(group, values)
    return parse


def _table(group: FiniteAbelianGroup, path: str):
    """Parser of a table file, CSV when the path ends in .csv, else JSON."""
    if path.endswith(".csv"):
        return lambda text: PhaseSpaceFunction.from_csv(group, text)
    return lambda text: PhaseSpaceFunction.from_json(loads(text), group)


def _band(text: str) -> circ.BandLimitedOperator:
    return circ.BandLimitedOperator.from_json(loads(text))


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


def _dashed(values) -> str:
    """A CSV field holding a tuple of integers: them, joined by '-'."""
    return "-".join(map(str, values))


def _emit(args, payload: dict, csv=None) -> None:
    # only the subcommands that return csv offer csv as a --format choice
    if args.format == "json":
        text = dumps(payload)
    elif args.format == "csv":
        text = csv()
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


def cmd_group_info(args, group, tol):
    subgroups = enumerate_subgroups(group)
    return EXIT_OK, {
        "group": repr(group),
        "factors": list(group.factors),
        "order": group.order,
        "exponent": group.exponent,
        "subgroups": len(subgroups),
        "kd_real_dimension": kd_real_dimension(group),
        "pure_family_size": group.order * len(subgroups),
    }


def cmd_group_subgroups(args, group, tol):
    rows = [{"id": i, "order": sub.order, "elements": list(sub.elements),
             "annihilator_order": annihilator(group, sub).order}
            for i, sub in enumerate(enumerate_subgroups(group))]
    payload = {"group": repr(group), "count": len(rows), "subgroups": rows}
    return EXIT_OK, payload, lambda: "id,order,elements,annihilator_order\n" + "".join(
        f"{r['id']},{r['order']},{_dashed(r['elements'])},{r['annihilator_order']}\n" for r in rows
    )


def cmd_kd_compute(args, group, tol):
    table = kd(_load(args.operator, "operator", _operator(group)))
    return EXIT_OK, table.to_json(), table.to_csv


def cmd_kd_invert(args, group, tol):
    table = _load(args.table, "table", _table(group, args.table))
    return EXIT_OK, kd_inverse(table).to_json()


def cmd_charfn(args, group, tol):
    table = char_fn(_load(args.operator, "operator", _operator(group)), args.ordering)
    return EXIT_OK, table.to_json(), table.to_csv


def cmd_wh_act(args, group, tol):
    op = _load(args.operator, "operator", _operator(group))
    element = _load(args.element, "displacement",
                    lambda text: WHElement.from_json(group, loads(text)))
    return EXIT_OK, wh_conjugate(op, element).to_json()


def cmd_pure_enumerate(args, group, tol):
    family = enumerate_kd_positive_pure(group)
    payload = {"group": repr(group), "count": len(family), "members": [m.to_json() for m in family]}
    return EXIT_OK, payload, lambda: "id,subgroup,g,chi\n" + "".join(
        f"{i},{_dashed(m.subgroup.elements)},{_dashed(m.g_rep.residues)},{_dashed(m.chi_rep.label)}\n"
        for i, m in enumerate(family)
    )


def cmd_pure_recognize(args, group, tol):
    member = recognize_kd_positive_pure(_load(args.state, "vector", _vector(group)), tol)
    if member is None:
        return EXIT_OUTSIDE, {"recognized": False, "member": None}
    return EXIT_OK, {"recognized": True, "member": member.to_json()}


def cmd_check_kd_real(args, group, tol):
    result = is_kd_real(_load(args.operator, "operator", _operator(group)), tol)
    return EXIT_OK if result.is_real else EXIT_OUTSIDE, asdict(result)


def cmd_check_kd_positive(args, group, tol):
    result = is_kd_positive_state(_load(args.state, "state", _operator(group)), tol)
    return EXIT_OK if result.is_positive else EXIT_OUTSIDE, asdict(result)


_VERDICT_EXIT = {"inside": EXIT_OK, "outside": EXIT_OUTSIDE, "inconclusive": EXIT_INCONCLUSIVE}


def cmd_member_span(args, group, tol):
    result = span_membership(_load(args.operator, "operator", _operator(group)), tol)
    return _VERDICT_EXIT[result.verdict], result.to_json()


def cmd_member_conv(args, group, tol):
    result = conv_membership(_load(args.state, "state", _operator(group)), tol)
    return _VERDICT_EXIT[result.verdict], result.to_json()


def cmd_witness_search(args, group, tol):
    witness = find_conv_gap_witness(group, seed=args.seed, budget=args.budget, tol=tol)
    base = {"group": repr(group), "seed": args.seed, "budget": args.budget}
    if witness is None:
        return EXIT_INCONCLUSIVE, dict(base, found=False, witness=None)
    return EXIT_OK, dict(base, found=True, witness=witness.to_json())


def cmd_circle_check(args, group, tol):
    result = circ.circle_is_classical(_load(args.input, "band operator", _band), tol)
    return EXIT_OK if result.is_classical else EXIT_OUTSIDE, result.to_json()


def cmd_circle_search(args, group, tol):
    def parse(text):
        payload = loads(text)
        # the grid is checked on K alone, before the coefficients are decoded
        K = circ.band_limit(payload)
        grid = circ.scan_grid(K, max(1024, 4 * K + 4) if args.grid is None else args.grid)
        return circ.BandLimitedOperator.from_json(payload), grid

    op, grid = _load(args.input, "band operator", parse)
    return EXIT_OK, circ.circle_negativity_search(op, grid).to_json()


def cmd_verify_all(args, group, tol):
    report = verify_group(group, seed=args.seed, tol=tol)
    return EXIT_OK if report.all_passed else EXIT_INCONCLUSIVE, report.to_json()


# ---------------------------------------------------------------------------
# parser


def _leaf(parent, name: str, summary: str, fn, *tolerances: str, inputs=(),
          group: bool = True, csv: bool = False, seed: bool = False) -> argparse.ArgumentParser:
    """Declare one subcommand with only the flags it reads; csv only with a CSV rendering.

    inputs holds the (flag, help) pairs of its required input files.
    """
    parser = parent.add_parser(name, help=summary)
    if group:
        parser.add_argument("--group", required=True, help="group spec such as Z4 or Z2xZ2")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    formats = ("json", "csv", "table") if csv else ("json", "table")
    parser.add_argument("--format", choices=formats, default="table")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    for level in tolerances:
        parser.add_argument("--tol-" + level.replace("_", "-"), dest=f"tol_{level}",
                            type=float, default=None)
    for flag, text in inputs:
        parser.add_argument(flag, required=True, help=text)
    parser.set_defaults(fn=fn)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdlab",
        description="Phase-space tables, classified positive pure states, and "
                    "classical-fragment membership over finite abelian groups "
                    "and band-limited circle operators.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def branch(name: str, summary: str):
        return top.add_parser(name, help=summary).add_subparsers(dest="subcommand", required=True)

    operator = (("--operator", "operator JSON file"),)
    state = (("--state", "state JSON file"),)
    band = (("--input", "band operator JSON file"),)

    group = branch("group", "group structure queries")
    _leaf(group, "info", "order, exponent, dimensions", cmd_group_info)
    _leaf(group, "subgroups", "list the subgroup lattice", cmd_group_subgroups, csv=True)

    kd_p = branch("kd", "phase-space table of an operator")
    _leaf(kd_p, "compute", "operator JSON to table", cmd_kd_compute, csv=True, inputs=operator)
    _leaf(kd_p, "invert", "table (JSON or CSV) to operator", cmd_kd_invert,
          inputs=(("--table", "table JSON or CSV file"),))

    p = _leaf(top, "charfn", "ordered characteristic function", cmd_charfn, csv=True,
              inputs=operator)
    p.add_argument("--ordering", choices=ORDERINGS, default="standard1")

    _leaf(branch("wh", "displacement group actions"), "act",
          "conjugate an operator by a displacement", cmd_wh_act,
          inputs=operator + (("--element", "displacement JSON file"),))

    pure = branch("pure", "classified positive pure states")
    _leaf(pure, "enumerate", "list the finite family", cmd_pure_enumerate, csv=True)
    _leaf(pure, "recognize", "match a unit vector against the family", cmd_pure_recognize,
          "recognition", inputs=(("--state", "vector JSON file"),))

    check = branch("check", "reality and positivity tests")
    _leaf(check, "kd-real", "is the table of a Hermitian operator real", cmd_check_kd_real,
          "structural", inputs=operator)
    _leaf(check, "kd-positive", "is the table of a state nonnegative", cmd_check_kd_positive,
          "positivity", inputs=state)

    member = branch("member", "classical fragment membership")
    _leaf(member, "span", "membership in the real span of the family", cmd_member_span,
          "membership", inputs=(("--operator", "Hermitian operator JSON file"),))
    _leaf(member, "conv", "membership in the hull of the family", cmd_member_conv,
          "positivity", "membership", inputs=state)

    p = _leaf(branch("witness", "hull gap search"), "search",
              "look for a positive state outside the hull", cmd_witness_search,
              "witness_gap", "positivity", "membership", seed=True)
    p.add_argument("--budget", type=int, default=10000, help="ascent step budget")

    circle = branch("circle", "band-limited circle operators")
    _leaf(circle, "check", "diagonal classicality test", cmd_circle_check, "positivity",
          group=False, inputs=band)
    p = _leaf(circle, "search", "grid search for table violations", cmd_circle_search,
              group=False, inputs=band)
    p.add_argument("--grid", type=int,
                   help="grid size (default the larger of 1024 and 4K+4; at least 4K+4, "
                        f"and (2K+1) x grid at most {circ.MAX_SCAN_CELLS})")

    _leaf(branch("verify", "named invariant suites"), "all",
          "run every applicable check for a group", cmd_verify_all,
          "exact", "structural", "positivity", "membership", "witness_gap", seed=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map them to the config code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        group = parse_group(args.group) if "group" in vars(args) else None
        code, *output = args.fn(args, group, _tolerances(args))
        _emit(args, *output)
        return code
    except (CliConfigError, GroupSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (KdlabError, ValueError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
