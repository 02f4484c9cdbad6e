import argparse
import dataclasses
import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from kdlab.classify import enumerate_kd_positive_pure
from kdlab import circle, verify
from kdlab import cli
from kdlab.cli import build_parser, main
from kdlab.groups import parse_group
from kdlab.harmonic import GFunction
from kdlab.jsonio import dumps, encode_array
from kdlab.kd import kd
from kdlab.operators import Operator, PhaseSpaceFunction
from kdlab.errors import PreconditionError, SubgroupBoundError
from kdlab.tolerances import DEFAULT, Tolerances

from conftest import child_env
from test_circle import _overflowing_band, _two_mode_plus, _vacuum
from test_fragment import _off_support_op


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_info_json(capsys):
    code, out, _ = _run(capsys, ["group", "info", "--group", "Z2xZ2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    assert payload["subgroups"] == 5
    assert payload["kd_real_dimension"] == 10
    assert payload["pure_family_size"] == 20


def test_group_info_table_format(capsys):
    code, out, _ = _run(capsys, ["group", "info", "--group", "Z6"])
    assert code == 0
    assert "order" in out and "6" in out


def test_group_subgroups_csv(capsys):
    code, out, _ = _run(capsys, ["group", "subgroups", "--group", "Z4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,order,elements,annihilator_order"
    assert len(lines) == 4
    assert lines[1] == "0,1,0,4"
    assert lines[3] == "2,4,0-1-2-3,1"


def test_bad_group_spec_is_config_error(capsys):
    code, _, err = _run(capsys, ["group", "info", "--group", "Q8"])
    assert code == 1
    assert "error:" in err


def test_missing_group_is_config_error(capsys):
    code, _, err = _run(capsys, ["group", "info"])
    assert code == 1


def test_unknown_command_is_config_error(capsys):
    code, _, _ = _run(capsys, ["frobnicate"])
    assert code == 1


def test_kd_compute_and_invert_roundtrip(tmp_path, capsys):
    z4 = parse_group("Z4")
    rng = np.random.default_rng(211)
    op = Operator(z4, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    op_path = _write(tmp_path, "op.json", op.to_json())
    table_path = str(tmp_path / "table.csv")
    code, _, _ = _run(capsys, ["kd", "compute", "--group", "Z4", "--operator", op_path,
                               "--format", "csv", "--out", table_path])
    assert code == 0
    code, out, _ = _run(capsys, ["kd", "invert", "--group", "Z4", "--table", table_path,
                                 "--format", "json"])
    assert code == 0
    back = Operator.from_json(json.loads(out), z4)
    assert back.hs_distance(op) <= 1e-12


def test_kd_compute_json_matches_library(tmp_path, capsys):
    z2 = parse_group("Z2")
    op = Operator.pure_state(GFunction(z2, [1.2, np.sqrt(0.56)]))
    op_path = _write(tmp_path, "op.json", op.to_json())
    code, out, _ = _run(capsys, ["kd", "compute", "--group", "Z2", "--operator", op_path,
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    values = np.array([complex(p["re"], p["im"]) for p in payload["values"]]).reshape(2, 2)
    assert np.max(np.abs(values - kd(op).values)) <= 1e-12


def test_operator_group_mismatch_is_config_error(tmp_path, capsys):
    z2 = parse_group("Z2")
    op_path = _write(tmp_path, "op.json", Operator.identity(z2).to_json())
    code, _, err = _run(capsys, ["kd", "compute", "--group", "Z4", "--operator", op_path])
    assert code == 1
    assert "error:" in err and "operator declares Z2, expected Z4" in err
    # a table read through the same group-tagged reader; Z2xZ2 and Z4 have the same order
    z2xz2 = parse_group("Z2xZ2")
    table_path = _write(tmp_path, "table.json", kd(Operator.identity(z2xz2)).to_json())
    code, out, err = _run(capsys, ["kd", "invert", "--group", "Z4", "--table", table_path])
    assert (code, out) == (1, "")
    assert "table declares Z2xZ2, expected Z4" in err


def test_malformed_operator_is_config_error(tmp_path, capsys):
    path = _write(tmp_path, "op.json", '{"group": {"factors": [2]}, "kernel": [1, 2]}')
    code, _, _ = _run(capsys, ["kd", "compute", "--group", "Z2", "--operator", path])
    assert code == 1


def test_non_finite_operator_is_precondition_error(tmp_path, capsys):
    payload = Operator.identity(parse_group("Z2")).to_json()
    payload["kernel"][1]["im"] = float("-inf")
    path = _write(tmp_path, "op.json", payload)
    code, out, err = _run(capsys, ["kd", "compute", "--group", "Z2", "--operator", path])
    assert code == 2
    assert out == "" and "non-finite" in err


def test_kd_compute_accepts_a_finite_table_whose_sum_overflows(tmp_path, capsys):
    # every table entry is 7.5e307; only their sum overflows
    op = Operator(parse_group("Z2"), np.diag([1.5e308, 1.5e308]))
    path = _write(tmp_path, "op.json", op.to_json())
    code, out, err = _run(capsys, ["kd", "compute", "--group", "Z2", "--operator", path,
                                   "--format", "json"])
    assert (code, err) == (0, "")
    assert [p["re"] for p in json.loads(out)["values"]] == [7.5e307] * 4


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_state_is_rejected_not_judged(tmp_path, capsys, token):
    # json.loads accepts these tokens; the state must be rejected, not
    # reported as "not positive"
    payload = (Operator.identity(parse_group("Z2")) * 0.5).to_json()
    payload["kernel"][0]["re"] = float(token)
    path = _write(tmp_path, "state.json", payload)
    assert token in open(path).read()
    code, out, err = _run(capsys, ["check", "kd-positive", "--group", "Z2", "--state", path])
    assert code == 2
    assert out == "" and "non-finite" in err


def test_non_finite_table_csv_is_precondition_error(tmp_path, capsys):
    lines = kd(Operator.identity(parse_group("Z2"))).to_csv().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:2] + ["inf", "0.0"])
    path = _write(tmp_path, "table.csv", "\n".join(lines) + "\n")
    code, out, err = _run(capsys, ["kd", "invert", "--group", "Z2", "--table", path])
    assert code == 2
    assert out == "" and "non-finite" in err


def test_missing_file_is_config_error(capsys):
    code, _, _ = _run(capsys, ["kd", "compute", "--group", "Z2", "--operator", "/nonexistent.json"])
    assert code == 1


def _input_kinds():
    """Per input kind, a valid Z2 payload, the key it cannot lack, and the
    list of entries whose length is checked."""
    mixed = Operator.identity(parse_group("Z2")) * 0.5
    return {
        "operator": (mixed.to_json(), "kernel", "kernel"),
        "table": (kd(mixed).to_json(), "values", "values"),
        "vector": ({"values": encode_array(np.array([1.0, 1.0]))}, "values", "values"),
        "element": ({"g": [1], "chi": [0], "z": {"re": 1.0, "im": 0.0}}, "chi", "g"),
        "band": ({"K": 1, "coeffs": encode_array(np.eye(3) / 3)}, "K", "coeffs"),
    }


# Every subcommand that reads a file, with the file's kind; "F" marks the
# file under test, "OP" and "EL" valid companions.
_FILE_READERS = [
    (["kd", "compute", "--group", "Z2", "--operator", "F"], "operator"),
    (["kd", "invert", "--group", "Z2", "--table", "F"], "table"),
    (["charfn", "--group", "Z2", "--operator", "F"], "operator"),
    (["wh", "act", "--group", "Z2", "--operator", "F", "--element", "EL"], "operator"),
    (["wh", "act", "--group", "Z2", "--operator", "OP", "--element", "F"], "element"),
    (["pure", "recognize", "--group", "Z2", "--state", "F"], "vector"),
    (["check", "kd-real", "--group", "Z2", "--operator", "F"], "operator"),
    (["check", "kd-positive", "--group", "Z2", "--state", "F"], "operator"),
    (["member", "span", "--group", "Z2", "--operator", "F"], "operator"),
    (["member", "conv", "--group", "Z2", "--state", "F"], "operator"),
    (["circle", "check", "--input", "F"], "band"),
    (["circle", "search", "--input", "F"], "band"),
]
_FILE_READER_IDS = ["_".join(itertools.takewhile(lambda a: not a.startswith("--"), argv))
                    + "_" + kind for argv, kind in _FILE_READERS]


def _run_with_input(tmp_path, capsys, argv, text):
    kinds = _input_kinds()
    files = {
        "F": _write(tmp_path, "input.json", text),
        "OP": _write(tmp_path, "op.json", kinds["operator"][0]),
        "EL": _write(tmp_path, "el.json", kinds["element"][0]),
    }
    return _run(capsys, [files.get(arg, arg) for arg in argv])


@pytest.mark.parametrize("case", ["top-level list", "missing key", "wrong entry count", "extra key",
                                  "empty file", "non-UTF-8 bytes", "deeply nested", "duplicate key"])
@pytest.mark.parametrize("argv, kind", _FILE_READERS,
                         ids=_FILE_READER_IDS)
def test_malformed_input_file_is_config_error(tmp_path, capsys, argv, kind, case):
    payload, key, entries = _input_kinds()[kind]
    if case == "top-level list":
        text = "[1, 2]"
    elif case == "missing key":
        del payload[key]
        text = dumps(payload)
    elif case == "wrong entry count":
        payload[entries] = payload[entries] + payload[entries][:1]
        text = dumps(payload)
    elif case == "extra key":
        # every key the reader knows is present, the optional ones too
        payload["zzz"] = 1
        text = dumps(payload)
    elif case == "empty file":
        text = ""
    elif case == "deeply nested":
        # used to escape as a RecursionError traceback
        text = "[" * 100_000 + "]" * 100_000
    elif case == "duplicate key":
        # json.loads keeps the last of two equal keys, so this used to read as the valid payload
        text = f'{{"{key}": 0,' + dumps(payload)[1:]
    else:
        text = b"\xff\xfe" + dumps(payload).encode()
    code, out, err = _run_with_input(tmp_path, capsys, argv, text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid ") and "input.json" in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, kind", _FILE_READERS,
                         ids=_FILE_READER_IDS)
def test_non_finite_input_file_is_precondition_error(tmp_path, capsys, argv, kind):
    payload, _, entries = _input_kinds()[kind]
    if kind == "element":
        payload["z"]["re"] = float("nan")
    else:
        payload[entries][0]["re"] = float("nan")
    code, out, err = _run_with_input(tmp_path, capsys, argv, dumps(payload))
    assert code == 2
    assert out == "" and "non-finite" in err


def _with_number(kind, value):
    """The valid payload of kind with its first real part replaced by value."""
    payload, _, entries = _input_kinds()[kind]
    if kind == "element":
        payload["z"]["re"] = value
    else:
        payload[entries][0]["re"] = value
    return payload


@pytest.mark.parametrize("argv, kind", _FILE_READERS,
                         ids=_FILE_READER_IDS)
def test_overflowing_input_number_is_precondition_error(tmp_path, capsys, argv, kind):
    # a 401-digit integer literal used to escape as an OverflowError traceback
    code, out, err = _run_with_input(tmp_path, capsys, argv, dumps(_with_number(kind, 10**400)))
    assert code == 2
    assert out == "" and "too large for a float" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [True, "1"], ids=["bool", "string"])
@pytest.mark.parametrize("argv, kind", _FILE_READERS,
                         ids=_FILE_READER_IDS)
def test_non_numeric_input_number_is_config_error(tmp_path, capsys, argv, kind, bad):
    # true and "1" used to be read as 1.0
    code, out, err = _run_with_input(tmp_path, capsys, argv, dumps(_with_number(kind, bad)))
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid ") and "expected a number" in err


@pytest.mark.parametrize("K", [True, False])
def test_bool_band_limit_is_config_error(tmp_path, capsys, K):
    path = _write(tmp_path, "band.json", {"K": K, "coeffs": encode_array(np.eye(3) / 3)})
    code, out, err = _run(capsys, ["circle", "check", "--input", path])
    assert code == 1
    assert out == "" and err.startswith("error: invalid band operator")


def test_oversized_circle_grid_is_precondition_error(tmp_path, capsys):
    path = _write(tmp_path, "band.json", {"K": 1, "coeffs": encode_array(np.eye(3) / 3)})
    grid = circle.MAX_SCAN_CELLS // 3 + 1
    code, out, err = _run(capsys, ["circle", "search", "--input", path, "--grid", str(grid)])
    assert code == 2
    assert out == "" and "above the scan bound" in err


@pytest.mark.parametrize("grid", [[], ["--grid", "2900"]], ids=["default-grid", "grid"])
def test_oversized_band_file_is_refused_before_decoding(tmp_path, capsys, monkeypatch, grid):
    # K = 724 needs a grid of 4K + 4 = 2900 points, 1449 x 2900 cells: over
    # the bound on K alone, so the (2K + 1)^2 coefficients, here left out,
    # are never decoded; a full file of them is 50 MB
    decoded = []
    monkeypatch.setattr(circle, "decode_array", lambda *args: decoded.append(args))
    path = _write(tmp_path, "band.json", {"K": 724, "coeffs": []})
    code, out, err = _run(capsys, ["circle", "search", "--input", path, *grid])
    assert code == 2
    assert out == "" and "makes 4202100 cells, above the scan bound" in err
    assert decoded == []


# The readers whose files carry integers: group factors, or residues.
_INTEGER_READERS = [pytest.param(argv, kind, id=name)
                    for (argv, kind), name in zip(_FILE_READERS, _FILE_READER_IDS)
                    if kind in ("operator", "table", "element")]


@pytest.mark.parametrize("bad", [1.5, 2.5, math.inf, True], ids=["1.5", "2.5", "inf", "true"])
@pytest.mark.parametrize("argv, kind", _INTEGER_READERS)
def test_non_integer_group_input_is_config_error(tmp_path, capsys, argv, kind, bad):
    # int() used to truncate these (factors [2.5] read as Z2, g [1.5] as 1),
    # inf crashed with a traceback, and true was read as 1
    payload = _input_kinds()[kind][0]
    if kind == "element":
        payload["g"] = [bad]
    else:
        payload["group"]["factors"] = [bad]
    code, out, err = _run_with_input(tmp_path, capsys, argv, dumps(payload))
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid ") and "must be integers" in err
    assert "Traceback" not in err


def test_negative_band_limit_is_precondition_error(tmp_path, capsys):
    # checked before the coefficients are decoded, so numpy's reshape
    # never sees a negative dimension
    path = _write(tmp_path, "band.json", {"K": -1, "coeffs": encode_array(np.eye(3) / 3)})
    code, out, err = _run(capsys, ["circle", "check", "--input", path])
    assert code == 2
    assert out == "" and "band limit -1 is below its minimum 0" in err


@pytest.mark.parametrize("argv", [["verify", "all", "--group", "Z2"],
                                  ["witness", "search", "--group", "Z2"]])
def test_negative_seed_is_precondition_error(capsys, argv):
    code, out, err = _run(capsys, [*argv, "--seed", "-1"])
    assert code == 2
    assert out == "" and "seed -1 is below its minimum 0" in err


@pytest.mark.parametrize("K", [1.5, "1"])
def test_non_integer_band_limit_is_config_error(tmp_path, capsys, K):
    path = _write(tmp_path, "band.json", {"K": K, "coeffs": encode_array(np.eye(3) / 3)})
    code, out, err = _run(capsys, ["circle", "check", "--input", path])
    assert code == 1
    assert out == "" and err.startswith("error: invalid band operator")


def test_charfn_orderings(tmp_path, capsys):
    z4 = parse_group("Z4")
    op_path = _write(tmp_path, "op.json", (Operator.identity(z4) * 0.25).to_json())
    code, out, _ = _run(capsys, ["charfn", "--group", "Z4", "--operator", op_path,
                                 "--format", "json"])
    assert code == 0
    # half ordering needs every cyclic factor odd
    code, _, err = _run(capsys, ["charfn", "--group", "Z4", "--operator", op_path,
                                 "--ordering", "half"])
    assert code == 2
    assert "precondition violated:" in err


def test_wh_act_displaces_state(tmp_path, capsys):
    z4 = parse_group("Z4")
    psi = GFunction(z4, [2.0, 0.0, 0.0, 0.0])
    op_path = _write(tmp_path, "op.json", Operator.pure_state(psi).to_json())
    el_path = _write(tmp_path, "el.json", {"g": [1], "chi": [0], "z": {"re": 1.0, "im": 0.0}})
    code, out, _ = _run(capsys, ["wh", "act", "--group", "Z4", "--operator", op_path,
                                 "--element", el_path, "--format", "json"])
    assert code == 0
    moved = Operator.from_json(json.loads(out), z4)
    shifted = GFunction(z4, [0.0, 2.0, 0.0, 0.0])
    assert moved.hs_distance(Operator.pure_state(shifted)) <= 1e-12


def test_pure_enumerate_counts(capsys):
    code, out, _ = _run(capsys, ["pure", "enumerate", "--group", "Z4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 12
    assert len(payload["members"]) == 12
    code, out, _ = _run(capsys, ["pure", "enumerate", "--group", "Z4", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,subgroup,g,chi"
    assert len(lines) == 13


def test_pure_recognize_verdicts(tmp_path, capsys):
    z2 = parse_group("Z2")
    member = enumerate_kd_positive_pure(z2)[0]
    yes_path = _write(tmp_path, "yes.json", {"values": encode_array(member.vector.values)})
    code, out, _ = _run(capsys, ["pure", "recognize", "--group", "Z2", "--state", yes_path,
                                 "--format", "json"])
    assert code == 0
    assert json.loads(out)["recognized"] is True
    b = np.sqrt(0.56)
    no_path = _write(tmp_path, "no.json", {"values": encode_array(np.array([1.2, b]))})
    code, out, _ = _run(capsys, ["pure", "recognize", "--group", "Z2", "--state", no_path,
                                 "--format", "json"])
    assert code == 3
    assert json.loads(out)["recognized"] is False


def test_check_kd_real_verdicts(tmp_path, capsys):
    z2 = parse_group("Z2")
    real_path = _write(tmp_path, "real.json", (Operator.identity(z2) * 0.5).to_json())
    code, out, _ = _run(capsys, ["check", "kd-real", "--group", "Z2", "--operator", real_path,
                                 "--format", "json"])
    assert code == 0
    assert json.loads(out)["is_real"] is True
    circ_path = _write(
        tmp_path, "circ.json", Operator.pure_state(GFunction(z2, [1.0, 1.0j])).to_json()
    )
    code, out, _ = _run(capsys, ["check", "kd-real", "--group", "Z2", "--operator", circ_path,
                                 "--format", "json"])
    assert code == 3
    assert json.loads(out)["is_real"] is False
    skew = _write(tmp_path, "skew.json", Operator(z2, [[0.0, 1.0], [0.0, 0.0]]).to_json())
    code, _, err = _run(capsys, ["check", "kd-real", "--group", "Z2", "--operator", skew])
    assert code == 2


def test_check_kd_positive_verdicts(tmp_path, capsys):
    z2 = parse_group("Z2")
    mixed_path = _write(tmp_path, "mixed.json", (Operator.identity(z2) * 0.5).to_json())
    code, out, _ = _run(capsys, ["check", "kd-positive", "--group", "Z2", "--state", mixed_path,
                                 "--format", "json"])
    assert code == 0
    neg = Operator.pure_state(GFunction(z2, [1.2, np.sqrt(0.56)]))
    neg_path = _write(tmp_path, "neg.json", neg.to_json())
    code, out, _ = _run(capsys, ["check", "kd-positive", "--group", "Z2", "--state", neg_path,
                                 "--format", "json"])
    assert code == 3
    assert json.loads(out)["worst_violation"] == pytest.approx(0.169, abs=1e-3)


def test_member_span_verdicts(tmp_path, capsys):
    z4 = parse_group("Z4")
    member = enumerate_kd_positive_pure(z4)[3]
    in_path = _write(tmp_path, "in.json", member.projector().to_json())
    code, out, _ = _run(capsys, ["member", "span", "--group", "Z4", "--operator", in_path,
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "inside"
    assert payload["span_dimension"] == 8
    out_path = _write(tmp_path, "out.json", _off_support_op(z4).to_json())
    code, out, _ = _run(capsys, ["member", "span", "--group", "Z4", "--operator", out_path,
                                 "--format", "json"])
    assert code == 3
    assert json.loads(out)["verdict"] == "outside"


def test_member_span_holds_its_verdicts_at_scale(tmp_path, capsys):
    # diag(1/|G|, s, 1/|G|, ...) is in the span at every s, so it reads "inside";
    # at s = 1e12 a real combination of members has a remainder of pure
    # rounding above tol.membership, so it reads "inconclusive", never "outside"
    z = parse_group("Z2xZ2")
    probe = np.eye(4, dtype=complex) / 4
    probe[1, 1] = 1e12
    family = enumerate_kd_positive_pure(z)
    rng = np.random.default_rng(271)
    combination = sum(c * family[i].projector().kernel
                      for c, i in zip(rng.normal(size=4), rng.choice(len(family), size=4, replace=False)))
    for name, op, expected in (("probe", Operator.from_matrix(z, probe), 0),
                               ("combination", Operator(z, 1e12 * combination), 4)):
        path = _write(tmp_path, f"{name}.json", op.to_json())
        code, _, _ = _run(capsys, ["member", "span", "--group", "Z2xZ2", "--operator", path, "--format", "json"])
        assert code == expected, name


def test_member_conv_mixed_state(tmp_path, capsys):
    z2 = parse_group("Z2")
    mixed_path = _write(tmp_path, "mixed.json", (Operator.identity(z2) * 0.5).to_json())
    code, out, _ = _run(capsys, ["member", "conv", "--group", "Z2", "--state", mixed_path,
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "inside"
    # its KD table is strictly positive, so the span coefficients certify it
    weights = {entry["index"]: entry["weight"] for entry in payload["certificate"]["weights"]}
    assert weights == {i: pytest.approx(0.25, abs=1e-10) for i in range(4)}


def test_member_conv_rejects_negative_state(tmp_path, capsys):
    z2 = parse_group("Z2")
    neg = Operator.pure_state(GFunction(z2, [1.2, np.sqrt(0.56)]))
    neg_path = _write(tmp_path, "neg.json", neg.to_json())
    code, _, err = _run(capsys, ["member", "conv", "--group", "Z2", "--state", neg_path])
    assert code == 2
    assert "precondition violated:" in err


def test_witness_search_found_and_not_found(capsys):
    code, out, _ = _run(capsys, ["witness", "search", "--group", "Z2xZ2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["witness"]["gap"] > 1e-6
    code, out, _ = _run(capsys, ["witness", "search", "--group", "Z2", "--budget", "200",
                                 "--format", "json"])
    assert code == 4
    assert json.loads(out)["found"] is False
    # a positivity bound below float rounding rejects each candidate, and
    # the search runs out its budget instead of aborting
    code, out, _ = _run(capsys, [*_WITNESS, "--tol-positivity", "1e-16", "--format", "json"])
    assert code == 4
    assert json.loads(out)["found"] is False


def test_witness_search_rejects_negative_budget(capsys):
    code, out, err = _run(capsys, ["witness", "search", "--group", "Z2xZ2", "--budget", "-5",
                                   "--format", "json"])
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_circle_check_verdicts(tmp_path, capsys):
    flat_path = _write(tmp_path, "flat.json", _vacuum(3).to_json())
    code, out, _ = _run(capsys, ["circle", "check", "--input", flat_path, "--format", "json"])
    assert code == 0
    assert json.loads(out)["is_classical"] is True
    two_path = _write(tmp_path, "two.json", _two_mode_plus(3).to_json())
    code, out, _ = _run(capsys, ["circle", "check", "--input", two_path, "--format", "json"])
    assert code == 3


def test_circle_search_reports_violation(tmp_path, capsys):
    two_path = _write(tmp_path, "two.json", _two_mode_plus(3).to_json())
    code, out, _ = _run(capsys, ["circle", "search", "--input", two_path, "--format", "json"])
    assert code == 0
    assert json.loads(out)["violation"] == pytest.approx(0.5, abs=1e-9)
    code, _, err = _run(capsys, ["circle", "search", "--input", two_path, "--grid", "3"])
    assert code == 2


@pytest.mark.parametrize("K, grid, code, grid_size", [
    (255, [], 0, 1024),
    (256, [], 0, 1028),
    (256, ["--grid", "1024"], 2, None),
], ids=["K255", "K256", "K256-grid1024"])
def test_circle_search_default_grid_fits_the_band_limit(tmp_path, capsys, K, grid, code, grid_size):
    # the default grid used to be 1024 at every K, below the minimum 4K + 4 from K = 256 on
    path = _write(tmp_path, "band.json", json.dumps(circle.geometric_state(0.3, K).to_json()))
    got, out, err = _run(capsys, ["circle", "search", "--input", path, "--format", "json", *grid])
    assert got == code
    if grid_size is None:
        assert out == "" and "grid size 1024 is below its minimum 1028" in err
    else:
        assert json.loads(out)["grid_size"] == grid_size


def test_circle_search_refuses_an_overflowing_scan(tmp_path, capsys):
    path = _write(tmp_path, "band.json", _overflowing_band().to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["circle", "search", "--input", path, "--format", "json"])
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and "too large to scan" in err


@pytest.mark.parametrize("argv", [["kd", "compute"], ["charfn"]])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_table_commands_render_csv_only_when_asked(tmp_path, capsys, monkeypatch, argv, fmt):
    def refuse(self):
        raise AssertionError("CSV rendered for another format")

    monkeypatch.setattr(PhaseSpaceFunction, "to_csv", refuse)
    path = _write(tmp_path, "op.json", Operator.identity(parse_group("Z6")).to_json())
    code, out, _ = _run(capsys, [*argv, "--group", "Z6", "--operator", path, "--format", fmt])
    assert code == 0 and out


def test_verify_all_green(capsys):
    code, out, _ = _run(capsys, ["verify", "all", "--group", "Z3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["passed"] == payload["summary"]["total"]
    assert all(check["status"] == "pass" for check in payload["checks"])


def test_verify_all_reports_raising_check(monkeypatch, capsys):
    def broken(group, rng, tol):
        raise RuntimeError("deliberately broken check")

    raising = verify.Check("zz-broken", "a check that raises", broken, "exact")
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + (raising,))
    code, out, _ = _run(capsys, ["verify", "all", "--group", "Z3", "--format", "json"])
    assert code == 4
    payload = json.loads(out)
    error_rows = [check for check in payload["checks"] if check["status"] == "error"]
    assert [row["name"] for row in error_rows] == ["zz-broken"]
    assert error_rows[0]["measured"] is None
    assert "Traceback" in error_rows[0]["message"]
    assert "RuntimeError: deliberately broken check" in error_rows[0]["message"]
    assert all("message" not in check for check in payload["checks"] if check["status"] == "pass")
    assert payload["summary"]["failed"] == 1
    assert payload["summary"]["passed"] == payload["summary"]["total"] - 1
    code, out, _ = _run(capsys, ["verify", "all", "--group", "Z3"])
    assert code == 4
    assert "error" in out


@pytest.mark.parametrize("measurements, level, direction, status, measured", [
    ((0.0, 2.0), "exact", "le", "fail", 2.0),            # the largest, not the first
    ((5.0, 1e-9), "witness_gap", "ge", "fail", 1e-9),    # the smallest for a >= row
    ((0.0, math.nan), "exact", "le", "fail", None),      # NaN after a passing sample
    ((math.nan, 0.0), "witness_gap", "ge", "fail", None),
    ((), "exact", "le", "error", None),                  # a check that measures nothing
])
def test_verify_row_keeps_its_worst_measurement(measurements, level, direction, status, measured,
                                                monkeypatch, capsys):
    def fn(group, rng, tol):
        yield from measurements

    row = verify.Check("zz-row", "a row of fixed measurements", fn, level, direction)
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + (row,))
    code, out, _ = _run(capsys, ["verify", "all", "--group", "Z3", "--format", "json"])
    assert code == 4
    rows = {check["name"]: check for check in json.loads(out)["checks"]}
    assert rows["zz-row"]["status"] == status
    assert [name for name, check in rows.items() if check["status"] != "pass"] == ["zz-row"]
    if measured is not None:
        assert rows["zz-row"]["measured"] == measured
    elif status == "fail":
        assert math.isnan(rows["zz-row"]["measured"])
    else:
        assert rows["zz-row"]["measured"] is None
        assert "Traceback" in rows["zz-row"]["message"]


def test_verify_over_the_subgroup_bound_runs_no_check(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "run_check", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SubgroupBoundError):
        verify.verify_group(parse_group("Z1024"))
    assert calls == []


def test_out_flag_writes_file(tmp_path, capsys):
    target = str(tmp_path / "info.json")
    code, out, _ = _run(capsys, ["group", "info", "--group", "Z2", "--format", "json",
                                 "--out", target])
    assert code == 0
    assert out == ""
    assert json.loads(open(target).read())["order"] == 2


def test_csv_unsupported_for_scalar_reports(tmp_path, capsys):
    z2 = parse_group("Z2")
    path = _write(tmp_path, "mixed.json", (Operator.identity(z2) * 0.5).to_json())
    code, _, err = _run(capsys, ["check", "kd-positive", "--group", "Z2", "--state", path,
                                 "--format", "csv"])
    assert code == 1
    assert "error:" in err


def test_unwritable_out_path_is_config_error(tmp_path, capsys):
    target = str(tmp_path / "missing" / "info.json")
    code, out, err = _run(capsys, ["group", "info", "--group", "Z2", "--out", target])
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


def _leaf_parsers(parser, path=()):
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield " ".join(path), parser
    for action in actions:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def test_each_subcommand_declares_only_the_flags_it_reads():
    flags = {
        path: {a.option_strings[0]: a for a in parser._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)}
        for path, parser in _leaf_parsers(build_parser())
    }
    assert len(flags) == 16
    assert sum(len(f) for f in flags.values()) == 78
    assert {path for path, f in flags.items() if "csv" in f["--format"].choices} == {
        "group subgroups", "kd compute", "charfn", "pure enumerate"}
    assert {path for path, f in flags.items() if "--seed" in f} == {"witness search", "verify all"}
    assert all(f["--group"].required for f in flags.values() if "--group" in f)
    assert sorted(name for name in flags["verify all"] if name.startswith("--tol-")) == [
        "--tol-exact", "--tol-membership", "--tol-positivity", "--tol-structural",
        "--tol-witness-gap"]


def test_readme_subcommand_table_matches_the_parser():
    common = {"--group", "--seed", "--format", "--out"}
    expected = {}
    for path, parser in _leaf_parsers(build_parser()):
        flags = {a.option_strings[0]: a for a in parser._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)}
        expected[path] = (
            ", ".join(f"`{name}`" for name in flags
                      if name not in common and not name.startswith("--tol-")),
            ", ".join(flags["--format"].choices),
            "yes" if "--seed" in flags else "",
            ", ".join(name[len("--tol-"):] for name in flags if name.startswith("--tol-")),
        )
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("```", 1)[0]
    rows = re.findall(r"^\| `([a-z -]+)` \|([^|]*)\|([^|]*)\|([^|]*)\|([^|]*)\|$", section, flags=re.M)
    assert {name: tuple(cell.strip() for cell in cells) for name, *cells in rows} == expected


def test_errors_surface_group_then_tolerance_then_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    argv = ["member", "conv", "--state", missing]
    code, out, err = _run(capsys, argv + ["--group", "Q8", "--tol-membership", "nan"])
    assert (code, out, err) == (1, "", "error: expected 'Z' (position 0)\n")
    code, out, err = _run(capsys, argv + ["--group", "Z2", "--tol-membership", "nan"])
    assert (code, out) == (2, "")
    assert err == "precondition violated: tolerance membership must be finite, got nan\n"
    code, out, err = _run(capsys, argv + ["--group", "Z2", "--tol-membership", "1e-8"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: invalid state in {missing}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["group", "info", "--group", "Z2", "--seed", "3"],
    ["group", "info", "--group", "Z2", "--tol-membership", "5"],
    ["pure", "enumerate", "--group", "Z2", "--tol-recognition", "1e-3"],
    ["member", "conv", "--group", "Z2", "--state", "x.json", "--tol-witness-gap", "1"],
    ["circle", "search", "--input", "x.json", "--tol-positivity", "1"],
    ["circle", "check", "--input", "x.json", "--group", "Z2"],
])
def test_unread_flag_is_config_error(argv, capsys):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


def test_csv_is_rejected_before_any_work(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("verify_group ran")

    monkeypatch.setattr(cli, "verify_group", never)
    code, out, err = _run(capsys, ["verify", "all", "--group", "Z6", "--format", "csv"])
    assert code == 1
    assert out == ""
    assert "invalid choice: 'csv'" in err


def _tolerance_inputs(tmp_path):
    """Z2 and Z4 inputs just past the default bounds."""
    z2, z4 = parse_group("Z2"), parse_group("Z4")
    mixed = Operator.identity(z2) * 0.5
    negative = Operator.pure_state(GFunction(z2, [1.2, np.sqrt(0.56)]))
    low = float(np.min(kd(negative).values.real))
    p = (0.5 + 1e-6) / (0.5 - low)              # KD minimum -1e-6
    circular = Operator.pure_state(GFunction(z2, [1.0, 1.0j]))
    near = enumerate_kd_positive_pure(z2)[0].vector.values + np.array([0.0, 1e-3])
    return {
        "mixed": _write(tmp_path, "mixed.json", mixed.to_json()),
        "slightly-negative": _write(tmp_path, "neg.json",
                                    (mixed * (1 - p) + negative * p).to_json()),
        "slightly-complex": _write(tmp_path, "complex.json",
                                   (mixed * (1 - 1e-6) + circular * 1e-6).to_json()),
        "near-span": _write(tmp_path, "span.json", (
            enumerate_kd_positive_pure(z4)[3].projector() + _off_support_op(z4) * 1e-6).to_json()),
        "near-member": _write(tmp_path, "vec.json", {
            "values": encode_array(near / np.linalg.norm(near) * np.sqrt(2))}),
        "two-mode": _write(tmp_path, "two.json", _two_mode_plus(3).to_json()),
    }


_WITNESS = ["witness", "search", "--group", "Z2xZ2", "--budget", "100"]
_NEGATIVE_Z2 = ["--group", "Z2", "--state", "slightly-negative"]


@pytest.mark.parametrize("argv, flag, default_code, code", [
    (["pure", "recognize", "--group", "Z2", "--state", "near-member"],
     ["--tol-recognition", "1e-5"], 3, 0),
    (["check", "kd-real", "--group", "Z2", "--operator", "slightly-complex"],
     ["--tol-structural", "1e-5"], 3, 0),
    (["check", "kd-positive", *_NEGATIVE_Z2], ["--tol-positivity", "1e-5"], 3, 0),
    (["member", "span", "--group", "Z4", "--operator", "near-span"],
     ["--tol-membership", "1e-3"], 3, 0),
    (["member", "conv", *_NEGATIVE_Z2], ["--tol-positivity", "1e-5"], 2, 3),
    (["member", "conv", *_NEGATIVE_Z2, "--tol-positivity", "1e-5"],
     ["--tol-membership", "1e-4"], 3, 0),
    # the Z2xZ2 witness is found in the first 100 steps; each bound below
    # rejects it: a gap bound above the gap, a membership bound above the
    # hull residual, a positivity bound tighter than the polish reaches
    (_WITNESS, ["--tol-witness-gap", "1"], 0, 4),
    (_WITNESS, ["--tol-membership", "1"], 0, 4),
    (_WITNESS, ["--tol-positivity", "1e-14"], 0, 4),
    (["circle", "check", "--input", "two-mode"], ["--tol-positivity", "1"], 3, 0),
    # a tolerance must be finite: NaN fails every comparison, inf passes every one
    (["check", "kd-positive", *_NEGATIVE_Z2], ["--tol-positivity", "nan"], 3, 2),
    (["check", "kd-positive", *_NEGATIVE_Z2], ["--tol-positivity", "inf"], 3, 2),
    (["member", "conv", *_NEGATIVE_Z2, "--tol-positivity", "1e-5"],
     ["--tol-membership", "nan"], 3, 2),
    (["verify", "all", "--group", "Z2"], ["--tol-structural", "inf"], 0, 2),
    # a negative bound is met by no residual: the mixed state is not inside,
    # and its exact fit certifies no gap (these used to exit 3 and 2)
    (["member", "conv", "--group", "Z2", "--state", "mixed"], ["--tol-membership", "-1"], 0, 4),
    (["member", "span", "--group", "Z2", "--operator", "mixed"], ["--tol-membership", "-1"], 0, 4),
    # the state preconditions hold at rounding; a negative bound only fails the
    # verdict (this used to exit 2 with "not Hermitian")
    (["check", "kd-positive", "--group", "Z2", "--state", "mixed"], ["--tol-positivity", "-1"], 0, 3),
])
def test_each_tolerance_flag_changes_its_outcome(argv, flag, default_code, code, tmp_path, capsys):
    inputs = _tolerance_inputs(tmp_path)
    argv = [inputs.get(arg, arg) for arg in argv] + ["--format", "json"]
    assert _run(capsys, argv)[0] == default_code
    assert _run(capsys, argv + flag)[0] == code


@pytest.mark.parametrize("name", ["exact", "structural", "positivity", "membership", "witness_gap"])
def test_verify_tolerance_flag_bounds_its_rows(name, capsys):
    # a bound no measurement meets fails exactly the rows that read it
    checks = [c for c in verify.CHECKS if c.applies(parse_group("Z2"))]
    unmet = 1e9 if name == "witness_gap" else -1.0
    expected = {c.name for c in checks if c.level == name}
    assert expected
    argv = ["verify", "all", "--group", "Z2", "--format", "json"]
    assert _run(capsys, argv)[0] == 0
    code, out, _ = _run(capsys, argv + [f"--tol-{name.replace('_', '-')}", str(unmet)])
    assert code == 4
    assert {c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"} == expected


def test_verify_rows_pass_the_run_record_to_every_decider(monkeypatch):
    custom = DEFAULT.override(positivity=2e-9, membership=2e-8, recognition=2e-7)
    seen = {}

    def spy(name, decider):
        def call(*args, **kwargs):
            seen.setdefault(name, []).append(kwargs.get("tol", args[1] if len(args) > 1 else None))
            return decider(*args, **kwargs)
        return call

    names = ["conv_membership", "span_membership", "is_kd_positive_state", "recognize_kd_positive_pure"]
    for name in names:
        monkeypatch.setattr(verify, name, spy(name, getattr(verify, name)))
    report = verify.verify_group(parse_group("Z2xZ2"), tol=custom)
    assert report.all_passed
    assert sorted(seen) == sorted(names)
    assert all(tol is custom for calls in seen.values() for tol in calls)


def test_verify_mixture_rows_build_no_projector_stack():
    # a stack of the 448 family projectors of Z64 would take 29 MB
    group = parse_group("Z64")
    check = next(c for c in verify.CHECKS if c.name == "fragment-span-consistency")
    assert verify.run_check(check, group, 0).status == "pass"    # family and caches built first
    tracemalloc.start()
    result = verify.run_check(check, group, 0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert result.status == "pass"
    assert peak < 8 * 2**20


def test_real_dimension_row_builds_one_stack():
    # one (448, 4096) float stack of Z64's member tables takes 14 MiB; a list
    # of its rows and their stacked copy took two
    group = parse_group("Z64")
    check = next(c for c in verify.CHECKS if c.name == "fragment-real-dimension")
    assert verify.run_check(check, group, 0).measured == 0.0    # family built first
    tracemalloc.start()
    measured = verify.run_check(check, group, 0).measured
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert measured == 0.0
    assert peak < 21 * 2**20


def test_verify_rows_refuse_what_the_subcommand_refuses(tmp_path, capsys):
    # below the rounding of a family projector's table, hull membership refuses
    # the projector; the verify rows that ask for it are error rows saying so
    flag = ["--tol-positivity", "1e-20"]
    code, out, _ = _run(capsys, ["verify", "all", "--group", "Z2xZ2", "--format", "json", *flag])
    assert code == 4
    rows = {row["name"]: row for row in json.loads(out)["checks"]}
    member = enumerate_kd_positive_pure(parse_group("Z2xZ2"))[5].projector()
    path = _write(tmp_path, "member.json", member.to_json())
    code, _, err = _run(capsys, ["member", "conv", "--group", "Z2xZ2", "--state", path, *flag])
    assert code == 2
    refusal = err.strip().splitlines()[-1].split(": ", 1)[1]
    for name in ("fragment-projector-membership", "fragment-certificate-reconstruction"):
        assert rows[name]["status"] == "error"
        assert refusal.split(" (")[0] in rows[name]["message"]


def test_readme_check_table_matches_the_registry():
    def rendered(check):
        if check.level is None:
            return "exact"
        return f"{'<=' if check.direction == 'le' else '>='} {check.bound(DEFAULT):.0e}"

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Verification checks", 1)[1]
    rows = re.findall(r"^\| `([a-z-]+)` \| (.+) \| (.+) \|$", table, flags=re.M)
    assert {name: (anchor, bound) for name, anchor, bound in rows} == {
        c.name: (c.anchor, rendered(c)) for c in verify.CHECKS}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Tolerances)])
def test_tolerances_must_be_finite(name, value):
    with pytest.raises(PreconditionError, match="must be finite"):
        Tolerances(**{name: value})
    with pytest.raises(PreconditionError, match="must be finite"):
        DEFAULT.override(**{name: value})


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kdlab", "group", "info", "--group", "Z2", "--format", "json"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 2
