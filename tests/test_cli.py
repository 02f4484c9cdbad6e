import json
import subprocess
import sys

import numpy as np
import pytest

from kdlab.classify import enumerate_kd_positive_pure
from kdlab import verify
from kdlab.cli import main
from kdlab.groups import parse_group
from kdlab.harmonic import GFunction
from kdlab.jsonio import dumps, encode_array
from kdlab.kd import kd
from kdlab.operators import Operator

from conftest import child_env
from test_circle import _two_mode_plus, _vacuum
from test_fragment import _off_support_op


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
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
    assert "error:" in err


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


def test_member_conv_mixed_state(tmp_path, capsys):
    z2 = parse_group("Z2")
    mixed_path = _write(tmp_path, "mixed.json", (Operator.identity(z2) * 0.5).to_json())
    code, out, _ = _run(capsys, ["member", "conv", "--group", "Z2", "--state", mixed_path,
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "inside"
    weights = {entry["index"]: entry["weight"] for entry in payload["certificate"]["weights"]}
    assert weights == {0: pytest.approx(0.5, abs=1e-10), 1: pytest.approx(0.5, abs=1e-10)}


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


def test_verify_all_green(capsys):
    code, out, _ = _run(capsys, ["verify", "all", "--group", "Z3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["passed"] == payload["summary"]["total"]
    assert all(check["status"] == "pass" for check in payload["checks"])


def test_verify_all_reports_raising_check(monkeypatch, capsys):
    def broken(group, rng, tolerances):
        raise RuntimeError("deliberately broken check")

    raising = verify.Check("zz-broken", "a check that raises", broken, lambda t: t.exact)
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kdlab", "group", "info", "--group", "Z2", "--format", "json"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 2
