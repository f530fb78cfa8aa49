import json

import pytest

from addcomp.cli import main
from addcomp.complements import is_minimal_complement_for
from addcomp.groups import Group
from addcomp.sumset import GroupSet

ENVELOPE_KEYS = {"version", "command", "group", "inputs", "result",
                 "timing_ms", "seed"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    body = captured.out.strip()
    env = json.loads(body) if body.startswith("{") else None
    return code, env, captured.err


def test_check_envelope(capsys):
    code, env, err = run(capsys, "check", "--group", "6",
                         "--w", "{0,3}", "--c", "{0,1,2}")
    assert code == 0 and err == ""
    assert set(env) == ENVELOPE_KEYS
    assert env["command"] == "check"
    assert env["group"] == "6"
    assert env["inputs"] == {"w": "0x9", "c": "0x7"}
    assert env["result"]["complement"] is True
    assert env["result"]["minimal_complement"] is True
    assert env["result"]["essential_elements"] == [0, 1, 2]
    assert env["seed"] is None


def test_witness_yes(capsys):
    code, env, _ = run(capsys, "witness", "--group", "6", "--c", "{0,1,2}")
    assert code == 0
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "yes"
    assert cert["method"] == "construction-ap"
    assert cert["witness"] == "0x9"


def test_witness_no(capsys):
    code, env, _ = run(capsys, "witness", "--group", "9",
                       "--c", "{0,1,2,3,4,5,6}")
    assert code == 0
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "no" and cert["method"] == "bound-size-gap"


def test_witness_unknown_exit_2(capsys):
    code, env, _ = run(capsys, "witness", "--group", "67", "--c", "{0,1,3}",
                       "--max-candidates", "4")
    assert code == 2
    assert env["result"]["certificate"]["verdict"] == "unknown"


def test_witness_unknown_in_large_group_prints_envelope(capsys):
    code, env, err = run(capsys, "witness", "--group", "100000",
                         "--c", "{0,1,3,7,20,50,90,200,300}")
    assert code == 2 and err == ""
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "unknown"
    assert cert["detail"]["candidates_needed_log2"] == 99999


def test_witness_no_fast_paths(capsys):
    code, env, _ = run(capsys, "witness", "--group", "12",
                       "--c", "{0,2,4,6,8}", "--no-fast-paths")
    assert code == 0
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "no" and cert["method"] == "exhaustive"


def test_usage_errors_exit_1(capsys):
    code, env, err = run(capsys)
    assert code == 1 and env is None and "error" in err
    code, env, err = run(capsys, "witness", "--group", "6")
    assert code == 1
    code, env, err = run(capsys, "witness", "--group", "6", "--c", "{1,a}")
    assert code == 1 and "bad element literal" in err


def test_help_exits_0(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_ap_command(capsys):
    code, env, _ = run(capsys, "ap", "--group", "6", "--start", "0",
                       "--step", "1", "--len", "3")
    assert code == 0
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "yes" and cert["witness"] == "0x9"
    assert cert["detail"]["case"] == "sparse"

    code, _, err = run(capsys, "ap", "--group", "6", "--start", "0",
                       "--step", "1", "--len", "7")
    assert code == 1 and "revisits" in err


def test_pair_command(capsys):
    code, env, _ = run(capsys, "pair", "--group", "6", "--c", "{0,2,4}",
                       "--a", "1")
    assert code == 0
    assert env["result"]["pair_witness"] is True
    assert env["result"]["w"] == "0x3"


def test_random_build_success(capsys):
    code, env, _ = run(capsys, "random-build", "--group", "10000",
                       "--c", "{0, 417, 2905, 7311}", "--s", "12",
                       "--seed", "3")
    assert code == 0
    trace = env["result"]["trace"]
    assert trace["result"] is not None
    assert env["seed"] == 3


def test_random_build_failure_exit_2(capsys):
    c = "{" + ",".join(str(i) for i in range(40)) + "}"
    code, env, _ = run(capsys, "random-build", "--group", "100", "--c", c,
                       "--s", "2", "--seed", "1")
    assert code == 2
    assert env["result"]["trace"]["result"] is None


def test_random_build_zero_retries_is_usage_error(capsys):
    code, env, err = run(capsys, "random-build", "--group", "1000",
                         "--c", "{0,1,5}", "--s", "3", "--retries", "0")
    assert code == 1 and env is None
    assert err.startswith("error:") and "max_retries" in err


def test_supplement_pair_mode(capsys):
    code, env, _ = run(capsys, "supplement", "--group", "8", "--c", "{0,1}",
                       "--w", "{0,2,4}")
    assert code == 0
    assert env["result"] == {"supplement": True, "maximal": True}


def test_supplement_witness_mode(capsys):
    code, env, _ = run(capsys, "supplement", "--group", "3", "--c", "{0,1}")
    assert code == 0
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "no" and cert["method"] == "bound-solidity"

    # one cap for every exhaustive search: one candidate is not enough here
    code, env, _ = run(capsys, "supplement", "--group", "20", "--c", "{0,1}",
                       "--max-candidates", "1")
    assert code == 2
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "unknown" and cert["method"] == "budget"
    assert cert["detail"]["candidates"] == 1

    code, env, _ = run(capsys, "supplement", "--group", "20", "--c", "{0,1}")
    assert code == 0
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "yes" and cert["method"] == "exhaustive"


def test_supplement_max_candidates_caps_the_scan(capsys):
    # {0,1,5,6} in Z12 is solid and has no completion, so only the
    # exhaustive scan decides it; a scan cut short must not answer no.
    code, env, _ = run(capsys, "supplement", "--group", "12",
                       "--c", "{0,1,5,6}")
    assert code == 0
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "no" and cert["method"] == "exhaustive"

    code, env, _ = run(capsys, "supplement", "--group", "12",
                       "--c", "{0,1,5,6}", "--max-candidates", "1")
    assert code == 2
    cert = env["result"]["certificate"]
    assert cert["verdict"] == "unknown" and cert["method"] == "budget"


def test_tmin_group(capsys):
    code, env, _ = run(capsys, "tmin", "--group", "12")
    assert code == 0
    assert env["result"]["value"] == 4
    assert env["result"]["exact"] is True


def test_tmin_order(capsys):
    code, env, _ = run(capsys, "tmin", "--order", "4")
    assert code == 0
    assert env["result"]["value"] == 2 and env["result"]["exact"] is True
    assert len(env["result"]["per_group"]) == 2
    assert all(row["exact"] for row in env["result"]["per_group"])

    code, _, _ = run(capsys, "tmin", "--order", "4", "--group", "4")
    assert code == 1
    code, _, _ = run(capsys, "tmin")
    assert code == 1


def test_tmin_order_inexact_exits_2(capsys):
    # T(12) is 4; one candidate per scan cannot show it, so the minimum
    # is only a lower bound and the run is undecided
    code, env, _ = run(capsys, "tmin", "--order", "12", "--max-candidates", "1")
    assert code == 2
    assert env["result"]["value"] == 2 and env["result"]["exact"] is False
    assert [row["exact"] for row in env["result"]["per_group"]] == [False, False]
    code, env, _ = run(capsys, "tmin", "--group", "12", "--max-candidates", "1")
    assert code == 2 and env["result"]["exact"] is False


def test_scan_threshold_out_file(tmp_path, capsys):
    out = tmp_path / "scan.json"
    args = ("scan-threshold", "--group", "8", "--grid", "0,1",
            "--trials", "10", "--seed", "5", "--out", str(out))
    code, env, _ = run(capsys, *args)
    assert code == 0
    first = out.read_bytes()
    assert json.loads(first)["rows"][1]["freq_yes"] == 1.0
    # a second run produces the identical file
    code, env, _ = run(capsys, *args)
    assert out.read_bytes() == first
    assert env["seed"] == 5


def test_scan_threshold_unknown_rows_exit_2(capsys):
    # order 24 is past the exhaustive cap, and these draws stay undecided
    code, env, _ = run(capsys, "scan-threshold", "--group", "24", "--trials", "2",
                       "--grid", "0.3")
    assert code == 2
    assert env["result"]["report"]["rows"][0]["unknown"] == 2
    code, env, _ = run(capsys, "scan-threshold", "--group", "8", "--trials", "20")
    assert code == 0
    assert all(row["unknown"] == 0 for row in env["result"]["report"]["rows"])


def test_scan_threshold_csv_file(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    code, env, _ = run(capsys, "scan-threshold", "--group", "6", "--grid",
                       "0.5", "--trials", "5", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("p,") and len(lines) == 2


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_scan_threshold_unwritable_path_exit_1(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "scan.txt"
    code, env, err = run(capsys, "scan-threshold", "--group", "4", "--trials", "1",
                         flag, str(target))
    assert code == 1 and env is None
    assert err.startswith("error: ") and "internal error" not in err


def test_lift_z_command(capsys):
    code, env, _ = run(capsys, "lift-z", "--ints", "0,1,2")
    assert code == 0
    assert env["group"] == "6"
    assert env["result"]["modulus"] == 6
    assert env["result"]["witness"] == "0x9"

    code, _, err = run(capsys, "lift-z", "--ints", "a,b")
    assert code == 1
    code, _, err = run(capsys, "lift-z", "--ints", "1,1,2")
    assert code == 1


def test_lift_z_safe_mode_random_build(capsys):
    code, env, _ = run(capsys, "lift-z", "--ints", "0,1,4,6,10,11,13",
                       "--mode", "safe")
    assert code == 0
    result = env["result"]
    assert result["method"] == "random-build"
    group = Group([result["modulus"]])
    w = GroupSet(group, int(result["witness"], 16))
    residues = GroupSet(group, int(result["residues"], 16))
    assert is_minimal_complement_for(w, residues)


def test_lift_z_minimal_mode_random_build(capsys):
    # Every modulus below 136062 is too sparse for the two-point search
    # (2|C| < n), which must not be run there.
    code, env, _ = run(capsys, "lift-z", "--ints", "0,1,4,6,10,11,13")
    assert code == 0
    result = env["result"]
    assert result["modulus"] == 136062
    assert result["method"] == "random-build"
    group = Group([result["modulus"]])
    w = GroupSet(group, int(result["witness"], 16))
    residues = GroupSet(group, int(result["residues"], 16))
    assert is_minimal_complement_for(w, residues)


def test_literal_errors_exit_1(capsys):
    code, _, err = run(capsys, "check", "--group", "6", "--w", "{(0,0)}",
                       "--c", "{0}")
    assert code == 1
    code, _, err = run(capsys, "check", "--group", "6", "--w", "0x100",
                       "--c", "{0}")
    assert code == 1 and "beyond group order" in err
