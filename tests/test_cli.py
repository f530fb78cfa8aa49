import dataclasses
import errno
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import addcomp
from addcomp import cli, groups
from addcomp.cli import main
from addcomp.complements import is_minimal_complement_for
from addcomp.groups import Group
from addcomp.sumset import GroupSet, ListedSet

ENVELOPE_KEYS = {"version", "command", "group", "inputs", "result",
                 "timing_ms", "seed"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    body = captured.out.strip()
    env = json.loads(body) if body.startswith("{") else None
    return code, env, captured.err


def run_process(*argv, **kwargs):
    """`python -m addcomp argv` in a fresh process, this checkout's addcomp;
    stdout is captured unless kwargs give it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(addcomp.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "addcomp", *argv], stderr=subprocess.PIPE,
                          env=env, timeout=120, **kwargs)


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


def test_check_answers_every_field_from_one_private_point_pass(capsys, monkeypatch):
    # Cover, minimality and the essential elements all come from the one
    # private_points call: its 2k translates of W, and no other.
    sumset_module = importlib.import_module("addcomp.sumset")
    real = sumset_module.translate_mask
    masks = []

    def counted(group, mask, g):
        masks.append(mask)
        return real(group, mask, g)

    monkeypatch.setattr(sumset_module, "translate_mask", counted)
    w = "{" + ",".join(map(str, range(0, 100000, 4))) + "}"
    code, env, err = run(capsys, "check", "--group", "100000", "--w", w, "--c", "{0,1,2,3,5}")
    assert code == 0 and err == ""
    assert env["result"] == {"complement": True, "minimal_complement": False,
                             "essential": "0xd", "essential_elements": [0, 2, 3]}
    assert len(masks) == 10 and set(masks) == {int(env["inputs"]["w"], 16)}


def test_random_build_witness_builds_no_block_mask(capsys, monkeypatch):
    # A random-build answer makes no translate, so its 4096x4096 group
    # never builds the block masks that translates and coset boxes use.
    built = []
    real = Group.block_reps
    monkeypatch.setattr(Group, "block_reps",
                        property(lambda g: built.append(g) or real.fget(g)))
    code, env, err = run(capsys, "witness", "--group", "4096x4096", "--c",
                         "{(0,0),(17,3001),(905,12),(2048,4095),(3333,777)}")
    assert code == 0 and err == ""
    assert env["result"]["certificate"]["method"] == "random-build"
    assert built == []


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


# sha256 of each --help text at 80 columns
HELP_DIGESTS = {
    (): "a96735d1aed649c923a7587f37a7b514d3ed11601e720b76129d5148f6214afe",
    ("check",): "8fa79e951ea5b72f757c9b31e652ff3891718ef2cfd7cc3a80e126caad598d58",
    ("witness",): "875d130b73d6e2d11c89393a7ed6e795d6a0a1c608222d700ae7bfa175a191da",
    ("ap",): "e71b4a5d3502dde07125500e778ad102f1ae21fe3d12e0c4e5ce191deada0c5c",
    ("pair",): "c4b48ea6e84b7303abb46aef2e197e3190b9ba5a2077f5ff17ad62e05041aafb",
    ("random-build",): "6b430cf7fcf5c69e9187237bb9b3ff30818da2bd20d11478ca6d859b0c661c92",
    ("supplement",): "18f9a7e3fe93d0cd7da58ca7a67c4b15e16bdcb9dbea847eca481cb08397b739",
    ("tmin",): "f97e8c11aee52f8200c2c9dd67bb30957b19e20e78157e82065869f9bcad1cd8",
    ("scan-threshold",): "7314da162ef74191cca7e21993591159b38c4a4270360125b2f5f5c0bfc74650",
    ("lift-z",): "19ca23e7a8eb6bd542bde14afdabb7a41d3630cd9a6501cf0ba339f1b2b713b2",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_texts_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code = main([*command, "--help"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert sha256(captured.out) == HELP_DIGESTS[command]


def test_main_reuses_one_parser(capsys, monkeypatch):
    def no_rebuild():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", no_rebuild)
    for _ in range(2):
        code, env, err = run(capsys, "witness", "--group", "6", "--c", "{0,1,2}")
        assert code == 0 and err == "" and env["command"] == "witness"


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


def test_random_build_rechecks_its_witness(capsys, monkeypatch):
    # random_witness checks nothing itself, so the command rechecks the
    # witness before printing it: one that is not a witness is an internal
    # error, with no envelope and no traceback.
    real = cli.random_witness

    def not_a_witness(c, s, **keywords):
        trace = real(c, s, **keywords)
        return dataclasses.replace(trace, result=GroupSet.singleton(c.group, 0))

    monkeypatch.setattr(cli, "random_witness", not_a_witness)
    code, env, err = run(capsys, "random-build", "--group", "10000",
                         "--c", "{0, 417, 2905, 7311}", "--s", "12", "--seed", "3")
    assert code == 1 and env is None
    assert err.startswith("internal error:") and "Traceback" not in err


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


def test_supplement_pair_mode(capsys, monkeypatch):
    # one C - C and one W - W per pair
    supplements_module = importlib.import_module("addcomp.supplements")
    real = supplements_module.difference_set
    calls = []

    def counted(a):
        calls.append(a.mask)
        return real(a)

    monkeypatch.setattr(supplements_module, "difference_set", counted)
    code, env, _ = run(capsys, "supplement", "--group", "8", "--c", "{0,1}",
                       "--w", "{0,2,4}")
    assert code == 0
    assert env["result"] == {"supplement": True, "maximal": True}
    assert len(calls) == 2

    # a supplement that is not maximal, and a pair that is no supplement,
    # are answered from the same two difference sets
    for w, supplement in (("{0,2}", True), ("{0,1}", False)):
        calls.clear()
        code, env, _ = run(capsys, "supplement", "--group", "8", "--c", "{0,1}", "--w", w)
        assert code == 0
        assert env["result"] == {"supplement": supplement, "maximal": False}
        assert len(calls) == 2


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


def test_scan_threshold_empty_grid_exit_1(capsys):
    for grid in (",", ""):
        code, env, err = run(capsys, "scan-threshold", "--group", "4", "--grid", grid)
        assert code == 1 and env is None
        assert err == "error: need at least one density\n"


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


def test_lift_z_negative_ints_either_spelling(capsys):
    # argparse alone reads "--ints -3,2" as --ints missing its value
    outs = []
    for argv in (("--ints", "-3,2"), ("--ints=-3,2",)):
        code, env, err = run(capsys, "lift-z", *argv, "--mode", "safe")
        assert code == 0 and err == ""
        assert env["inputs"]["ints"] == [-3, 2]
        env.pop("timing_ms")
        outs.append(env)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("ints, modulus", [("0,3202", 6406), ("3,9,100000", 199996)])
@pytest.mark.parametrize("mode", ["minimal", "safe"])
def test_lift_z_wider_than_safe_modulus(capsys, ints, modulus, mode):
    code, env, err = run(capsys, "lift-z", "--ints", ints, "--mode", mode)
    assert code == 0 and err == ""
    result = env["result"]
    assert result["modulus"] == modulus
    group = Group([modulus])
    w = GroupSet(group, int(result["witness"], 16))
    residues = GroupSet(group, int(result["residues"], 16))
    assert is_minimal_complement_for(w, residues)


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
    code, env, err = run(capsys, "witness", "--group", "²", "--c", "{0}")
    assert code == 1 and env is None
    assert err == "error: bad factor '²' in group spec '²'\n"


# Python's int (and so argparse's type=int) reads "١٢", "1_000" and "+7";
# float reads "٠.٥" and "0.5_0".  Every integer flag and --ints go through
# literals._integer instead, and --grid takes ASCII without "_".
@pytest.mark.parametrize("argv, spelling", [
    (("ap", "--group", "12", "--start", "0", "--step", "1", "--len", "٣"), "٣"),
    (("random-build", "--group", "10000", "--c", "{0,1,5}", "--s", "٩"), "٩"),
    (("random-build", "--group", "10000", "--c", "{0,1,5}", "--s", "9",
      "--retries", "1_0"), "1_0"),
    (("random-build", "--group", "10000", "--c", "{0,1,5}", "--s", "9",
      "--seed", "+7"), "+7"),
    (("tmin", "--order", "١٢"), "١٢"),
    (("scan-threshold", "--group", "4", "--trials", "٢"), "٢"),
    (("witness", "--group", "6", "--c", "{0,1,2}", "--max-candidates", "1_000"), "1_000"),
    (("lift-z", "--ints", "5,6,7_0"), "7_0"),
    (("scan-threshold", "--group", "4", "--trials", "2", "--grid", "٠.٥"), "٠.٥"),
], ids=["len", "s", "retries", "seed", "order", "trials", "max-candidates", "ints", "grid"])
def test_numbers_outside_the_literal_rule_exit_1(argv, spelling):
    proc = run_process(*argv)
    err = proc.stderr.decode()
    assert proc.returncode == 1 and proc.stdout == b""
    assert err.startswith("error: ") and repr(spelling) in err
    assert "Traceback" not in err


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_out_of_memory_is_an_error_line(tmp_path):
    # The group's full mask alone is 10^11 bits (2*10^11 for the lift-z
    # modulus), far past a 1 GB address space.  No stage builds it for
    # {0, 1, 5} or the lift of {0, 1, 10^11}, random builds whose sets
    # keep their points, so the CLI refuses the group when a command takes
    # it.  Stdout is a file capped at 1 MB: if the group got through, the
    # envelope of tens of GB would fail at once with a different error line.
    def cap_memory():
        for limit, cap in ((resource.RLIMIT_AS, 1 << 30), (resource.RLIMIT_FSIZE, 1 << 20)):
            resource.setrlimit(limit, (cap, resource.getrlimit(limit)[1]))

    for argv in (("witness", "--group", "100000000000", "--c", "{0}"),
                 ("witness", "--group", "100000000000", "--c", "{0,1,5}"),
                 ("lift-z", "--ints", "0,1,100000000000", "--mode", "safe")):
        out = tmp_path / "out.json"
        with open(out, "wb") as fh:
            proc = run_process(*argv, preexec_fn=cap_memory, stdout=fh)
        err = proc.stderr.decode()
        assert proc.returncode == 1 and out.read_bytes() == b"", argv
        assert err.startswith("error: out of memory") and "Traceback" not in err, argv


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_failed_stdout_write_is_an_error_line(tmp_path):
    # The 6.6 MB envelope cannot fit a file capped at 1 MB (like a full
    # disk): one error line, exit 1, no traceback.
    def cap_file_size():
        limit = resource.RLIMIT_FSIZE
        resource.setrlimit(limit, (1 << 20, resource.getrlimit(limit)[1]))

    out = tmp_path / "out.json"
    with open(out, "wb") as fh:
        proc = run_process(*HUGE_WITNESS, preexec_fn=cap_file_size, stdout=fh)
    err = proc.stderr.decode()
    assert proc.returncode == 1 and out.stat().st_size == 1 << 20
    assert err == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"


HUGE_WITNESS = ("witness", "--group", "16777216", "--c", "{0,8839392,9786826}")


def canonical(out):
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def without_timing(out):
    return re.sub(r'^  "timing_ms": .*\n', "", out, flags=re.M)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Each digest is of the envelope minus its timing_ms line.
ENVELOPE_DIGESTS = {
    ("check", "--group", "8", "--w", "{0,1}", "--c", "{0,2,4,6}"):
        "3292d9b147cc1b4f1931ee2d915f056455963e053648249daa1bad971b747114",
    ("check", "--group", "6", "--w", "{0}", "--c", "{0,1}"):
        "588cee801c5509b43396a889c4f199ad1ba22c6f436300f17c87ea653fd4cc02",
    ("witness", "--group", "6", "--c", "{0,1,2}"):
        "b7ac88f7707e4e85b11ba5b48cf14a2af1aa2c4149e3426e2fb8e438d5c11357",
    ("witness", "--group", "67", "--c", "{0,1,3}", "--max-candidates", "4"):
        "077b9739c23d4db5a4bc10bff5da7021de54c21cfad2ca0610e5e49fd5ee8185",
    ("ap", "--group", "6", "--start", "0", "--step", "1", "--len", "3"):
        "2fa4bf69deb085567fe749c628aba58fd6eeb6ba45dadcc7473030c77258da2e",
    ("pair", "--group", "6", "--c", "{0,2,4}", "--a", "1"):
        "16d8bf64c7fd37fbaeed6e189cdc4cca89f64649813110435cb774cd001b98ce",
    ("random-build", "--group", "10000", "--c", "{0, 417, 2905, 7311}",
     "--s", "12", "--seed", "3"):
        "a14b2c198b8284c178dee90abf8d98ded25862e5d1cd5c527909e535f70d4066",
    ("supplement", "--group", "8", "--c", "{0,1}"):
        "6f8fd32dded6a6826326bd49f81c878914c3af038c0b76f9f8e45d14248d9af7",
    ("supplement", "--group", "8", "--c", "{0,1}", "--w", "{0,2,4}"):
        "97372b8120fca44b17e7b0c8f6d5221a0a384bdce5243f54ac0f2b2ebf5effd0",
    ("tmin", "--group", "12"):
        "0f8ddd5da7a05364d6abb69bedad82efac1780c2208f7c95af5b8c8326b846b8",
    ("tmin", "--order", "4"):
        "9f203f59f9f90e22e8f94ecde4816319d9e4af20e4998f4f99bd3b29d851410e",
    ("scan-threshold", "--group", "6", "--trials", "5", "--grid", "0.5"):
        "ea4f1d9f7d838630a11aaf97fc6dc79ed54fec97bfb27164d22bd20f1d42e697",
    ("lift-z", "--ints=-3,2", "--mode", "safe"):
        "e983ef7f7fad82db44800720cebf49c332308413efff95ef18aeeb583484b773",
    HUGE_WITNESS:
        "5fc61979107c6689d5d3a99972c7dce0bb10c7b238641b0dfc5ead2068651511",
}


@pytest.mark.parametrize("argv", list(ENVELOPE_DIGESTS))
def test_envelope_is_json_dumps_output(capsys, argv):
    main(list(argv))
    out = capsys.readouterr().out
    assert out == canonical(out)
    assert sha256(without_timing(out)) == ENVELOPE_DIGESTS[argv]


def test_scan_files_are_pinned(tmp_path, capsys):
    out, table = tmp_path / "scan.json", tmp_path / "scan.csv"
    code = main(["scan-threshold", "--group", "2x4", "--trials", "10", "--seed", "5",
                 "--out", str(out), "--csv", str(table)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes() + table.read_bytes()).hexdigest() == (
        "29c2dccde2b3a3eb24a023de9d184ca9fafab411612ff90e32b64be669825659")


def test_envelope_strings_cannot_pose_as_masks(capsys, monkeypatch):
    # strings shaped like a hex mask or like the placeholders the
    # renderer puts where masks go, as values and as a key
    lookalikes = ["0x7", "\x000", "\x001", "\x00\x000", "\x00", "\\u00000",
                  '"\x000"', "a\x000", "\x000\x00"]
    real = cli.exists_witness

    def with_lookalikes(c, *args, **kwargs):
        cert = real(c, *args, **kwargs)
        cert.detail["lookalikes"] = lookalikes
        cert.detail["\x001"] = "\x000"
        return cert

    monkeypatch.setattr(cli, "exists_witness", with_lookalikes)
    code = main(["witness", "--group", "6", "--c", "{0,1,2}"])
    out = capsys.readouterr().out
    assert code == 0 and out == canonical(out)
    env = json.loads(out)
    assert env["inputs"]["c"] == "0x7"
    cert = env["result"]["certificate"]
    assert cert["witness"] == "0x9" and "base" not in cert["detail"]
    assert cert["detail"]["lookalikes"] == lookalikes
    assert cert["detail"]["\x001"] == "\x000"


def test_huge_witness_renders_each_mask_once(capsys, monkeypatch):
    # hex_pieces is the one writer of a set's hex (hex_mask joins it), on
    # plain and on listed sets alike
    calls = []
    for cls in (GroupSet, ListedSet):
        def counted(self, write=cls.__dict__["hex_pieces"]):
            calls.append(self)
            return write(self)

        monkeypatch.setattr(cls, "hex_pieces", counted)
    code = main(list(HUGE_WITNESS))
    out = capsys.readouterr().out
    assert code == 0
    # C (inputs.c) and W
    assert len(calls) == 2 and calls[0] != calls[1]
    env = json.loads(out)
    c = env["inputs"]["c"]
    assert out.count(f'"{c}"') == 1
    # The digest is of the envelope from before masks were rendered once,
    # minus timing, when it repeated C as detail.base: put that key back
    # and the rest must be byte for byte the same.
    env["result"]["certificate"]["detail"]["base"] = c
    text = without_timing(json.dumps(env, indent=2, sort_keys=True) + "\n")
    assert sha256(text) == (
        "17aec5fb534d6d0526b8d63cdb4695d8a049a74a520ebe3d2c45541ec84c0fad")


BIG_WITNESS = ("witness", "--group", "4096x4096", "--c",
               "{(0,0),(17,3001),(905,12),(2048,4095),(3333,777)}")


@pytest.mark.parametrize("argv, digest", [
    (HUGE_WITNESS, ENVELOPE_DIGESTS[HUGE_WITNESS]),
    # recorded when every set built its mask
    (BIG_WITNESS, "4f476b4d3e8abd83f33e53cc03f63a3419625d4717b10eaba6164737e4c00cc1"),
])
def test_random_build_witness_builds_no_mask(capsys, monkeypatch, argv, digest):
    # C from a brace literal and the builder's W are listed sets: the
    # stages, verified_yes's recheck and the printer read their tuples,
    # so the mask slot of neither is ever filled, and nothing reads the
    # group's full mask, which a group of this order builds on first read.
    certs = []
    real = cli.exists_witness
    monkeypatch.setattr(cli, "exists_witness",
                        lambda c, budget: certs.append(real(c, budget)) or certs[-1])
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    (cert,) = certs
    assert cert.method == "random-build"
    assert isinstance(cert.base, ListedSet) and isinstance(cert.witness, ListedSet)
    slot = importlib.import_module("addcomp.sumset")._MASK
    assert slot.__get__(cert.base) is None and slot.__get__(cert.witness) is None
    assert groups._FULL_MASK.__get__(cert.base.group) is None
    assert sha256(without_timing(out)) == digest


def test_closed_stdout_exits_1_without_traceback():
    src = os.path.dirname(os.path.dirname(os.path.abspath(addcomp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "addcomp", *HUGE_WITNESS],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        # the 9 MB envelope cannot fit the pipe, so the writer is still
        # writing when the reader goes away
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_witness_leaves_numpy_unimported():
    # numpy is a test dependency only: with it blocked, the package, the
    # coverage counts and the commands still run
    src = os.path.dirname(os.path.dirname(os.path.abspath(addcomp.__file__)))
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "import addcomp\n"
            "from addcomp import cli\n"
            "g = addcomp.Group([2, 4])\n"
            "w = addcomp.GroupSet.from_elements(g, [0, 4])\n"
            "c = addcomp.GroupSet.from_elements(g, [0, 1, 2, 3, 5])\n"
            "assert addcomp.coverage(w, c).counts == (1, 2, 1, 1, 1, 2, 1, 1)\n"
            "assert cli.main(['witness', '--group', '12', '--c', '{0,1,3}']) == 0\n"
            "assert cli.main(['supplement', '--group', '8', '--c', '{0,1}']) == 0\n"
            "assert cli.main(['tmin', '--group', '2x4']) == 0\n"
            "assert cli.main(['check', '--group', '6', '--w', '{0,3}',"
            " '--c', '{0,1,2}']) == 0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
