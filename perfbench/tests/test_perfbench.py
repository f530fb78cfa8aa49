"""Tests of the benchmark itself: generator, gate and metric names.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def judge():
    return gate.Judge()


# -- generator --------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_blocks_are_deterministic_per_seed(workload):
    for b in (0, 1):
        assert workloads.block(workload, 7, b) == workloads.block(workload, 7, b)
    assert workloads.block(workload, 7, 0) != workloads.block(workload, 8, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_block_composition_does_not_depend_on_seed(workload):
    def shape(q):
        if q[0] == "cli":
            return (q[1][0], q[1][2], len(q[2].get("elements", q[2].get("ints", ()))))
        if q[0] in ("witness", "supplement"):
            return (q[0], q[1], len(q[2]))
        return (q[0], q[1])

    a = sorted(map(shape, workloads.block(workload, 1, 0)))
    b = sorted(map(shape, workloads.block(workload, 2, 3)))
    assert a == b


def test_known_defect_inputs_stay_in_witness_large():
    blk = workloads.block("witness-large", 5, 0)
    lifts = {q[2]["ints"] for q in blk if q[2]["cmd"] == "lift-z"}
    assert lifts == set(workloads.LIFT_SAFE_INTS)
    specs = {q[1][2] for q in blk if q[2]["cmd"] == "witness"}
    assert {"10000", "100000", "1000000", "4000000", "1000x1000"} <= specs


def test_set_literal_uses_coordinates_for_products():
    assert workloads.set_literal((4096, 4096), [0, 4097]) == "{(0,0),(1,1)}"
    assert workloads.set_literal((10,), [3, 1]) == "{1,3}"


# -- gate: independent checks ----------------------------------------------

@pytest.mark.parametrize("factors", [(12,), (2, 6), (3, 4), (2, 2, 3)])
def test_numpy_check_agrees_with_oracle(judge, factors):
    rng = random.Random(3)
    n = workloads.group_order(factors)
    for _ in range(200):
        w = rng.randrange(1, 1 << n)
        c = sorted(rng.sample(range(n), rng.randint(1, 4)))
        expect = judge.oracle.oracle_is_minimal_complement_for(
            judge.gs(factors, w), judge.gs(factors, gate._mask(c)))
        assert gate.numpy_is_minimal_complement(factors, w, c) == expect


@pytest.mark.parametrize("factors", [(12,), (2, 6), (4, 6), (2, 2, 10), (3, 9, 4)])
def test_subgroup_order_agrees_with_closure(factors):
    rng = random.Random(5)
    n = workloads.group_order(factors)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, factors))

    for _ in range(30):
        gens = [workloads.coords_of(factors, rng.randrange(n)) for _ in range(rng.randint(1, 3))]
        members, frontier = {tuple([0] * len(factors))}, [tuple([0] * len(factors))]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = add(x, g)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        assert gate.subgroup_order(factors, gens) == len(members)


@pytest.mark.parametrize("factors", [(8,), (2, 4), (2, 2, 2), (9,), (10,)])
def test_numpy_supplement_search_agrees_with_oracle(judge, factors):
    rng = random.Random(4)
    n = workloads.group_order(factors)
    grp = judge.group(factors)
    search = gate.SupplementSearch(judge.oracle._add_table(grp), judge.oracle._neg_vector(grp))
    for _ in range(25):
        c = sorted({0} | set(rng.sample(range(1, n), rng.randint(1, n // 2))))
        expect = judge.oracle.oracle_maximal_supplement(judge.gs(factors, gate._mask(c)))
        assert search.exists(c) == (expect is not None)


# -- gate: planted errors ----------------------------------------------------

def _judge(judge, query, rec):
    return judge.judge(query, rec, lambda name: rec["_envelope"])


def test_planted_wrong_witness_is_an_error(judge):
    query = ("witness", (6,), (0, 1, 2))
    good = {"verdict": "yes", "method": "construction-ap", "witness": "0x9", "detail": {}}
    assert _judge(judge, query, good).kind == "decided"
    bad = dict(good, witness="0x1")
    out = _judge(judge, query, bad)
    assert out.kind == "failed" and out.wrong


def test_planted_wrong_witness_in_a_large_cli_envelope_is_an_error(judge):
    factors, elements = (2000,), (0, 1)
    check = {"cmd": "witness", "factors": factors, "elements": elements}
    query = ("cli", ("witness", "--group", "2000", "--c", "{0,1}"), check)
    good_w = sum(1 << i for i in range(0, 2000, 2))

    def rec(w):
        env = {"command": "witness", "inputs": {"c": "0x3"},
               "result": {"certificate": {"verdict": "yes", "method": "construction-ap",
                                          "witness": hex(w), "detail": {}}}}
        return {"exit": 0, "envelope": "e", "_envelope": json.dumps(env)}

    assert _judge(judge, query, rec(good_w)).kind == "decided"
    out = _judge(judge, query, rec(good_w & ~1))
    assert out.kind == "failed" and out.wrong


def test_planted_yes_no_flip_is_an_error(judge):
    # {0,1,2} in Z6 has a witness; a "no" for it must not pass.
    query = ("witness", (6,), (0, 1, 2))
    for method in ("bound-size-gap", "bound-subgroup-gap", "exhaustive"):
        out = _judge(judge, query, {"verdict": "no", "method": method,
                                    "witness": None, "detail": {}})
        assert out.kind == "failed" and out.wrong, method


@pytest.mark.parametrize("factors", [(8,), (12,)])
def test_planted_supplement_flip_is_an_error(judge, factors):
    c = (0, 1)
    assert judge.supplement_exists(factors, c)
    out = _judge(judge, ("supplement", factors, c),
                 {"verdict": "no", "method": "exhaustive", "witness": None, "detail": {}})
    assert out.kind == "failed" and out.wrong


def test_no_that_cannot_be_rechecked_is_not_an_error(judge):
    # An exhaustive no at n = 40 is beyond the reference search: it earns
    # no credit, but it is not judged wrong.
    out = _judge(judge, ("witness", (40,), (0, 1, 5, 7, 20)),
                 {"verdict": "no", "method": "exhaustive", "witness": None, "detail": {}})
    assert out.kind == "unchecked" and not out.wrong and out.verdicts == 0
    out = _judge(judge, ("supplement", (20,), (0, 1, 5, 7)),
                 {"verdict": "no", "method": "some-new-obstruction", "witness": None,
                  "detail": {}})
    assert out.kind == "unchecked" and not out.wrong


def test_subgroup_gap_no_is_rechecked_on_large_product_groups(judge):
    # 1700 points of the subgroup {(a, b) : b even} of order 2048 in 64x64,
    # where the subgroup bound holds; a random C does not.
    factors = (64, 64)
    subgroup = sorted(a + 64 * b for a in range(64) for b in range(0, 64, 2))
    rec = {"verdict": "no", "method": "bound-subgroup-gap", "witness": None, "detail": {}}
    assert _judge(judge, ("witness", factors, tuple(subgroup[:1700])), rec).kind == "decided"
    out = _judge(judge, ("witness", factors, (0, 5, 65, 999, 2345)), rec)
    assert out.kind == "failed" and out.wrong


def _scan_rec(n, trials, seed, t_ref):
    """Scan rows that answer every drawn set as its size dictates."""
    rows = []
    for sizes in gate._scan_draws(n, trials, seed):
        yes = sum(1 for s in sizes if 0 < s <= t_ref)
        no = sum(1 for s in sizes if 2 * n < 3 * s < 3 * n)
        skipped = sizes.count(0)
        rows.append([0.5, trials, skipped, yes, no, trials - skipped - yes - no])
    return {"rows": rows}


def test_scan_row_unknown_is_not_an_error_but_a_flip_is(judge):
    query = ("scan", (16,), 10, 1)
    t_ref = judge.reference["tmin"]["16"]["value"]
    rec = _scan_rec(16, 10, 1, t_ref)
    assert not _judge(judge, query, rec).wrong
    row = next(r for r in rec["rows"] if r[3] > 0)
    row[3] -= 1
    row[5] += 1           # a must-yes set answered unknown
    out = _judge(judge, query, rec)
    assert out.kind == "unknown" and not out.wrong
    row[5] -= 1
    row[4] += 1           # the same set answered no: a flip
    out = _judge(judge, query, rec)
    assert out.kind == "failed" and out.wrong


def test_unknown_to_decided_is_not_an_error(judge):
    query = ("witness", (40,), (0, 1, 5, 7, 20))
    out = _judge(judge, query, {"verdict": "unknown", "method": "budget",
                                "witness": None, "detail": {}})
    assert out.kind == "unknown" and not out.wrong


def test_wrong_tmin_value_is_an_error(judge):
    rec = {"value": 5, "exact": True, "first_failing": "0x147", "subsets_checked": 255}
    out = _judge(judge, ("tmin", (12,)), rec)
    assert out.kind == "failed" and out.wrong
    rec["value"] = 4
    assert _judge(judge, ("tmin", (12,)), rec).kind == "decided"


def test_crash_without_envelope_fails_but_is_not_wrong(judge):
    query = workloads.block("witness-large", 1, 0)[0]
    out = _judge(judge, query, {"seconds": 0.1, "raised": "ValueError: digits"})
    assert out.kind == "failed" and not out.wrong
    out = _judge(judge, ("cli", ("lift-z",), {"cmd": "lift-z", "ints": (0, 2, 3, 9)}),
                 {"exit": 1, "stderr": "internal error"})
    assert out.kind == "failed" and not out.wrong


# -- metric names -------------------------------------------------------------

def test_benchmark_json_names_are_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_names_match_benchmark_json():
    spec = _spec()
    tr = tracing.Tracer()
    names = set(tr.layer_metrics(1.0, 1.0)) | set(tracing.replay_kernels({}))
    assert names == {m["name"] for m in spec["per_layer"]}


# -- speed samples ----------------------------------------------------------------

def test_speed_is_sampled_inside_long_calls():
    speed = worker.Speedometer()
    speed.start()
    try:
        speed.mark()
        spent, t0 = speed.spent, time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        inside = speed.spent - spent
        n_inside = len(speed.samples) - worker.MARK_SAMPLES
    finally:
        speed.stop()
    assert n_inside >= 5 and inside > 0
    assert speed.mark() > 0 and len(speed.samples) == worker.MARK_SAMPLES


# -- cold blocks ----------------------------------------------------------------

def test_tmin_warmup_group_is_not_in_any_block():
    groups = {q[1] for b in range(3) for q in workloads.block("tmin-small", 1, b)}
    assert worker.WARMUP["tmin-small"][1] not in groups


def test_cold_blocks_run_in_fresh_processes(tmp_path, monkeypatch):
    # A cache that lives as long as the process cannot make block 1 cheaper
    # than block 0: each block runs in its own worker.
    monkeypatch.setitem(workloads.SHARE_BLOCKS, "tmin-small", 2)
    args = argparse.Namespace(workload="tmin-small", seed=1, seconds=1e-9, trace=0)
    records, _, blocks, _ = bench_run.run_phase(args, str(tmp_path), 1e-9)
    assert blocks == 2
    pids = {b: {r["pid"] for r in records if r["block"] == b} for b in (0, 1)}
    assert len(pids[0]) == len(pids[1]) == 1 and pids[0] != pids[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = _spec()
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "witness-mid",
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(NAME_RE.match(k) for k in result["metrics"])
    for key in ("python", "numpy", "cpus", "commit", "seed", "traced"):
        assert key in report["env"]
    assert report["env"]["traced"] is bool(trace)
