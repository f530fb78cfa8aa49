"""addcomp benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload witness-mid --seed 1 --seconds 10 --trace 0

Steps:
1. Set-up time: start the worker SETUP_PROBES times in set-up mode, half
   of them before step 2 and half after it, and time each from process
   start to its READY line (import addcomp, build the workload's groups,
   one warm-up call).  setup_s is the median of them, each scaled to a
   reference machine speed (see CAL_REF_S).
2. Start the worker in run mode and wait for it.  It runs whole blocks of
   seeded queries closed-loop on one thread and records every outcome.
   For the workloads in workloads.COLD_BLOCKS every block runs in a fresh
   worker, so that nothing a process keeps from one block makes a later
   one cheaper.  --trace 1 runs for half of --seconds this way, then runs
   the same blocks (only the first, for COLD_BLOCKS) once more in a trace
   worker, a fresh process with span wrappers installed.
3. Judge every recorded outcome with the correctness gate (gate.py).
4. Print a report line (environment stamp, shares, failure reasons) and,
   last, the result line:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
both sets are listed in BENCHMARK.json.  Exit code 0 on a completed run,
1 if the worker failed or timed out, 2 if the addcomp sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

SETUP_PROBES = 10
WORKER_TIMEOUT_S = 150.0
# All workers of one run together must end well inside the 180 s a run may take.
RUN_BUDGET_S = 150.0

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def _spawn(args, mode, out_dir=None, seconds=None, extra=()):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds or args.seconds), "--mode", mode, *map(str, extra)]
    if out_dir is not None:
        cmd += ["--out", out_dir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            raise BenchError(f"worker ({mode}) exited before set-up finished")
        cal_s, cal_wall_s = map(float, line.split()[1:])
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) did not finish in {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    return _scaled(ready_s - cal_wall_s, cal_s)


def _worker(args, mode, root, seconds, extra=()):
    """One worker in its own directory under root; returns its summary and
    records (each tagged with that directory, where its envelopes are)."""
    out_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=root)
    _spawn(args, mode, out_dir, seconds, extra)
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "records.jsonl")) as fh:
        records = [dict(json.loads(line), dir=out_dir) for line in fh]
    return summary, records


def run_phase(args, root, seconds):
    """Untraced blocks until their query time reaches `seconds`: in one
    worker, or one fresh worker per block for COLD_BLOCKS workloads.
    Returns (records, timed seconds, blocks, peak RSS in MB)."""
    if args.workload not in workloads.COLD_BLOCKS:
        summary, records = _worker(args, "run", root, seconds)
        return records, summary["timed_s"], summary["blocks"], summary["peak_rss_mb"]
    records, timed_s, peak, b = [], 0.0, 0.0, 0
    started = time.perf_counter()
    while (b < workloads.SHARE_BLOCKS[args.workload]
           or (timed_s < seconds and b < workloads.MAX_BLOCKS[args.workload]
               and time.perf_counter() - started < RUN_BUDGET_S)):
        summary, recs = _worker(args, "run", root, seconds,
                                ("--first-block", b, "--block-limit", 1))
        records += recs
        timed_s += summary["timed_s"]
        peak = max(peak, summary["peak_rss_mb"])
        b += 1
    return records, timed_s, b, peak


def _judge_all(args, records):
    import gate
    judge = gate.Judge()
    blocks = {}
    judged = []
    for rec in records:
        b = rec["block"]
        if b not in blocks:
            blocks[b] = workloads.block(args.workload, args.seed, b)
        query = blocks[b][rec["index"]]

        def load_envelope(name, d=rec["dir"]):
            with open(os.path.join(d, name)) as fh:
                return fh.read()

        judged.append((rec, judge.judge(query, rec, load_envelope)))
    return judged


# Every time is scaled to the machine speed at which the worker's
# calibration loop (worker._cal_loop) takes CAL_REF_S, about full speed on
# the 2-core machine the benchmark was written on.  There a fixed batch of
# queries, timed back to back, runs at one of two or three speeds up to
# 2.2x apart, switching every 0.1-10 s, with stretches of minutes at one
# speed; the calibration loop, sampled while the queries run, slows down
# with them.  Scaling turns those swings into small noise, so runs made at
# different times agree.
CAL_REF_S = 0.00011


def _scaled(seconds, cal_s):
    return seconds * CAL_REF_S / cal_s


def end_to_end(judged, peak_rss_mb, setup_samples, share_blocks):
    """Rates and latency quantiles over every decided query of the run, in
    scaled time; setup_s is the median of the scaled set-up probes.
    Shares count the first share_blocks blocks, whose queries are fixed
    by the seed alone."""
    seconds = sum(_scaled(r["seconds"], r["cal_s"]) for r, _ in judged)
    decided = [(r, o) for r, o in judged if o.kind == "decided"]
    if not decided:
        raise BenchError("no query was decided, so there is no time to a verdict")
    ms = [1000.0 * _scaled(r["seconds"], r["cal_s"]) for r, _ in decided]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    first = [o for r, o in judged if r["block"] < share_blocks]
    return {
        "setup_s": statistics.median(setup_samples),
        "verdicts_per_s": sum(o.verdicts for _, o in decided) / seconds,
        "query_ms_p50": statistics.median(ms),
        "query_ms_p90": p90,
        "decided_share": sum(o.kind == "decided" for o in first) / len(first),
        "answered_share": sum(o.kind != "failed" for o in first) / len(first),
        "peak_rss_mb": peak_rss_mb,
    }


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "addcomp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args):
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
    }


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args):
    units = _units()
    os.makedirs(TMP_ROOT, exist_ok=True)
    root = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        setup_samples = [_spawn(args, "setup") for _ in range(SETUP_PROBES // 2)]
        seconds = args.seconds / 2.0 if args.trace else args.seconds
        records, timed_s, blocks, peak_rss_mb = run_phase(args, root, seconds)
        setup_samples += [_spawn(args, "setup") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        if args.trace:
            traced = 1 if args.workload in workloads.COLD_BLOCKS else blocks
            untraced_s = sum(r["seconds"] for r in records if r["block"] < traced)
            summary, records = _worker(args, "trace", root, seconds,
                                       ("--blocks", traced, "--untraced-s", untraced_s))
            timed_s, blocks = summary["timed_s"], traced
        judged = _judge_all(args, records)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    attempted = len(judged)
    failed = sum(o.kind == "failed" for _, o in judged)
    if args.trace:
        values = summary["layers"]
    else:
        values = end_to_end(judged, peak_rss_mb, setup_samples,
                            workloads.SHARE_BLOCKS[args.workload])
    missing = sorted(set(values) - set(units))
    if missing:
        raise BenchError(f"metrics not listed in BENCHMARK.json: {missing}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    report = {
        "env": environment(args),
        "blocks": blocks,
        "timed_s": timed_s,
        "setup_samples_s": setup_samples,
        "decided_queries": sum(o.kind == "decided" for _, o in judged),
        "unknown_share": sum(o.kind == "unknown" for _, o in judged) / attempted,
        "unchecked_share": sum(o.kind == "unchecked" for _, o in judged) / attempted,
        "error_share": failed / attempted,
        "outcomes": dict(Counter(o.reason or o.kind for _, o in judged)),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not any(o.wrong for _, o in judged),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "addcomp", "__init__.py")):
        print(f"error: addcomp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
