"""Benchmark worker: set up one workload, run it closed-loop, record outcomes.

run.py starts this script as a child process so that ru_maxrss is the
program's own and the correctness gate (run afterwards by the parent)
neither shares the timed process nor its memory high-water mark.

Modes:
  setup   import addcomp, build the workload's groups, make one warm-up
          call, print READY and exit.
  run     setup, print READY, then run whole blocks of queries from
          --first-block on until the summed query time reaches --seconds
          (or --block-limit blocks have run).
  trace   setup, print READY, run blocks 0 .. --blocks - 1 with span
          wrappers installed, then replay sampled inputs into the hot
          kernels.  --untraced-s is the untraced time of the same blocks,
          the base of the tracing overhead.

One query runs at a time on one thread; the next starts when the previous
one returns.  Only the call into addcomp is timed.  Each outcome is
written to records.jsonl in --out (CLI envelopes to their own files)
between queries, outside the timed region.

The machine's speed is measured while the work it scales runs (see
Speedometer).  Every record carries the mean speed sample of its window:
the queries since the last mark, which is made whenever CAL_EVERY_S of
query time has passed or a block ends.  The READY line carries the mean
sample over set-up and the time all samples so far took.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import workloads  # noqa: E402


CAL_ITERATIONS = 400
SAMPLE_EVERY_S = 0.025
MARK_SAMPLES = 8
CAL_EVERY_S = 0.1


def _cal_loop() -> float:
    """Seconds a fixed stdlib-only loop takes now, garbage collection off.
    It never touches addcomp, so only the machine's speed moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, x = {}, 12345
        for _ in range(CAL_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            table[x & 255] = table.get(x & 255, 0) + (x >> 7)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples the machine's speed while the worker runs.

    A timer signal runs _cal_loop every SAMPLE_EVERY_S of wall time, in
    the middle of a long call into addcomp too; `spent` sums the time the
    samples took, which Runner.timed takes out of the time it measures.
    mark() adds MARK_SAMPLES samples and returns the mean of every sample
    since the previous mark, that mark's included: the speed over the
    window between the two.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(_cal_loop())
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def mark(self) -> float:
        for _ in range(MARK_SAMPLES):
            self._sample()
        window = self.samples
        self.samples = window[-MARK_SAMPLES:]
        return statistics.fmean(window)


SPEED = Speedometer()


def _import_addcomp():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import addcomp  # noqa: F401
    from addcomp import cli, complements, experiments, groups, supplements
    return cli, complements, experiments, groups, supplements


# Fixed warm-up call per workload, so set-up time does not depend on the
# seed.  The tmin-small one uses a group no block uses, so that nothing the
# program keeps from it answers a timed call.
WARMUP = {
    "tmin-small": ("tmin", (10,)),
    "witness-mid": ("witness", (8, 8), (0, 1, 3, 9, 20, 27, 41, 50, 62)),
    "witness-large": ("cli", ("witness", "--group", "10000000", "--c",
                              "{0,11,5225,90125,443211}"), {}),
    "supplement-small": ("supplement", (12,), (0, 1, 3, 7)),
}

_WORKLOAD_GROUPS = {
    "tmin-small": workloads.TMIN_GROUPS + workloads.SCAN_GROUPS,
    "witness-mid": workloads.MID_GROUPS,
    "witness-large": tuple(workloads.parse_spec(s)
                           for s, _ in workloads.LARGE_WITNESS_SLOTS),
    "supplement-small": workloads.SUPP_SMALL + workloads.SUPP_LARGE,
}


class Runner:
    """Executes queries against addcomp and turns results into records."""

    def __init__(self, workload: str):
        (self.cli, self.complements, self.experiments, self.groups,
         self.supplements) = _import_addcomp()
        from addcomp.sumset import GroupSet
        self.GroupSet = GroupSet
        self.group_cache = {f: self.groups.Group(f)
                            for f in _WORKLOAD_GROUPS[workload]}

    def group(self, factors):
        g = self.group_cache.get(factors)
        if g is None:
            g = self.group_cache[factors] = self.groups.Group(factors)
        return g

    def prepare(self, query):
        """Build the call's arguments; not timed."""
        kind = query[0]
        if kind in ("witness", "supplement"):
            return self.GroupSet.from_elements(self.group(query[1]), query[2])
        if kind in ("tmin", "scan"):
            return self.group(query[1])
        return list(query[1])

    def call(self, query, arg):
        """The timed call.  Looks each entry point up on its module so
        that trace wrappers installed there are seen."""
        kind = query[0]
        if kind == "witness":
            return self.complements.exists_witness(arg)
        if kind == "supplement":
            return self.supplements.maximal_supplement_witness(arg)
        if kind == "tmin":
            return self.complements.compute_tmin(arg)
        if kind == "scan":
            return self.experiments.scan_threshold(arg, trials=query[2], seed=query[3])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(arg)
        return code, out.getvalue(), err.getvalue()

    def timed(self, query):
        arg = self.prepare(query)
        spent = SPEED.spent
        t0 = time.perf_counter()
        try:
            result, exc = self.call(query, arg), None
        except Exception as e:  # a raising query is a recorded failure
            result, exc = None, e
        return time.perf_counter() - t0 - (SPEED.spent - spent), result, exc


def _cert_record(cert) -> dict:
    detail = {}
    for key in ("size", "cap", "subgroup_order", "violator", "candidates", "nodes"):
        if key in cert.detail:
            detail[key] = cert.detail[key]
    return {
        "verdict": cert.verdict,
        "method": cert.method,
        "witness": hex(cert.witness.mask) if cert.witness is not None else None,
        "detail": detail,
    }


def to_record(query, seconds, result, exc, out_dir, tag) -> dict:
    rec = {"seconds": seconds}
    if exc is not None:
        rec["raised"] = f"{type(exc).__name__}: {exc}"[:300]
        return rec
    kind = query[0]
    if kind in ("witness", "supplement"):
        rec.update(_cert_record(result))
    elif kind == "tmin":
        rec.update({
            "value": result.value,
            "exact": result.exact,
            "first_failing": (hex(result.first_failing.mask)
                              if result.first_failing is not None else None),
            "subsets_checked": result.subsets_checked,
        })
    elif kind == "scan":
        rec["rows"] = [[r.p, r.trials, r.skipped, r.yes, r.no, r.unknown]
                       for r in result.rows]
    else:
        code, out, err = result
        rec["exit"] = code
        rec["stdout_bytes"] = len(out)
        rec["stderr"] = err[:300]
        if out:
            name = f"envelope-{tag}.json"
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(out)
            rec["envelope"] = name
    return rec


def run_blocks(runner, workload, seed, blocks, out_dir, phase, sink, observe=None):
    """Run the given blocks in order; return the summed query time."""
    total = since = 0.0
    SPEED.mark()
    pending = []
    for b in blocks:
        queries = workloads.block(workload, seed, b)
        for i, query in enumerate(queries):
            if observe is not None:
                observe.begin_query((b, i))
            seconds, result, exc = runner.timed(query)
            total += seconds
            since += seconds
            rec = to_record(query, seconds, result, exc, out_dir, f"{phase}-{b}-{i}")
            rec.update({"phase": phase, "block": b, "index": i, "pid": os.getpid()})
            if observe is not None:
                observe.after_query(query, result)
            pending.append(rec)
            # Drop this result (a CLI envelope can be megabytes) before the
            # next call, so it does not count toward that call's peak RSS.
            result = rec = None
            if since >= CAL_EVERY_S or i == len(queries) - 1:
                cal_s = SPEED.mark()
                for r in pending:
                    r["cal_s"] = cal_s
                    sink.write(json.dumps(r) + "\n")
                pending.clear()
                since = 0.0
    return total


def run_until(runner, workload, seed, seconds, first, limit, out_dir, sink):
    """Whole blocks from `first` on until the summed query time reaches
    `seconds`, but at least up to the workload's share blocks and at most
    `limit` blocks or up to its block cap."""
    total = 0.0
    b = first
    while True:
        total += run_blocks(runner, workload, seed, [b], out_dir, "timed", sink)
        b += 1
        if (b - first >= limit or b >= workloads.MAX_BLOCKS[workload]
                or (total >= seconds and b >= workloads.SHARE_BLOCKS[workload])):
            return total, b - first


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out")
    ap.add_argument("--first-block", type=int, default=0)
    ap.add_argument("--block-limit", type=int, default=1 << 30)
    ap.add_argument("--blocks", type=int, default=1)
    ap.add_argument("--untraced-s", type=float, default=0.0)
    args = ap.parse_args(argv)

    SPEED.start()
    try:
        return _main(args)
    finally:
        SPEED.stop()


def _main(args) -> int:
    SPEED.mark()
    runner = Runner(args.workload)
    exc = runner.timed(WARMUP[args.workload])[2]
    if exc is not None:
        raise exc
    print(f"READY {SPEED.mark()} {SPEED.spent}", flush=True)
    if args.mode == "setup":
        return 0

    summary = {}
    with open(os.path.join(args.out, "records.jsonl"), "w") as sink:
        if args.mode == "run":
            timed_s, blocks = run_until(runner, args.workload, args.seed, args.seconds,
                                        args.first_block, args.block_limit, args.out, sink)
            summary.update({"timed_s": timed_s, "blocks": blocks,
                            "peak_rss_mb": _maxrss_mb()})
        else:
            # Trace times are not scaled; keep the samples out of the spans.
            SPEED.stop()
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s = run_blocks(runner, args.workload, args.seed,
                                      range(args.blocks), args.out, "traced", sink,
                                      observe=tracer)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(traced_s, args.untraced_s)
            layers.update(tracing.replay_kernels(tracer.samples))
            summary.update({"timed_s": traced_s, "blocks": args.blocks, "layers": layers})
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
