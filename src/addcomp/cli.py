"""Command-line front end.

Every command prints one JSON envelope to stdout: version, command,
group, the parsed inputs as hex masks, the certificate or result, the
timing, and the seed when one was in play.  Exit status 0 means a
decided run, 2 an undecided one (unknown verdict or retries exhausted),
and 1 a usage or internal error.  Wall time stays out of any file
written via --out so that reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__
from .builders import (APDescriptor, ap_decide_and_build, lift_integer_window,
                       pair_witness_check, random_witness, trace_to_json)
from .complements import (compute_tmin, essentiality, exists_witness,
                          is_complement, is_minimal_complement_for, tmin_of_order)
from .decision import UNKNOWN, YES, DecisionCertificate, SearchBudget
from .experiments import (report_to_csv, report_to_dict, report_to_json,
                          scan_threshold)
from .groups import Group, Subgroup
from .literals import LiteralError, parse_element, parse_group, parse_set
from .sumset import GroupSet
from .supplements import (is_maximal_supplement_for, is_supplement,
                          maximal_supplement_witness)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sanitize(value):
    if isinstance(value, GroupSet):
        return value.hex_mask()
    if isinstance(value, Subgroup):
        return {"order": value.order, "members": value.members.hex_mask()}
    if isinstance(value, Group):
        return value.spec_string()
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _certificate_json(cert: DecisionCertificate) -> dict:
    return {
        "problem": cert.problem,
        "verdict": cert.verdict,
        "method": cert.method,
        "witness": cert.witness.hex_mask() if cert.witness is not None else None,
        "detail": _sanitize(cert.detail),
    }


def _budget(args) -> Optional[SearchBudget]:
    cap = getattr(args, "max_candidates", None)
    if cap is None:
        return None
    return SearchBudget(max_candidates=cap)


def _cmd_check(args):
    group = parse_group(args.group)
    w = parse_set(group, args.w)
    c = parse_set(group, args.c)
    comp = is_complement(w, c)
    result = {
        "complement": comp,
        "minimal_complement": is_minimal_complement_for(w, c),
        "essential": None,
    }
    if comp:
        rep = essentiality(w, c)
        result["essential"] = rep.essential.hex_mask()
        result["essential_elements"] = rep.essential.elements()
    return group, {"w": w.hex_mask(), "c": c.hex_mask()}, result, None, 0


def _cmd_witness(args):
    group = parse_group(args.group)
    c = parse_set(group, args.c)
    cert = exists_witness(c, _budget(args), fast_paths=not args.no_fast_paths)
    code = 0 if cert.verdict != UNKNOWN else 2
    return (group, {"c": c.hex_mask()}, {"certificate": _certificate_json(cert)},
            None, code)


def _cmd_ap(args):
    group = parse_group(args.group)
    start = parse_element(group, args.start)
    step = parse_element(group, args.step)
    if args.len < 1:
        raise _UsageError("length must be positive")
    mask = 0
    cur = start
    for _ in range(args.len):
        bit = 1 << cur
        if mask & bit:
            raise _UsageError("progression revisits an element; shorten it")
        mask |= bit
        cur = group.add(cur, step)
    ap = APDescriptor(GroupSet(group, mask), start,
                      step if args.len > 1 else 0, args.len)
    cert = ap_decide_and_build(ap)
    return (group, {"start": start, "step": step, "len": args.len,
                    "c": ap.set.hex_mask()},
            {"certificate": _certificate_json(cert)}, None, 0)


def _cmd_pair(args):
    group = parse_group(args.group)
    c = parse_set(group, args.c)
    a = parse_element(group, args.a)
    ok = pair_witness_check(c, a)
    return (group, {"c": c.hex_mask(), "a": a},
            {"pair_witness": ok, "w": GroupSet.from_elements(group, [0, a]).hex_mask()},
            None, 0)


def _cmd_random_build(args):
    group = parse_group(args.group)
    c = parse_set(group, args.c)
    trace = random_witness(c, args.s, max_retries=args.retries, seed=args.seed)
    code = 0 if trace.result is not None else 2
    return (group, {"c": c.hex_mask(), "s": args.s},
            {"trace": trace_to_json(trace)}, args.seed, code)


def _cmd_supplement(args):
    group = parse_group(args.group)
    c = parse_set(group, args.c)
    if args.w is not None:
        w = parse_set(group, args.w)
        result = {
            "supplement": is_supplement(w, c),
            "maximal": is_maximal_supplement_for(w, c),
        }
        return group, {"c": c.hex_mask(), "w": w.hex_mask()}, result, None, 0
    cert = maximal_supplement_witness(c, _budget(args))
    code = 0 if cert.verdict != UNKNOWN else 2
    return (group, {"c": c.hex_mask()},
            {"certificate": _certificate_json(cert)}, None, code)


def _cmd_tmin(args):
    if (args.group is None) == (args.order is None):
        raise _UsageError("give exactly one of --group or --order")
    if args.group is not None:
        group = parse_group(args.group)
        rep = compute_tmin(group, _budget(args))
        result = {
            "value": rep.value,
            "exact": rep.exact,
            "first_failing": rep.first_failing.hex_mask() if rep.first_failing else None,
            "subsets_checked": rep.subsets_checked,
        }
        return group, {}, result, None, 0 if rep.exact else 2
    value, exact, reports = tmin_of_order(args.order, _budget(args))
    result = {
        "value": value,
        "exact": exact,
        "per_group": [{"group": rep.group.spec_string(), "value": rep.value,
                       "exact": rep.exact} for rep in reports],
    }
    return None, {"order": args.order}, result, None, 0 if exact else 2


def _cmd_scan_threshold(args):
    group = parse_group(args.group)
    grid = None
    if args.grid:
        try:
            grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
        except ValueError as exc:
            raise _UsageError(f"bad grid: {exc}")
    report = scan_threshold(group, grid, trials=args.trials, seed=args.seed,
                            budget=_budget(args))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_to_json(report))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report_to_csv(report))
    code = 2 if any(row.unknown for row in report.rows) else 0
    return (group, {"trials": args.trials}, {"report": report_to_dict(report)},
            args.seed, code)


def _cmd_lift_z(args):
    try:
        ints = [int(tok) for tok in args.ints.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad integer list: {exc}")
    lift = lift_integer_window(ints, mode=args.mode, budget=_budget(args))
    group = lift.witness.group
    result = {
        "modulus": lift.modulus,
        "witness": lift.witness.hex_mask(),
        "residues": lift.residues.hex_mask(),
        "method": lift.method,
        "mode": lift.mode,
        "skipped_moduli": list(lift.skipped),
    }
    return group, {"ints": list(lift.c_ints)}, result, None, 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="addcomp",
                     description="Minimal complements and maximal supplements "
                                 "in finite abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("check", _cmd_check, "check a (W, C) pair")
    p.add_argument("--group", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--c", required=True)

    p = add("witness", _cmd_witness, "decide whether C has any witness W")
    p.add_argument("--group", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--no-fast-paths", action="store_true")
    p.add_argument("--max-candidates", type=int)

    p = add("ap", _cmd_ap, "decide a progression and build its witness")
    p.add_argument("--group", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--len", type=int, required=True)

    p = add("pair", _cmd_pair, "test C against the witness {0, a}")
    p.add_argument("--group", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--a", required=True)

    p = add("random-build", _cmd_random_build, "randomized witness for large groups")
    p.add_argument("--group", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--retries", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = add("supplement", _cmd_supplement, "supplement checks and witnesses")
    p.add_argument("--group", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--w")
    p.add_argument("--max-candidates", type=int)

    p = add("tmin", _cmd_tmin, "largest all-small-sets threshold")
    p.add_argument("--group")
    p.add_argument("--order", type=int)
    p.add_argument("--max-candidates", type=int)

    p = add("scan-threshold", _cmd_scan_threshold, "random-density scan")
    p.add_argument("--group", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--max-candidates", type=int)

    p = add("lift-z", _cmd_lift_z, "realize integers as a cyclic minimal complement")
    p.add_argument("--ints", required=True)
    p.add_argument("--mode", choices=["minimal", "safe"], default="minimal")
    p.add_argument("--max-candidates", type=int)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        group, inputs, result, seed, code = args.func(args)
        envelope = {
            "version": __version__,
            "command": args.command,
            "group": group.spec_string() if group is not None else None,
            "inputs": _sanitize(inputs),
            "result": _sanitize(result),
            "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
            "seed": seed,
        }
        text = json.dumps(envelope, indent=2, sort_keys=True)
    except (_UsageError, LiteralError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    print(text)
    return code


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
