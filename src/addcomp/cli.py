"""Command-line front end.

Every command prints one JSON envelope to stdout: version, command,
group, the parsed inputs as hex masks, the certificate or result, the
timing, and the seed when one was in play.  Exit status 0 means a
decided run, 2 an undecided one (unknown verdict or retries exhausted),
and 1 a usage or internal error, or stdout closed before the envelope
was written.  Wall time stays out of any file written via --out so that
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .builders import (RANDOM_RETRIES, APDescriptor, ap_decide_and_build,
                       lift_integer_window, pair_witness_check, random_witness,
                       trace_fields)
from .complements import compute_tmin, exists_witness, tmin_of_order
from .decision import MINIMAL_COMPLEMENT, UNKNOWN, DecisionCertificate, SearchBudget
from .experiments import (report_to_csv, report_to_dict, report_to_json,
                          scan_threshold)
from .groups import Group
from .literals import _integer, parse_element, parse_group, parse_set
from .sumset import GroupSet, private_points, progression_sum
from .supplements import maximal_supplement_witness, supplement_status


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _render(envelope: dict) -> list[str]:
    """The pieces of json.dumps(envelope, indent=2, sort_keys=True) + "\n",
    with each GroupSet in envelope as the hex string of its mask, and any
    other value json has no form for as its str().

    json renders everything else, with a placeholder string where each
    GroupSet goes.  Each distinct GroupSet is hex-ed once, as the pieces
    of GroupSet.hex_pieces, and they are spliced in verbatim: "0x..." has
    nothing to escape, and a listed set's hex is never joined into one
    string (its runs of "0" or "f" are one shared string).  A placeholder
    is NUL characters and an index; the NULs are lengthened until their
    JSON form occurs nowhere else in the text, so no other string in the
    envelope can pass for a placeholder.
    """
    sets = {}  # id of a GroupSet -> (index, GroupSet)

    def default(value) -> str:
        nonlocal uses
        if not isinstance(value, GroupSet):
            return str(value)
        uses += 1
        return pad + str(sets.setdefault(id(value), (len(sets), value))[0])

    pad = "\x00"
    while True:
        uses = 0
        text = json.dumps(envelope, indent=2, sort_keys=True, default=default)
        head, *rest = text.split(json.dumps(pad)[:-1])
        if len(rest) == uses:
            break
        pad += "\x00"
    hexes = [gs.hex_pieces() for _, gs in sets.values()]
    # json's encoder functions form a reference cycle that keeps
    # default, and so sets, alive until the next garbage collection;
    # emptying sets lets the masks go as soon as the caller drops them.
    sets.clear()
    pieces = [head]
    for piece in rest:
        index, tail = piece.split('"', 1)
        pieces += ['"', *hexes[int(index)], '"', tail]
    pieces.append("\n")
    return pieces


def _answer(cert: DecisionCertificate) -> tuple[dict, int]:
    """The result field for a certificate, and its exit code (2 if unknown)."""
    fields = {
        "problem": cert.problem,
        "verdict": cert.verdict,
        "method": cert.method,
        "witness": cert.witness,
        "detail": cert.detail,
    }
    return {"certificate": fields}, 2 if cert.verdict == UNKNOWN else 0


def _int(text: str) -> int:
    """An --ints token or integer flag, read by the literals' integer rule."""
    return _integer(text.strip(), "invalid int value: {!r}", text)


_int.__name__ = "int"  # argparse says "invalid int value: ...", as _int does


def _density(text: str) -> float:
    """A --grid token: float's reading of ASCII text without "_"."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _numbers(text: str, convert, what: str) -> list:
    """The comma-separated numbers in text, empty entries skipped."""
    try:
        return [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad {what}: {exc}")


def _held(group: Group) -> Group:
    """group, once a zeroed buffer of n/8 bytes has been made and dropped.

    A group whose n-bit mask cannot be held so fails with MemoryError
    when a command takes it, and not once its envelope, which may print
    sets of n bits, is being written.  The allocator maps those zero
    pages only when they are touched, which they never are: about 80 us
    at n = 2^24 on a 2-core x86 host.
    """
    bytes(-(-group.order // 8))
    return group


def _cmd_check(args):
    group = _held(parse_group(args.group))
    w = parse_set(group, args.w)
    c = parse_set(group, args.c)
    ec = c.elements()
    pts = private_points(w, ec)  # answers all three fields
    comp = not pts.uncovered
    result = {
        "complement": comp,
        "minimal_complement": comp and None not in pts.least,
        "essential": None,
    }
    if comp:
        essential = [e for e, x in zip(ec, pts.least) if x is not None]
        result["essential"] = GroupSet.from_elements(group, essential)
        result["essential_elements"] = essential
    return group, {"w": w, "c": c}, result, None, 0


def _cmd_witness(args):
    group = _held(parse_group(args.group))
    c = parse_set(group, args.c)
    result, code = _answer(exists_witness(c, SearchBudget(args.max_candidates)))
    return group, {"c": c}, result, None, code


def _cmd_ap(args):
    group = _held(parse_group(args.group))
    start = parse_element(group, args.start)
    step = parse_element(group, args.step)
    if args.len < 1:
        raise _UsageError("length must be positive")
    if args.len > group.element_order(step):
        raise _UsageError("progression revisits an element; shorten it")
    c = GroupSet(group, progression_sum(group, 1 << start, step, args.len))
    ap = APDescriptor(c, start, step if args.len > 1 else 0, args.len)
    result, code = _answer(ap_decide_and_build(ap))
    return (group, {"start": start, "step": step, "len": args.len, "c": ap.set},
            result, None, code)


def _cmd_pair(args):
    group = _held(parse_group(args.group))
    c = parse_set(group, args.c)
    a = parse_element(group, args.a)
    ok = pair_witness_check(c, a)
    return (group, {"c": c, "a": a},
            {"pair_witness": ok, "w": GroupSet.from_elements(group, [0, a])}, None, 0)


def _cmd_random_build(args):
    group = _held(parse_group(args.group))
    c = parse_set(group, args.c).listed()  # read by the build and the recheck
    trace = random_witness(c, args.s, max_retries=args.retries, seed=args.seed)
    if trace.result is not None:
        DecisionCertificate.verified_yes(MINIMAL_COMPLEMENT, "random-build", trace.result, c)
    code = 0 if trace.result is not None else 2
    return group, {"c": c, "s": args.s}, {"trace": trace_fields(trace)}, args.seed, code


def _cmd_supplement(args):
    group = _held(parse_group(args.group))
    c = parse_set(group, args.c)
    if args.w is not None:
        w = parse_set(group, args.w)
        supplement, maximal = supplement_status(w, c)
        result = {"supplement": supplement, "maximal": maximal}
        return group, {"c": c, "w": w}, result, None, 0
    result, code = _answer(maximal_supplement_witness(c, SearchBudget(args.max_candidates)))
    return group, {"c": c}, result, None, code


def _cmd_tmin(args):
    if (args.group is None) == (args.order is None):
        raise _UsageError("give exactly one of --group or --order")
    if args.group is not None:
        group = _held(parse_group(args.group))
        rep = compute_tmin(group, SearchBudget(args.max_candidates))
        result = {
            "value": rep.value,
            "exact": rep.exact,
            "first_failing": rep.first_failing,
            "subsets_checked": rep.subsets_checked,
        }
        return group, {}, result, None, 0 if rep.exact else 2
    value, exact, reports = tmin_of_order(args.order, SearchBudget(args.max_candidates))
    result = {
        "value": value,
        "exact": exact,
        "per_group": [{"group": rep.group.spec_string(), "value": rep.value,
                       "exact": rep.exact} for rep in reports],
    }
    return None, {"order": args.order}, result, None, 0 if exact else 2


def _cmd_scan_threshold(args):
    group = _held(parse_group(args.group))
    grid = None if args.grid is None else _numbers(args.grid, _density, "grid")
    report = scan_threshold(group, grid, trials=args.trials, seed=args.seed,
                            budget=SearchBudget(args.max_candidates))
    for path, render in ((args.out, report_to_json), (args.csv, report_to_csv)):
        if path:
            with open(path, "w") as fh:
                fh.write(render(report))
    code = 2 if any(row.unknown for row in report.rows) else 0
    return (group, {"trials": args.trials}, {"report": report_to_dict(report)},
            args.seed, code)


def _cmd_lift_z(args):
    ints = _numbers(args.ints, _int, "integer list")
    lift = lift_integer_window(ints, mode=args.mode, budget=SearchBudget(args.max_candidates))
    group = _held(lift.witness.group)
    result = {
        "modulus": lift.modulus,
        "witness": lift.witness,
        "residues": lift.residues,
        "method": lift.method,
        "mode": lift.mode,
        "skipped_moduli": list(lift.skipped),
    }
    return group, {"ints": list(lift.c_ints)}, result, None, 0


# A flag is (option, add_argument keywords); flags shared by commands are
# declared once here.
_GROUP = ("--group", {})
_C = ("--c", {})
_W = ("--w", {})
_SEED = ("--seed", {"type": _int, "default": 0})
_MAX_CANDIDATES = ("--max-candidates",
                   {"type": _int, "default": SearchBudget().max_candidates})

# One entry per command: (name, handler, help, required flags, optional
# flags).  --help lists the required flags first, each group in order.
_COMMANDS = (
    ("check", _cmd_check, "check a (W, C) pair", (_GROUP, _W, _C), ()),
    ("witness", _cmd_witness, "decide whether C has any witness W",
     (_GROUP, _C), (_MAX_CANDIDATES,)),
    ("ap", _cmd_ap, "decide a progression and build its witness",
     (_GROUP, ("--start", {}), ("--step", {}), ("--len", {"type": _int})), ()),
    ("pair", _cmd_pair, "test C against the witness {0, a}",
     (_GROUP, _C, ("--a", {})), ()),
    ("random-build", _cmd_random_build, "randomized witness for large groups",
     (_GROUP, _C, ("--s", {"type": _int})),
     (("--retries", {"type": _int, "default": RANDOM_RETRIES}), _SEED)),
    ("supplement", _cmd_supplement, "supplement checks and witnesses",
     (_GROUP, _C), (_W, _MAX_CANDIDATES)),
    ("tmin", _cmd_tmin, "largest all-small-sets threshold",
     (), (_GROUP, ("--order", {"type": _int}), _MAX_CANDIDATES)),
    ("scan-threshold", _cmd_scan_threshold, "random-density scan",
     (_GROUP,), (("--trials", {"type": _int, "default": 200}), _SEED, ("--grid", {}),
                 ("--out", {}), ("--csv", {}), _MAX_CANDIDATES)),
    ("lift-z", _cmd_lift_z, "realize integers as a cyclic minimal complement",
     (("--ints", {}),),
     (("--mode", {"choices": ["minimal", "safe"], "default": "minimal"}), _MAX_CANDIDATES)),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="addcomp",
                     description="Minimal complements and maximal supplements "
                                 "in finite abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, required, optional in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for option, keywords in required:
            p.add_argument(option, required=True, **keywords)
        for option, keywords in optional:
            p.add_argument(option, **keywords)
    return parser


_PARSER = _build_parser()  # built once: main may run many times per process


def _glue_negative_ints(argv: list) -> list:
    """Write `--ints -3,2` as `--ints=-3,2`.

    argparse takes a token that starts with "-" and a digit, but is not a
    plain number, for an option, and would report --ints without a value.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--ints" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--ints={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(_glue_negative_ints(sys.argv[1:] if argv is None else argv))
        started = time.perf_counter()
        group, inputs, result, seed, code = args.func(args)
        envelope = {
            "version": __version__,
            "command": args.command,
            "group": group.spec_string() if group is not None else None,
            "inputs": inputs,
            "result": result,
            "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
            "seed": seed,
        }
        pieces = _render(envelope)
    except SystemExit as exc:  # --help, or argparse's own exit
        return 0 if exc.code in (0, None) else 1
    except (_UsageError, ValueError, OSError) as exc:  # LiteralError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the group or set is too large", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    out = sys.stdout
    try:
        for piece in pieces:
            out.write(piece)
        out.flush()
    except OSError as exc:
        # The reader went away (say, `| head`), which ends the command
        # quietly, or the write failed (a full disk, a file size limit),
        # which is one error line.  Either way, point stdout at devnull so
        # that the flush at interpreter exit cannot raise a second time.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 1
    return code


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
