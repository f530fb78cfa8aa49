"""Density-threshold experiments over random subsets.

Each trial draws a subset by keeping every group element independently
with probability p, then asks exists_witness for a verdict.  Streams are
derived per (p, trial) coordinate, so rows are reproducible regardless
of evaluation order, and the canonical report deliberately carries no
wall-clock data: two runs with the same inputs must serialize to the
same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, astuple, dataclass, fields
from typing import Optional, Sequence

from .complements import _search_fits, exists_witness
from .decision import NO, UNKNOWN, YES, SearchBudget
from .groups import Group, unit_multipliers
from .rng import SplitMix64, derive_seed
from .sumset import GroupSet, bits_of, translate_mask

DEFAULT_GRID = tuple(j / 20 for j in range(21))


@dataclass(frozen=True)
class ScanRow:
    p: float
    trials: int
    skipped: int
    yes: int
    no: int
    unknown: int
    freq_yes: float
    mean_size: float


@dataclass(frozen=True)
class ScanReport:
    group: Group
    seed: int
    trials_per_p: int
    rows: tuple[ScanRow, ...]


def _draw(group: Group, rng: SplitMix64, threshold: int) -> GroupSet:
    """Keep each element e with probability threshold / 2**64.

    e is kept when the e-th of n successive outputs of rng is below
    threshold, read in one SplitMix64.chances call: the set of n
    successive chance calls, one per element in order, which is how
    perfbench/gate.py redraws a scan's sizes.
    """
    return GroupSet(group, rng.chances(threshold, group.order))


def scan_threshold(group: Group, p_values: Optional[Sequence[float]] = None,
                   trials: int = 200, seed: int = 0,
                   budget: Optional[SearchBudget] = None) -> ScanReport:
    """Verdict counts of `trials` random subsets per density in the grid.

    The verdict does not change under C -> u*C + t, u prime to the
    exponent, since x -> u*x is an automorphism (see
    complements.compute_tmin).  A decided draw is filed only under its
    through-0 translates; a draw q is looked up as q0 = q - min(q) and,
    when that misses, as u*q0 for every unit u != 1
    (groups.unit_multipliers), a through-0 translate of u*q, so no
    translate is made per unit.  q = u*d + t for a filed d exactly when
    some u^-1 * q is a translate of d, so a draw is answered from the memo
    exactly when an orbit-mate was decided, as if each orbit were filed
    whole, while a few draws per density, which meet few orbit-mates, file
    nothing they do not meet.  A draw found through a unit multiple is
    filed under q0 as well, since small sets are drawn again and again.
    Answers are filed where the search fits the budget, as in
    compute_tmin; past that gate the memo stays empty, and the unit
    tables, built on the first miss that finds the memo non-empty, are
    never built.  The counts are those of deciding every draw on its own.
    """
    if trials < 1:
        raise ValueError("need at least one trial per density")
    grid = DEFAULT_GRID if p_values is None else tuple(p_values)
    if not grid:
        raise ValueError("need at least one density")
    for p in grid:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"density {p} outside [0, 1]")
    fits = _search_fits(group.order, budget or SearchBudget())
    memo: dict[int, str] = {}  # through-0 mask -> verdict
    moves: Optional[list[list[int]]] = None  # x -> 1 << u*x per unit u != 1
    neg = group.negator()
    rows = []
    for pi, p in enumerate(grid):
        threshold = min(int(p * 2.0 ** 64), 1 << 64)
        counts = Counter()  # verdicts of this density's draws, "skipped" if empty
        size_total = 0
        for t in range(trials):
            rng = SplitMix64(derive_seed(seed, pi, t))
            c = _draw(group, rng, threshold)
            size_total += len(c)
            if not c:
                counts["skipped"] += 1
                continue
            mask, verdict = c.mask, None
            if memo:
                q0 = translate_mask(group, mask, neg((mask & -mask).bit_length() - 1))
                verdict = memo.get(q0)
                if verdict is None:
                    if moves is None:
                        moves = [[1 << group.scale(x, u) for x in range(group.order)]
                                 for u in unit_multipliers(group)[1:]]
                    ec = list(bits_of(q0))
                    for move in moves:
                        verdict = memo.get(sum(map(move.__getitem__, ec)))
                        if verdict is not None:
                            memo[q0] = verdict  # a repeat of q is found by the first lookup
                            break
            if verdict is None:
                verdict = exists_witness(c, budget).verdict
                if fits and verdict != UNKNOWN:
                    for x in bits_of(mask):
                        memo[translate_mask(group, mask, neg(x))] = verdict
            counts[verdict] += 1
        drawn = trials - counts["skipped"]
        rows.append(ScanRow(
            p=p, trials=trials, skipped=counts["skipped"], yes=counts[YES],
            no=counts[NO], unknown=counts[UNKNOWN], freq_yes=counts[YES] / trials,
            mean_size=(size_total / drawn) if drawn else 0.0))
    return ScanReport(group, seed, trials, tuple(rows))


def report_to_dict(report: ScanReport) -> dict:
    return {
        "version": "1",
        "kind": "scan-threshold",
        "group": report.group.spec_string(),
        "seed": report.seed,
        "trials_per_p": report.trials_per_p,
        "rows": [asdict(row) for row in report.rows],
    }


def report_to_json(report: ScanReport) -> str:
    """Canonical byte-stable serialization of a scan report."""
    return json.dumps(report_to_dict(report), sort_keys=True,
                      separators=(",", ":")) + "\n"


def report_to_csv(report: ScanReport) -> str:
    """The same rows as the JSON report, one line per density."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in fields(ScanRow))
    writer.writerows(astuple(row) for row in report.rows)
    return buf.getvalue()
