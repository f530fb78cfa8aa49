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

from .complements import unit_orbit_verdicts
# Kept only because perfbench/tracing.py wraps this binding; nothing here
# calls it, so the tracer counts scan_threshold's calls in complements.
from .complements import exists_witness  # noqa: F401
from .decision import NO, UNKNOWN, YES, SearchBudget
from .groups import Group
from .rng import SplitMix64, derive_seed
from .sumset import GroupSet

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
    mask = 0
    for e in range(group.order):
        if rng.chance(threshold):
            mask |= 1 << e
    return GroupSet(group, mask)


def scan_threshold(group: Group, p_values: Optional[Sequence[float]] = None,
                   trials: int = 200, seed: int = 0,
                   budget: Optional[SearchBudget] = None) -> ScanReport:
    """Verdict counts of `trials` random subsets per density in the grid.

    Where the search fits the budget, each orbit under translation x
    unit multipliers is decided at most once per call
    (complements.unit_orbit_verdicts): a decided draw is filed under its
    translates only, and a draw that misses is looked up again as each of
    its unit multiples, since a few draws per density meet few
    orbit-mates.  A draw whose orbit-mate was decided earlier is counted
    without a second decision; the counts are those of deciding every
    draw on its own.
    """
    if trials < 1:
        raise ValueError("need at least one trial per density")
    grid = DEFAULT_GRID if p_values is None else tuple(p_values)
    if not grid:
        raise ValueError("need at least one density")
    for p in grid:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"density {p} outside [0, 1]")
    verdict_of = unit_orbit_verdicts(group, budget)
    rows = []
    for pi, p in enumerate(grid):
        threshold = min(int(p * 2.0 ** 64), 1 << 64)
        counts = Counter()  # verdicts of this density's draws, "skipped" if empty
        size_total = 0
        for t in range(trials):
            rng = SplitMix64(derive_seed(seed, pi, t))
            c = _draw(group, rng, threshold)
            counts[verdict_of(c) if c else "skipped"] += 1
            size_total += len(c)
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
