import csv
import io

import pytest

from addcomp import experiments
from addcomp.complements import exists_witness
from addcomp.experiments import (DEFAULT_GRID, report_to_csv, report_to_dict,
                                 report_to_json, scan_threshold)
from addcomp.groups import Group


def test_default_grid():
    assert DEFAULT_GRID[0] == 0.0
    assert DEFAULT_GRID[-1] == 1.0
    assert len(DEFAULT_GRID) == 21


def test_scan_edges():
    g = Group([8])
    rep = scan_threshold(g, p_values=[0.0, 1.0], trials=30, seed=4)
    zero, one = rep.rows
    assert zero.skipped == 30 and zero.freq_yes == 0.0
    assert zero.mean_size == 0.0
    assert one.skipped == 0
    assert one.yes == 30 and one.freq_yes == 1.0
    assert one.mean_size == 8.0


def test_scan_counts_add_up():
    g = Group([7])
    rep = scan_threshold(g, p_values=[0.3, 0.6], trials=50, seed=1)
    for row in rep.rows:
        assert row.skipped + row.yes + row.no + row.unknown == row.trials


def test_scan_reproducible():
    g = Group([8])
    a = scan_threshold(g, p_values=[0.4], trials=40, seed=7)
    b = scan_threshold(g, p_values=[0.4], trials=40, seed=7)
    assert report_to_json(a) == report_to_json(b)
    c = scan_threshold(g, p_values=[0.4], trials=40, seed=8)
    assert report_to_json(a) != report_to_json(c)


def test_scan_rejects_bad_args():
    g = Group([6])
    with pytest.raises(ValueError):
        scan_threshold(g, trials=0)
    with pytest.raises(ValueError):
        scan_threshold(g, p_values=[1.5])


def test_report_serializations():
    g = Group([6])
    rep = scan_threshold(g, p_values=[0.0, 0.5], trials=20, seed=2)
    d = report_to_dict(rep)
    assert d["group"] == "6"
    assert d["kind"] == "scan-threshold"
    assert len(d["rows"]) == 2

    blob = report_to_json(rep)
    assert blob.endswith("\n")
    assert " " not in blob.split("\n")[0]

    table = report_to_csv(rep)
    parsed = list(csv.reader(io.StringIO(table)))
    assert parsed[0][0] == "p"
    assert len(parsed) == 3
    # floats survive the round trip exactly
    assert float(parsed[2][0]) == 0.5
    assert int(parsed[1][1]) == 20


@pytest.mark.parametrize("factors, trials", [((16,), 200), ((2, 8), 200), ((24,), 20)])
def test_scan_matches_memo_free_loop(monkeypatch, factors, trials):
    g = Group(factors)
    with_memo = report_to_json(scan_threshold(g, trials=trials, seed=1))

    def every_draw(group, budget=None):
        return lambda c: exists_witness(c, budget).verdict

    monkeypatch.setattr(experiments, "orbit_verdicts", every_draw)
    rep = scan_threshold(g, trials=trials, seed=1)
    assert report_to_json(rep) == with_memo
    if factors == (24,):
        # unknowns are never filed, so each one is decided and counted
        assert sum(row.unknown for row in rep.rows) > 0
