"""Pinned answers: verdicts, methods, witnesses and details do not drift.

Each digest is a sha256 over (verdict, method, witness mask, detail) of
every certificate one seeded batch of calls returns.  The digests were
recorded before the decided set moved out of detail into
DecisionCertificate.base, with detail's "base" key left out, so they
pin every other detail key to its value from before that change.
"""

import hashlib
import random

import pytest

from addcomp import complements
from addcomp.builders import ap_decide_and_build, detect_ap
from addcomp.decision import SearchBudget
from addcomp.experiments import report_to_json, scan_threshold
from addcomp.groups import Group, abelian_groups_of_order
from addcomp.sumset import GroupSet, difference_set
from addcomp.supplements import independent_search, is_solid, maximal_supplement_witness

# The witness-mid groups and densities of the benchmark: same-order
# cyclic and product pairs where the exhaustive search does not fit.
MID_GROUPS = ((24,), (2, 12), (40,), (2, 2, 10), (64,), (8, 8), (100,), (4, 25))
MID_DENSITIES = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6)
# The supplement-small groups and fractions of the benchmark.
SUPP_GROUPS = ((8,), (2, 4), (2, 2, 2), (9,), (10,), (12,), (2, 6), (14,),
               (17,), (20,), (24,), (2, 12), (27,), (32,), (4, 8))
SUPP_FRACTIONS = (0.2, 0.3, 0.4, 0.5)
TMIN_GROUPS = ((12,), (2, 6), (14,), (2, 2, 4))
# Recorded when orbit_verdicts began filing every answer where the search
# fits, so the walk asks for fewer certificates; that they are a subsequence
# of the orbit-free walk's is checked in test_complements.py.  The two
# product groups were recorded again when compute_tmin's orbits grew from
# the unit multipliers to all of Aut(G): (2, 6) asks for 23 certificates in
# place of 54, (2, 2, 4) for 21 in place of 125.
TMIN_DIGESTS = {
    (12,): "0b227b77358124fa0e3877391938b8cbf5c9e50c2ccc0d594ef0285a71ad6e96",
    (2, 6): "50e7f67c62387ebce6ac61bf965ea678c0ba8a30fcd6ddf7415648f446d2dcf2",
    (14,): "c7114cdeef33c1737e9a945d0886033a33563c26f2c96b3a4f7b4c49a138234e",
    (2, 2, 4): "a71e64b705f67ce6008037cf4daa03caabe62a12639cc297d5c48884cc02aed3",
}
# The search caps: none, the first node only, and two that cut a search
# part way through.
SEARCH_CAPS = (None, 1, 5, 37)
# Recorded before the search loop was rewritten node for node, so they pin
# its witnesses and node counts, and the scans' reports, to the old loop's.
SEARCH_DIGEST = "98f1a4c84d91b96f230a7a86bb9cb6a8a6f137938439d03841d57c98bfb3f5b2"
SCAN_DIGEST = "2006bdf1f12629e53759f2e3d0f45d2530586e2e7c35cb530a209c40c269798f"
# Recorded before independent_search's bound was tested on masks in place
# of a sumset of GroupSets, so it pins R, the node counts and completeness
# of both call shapes to the sumset bound's.
INDEPENDENT_CAPS = (1, 2, SearchBudget().max_candidates)
INDEPENDENT_DIGEST = "9eaefa9c0abceb1c5d9f0fe99730bd552c09c6201349955063acdc3050b38c1c"
# Recorded while <step> and its coset box still came from a kept table of
# closed subgroups, so they pin the progression answers to closure's.
PROGRESSION_DIGEST = "b5a308662e1a2f969c8b1d3fa720adc1a1cfb836bbf4b9df3ed186fe58edbb0d"


def _random_set(rng, group, k):
    """0 plus k - 1 distinct non-zero elements."""
    return GroupSet.from_elements(group, [0] + rng.sample(range(1, group.order), k - 1))


def _row(cert):
    witness = None if cert.witness is None else cert.witness.mask
    detail = sorted(cert.detail.items())
    return repr((cert.verdict, cert.method, witness, detail))


def _digest(rows):
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_witness_mid_answers_are_pinned():
    rng = random.Random("pinned:witness-mid")
    rows = []
    for factors in MID_GROUPS:
        g = Group(list(factors))
        for p in MID_DENSITIES:
            for _ in range(2):
                c = _random_set(rng, g, max(1, round(p * g.order)))
                rows.append(_row(complements.exists_witness(c)))
    assert _digest(rows) == (
        "61cab5f2a5b9c988454224748445dd920c4cc9eaf8c91ae858bc2f82dc8f8561")


def test_supplement_small_answers_are_pinned():
    rng = random.Random("pinned:supplement-small")
    rows = []
    for factors in SUPP_GROUPS:
        g = Group(list(factors))
        for frac in SUPP_FRACTIONS:
            for _ in range(2):
                c = _random_set(rng, g, max(2, round(frac * g.order)))
                rows.append(_row(maximal_supplement_witness(c)))
    assert _digest(rows) == (
        "32b2d5f10260072654cbce879f5a4b3db9943ee99c93e75ac95295d0d7e1c76d")


@pytest.mark.parametrize("factors", TMIN_GROUPS)
def test_tmin_answers_are_pinned(factors, monkeypatch):
    # every certificate compute_tmin's walk asks for, then its report
    real = complements.exists_witness
    rows = []

    def recorded(c, budget=None):
        cert = real(c, budget)
        rows.append(_row(cert))
        return cert

    monkeypatch.setattr(complements, "exists_witness", recorded)
    rep = complements.compute_tmin(Group(list(factors)))
    failing = None if rep.first_failing is None else rep.first_failing.mask
    rows.append(repr((rep.value, rep.exact, failing, rep.subsets_checked)))
    assert _digest(rows) == TMIN_DIGESTS[factors]


def _search_rows(g, masks):
    for mask in masks:
        c = GroupSet(g, mask)
        for cap in SEARCH_CAPS:
            w, candidates, complete = complements.scan_for_witness(g, c, cap)
            yield repr((g.factors, mask, cap, None if w is None else w.mask,
                        candidates, complete))


def test_search_answers_are_pinned():
    # (witness, candidates, complete) on every non-empty subset of every
    # group of order at most 10, then on 300 seeded sets through 0 of
    # random size per group of order 11-18
    rows = []
    for n in range(1, 11):
        for g in abelian_groups_of_order(n):
            rows.extend(_search_rows(g, range(1, 1 << n)))
    rng = random.Random("pinned:search")
    for n in range(11, 19):
        for g in abelian_groups_of_order(n):
            masks = [sum(1 << e for e in [0] + rng.sample(range(1, n), rng.randint(0, n - 1)))
                     for _ in range(300)]
            rows.extend(_search_rows(g, masks))
    assert len(rows) == 29088
    assert _digest(rows) == SEARCH_DIGEST


def test_scan_reports_are_pinned():
    rows = [report_to_json(scan_threshold(Group(list(factors)), trials=200, seed=seed))
            for factors in ((16,), (2, 8), (12,)) for seed in range(3)]
    assert _digest(rows) == SCAN_DIGEST


def _progression_rows(g, start, step, length):
    points = [g.add(start, g.scale(step, j)) for j in range(length)]
    return _row(ap_decide_and_build(detect_ap(GroupSet.from_elements(g, points))))


def test_progression_answers_are_pinned():
    # every progression from 0 (each step d != 0, each length up to ord(d))
    # in every abelian group of order at most 24, then 40 seeded (start,
    # step, length) triples each in 2x2500 and 64x64 whose steps have two
    # non-zero digits, so the coset box is cut on more than one factor.
    # Each digit is r*d/q for a divisor q <= 100 of d, so some steps have
    # order at most detect_ap's 64 points and reach the long cases.
    rows = []
    for n in range(1, 25):
        for g in abelian_groups_of_order(n):
            for d in range(1, n):
                rows.extend(_progression_rows(g, 0, d, k)
                            for k in range(1, g.element_order(d) + 1))
    rng = random.Random("pinned:progressions")
    for factors in ((2, 2500), (64, 64)):
        g = Group(list(factors))
        for _ in range(40):
            qs = [rng.choice([q for q in range(2, min(d, 100) + 1) if d % q == 0])
                  for d in factors]
            step = g.index_of([rng.randrange(1, q) * d // q for q, d in zip(qs, factors)])
            length = rng.randint(1, min(64, g.element_order(step)))
            rows.append(_progression_rows(g, rng.randrange(g.order), step, length))
    assert _digest(rows) == PROGRESSION_DIGEST


def _independent_rows(g, mask):
    # the supplement shape on a solid C, then the diffset shape on C - C
    c = GroupSet(g, mask)
    full = g.full_mask
    diff = difference_set(c).mask
    shapes = [("diffset", diff, 1, diff)]
    if is_solid(c, diff).solid:
        shapes.insert(0, ("supplement", (full & ~diff) | 1, mask, full))
    for shape, allowed, base, target in shapes:
        for cap in INDEPENDENT_CAPS:
            yield repr((g.factors, mask, shape, cap,
                        independent_search(g, allowed, base, target, cap)))


def test_independent_search_answers_are_pinned():
    # (R, candidates, complete) on every subset through 0 of every group of
    # order at most 10, then on 100 seeded sets through 0 of random size per
    # group of order 11-20
    rows = []
    for n in range(1, 11):
        for g in abelian_groups_of_order(n):
            for mask in range(1, 1 << n, 2):
                rows.extend(_independent_rows(g, mask))
    rng = random.Random("pinned:independent-search")
    for n in range(11, 21):
        for g in abelian_groups_of_order(n):
            for _ in range(100):
                mask = sum(1 << e for e in [0] + rng.sample(range(1, n), rng.randint(0, n - 1)))
                rows.extend(_independent_rows(g, mask))
    assert len(rows) == 11883
    assert _digest(rows) == INDEPENDENT_DIGEST
