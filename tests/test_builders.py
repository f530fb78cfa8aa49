import hashlib
import importlib
import json
import math
import random

import pytest

from addcomp import builders, cli, complements
from addcomp.builders import (IntegerLift, ap_decide_and_build,
                              check_feasibility, detect_ap,
                              lift_integer_window, lift_via_quotient,
                              lift_via_subgroup, pair_witness_check,
                              pair_witness_search, random_witness,
                              tmin_lower_bound_log2, tmin_lower_bound_natural,
                              trace_to_json)
from addcomp.complements import is_minimal_complement_for
from addcomp.decision import NO, YES
from addcomp.groups import Group, Subgroup, quotient_map, subgroup_generated
from addcomp.literals import parse_group, parse_set
from addcomp.oracle import naive_difference_set, oracle_is_minimal_complement_for
from addcomp.rng import SplitMix64, derive_seed
from addcomp.sumset import GroupSet, ListedSet, translate, translate_mask

# The package re-exports the function sumset, which shadows the module name.
sumset_module = importlib.import_module("addcomp.sumset")


def _gs(g, elems):
    return GroupSet.from_elements(g, elems)


def test_pair_witness_check():
    g = Group([6])
    assert pair_witness_check(_gs(g, [0, 2, 4]), 1)
    assert not pair_witness_check(_gs(g, [0, 1, 2]), 1)
    assert not pair_witness_check(GroupSet.full(g), 1)
    with pytest.raises(ValueError):
        pair_witness_check(_gs(g, [0, 2, 4]), 0)
    with pytest.raises(ValueError):
        pair_witness_check(_gs(g, [0, 2, 4]), 6)


def test_pair_witness_search():
    g = Group([6])
    assert pair_witness_search(_gs(g, [0, 2, 4])) == 1
    assert pair_witness_search(_gs(g, [0, 1, 2])) == 3
    assert pair_witness_search(GroupSet.full(g)) is None
    # the found a always passes the direct check
    a = pair_witness_search(_gs(g, [0, 1, 2]))
    assert pair_witness_check(_gs(g, [0, 1, 2]), a)


def test_detect_ap():
    g = Group([6])
    ap = detect_ap(_gs(g, [0, 1, 2]))
    assert ap is not None and ap.length == 3
    walked = {g.add(ap.start, (j * ap.step) % 6) for j in range(ap.length)}
    assert walked == {0, 1, 2}

    assert detect_ap(_gs(g, [0, 1, 3])) is None

    pair = detect_ap(_gs(g, [0, 3]))
    assert pair is not None and pair.length == 2

    single = detect_ap(_gs(g, [4]))
    assert single.step == 0 and single.length == 1

    coset = detect_ap(_gs(g, [0, 2, 4]))
    assert coset is not None
    assert g.element_order(coset.step) == 3

    big = Group([70])
    assert detect_ap(_gs(big, range(65))) is None


# then every other group of order at most 12
AP_GROUPS = ([12], [16], [2, 4], [2, 2, 2], [3, 3], [2, 6], [2, 2, 3],
             [], [2], [3], [4], [2, 2], [5], [6], [7], [8], [9], [10], [11])


def _add_table(g):
    return [[g.add(a, b) for b in range(g.order)] for a in range(g.order)]


def _presents(add, mask, k, s, d):
    """Do the k points s, s + d, ..., s + (k-1)d fill the set mask?"""
    walked = 1 << s
    cur = s
    for _ in range(k - 1):
        cur = add[cur][d]
        if not (mask >> cur) & 1 or (walked >> cur) & 1:
            return False
        walked |= 1 << cur
    return walked == mask


def _presentable(g, add):
    """Mask of every walk s, s + d, ..., s + (j-1)d with distinct points,
    for every start s, every step d and every length j."""
    out = set()
    for s in range(g.order):
        for d in range(g.order):
            mask, cur = 0, s
            while not (mask >> cur) & 1:
                mask |= 1 << cur
                out.add(mask)
                cur = add[cur][d]
    return out


def _check_descriptor(g, add, c, ap):
    assert ap.set == c and ap.length == len(c)
    if ap.length == 1:
        assert ap.step == 0 and c.elements() == [ap.start]
    else:
        assert _presents(add, c.mask, ap.length, ap.start, ap.step), ap


@pytest.mark.parametrize("factors", AP_GROUPS)
def test_detect_ap_matches_brute_force_on_every_subset(factors):
    g = Group(factors)
    add = _add_table(g)
    presentable = _presentable(g, add)
    for mask in range(1, 1 << g.order):
        c = GroupSet(g, mask)
        ap = detect_ap(c)
        assert ap is None or len(c) <= g.exponent()
        assert (ap is not None) == (mask in presentable), c.elements()
        if ap is not None:
            _check_descriptor(g, add, c, ap)


def test_detect_ap_same_without_the_doubling_filter(monkeypatch):
    # The |C + C| and |Z + Z| pre-checks only skip sets the candidate loop
    # would reject: with the kernel answering "not shown" every
    # descriptor is the same, start and step included.
    real = builders.doubling_reaches
    shown = []

    def recording(group, mask, bound):
        shown.append(real(group, mask, bound))
        return shown[-1]

    def descriptors(g, kernel):
        monkeypatch.setattr(builders, "doubling_reaches", kernel)
        return [detect_ap(GroupSet(g, mask)) for mask in range(1, 1 << g.order)]

    for factors in AP_GROUPS:
        g = Group(factors)
        assert descriptors(g, recording) == descriptors(g, lambda group, mask, bound: False)
    assert any(shown)


def test_detect_ap_counts_no_sumset_for_two_points(monkeypatch):
    # {a, b} is a walk or a coset of step b - a, and |C + C| <= 3 < 4, so
    # the C + C test is skipped (n = 3, where |Z| = 1, is left out).
    calls = []
    monkeypatch.setattr(builders, "doubling_reaches", lambda *args: calls.append(args))
    for factors in AP_GROUPS + ([2, 2, 2, 2], [8, 8], [4, 25]):
        g = Group(factors)
        if g.order == 3:
            continue
        for a in range(g.order):
            for b in range(a + 1, g.order):
                ap = detect_ap(GroupSet.from_elements(g, [a, b]))
                assert ap.length == 2 and ap.step in (g.sub(b, a), g.sub(a, b)), (g, a, b)
    assert calls == []


@pytest.mark.parametrize("factors", ([4, 25], [8, 8], [2, 2, 10], [2, 2, 2, 2, 2]))
def test_detect_ap_on_run_plus_whole_cosets(factors):
    # A run along d plus whole cosets of <d>: d has one start, but the
    # walk from it stops at the end of the run.
    g = Group(factors)
    add = _add_table(g)
    presentable = _presentable(g, add)
    rnd = random.Random(20261018)
    planted = 0
    while planted < 40:
        d = rnd.randrange(1, g.order)
        m = g.element_order(d)
        run = rnd.randrange(1, m)
        s = rnd.randrange(g.order)
        elems = {g.add(s, g.scale(d, j)) for j in range(run)}
        for _ in range(rnd.randrange(1, 3)):
            base = rnd.randrange(g.order)
            coset = {g.add(base, g.scale(d, j)) for j in range(m)}
            if coset & elems or len(elems) + m > 64:
                break
            elems |= coset
        if len(elems) == run:
            continue
        planted += 1
        c = _gs(g, elems)
        assert sum(g.sub(e, d) not in elems for e in elems) == 1
        assert not _presents(add, c.mask, len(elems), s, d)
        ap = detect_ap(c)
        assert (ap is not None) == (c.mask in presentable), sorted(elems)
        if ap is not None:
            _check_descriptor(g, add, c, ap)


def _least_pair_offset(c):
    return next((a for a in range(1, c.group.order) if pair_witness_check(c, a)), None)


@pytest.mark.parametrize("factors", AP_GROUPS)
def test_pair_witness_search_matches_brute_force_on_every_subset(factors, monkeypatch):
    # C | (C - a) = G needs (Z + a) & Z empty, Z = G minus C, so no a in
    # Z - Z is checked, and the rest are checked in ascending order.
    checked = []

    def counting(c, a):
        checked.append(a)
        return pair_witness_check(c, a)

    monkeypatch.setattr(builders, "pair_witness_check", counting)
    g = Group(factors)
    for mask in range(1, 1 << g.order):
        c = GroupSet(g, mask)
        checked.clear()
        assert builders.pair_witness_search(c) == _least_pair_offset(c), c.elements()
        z_minus_z = naive_difference_set(c.complement())
        assert not any(a in z_minus_z for a in checked) and checked == sorted(checked)


def test_pair_witness_search_skips_sets_below_half(monkeypatch):
    calls = []

    def counting(c, a):
        calls.append(a)
        return pair_witness_check(c, a)

    monkeypatch.setattr(builders, "pair_witness_check", counting)
    for factors in ([12], [2, 6], [4, 25], [1000]):
        g = Group(factors)
        for k in range(1, (g.order + 1) // 2):
            assert builders.pair_witness_search(_gs(g, range(k))) is None
    assert calls == []
    g = Group([6])
    assert builders.pair_witness_search(_gs(g, [0, 2, 4])) == 1
    assert calls == [1]


MID_GROUPS = ([24], [2, 12], [40], [2, 2, 10], [64], [8, 8], [100], [4, 25])


def _planted_pair_set(g, rnd):
    """A set with the two-element witness {0, a}: along each cycle of the
    translation by a, a random chain of the blocks 10 and 110, so no two
    missing points and no three present ones in a row."""
    a = rnd.randrange(1, g.order)
    m = g.element_order(a)
    mask, done = 0, 0
    for rep in range(g.order):
        if (done >> rep) & 1:
            continue
        bits = []
        while len(bits) < m:
            left = m - len(bits)
            bits += [1, 0] if left in (2, 4) or (left != 3 and rnd.random() < 0.5) else [1, 1, 0]
        shift = rnd.randrange(m)
        for j in range(m):
            x = g.add(rep, g.scale(a, j))
            done |= 1 << x
            mask |= bits[(j + shift) % m] << x
    return GroupSet(g, mask), a


@pytest.mark.parametrize("factors", MID_GROUPS)
def test_pair_witness_search_matches_naive_on_dense_sets(factors):
    g = Group(factors)
    rnd = random.Random(sum(factors) * 7919)
    for _ in range(30):
        k = rnd.randint((g.order + 1) // 2, g.order)
        c = GroupSet.from_elements(g, rnd.sample(range(g.order), k))
        assert pair_witness_search(c) == _least_pair_offset(c), c.elements()
        c, a = _planted_pair_set(g, rnd)
        assert pair_witness_check(c, a)
        least = pair_witness_search(c)
        assert least == _least_pair_offset(c) and least <= a


def test_detect_ap_tries_no_step_past_the_exponent(monkeypatch):
    calls = []
    real_sub = Group.sub

    def counting(self, a, b):
        calls.append((a, b))
        return real_sub(self, a, b)

    monkeypatch.setattr(Group, "sub", counting)
    for factors in ([2, 2, 2], [3, 3], [2, 6], [8, 8], [4, 25]):
        g = Group(factors)
        for k in range(g.exponent() + 1, min(g.order, 64) + 1):
            assert detect_ap(_gs(g, range(k))) is None
    assert calls == []
    assert detect_ap(_gs(Group([8, 8]), range(8))) is not None
    assert calls


def test_ap_build_sparse_case():
    g = Group([6])
    cert = ap_decide_and_build(detect_ap(_gs(g, [0, 1, 2])))
    assert cert.verdict == YES and cert.detail["case"] == "sparse"
    assert cert.witness == _gs(g, [0, 3])
    assert cert.verify()


def test_ap_build_full_coset_case():
    g = Group([6])
    cert = ap_decide_and_build(detect_ap(_gs(g, [0, 2, 4])))
    assert cert.verdict == YES
    assert cert.method == "construction-subgroup"
    assert cert.detail["case"] == "full-coset"
    assert cert.verify()


def test_ap_build_two_point_case():
    g = Group([8])
    cert = ap_decide_and_build(detect_ap(_gs(g, range(5))))
    assert cert.verdict == YES and cert.detail["case"] == "two-point"
    assert cert.witness == _gs(g, [0, 5])
    assert cert.verify()


def test_ap_build_dense_case():
    g = Group([20])
    cert = ap_decide_and_build(detect_ap(_gs(g, range(0, 16, 2))))
    assert cert.verdict == YES and cert.detail["case"] == "dense"
    assert cert.witness == _gs(g, [0, 1, 4, 9])
    assert cert.verify()


def test_ap_build_gap_no():
    g = Group([6])
    cert = ap_decide_and_build(detect_ap(_gs(g, range(5))))
    assert cert.verdict == NO
    assert cert.method == "bound-subgroup-gap"


def test_ap_translated_progressions():
    # verdicts do not depend on where the progression starts
    g = Group([12])
    for start in range(12):
        c = _gs(g, [(start + j) % 12 for j in range(4)])
        cert = ap_decide_and_build(detect_ap(c))
        assert cert.verdict == YES
        assert cert.verify()


def test_check_feasibility_anchors():
    rep = check_feasibility(10 ** 6, 6, 21)
    assert rep.feasible
    assert 0.09 <= rep.term1 <= 0.10

    assert not check_feasibility(10 ** 5, 6, 21).feasible
    assert not check_feasibility(100, 10, 2).feasible
    assert check_feasibility(100, 10, 2).term1 == pytest.approx(40.0)
    rep11 = check_feasibility(1000, 1, 1)
    assert rep11.term2 == pytest.approx(math.e)
    assert not rep11.feasible
    with pytest.raises(ValueError):
        check_feasibility(0, 1, 1)


def test_feasible_only_when_first_term_below_one():
    # exists_witness skips check_feasibility unless s^2 k^3 < n
    for k in range(1, 40):
        for s in range(1, 40):
            edge = s * s * k ** 3
            for n in (edge - 1, edge, edge + 1, 10 ** 4, 10 ** 6, 2 ** 24, 10 ** 12):
                if n >= 1 and check_feasibility(n, k, s).feasible:
                    assert edge < n, (n, k, s)
    for n in range(2, 5000):
        s = max(1, math.ceil(1.5 * math.log(n)))
        for k in range(1, 20):
            if check_feasibility(n, k, s).feasible:
                assert s * s * k ** 3 < n, (n, k, s)


def test_feasibility_overflow_guard():
    rep = check_feasibility(2, 1000, 1000)
    assert rep.term1 > 0 and not rep.feasible
    assert math.isinf(rep.term2) or rep.term2 > 1


def test_threshold_lower_bounds():
    for n in (10, 100, 10 ** 4, 10 ** 6):
        a = tmin_lower_bound_natural(n)
        b = tmin_lower_bound_log2(n)
        assert a > 0 and b > 0
    assert tmin_lower_bound_natural(10 ** 9) > tmin_lower_bound_natural(10 ** 3)
    assert tmin_lower_bound_log2(10 ** 9) > tmin_lower_bound_log2(10 ** 3)
    with pytest.raises(ValueError):
        tmin_lower_bound_natural(1)


def _random_c(n, k, master):
    rnd = SplitMix64(derive_seed(master, 7))
    elems = set()
    while len(elems) < k:
        elems.add(rnd.below(n))
    return GroupSet.from_elements(Group([n]), sorted(elems))


def test_random_witness_large_group():
    c = _random_c(10 ** 6, 6, 1)
    trace = random_witness(c, 21, seed=1)
    assert trace.result is not None
    assert trace.retries_used <= 10
    assert is_minimal_complement_for(trace.result, c)
    assert len(trace.chosen) == 6


def test_random_witness_deterministic():
    c = _random_c(10 ** 6, 6, 2)
    a = random_witness(c, 21, seed=9)
    b = random_witness(c, 21, seed=9)
    assert a.result == b.result
    assert a.samples == b.samples
    assert a.retries_used == b.retries_used


def test_random_witness_exhausts_on_crowded_set():
    g = Group([100])
    c = _gs(g, range(40))
    trace = random_witness(c, 2, seed=1)
    assert trace.result is None
    assert trace.retries_used == 10
    assert trace.e1 or trace.e2 or trace.e3


# (factors, least |C|, largest |C|, least s, largest s) per group
_SEEDED_CASES = (([40], 3, 5, 1, 3), ([4, 10], 3, 5, 1, 3),
                 ([400], 3, 5, 3, 8), ([10, 40], 3, 5, 3, 8))


def _seeded_random_builds(cases=_SEEDED_CASES, per_group=30):
    """One-attempt random builds, per_group of them in each case's group.
    With the default cases every failure event fires on some draws in the
    small groups, and some builds succeed in the groups of order 400."""
    rnd = random.Random(40)
    for factors, k_lo, k_hi, s_lo, s_hi in cases:
        g = Group(factors)
        for _ in range(per_group):
            elems = rnd.sample(range(g.order), rnd.randint(k_lo, k_hi))
            c = GroupSet.from_elements(g, elems)
            yield random_witness(c, rnd.randint(s_lo, s_hi), max_retries=1,
                                 seed=rnd.randrange(1 << 16))


def test_random_witness_e1_matches_every_pair():
    # e1: some derived point x_ip + c_i lies in x_jq + C for another draw
    # (j, q); checked here over all (k*s)^2 pairs of draws.
    fired = []
    for trace in _seeded_random_builds():
        group, cset = trace.c.group, set(trace.c.elements())
        draws = [(i, p) for i, row in enumerate(trace.samples)
                 for p in range(len(row))]
        brute = any(
            group.sub(trace.derived[i][p], trace.samples[j][q]) in cset
            for i, p in draws for j, q in draws if (i, p) != (j, q))
        assert trace.e1 == brute
        fired.append(brute)
    assert any(fired) and not all(fired)


def test_random_witness_traces_unchanged():
    # Digest of the traces of _seeded_random_builds as the quadratic
    # pair-by-pair e1 check produced them: the failure events, the kept
    # draws and the witness must not move when a check gets faster.
    digest = hashlib.sha256()
    successes = 0
    for trace in _seeded_random_builds():
        result = None if trace.result is None else trace.result.mask
        successes += result is not None
        digest.update(repr((trace.samples, trace.e1, trace.e2, trace.e3,
                            sorted(trace.chosen.items()), result)).encode())
    assert successes > 0
    assert digest.hexdigest() == (
        "3927e6bbd487f9bc8b5e2125497593f9b53087aaccaba2f888145a85b06dae6d")


@pytest.mark.parametrize("spec, literal, s, seed, digest", [
    # the README random-build call
    ("1000000", "{0,11,5225,90125,443211,800017}", 21, 1,
     "5536be210bf3c98c00cae9e60e0e4212ed60bfff28d0cafcc658229575097efb"),
    # the README witness calls, with the s and seed exists_witness uses
    ("1000x1000", "{(0,0),(351,380),(373,492),(918,995)}", 21, 1453991119456533156,
     "bd75a5067878bf714d57ce1d9bb51f3440441752f57f3f4f39a560938dd6ae38"),
    ("16777216", "{0,8839392,9786826}", 25, 11000676276792959893,
     "15a5ae156a60d39159a61bc916f6cfb72cb2203204eef83d46aa499598c1dc5a"),
    # README-scale products as witness-large draws them, and three factors
    ("4096x4096", "{(0,0),(17,3001),(2048,77),(3999,4095),(1234,2345)}", 25,
     1713765972751067885,
     "0598de9e6f9786832e67a48c557ab983b555ee6dd777dfde8dbc694f1935481e"),
    ("4096x4096", "{(0,0),(5,9),(100,2000),(2222,1),(3000,3000),(4095,17),(613,3907)}", 25,
     7633817244686802765,
     "f238f966a479a5bc9ddfbd33012ad9225d19b5b5a70d72e57962d0af9b050751"),
    ("10x10x10000", "{(0,0,0),(3,7,2500),(9,1,7777),(5,5,9999),(1,2,4242)}", 21,
     8733191844829262034,
     "827b5a1dc073de2bd636e4ec85c9ea2b66813c7db09e1e56d28b5ab44a3f1b84"),
])
def test_random_witness_unchanged_at_readme_scale(spec, literal, s, seed, digest):
    # Digests recorded when W was built from k translates of -C and checked
    # by translates: the traces and the hex witness must not move when the
    # witness is built and checked through the points it misses.
    group = parse_group(spec)
    c = parse_set(group, literal)
    assert s == max(1, math.ceil(1.5 * math.log(group.order)))
    trace = random_witness(c, s, max_retries=10, seed=seed)
    assert trace.result is not None
    record = (trace.samples, trace.derived, trace.e1, trace.e2, trace.e3,
              trace.retries_used, sorted(trace.chosen.items()), trace.debug,
              trace.result.hex_mask())
    assert hashlib.sha256(repr(record).encode()).hexdigest() == digest


# Cyclic and product groups of order 40-400 where builds with e1, or e2,
# forced false reach non-witnesses: s = 1 or 2 in the smallest groups
# (e2 fires on every attempt at s = 1), two to six points in the others.
_WITNESS_CASES = (([40], 2, 5, 1, 2), ([2, 2, 10], 2, 4, 1, 3), ([40], 2, 3, 1, 3),
                  ([100], 3, 6, 2, 4), ([200], 2, 4, 2, 4), ([20, 20], 2, 3, 2, 3))


def test_attempt_without_failure_event_is_a_witness():
    # random_witness accepts the first attempt where e1, e2 and e3 are all
    # false, with no check of W: its docstring proves such a W is a
    # witness, and the naive oracle must agree on every one.
    built = failed = 0
    for trace in _seeded_random_builds(_WITNESS_CASES, per_group=500):
        events = trace.e1 or trace.e2 or trace.e3
        assert (trace.result is not None) == (not events)
        if events:
            failed += 1
            continue
        built += 1
        assert len(trace.chosen) == len(trace.c)
        assert oracle_is_minimal_complement_for(trace.result, trace.c)
    assert built >= 300 and failed >= 300


def test_random_build_yes_is_checked_once(monkeypatch, capsys):
    # The builder itself checks nothing; the one check of a random-build
    # yes is verified_yes's, in exists_witness and in the CLI command.
    calls = []
    real = builders.private_points

    def counted(w, elements):
        calls.append(w)
        return real(w, elements)

    for module in (builders, complements, cli):  # every module importing it
        monkeypatch.setattr(module, "private_points", counted)
    c = _random_c(10 ** 6, 6, 1)
    trace = random_witness(c, 21, seed=1)
    assert trace.result is not None and calls == []
    cert = complements.exists_witness(c)
    assert cert.method == "random-build"
    assert len(calls) == 1 and calls[0] is cert.witness
    calls.clear()
    assert cli.main(["witness", "--group", "1000x1000",
                     "--c", "{(0,0),(351,380),(373,492),(918,995)}"]) == 0
    assert '"random-build"' in capsys.readouterr().out and len(calls) == 1
    calls.clear()
    assert cli.main(["random-build", "--group", "1000000", "--c",
                     "{0,11,5225,90125,443211,800017}", "--s", "21", "--seed", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_random_witness_singleton_fast_path():
    g = Group([9])
    trace = random_witness(_gs(g, [4]), 3, seed=0)
    assert trace.result == GroupSet.full(g)
    assert trace.retries_used == 0
    assert trace.debug.get("fast_path") == "singleton"


def test_random_witness_rejects_bad_args():
    g = Group([9])
    with pytest.raises(ValueError):
        random_witness(GroupSet.empty(g), 3)
    with pytest.raises(ValueError):
        random_witness(_gs(g, [0, 1]), 0)
    # no attempt at all would leave no trace to return
    with pytest.raises(ValueError):
        random_witness(_gs(g, [0, 1]), 3, max_retries=0)
    with pytest.raises(ValueError):
        random_witness(_gs(g, [4]), 3, max_retries=-1)


def test_trace_json_roundtrip():
    c = _random_c(10 ** 4, 4, 3)
    trace = random_witness(c, 12, seed=3)
    blob = trace_to_json(trace)
    again = json.loads(json.dumps(blob))
    assert again["group"] == "10000"
    assert again["c"] == c.hex_mask()
    assert again["s"] == 12
    if trace.result is not None:
        assert again["result"] == trace.result.hex_mask()
    assert set(again["chosen"]) == {str(i) for i in trace.chosen}


def test_lift_via_subgroup():
    g = Group([12])
    h = subgroup_generated(GroupSet.singleton(g, 3))
    c = h.members
    wh = _gs(g, [0])
    w = lift_via_subgroup(wh, c, h)
    assert w == _gs(g, [0, 1, 2])
    assert is_minimal_complement_for(w, c)
    # h can be derived instead of supplied
    assert lift_via_subgroup(wh, c) == w


def test_lift_via_subgroup_rejects_non_minimal():
    g = Group([12])
    h = subgroup_generated(GroupSet.singleton(g, 2))
    c = _gs(g, [0, 2])
    wh = h.members  # covers H but 0 and 2 are not both essential
    with pytest.raises(ValueError):
        lift_via_subgroup(wh, c, h)


def test_lift_via_quotient():
    g = Group([12])
    h = subgroup_generated(GroupSet.singleton(g, 4))
    q, pi = quotient_map(g, h)
    c = _gs(g, [0, 1])
    wq = _gs(q, [0, 2])
    w = lift_via_quotient(wq, c, pi)
    assert w == _gs(g, [0, 2, 4, 6, 8, 10])
    assert is_minimal_complement_for(w, c)


def test_lift_via_quotient_needs_injectivity():
    g = Group([12])
    h = subgroup_generated(GroupSet.singleton(g, 4))
    q, pi = quotient_map(g, h)
    wq = _gs(q, [0, 2])
    with pytest.raises(ValueError):
        lift_via_quotient(wq, _gs(g, [0, 4]), pi)


def test_lift_via_quotient_checks_downstairs():
    g = Group([12])
    h = subgroup_generated(GroupSet.singleton(g, 4))
    q, pi = quotient_map(g, h)
    with pytest.raises(ValueError):
        lift_via_quotient(_gs(q, [0, 1]), _gs(g, [0, 1]), pi)


def test_lift_integer_window_minimal():
    lift = lift_integer_window([0, 1, 2])
    assert lift.modulus == 6
    assert lift.witness == _gs(Group([6]), [0, 3])
    assert lift.skipped == ()
    assert lift.mode == "minimal"
    assert is_minimal_complement_for(lift.witness, lift.residues)


def test_lift_integer_window_shifted():
    lift = lift_integer_window([5, 6, 7])
    assert lift.modulus == 6
    assert lift.witness == _gs(Group([6]), [1, 4])
    assert lift.residues == _gs(Group([6]), [5, 0, 1])


def test_lift_integer_window_safe_mode():
    lift = lift_integer_window([0, 1, 2], mode="safe")
    assert lift.modulus == 2 * (100 * 3 ** 4 + 1)
    assert lift.method == "construction-ap"
    assert len(lift.witness) == lift.modulus - 4
    assert is_minimal_complement_for(lift.witness, lift.residues)


@pytest.mark.parametrize("ints", [[0, 1, 4, 6, 10, 11, 13], [-5, 3, 9, 100000]])
def test_lift_integer_window_moves_the_witness_holes(monkeypatch, ints):
    # translate moves a listed W's hole tuple, so the window lift's recheck
    # reads W's holes: it neither walks nor builds W's mask
    walks = []
    real = sumset_module._points_within
    monkeypatch.setattr(sumset_module, "_points_within",
                        lambda *args: walks.append(args) or real(*args))
    lift = lift_integer_window(ints, mode="safe")
    w = lift.witness
    assert lift.method == "random-build" and walks == []
    assert isinstance(w, ListedSet) and sumset_module._MASK.__get__(w) is None
    for shift in (1, 12345, lift.modulus - 1):
        moved = translate(w, shift)
        assert isinstance(moved, ListedSet)
        assert moved == GroupSet(w.group, translate_mask(w.group, w.mask, shift))
    assert translate(w, 0) is w


@pytest.mark.parametrize("ints, modulus", [([0, 3202], 6406), ([3, 9, 100000], 199996)])
@pytest.mark.parametrize("mode", ["minimal", "safe"])
def test_lift_integer_window_wider_than_safe_modulus(ints, modulus, mode):
    # the diameter exceeds 100*k^4 + 1, so both modes land on M = diameter + 1
    lift = lift_integer_window(ints, mode=mode)
    assert lift.modulus == modulus
    assert lift.skipped == ()
    assert lift.residues == _gs(Group([modulus]), [x % modulus for x in ints])
    assert is_minimal_complement_for(lift.witness, lift.residues)


def test_lift_integer_window_rejects_bad_input():
    with pytest.raises(ValueError):
        lift_integer_window([])
    with pytest.raises(ValueError):
        lift_integer_window([1, 1, 2])
    with pytest.raises(ValueError):
        lift_integer_window([0, 1], mode="loose")
