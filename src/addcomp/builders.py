"""Constructive witness builders and structural lifts.

Three families live here:

* direct builders: two-element witnesses detected by a mask identity,
  arithmetic progressions decided exactly and equipped with explicit
  witnesses, and a randomized builder for large groups whose sample is
  accepted only after three failure events are ruled out;
* lifts that transport a verified witness through a subgroup, a quotient,
  or from a finite set of integers into a cyclic window;
* the feasibility inequality and two lower-bound evaluators for the
  all-small-sets threshold.

Yes certificates are re-verified by DecisionCertificate.verified_yes,
like every yes in the package; the randomized builder accepts an
attempt when no failure event fires, which its docstring proves makes a
witness, and each lift rechecks the set it returns.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Optional

from .decision import MINIMAL_COMPLEMENT, NO, YES, DecisionCertificate, SearchBudget
from .groups import Group, Homomorphism, Subgroup, coset_representatives
# perfbench/tracing.py times subgroup_generated through this module's name.
from .groups import subgroup_generated  # noqa: F401
from .rng import SplitMix64, derive_seed
from .sumset import (BITS_CHUNK, GroupSet, _same_group, bits_of, difference_set,
                     doubling_reaches, mask_of, private_points, progression_sum, sumset,
                     translate, translate_mask)
from . import complements

AP_DETECT_SIZE_LIMIT = 64


def pair_witness_check(c: GroupSet, a: int) -> bool:
    """Is c a minimal complement for the two-element set {0, a}?

    Holds exactly when every g has g or g+a in C, but never g, g+a, g+2a
    all three.  Both conditions are two mask operations.
    """
    group = c.group
    if a == 0 or a >= group.order:
        raise ValueError(f"offset must be a non-zero group element, got {a}")
    m = c.mask
    t1 = translate_mask(group, m, group.neg(a))
    t2 = translate_mask(group, m, group.neg(group.add(a, a)))
    return (m | t1) == group.full_mask and (m & t1 & t2) == 0


def pair_witness_search(c: GroupSet) -> Optional[int]:
    """Least non-zero a such that pair_witness_check passes, if any.

    C | (C - a) has at most 2|C| points, so below n/2 there is none.
    Otherwise only offsets outside Z - Z are checked, Z = G minus C:
    C | (C - a) = G says that z + a lies in C for every z in Z, that is
    (Z + a) & Z is empty, and z' = z + a for some z, z' in Z exactly
    when a is in Z - Z.  difference_set stops at the first full union,
    so for a dense random C it costs a few translates.
    """
    group = c.group
    if 2 * len(c) < group.order:
        return None
    for a in bits_of(group.full_mask & ~difference_set(c.complement()).mask & ~1):
        if pair_witness_check(c, a):
            return a
    return None


@dataclass(frozen=True)
class APDescriptor:
    """An arithmetic progression presentation of a set.

    set = {start + j*step : 0 <= j < length}; for length 1 the step is 0
    by convention.
    """

    set: GroupSet
    start: int
    step: int
    length: int


def detect_ap(c: GroupSet) -> Optional[APDescriptor]:
    """Find a progression presentation of c, or None.

    Candidate steps are differences with the least element (both signs):
    for a progression the least element is interior or an endpoint, so
    one of these differences is a valid step.  A start of step d is an
    element s with s - d outside c.  With no start c is a union of cosets
    of <d>; with one, c is a single run along d plus whole cosets, and the
    walk from the start succeeds exactly when there are no cosets.  d and
    -d have equally many starts (|c| minus the size of c meet c + d), so
    the walk succeeds for both or for neither and only the first of each
    pair is tried.  Counting stops at the second start, which a random
    set reaches within a few lookups.

    A progression of step d has at most ord(d) <= exp(G) distinct points,
    and both outcomes above present c by k = |c| of them (a coset of <d>
    with ord(d) = k, or a walk of k distinct points).  So a set with more
    points than the group's exponent has no presentation, and no
    candidate step is tried.

    Nor is one tried when the size of a sumset rules c out
    (sumset.doubling_reaches).  A walk of k points s + jd has c + c =
    {2s + jd : j <= 2k - 2}, and a coset has |c + c| = k, so a
    presentable c has |c + c| <= 2k - 1.  For k > n/2 a walk has
    ord(d) >= k > n/2, and ord(d) divides n, so ord(d) = n: G is the
    cycle of d and Z = G minus c is the rest of that cycle, a walk of
    n - k points, with |Z + Z| <= 2|Z| - 1; a coset of more than n/2
    points would be G.  The test on c + c is skipped for k = 2, where it
    never fires: {a, b} has |c + c| <= 3 < 4, and it is always presented,
    with d = b - a, as the walk a, a + d when 2d != 0, and as the coset
    a + <d> when 2d = 0.
    """
    group = c.group
    k = len(c)
    if k == 0 or k > min(AP_DETECT_SIZE_LIMIT, group.exponent()):
        return None
    n = group.order
    # doubling_reaches shows nothing above order BITS_CHUNK: C's mask is
    # not read there
    if 3 <= k and 2 * k <= n <= BITS_CHUNK and doubling_reaches(group, c.mask, 2 * k):
        return None
    if k < n < 2 * k and doubling_reaches(group, group.full_mask & ~c.mask, 2 * (n - k)):
        return None
    ec = c.elements()
    if k == 1:
        return APDescriptor(c, ec[0], 0, 1)
    cset = set(ec)
    c0 = ec[0]
    sub = group.sub
    seen = set()
    for e in ec[1:]:
        d = sub(e, c0)
        if d in seen:
            continue
        seen.add(d)
        seen.add(group.neg(d))
        starts = 0
        for s in ec:
            if sub(s, d) not in cset:
                starts += 1
                if starts == 2:
                    break
                start = s
        if starts == 0:
            if group.element_order(d) == k:
                return APDescriptor(c, c0, d, k)
        elif starts == 1:
            cur = start
            for _ in range(k - 1):
                cur = group.add(cur, d)
                if cur not in cset:
                    break
            else:
                return APDescriptor(c, start, d, k)
    return None


def ap_decide_and_build(ap: APDescriptor) -> DecisionCertificate:
    """Exact verdict for a progression, with a built witness on yes.

    With m = |<step>| (step 0 when k = 1): yes iff k = m or m is outside
    the subgroup trap's window for k (complements._trap_window).  W is
    built from whole masks, T the least coset representatives: T when
    k = m; T + ({0} u {k, ..., max(k, m - k)}*step) when k <= 2m/3
    (sparse, or two-point above m/2); else, t = m - k, T plus T moved by
    t*step, except that its i-th point moves by i*t*step, i <= ceil(k/2t).
    <step> and T come from Group.cyclic_subgroup, which a group of order
    at most BITS_CHUNK keeps, so deciding many progressions in one group
    closes each <step> once.
    """
    c = ap.set
    group = c.group
    n = group.order
    k = ap.length
    d = ap.step
    h, reps = group.cyclic_subgroup(d)
    m = h.order
    detail = {"start": ap.start, "step": d, "subgroup_order": m}

    if k == m:
        wfinal = translate(GroupSet(group, reps), group.neg(ap.start))
        return DecisionCertificate.verified_yes(
            MINIMAL_COMPLEMENT, "construction-subgroup", wfinal, c, **detail,
            case="full-coset")

    if m in complements._trap_window(n, k):  # k < m <= n here
        return DecisionCertificate(MINIMAL_COMPLEMENT, NO, "bound-subgroup-gap", c,
                                   detail={**detail, "size": k})

    if 3 * k <= 2 * m:
        detail["case"] = "sparse" if 2 * k <= m else "two-point"
        far = translate_mask(group, reps, group.scale(d, k))
        w = reps | progression_sum(group, far, d, max(1, m - 2 * k + 1))
    else:
        detail["case"] = "dense"
        t = m - k
        first = list(islice(bits_of(reps), -(-k // (2 * t))))
        rest = reps & -(2 << first[-1])  # T minus those first points
        w = (reps | translate_mask(group, rest, group.scale(d, t))
             | mask_of(n, [group.add(r, group.scale(d, i * t))
                           for i, r in enumerate(first, start=1)]))

    wfinal = translate(GroupSet(group, w), group.neg(ap.start))
    return DecisionCertificate.verified_yes(MINIMAL_COMPLEMENT, "construction-ap",
                                            wfinal, c, **detail)


@dataclass(frozen=True)
class FeasibilityReport:
    """The three-term inequality gating the randomized builder."""

    n: int
    k: int
    s: int
    term1: float
    term2: float
    term3: float

    @property
    def feasible(self) -> bool:
        return self.term1 + self.term2 + self.term3 < 1.0


def _exp_guarded(x: float) -> float:
    return math.inf if x > 700.0 else math.exp(x)


def check_feasibility(n: int, k: int, s: int) -> FeasibilityReport:
    if n < 1 or k < 1 or s < 1:
        raise ValueError("n, k, s must all be positive")
    term1 = (s * s) * (k ** 3) / n
    term2 = _exp_guarded(s + 3 * s * math.log(k) - (s - 1) * math.log(n))
    term3 = _exp_guarded(math.log(k) + s * math.log(term1)) if term1 > 0 else 0.0
    return FeasibilityReport(n, k, s, term1, term2, term3)


def tmin_lower_bound_natural(n: int) -> float:
    """Threshold lower bound tuned for s about 1.5 ln n."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return (2.0 ** (2.0 / 3.0)) * n ** (1.0 / 3.0) / (3.0 * math.e * math.log(n)) ** (2.0 / 3.0)


def tmin_lower_bound_log2(n: int) -> float:
    """Simplified threshold lower bound in base-2 logs."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return n ** (1.0 / 3.0) / (2.0 * math.log2(n) ** (2.0 / 3.0))


@dataclass(frozen=True)
class RandomBuildTrace:
    """Full record of one randomized build, final attempt included.

    samples[i][p] is the p-th draw for the i-th element of C (elements
    ascending); derived[i][p] = samples[i][p] + c_i.  e1 marks a sample
    collision (some derived point lands in another sample's translate of
    C), e2 a pile-up (some point reachable from at least s derived
    points through C - C), e3 a blocked row (some i where every draw is
    entangled with another row through a partial-overlap point).  chosen
    maps each i to the draw kept for the witness; result is the W of the
    first attempt where no failure event fires, or None after retries
    ran out.  Such a W is always a witness: random_witness's docstring
    proves that e1 false gives every element a private point and that
    e1, e2 and e3 false give full cover.
    """

    c: GroupSet
    s: int
    rng_seed: int
    retries_used: int
    samples: list[list[int]] = field(default_factory=list)
    derived: list[list[int]] = field(default_factory=list)
    e1: bool = False
    e2: bool = False
    e3: bool = False
    chosen: dict[int, int] = field(default_factory=dict)
    result: Optional[GroupSet] = None
    debug: dict = field(default_factory=dict)


def trace_fields(trace: RandomBuildTrace) -> dict:
    """The trace as a JSON-ready dict, except that C and the result stay
    GroupSets, for a caller that renders masks itself."""
    return {"group": trace.c.group.spec_string(),
            **{f.name: getattr(trace, f.name) for f in fields(trace)},
            "chosen": {str(i): p for i, p in trace.chosen.items()}}


def trace_to_json(trace: RandomBuildTrace) -> dict:
    """trace_fields with C and the result as hex masks."""
    return {key: value.hex_mask() if isinstance(value, GroupSet) else value
            for key, value in trace_fields(trace).items()}


RANDOM_RETRIES = 10  # attempts of random_witness, in the library and the CLI


def random_witness(c: GroupSet, s: int, max_retries: int = RANDOM_RETRIES,
                   seed: int = 0) -> RandomBuildTrace:
    """Randomized witness for large groups, accepted when no failure event fires.

    Draws s candidate translates per element of C, rejects the whole
    attempt when any of the three failure events fires, then assembles
    W from one kept draw x_i per element plus everything outside the
    union of the back-translates g_i - C, g_i = x_i + c_i.  The first
    attempt where e1, e2 and e3 are all false is returned as it stands:
    its W is a witness, as below, and exists_witness and the
    random-build command recheck it through
    DecisionCertificate.verified_yes.  Let B be the back-translates
    g_i - c_t minus the kept draws, so that W = G minus B.

    Private points follow from e1 false: g_i is private to c_i.
    g_i - c_i = x_i is in W, and for t != i, g_i - c_t is in W only as a
    kept draw x_j; then (x_i, c_i) and (x_j, c_t) both reach g_i, two
    pairs since j = i gives c_t = c_i: e1.

    Coverage follows from e1, e2 and e3 false.  Suppose x is uncovered.
    Then every x - c lies in B: x - c = g_i(c) - c_t(c).
      * The kept g_i are distinct derived points (e1 false), each with
        x - g_i in C - C, so e2 false leaves fewer than s rows among the
        i(c), and some row i* serves more than k/s of the c.
      * All of those share delta = x - g_i* = c - c_t(c), so r(delta) =
        |C meet (C + delta)| has r(delta)*s > k.
      * If r(delta) = k, delta is a period of C and x - C = g_i* - C
        holds the kept draw x_i* of W: x is covered after all.
      * Else delta has the good offset off = delta - c' with c' - delta
        outside C, and x - c' = g_i* + off is in B.  It equals g_j - c_u
        only for j != i* (j = i* puts c' - delta = c_u in C), which puts
        the derived point g_j of another row in g_i* + off + C; the kept
        draw of row i* was chosen to avoid that, and e3 false says every
        row has such a draw.

    The k*s draws of an attempt are one SplitMix64.draws call, the
    values of k*s successive below(n) calls.  Every family of sums (the
    differences of C, the points the draws reach, among them the derived
    points, the pile-up points and the back-translates) is one batched
    Group.sums call, not a group.add per pair.  The e3 test looks at the
    points (g + off) + c_t for g a derived point, off a good offset and
    c_t in C; by associativity these are g + (off + c_t), so it adds g
    to the set good_offsets + C summed once, and the order it tries them
    in does not change whether any is blocked.  The first draws of all
    rows are one more Group.sums call, and a later draw of a row is
    summed only when the one before it is blocked.  A point u blocks row
    i when owner.get(u, i) != i, which a u outside owner's keys never
    does, so a draw is blocked exactly when some u of its points in
    owner's keys, a set intersection made in C, has owner[u] != i.
    """
    group = c.group
    n = group.order
    ec = c.elements()
    k = len(ec)
    if k == 0:
        raise ValueError("empty C")
    if s < 1:
        raise ValueError("need s >= 1")
    if max_retries < 1:
        raise ValueError("need max_retries >= 1")

    if k == 1:
        w = GroupSet.full(group)
        return RandomBuildTrace(c, s, seed, 0, [], [], False, False, False,
                                {}, w, {"fast_path": "singleton"})

    cset = set(ec)
    neg_c = [group.neg(e) for e in ec]
    r_d = Counter(group.sums(neg_c, ec))  # c_j - c_i over every pair
    diffs = sorted(r_d)
    good_offsets = []
    for delta, r in sorted(r_d.items()):
        if r * s > k and r < k:
            for ct in ec:
                if group.sub(ct, delta) not in cset:
                    good_offsets.append(group.sub(delta, ct))
                    break
            else:
                raise RuntimeError("partial overlap with no missing point")
    offsets = list(set(group.sums(good_offsets, ec)))  # good_offsets + C

    last: Optional[RandomBuildTrace] = None
    for attempt in range(max_retries):
        # the k*s draws, row by row, and every x + c_t they reach: the
        # derived point x + c_i of row i's draws is every k-th of them
        drawn = SplitMix64(derive_seed(seed, attempt)).draws(n, k * s)
        reached = group.sums(drawn, ec)
        samples = [drawn[i * s:(i + 1) * s] for i in range(k)]
        derived = [reached[i * s * k + i:(i + 1) * s * k:k] for i in range(k)]
        points = [g for row in derived for g in row]
        # owner[g]: the row i of every draw with derived point g, or -1
        # when draws of two rows share it
        owner: dict[int, int] = {}
        for i, row in enumerate(derived):
            for g in row:
                owner[g] = i if owner.get(g, i) == i else -1

        # e1: some derived point g_ip lies in x_jq + C for a draw (j, q)
        # other than (i, p).  A draw reaches each point of x_jq + C once,
        # and (i, p) always reaches g_ip = x_ip + c_i, so e1 holds exactly
        # when some g_ip is reached by two draws.
        reach = Counter(reached)
        e1 = any(reach[g] > 1 for g in points)

        pile = Counter(group.sums(points, diffs))
        pile_max = max(pile.values())
        e2 = pile_max >= s

        # e3: row i has no draw p whose points g_ip + good_offsets + C
        # all avoid the derived points of the other rows
        m = len(offsets)
        firsts = group.sums([row[0] for row in derived], offsets)
        keep: dict[int, int] = {}
        for i, row in enumerate(derived):
            hits, p = owner.keys() & firsts[i * m:(i + 1) * m], 0
            while any(owner[u] != i for u in hits):
                p += 1
                if p == s:
                    break
                hits = owner.keys() & group.sums([row[p]], offsets)
            if p == s:
                break
            keep[i] = p
        e3 = len(keep) < k

        debug = {"z_count": len(good_offsets), "pile_max": pile_max}
        last = RandomBuildTrace(c, s, seed, attempt + 1, samples, derived,
                                e1, e2, e3, {}, None, debug)
        if e1 or e2 or e3:
            continue

        # W is G minus the back-translates g_i - C of the kept points,
        # plus the kept draws themselves, so G minus W has at most k^2
        # points, the hole list W keeps.
        chosen_g = [derived[i][keep[i]] for i in range(k)]
        kept = {samples[i][keep[i]] for i in range(k)}
        back = group.sums(chosen_g, neg_c)  # g_i - c_t, k per kept point
        w = GroupSet.from_elements(group, set(back) - kept).complement()
        return RandomBuildTrace(c, s, seed, attempt + 1, samples, derived,
                                False, False, False, keep, w, debug)
    return last


def lift_via_subgroup(wh: GroupSet, c: GroupSet,
                      h: Optional[Subgroup] = None) -> GroupSet:
    """Turn a witness inside a subgroup into one for the whole group.

    wh and c live in the ambient group with all elements inside some
    subgroup H (derived as wh + c when not supplied), c minimal for wh
    within H.  The lifted witness is wh plus a transversal of H.
    """
    _same_group(wh, c)
    group = wh.group
    if not wh or not c:
        raise ValueError("need non-empty sets")
    span = sumset(wh, c)
    if h is None:
        h = Subgroup(group, span)
    elif span != h.members:
        raise ValueError("wh + c does not fill the given subgroup")
    if None in private_points(wh, c.elements()).least:
        raise ValueError("c is not a minimal complement within the subgroup")
    w = sumset(wh, coset_representatives(h))
    if not complements.is_minimal_complement_for(w, c):
        raise RuntimeError("subgroup lift failed verification")
    return w


def lift_via_quotient(wq: GroupSet, c: GroupSet, pi: Homomorphism) -> GroupSet:
    """Pull a quotient witness back through the projection.

    Needs pi injective on c and pi(c) minimal for wq downstairs; the
    lifted witness is the full preimage of wq.
    """
    group = c.group
    if pi.domain != group or wq.group != pi.codomain:
        raise ValueError("projection does not match the sets")
    images = [pi.apply(e) for e in c.elements()]
    if len(set(images)) != len(images):
        raise ValueError("projection is not injective on c")
    cq = GroupSet.from_elements(pi.codomain, images)
    if not complements.is_minimal_complement_for(wq, cq):
        raise ValueError("projected set is not minimal for the given witness")
    w = pi.preimage(wq)
    if not complements.is_minimal_complement_for(w, c):
        raise RuntimeError("quotient lift failed verification")
    return w


@dataclass(frozen=True)
class IntegerLift:
    """A finite set of integers realized as minimal complement mod 2M.

    witness is for the residues of the original integers (residues
    field) in Z/modulus; skipped lists moduli tried without success in
    minimal mode.
    """

    c_ints: tuple[int, ...]
    modulus: int
    residues: GroupSet
    witness: GroupSet
    method: str
    mode: str
    skipped: tuple[int, ...] = ()


SAFE_MODULUS_SCALE = 100


def lift_integer_window(c_ints, mode: str = "minimal",
                        budget: Optional[SearchBudget] = None) -> IntegerLift:
    """Realize a finite integer set as a minimal complement in Z/2M.

    Shifting by the minimum and reducing mod 2M is faithful once
    2M exceeds the diameter: representations upstairs and downstairs
    then correspond one to one, so the cyclic verification transfers.
    mode "minimal" scans M upward from diameter+1 and returns the first
    modulus where a verified witness lands; "safe" jumps straight to
    M = max(diameter + 1, 100*k^4 + 1), the scan's last modulus.
    """
    raw = [int(x) for x in c_ints]
    ints = sorted(set(raw))
    if not ints:
        raise ValueError("empty integer set")
    if len(ints) != len(raw):
        raise ValueError("duplicate integers")
    if mode not in ("minimal", "safe"):
        raise ValueError(f"unknown mode {mode!r}")
    k = len(ints)
    base = ints[0]
    shifted = [x - base for x in ints]
    diam = shifted[-1]
    safe_m = max(diam + 1, SAFE_MODULUS_SCALE * k ** 4 + 1)
    if mode == "safe":
        m_values = [safe_m]
    else:
        m_values = range(diam + 1, safe_m + 1)
    skipped = []
    for m in m_values:
        modulus = 2 * m
        group = Group([modulus])
        c0 = GroupSet.from_elements(group, shifted)
        cert = complements.exists_witness(c0, budget)
        if cert.verdict != YES:
            skipped.append(modulus)
            continue
        shift_back = group.neg(base % modulus)
        w = translate(cert.witness, shift_back)
        residues = GroupSet.from_elements(group, [x % modulus for x in ints])
        if not complements.is_minimal_complement_for(w, residues):
            raise RuntimeError("window lift failed verification")
        return IntegerLift(tuple(ints), modulus, residues, w, cert.method,
                           mode, tuple(skipped))
    raise RuntimeError(
        f"no modulus up to 2*{safe_m} yielded a verified witness in mode {mode!r}")
