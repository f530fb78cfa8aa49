"""Per-layer numbers for the traced run, measured from outside addcomp.

Spans: before the traced pass, Tracer.install() replaces the name each
caller looks up (for example addcomp.complements.scan_for_witness, which
exists_witness calls) with a wrapper that records (name, start, end,
parent span, query id) in memory.  A layer's self time is a span's
duration minus the time covered by its direct children.  Counts come from
the returned objects: certificate methods, scan candidate counts,
DiffsetInstance.nodes, RandomBuildTrace retries and e1/e2/e3 flags (the
flags of the last attempt only; earlier attempts are not visible).

Kernels called millions of times (translate_mask, Group.add and the other
sumset kernels) are not wrapped, since a wrapper would cost more than the
call.  replay_kernels() instead times them on a sample of the inputs the
traced pass actually decided.

There is one thread and no queue anywhere, so no span ever waits.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  Every binding a caller can reach is
# listed: cli and experiments import their callees by name.
WRAPPED = (
    ("addcomp.cli", "main", "cli.main"),
    ("addcomp.cli", "parse_group", "literals.parse"),
    ("addcomp.cli", "parse_set", "literals.parse"),
    ("addcomp.cli", "exists_witness", "complements.exists_witness"),
    ("addcomp.cli", "compute_tmin", "complements.compute_tmin"),
    ("addcomp.cli", "maximal_supplement_witness", "supplements.maximal_supplement_witness"),
    ("addcomp.cli", "random_witness", "builders.random_witness"),
    ("addcomp.cli", "lift_integer_window", "builders.lift"),
    ("addcomp.cli", "scan_threshold", "experiments.scan_threshold"),
    ("addcomp.complements", "exists_witness", "complements.exists_witness"),
    ("addcomp.complements", "compute_tmin", "complements.compute_tmin"),
    ("addcomp.complements", "is_minimal_complement_for", "complements.verify"),
    ("addcomp.complements", "scan_for_witness", "search.scan"),
    ("addcomp.complements", "subgroup_generated", "groups.subgroup_generated"),
    ("addcomp.experiments", "exists_witness", "complements.exists_witness"),
    ("addcomp.experiments", "scan_threshold", "experiments.scan_threshold"),
    ("addcomp.builders", "detect_ap", "builders.detect_ap"),
    ("addcomp.builders", "pair_witness_search", "builders.pair_search"),
    ("addcomp.builders", "random_witness", "builders.random_witness"),
    ("addcomp.builders", "subgroup_generated", "groups.subgroup_generated"),
    ("addcomp.supplements", "maximal_supplement_witness", "supplements.maximal_supplement_witness"),
    ("addcomp.supplements", "is_solid", "supplements.is_solid"),
    ("addcomp.supplements", "diffset_representation", "supplements.diffset"),
)

# Certificate methods exists_witness can return; each gets an exact count.
COMPLEMENT_METHODS = ("trivial", "bound-size-gap", "bound-subgroup-gap",
                      "construction-ap", "construction-subgroup",
                      "construction-pair", "random-build", "exhaustive", "budget")

SAMPLES_PER_GROUP = 3


class Tracer:
    """Span recorder plus the counters read off returned objects."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, query id]
        self.stack = []
        self.query = None
        self.counts = Counter()
        self.samples = {}    # group factors -> [(group, c mask, w mask or None)]
        self._seen = Counter()
        self.envelope_bytes = 0
        self.cli_calls = 0
        self._saved = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for modname, attr, name in WRAPPED:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result, args)
            return result

        return wrapper

    # -- hooks called by the worker around each query -------------------

    def begin_query(self, qid) -> None:
        self.query = qid

    def after_query(self, query, result) -> None:
        if query[0] == "cli":
            self.cli_calls += 1
            if result is not None:
                self.envelope_bytes += len(result[1])

    def sample(self, group, c_mask, w_mask) -> None:
        """Keep the inputs of the 1st, 2nd, 4th, 8th, ... call per group,
        at most SAMPLES_PER_GROUP of the latest, so long runs of small
        inputs (compute_tmin walks sizes upward) still yield typical ones."""
        self._seen[group.factors] += 1
        count = self._seen[group.factors]
        if count & (count - 1):
            return
        bucket = self.samples.setdefault(group.factors, [])
        bucket.append((group, c_mask, w_mask))
        del bucket[:-SAMPLES_PER_GROUP]

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict:
        total = defaultdict(float)
        calls = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]

        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "search.calls": calls["search.scan"],
            "search.candidates": c["search.candidates"],
            "search.busy_s": total["search.scan"],
            "search.candidates_per_s": ratio(c["search.candidates"], total["search.scan"]),
            "search.busy_share": ratio(total["search.scan"], traced_s),
            "complements.exists_witness_calls": calls["complements.exists_witness"],
            "complements.self_s": (self_s["complements.exists_witness"]
                                   + self_s["complements.compute_tmin"]),
            "complements.verify_s": total["complements.verify"],
            "builders.detect_ap_s": total["builders.detect_ap"],
            "builders.ap_calls": calls["builders.detect_ap"],
            "builders.ap_hit_ratio": ratio(c["builders.ap_hits"], calls["builders.detect_ap"]),
            "builders.pair_search_s": total["builders.pair_search"],
            "builders.pair_calls": calls["builders.pair_search"],
            "builders.pair_hit_ratio": ratio(c["builders.pair_hits"], calls["builders.pair_search"]),
            "builders.random_witness_s": total["builders.random_witness"],
            "builders.random_calls": calls["builders.random_witness"],
            "builders.random_attempts": c["builders.random_attempts"],
            "builders.random_success_ratio": ratio(c["builders.random_successes"],
                                                   calls["builders.random_witness"]),
            "builders.random_e1": c["builders.random_e1"],
            "builders.random_e2": c["builders.random_e2"],
            "builders.random_e3": c["builders.random_e3"],
            "builders.lift_s": total["builders.lift"],
            "groups.subgroup_generated_calls": calls["groups.subgroup_generated"],
            "groups.subgroup_generated_ms": 1000.0 * total["groups.subgroup_generated"],
            "supplements.is_solid_s": total["supplements.is_solid"],
            "supplements.is_solid_calls": calls["supplements.is_solid"],
            "supplements.solid_reject_ratio": ratio(c["supplements.solid_rejects"],
                                                    calls["supplements.is_solid"]),
            "supplements.diffset_s": total["supplements.diffset"],
            "supplements.diffset_calls": calls["supplements.diffset"],
            "supplements.diffset_nodes": c["supplements.diffset_nodes"],
            "supplements.diffset_nodes_per_s": ratio(c["supplements.diffset_nodes"],
                                                     total["supplements.diffset"]),
            "supplements.diffset_found_ratio": ratio(c["supplements.diffset_found"],
                                                     calls["supplements.diffset"]),
            "supplements.self_s": self_s["supplements.maximal_supplement_witness"],
            "experiments.scan_threshold_s": total["experiments.scan_threshold"],
            "experiments.self_s": self_s["experiments.scan_threshold"],
            "literals.parse_s": total["literals.parse"],
            "cli.calls": self.cli_calls,
            "cli.self_s": self_s["cli.main"],
            "cli.envelope_bytes": ratio(self.envelope_bytes, self.cli_calls),
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.slowdown": ratio(traced_s, untraced_s),
            "trace.spans": len(self.spans),
        }
        for method in COMPLEMENT_METHODS:
            m[f"complements.method.{method}"] = c[f"method.{method}"]
        return m


# -- observers: counts read off each wrapped call's return value ---------

def _obs_exists_witness(tr, cert, args):
    tr.counts[f"method.{cert.method}"] += 1
    c = args[0]
    tr.sample(c.group, c.mask, cert.witness.mask if cert.witness is not None else None)


def _obs_supplement(tr, cert, args):
    c = args[0]
    tr.sample(c.group, c.mask, cert.witness.mask if cert.witness is not None else None)


def _obs_scan(tr, result, args):
    tr.counts["search.candidates"] += result[1]


def _obs_detect_ap(tr, result, args):
    tr.counts["builders.ap_hits"] += result is not None


def _obs_pair(tr, result, args):
    tr.counts["builders.pair_hits"] += result is not None


def _obs_random(tr, trace, args):
    tr.counts["builders.random_attempts"] += trace.retries_used
    tr.counts["builders.random_successes"] += trace.result is not None
    tr.counts["builders.random_e1"] += trace.e1
    tr.counts["builders.random_e2"] += trace.e2
    tr.counts["builders.random_e3"] += trace.e3


def _obs_solid(tr, rep, args):
    tr.counts["supplements.solid_rejects"] += not rep.solid


def _obs_diffset(tr, inst, args):
    tr.counts["supplements.diffset_nodes"] += inst.nodes
    tr.counts["supplements.diffset_found"] += inst.status == "found"


_OBSERVERS = {
    "complements.exists_witness": _obs_exists_witness,
    "supplements.maximal_supplement_witness": _obs_supplement,
    "search.scan": _obs_scan,
    "builders.detect_ap": _obs_detect_ap,
    "builders.pair_search": _obs_pair,
    "builders.random_witness": _obs_random,
    "supplements.is_solid": _obs_solid,
    "supplements.diffset": _obs_diffset,
}


# -- kernel replay --------------------------------------------------------

def _per_call(fn, min_s: float = 0.002) -> float:
    """Mean seconds per fn() call, repeating until min_s has passed."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return elapsed / reps


def replay_kernels(samples: dict) -> dict:
    """Median per-call time of each hot kernel over the sampled inputs."""
    from addcomp.sumset import GroupSet, difference_set, negated_mask, sumset, translate_mask

    add_ns, translate_ns, sumset_us, diff_us, neg_us = [], [], [], [], []
    for factors in sorted(samples):
        for group, c_mask, w_mask in samples[factors]:
            c = GroupSet(group, c_mask)
            target = w_mask if w_mask is not None else c_mask
            other = GroupSet(group, target)
            elems = c.elements()
            pairs = [(a, b) for a in elems[:8] for b in elems[:8]]

            def translate_all():
                for g in elems:
                    translate_mask(group, target, g)

            def add_all():
                for a, b in pairs:
                    group.add(a, b)

            translate_ns.append(1e9 * _per_call(translate_all) / len(elems))
            add_ns.append(1e9 * _per_call(add_all) / len(pairs))
            sumset_us.append(1e6 * _per_call(lambda: sumset(other, c)))
            diff_us.append(1e6 * _per_call(lambda: difference_set(c)))
            neg_us.append(1e6 * _per_call(lambda: negated_mask(group, c_mask)))

    def med(values):
        return statistics.median(values) if values else 0.0

    return {
        "groups.add_ns": med(add_ns),
        "sumset.translate_mask_ns": med(translate_ns),
        "sumset.sumset_us": med(sumset_us),
        "sumset.difference_set_us": med(diff_us),
        "sumset.negated_mask_us": med(neg_us),
        "sumset.replay_inputs": len(add_ns),
    }
