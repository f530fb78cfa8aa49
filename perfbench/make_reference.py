"""Write the oracle-derived T(G) table that the tmin-small gate compares against.

For each group of the tmin-small workload (compute_tmin and scan groups) this walks the subsets C
containing 0 in the order compute_tmin uses (by size, then
lexicographically) and asks the naive oracle for a witness.  The first
C without one fixes T(G) = |C| - 1 and the first failing set.  Only the
oracle decides here; none of the production decision code runs.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from addcomp.groups import Group  # noqa: E402
from addcomp.oracle import oracle_exists_witness  # noqa: E402
from addcomp.sumset import GroupSet  # noqa: E402

from workloads import SCAN_GROUPS, TMIN_GROUPS  # noqa: E402


def oracle_tmin(group: Group) -> dict:
    n = group.order
    for size in range(1, n + 1):
        for rest in itertools.combinations(range(1, n), size - 1):
            c = GroupSet.from_elements(group, (0,) + rest)
            if oracle_exists_witness(c) is None:
                return {"value": size - 1, "first_failing": hex(c.mask)}
    return {"value": n, "first_failing": None}


def main() -> None:
    table = {}
    for factors in TMIN_GROUPS + SCAN_GROUPS:
        group = Group(factors)
        table[group.spec_string()] = oracle_tmin(group)
        print(group.spec_string(), table[group.spec_string()], flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"tmin": table}, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
