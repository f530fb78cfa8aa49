"""Decision outcomes with checkable evidence.

Every decision procedure in the package answers yes, no, or unknown and
says how it got there.  A yes for an existence question carries a witness
that verify() can recheck from scratch; a no carries the name of the
obstruction; unknown means a budget or method gap, never an error.
SearchBudget holds the one cap, max_candidates, that every exhaustive
search counts against.  Every yes is built through
DecisionCertificate.verified_yes, so this is the one place a witness is
re-verified before it leaves the package.  A minimal-complement witness
is rechecked through the one private-point kernel, sumset.private_points,
whose docstring says which of its two paths it takes; C's points and W's
holes are read from the tuples the sets keep, where they keep them, which
the GroupSet docstring shows is reading their masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .sumset import GroupSet

__all__ = [
    "YES",
    "NO",
    "UNKNOWN",
    "MINIMAL_COMPLEMENT",
    "MAXIMAL_SUPPLEMENT",
    "DecisionCertificate",
    "SearchBudget",
]

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

# The two dual problems a certificate can answer.
MINIMAL_COMPLEMENT = "minimal-complement-for"
MAXIMAL_SUPPLEMENT = "maximal-supplement-for"

# Methods a certificate may cite.  Bounds prove no; constructions and
# searches prove yes; exhaustion can prove either.
KNOWN_METHODS = frozenset(
    {
        "trivial",
        "bound-size-gap",
        "bound-subgroup-gap",
        "bound-solidity",
        "construction-ap",
        "construction-pair",
        "construction-subgroup",
        "random-build",
        "exhaustive",
        "budget",
    }
)


@dataclass(frozen=True, init=False)
class DecisionCertificate:
    """Outcome of one decision, with enough context to recheck it.

    __init__ is written by hand.  A frozen dataclass's own sets each field
    through object.__setattr__, six calls per certificate, and
    exists_witness makes one certificate per query; this one fills the
    instance dict in one step and then runs __post_init__, as the
    generated one does.  detail defaults to a fresh dict.
    """

    problem: str
    verdict: str
    method: str
    base: GroupSet  # the set C the certificate decides
    witness: Optional[GroupSet] = None
    detail: dict[str, Any] = field(default_factory=dict)

    def __init__(self, problem: str, verdict: str, method: str, base: GroupSet,
                 witness: Optional[GroupSet] = None, detail: Optional[dict[str, Any]] = None):
        self.__dict__.update(problem=problem, verdict=verdict, method=method, base=base,
                             witness=witness, detail={} if detail is None else detail)
        self.__post_init__()

    def __post_init__(self):
        if self.verdict not in (YES, NO, UNKNOWN):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.method not in KNOWN_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.verdict == YES and self.witness is None:
            raise ValueError("a yes verdict needs a witness")
        if self.verdict != YES and self.witness is not None:
            raise ValueError("only a yes verdict carries a witness")

    @classmethod
    def verified_yes(cls, problem: str, method: str, witness: GroupSet,
                     base: GroupSet, **detail) -> "DecisionCertificate":
        """A yes for base with the given witness, rechecked before return.

        Raises RuntimeError when the witness fails verify(): a procedure
        that reached a wrong witness must never hand it out.
        """
        cert = cls(problem, YES, method, base, witness, detail)
        if not cert.verify():
            raise RuntimeError(f"{method} witness failed verification")
        return cert

    def verify(self) -> bool:
        """Recheck the witness against the stated problem, from scratch.

        Only yes verdicts are checkable; anything else returns True
        vacuously so callers can assert on every certificate alike.
        """
        if self.verdict != YES:
            return True
        if self.problem == MINIMAL_COMPLEMENT:
            return complements.is_minimal_complement_for(self.witness, self.base)
        if self.problem == MAXIMAL_SUPPLEMENT:
            return supplements.is_maximal_supplement_for(self.witness, self.base)
        raise ValueError(f"no checker for problem {self.problem!r}")

    def summary(self) -> str:
        bits = [self.problem, self.verdict, f"via {self.method}"]
        if self.witness is not None:
            bits.append(f"witness size {len(self.witness)}")
        return ", ".join(bits)


@dataclass
class SearchBudget:
    """The cap that keeps unknown reachable: how many nodes any exhaustive
    search may examine (a W through 0 tried by the complement search, a
    node of the supplement and difference-set search)."""

    max_candidates: int = 1 << 22

    def __post_init__(self):
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be positive")


# Imported last, and used through the module names so that a wrapper
# installed on either checker is seen: both modules import this one.
from . import complements, supplements  # noqa: E402
