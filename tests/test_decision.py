import dataclasses
import pickle

import pytest

from addcomp.decision import (MAXIMAL_SUPPLEMENT, MINIMAL_COMPLEMENT, NO,
                              UNKNOWN, YES, DecisionCertificate, SearchBudget)
from addcomp.groups import Group
from addcomp.sumset import GroupSet


def test_verdict_witness_pairing():
    g = Group([6])
    w = GroupSet.from_elements(g, [0, 3])
    c = GroupSet.from_elements(g, [0, 1, 2])
    cert = DecisionCertificate("minimal-complement-for", YES, "exhaustive", c, w)
    assert cert.verify()
    with pytest.raises(ValueError):
        DecisionCertificate("minimal-complement-for", YES, "exhaustive", c)
    with pytest.raises(ValueError):
        DecisionCertificate("minimal-complement-for", NO, "bound-size-gap", c,
                            witness=w)
    with pytest.raises(ValueError):
        DecisionCertificate("minimal-complement-for", "maybe", "exhaustive", c)
    with pytest.raises(ValueError):
        DecisionCertificate("minimal-complement-for", NO, "vibes", c)


def test_verify_catches_bad_witness():
    g = Group([6])
    c = GroupSet.from_elements(g, [0, 1, 2])
    bad = DecisionCertificate("minimal-complement-for", YES, "exhaustive", c,
                              witness=GroupSet.from_elements(g, [0, 1]))
    assert not bad.verify()


def test_verified_yes_builds_checked_certificates():
    g = Group([8])
    c = GroupSet.from_elements(g, [0, 1])
    w = GroupSet.from_elements(g, [0, 2, 4])
    sup = DecisionCertificate.verified_yes(MAXIMAL_SUPPLEMENT, "exhaustive",
                                           w, c, nodes=3)
    assert sup.verdict == YES and sup.witness == w
    assert sup.base == c and sup.detail == {"nodes": 3}
    g6 = Group([6])
    comp = DecisionCertificate.verified_yes(
        MINIMAL_COMPLEMENT, "construction-pair",
        GroupSet.from_elements(g6, [0, 3]), GroupSet.from_elements(g6, [0, 1, 2]),
        offset=3)
    assert comp.verify() and comp.detail["offset"] == 3


def test_verified_yes_raises_on_failing_witness():
    g6 = Group([6])
    with pytest.raises(RuntimeError):
        DecisionCertificate.verified_yes(
            MINIMAL_COMPLEMENT, "exhaustive", GroupSet.from_elements(g6, [0, 1]),
            GroupSet.from_elements(g6, [0, 1, 2]))
    g8 = Group([8])
    # {0, 2} is a supplement for {0, 1} but 4 can still join C
    with pytest.raises(RuntimeError):
        DecisionCertificate.verified_yes(
            MAXIMAL_SUPPLEMENT, "exhaustive",
            GroupSet.from_elements(g8, [0, 2]), GroupSet.from_elements(g8, [0, 1]))


def test_verify_vacuous_for_no_and_unknown():
    c = GroupSet.from_elements(Group([6]), [0, 1, 2])
    no = DecisionCertificate("minimal-complement-for", NO, "bound-size-gap", c)
    unk = DecisionCertificate("minimal-complement-for", UNKNOWN, "budget", c)
    assert no.verify() and unk.verify()


def test_verify_supplement_problem():
    g = Group([8])
    c = GroupSet.from_elements(g, [0, 1])
    w = GroupSet.from_elements(g, [0, 2, 4])
    cert = DecisionCertificate("maximal-supplement-for", YES, "exhaustive", c, w)
    assert cert.verify()


def test_verify_unknown_problem_raises():
    g = Group([4])
    cert = DecisionCertificate("made-up", YES, "exhaustive", GroupSet.full(g),
                               GroupSet.full(g))
    with pytest.raises(ValueError):
        cert.verify()


def test_summary_mentions_witness_size():
    g = Group([6])
    cert = DecisionCertificate(
        "minimal-complement-for", YES, "construction-ap",
        GroupSet.from_elements(g, [0, 1, 2]), GroupSet.from_elements(g, [0, 3]))
    s = cert.summary()
    assert "yes" in s and "construction-ap" in s and "2" in s


def test_budget_validation():
    b = SearchBudget()
    assert b.max_candidates == 1 << 22
    with pytest.raises(ValueError):
        SearchBudget(max_candidates=0)
    with pytest.raises(ValueError):
        SearchBudget(max_candidates=-3)
    assert not hasattr(b, "max_nodes")


def _contract_certificates():
    g = Group([6])
    c = GroupSet.from_elements(g, [0, 1, 2])
    w = GroupSet.from_elements(g, [0, 3])
    yes = DecisionCertificate(MINIMAL_COMPLEMENT, YES, "exhaustive", c, w, {"candidates": 2})
    no = DecisionCertificate(MINIMAL_COMPLEMENT, NO, "bound-size-gap", c)
    return c, w, yes, no


def test_certificate_is_frozen():
    c, w, yes, no = _contract_certificates()
    for name in ("problem", "verdict", "method", "base", "witness", "detail"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(yes, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del no.verdict


def test_certificate_replace_eq_repr_and_pickle():
    c, w, yes, no = _contract_certificates()
    assert yes == DecisionCertificate(MINIMAL_COMPLEMENT, YES, "exhaustive", c,
                                      witness=w, detail={"candidates": 2})
    assert yes != no and yes != DecisionCertificate(MINIMAL_COMPLEMENT, YES, "exhaustive", c, w)
    unknown = dataclasses.replace(no, verdict=UNKNOWN, method="budget")
    assert unknown == DecisionCertificate(MINIMAL_COMPLEMENT, UNKNOWN, "budget", c)
    assert dataclasses.replace(yes) == yes
    with pytest.raises(ValueError):
        dataclasses.replace(yes, verdict=NO)  # __post_init__ runs on the copy
    assert repr(no) == (
        f"DecisionCertificate(problem='minimal-complement-for', verdict='no', "
        f"method='bound-size-gap', base={c!r}, witness=None, detail={{}})")
    assert repr(yes).endswith(f"witness={w!r}, detail={{'candidates': 2}})")
    for cert in (yes, no, unknown):
        back = pickle.loads(pickle.dumps(cert))
        assert back == cert and back.detail == cert.detail and type(back) is DecisionCertificate
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.verdict = YES
    assert [f.name for f in dataclasses.fields(DecisionCertificate)] == [
        "problem", "verdict", "method", "base", "witness", "detail"]


def test_certificate_detail_is_a_fresh_dict_each_time():
    c, w, yes, no = _contract_certificates()
    other = DecisionCertificate(MINIMAL_COMPLEMENT, NO, "bound-size-gap", c)
    assert no.detail == {} and other.detail == {}
    no.detail["size"] = 3
    assert other.detail == {}
    assert no.detail is not other.detail


@pytest.mark.parametrize("verdict, method, witness, message", [
    ("maybe", "exhaustive", None, "bad verdict 'maybe'"),
    (NO, "vibes", None, "unknown method 'vibes'"),
    (YES, "exhaustive", None, "a yes verdict needs a witness"),
    (NO, "bound-size-gap", "w", "only a yes verdict carries a witness"),
    (UNKNOWN, "budget", "w", "only a yes verdict carries a witness"),
])
def test_certificate_post_init_errors(verdict, method, witness, message):
    c, w, yes, no = _contract_certificates()
    with pytest.raises(ValueError, match=f"^{message}$"):
        DecisionCertificate(MINIMAL_COMPLEMENT, verdict, method, c,
                            w if witness == "w" else None)
    with pytest.raises(ValueError, match=f"^{message}$"):
        DecisionCertificate(problem=MINIMAL_COMPLEMENT, verdict=verdict, method=method,
                            base=c, witness=w if witness == "w" else None, detail={})
