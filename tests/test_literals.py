import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomp.groups import Group
from addcomp.literals import (LiteralError, format_element, format_set,
                              parse_element, parse_group, parse_set)
from addcomp.sumset import GroupSet


def test_parse_group():
    assert parse_group("6").factors == (6,)
    assert parse_group("2 x 4").factors == (2, 4)
    assert parse_group("1").order == 1
    with pytest.raises(LiteralError):
        parse_group("6x")
    with pytest.raises(LiteralError):
        parse_group("0")
    with pytest.raises(LiteralError):
        parse_group("")
    with pytest.raises(LiteralError, match="bad factor '-3'"):
        parse_group("2x-3")


def test_non_ascii_digits_are_literal_errors():
    # str.isdigit passes these; int() rejects "²" and reads "٣" as 3
    with pytest.raises(LiteralError, match="bad factor '²'"):
        parse_group("²")
    with pytest.raises(LiteralError, match="bad element literal '٣'"):
        parse_element(Group([6]), "٣")
    with pytest.raises(LiteralError, match="bad coordinate '²'"):
        parse_element(Group([2, 3]), "(1,²)")
    # int(..., 16) reads all but "0x" after the prefix, as 16, 3, 3, 3, 0,
    # -1 and 26; a hex mask is ASCII hex digits only, with no sign, "_",
    # space or second "0x"
    for text in ("0x1_0", "0x٣", "0x+3", "0x 3", "0X-0", "0x-1", "0x0x1a", "0x"):
        with pytest.raises(LiteralError, match="bad hex mask"):
            parse_set(Group([16]), text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_group, "6x", "bad factor '' in group spec '6x'"),
    (parse_group, "2x-3", "bad factor '-3' in group spec '2x-3'"),
    (parse_group, "0", "factor 0 in group spec '0' must be >= 2"),
    (lambda t: parse_element(Group([6]), t), "٣", "bad element literal '٣'"),
    (lambda t: parse_element(Group([2, 3]), t), "(1,²)", "bad coordinate '²' in '(1,²)'"),
    (lambda t: parse_set(Group([16]), t), "0x-1", "bad hex mask '0x-1'"),
    (lambda t: parse_set(Group([6]), t), "{x}", "bad element literal 'x'"),
])
def test_integer_error_messages_in_full(parse, text, message):
    # the message is formatted only on failure, and reads as it always did
    with pytest.raises(LiteralError) as err:
        parse(text)
    assert str(err.value) == message


def test_parse_element_wraps_mod_order():
    g = Group([6])
    assert parse_element(g, "9") == 3
    assert parse_element(g, "-1") == 5
    assert parse_element(g, "0") == 0


def test_parse_element_tuples():
    g = Group([2, 4])
    assert parse_element(g, "(1, 3)") == g.index_of([1, 3])
    assert parse_element(g, "(1,-1)") == g.index_of([1, 3])
    with pytest.raises(LiteralError):
        parse_element(g, "(1)")
    with pytest.raises(LiteralError):
        parse_element(g, "(1, 2")


def test_parse_element_errors():
    g = Group([6])
    with pytest.raises(LiteralError):
        parse_element(g, "a")
    with pytest.raises(LiteralError):
        parse_element(g, "")


def test_parse_set_braces():
    g = Group([6])
    s = parse_set(g, "{0, 1, 2}")
    assert s.elements() == [0, 1, 2]
    assert parse_set(g, "{}").mask == 0
    t = parse_set(Group([2, 4]), "{(0,0), (1,2)}")
    assert len(t) == 2


def test_parse_set_hex():
    g = Group([6])
    assert parse_set(g, "0x07").elements() == [0, 1, 2]
    assert parse_set(g, "0x3F") == GroupSet.full(g)
    with pytest.raises(LiteralError):
        parse_set(g, "0x40")
    with pytest.raises(LiteralError):
        parse_set(g, "0xZZ")


def test_parse_set_errors():
    g = Group([6])
    with pytest.raises(LiteralError):
        parse_set(g, "0, 1")
    with pytest.raises(LiteralError):
        parse_set(g, "{(0,1}")


def test_format_element():
    assert format_element(Group([6]), 4) == "4"
    g = Group([2, 4])
    assert format_element(g, g.index_of([1, 3])) == "(1,3)"


def test_format_set_truncates_to_hex():
    g = Group([70])
    small = GroupSet.from_elements(g, [0, 1])
    assert format_set(small) == "{0, 1}"
    big = GroupSet.full(g)
    assert format_set(big).startswith("0x")
    assert parse_set(g, format_set(big)) == big


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(7,), (2, 4), (3, 5)]),
       st.integers(0, (1 << 15) - 1))
def test_set_roundtrip(factors, raw):
    g = Group(list(factors))
    s = GroupSet(g, raw % (1 << g.order))
    assert parse_set(g, format_set(s)) == s
    assert parse_set(g, s.hex_mask()) == s
