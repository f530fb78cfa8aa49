"""Text forms for groups, elements, and sets.

Group specs look like "12" or "2x4x8"; "1" is the trivial group.  Elements
are either a bare index or a coordinate tuple "(1,3)".  Sets are either a
braced element list "{0, 3, (1,2)}" or a hex mask "0x1b" read little-endian
(bit i set means element i is in the set).
"""

from __future__ import annotations

import re

from .groups import Group
from .sumset import GroupSet

__all__ = [
    "parse_group",
    "parse_element",
    "parse_set",
    "format_element",
    "format_set",
    "LiteralError",
]


class LiteralError(ValueError):
    """Raised when a group, element, or set literal cannot be read."""


# [0-9] is ASCII only, unlike \d and str.isdigit
_SPELLING = {10: re.compile("-?[0-9]+"), 16: re.compile("[0-9a-fA-F]+")}


def _integer(token: str, message: str, *args, base: int = 10) -> int:
    """token read in base 10 (ASCII digits after an optional "-") or in
    base 16 (ASCII hex digits, no sign); else LiteralError with
    message.format(*args), formatted only then, since an argument may be
    a literal of millions of characters."""
    if not _SPELLING[base].fullmatch(token):
        raise LiteralError(message.format(*args))
    return int(token, base)


def parse_group(text: str) -> Group:
    t = text.strip()
    if not t:
        raise LiteralError("empty group spec")
    if t == "1":
        return Group([])
    factors = []
    for p in t.split("x"):
        p = p.strip()
        bad = "bad factor {!r} in group spec {!r}"
        d = _integer(p, bad, p, text)
        if d < 2:
            # a signed factor is malformed, not merely too small
            raise LiteralError(bad.format(p, text) if p.startswith("-") else
                               f"factor {d} in group spec {text!r} must be >= 2")
        factors.append(d)
    return Group(factors)


def parse_element(group: Group, text: str) -> int:
    t = text.strip()
    if not t:
        raise LiteralError("empty element literal")
    if not t.startswith("("):
        return _integer(t, "bad element literal {!r}", text) % group.order
    if not t.endswith(")"):
        raise LiteralError(f"unclosed tuple in element literal {text!r}")
    coords = []
    for p in t[1:-1].split(","):
        p = p.strip()
        if p:
            coords.append(_integer(p, "bad coordinate {!r} in {!r}", p, text))
    if len(coords) != len(group.factors):
        raise LiteralError(
            f"{text!r} has {len(coords)} coordinates, "
            f"group {group.spec_string()} needs {len(group.factors)}"
        )
    return group.index_of(coords)


def parse_set(group: Group, text: str) -> GroupSet:
    t = text.strip()
    if not t:
        raise LiteralError("empty set literal")
    if t[:2].lower() == "0x":
        mask = _integer(t[2:], "bad hex mask {!r}", text, base=16)
        if mask >> group.order:
            raise LiteralError(
                f"mask {text!r} has bits beyond group order {group.order}"
            )
        return GroupSet(group, mask)
    if not (t.startswith("{") and t.endswith("}")):
        raise LiteralError(
            f"set literal {text!r} must be '{{...}}' or a 0x hex mask"
        )
    points = [parse_element(group, piece) for piece in _split_top_level(t[1:-1])]
    return GroupSet.from_elements(group, points)


def _split_top_level(text: str) -> list[str]:
    """The non-blank pieces of text between commas outside parentheses."""
    pieces = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise LiteralError(f"unbalanced parens in {text!r}")
        elif ch == "," and depth == 0:
            pieces.append(text[start:i].strip())
            start = i + 1
    if depth != 0:
        raise LiteralError(f"unbalanced parens in {text!r}")
    pieces.append(text[start:].strip())
    return [piece for piece in pieces if piece]


def format_element(group: Group, e: int) -> str:
    if len(group.factors) <= 1:
        return str(e)
    return "(" + ",".join(str(a) for a in group.coords_of(e)) + ")"


def format_set(s: GroupSet, max_elements: int = 64) -> str:
    group = s.group
    if len(s) > max_elements:
        return s.hex_mask()
    return "{" + ", ".join(format_element(group, e) for e in s) + "}"
