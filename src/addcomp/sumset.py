"""Sets of group elements as integer bitmasks, and the sumset kernels on them.

A set over a group of order n lives in one Python integer: bit i is element i.
Translation by a group element is a composition of per-factor block rotations,
so a sumset A + B is computed by OR-ing translates of the larger operand's
mask over the smaller operand's elements.  Everything downstream (complement
checks, coverage, supplement tests) reduces to these kernels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .groups import Group

__all__ = [
    "GroupSet",
    "CoverageProfile",
    "bits_of",
    "translate_mask",
    "progression_sum",
    "PrivatePoints",
    "private_points",
    "mask_of",
    "negated_mask",
    "sumset",
    "doubling_reaches",
    "difference_set",
    "translate",
    "negated",
    "coverage",
    "add_to_planes",
    "lowest_extreme",
]


BITS_CHUNK = 4096
_LOW_CHUNK = (1 << BITS_CHUNK) - 1
MASK_OR_POINTS = 8


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask, ascending.

    Linear in the mask's width plus the number of set bits: a mask wider
    than BITS_CHUNK bits is walked in BITS_CHUNK-bit chunks of its bytes,
    skipping zero chunks, so clearing one bit never rewrites the whole mask.
    """
    if mask.bit_length() > BITS_CHUNK:
        yield from _wide_bits_of(mask)
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _wide_bits_of(mask: int) -> Iterator[int]:
    step = BITS_CHUNK // 8
    zero = bytes(step)
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for base in range(0, len(raw), step):
        piece = raw[base:base + step]
        if piece == zero:
            continue
        chunk = int.from_bytes(piece, "little")
        while chunk:
            low = chunk & -chunk
            yield 8 * base + low.bit_length() - 1
            chunk ^= low


def translate_mask(group: "Group", mask: int, g: int) -> int:
    """Mask of {a + g : a in mask}, via block rotations along each factor.

    Translation by 0 returns mask itself.  A cyclic group rotates the
    whole mask; a product follows group.translate_plan(g), one step of
    two shifts, an AND, an XOR and an OR of n-bit operands per factor
    where g's digit is non-zero, so one translate is linear in n (no
    multiply).  Products of order at most BITS_CHUNK keep each element's
    plan, so a translate there builds no mask.
    """
    n = group.order
    if g == 0 or n <= 1:
        return mask
    if len(group.factors) == 1:
        return ((mask << g) | (mask >> (n - g))) & group.full_mask
    for keep, shift, back in group.translate_plan(g):
        # the low block - shift bits of every block move up by shift, the
        # rest wrap down to the bottom of the same block
        low = mask & keep
        mask = (low << shift) | ((mask ^ low) >> back)
    return mask


def progression_sum(group: "Group", mask: int, step: int, length: int) -> int:
    """Mask of A + {0, step, ..., (length - 1)*step}, by binary doubling.

    mask grows as A + {0, ..., 2^b - 1}*step, and each set bit b of length
    ORs in one translate of it: at most 2*log2(length) translates.
    """
    out = offset = 0
    while length:
        if length & 1:
            out |= translate_mask(group, mask, offset)
            offset = group.add(offset, step)
        length >>= 1
        if length:
            mask |= translate_mask(group, mask, step)
            step = group.add(step, step)
    return out


class PrivatePoints(NamedTuple):
    """What W + elements covers, and each element's least private point.

    covered is the mask of the points some w + e reaches.  least[i] is the
    least private point of elements[i], that is the least point of
    W + elements[i] no other element reaches, or None when it has none.
    """

    covered: int
    least: list


def private_points(group: "Group", w: int, elements,
                   holes: Optional[Sequence[int]] = None) -> PrivatePoints:
    """Cover and private points of W + elements, by the cheaper of two paths.

    The translate path ORs the k translates W + e into once/twice masks,
    then ANDs each translate with the private mask again: 2k translates,
    O(k*n/64) word operations.  The complement path lists Z = G minus W
    and counts, for each x of Z + elements, the e with x - e in Z; every
    other point is covered k times.  A count of k means x is uncovered,
    k - 1 that x is private to the one e with x - e outside Z: O(n/8)
    byte operations plus O(|Z|*k^2) group operations, whatever n is.

    The complement path runs when 8192 * (|Z| + 1) * k < (k - 1) * n.
    Timed path against path (random Z, k = 2, 4, 8, 16, Z_n and n x n
    products, n = 2^12 to 2^24, a 2-core x86 host), it is the faster one
    below about |Z| = n/33000 to n/6000 at k = 2 and n/10000 to n/3000
    at k >= 4; products cross later, since their translates cost more
    per factor.  The rule is within 2x of that crossover for every k
    measured; the + 1 stands for the complement path's fixed cost, and
    with k = 1 the translate path is a single translate.  So every group
    of order up to 8192, where the exact searches run, takes the
    translate path, and the dense witnesses of the randomized builder
    (|Z| <= k^2) take the complement path from order 10^6 up.

    The path is chosen while Z is listed: the walk over Z's points
    (_holes_within) stops at the first one past the rule's bound, so W
    is never counted, and a W that misses many points pays a short walk
    before its translates.  holes, when given, is Z ascending, such as
    the hole list a GroupSet keeps (GroupSet.kept_holes); then Z is read
    from it and not walked.
    """
    elements = list(elements)
    k = len(elements)
    if k >= 2:
        # the largest |Z| with 8192 * (|Z| + 1) * k < (k - 1) * n
        most = ((k - 1) * group.order - 1) // (8192 * k) - 1
        if holes is None:
            holes = _holes_within(group, w, most)
        elif len(holes) > most:
            holes = None
        if holes is not None:
            return _private_points_by_complement(group, holes, elements)
    return _private_points_by_translates(group, w, elements)


def _holes_within(group: "Group", w: int, most: int) -> Optional[list]:
    """The points W misses, ascending, or None when there are more than most.

    They are walked as bits_of(G xor W), and the walk stops at the first
    point past most.  The lowest BITS_CHUNK bits are counted first, so a
    W that misses many points there is told apart without the walk's
    pass over the bytes of the whole mask.
    """
    if most < 0:
        return None
    z = group.full_mask ^ w
    if (z & _LOW_CHUNK).bit_count() > most:
        return None
    holes = list(islice(bits_of(z), most + 1))
    return holes if len(holes) <= most else None


def _private_points_by_translates(group: "Group", w: int, elements: list) -> PrivatePoints:
    once = twice = 0
    for e in elements:
        t = translate_mask(group, w, e)
        twice |= once & t
        once |= t
    private = once ^ twice
    least = []
    for e in elements:
        hit = translate_mask(group, w, e) & private
        least.append((hit & -hit).bit_length() - 1 if hit else None)
    return PrivatePoints(once, least)


def _private_points_by_complement(group: "Group", holes: list, elements: list) -> PrivatePoints:
    """private_points from the list of the points W misses, for k >= 2 elements."""
    k = len(elements)
    count = Counter(group.sums(holes, elements))
    uncovered = [x for x, m in count.items() if m == k]
    covered = group.full_mask ^ mask_of(group.order, uncovered)
    hole_set = set(holes)
    sub = group.sub
    least: list = [None] * k
    for x, m in count.items():
        if m == k - 1:
            i = next(i for i, e in enumerate(elements) if sub(x, e) not in hole_set)
            if least[i] is None or x < least[i]:
                least[i] = x
    return PrivatePoints(covered, least)


def mask_of(n: int, points) -> int:
    """Mask of the given points of a group of order n.

    Setting each bit of a bytearray costs O(1) where OR-ing 1 << x into
    an int costs O(x/64), so many points go through one bytes pass,
    O(n/8 + len(points)) on any group.  That pass ends in one conversion
    of n/8 bytes to an int, which costs about as much as ten n-bit ORs
    (timed for n = 2^16 to 2^24 on a 2-core x86 host), so at most
    MASK_OR_POINTS points are OR-ed in directly.
    """
    if len(points) <= MASK_OR_POINTS:
        mask = 0
        for x in points:
            mask |= 1 << x
        return mask
    raw = bytearray((n + 7) // 8)
    for x in points:
        raw[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(raw, "little")


def negated_mask(group: "Group", mask: int) -> int:
    """Mask of {-a : a in mask}."""
    out = 0
    for e in bits_of(mask):
        out |= 1 << group.neg(e)
    return out


# A kept tuple costs about 40 bytes a point (an int object and its slot
# in the tuple), a mask 1/8 byte a bit: a tuple is kept only when it
# takes no more.
KEPT_POINT_BITS = 320


@dataclass(frozen=True, slots=True)
class GroupSet:
    """Immutable subset of a finite abelian group, stored as a bitmask.

    A set whose mask is wider than BITS_CHUNK bits may also keep the
    ascending tuple of its points, or of the points of the group it
    misses (its holes), so that listing, counting and printing it read
    the tuple instead of passing over the mask's bytes.  A tuple is kept
    only where it is at hand when the mask is first listed or made:
    from_elements keeps the points it built the mask from, full() keeps
    no holes, complement() swaps points and holes, and the first
    elements() call on a mask built any other way (a hex literal, say)
    keeps its listing.  A tuple is kept only when it takes no more memory
    than the mask (KEPT_POINT_BITS bits of mask a point).

    The mask never changes once made, and each kept tuple lists exactly
    that mask's points or holes, so reading the tuple is reading the
    mask.  That is why DecisionCertificate.verified_yes may recheck a
    witness through C's kept points and W's kept holes: it sees the very
    points a pass over the masks would.  Equality, hashing and pickling
    see (group, mask) only, and an unset slot is read as None.
    """

    group: Group
    mask: int
    _points: Optional[tuple] = field(init=False, compare=False, repr=False)
    _holes: Optional[tuple] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.group.order:
            raise ValueError(
                f"mask 0x{self.mask:x} does not fit a group of order {self.group.order}"
            )

    def __reduce__(self):
        return GroupSet, (self.group, self.mask)

    def _keeps(self, count: int) -> bool:
        """Whether this set keeps a tuple of count points: its mask is
        wider than BITS_CHUNK bits, and the tuple takes no more memory."""
        width = self.mask.bit_length()
        return width > BITS_CHUNK and KEPT_POINT_BITS * count <= width

    @classmethod
    def from_elements(cls, group: "Group", elements: Iterable[int]) -> "GroupSet":
        elements = list(elements)
        for e in elements:
            if not 0 <= e < group.order:
                raise ValueError(f"element index {e} out of range for {group}")
        s = cls(group, mask_of(group.order, elements))
        # no set of a group of order <= BITS_CHUNK is wide: skip the call
        if group.order > BITS_CHUNK and s._keeps(len(elements)):
            object.__setattr__(s, "_points", tuple(sorted(set(elements))))
        return s

    @classmethod
    def empty(cls, group: "Group") -> "GroupSet":
        return cls(group, 0)

    @classmethod
    def full(cls, group: "Group") -> "GroupSet":
        s = cls(group, group.full_mask)
        if s._keeps(0):
            object.__setattr__(s, "_holes", ())
        return s

    @classmethod
    def singleton(cls, group: "Group", e: int) -> "GroupSet":
        return cls.from_elements(group, (e,))

    def elements(self) -> list[int]:
        mask = self.mask
        if mask.bit_length() > BITS_CHUNK:
            points = getattr(self, "_points", None)
            if points is not None:
                return list(points)
            listed = list(bits_of(mask))
            if self._keeps(len(listed)):
                object.__setattr__(self, "_points", tuple(listed))
            return listed
        return list(bits_of(mask))

    def kept_holes(self) -> Optional[tuple]:
        """The points of the group this set misses, ascending, when it
        keeps them (see the class docstring); else None."""
        if self.mask.bit_length() > BITS_CHUNK:
            return getattr(self, "_holes", None)
        return None

    def hex_mask(self) -> str:
        if self.mask.bit_length() > BITS_CHUNK:
            points = getattr(self, "_points", None)
            if points is not None:
                return _hex_of_list(points, 0)
            holes = getattr(self, "_holes", None)
            if holes is not None:
                return _hex_of_list(holes, self.group.order)
        return hex(self.mask)

    def complement(self) -> "GroupSet":
        out = GroupSet(self.group, self.group.full_mask ^ self.mask)
        if self.mask.bit_length() > BITS_CHUNK:
            for mine, theirs in (("_points", "_holes"), ("_holes", "_points")):
                kept = getattr(self, mine, None)
                if kept is not None and out._keeps(len(kept)):
                    object.__setattr__(out, theirs, kept)
        return out

    def with_element(self, e: int) -> "GroupSet":
        return GroupSet(self.group, self.mask | (1 << e))

    def without_element(self, e: int) -> "GroupSet":
        return GroupSet(self.group, self.mask & ~(1 << e))

    def is_subset(self, other: "GroupSet") -> bool:
        return self.mask & ~other.mask == 0

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.group.order and (self.mask >> e) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        if mask.bit_length() > BITS_CHUNK:
            points = getattr(self, "_points", None)
            if points is not None:
                return iter(points)
        return bits_of(mask)

    def __len__(self) -> int:
        mask = self.mask
        if mask.bit_length() > BITS_CHUNK:
            points = getattr(self, "_points", None)
            if points is not None:
                return len(points)
            holes = getattr(self, "_holes", None)
            if holes is not None:
                return self.group.order - len(holes)
        return mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "GroupSet") -> "GroupSet":
        _same_group(self, other)
        return GroupSet(self.group, self.mask | other.mask)

    def __and__(self, other: "GroupSet") -> "GroupSet":
        _same_group(self, other)
        return GroupSet(self.group, self.mask & other.mask)

    def __sub__(self, other: "GroupSet") -> "GroupSet":
        _same_group(self, other)
        return GroupSet(self.group, self.mask & ~other.mask)

    def __repr__(self) -> str:
        size = len(self)
        head = 10 if size > 12 else size
        inner = ", ".join(map(str, islice(self, head)))
        if size > 12:
            inner += f", ... ({size} elements)"
        return f"GroupSet({self.group.spec_string()}, {{{inner}}})"


def _hex_of_list(points: tuple, n: int) -> str:
    """hex() of the mask of the ascending points (at least one), or with
    n > 0 of the mask of the group of order n without them, written
    from the list.

    Every hex digit holding no listed point is "0" (or "f" without
    them), so the text is runs of that digit with the digits of the
    listed points spliced in: O(len(points)) digit arithmetic plus the
    string's length in bytes, with no conversion of the mask.  Without
    the points the top digit covers only the n mod 4 bits left over (all
    4 when n mod 4 = 0), and listed points there can clear it, so its
    leading zeros are stripped as hex() strips them.
    """
    if n:
        fill, rest, top = "f", 15, (n + 3) >> 2  # top: digits of an n-bit mask
        digits = {top - 1: (1 << (n - 4 * (top - 1))) - 1}
    else:
        fill, rest, top = "0", 0, (points[-1] >> 2) + 1
        digits = {}
    for p in points:
        d = p >> 2
        digits[d] = digits.get(d, rest) ^ 1 << (p & 3)
    pieces = ["0x"]
    above = top
    for d in sorted(digits, reverse=True):
        pieces += [fill * (above - d - 1), "0123456789abcdef"[digits[d]]]
        above = d
    pieces.append(fill * above)
    text = "".join(pieces)
    if text[2] == "0":
        text = "0x" + (text[2:].lstrip("0") or "0")
    return text


def _same_group(a: GroupSet, b: GroupSet) -> None:
    if a.group != b.group:
        raise ValueError(f"sets live in different groups: {a.group} vs {b.group}")


def sumset(a: GroupSet, b: GroupSet) -> GroupSet:
    """Pointwise sum A + B = {x + y : x in A, y in B}."""
    _same_group(a, b)
    group = a.group
    if not a.mask or not b.mask:
        return GroupSet(group, 0)
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    full = group.full_mask
    acc = 0
    lm = large.mask
    for e in small:
        acc |= translate_mask(group, lm, e)
        if acc == full:
            break
    return GroupSet(group, acc)


def doubling_reaches(group: "Group", mask: int, bound: int) -> bool:
    """True when A + A is shown to have at least bound points, A = mask.

    ORs the translates A + a, a in A ascending, and stops as soon as the
    union reaches bound; for a random set that takes a few translates.
    On groups of order at most BITS_CHUNK a False is exact: |A + A| <
    bound.  On larger groups it is "not shown", returned without a
    translate, since there one n-bit translate costs more than the O(|A|)
    element loops a True lets callers skip.
    """
    if group.order > BITS_CHUNK:
        return False
    acc = 0
    for a in bits_of(mask):
        acc |= translate_mask(group, mask, a)
        if acc.bit_count() >= bound:
            return True
    return False


def negated(a: GroupSet) -> GroupSet:
    return GroupSet(a.group, negated_mask(a.group, a.mask))


def difference_set(a: GroupSet) -> GroupSet:
    """A - A = {x - y : x, y in A}, the union of the translates A - y.

    Stops at the first full union, so only the y it translates by are
    negated.
    """
    group = a.group
    full = group.full_mask
    acc = 0
    for y in bits_of(a.mask):
        acc |= translate_mask(group, a.mask, group.neg(y))
        if acc == full:
            break
    return GroupSet(group, acc)


def translate(a: GroupSet, g: int) -> GroupSet:
    if not 0 <= g < a.group.order:
        raise ValueError(f"element index {g} out of range for {a.group}")
    return GroupSet(a.group, translate_mask(a.group, a.mask, g))


@dataclass(frozen=True, slots=True, eq=False)
class CoverageProfile:
    """Per-element representation counts for a pair (W, C).

    counts[g] is the number of pairs (w, c) with w + c = g.  The counts are
    kept as bit planes: bit g of planes[i] is bit i of counts[g], so the
    masks and the total are read off the planes without the counts.
    """

    group: Group
    planes: tuple[int, ...]
    counts: tuple[int, ...]

    def count(self, g: int) -> int:
        return self.counts[g]

    def covered_mask(self) -> int:
        covered = 0
        for plane in self.planes:
            covered |= plane
        return covered

    def unique_mask(self) -> int:
        """Mask of elements represented exactly once."""
        if not self.planes:
            return 0
        higher = 0
        for plane in self.planes[1:]:
            higher |= plane
        return self.planes[0] & ~higher

    def total(self) -> int:
        return sum(plane.bit_count() << i for i, plane in enumerate(self.planes))


def coverage(w: GroupSet, c: GroupSet) -> CoverageProfile:
    """Representation counts of every group element as w + c.

    Each translate of the larger mask by an element of the smaller one is
    added into the bit planes of the counts by add_to_planes.  That is
    k = min(|W|, |C|) translates, each with O(n/64) word operations per
    plane its carry reaches; no count exceeds k, so there are at most
    k.bit_length() planes.
    """
    _same_group(w, c)
    group = w.group
    small, large = (w, c) if len(w) <= len(c) else (c, w)
    planes: list[int] = []
    for e in small:
        add_to_planes(planes, translate_mask(group, large.mask, e))
    # A plane with more set bits than clear ones is read through its clear
    # bits: its weight goes into every count, and comes out where it is 0.
    n = group.order
    dense = [2 * plane.bit_count() > n for plane in planes]
    counts = [sum(1 << i for i, d in enumerate(dense) if d)] * n
    for i, plane in enumerate(planes):
        if dense[i]:
            for x in bits_of(group.full_mask & ~plane):
                counts[x] -= 1 << i
        else:
            for x in bits_of(plane):
                counts[x] += 1 << i
    return CoverageProfile(group, tuple(planes), tuple(counts))


def add_to_planes(planes: list, mask: int) -> None:
    """Add 1 to the count of every point of mask, in place.

    The counts are kept as bit planes (bit x of planes[i] is bit i of the
    count of x) and the add is a ripple carry: plane i takes carry ^ plane
    and passes on carry & plane, and the add stops as soon as the carry is
    0.  A carry left past the top plane starts a new one.
    """
    for i, plane in enumerate(planes):
        planes[i] = plane ^ mask
        mask &= plane
        if not mask:
            return
    if mask:
        planes.append(mask)


def lowest_extreme(planes: list, within: int, largest: bool) -> int:
    """The lowest point of the non-empty mask within whose count is extreme.

    largest picks the greatest count among the points of within, else the
    least.  The planes are read from the top: a plane that splits the
    points still in the running keeps those with the wanted bit, and one
    that does not split them leaves them all, so what is left are the
    points of extreme count, and the lowest of them is returned.
    """
    for plane in reversed(planes):
        keep = within & plane if largest else within & ~plane
        if keep:
            within = keep
    return (within & -within).bit_length() - 1
