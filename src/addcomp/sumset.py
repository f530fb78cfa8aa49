"""Sets of group elements as integer bitmasks, and the sumset kernels on them.

A set over a group of order n lives in one Python integer: bit i is element i.
Translation by a group element is a composition of per-factor block rotations,
so a sumset A + B is computed by OR-ing translates of the larger operand's
mask over the smaller operand's elements.  Everything downstream (complement
checks, coverage, supplement tests) reduces to these kernels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    from .groups import Group

__all__ = [
    "GroupSet",
    "ListedSet",
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
    """What W + elements misses, and each element's least private point.

    uncovered is the mask of the points no w + e reaches, 0 when W +
    elements is the whole group.  least[i] is the least private point of
    elements[i], that is the least point of W + elements[i] no other
    element reaches, or None when it has none.
    """

    uncovered: int
    least: list


def private_points(w: GroupSet, elements) -> PrivatePoints:
    """Cover and private points of W + elements, by the cheaper of two paths.

    The translate path ORs the k translates W + e into once/twice masks,
    then ANDs each translate with the private mask again: 2k translates,
    O(k*n/64) word operations.  The complement path lists Z = G minus W
    and counts, for each x of Z + elements, the e with x - e in Z; every
    other point is covered k times.  A count of k means x is uncovered,
    k - 1 that x is private to the one e with x - e outside Z:
    O(|Z|*k^2) group operations, whatever n is, plus a bytes pass of
    O(n/8) only when more than MASK_OR_POINTS points are uncovered.

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

    The path is chosen while Z is listed.  A W that keeps its holes
    (GroupSet.kept_holes), such as every randomized-build witness, hands
    Z in, and the complement path then never reads W's mask.  Any other
    W is walked as G xor W (_points_within), and the walk stops at the
    first point past the rule's bound, so W is never counted, and a W
    that misses many points pays a short walk before its translates.
    """
    group = w.group
    elements = list(elements)
    k = len(elements)
    if k >= 2:
        # the largest |Z| with 8192 * (|Z| + 1) * k < (k - 1) * n
        most = ((k - 1) * group.order - 1) // (8192 * k) - 1
        holes = w.kept_holes()
        if holes is None and most >= 0:
            holes = _points_within(group.full_mask ^ w.mask, most)
        if holes is not None and len(holes) <= most:
            return _private_points_by_complement(group, holes, elements)
    return _private_points_by_translates(group, w.mask, elements)


def _points_within(mask: int, most: int) -> Optional[tuple]:
    """The points of mask, ascending, or None when there are more than most.

    The walk is bits_of(mask), and it stops at the first point past
    most.  The lowest BITS_CHUNK bits are counted first, so a mask with
    many points there is told apart without the walk's pass over the
    bytes of the whole mask.
    """
    if (mask & _LOW_CHUNK).bit_count() > most:
        return None
    points = tuple(islice(bits_of(mask), most + 1))
    return points if len(points) <= most else None


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
    return PrivatePoints(group.full_mask ^ once, least)


def _private_points_by_complement(group: "Group", holes: list, elements: list) -> PrivatePoints:
    """private_points from the list of the points W misses, for k >= 2 elements."""
    k = len(elements)
    count = Counter(group.sums(holes, elements))
    uncovered = mask_of(group.order, [x for x, m in count.items() if m == k])
    hole_set = set(holes)
    sub = group.sub
    least: list = [None] * k
    for x, m in count.items():
        if m == k - 1:
            i = next(i for i, e in enumerate(elements) if sub(x, e) not in hole_set)
            if least[i] is None or x < least[i]:
                least[i] = x
    return PrivatePoints(uncovered, least)


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
    neg = group.negator()
    out = 0
    for e in bits_of(mask):
        out |= 1 << neg(e)
    return out


# A kept tuple costs about 40 bytes a point (an int object and its slot
# in the tuple), a mask 1/8 byte a bit: a tuple is kept only when it
# takes no more.
KEPT_POINT_BITS = 320


@dataclass(frozen=True, slots=True)
class GroupSet:
    """Immutable subset of a finite abelian group, stored as a bitmask.

    A set may instead be a ListedSet, which keeps the ascending tuple of
    its points, or of the points of the group it misses (its holes), and
    builds its mask from that tuple on the first read of .mask.  One
    rule, in _from_list, lists a set: its mask is wider than BITS_CHUNK
    bits and KEPT_POINT_BITS * len(tuple) is at most that width, so the
    tuple takes no more memory than the mask.  Every constructor that
    has a tuple at hand goes through it, and listed() lists a wide mask
    made any other way (a hex literal, say) by one bounded walk.

    The tuple never changes, and the mask built from it is the set's
    one mask, so reading the tuple is reading the mask.  That is why
    DecisionCertificate.verified_yes may recheck a witness through C's
    kept points and W's kept holes: it sees the very points a pass over
    the masks would.  Equality, hashing and pickling see (group, mask)
    only, so a listed set equals, hashes and pickles as the plain set
    with its mask.
    """

    group: Group
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.group.order:
            raise ValueError(
                f"mask 0x{self.mask:x} does not fit a group of order {self.group.order}"
            )

    def __reduce__(self):
        return GroupSet, (self.group, self.mask)

    @classmethod
    def from_elements(cls, group: "Group", elements: Iterable[int]) -> "GroupSet":
        points = tuple(sorted(set(elements)))
        if points and (points[0] < 0 or points[-1] >= group.order):
            bad = points[0] if points[0] < 0 else points[-1]
            raise ValueError(f"element index {bad} out of range for {group}")
        return _from_list(group, points, holes=False)

    @classmethod
    def empty(cls, group: "Group") -> "GroupSet":
        return GroupSet(group, 0)

    @classmethod
    def full(cls, group: "Group") -> "GroupSet":
        return _from_list(group, (), holes=True)

    @classmethod
    def singleton(cls, group: "Group", e: int) -> "GroupSet":
        return cls.from_elements(group, (e,))

    def listed(self) -> "GroupSet":
        """This set as _from_list makes it from its points, when the mask
        is wider than BITS_CHUNK bits, else itself.  The mask is walked
        once (_points_within), and the walk stops past the most points a
        listed set of this width keeps; a set with more is itself."""
        width = self.mask.bit_length()
        if width <= BITS_CHUNK:
            return self
        points = _points_within(self.mask, width // KEPT_POINT_BITS)
        if points is None:
            return self
        return _from_list(self.group, points, holes=False)

    def elements(self) -> list[int]:
        return list(bits_of(self.mask))

    def kept_holes(self) -> Optional[tuple]:
        """The points of the group this set misses, ascending, when it
        keeps them (see the class docstring); else None."""
        return None

    def hex_pieces(self) -> list[str]:
        """hex(mask) as a list of strings to write one after another."""
        return [hex(self.mask)]

    def hex_mask(self) -> str:
        return "".join(self.hex_pieces())

    def complement(self) -> "GroupSet":
        return GroupSet(self.group, self.group.full_mask ^ self.mask)

    def with_element(self, e: int) -> "GroupSet":
        return GroupSet(self.group, self.mask | (1 << e))

    def without_element(self, e: int) -> "GroupSet":
        return GroupSet(self.group, self.mask & ~(1 << e))

    def is_subset(self, other: "GroupSet") -> bool:
        return self.mask & ~other.mask == 0

    def __contains__(self, e: int) -> bool:
        return 0 <= e < self.group.order and (self.mask >> e) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

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


_MASK = GroupSet.__dict__["mask"]  # the slot the dataclass made for mask


class ListedSet(GroupSet):
    """A set that keeps the ascending tuple of its points (_points) or of
    its holes (_holes), and builds its mask on the first read of .mask.

    Counting, printing, complementing and, for a list of points, listing
    and iterating read the tuple, so a set that is only listed, checked
    through its holes and printed never builds its n-bit mask.  Any
    other reader of .mask gets the mask built once and stored in
    GroupSet's own mask slot.  Made by _from_list only (see GroupSet).
    """

    __slots__ = ("_points", "_holes")

    def __init__(self, group: "Group", kept: tuple, holes: bool = False):
        object.__setattr__(self, "group", group)
        _MASK.__set__(self, None)
        object.__setattr__(self, "_points", None if holes else kept)
        object.__setattr__(self, "_holes", kept if holes else None)

    @property
    def mask(self) -> int:
        mask = _MASK.__get__(self)
        if mask is None:
            n = self.group.order
            if self._points is not None:
                mask = mask_of(n, self._points)
            else:
                mask = self.group.full_mask ^ mask_of(n, self._holes)
            _MASK.__set__(self, mask)
        return mask

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if isinstance(other, GroupSet):
            return self.group == other.group and self.mask == other.mask
        return NotImplemented

    __hash__ = GroupSet.__hash__

    def listed(self) -> "GroupSet":
        return self

    def elements(self) -> list[int]:
        return list(self)

    def kept_holes(self) -> Optional[tuple]:
        return self._holes

    def hex_pieces(self) -> list[str]:
        if self._points is not None:
            return _hex_pieces(self._points, 0)
        return _hex_pieces(self._holes, self.group.order)

    def complement(self) -> "GroupSet":
        if self._points is not None:
            return _from_list(self.group, self._points, holes=True)
        return _from_list(self.group, self._holes, holes=False)

    def __iter__(self) -> Iterator[int]:
        if self._points is not None:
            return iter(self._points)
        return bits_of(self.mask)  # all but a few points of the group

    def __len__(self) -> int:
        if self._points is not None:
            return len(self._points)
        return self.group.order - len(self._holes)

    def __bool__(self) -> bool:
        return True  # a listed mask is wider than BITS_CHUNK bits


def _from_list(group: "Group", kept: tuple, holes: bool) -> GroupSet:
    """The set of the ascending points kept or, with holes, the group
    without them.

    This is the one place that lists a set: it is a ListedSet when its
    mask is wider than BITS_CHUNK bits and KEPT_POINT_BITS * len(kept)
    is at most that width, so the tuple takes no more memory than the
    mask, else a GroupSet with its mask.
    """
    n = group.order
    if holes:
        width = n  # less the run of holes at the top
        for h in reversed(kept):
            if h != width - 1:
                break
            width = h
    else:
        width = kept[-1] + 1 if kept else 0
    if width > BITS_CHUNK and KEPT_POINT_BITS * len(kept) <= width:
        return ListedSet(group, kept, holes)
    mask = mask_of(n, kept)
    return GroupSet(group, group.full_mask ^ mask if holes else mask)


_HEX_RUN = 1 << 16  # hex digits in each shared run string
_RUNS = {fill: fill * _HEX_RUN for fill in "0f"}


def _hex_pieces(kept: tuple, n: int) -> list[str]:
    """hex() of the mask of the ascending points kept (at least one), or
    with n > 0 of the mask of the group of order n without them, as
    pieces, written from the list.

    Every hex digit holding no kept point is "0" (or "f" without them),
    so the text is runs of that digit with the digits of the kept points
    spliced in.  A run is pieces of one shared string of _HEX_RUN digits
    and one slice of it, so the pieces take O(len(kept) + n/_HEX_RUN)
    list entries and no string of the whole text is made.  Without the
    points the top digit covers only the n mod 4 bits left over (all 4
    when n mod 4 = 0), and kept points there can clear it, so leading
    zero digits are dropped as hex() drops them.
    """
    if n:
        fill, rest, top = "f", 15, (n + 3) >> 2  # top: digits of an n-bit mask
        digits = {top - 1: (1 << (n - 4 * (top - 1))) - 1}
    else:
        fill, rest, top = "0", 0, (kept[-1] >> 2) + 1
        digits = {}
    for p in kept:
        d = p >> 2
        digits[d] = digits.get(d, rest) ^ 1 << (p & 3)
    run = _RUNS[fill]
    pieces = ["0x"]
    above = top
    for d in sorted(digits, reverse=True):
        _add_run(pieces, run, above - d - 1)
        if digits[d] or len(pieces) > 1:  # no piece yet: a leading zero
            pieces.append("0123456789abcdef"[digits[d]])
        above = d
    _add_run(pieces, run, above)
    if len(pieces) == 1:
        pieces.append("0")
    return pieces


def _add_run(pieces: list, run: str, length: int) -> None:
    whole, part = divmod(length, len(run))
    pieces += [run] * whole
    if part:
        pieces.append(run[:part])


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

    When 2|A| > n, A - A = G at once: for any g, A and g + A have more
    than n/2 points each, so they meet, at a = g + a', and g = a - a'.
    At 2|A| = n it can fail (an index-2 subgroup A has A - A = A), so
    the inequality is strict.  Otherwise the union stops at the first
    full one, so only the y it translates by are negated.
    """
    group = a.group
    if 2 * len(a) > group.order:
        return GroupSet.full(group)
    full = group.full_mask
    neg = group.negator()
    acc = 0
    for y in bits_of(a.mask):
        acc |= translate_mask(group, a.mask, neg(y))
        if acc == full:
            break
    return GroupSet(group, acc)


def translate(a: GroupSet, g: int) -> GroupSet:
    """a + g; a listed set moves its tuple, not its mask."""
    group = a.group
    if not 0 <= g < group.order:
        raise ValueError(f"element index {g} out of range for {group}")
    if g == 0:
        return a
    if isinstance(a, ListedSet):
        holes = a._holes is not None
        kept = a._holes if holes else a._points
        return _from_list(group, tuple(sorted(group.sums(kept, [g]))), holes)
    return GroupSet(group, translate_mask(group, a.mask, g))


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
