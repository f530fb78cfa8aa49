"""Finite abelian groups as products of cyclic factors.

A group is a tuple of cyclic factor sizes (d_1, ..., d_r), each at least 2;
the empty tuple is the trivial group.  Elements are dense indices 0..n-1
under the mixed-radix encoding index = a_1 + d_1*a_2 + d_1*d_2*a_3 + ...,
so the first coordinate varies fastest.  Structure operations (subgroups,
transversals, quotients) all work on these indices and on bitmask sets.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import InitVar, dataclass, field
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .sumset import BITS_CHUNK, GroupSet, mask_of, progression_sum, translate_mask

__all__ = [
    "Group",
    "Subgroup",
    "Homomorphism",
    "subgroup_generated",
    "generated_order",
    "coset_representatives",
    "cyclic_box",
    "quotient_map",
    "all_subgroups",
    "cyclic_subgroups",
    "unit_multipliers",
    "unit_generators",
    "automorphism_generators",
    "abelian_groups_of_order",
]


@dataclass(frozen=True, slots=True)
class Group:
    """Direct product of cyclic groups Z/d_1 x ... x Z/d_r.

    Equality, hashing and pickling see the factors only, never what a
    group works out for its callers: the exponent, set at creation; the
    block masks (block_reps), and the translate plans and negation table
    a small group keeps (translate_plan, negator), built on first use;
    and size_gates, the table of exists_witness's gate records by |C|
    (complements._size_gates), each filled the first time that size is
    asked.  The full mask, n set bits, is set at
    creation up to order BITS_CHUNK, so translate_mask reads a plain
    slot.  Above that order __post_init__, once it knows the order,
    makes the group a _WideGroup (same slots, same equality, hashing and
    pickling), which builds the full mask on the first read of full_mask
    and keeps it in the same slot, so a call that never reads it, such
    as a randomized build, holds no n-bit int for G.
    """

    factors: tuple[int, ...]
    order: int = field(init=False, compare=False)
    strides: tuple[int, ...] = field(init=False, compare=False)
    full_mask: int = field(init=False, compare=False)
    _reps: Optional[tuple[int, ...]] = field(init=False, compare=False)
    _plans: dict = field(init=False, compare=False)
    _steps: dict = field(init=False, compare=False)
    _negs: Optional[tuple[int, ...]] = field(init=False, compare=False)
    _exponent: int = field(init=False, compare=False)
    size_gates: dict = field(init=False, compare=False)

    def __post_init__(self):
        fs = tuple(int(d) for d in self.factors)
        for d in fs:
            if d < 2:
                raise ValueError(f"cyclic factors must be >= 2, got {d}")
        order = 1
        strides = []
        for d in fs:
            strides.append(order)
            order *= d
        object.__setattr__(self, "factors", fs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "strides", tuple(strides))
        _FULL_MASK.__set__(self, (1 << order) - 1 if order <= BITS_CHUNK else None)
        if order > BITS_CHUNK:
            object.__setattr__(self, "__class__", _WideGroup)
        object.__setattr__(self, "_reps", None)
        object.__setattr__(self, "_plans", {})
        object.__setattr__(self, "_steps", {})
        object.__setattr__(self, "_negs", None)
        object.__setattr__(self, "_exponent", math.lcm(*fs))
        object.__setattr__(self, "size_gates", {})

    def __reduce__(self):
        return Group, (self.factors,)

    @property
    def block_reps(self) -> tuple[int, ...]:
        """Per factor i of a product, a 1 at the bottom of every block of
        d_i * s_i bits, i.e. the full mask divided by 2^(d_i s_i) - 1; ()
        on a cyclic group.  Built on the first translate plan or coset box
        and kept, so a call that makes neither, such as a randomized
        build, skips the masks (about 5 ms at 4096x4096).
        """
        reps = self._reps
        if reps is None:
            reps = []
            if len(self.factors) >= 2:
                for d, s in zip(self.factors, self.strides):
                    rep, width = 1, d * s
                    while width < self.order:
                        rep |= rep << width
                        width *= 2
                    reps.append(rep & self.full_mask)
            reps = tuple(reps)
            object.__setattr__(self, "_reps", reps)
        return reps

    def translate_plan(self, g: int) -> Iterable[tuple[int, int, int]]:
        """How sumset.translate_mask moves a mask by g, factor by factor.

        One (keep, shift, back) per factor i where g's digit a is non-zero:
        with s = s_i and block = d_i*s, keep marks the low block - a*s bits
        of every block, which move up by shift = a*s, and the other bits
        wrap down by back = block - a*s.  On groups of order at most
        BITS_CHUNK the plan is a tuple kept after its first use, and its
        steps are shared per (factor, digit), so the cache holds at most
        sum(d_i) masks of n bits and n small tuples: 0.6-1.5 MB on the
        products of order 4096 (tracemalloc, CPython 3.11, from 64x64 to
        2x2048).  Above that order nothing is kept: the steps are yielded
        one at a time, so only one n-bit keep mask is alive at once.
        """
        plan = self._plans.get(g)
        if plan is None:
            plan = self._plan_steps(g)
            if self.order <= BITS_CHUNK:
                plan = self._plans[g] = tuple(plan)
        return plan

    def _plan_steps(self, g: int) -> Iterator[tuple[int, int, int]]:
        kept = self.order <= BITS_CHUNK
        steps = self._steps
        for i, (d, s, rep) in enumerate(zip(self.factors, self.strides,
                                            self.block_reps or (1,))):
            a = (g // s) % d
            if a:
                step = steps.get((i, a))
                if step is None:
                    back = (d - a) * s
                    step = ((rep << back) - rep, a * s, back)
                    if kept:
                        steps[i, a] = step
                yield step

    # -- element codec -------------------------------------------------

    def coords_of(self, e: int) -> tuple[int, ...]:
        if not 0 <= e < self.order:
            raise ValueError(f"element index {e} out of range for {self}")
        out = []
        for d in self.factors:
            e, a = divmod(e, d)
            out.append(a)
        return tuple(out)

    def index_of(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} coordinates, got {len(coords)}"
            )
        e = 0
        for a, d, s in zip(coords, self.factors, self.strides):
            a = int(a) % d
            e += a * s
        return e

    # -- arithmetic ----------------------------------------------------
    #
    # On products each factor's digit of the mixed-radix index is
    # (e // stride) % d, and (a // s + b // s) % d is the digit of a + b:
    # the higher digits in a // s are multiples of d.  So every operation
    # works on the index directly, one digit per factor, with no tuples.

    def add(self, a: int, b: int) -> int:
        n = self.order
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"element index out of range for {self}")
        if len(self.factors) == 1:
            return (a + b) % n
        out = 0
        for d, s in zip(self.factors, self.strides):
            out += ((a // s + b // s) % d) * s
        return out

    def neg(self, a: int) -> int:
        n = self.order
        if not 0 <= a < n:
            raise ValueError(f"element index {a} out of range for {self}")
        if len(self.factors) == 1:
            return (n - a) % n
        out = 0
        for d, s in zip(self.factors, self.strides):
            out += (-(a // s) % d) * s
        return out

    def negator(self) -> Callable[[int], int]:
        """a -> -a, for a caller that negates many elements.

        Up to order BITS_CHUNK this is the __getitem__ of a tuple of
        every negative, built on the first call and kept like the
        translate plans; above that it is neg.
        """
        if self.order > BITS_CHUNK:
            return self.neg
        negs = self._negs
        if negs is None:
            negs = tuple(map(self.neg, range(self.order)))
            object.__setattr__(self, "_negs", negs)
        return negs.__getitem__

    def sub(self, a: int, b: int) -> int:
        n = self.order
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"element index out of range for {self}")
        if len(self.factors) == 1:
            return (a - b) % n
        out = 0
        for d, s in zip(self.factors, self.strides):
            out += ((a // s - b // s) % d) * s
        return out

    def scale(self, a: int, k: int) -> int:
        """k-fold sum of a (k any integer); coordinatewise multiplication."""
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for {self}")
        if len(self.factors) == 1:
            return (a * k) % self.order
        out = 0
        for d, s in zip(self.factors, self.strides):
            out += ((a // s * k) % d) * s
        return out

    def sums(self, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[x + y for x in xs for y in ys], x-major, one pass per factor.

        The batched form of add for a caller that needs many sums: a cyclic
        group takes one comprehension, a product one pass over the pairs
        per factor, so no call is made per pair.  With m = d_i*s_i, factor
        i's digit of x, scaled by its stride, is x % m - x % s_i, and that
        of x + y is the two scaled digits' sum % m; the sum is the total
        of these over the factors, with no multiply.
        """
        n = self.order
        for v in (xs, ys):
            if v and (min(v) < 0 or max(v) >= n):
                raise ValueError(f"element index out of range for {self}")
        if len(self.factors) <= 1:
            return [(x + y) % n for x in xs for y in ys]
        out = None
        for d, s in zip(self.factors, self.strides):
            m = d * s
            dx, dy = [x % m - x % s for x in xs], [y % m - y % s for y in ys]
            part = [(a + b) % m for a in dx for b in dy]
            out = part if out is None else list(map(operator.add, out, part))
        return out

    def element_order(self, a: int) -> int:
        o = 1
        for x, d in zip(self.coords_of(a), self.factors):
            o = math.lcm(o, d // math.gcd(d, x))
        return o

    def exponent(self) -> int:
        return self._exponent

    def elements(self) -> range:
        return range(self.order)

    # -- structure -----------------------------------------------------

    def is_trivial(self) -> bool:
        return self.order == 1

    def invariant_factors(self) -> tuple[int, ...]:
        """Canonical decomposition d_1 | d_2 | ... | d_k of the same group."""
        return tuple(d for d in _smith(self, [])[0] if d > 1)

    def spec_string(self) -> str:
        if not self.factors:
            return "1"
        return "x".join(str(d) for d in self.factors)

    def __repr__(self) -> str:
        return f"Group({self.spec_string()})"


_FULL_MASK = Group.__dict__["full_mask"]  # the slot the dataclass made


class _WideGroup(Group):
    """A group of order above BITS_CHUNK, whose full mask is built on the
    first read of full_mask and then kept in Group's own slot."""

    __slots__ = ()

    @property
    def full_mask(self) -> int:
        mask = _FULL_MASK.__get__(self)
        if mask is None:
            mask = (1 << self.order) - 1
            _FULL_MASK.__set__(self, mask)
        return mask


def _prime_factorization(n: int) -> Counter[int]:
    out: Counter[int] = Counter()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] += 1
            n //= d
        d += 1
    if n > 1:
        out[n] += 1
    return out


@dataclass(frozen=True, slots=True)
class Subgroup:
    """Subgroup of a parent group, stored by its member set."""

    parent: Group
    members: GroupSet
    verified: InitVar[bool] = False
    order: int = field(init=False, compare=False)

    def __post_init__(self, verified: bool):
        parent, members = self.parent, self.members
        if members.group != parent:
            raise ValueError("member set belongs to a different group")
        if 0 not in members:
            raise ValueError("a subgroup must contain the identity")
        m = len(members)
        if parent.order % m != 0:
            raise ValueError(f"size {m} cannot divide group order {parent.order}")
        if not verified:
            _check_closure(parent, members)
        object.__setattr__(self, "order", m)

    @classmethod
    def trivial(cls, parent: Group) -> "Subgroup":
        return cls(parent, GroupSet(parent, 1), verified=True)

    @classmethod
    def full(cls, parent: Group) -> "Subgroup":
        return cls(parent, GroupSet.full(parent), verified=True)

    def __contains__(self, e: int) -> bool:
        return e in self.members

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent.spec_string()})"


def _check_closure(group: Group, members: GroupSet) -> None:
    mask = members.mask
    for e in members.elements():
        if translate_mask(group, mask, e) & ~mask:
            raise ValueError(f"set is not closed under addition (element {e})")


def subgroup_generated(s: GroupSet) -> Subgroup:
    """Smallest subgroup containing every element of s.

    From H = {0}, each g of s not yet in H makes H the progression sum
    H + {0, g, ..., (ord(g) - 1)*g} = H + <g>, on every group alike.
    """
    group = s.group
    mask = 1
    for g in s:
        if not (mask >> g) & 1:
            mask = progression_sum(group, mask, g, group.element_order(g))
    return Subgroup(group, GroupSet(group, mask), verified=True)


def _lowest_members(h: Subgroup) -> list[Optional[int]]:
    """For each factor i, the least member of h in [s_i, d_i*s_i), or None.

    s_i is the stride of factor i.  A member in that range has every
    coordinate after i at 0 and coordinate i non-zero, so the least one,
    u_i, has the least positive i-th coordinate g_i among such members.
    Those coordinates form a subgroup of Z/d_i, so they are the multiples
    of g_i.  The u_i generate h: a member x != 0 whose last non-zero
    coordinate is j has x_j = t*g_j, and x - t*u_j is a member whose
    coordinates from j on are 0, so induction on j writes x as a sum of
    multiples of the u_i.
    """
    group = h.parent
    hmask = h.members.mask
    out = []
    for d, s in zip(group.factors, group.strides):
        low = (hmask >> s) & ((1 << (d - 1) * s) - 1)
        out.append((low & -low).bit_length() - 1 + s if low else None)
    return out


def coset_representatives(h: Subgroup) -> GroupSet:
    """One representative per coset of h, the least index in each.

    They form the box {x : x_i < g_i for every i}, g_i the i-th
    coordinate of u_i = _lowest_members(h)[i], or d_i if there is none;
    |h| is the product of the d_i/g_i.  A member u != 0 with last
    non-zero coordinate i has g_i <= u_i <= d_i - g_i, so x + u, x in the
    box, does not wrap at i and has the larger index.  So each x of the
    box, n/|h| points, is the least of its coset.
    """
    group = h.parent
    widths = [d if u is None else u // s
              for d, s, u in zip(group.factors, group.strides, _lowest_members(h))]
    return GroupSet(group, _box_mask(group, widths))


def _box_mask(group: Group, widths: Sequence[int]) -> int:
    """Mask of {x : x_i < w_i for every i}: the low w_i*s_i bits of each block."""
    box = -1
    for w, s, rep in zip(widths, group.strides, group.block_reps or (1,)):
        box &= (rep << w * s) - rep
    return box if group.factors else 1


def cyclic_box(group: Group, g: int) -> tuple[int, int]:
    """(|<g>|, mask of the least coset representatives of <g>), from g's
    digits a_i alone, with no closure of <g>.

    With L_i the order of g's digits after factor i (1 for the last), the
    j*g whose digits after i are 0 are those with L_i | j, and their i-th
    digits are the multiples of L_i*a_i mod d_i.  The least positive one
    is g_i = gcd(L_i*a_i, d_i) (d_i if none), the g_i coset_representatives
    reads off a subgroup's mask, so the box {x : x_i < g_i} is a
    transversal of <g>; and L_(i-1) = L_i*d_i/g_i, so |<g>| is the
    product of the d_i/g_i.  A cyclic group takes one gcd, a product one
    pass over the factors from the last.
    """
    if not 0 <= g < group.order:
        raise ValueError(f"element index {g} out of range for {group}")
    if len(group.factors) <= 1:
        width = math.gcd(g, group.order)
        return group.order // width, (1 << width) - 1
    box, order = -1, 1
    for d, s, rep in zip(reversed(group.factors), reversed(group.strides),
                         reversed(group.block_reps)):
        width = math.gcd(order * (g // s % d), d)
        box &= (rep << width * s) - rep
        order = order * d // width
    return order, box


@dataclass(frozen=True, slots=True, eq=False)
class Homomorphism:
    """Additive map between groups, given by images of the domain generators."""

    domain: Group
    codomain: Group
    images: tuple[int, ...]

    def __post_init__(self):
        domain, codomain = self.domain, self.codomain
        images = tuple(int(x) for x in self.images)
        if len(images) != len(domain.factors):
            raise ValueError(
                f"need {len(domain.factors)} generator images, got {len(images)}"
            )
        for img, d in zip(images, domain.factors):
            if not 0 <= img < codomain.order:
                raise ValueError(f"image {img} out of range for {codomain}")
            if codomain.scale(img, d) != 0:
                raise ValueError(
                    f"image {img} has order not dividing generator order {d}"
                )
        object.__setattr__(self, "images", images)

    def apply(self, e: int) -> int:
        out = 0
        for a, img in zip(self.domain.coords_of(e), self.images):
            if a:
                out = self.codomain.add(out, self.codomain.scale(img, a))
        return out

    def image_set(self, s: GroupSet) -> GroupSet:
        if s.group != self.domain:
            raise ValueError("set is not in the domain")
        return GroupSet(self.codomain,
                        mask_of(self.codomain.order, [self.apply(e) for e in s]))

    def preimage(self, s: GroupSet) -> GroupSet:
        """Full preimage of s. Scans the domain, so intended for small orders."""
        if s.group != self.codomain:
            raise ValueError("set is not in the codomain")
        want = s.mask
        points = [e for e in self.domain.elements() if (want >> self.apply(e)) & 1]
        return GroupSet(self.domain, mask_of(self.domain.order, points))

    def kernel(self) -> Subgroup:
        ker = self.preimage(GroupSet(self.codomain, 1))
        return Subgroup(self.domain, ker)

    def __repr__(self) -> str:
        return (
            f"Homomorphism({self.domain.spec_string()} -> "
            f"{self.codomain.spec_string()}, images={list(self.images)})"
        )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g, g = +-gcd(a, b) and (a, 1, 0) when a | b.

    Returning (1, 0) for a | b keeps a pivot that already divides an entry
    in place; other coefficients can swap entries of equal size forever.
    """
    if a and b % a == 0:
        return a, 1, 0
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, x0, y0, x1, y1 = b, a - q * b, x1, y1, x0 - q * x1, y0 - q * y1
    return a, x0, y0


def _smith(group: Group, elements: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """Smith diagonal of the relations of G/<elements>, and the row operations U.

    The relation matrix M has columns d_i * e_i, then the coordinates of
    each element.  U*M*V is diagonal for some V, each entry dividing the
    next, so the diagonal is the quotient's invariant factors (with 1s) and
    row i of U gives coordinate i of a generator's image in the quotient.
    """
    r = len(group.factors)
    s = [[d if j == i else 0 for j in range(r)] + [e // st % d for e in elements]
         for i, (d, st) in enumerate(zip(group.factors, group.strides))]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for t in range(r):
        top = s[t]
        while True:
            for j in range(t + 1, len(top)):
                b = top[j]
                if b:
                    g, x, y = _xgcd(top[t], b)
                    a, b = top[t] // g, b // g
                    for row in s[t:]:
                        row[t], row[j] = x * row[t] + y * row[j], a * row[j] - b * row[t]
            for i in range(t + 1, r):
                b = s[i][t]
                if b:
                    g, x, y = _xgcd(top[t], b)
                    a, b = top[t] // g, b // g
                    for m in (s, u):
                        m[t][:], m[i][:] = ([x * v + y * w for v, w in zip(m[t], m[i])],
                                            [a * w - b * v for v, w in zip(m[t], m[i])])
            if any(top[t + 1:]):
                continue
            p = top[t]
            bad = next((i for i in range(t + 1, r) if any(v % p for v in s[i][t + 1:])), None)
            if bad is None:
                break
            for m in (s, u):
                m[t][:] = [v + w for v, w in zip(m[t], m[bad])]
    return [abs(s[i][i]) for i in range(r)], u


def generated_order(group: Group, elements: Sequence[int]) -> int:
    """Order of the subgroup generated by elements, without listing it."""
    diag, _ = _smith(group, elements)
    return group.order // math.prod(diag)


def quotient_map(group: Group, h: Subgroup) -> tuple[Group, Homomorphism]:
    """Quotient group G/H together with the projection map.

    The projection is additive, surjective, and has kernel exactly h; its
    preimage method recovers the union of cosets over any quotient set.
    The relations are the at most r members of _lowest_members, which
    generate h, so neither the diagonalization nor the check that the
    projection kills h lists h.
    """
    if h.parent != group:
        raise ValueError("subgroup belongs to a different group")
    gens = [x for x in _lowest_members(h) if x is not None]
    diag, u = _smith(group, gens)
    if any(v == 0 for v in diag):
        raise RuntimeError("degenerate relation lattice in quotient computation")
    keep = [i for i, v in enumerate(diag) if v > 1]
    q = Group([diag[i] for i in keep])
    if q.order * h.order != group.order:
        raise RuntimeError("quotient order mismatch, diagonalization is wrong")
    images = []
    for gen in range(len(group.factors)):
        coords = [u[i][gen] % diag[i] for i in keep]
        images.append(q.index_of(coords))
    hom = Homomorphism(group, q, images)
    for e in gens:
        if hom.apply(e) != 0:
            raise RuntimeError("projection does not kill the subgroup")
    return q, hom


def cyclic_subgroups(group: Group) -> list[Subgroup]:
    """The distinct subgroups generated by single elements, in the order
    (|H|, mask of H).

    Each is closed once, from the first of its generators met: the
    others, the j*g with j prime to |<g>|, are marked and skipped.
    """
    marked, subs = set(), []
    for g in group.elements():
        if g not in marked:
            h = subgroup_generated(GroupSet.singleton(group, g))
            marked.update(group.scale(g, j) for j in range(2, h.order)
                          if math.gcd(j, h.order) == 1)
            subs.append(h)
    return sorted(subs, key=lambda s: (s.order, s.members.mask))


def all_subgroups(group: Group) -> list[Subgroup]:
    """Every subgroup, by closing the cyclic ones under joins.

    Exhaustive only for modest orders.  Above order 64 only a cyclic
    group's subgroups can be listed, by cyclic_subgroups.
    """
    if group.order > 64:
        raise ValueError(
            f"full subgroup enumeration is capped at order 64, got {group.order}"
        )
    cyclic = cyclic_subgroups(group)
    found: dict[int, Subgroup] = {s.members.mask: s for s in cyclic}
    frontier = list(cyclic)
    while frontier:
        h = frontier.pop()
        for cg in cyclic:
            joined = h.members | cg.members
            if joined.mask == h.members.mask:
                continue
            j = subgroup_generated(joined)
            if j.members.mask not in found:
                found[j.members.mask] = j
                frontier.append(j)
    return sorted(found.values(), key=lambda s: (s.order, s.members.mask))


def unit_multipliers(group: Group) -> list[int]:
    """Scalars u that act as automorphisms x -> u*x, up to the exponent."""
    exp = group.exponent()
    return [u for u in range(1, exp + 1) if math.gcd(u, exp) == 1]


def unit_generators(m: int) -> list[int]:
    """Units mod m that generate (Z/m)^x, each outside the group the
    earlier ones generate, so a closure over them visits a unit orbit
    with few products per member: [3, 5] for 16, [] for 1 and 2."""
    gens, reached = [], {1 % m}
    for u in range(2, m):
        if math.gcd(u, m) == 1 and u not in reached:
            gens.append(u)
            grown, power = set(reached), u
            while power not in reached:  # <H, u> is the union of the cosets H*u^k
                grown.update(r * power % m for r in reached)
                power = power * u % m
            reached = grown
    return gens


def automorphism_generators(group: Group) -> list[tuple[int, ...]]:
    """Elementary automorphisms of Z/d_1 x ... x Z/d_r, in the factor form
    given, as index tables e -> phi(e), which together generate Aut(G).

    Two kinds: the per-factor unit scalings x_i -> u*x_i, u in
    unit_generators(d_i), and the transvections x -> x + x_i*k*e_j,
    i != j, with k = d_j/gcd(d_i, d_j) the least k > 0 that makes d_i*k a
    multiple of d_j, so that x_i -> k*x_i is well defined from Z/d_i to
    Z/d_j; each is additive and x -> x - x_i*k*e_j undoes it.  A
    transvection that is the identity (k*x_i always 0 mod d_j, as in 3x4)
    is left out, so a cyclic group in any factor form gets only scalings,
    which generate its unit multipliers.  That the two kinds generate
    Aut(G) is Hillar and Rhea, "Automorphisms of finite abelian groups",
    Amer. Math. Monthly 2007; the tests check it by brute force on every
    group of order at most 20.
    """
    fs = group.factors
    coords = [group.coords_of(e) for e in group.elements()]

    def table(i: int, j: int, k: int) -> tuple[int, ...]:
        # coordinate j becomes (x_j + k*x_i) % d_j, or k*x_i % d_i when i == j
        out = []
        for x in coords:
            y = list(x)
            y[j] = ((x[j] if i != j else 0) + k * x[i]) % fs[j]
            out.append(group.index_of(y))
        return tuple(out)

    maps = [table(i, i, u) for i, d in enumerate(fs) for u in unit_generators(d)]
    maps += [table(i, j, fs[j] // math.gcd(d, fs[j]))
             for i, d in enumerate(fs) for j in range(len(fs)) if i != j]
    identity = tuple(group.elements())
    return [t for t in maps if t != identity]


def _partitions(n: int) -> Iterable[tuple[int, ...]]:
    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def abelian_groups_of_order(n: int) -> list[Group]:
    """One group per isomorphism class of abelian groups of order n."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    prime_options = [[tuple(p ** part for part in parts) for parts in _partitions(e)]
                     for p, e in sorted(_prime_factorization(n).items())]
    groups = [Group(sorted(chain.from_iterable(combo)))
              for combo in product(*prime_options)]
    groups.sort(key=lambda g: g.factors)
    return groups
