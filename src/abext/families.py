"""Parameterized families of finite abelian groups.

A family is a list of patterns plus an optional finite exceptional set; a
pattern is a product of cyclic slots.  A slot is either a fixed cyclic
group (Z/4), or parameterized: Z/k for arbitrary k >= 1, Z/2k (even
order), Z/3k (order divisible by 3).

Membership of a concrete group is decided per prime.  Each slot absorbs at
most one part of each prime type (a cyclic group has at most one factor
per prime): a fixed slot absorbs exactly its prime exposure, a Z/2k slot
must absorb one part at p = 2 and may absorb one part at any other prime,
Z/3k analogously at p = 3, and Z/k may absorb one part anywhere.  Every
constraint binds at a single prime with threshold one, so a group matches
exactly when, at each prime, the pattern's fixed exponents are among its
parts and the rest of its parts satisfies mandatory <= rest <= params.

A family's rows are its patterns, then its exceptional groups lifted to
fixed-slot patterns.  Family.demands compiles them once per prime class
into one tuple of (bit, fixed exponents with counts, low, high), which
_mask alone evaluates.  row_mask(family, p, parts) is the bitmask of rows
that admit the p-type parts; it is the same at every prime outside the
rows' primes, which it memoizes as one class, 0.  A group is a member
exactly when the AND of its masks over its primes and the rows' primes is
nonzero.  member_types walks only the group types that pass this test:
per order, it picks one admitted partition per prime from a sieve's
factorization and drops a branch as soon as its AND reaches 0.
enumerate_family builds a group from each type, while the sweep and the
enumerate command read the types themselves.

The built-in families A1, A2, A3p, B3p, PA4p and PB4p encode the
classification tables for abelian group symmetries in low dimension, one
pattern per table row; the products A2xA2, A1xA3p and B1xB3p are derived
from them at import time, and B2xB2 is A2xA2 itself (B2 = A2).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache
from itertools import groupby
from math import isqrt

from .errors import ResourceLimitError
from .groups import AbelianGroup, GroupSet, factorize
from .partitions import Partition, partitions_of

_SCALES = {"free": 1, "even": 2, "triple": 3}
_KINDS = (*_SCALES, "fixed")

# Most group types a window of enumerate_family may hold, and the largest
# order bound whose window holds at most that many: 999,999 types, while
# the window of 438,640 holds 1,000,004.
MAX_ENUMERATION = 1_000_000
MAX_ENUMERATION_BOUND = 438_639


def _read_only(self, name, *value):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class Slot(namedtuple("Slot", "kind modulus")):
    """One cyclic factor of a pattern; equal and hashed as (kind, modulus)."""

    __slots__ = ()

    def __new__(cls, kind: str, modulus: int = 0):
        if kind not in _KINDS:
            raise ValueError(f"unknown slot kind {kind!r}")
        if type(modulus) is not int:
            raise ValueError(f"slot moduli must be ints, got {modulus!r}")
        if kind == "fixed" and modulus < 2:
            raise ValueError("fixed slots need a modulus >= 2")
        if kind != "fixed" and modulus:
            raise ValueError("only fixed slots carry a modulus")
        return super().__new__(cls, kind, modulus)

    # _replace builds through _make, so it validates too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def scale(self) -> int | None:
        """Order step of Z/k, Z/2k, Z/3k (1, 2, 3); None for a fixed slot."""
        return _SCALES.get(self.kind)


FREE = Slot("free")
EVEN = Slot("even")
TRIPLE = Slot("triple")


def fixed(modulus: int) -> Slot:
    return Slot("fixed", modulus)


class FamilyPattern(namedtuple("FamilyPattern", "slots")):
    """A product of slots; one row of a family table.

    Equality, hash and repr are by slots.  What _compile reads of the
    slots is worked out on first use:
    fixed      {p: Counter of the exponents the fixed slots take at p}
    mandatory  {p: number of parameterized slots whose scale p divides}
    params     number of parameterized slots
    """

    # in the class's own __dict__, where perfbench's tracer wraps it
    __hash__ = tuple.__hash__
    __setattr__ = __delattr__ = _read_only

    @cached_property
    def fixed(self) -> dict[int, Counter]:
        fixed: dict[int, Counter] = {}
        for slot in self.slots:
            if slot.scale is None:
                for p, e in factorize(slot.modulus).items():
                    fixed.setdefault(p, Counter())[e] += 1
        return fixed

    @cached_property
    def mandatory(self) -> Counter:
        return Counter(p for slot in self.slots if slot.scale
                       for p in factorize(slot.scale))

    @cached_property
    def params(self) -> int:
        return sum(slot.scale is not None for slot in self.slots)


class Family(namedtuple("Family", "name patterns exceptional",
                        defaults=(GroupSet(),))):
    """A named union of patterns and a GroupSet of exceptional groups.

    Equality is by value.  The hash is the name's: cheap, since families
    key the row_mask memo, and consistent with equality.
    """

    __setattr__ = __delattr__ = _read_only

    def __hash__(self) -> int:
        return hash(self.name)

    @cached_property
    def rows(self) -> tuple[FamilyPattern, ...]:
        """The patterns, then each exceptional group lifted to a pattern."""
        return self.patterns + tuple(_lift(g) for g in self.exceptional)

    @cached_property
    def primes(self) -> frozenset[int]:
        """Every prime at which some row demands a part."""
        return frozenset(p for row in self.rows
                         for p in (*row.fixed, *row.mandatory))

    @cached_property
    def demands(self) -> dict[int, tuple]:
        """The rows compiled at each prime class: _compile(rows, p) at each
        p in primes, and at 0, the class of every other prime."""
        return {p: _compile(self.rows, p) for p in (0, *self.primes)}


def _compile(rows: tuple[FamilyPattern, ...], p: int) -> tuple:
    """One demand (bit, fixed, low, high) per row at p: bit = 1 << index,
    fixed the (exponent, count) pairs of its t fixed parts at p, and low =
    mandatory + t <= len(parts) <= params + t = high."""
    demands = []
    for i, row in enumerate(rows):
        taken = row.fixed.get(p, Counter())
        t = taken.total()
        demands.append((1 << i, tuple(taken.items()),
                        row.mandatory[p] + t, row.params + t))
    return tuple(demands)


def _mask(demands: tuple, parts: Partition) -> int:
    """OR of the bits of the demands that the p-type parts meets."""
    n, mask = len(parts), 0
    for bit, fixed, low, high in demands:
        if low <= n <= high:
            for e, c in fixed:
                if parts.count(e) < c:
                    break
            else:
                mask |= bit
    return mask


def matches(group: AbelianGroup, pat: FamilyPattern) -> bool:
    """True when some instantiation of the pattern is isomorphic to group."""
    return all(_mask(_compile((pat,), p), group.p_part(p))
               for p in {*group.primes, *pat.fixed, *pat.mandatory})


def row_mask(family: Family, p: int, parts: Partition) -> int:
    """Bitmask of family's rows (bit i for rows[i]) admitting parts at p.

    Every p outside family.primes is one class, keyed as 0 in the memo:
    no row fixes or demands a part there, so a row reads only len(parts).
    """
    return _row_mask(family, p if p in family.primes else 0, parts)


@lru_cache(maxsize=None)
def _row_mask(family: Family, p: int, parts: Partition) -> int:
    return _mask(family.demands[p], parts)


def _admitted(family: Family, p: int, total: int) -> list:
    """(parts, row_mask(family, p, parts)) for each partition parts of
    total, in partitions_of order, that some row admits at p."""
    return [(parts, m) for parts in partitions_of(total)
            if (m := row_mask(family, p, parts))]


def family_contains(group: AbelianGroup, family: Family) -> bool:
    """True when the group matches some pattern or is exceptional."""
    return _admits(family, group.prime_types())


def _admits(family: Family, types: dict[int, Partition]) -> bool:
    """True when row_mask ANDs to nonzero over types' and rows' primes."""
    mask = (1 << len(family.rows)) - 1
    for p in types.keys() | family.primes:
        mask &= row_mask(family, p, types.get(p, ()))
    return mask != 0


def family_product(f1: Family, f2: Family, name: str | None = None) -> Family:
    """Pattern-level direct product of two families.

    Exceptional members are first lifted to fixed-slot patterns so the
    result is purely pattern-based.  Patterns are deduplicated only by
    syntactic equality after canonical slot sorting, in first-seen order
    (row_mask bits index rows); redundant patterns do not affect membership.
    """
    combined = dict.fromkeys(tuple(sorted(p1.slots + p2.slots, key=_slot_key))
                             for p1 in f1.rows for p2 in f2.rows)
    return Family(name or f"{f1.name}x{f2.name}",
                  tuple(FamilyPattern(slots) for slots in combined))


def _lift(group: AbelianGroup) -> FamilyPattern:
    slots = [fixed(p ** e) for p, parts in group.prime_types().items()
             for e in parts]
    return FamilyPattern(tuple(sorted(slots, key=_slot_key)))


def _slot_key(slot: Slot):
    return (_KINDS.index(slot.kind), slot.modulus)


def enumerate_family(family: Family, order_bound: int) -> GroupSet:
    """Every member with order at most order_bound: a group for each type
    that member_types yields.  Raises ResourceLimitError before the walk
    when order_bound passes MAX_ENUMERATION_BOUND, that is, when the window
    holds more than MAX_ENUMERATION group types.
    """
    return GroupSet(map(AbelianGroup, member_types(family, order_bound)))


def member_types(family: Family, bound: int) -> Iterator[dict]:
    """The group types of order 1 .. bound that family admits, as {prime:
    partition}, walked lazily; the bound is checked at the call.

    Orders ascend; within one, types follow itertools.product of
    partitions_of over its primes, ascending.  At each p^e of the order
    the walk picks one of the admitted partitions of e, listed once per
    prime class and exponent, and carries the AND of their row masks from
    the masks of () at the family's primes that do not divide the order,
    dropping a branch whose AND reaches 0.
    """
    if bound < 1:
        raise ValueError("order bound must be >= 1")
    if bound > MAX_ENUMERATION_BOUND:
        raise ResourceLimitError(f"family enumeration exceeded the limit of "
                                 f"{MAX_ENUMERATION} group types")
    return _walk(family, bound)


def _walk(family: Family, bound: int) -> Iterator[dict[int, Partition]]:
    # spf[n], n's smallest prime factor: the smallest d >= 2 that divides
    # n with d * d <= n marks n last, or n itself when n is prime
    spf = list(range(bound + 1))
    for d in range(isqrt(bound), 1, -1):
        spf[d * d::d] = [d] * len(range(d * d, bound + 1, d))
    primes = family.primes
    absent = {p: row_mask(family, p, ()) for p in primes}
    full = (1 << len(family.rows)) - 1
    choices: dict = {}
    for n in range(1, bound + 1):
        mask = full
        for p, m in absent.items():
            if n % p:
                mask &= m
        # (picked (prime, partition) pairs, AND of their masks and mask)
        branches = [((), mask)] if mask else []
        k = n
        while k > 1 and branches:
            p, e = spf[k], 0
            while k % p == 0:
                k //= p
                e += 1
            key = (p if p in primes else 0, e)
            if key not in choices:
                choices[key] = _admitted(family, *key)
            branches = [(picked + ((p, parts),), both)
                        for picked, acc in branches
                        for parts, m in choices[key] if (both := acc & m)]
        for picked, _ in branches:
            yield dict(picked)


def instantiate_pattern(pat: FamilyPattern, values: Iterable[int]) -> AbelianGroup:
    """Concrete member from one parameter value per non-fixed slot."""
    values = list(values)
    if len(values) != pat.params:
        raise ValueError(f"the pattern takes {pat.params} parameter values, "
                         f"got {len(values)}")
    if any(type(k) is not int or k < 1 for k in values):
        raise ValueError("parameters must be >= 1 and of type int")
    it = iter(values)
    return AbelianGroup.from_factors(
        slot.modulus if slot.scale is None else slot.scale * next(it)
        for slot in pat.slots)


def render_pattern(pat: FamilyPattern,
                   letters: tuple[str, ...] = ("k", "l", "m")) -> tuple[str, tuple[str, ...]]:
    """Display string and parameter constraints for a table row.

    Runs of identical fixed slots collapse into exponent notation, so
    (Z/4, Z/4, Z/2) renders as 'Z/4^2 x Z/2'.
    """
    pieces = []
    constraints = []
    for slot, run in groupby(pat.slots):
        rep = len(list(run))
        if slot.scale is None:
            pieces.append(f"Z/{slot.modulus}" + (f"^{rep}" if rep > 1 else ""))
            continue
        # every parameterized slot gets a letter of its own
        for _ in range(rep):
            letter = letters[len(constraints)]
            prefix = str(slot.scale) if slot.scale > 1 else ""
            pieces.append(f"Z/{prefix}{letter}")
            constraints.append(f"{letter} >= 1")
    return " x ".join(pieces), tuple(constraints)


def _rows(*rows: tuple[Slot, ...]) -> tuple[FamilyPattern, ...]:
    return tuple(FamilyPattern(r) for r in rows)


_F2, _F3, _F4, _F6, _F8 = fixed(2), fixed(3), fixed(4), fixed(6), fixed(8)

_TABLE1 = _rows(
    (FREE,),
    (_F2, _F2),
)

_TABLE2 = _rows(
    (FREE, FREE),
    (EVEN, _F2, _F2),
    (_F4, _F4, _F2),
    (_F3, _F3, _F3),
    (_F2, _F2, _F2, _F2),
)

_TABLE3 = _rows(
    (FREE, FREE, FREE),
    (EVEN, _F4, _F4, _F2),
    (TRIPLE, _F3, _F3, _F3),
    (EVEN, EVEN, _F2, _F2),
    (EVEN, _F2, _F2, _F2, _F2),
    (_F4, _F4, _F2, _F2, _F2),
    (_F2,) * 6,
)

_SPORADIC_ROWS = _rows(
    (_F4, _F4, _F4, _F4),
    (_F8, _F8, _F4, _F2),
    (_F6, _F6, _F3, _F3),
    (_F6, _F6, _F6, _F2),
)

_TABLE4 = _TABLE3 + _SPORADIC_ROWS

_TABLE5 = _rows(
    (FREE, FREE, FREE, FREE),
    (FREE, FREE, EVEN, _F2, _F2),
    (FREE, FREE, _F4, _F4, _F2),
    (FREE, FREE, _F3, _F3, _F3),
    (FREE, FREE, _F2, _F2, _F2, _F2),
    (EVEN, _F4, _F4, _F2, _F2, _F2),
    (EVEN,) + (_F2,) * 6,
    (_F4, _F4, _F4, _F4, _F2, _F2),
    (_F4, _F4) + (_F2,) * 5,
    (_F3,) * 6,
    (_F2,) * 8,
)

_TABLE6 = _TABLE5 + _rows(
    (FREE, _F4, _F4, _F4, _F4),
    (FREE, _F8, _F8, _F4, _F2),
    (FREE, _F6, _F6, _F3, _F3),
    (FREE, _F6, _F6, _F6, _F2),
    (_F8, _F8, _F4, _F2, _F2, _F2),
    (_F6, _F6, _F6, _F2, _F2, _F2),
)

A1 = Family("A1", _TABLE1)
A2 = Family("A2", _TABLE2)
A3P = Family("A3p", _TABLE3)
B3P = Family("B3p", _TABLE4)
PA4P = Family("PA4p", _TABLE5)
PB4P = Family("PB4p", _TABLE6)

A2xA2 = family_product(A2, A2, "A2xA2")
A1xA3P = family_product(A1, A3P, "A1xA3p")
B2xB2 = A2xA2
B1xB3P = family_product(A1, B3P, "B1xB3p")

BUILTIN_FAMILIES = {f.name: f for f in (
    A1, A2, A3P, B3P, PA4P, PB4P, A2xA2, A1xA3P, B1xB3P)}
BUILTIN_FAMILIES["B2xB2"] = B2xB2

# (number, family, parameter letter pool) in table order
TABLES = (
    (1, A1, ("k", "l", "m")),
    (2, A2, ("k", "l", "m")),
    (3, A3P, ("k", "l", "m")),
    (4, B3P, ("k", "l", "m")),
    (5, PA4P, ("n", "k", "l", "m")),
    (6, PB4P, ("n", "k", "l", "m")),
)


class UnknownFamilyError(KeyError, ValueError):
    """A failed family lookup, which the CLI reports as a usage error."""


def get_family(name: str) -> Family:
    if name not in BUILTIN_FAMILIES:
        known = ", ".join(sorted(BUILTIN_FAMILIES))
        raise UnknownFamilyError(
            f"unknown family {name!r}; known families: {known}")
    return BUILTIN_FAMILIES[name]
