"""Parameterized families of finite abelian groups.

A family is a list of patterns plus an optional finite exceptional set; a
pattern is a product of cyclic slots.  A slot is either a fixed cyclic
group (Z/4), or parameterized: Z/k for arbitrary k >= 1, Z/2k (even
order), Z/3k (order divisible by 3).

Membership of a concrete group is decided per prime.  Each slot absorbs at
most one part of each prime type (a cyclic group has at most one factor
per prime): a fixed slot absorbs exactly its prime exposure, a Z/2k slot
must absorb one part at p = 2 and may absorb one part at any other prime,
Z/3k analogously at p = 3, and Z/k may absorb one part anywhere.  Since
every constraint binds at a single prime with threshold one, feasibility
reduces to removing the fixed demands and counting mandatory against
optional slots, which decides exactly the existence of an assignment.

The built-in families A1, A2, A3p, B3p, PA4p and PB4p encode the
classification tables for abelian group symmetries in low dimension, one
pattern per table row; the products A2xA2, A1xA3p and B1xB3p are derived
from them at import time, and B2xB2 is A2xA2 itself (B2 = A2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .errors import ResourceLimitError
from .extensions import GroupSet
from .groups import AbelianGroup, factorize

_KINDS = ("free", "even", "triple", "fixed")


@dataclass(frozen=True)
class Slot:
    """One cyclic factor of a pattern."""

    kind: str
    modulus: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown slot kind {self.kind!r}")
        if self.kind == "fixed" and self.modulus < 2:
            raise ValueError("fixed slots need a modulus >= 2")
        if self.kind != "fixed" and self.modulus:
            raise ValueError("only fixed slots carry a modulus")


FREE = Slot("free")
EVEN = Slot("even")
TRIPLE = Slot("triple")


def fixed(modulus: int) -> Slot:
    return Slot("fixed", modulus)


@dataclass(frozen=True)
class FamilyPattern:
    """A product of slots; one row of a family table.

    Equality is by value.  The hash is computed once, at construction:
    patterns key the matches cache, and a generated dataclass hash would
    rehash every slot on each lookup.
    """

    slots: tuple[Slot, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.slots,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between processes
        return FamilyPattern, (self.slots,)


@dataclass(frozen=True)
class Family:
    """A named union of patterns and finitely many exceptional groups.

    Equality is by value; the hash is cached as in FamilyPattern, since
    families key the family_contains cache.
    """

    name: str
    patterns: tuple[FamilyPattern, ...]
    exceptional: GroupSet = field(default_factory=GroupSet)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.name, self.patterns, self.exceptional)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Family, (self.name, self.patterns, self.exceptional)


@lru_cache(maxsize=None)
def matches(group: AbelianGroup, pat: FamilyPattern) -> bool:
    """True when some instantiation of the pattern is isomorphic to group."""
    slots = pat.slots
    n_free = sum(1 for s in slots if s.kind == "free")
    n_even = sum(1 for s in slots if s.kind == "even")
    n_triple = sum(1 for s in slots if s.kind == "triple")
    fixed_slots = [s for s in slots if s.kind == "fixed"]

    relevant = set(group.primes)
    if n_even:
        relevant.add(2)
    if n_triple:
        relevant.add(3)
    for s in fixed_slots:
        relevant.update(factorize(s.modulus))

    for p in relevant:
        avail = Counter(group.p_part(p))
        for s in fixed_slots:
            e = factorize(s.modulus).get(p, 0)
            if e:
                if avail[e] == 0:
                    return False
                avail[e] -= 1
        mandatory = (n_even if p == 2 else 0) + (n_triple if p == 3 else 0)
        optional = (n_free + (n_even if p != 2 else 0)
                    + (n_triple if p != 3 else 0))
        rest = sum(avail.values())
        if rest < mandatory or rest > mandatory + optional:
            return False
    return True


@lru_cache(maxsize=None)
def family_contains(group: AbelianGroup, family: Family) -> bool:
    """True when the group matches some pattern or is exceptional."""
    return group in family.exceptional or any(
        matches(group, pat) for pat in family.patterns)


def family_product(f1: Family, f2: Family, name: str | None = None) -> Family:
    """Pattern-level direct product of two families.

    Exceptional members are first lifted to fixed-slot patterns so the
    result is purely pattern-based.  Patterns are deduplicated only by
    syntactic equality after canonical slot sorting; redundant patterns do
    not affect membership.
    """
    left = f1.patterns + tuple(_lift(g) for g in f1.exceptional)
    right = f2.patterns + tuple(_lift(g) for g in f2.exceptional)
    seen = set()
    out = []
    for p1 in left:
        for p2 in right:
            combined = tuple(sorted(p1.slots + p2.slots, key=_slot_key))
            if combined not in seen:
                seen.add(combined)
                out.append(FamilyPattern(combined))
    return Family(name or f"{f1.name}x{f2.name}", tuple(out))


def _lift(group: AbelianGroup) -> FamilyPattern:
    slots = [fixed(p ** e) for p, parts in group.prime_types().items()
             for e in parts]
    return FamilyPattern(tuple(sorted(slots, key=_slot_key)))


def _slot_key(slot: Slot):
    return (_KINDS.index(slot.kind), slot.modulus)


def enumerate_family(family: Family, order_bound: int,
                     max_results: int = 1_000_000) -> GroupSet:
    """Every member with order at most order_bound.

    Free parameters sweep all values keeping the instantiated order within
    the bound.  Raises ResourceLimitError past max_results instantiations.
    """
    if order_bound < 1:
        raise ValueError("order bound must be >= 1")
    budget = [max_results]
    found: set[AbelianGroup] = set()
    for pat in family.patterns:
        _instantiate(pat.slots, order_bound, [], found, budget)
    for g in family.exceptional:
        if g.order() <= order_bound:
            found.add(g)
    return GroupSet(found)


def _instantiate(slots, remaining, orders, found, budget):
    if not slots:
        if budget[0] <= 0:
            raise ResourceLimitError("family enumeration exceeded max_results")
        budget[0] -= 1
        found.add(AbelianGroup.from_factors(orders))
        return
    slot, rest = slots[0], slots[1:]
    for n in _slot_orders(slot, remaining):
        orders.append(n)
        _instantiate(rest, remaining // n, orders, found, budget)
        orders.pop()


def _slot_orders(slot: Slot, limit: int) -> Iterable[int]:
    if slot.kind == "free":
        return range(1, limit + 1)
    if slot.kind == "even":
        return range(2, limit + 1, 2)
    if slot.kind == "triple":
        return range(3, limit + 1, 3)
    return (slot.modulus,) if slot.modulus <= limit else ()


def instantiate_pattern(pat: FamilyPattern, values: Iterable[int]) -> AbelianGroup:
    """Concrete member from one parameter value per non-fixed slot."""
    values = list(values)
    orders = []
    for slot in pat.slots:
        if slot.kind == "fixed":
            orders.append(slot.modulus)
            continue
        k = values.pop(0)
        if k < 1:
            raise ValueError("parameters must be >= 1")
        scale = {"free": 1, "even": 2, "triple": 3}[slot.kind]
        orders.append(scale * k)
    if values:
        raise ValueError("too many parameter values")
    return AbelianGroup.from_factors(orders)


def render_pattern(pat: FamilyPattern,
                   letters: tuple[str, ...] = ("k", "l", "m")) -> tuple[str, tuple[str, ...]]:
    """Display string and parameter constraints for a table row.

    Runs of identical fixed slots collapse into exponent notation, so
    (Z/4, Z/4, Z/2) renders as 'Z/4^2 x Z/2'.
    """
    pieces = []
    constraints = []
    next_letter = 0
    i = 0
    slots = pat.slots
    while i < len(slots):
        slot = slots[i]
        if slot.kind == "fixed":
            j = i
            while j < len(slots) and slots[j] == slot:
                j += 1
            rep = j - i
            pieces.append(f"Z/{slot.modulus}" + (f"^{rep}" if rep > 1 else ""))
            i = j
            continue
        letter = letters[next_letter]
        next_letter += 1
        prefix = {"free": "", "even": "2", "triple": "3"}[slot.kind]
        pieces.append(f"Z/{prefix}{letter}")
        constraints.append(f"{letter} >= 1")
        i += 1
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


def get_family(name: str) -> Family:
    try:
        return BUILTIN_FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_FAMILIES))
        raise KeyError(f"unknown family {name!r}; known families: {known}") from None
