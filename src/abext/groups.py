"""Finite abelian groups up to isomorphism.

A group is stored as a map from primes to partitions: p maps to the type
of the p-part (the Sylow p-subgroup), so Z/8 x Z/4 x Z/6 becomes
{2: (3, 2, 1), 3: (1,)}.  The trivial group is the empty map.  Group
strings are products of cyclic factors:

    1                trivial group
    Z/12 x Z/2       separators 'x', '*' or the times sign; whitespace free
    Z/4^5            repetition
    C9               Cn is an alias for Z/n

Z/1 factors are dropped; Z/0 is rejected.  Printing regroups prime-power
factors into coprime products of equal multiplicity, largest order first
(invariant-factor style), so {2: (1, 1), 3: (1, 1, 1, 1)} prints as
'Z/6^2 x Z/3^2' and parse(format(G)) always returns G.  Orders use Python
integers, so they never overflow.

Factoring divides by trial up to TRIAL_DIVISION_LIMIT and accepts a
larger leftover cofactor only when is_prime proves it prime; otherwise it
raises ResourceLimitError.  So does a group string whose factors split
into more than MAX_FACTORS cyclic factors of prime-power order.

A group's order, name and sort key (types_key) are functions of its
prime types, and GroupSet, a frozenset of groups, iterates by that key.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterable, Iterator, Mapping
from itertools import groupby, zip_longest
from math import prod

from .errors import ResourceLimitError
from .partitions import Partition, make_partition, union_merge


class GroupSyntaxError(ValueError):
    """A group string does not conform to the grammar."""


_FACTOR_RE = re.compile(r"(?:Z/(\d+)|C(\d+))(?:\^(\d+))?")
_SEPARATOR_RE = re.compile(r"[x*×]")


# Largest trial divisor factorize tries.
TRIAL_DIVISION_LIMIT = 10 ** 6
# Most cyclic factors of prime-power order a group string may expand to.
MAX_FACTORS = 10 ** 6
# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.  Raises
    ResourceLimitError for odd n from MILLER_RABIN_BOUND on, where the
    fixed bases no longer decide."""
    if n < 2 or n % 2 == 0:
        return n == 2
    return n in _MR_BASES or _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    if n >= MILLER_RABIN_BOUND:
        raise ResourceLimitError(
            f"cannot decide whether {n} is prime: it is not below "
            f"{MILLER_RABIN_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1.

    Trial division stops at TRIAL_DIVISION_LIMIT.  A cofactor left beyond
    it must be prime by is_prime; a composite one, or one too large for
    is_prime to decide, raises ResourceLimitError.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"cannot factor {n!r}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f <= TRIAL_DIVISION_LIMIT:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        # f * f <= n: the loop stopped at the limit, not at the square root
        if f * f <= n and not is_prime(n):
            raise ResourceLimitError(
                f"cannot factor {n}: it is composite with no prime factor "
                f"up to {TRIAL_DIVISION_LIMIT}")
        out[n] = out.get(n, 0) + 1
    return out


def format_types(types: Collection[tuple[int, Partition]]) -> str:
    """Name of the group with these (prime, partition) pairs, one pair per
    prime and no partition empty (see the module docstring)."""
    if not types:
        return "1"
    primes, columns = zip(*types)
    pieces = []
    # a factor determines its exponents, so equal factors are equal
    # columns, and each run of them takes one product
    for column, run in groupby(zip_longest(*columns, fillvalue=0)):
        f = prod(p ** e for p, e in zip(primes, column))
        rep = len(list(run))
        pieces.append(f"Z/{f}" + (f"^{rep}" if rep > 1 else ""))
    return " x ".join(pieces)


def types_key(types: Collection[tuple[int, Partition]]) -> tuple[int, str]:
    """Sort key of the group with these (prime, partition) pairs: its order,
    then its name.  AbelianGroup.sort_key is this key, so GroupSet iterates
    in its order."""
    return prod(p ** sum(parts) for p, parts in types), format_types(types)


class AbelianGroup:
    """Isomorphism class of a finite abelian group."""

    __slots__ = ("_types", "_hash")

    def __init__(self, types: Mapping[int, Iterable[int]]):
        items = []
        for p in types:
            if type(p) is not int or not is_prime(p):
                raise ValueError(f"{p!r} is not prime")
            parts = make_partition(types[p])
            if parts:
                items.append((p, parts))
        self._types = tuple(sorted(items))
        self._hash = hash(self._types)

    @classmethod
    def from_factors(cls, orders: Iterable[int]) -> "AbelianGroup":
        """Build from a list of cyclic factor orders, e.g. (8, 4, 6)."""
        types: dict[int, list[int]] = {}
        for n in orders:
            for p, e in factorize(n).items():
                types.setdefault(p, []).append(e)
        return cls(types)

    @classmethod
    def parse(cls, text: str) -> "AbelianGroup":
        """Parse a group string (see the module grammar)."""
        s = "".join(text.split())
        if not s:
            raise GroupSyntaxError("empty group string")
        types: dict[int, list[int]] = {}
        factors = 0
        for token in _SEPARATOR_RE.split(s):
            if token == "1":
                continue
            m = _FACTOR_RE.fullmatch(token)
            if not m:
                raise GroupSyntaxError(f"cannot parse factor {token!r}")
            n = int(m.group(1) or m.group(2))
            rep = int(m.group(3)) if m.group(3) else 1
            if n == 0:
                raise GroupSyntaxError("Z/0 is not a finite group")
            if rep == 0:
                raise GroupSyntaxError("repetition exponent must be >= 1")
            powers = factorize(n)
            factors += rep * len(powers)
            if factors > MAX_FACTORS:
                raise ResourceLimitError(
                    f"group string has more than {MAX_FACTORS} cyclic "
                    f"factors of prime-power order")
            for p, e in powers.items():
                types.setdefault(p, []).extend([e] * rep)
        return cls(types)

    @classmethod
    def from_json(cls, obj) -> "AbelianGroup":
        """Inverse of to_json."""
        primes = obj.get("primes") if isinstance(obj, dict) else None
        if (not isinstance(primes, dict) or set(obj) != {"primes"}
                or not all(isinstance(v, list) for v in primes.values())):
            raise ValueError("expected an object of the form {'primes': {...}}")
        if any(str(int(p)) != p for p in primes):
            raise ValueError("prime keys must be written as plain decimals")
        return cls({int(p): parts for p, parts in primes.items()})

    def to_json(self) -> dict:
        """JSON form, e.g. {'primes': {'2': [3, 3, 2, 1]}}."""
        return {"primes": {str(p): list(parts) for p, parts in self._types}}

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._types)

    def prime_types(self) -> dict[int, Partition]:
        return dict(self._types)

    def p_part(self, p: int) -> Partition:
        """Type of the p-part; the empty partition when p does not divide
        the order.  Raises ValueError when p is not prime."""
        for q, parts in self._types:
            if q == p:
                return parts
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return ()

    def rank(self) -> int:
        """Minimum number of generators: the longest per-prime type."""
        return max((len(parts) for _, parts in self._types), default=0)

    def order(self) -> int:
        return prod(p ** sum(parts) for p, parts in self._types)

    def direct_product(self, other: "AbelianGroup") -> "AbelianGroup":
        types: dict[int, Partition] = dict(self._types)
        for p, parts in other._types:
            types[p] = union_merge(types.get(p, ()), parts)
        return AbelianGroup(types)

    __mul__ = direct_product

    def sort_key(self):
        return types_key(self._types)

    def __str__(self) -> str:
        return format_types(self._types)

    def __repr__(self) -> str:
        return f"AbelianGroup({dict(self._types)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self._types == other._types

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.sort_key() < other.sort_key()


class GroupSet(frozenset):
    """Immutable set of groups, iterated by ascending order then name.

    A frozenset in all else: its length, membership, equality, hashing and
    set algebra never call __iter__, so only loops pay for the sort.  Set
    operators and union() return plain frozensets; wrap what a function
    returns in GroupSet to keep the order.
    """

    __slots__ = ()

    def __iter__(self) -> Iterator[AbelianGroup]:
        return iter(sorted(super().__iter__(), key=AbelianGroup.sort_key))

    def __repr__(self) -> str:
        return "GroupSet({%s})" % ", ".join(str(g) for g in self)


TRIVIAL = AbelianGroup({})


def parse_group(text: str) -> AbelianGroup:
    return AbelianGroup.parse(text)


def format_group(group: AbelianGroup) -> str:
    return str(group)
