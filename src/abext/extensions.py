"""Extension calculus for finite abelian groups.

G is an extension of K by H when 0 -> H -> G -> K -> 0 is exact.  For
finite abelian groups the condition splits over primes: it holds exactly
when every p-part of G carries a positive Littlewood-Richardson
coefficient for the p-types of H and K.  extension_set enumerates all
extensions by combining the per-prime expansions.

brute_force_is_extension answers the same question at the element level,
with no tableau combinatorics: it enumerates every subgroup S of each
p-part of G and compares isomorphism types of S and G/S, recovered from
the order statistics |A[p^j]| = p**(sum_i min(a_i, j)).  It exists to
cross-validate the coefficient criterion and is exhaustive below its
configured bound.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator

from .errors import ResourceLimitError
from .groups import AbelianGroup
from .lr import lr_expand, lr_positive
from .partitions import Partition, conjugate

DEFAULT_ORACLE_BOUND = 1024


class GroupSet:
    """Immutable set of groups, iterated by ascending order then name."""

    __slots__ = ("_members",)

    def __init__(self, groups: Iterable[AbelianGroup] = ()):
        self._members = frozenset(groups)

    def __iter__(self) -> Iterator[AbelianGroup]:
        return iter(sorted(self._members, key=AbelianGroup.sort_key))

    @property
    def members(self) -> frozenset[AbelianGroup]:
        """The groups, unordered; iterating this skips the sort."""
        return self._members

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, group) -> bool:
        return group in self._members

    def __bool__(self) -> bool:
        return bool(self._members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupSet):
            return NotImplemented
        return self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __le__(self, other: "GroupSet") -> bool:
        return self._members <= other._members

    def __repr__(self) -> str:
        return "GroupSet({%s})" % ", ".join(str(g) for g in self)


def is_extension(g: AbelianGroup, h: AbelianGroup, k: AbelianGroup) -> bool:
    """True when there is an exact sequence 0 -> h -> g -> k -> 0."""
    if g.order() != h.order() * k.order():
        return False
    return all(lr_positive(h.p_part(p), k.p_part(p), g.p_part(p))
               for p in g.primes)


# No memo: a pair recurs in at most about a third of calls, each call is cheap
# next to the memoized expansions, and a pair memo kept a set alive per pair.
def extension_set(h: AbelianGroup, k: AbelianGroup) -> GroupSet:
    """All extensions of k by h, combining primes independently."""
    ht, kt = h.prime_types(), k.prime_types()
    primes = sorted(ht.keys() | kt.keys())
    per_prime = [list(lr_expand(ht.get(p, ()), kt.get(p, ()))) for p in primes]
    return GroupSet(AbelianGroup(dict(zip(primes, combo)))
                    for combo in itertools.product(*per_prime))


def set_product(a: GroupSet, b: GroupSet) -> GroupSet:
    """Pairwise direct products of two nonempty group sets."""
    if not a or not b:
        raise ValueError("set_product requires nonempty sets")
    return GroupSet(h.direct_product(k) for h in a.members for k in b.members)


def set_extension(a: GroupSet, b: GroupSet) -> GroupSet:
    """Union of extension sets over all pairs from two nonempty sets."""
    if not a or not b:
        raise ValueError("set_extension requires nonempty sets")
    out: frozenset[AbelianGroup] = frozenset()
    for h in a.members:
        for k in b.members:
            out |= extension_set(h, k).members
    return GroupSet(out)


def brute_force_is_extension(g: AbelianGroup, h: AbelianGroup,
                             k: AbelianGroup,
                             oracle_bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """Element-level extension test (see the module docstring).

    Raises ResourceLimitError when some p-part of g has order beyond
    oracle_bound; reduce the instance or raise the bound.
    """
    for p in g.primes:
        if p ** sum(g.p_part(p)) > oracle_bound:
            raise ResourceLimitError(
                f"{p}-part of {g} exceeds the oracle bound {oracle_bound}")
    if g.order() != h.order() * k.order():
        return False
    return all((h.p_part(p), k.p_part(p)) in subgroup_quotient_types(p, g.p_part(p))
               for p in g.primes)


@lru_cache(maxsize=None)
def subgroup_quotient_types(p: int, parts: Partition) -> frozenset:
    """All (subgroup type, quotient type) pairs inside the p-group of the
    given type, by exhaustive subgroup enumeration.

    Subgroups are grown breadth-first by adjoining one cyclic generator at
    a time, which reaches every subgroup.  A subgroup is stored as a
    bitmask over element indices; generators are tried one per coset, since
    adjoining g and g + s extend a subgroup identically.  Types are
    recovered from order statistics, never from coset arithmetic.
    """
    moduli = tuple(p ** e for e in parts)
    n = prod(moduli)
    elements = list(itertools.product(*(range(m) for m in moduli)))
    index = {el: i for i, el in enumerate(elements)}
    zero = index[(0,) * len(parts)]

    add = [[0] * n for _ in range(n)]
    for i, a in enumerate(elements):
        row = add[i]
        for j, b in enumerate(elements):
            row[j] = index[tuple((x + y) % m for x, y, m in zip(a, b, moduli))]

    # kill_level[x] = least j with p^j * x = 0; p_shift[x] = index of p * x
    kill_level = []
    p_shift = []
    for el in elements:
        level = 0
        for x, e in zip(el, parts):
            if x:
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                level = max(level, e - v)
        kill_level.append(level)
        p_shift.append(index[tuple((x * p) % m for x, m in zip(el, moduli))])

    max_exp = parts[0] if parts else 0
    # preimage_counts[j][t] = #{x : p^j * x = t}
    power_map = list(range(n))
    preimage_counts = []
    for _ in range(max_exp + 1):
        counts = [0] * n
        for x in range(n):
            counts[power_map[x]] += 1
        preimage_counts.append(counts)
        power_map = [p_shift[x] for x in power_map]

    def bits(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    base = 1 << zero
    seen = {base}
    queue = deque([base])
    while queue:
        mask = queue.popleft()
        members = bits(mask)
        covered = mask
        for g in range(n):
            if covered >> g & 1:
                continue
            row_g = add[g]
            for s in members:
                covered |= 1 << row_g[s]
            cyc = []
            t = g
            while t != zero:
                cyc.append(t)
                t = add[t][g]
            grown = mask
            for s in members:
                row = add[s]
                for m in cyc:
                    grown |= 1 << row[m]
            if grown not in seen:
                seen.add(grown)
                queue.append(grown)

    def type_from_counts(counts_by_level, total):
        # counts_by_level[j] = number of elements killed by p^j;
        # log_p of the cumulative count increments by #(parts >= j) per level
        cols = []
        cum = counts_by_level[0]
        exp_prev = 0
        for j in range(1, max_exp + 1):
            cum += counts_by_level[j]
            exp_j = _exact_log(cum, p)
            cols.append(exp_j - exp_prev)
            exp_prev = exp_j
            if cum == total:
                break
        return conjugate(tuple(c for c in cols if c))

    pairs = set()
    for mask in seen:
        members = bits(mask)
        size = len(members)
        sub_counts = Counter(kill_level[s] for s in members)
        sub_type = type_from_counts(
            [sub_counts.get(j, 0) for j in range(max_exp + 1)], size)
        # |(G/S)[p^j]| = #{x : p^j x in S} / |S|, counted via preimages
        quo_counts = [0] * (max_exp + 1)
        prev = 0
        for j in range(max_exp + 1):
            cur = sum(preimage_counts[j][s] for s in members) // size
            quo_counts[j] = cur - prev
            prev = cur
            if cur * size == n:
                break
        quo_type = type_from_counts(quo_counts, n // size)
        pairs.add((sub_type, quo_type))
    return frozenset(pairs)


def _exact_log(value: int, p: int) -> int:
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    if value != 1:
        raise ArithmeticError(f"expected a power of {p}")
    return e
