"""Extension calculus for finite abelian groups.

G is an extension of K by H when 0 -> H -> G -> K -> 0 is exact.  For
finite abelian groups the condition splits over primes: it holds exactly
when every p-part of G carries a positive Littlewood-Richardson
coefficient for the p-types of H and K.  extension_types enumerates the
types of all extensions by combining the per-prime supports (lr_support),
and extension_set builds a group from each.

brute_force_is_extension answers the same question at the element level,
with no tableau combinatorics: it enumerates every subgroup S of order at
most p^(n // 2) of each p-part of G of order p^n, each exactly once, by a
reverse search over bitmask element sets, and compares isomorphism types
of S and G/S, recovered from the order statistics
|A[p^j]| = p**(sum_i min(a_i, j)) by popcounts.  By duality the larger
subgroups give the same pairs swapped (subgroup_quotient_types).  It
exists to cross-validate the coefficient criterion and is exhaustive on
p-parts of order up to oracle_bound (DEFAULT_ORACLE_BOUND, as ext --check
uses it); a larger p-part, or one with more than MAX_SUBGROUPS subgroups
of that order, raises ResourceLimitError instead.  So does extension_set
when a pair has more than MAX_EXTENSIONS extensions.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from functools import lru_cache
from math import prod

from .errors import ResourceLimitError
from .groups import AbelianGroup, GroupSet
from .lr import lr_positive, lr_support
from .partitions import Partition, conjugate

DEFAULT_ORACLE_BOUND = 1024
# most subgroups the oracle visits in one p-part of order p^n (those of
# order at most p^(n // 2)) before it gives up: 308,993 for Z/2^8, 37,140
# for Z/4^5 and 782,324 for Z/8 x Z/2^7, but 169,488,628 for Z/2^10
MAX_SUBGROUPS = 10 ** 6
# most extensions extension_set returns: Z/30030^10 by itself has 11^6
MAX_EXTENSIONS = 10 ** 6


def is_extension(g: AbelianGroup, h: AbelianGroup, k: AbelianGroup) -> bool:
    """True when there is an exact sequence 0 -> h -> g -> k -> 0."""
    if g.order() != h.order() * k.order():
        return False
    return all(lr_positive(h.p_part(p), k.p_part(p), g.p_part(p))
               for p in g.primes)


# No memo: a pair recurs in at most about a third of calls, each call is cheap
# next to the memoized supports, and a pair memo kept a set alive per pair.
def extension_set(h: AbelianGroup, k: AbelianGroup) -> GroupSet:
    """All extensions of k by h: a group for each type that extension_types
    yields.  Raises ResourceLimitError, before building any, when there are
    more than MAX_EXTENSIONS."""
    return GroupSet(map(AbelianGroup, extension_types(h, k)))


def extension_types(h: AbelianGroup, k: AbelianGroup) -> Iterator[dict]:
    """The types of the extensions of k by h, as {prime: partition},
    combining primes independently and walked lazily.  Raises
    ResourceLimitError at the call, before any type, when there are more
    than MAX_EXTENSIONS."""
    ht, kt = h.prime_types(), k.prime_types()
    primes = sorted(ht.keys() | kt.keys())
    per_prime = [lr_support(ht.get(p, ()), kt.get(p, ())) for p in primes]
    count = prod(map(len, per_prime))
    if count > MAX_EXTENSIONS:
        raise ResourceLimitError(f"{count} extensions exceed the limit of "
                                 f"{MAX_EXTENSIONS}")
    return (dict(zip(primes, c)) for c in itertools.product(*per_prime))


def set_product(a: GroupSet, b: GroupSet) -> GroupSet:
    """Pairwise direct products of two nonempty group sets."""
    if not a or not b:
        raise ValueError("set_product requires nonempty sets")
    return GroupSet(h.direct_product(k) for h, k in itertools.product(a, b))


def set_extension(a: GroupSet, b: GroupSet) -> GroupSet:
    """Union of extension sets over all pairs from two nonempty sets."""
    if not a or not b:
        raise ValueError("set_extension requires nonempty sets")
    return GroupSet(frozenset().union(
        *(extension_set(h, k) for h, k in itertools.product(a, b))))


def brute_force_is_extension(g: AbelianGroup, h: AbelianGroup,
                             k: AbelianGroup,
                             oracle_bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """Element-level extension test (see the module docstring).

    Raises ResourceLimitError when some p-part of g has order beyond
    oracle_bound (reduce the instance or raise the bound) or more than
    MAX_SUBGROUPS subgroups of order at most the square root of its own.
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
    given type, by exhaustive enumeration (_subgroup_masks) of the
    subgroups of order at most p^(n // 2), where p^n = |G|.

    The set is closed under swapping the pair, so that lower half is
    enough.  Let G^ = Hom(G, Q/Z) be the dual of G; G^ is isomorphic to G.
    The annihilator S' = {f : f(S) = 0} of S <= G is the dual of G/S, and
    restriction maps G^ onto S^ (Q/Z is divisible) with kernel S', so
    S' is isomorphic to G/S and G^/S' to S.  Carried into G by an
    isomorphism G^ -> G, S' gives a subgroup with the swapped pair.  When
    |S| > p^(n // 2), |S'| = p^n / |S| <= p^(n - n // 2 - 1) <= p^(n // 2),
    so every pair not found directly is the swap of one that is.

    Types come from order statistics counted by popcount: with G[p^j] the
    elements killed by p^j, |S[p^j]| = |S & G[p^j]|, and
    |(G/S)[p^j]| = |{x : p^j x in S}| / |S| = |S & p^jG| * |G[p^j]| / |S|,
    since each fibre of x -> p^j x is a coset of G[p^j].  Only the distinct
    count tuples are turned into types, once, at the end.
    """
    if not parts:
        return frozenset({((), ())})
    top = parts[0]
    killed = [0] * (top + 1)     # killed[j] = G[p^j]
    multiples = [0] * (top + 1)  # multiples[j] = p^jG
    for i, (_, vals) in enumerate(_elements(p, parts)):
        killed[max(e - v for e, v in zip(parts, vals))] |= 1 << i
        multiples[min(vals)] |= 1 << i
    for j in range(top):
        killed[j + 1] |= killed[j]
        multiples[top - j - 1] |= multiples[top - j]
    # each tuple holds |S|, |S[p^j]| for 0 < j < top, |S & p^jG| for 0 < j < top
    masks = [killed[top], *killed[1:top], *multiples[1:top]]
    counts = {tuple([(s & m).bit_count() for m in masks])
              for s in _subgroup_masks(p, parts, p ** (sum(parts) // 2))}

    g_killed = [m.bit_count() for m in killed]
    pairs = set()
    for size, *rest in counts:
        sub_orders = [1, *rest[:top - 1], size]
        image_sizes = [size, *rest[top - 1:], 1]
        quo_orders = [a * b // size for a, b in zip(image_sizes, g_killed)]
        pairs.add((_type_from_orders(sub_orders, p),
                   _type_from_orders(quo_orders, p)))
    return frozenset(pairs | {(q, s) for s, q in pairs})


def _type_from_orders(orders, p: int) -> Partition:
    # orders[j] = |A[p^j]| = p^(sum_i min(a_i, j)), so the steps of the
    # logs are the column lengths of A's type
    logs = [_exact_log(order, p) for order in orders]
    return conjugate(tuple(b - a for a, b in zip(logs, logs[1:]) if b > a))


def _elements(p: int, parts: Partition):
    """(coordinates, valuations) of each element of the p-group of type
    parts, in index order: mixed radix, last coordinate fastest.  The
    valuation of a coordinate x is the largest v <= parts[0] with p^v | x,
    so a zero coordinate has valuation parts[0]."""
    top = parts[0] if parts else 0
    valuation = []
    for x in range(p ** top):
        v = 0
        while v < top and x % p ** (v + 1) == 0:
            v += 1
        valuation.append(v)
    for coords in itertools.product(*(range(p ** e) for e in parts)):
        yield coords, tuple([valuation[x] for x in coords])


def _subgroup_masks(p: int, parts: Partition,
                    max_order: int) -> Iterator[int]:
    """Every subgroup of the p-group G of type parts of order at most
    max_order, a power of p (|G| for every subgroup), once each, as a
    bitmask over element indices (the order of _elements).  Raises
    ResourceLimitError rather than visit more than MAX_SUBGROUPS.

    Reverse search (Avis and Fukuda, 1996) over a tree whose root is 0.
    For j < parts[c], phi_{c,j}(x) = (x_c / p^j) mod p is a homomorphism
    from p^jG onto Z/p.  Ordering the pairs (j, c) with parts[c] > j
    lexicographically, let L_i be the elements of p^jG on which phi_{c',j}
    vanishes for every c' < c, where (j, c) is the i-th pair; after the
    last pair comes L_n = 0, with n = sum(parts).  Then
    G = L_0 > L_1 > ... > L_n = 0, each of index p in the one before.  The
    level of x (or of a subgroup) is the largest i with x in L_i.  A
    subgroup T != 0 of level i is not inside L_{i+1}, so its parent
    T & L_{i+1} has index p in T.

    The children of S are the T = S + <g> with g not in S but p*g in S,
    so that |T : S| = p.  T's level is min(level(S), level(g)).  When g
    lies in L_{level(S)}, T has S's level, and its parent T & L_{level(S)+1}
    does not contain S.  Otherwise level(T) = level(g) < level(S), so S lies
    in L_{level(T)+1}, and by index S is T's parent.  So S's children are
    exactly the T grown from a g outside L_{level(S)}.  Each such T is
    grown once, since its elements leave the candidates at once, and each
    subgroup but 0 is a child of its parent alone: every subgroup is
    visited exactly once, and no set of seen subgroups is needed.

    A parent has order |T| / p, so every ancestor of a subgroup of order
    at most max_order has order below it.  Growing no children from a
    subgroup of order max_order or more therefore still visits each
    subgroup of order at most max_order, and none larger.

    Sets are bitmasks, and adding t * e_c moves the elements with
    x_c < p^parts[c] - t up by t weights of c and wraps the rest down,
    so no addition table is built.
    """
    if not parts:
        yield 1
        return
    moduli = [p ** e for e in parts]
    weights = [prod(moduli[c + 1:]) for c in range(len(parts))]
    n = prod(moduli)
    full = (1 << n) - 1
    # starts[j]: the index i of L_i for the pair (j, 0); starts[top] = n
    starts = list(itertools.accumulate(conjugate(parts), initial=0))

    elements = list(_elements(p, parts))
    digits = [[0] * m for m in moduli]  # digits[c][v]: elements with x_c = v
    by_level = [0] * (starts[-1] + 1)
    preimages = [0] * n                 # preimages[x]: the y with p*y = x
    level = []
    for i, (coords, vals) in enumerate(elements):
        for c, x in enumerate(coords):
            digits[c][x] |= 1 << i
        # a zero coordinate has the largest valuation, so index() finds the
        # first c with phi_{c,j} nonzero; 0 itself gets level starts[top] = n
        height = min(vals)
        level.append(starts[height] + vals.index(height))
        by_level[level[-1]] |= 1 << i
        preimages[sum(p * x % m * w
                      for x, m, w in zip(coords, moduli, weights))] |= 1 << i
    p_multiples = sum(1 << x for x, pre in enumerate(preimages) if pre)
    # outside[i]: the elements not in L_i
    outside = list(itertools.accumulate(by_level, operator.or_, initial=0))

    below = [list(itertools.accumulate(row, operator.or_, initial=0))
             for row in digits]  # below[c][k]: elements with x_c < k
    moves = [[(below[c][m - t], t * w, full ^ below[c][m - t], (m - t) * w)
              for t in range(m)]  # t = 0 is never used
             for c, (m, w) in enumerate(zip(moduli, weights))]
    # adding g: one (low, left shift, high, right shift) per nonzero coordinate
    steps = [tuple(moves[c][t] for c, t in enumerate(coords) if t)
             for coords, _ in elements]

    stack = [(1, starts[-1])]  # the subgroup 0; element 0 has index 0
    visited = 0
    while stack:
        s, lev = stack.pop()
        visited += 1
        if visited > MAX_SUBGROUPS:
            raise ResourceLimitError(
                f"the {p}-group of type {list(parts)} has more than "
                f"{MAX_SUBGROUPS} subgroups")
        yield s
        if s.bit_count() >= max_order:
            continue
        omega = 0  # the x with p*x in s
        rest = s & p_multiples
        while rest:
            low = rest & -rest
            omega |= preimages[low.bit_length() - 1]
            rest ^= low
        candidates = omega & outside[lev]
        while candidates:
            g = (candidates & -candidates).bit_length() - 1
            grown = step = s
            for _ in range(p - 1):
                for low, left, high, right in steps[g]:
                    step = (step & low) << left | (step & high) >> right
                grown |= step
            candidates &= ~grown
            stack.append((grown, level[g]))


def _exact_log(value: int, p: int) -> int:
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    if value != 1:
        raise ArithmeticError(f"expected a power of {p}")
    return e
