"""Independent reference implementations used only by the test suite.

Everything here recomputes results through a different route than the
package: coefficients by filtering full multiset permutations, tableau
counts by the hook length formula, row products by direct horizontal-strip
enumeration, and pattern membership by searching cyclic factorizations of
the order.  The extension closure of a family is searched, as the
package once did, through a window of family members paired by
complementary order, and naive_run_claim sweeps a claim as the package
once did, building every result group and testing it with those two.
Both list a family's members by filtering every abelian group of the window
with the brute-force pattern search, not by the package's enumeration.
naive_subgroup_quotient_types is the element-level oracle as the package
once ran it: a breadth-first search over an addition table that meets each
subgroup many times and keeps a set of those already seen.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from functools import lru_cache
from math import factorial

from abext import AbelianGroup, make_partition
from abext.extensions import extension_set, is_extension
from abext.families import Family, FamilyPattern
from abext.groups import factorize
from abext.partitions import conjugate


def partitions_of(n, max_part=None):
    """All partitions of n as canonical tuples."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_upto(n):
    """All partitions of every size from 0 through n."""
    for total in range(n + 1):
        yield from partitions_of(total)


def naive_lr(lam, nu, mu):
    """Coefficient by checking every distinct assignment of the content
    word to the skew cells, validating rows, columns and the ballot
    condition only after the full filling is laid down."""
    if sum(mu) != sum(lam) + sum(nu):
        return 0
    if len(lam) > len(mu) or any(l > m for l, m in zip(lam, mu)):
        return 0
    lam_pad = lam + (0,) * (len(mu) - len(lam))
    cells = [(r, c) for r in range(len(mu)) for c in range(lam_pad[r], mu[r])]
    word = [i + 1 for i, reps in enumerate(nu) for _ in range(reps)]
    count = 0
    for perm in set(itertools.permutations(word)):
        grid = dict(zip(cells, perm))
        ok = True
        for (r, c), v in grid.items():
            if grid.get((r, c + 1), v) < v:
                ok = False
                break
            if (r + 1, c) in grid and grid[(r + 1, c)] <= v:
                ok = False
                break
        if not ok:
            continue
        reading = [grid[(r, c)] for r in range(len(mu))
                   for c in range(mu[r] - 1, lam_pad[r] - 1, -1)]
        seen = [0] * (len(nu) + 2)
        for v in reading:
            seen[v] += 1
            if v > 1 and seen[v] > seen[v - 1]:
                ok = False
                break
        count += ok
    return count


def syt_count(shape):
    """Standard Young tableaux of a shape, by the hook length formula."""
    if not shape:
        return 1
    conj = [sum(1 for row in shape if row > c) for c in range(shape[0])]
    n = sum(shape)
    denom = 1
    for i, row in enumerate(shape):
        for j in range(row):
            denom *= row - j + conj[j] - i - 1
    return factorial(n) // denom


def horizontal_strip_expand(lam, k):
    """Shapes mu with mu/lam a horizontal strip of k cells (at most one
    new cell per column), enumerated directly from the interleaving
    condition lam[i-1] >= mu[i] >= lam[i]."""
    rows = len(lam) + 1
    out = set()

    def rec(i, remaining, prefix):
        if i == rows:
            if remaining == 0:
                out.add(make_partition(prefix))
            return
        lo = lam[i] if i < len(lam) else 0
        # at most one new cell per column: mu[i] may not pass lam[i-1]
        hi = min(lam[i - 1], lo + remaining) if i else lo + remaining
        for val in range(lo, hi + 1):
            rec(i + 1, remaining - (val - lo), prefix + [val])

    rec(0, k, [])
    return out


def divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def naive_matches(group: AbelianGroup, pattern: FamilyPattern) -> bool:
    """Pattern membership by brute force: search every way of writing the
    order as a product of cyclic factor orders allowed by the slots and
    compare the resulting group."""
    def allows(slot, n):
        if slot.kind == "free":
            return True
        if slot.kind == "even":
            return n % 2 == 0
        if slot.kind == "triple":
            return n % 3 == 0
        return n == slot.modulus

    slots = pattern.slots

    def rec(i, remaining, orders):
        if i == len(slots):
            return remaining == 1 and AbelianGroup.from_factors(orders) == group
        for d in divisors(remaining):
            if allows(slots[i], d) and rec(i + 1, remaining // d, orders + [d]):
                return True
        return False

    return rec(0, group.order(), [])


@lru_cache(maxsize=None)
def naive_members(family: Family, bound: int) -> tuple:
    """Every member of order at most bound, by filtering every abelian group
    of the window with naive_member."""
    return tuple(g for g in all_abelian_groups_upto(bound)
                 if naive_member(g, family))


@lru_cache(maxsize=None)
def _window_by_order(family: Family, order_limit: int) -> dict:
    buckets: dict[int, list[AbelianGroup]] = {}
    for g in naive_members(family, order_limit):
        buckets.setdefault(g.order(), []).append(g)
    return buckets


def naive_extends_two(g: AbelianGroup, family: Family,
                      order_limit: int) -> bool:
    """Whether g is an extension of two family members, by trying every
    pair of members up to order_limit whose orders multiply to |g|, in
    both orders.  Exhaustive once order_limit reaches |g|."""
    buckets = _window_by_order(family, order_limit)
    n = g.order()
    return any(is_extension(g, h, k)
               for d in divisors(n) for h in buckets.get(d, ())
               for k in buckets.get(n // d, ()))


def naive_member(group: AbelianGroup, family: Family) -> bool:
    return group in family.exceptional or any(
        naive_matches(group, pat) for pat in family.patterns)


def naive_run_claim(claim, bound):
    """checked_pairs and {witness: set of source pairs} of a claim's sweeps,
    with every result built by extension_set or direct_product and tested
    by naive_member, or for closure by naive_extends_two over members up
    to bound squared, which bounds every result's order.  Closure pairs
    inside target x target are skipped, since all their extensions are
    extensions of two members."""
    member = lru_cache(maxsize=None)(naive_member)
    checked = 0
    witnesses = {}
    for sweep in claim.sweeps:
        target = sweep.target
        for h in naive_members(sweep.left, bound):
            for k in naive_members(sweep.right, bound):
                checked += 1
                if sweep.step == "product":
                    results = [h.direct_product(k)]
                elif (sweep.step == "closure" and member(h, target)
                      and member(k, target)):
                    continue
                else:
                    results = extension_set(h, k)
                for g in results:
                    if sweep.step == "closure":
                        inside = naive_extends_two(g, target, bound * bound)
                    else:
                        inside = member(g, target)
                    if not inside:
                        witnesses.setdefault(g, set()).add((h, k))
    return checked, witnesses


def all_abelian_groups_upto(bound):
    """Every finite abelian group of order at most bound, via all type
    combinations over the prime factorization of each order."""
    for n in range(1, bound + 1):
        per_prime = [[(p, t) for t in partitions_of(e)]
                     for p, e in factorize(n).items()]
        for combo in itertools.product(*per_prime):
            yield AbelianGroup(dict(combo))


def random_partition(rng, max_size):
    total = rng.randint(0, max_size)
    parts = []
    while total:
        part = rng.randint(1, total)
        parts.append(part)
        total -= part
    return make_partition(parts)


def random_group(rng, primes=(2, 3, 5), max_size=4) -> AbelianGroup:
    types = {}
    for p in primes:
        parts = random_partition(rng, max_size)
        if parts:
            types[p] = parts
    return AbelianGroup(types)


def _subgroup_search(p, parts):
    """Element tables of the p-group of type parts and every subgroup as a
    bitmask over element indices (itertools.product order)."""
    moduli = tuple(p ** e for e in parts)
    n = 1
    for m in moduli:
        n *= m
    elements = list(itertools.product(*(range(m) for m in moduli)))
    index = {el: i for i, el in enumerate(elements)}
    zero = index[(0,) * len(parts)]

    add = [[0] * n for _ in range(n)]
    for i, a in enumerate(elements):
        row = add[i]
        for j, b in enumerate(elements):
            row[j] = index[tuple((x + y) % m for x, y, m in zip(a, b, moduli))]

    # breadth-first: adjoin one cyclic generator at a time, one per coset
    base = 1 << zero
    seen = {base}
    queue = deque([base])
    while queue:
        mask = queue.popleft()
        members = _bits(mask)
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
    return elements, index, seen


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def naive_subgroups(p, parts):
    """Every subgroup of the p-group of type parts, as a set of bitmasks."""
    return frozenset(_subgroup_search(p, parts)[2])


@lru_cache(maxsize=None)
def naive_subgroup_quotient_types(p, parts):
    """All (subgroup type, quotient type) pairs inside the p-group of type
    parts, from the breadth-first subgroup search and order statistics
    counted element by element."""
    elements, index, seen = _subgroup_search(p, parts)
    n = len(elements)

    # kill_level[x] = least j with p^j * x = 0; p_shift[x] = index of p * x
    kill_level = []
    p_shift = []
    moduli = tuple(p ** e for e in parts)
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
        members = _bits(mask)
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


def _exact_log(value, p):
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    if value != 1:
        raise ArithmeticError(f"expected a power of {p}")
    return e
