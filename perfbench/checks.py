"""Independent checks of abext's CLI outputs.

Nothing here calls the code under measurement.  Littlewood-Richardson
coefficients are counted as integer arrays (how many entries v each row of
the skew shape holds) instead of by the package's cell-by-cell tableau
backtracking; expansions are checked by the hook length identity; groups
are parsed, factored and compared by their own routines here; family
members are found by searching cyclic factorizations of the order over the
pattern slots.  Only the published pattern tables (`abext tables`) are read
from abext.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import comb, factorial, prod

# -- partitions --------------------------------------------------------


@lru_cache(maxsize=None)
def partitions_of(n, max_part=None):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        return ((),)
    top = n if max_part is None else min(n, max_part)
    out = []
    for first in range(top, 0, -1):
        out.extend((first,) + rest for rest in partitions_of(n - first, first))
    return tuple(out)


def contains(outer, inner) -> bool:
    return len(inner) <= len(outer) and all(i <= o for i, o in zip(inner, outer))


def hook_count(shape) -> int:
    """Standard Young tableaux of the shape, by the hook length formula."""
    n = sum(shape)
    cols = [sum(1 for row in shape if row > c) for c in range(shape[0])] if shape else []
    hooks = prod(shape[r] - c + cols[c] - r - 1
                 for r in range(len(shape)) for c in range(shape[r]))
    return factorial(n) // hooks


@lru_cache(maxsize=None)
def lr_coefficient(lam, nu, mu) -> int:
    """Littlewood-Richardson coefficient counted over row arrays.

    a[r][v] is the number of entries v+1 in row r of the skew shape mu/lam.
    A row array is an LR tableau exactly when rows have the right lengths,
    the content is nu, entries of row r are at most r+1, columns strictly
    increase (lam[r] + #{<= v in row r} <= lam[r-1] + #{< v in row r-1})
    and the reverse reading word is a ballot word (#{v+1 in rows <= r} <=
    #{v in rows < r}).
    """
    if sum(mu) != sum(lam) + sum(nu) or not contains(mu, lam) or not contains(mu, nu):
        return 0
    rows = len(mu)
    lam_pad = tuple(lam) + (0,) * (rows - len(lam))
    k = len(nu)

    @lru_cache(maxsize=None)
    def count(r, used, prev):
        # used[v]: entries v+1 placed in rows < r; prev: row r-1's counts
        if r == rows:
            return 1 if used == tuple(nu) else 0
        length = mu[r] - lam_pad[r]
        top = min(r + 1, k)
        total = 0
        row = [0] * k

        def place(v, left):
            nonlocal total
            if v == top:
                if left == 0:
                    total += count(r + 1, tuple(u + a for u, a in zip(used, row)),
                                   tuple(row))
                return
            for a in range(min(left, nu[v] - used[v]), -1, -1):
                if v and used[v] + a > used[v - 1]:
                    continue
                if r:
                    # cells holding values <= v+1 sit under values <= v
                    if lam_pad[r] + sum(row[:v]) + a > lam_pad[r - 1] + sum(prev[:v]):
                        continue
                row[v] = a
                place(v + 1, left - a)
            row[v] = 0

        place(0, length)
        return total

    return count(0, (0,) * k, (0,) * k)


def expansion_support(lam, nu):
    """All mu with a positive coefficient in lam . nu."""
    n = sum(lam) + sum(nu)
    return {mu for mu in partitions_of(n)
            if contains(mu, lam) and contains(mu, nu) and lr_coefficient(lam, nu, mu)}


# -- groups ------------------------------------------------------------

_FACTOR = re.compile(r"Z/(\d+)(?:\^(\d+))?")


def factor(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def canonical(orders) -> tuple:
    """Isomorphism invariant of a product of cyclic groups: sorted
    (prime, type) pairs."""
    types = {}
    for n in orders:
        for p, e in factor(n).items():
            types.setdefault(p, []).append(e)
    return tuple(sorted((p, tuple(sorted(es, reverse=True)))
                        for p, es in types.items()))


def parse_group(text: str) -> tuple:
    """Invariant of a group string as abext prints it."""
    if text == "1":
        return ()
    orders = []
    for token in text.split(" x "):
        m = _FACTOR.fullmatch(token)
        if not m:
            raise ValueError(f"bad group factor {token!r}")
        orders.extend([int(m.group(1))] * int(m.group(2) or 1))
    return canonical(orders)


def group_text(types: dict) -> str:
    """A group string for {prime: type}, one cyclic factor per part."""
    factors = [f"Z/{p ** e}" for p in sorted(types) for e in types[p]]
    return " x ".join(factors) or "1"


def order_of(invariant) -> int:
    return prod(p ** sum(t) for p, t in invariant)


# -- families ----------------------------------------------------------

SLOT_SCALE = {"free": 1, "even": 2, "triple": 3}


@lru_cache(maxsize=None)
def _divisors(n):
    small = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def slot_orders(kind, modulus, limit, exact):
    """Orders a slot may take: all up to limit, or divisors of exact."""
    if kind == "fixed":
        values = [modulus]
    elif exact is not None:
        values = [d for d in _divisors(exact) if d % SLOT_SCALE[kind] == 0]
    else:
        values = range(SLOT_SCALE[kind], limit + 1, SLOT_SCALE[kind])
    return [v for v in values if v <= limit]


def family_members(patterns, bound=None, order=None) -> set:
    """Invariants of pattern instantiations with order <= bound, or with
    order exactly `order`.  patterns: tuples of (kind, modulus) slots."""
    found = set()
    limit = order if order is not None else bound

    def walk(slots, remaining, orders):
        if not slots:
            if order is None or remaining == 1:
                found.add(canonical(orders))
            return
        kind, modulus = slots[0]
        exact = remaining if order is not None else None
        for n in slot_orders(kind, modulus, remaining, exact):
            if order is not None and remaining % n:
                continue
            walk(slots[1:], remaining // n, orders + [n])

    for slots in patterns:
        walk(slots, limit, [])
    return found


# -- output checkers: each returns None when the output is right ---------


def _ok_code(result, expected=0):
    if result["code"] != expected:
        return f"exit code {result['code']}, expected {expected}: {result.get('err', '')}"
    return None


def check_lr_expand(result, lam, nu):
    bad = _ok_code(result)
    if bad:
        return bad
    items = json.loads(result["out"])
    keys = [tuple(-x for x in item["partition"]) for item in items]
    if keys != sorted(set(keys)):
        return "terms are not in order, or repeat"
    n = sum(lam) + sum(nu)
    total = 0
    for item in items:
        mu, c = tuple(item["partition"]), item["multiplicity"]
        if sum(mu) != n or list(mu) != sorted(mu, reverse=True) or c < 1:
            return f"invalid term {mu} {c}"
        if not contains(mu, lam) or not contains(mu, nu):
            return f"{mu} does not contain both factors"
        total += c * hook_count(mu)
    if total != comb(n, sum(lam)) * hook_count(lam) * hook_count(nu):
        return "hook length identity fails"
    return None


def check_lr_coeff(result, lam, nu, mu):
    bad = _ok_code(result)
    if bad:
        return bad
    got = json.loads(result["out"])
    want = lr_coefficient(lam, nu, mu)
    return None if got == want else f"coefficient {got}, expected {want}"


def _check_sorted(texts):
    keys = [(order_of(parse_group(t)), t) for t in texts]
    return None if keys == sorted(keys) else "groups are not sorted by (order, name)"


def check_ext(result, h_types, k_types):
    bad = _ok_code(result)
    if bad:
        return bad
    texts = json.loads(result["out"])
    got = [parse_group(t) for t in texts]
    if len(set(got)) != len(got):
        return "duplicate groups"
    primes = sorted(set(h_types) | set(k_types))
    per_prime = [expansion_support(tuple(h_types.get(p, ())),
                                   tuple(k_types.get(p, ()))) for p in primes]
    want = {()}
    for p, support in zip(primes, per_prime):
        want = {inv + ((p, mu),) for inv in want for mu in support}
    if set(got) != want:
        return f"{len(got)} groups, expected {len(want)}; sets differ"
    return _check_sorted(texts)


def check_member(result, group_invariant, patterns):
    bad = _ok_code(result)
    if bad:
        return bad
    got = json.loads(result["out"])
    want = group_invariant in family_members(patterns, order=order_of(group_invariant))
    return None if got == want else f"membership {got}, expected {want}"


def check_enumerate(result, patterns, bound):
    bad = _ok_code(result)
    if bad:
        return bad
    texts = json.loads(result["out"])
    got = [parse_group(t) for t in texts]
    want = family_members(patterns, bound=bound)
    if len(set(got)) != len(got) or set(got) != want:
        return f"{len(got)} members, expected {len(want)}; sets differ"
    return _check_sorted(texts)


def check_oracle(result, split):
    bad = _ok_code(result)
    if bad:
        return bad
    got = json.loads(result["out"])
    if got["oracle"] is None:
        return "the oracle was skipped"
    if got["criterion"] != got["oracle"]:
        return f"criterion {got['criterion']} disagrees with the oracle"
    if split and not got["criterion"]:
        return "a split extension was rejected"
    return None


def check_claim(result, expected):
    bad = _ok_code(result, expected["exit_code"])
    if bad:
        return bad
    got = json.loads(result["out"])
    want = {k: v for k, v in expected.items() if k != "exit_code"}
    return None if got == want else f"report {got}, expected {want}"
