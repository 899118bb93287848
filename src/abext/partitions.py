"""Integer partitions stored as canonical tuples.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the empty partition.  Partitions serve both as Young diagrams and
as types of finite abelian p-groups: Z/p^a1 x ... x Z/p^ar has type
(a1, ..., ar) with a1 >= ... >= ar >= 1.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import zip_longest

Partition = tuple[int, ...]


def make_partition(raw: Iterable[int]) -> Partition:
    """Sort descending and strip zeros; reject non-int or negative entries."""
    parts = list(raw)
    if not all(type(x) is int and x >= 0 for x in parts):
        raise ValueError(
            f"partition entries must be nonnegative integers, got {parts!r}")
    canon = tuple(sorted((x for x in parts if x), reverse=True))
    # a canonical tuple comes back as itself, so that groups built from
    # memoized supports share those tuples instead of holding copies
    return raw if type(raw) is tuple and canon == raw else canon


@lru_cache(maxsize=None)
def partitions_of(n: int, top: int | None = None) -> tuple[Partition, ...]:
    """Partitions of n with parts at most top, largest part first."""
    if n == 0:
        return ((),)
    return tuple((first, *rest) for first in range(min(n, top or n), 0, -1)
                 for rest in partitions_of(n - first, first))


def parse_partition(text: str) -> Partition:
    """Read the bracket form, e.g. '[3,3,2,1]' or '[]'."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected a bracketed partition, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    try:
        entries = [int(tok) for tok in body.split(",")]
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return make_partition(entries)


def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def size(p: Partition) -> int:
    """Number of boxes; a p-group of type p has order p**size(p)."""
    return sum(p)


def contains(outer: Partition, inner: Partition) -> bool:
    """Rowwise containment of Young diagrams."""
    return len(inner) <= len(outer) and all(i <= o for i, o in zip(inner, outer))


def union_merge(a: Partition, b: Partition) -> Partition:
    """Multiset union of rows; the type of a direct product of p-groups."""
    return tuple(sorted(a + b, reverse=True))


def componentwise_sum(a: Partition, b: Partition) -> Partition:
    """Rowwise sums, missing rows read as zero."""
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not p:
        return ()
    return tuple(sum(1 for row in p if row > c) for c in range(p[0]))


def sort_key(p: Partition) -> tuple[int, ...]:
    """Descending lexicographic order on parts, shorter first on ties."""
    return tuple(-x for x in p)
