"""Littlewood-Richardson products: one shape search, a horizontal-strip
traversal, and one counting search, tableau backtracking.

lr_support lists the mu with positive coefficient in lam . nu.  It adds the
rows of the operand with fewer rows, say nu, to the other in turn (the walk
takes one step per row, and c^mu_{lam nu} = c^mu_{nu lam}), row i as a
horizontal strip of nu_i cells labelled i: only addable rows take cells
(row 0, and rows shorter than the row above), and under the lattice rule
the i's in rows <= r number at most the (i-1)'s in rows <= r-1 (label 1
has no such limit).  A state is the grown shape with the running count of
the last label per row, and states are deduplicated after each label, so
the cost follows the number of distinct states, not of tableaux.  This is
the Remmel-Whitney rule, as in Buch's lrcalc.  A product whose bounding
box has more rows than columns is walked on the conjugates, since
c^mu'_{lam' nu'} = c^mu_{lam nu}.

The coefficient of mu in lam . nu counts the semistandard fillings of the
skew shape mu/lam with content nu whose reverse reading word (rows read
right to left, top to bottom) is a ballot word: every prefix contains at
least as many i's as (i+1)'s.  Cells are filled in exactly that reading
order, so the ballot condition, the content bounds and the row/column rules
all prune incrementally, and positivity queries can stop at the first
completed filling.  lr_expand counts the fillings of each shape that
lr_support lists, so it inherits its order, checks and refusals.

Only supports are memoized, behind the argument checks.  Arguments must
be canonical partition tuples; any other tuple or a list is refused with
ValueError.

Only the filling search recurses, one Python frame per cell.  Fillings of
more than MAX_DEPTH cells raise ResourceLimitError instead of overflowing
the interpreter's stack.  _lr_support also refuses products of more than
MAX_DEPTH rows or cells: nothing recurses there, but the limits bound how
many shapes it returns and how large.  Without them lr_support((10**8,),
(10**8,)) would return 10^8 + 1 shapes, and ext "Z/2^100000" "Z/2^100000"
would build 100,001 results of up to 200,000 parts.  The filling search
also takes at most MAX_FILL_STEPS steps per public call, one per cell tried
or filling completed, shared by all shapes of one lr_expand; past it
ResourceLimitError.  The CLI documents these limits as exit 3.  The shape
search has no step budget.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ResourceLimitError
from .partitions import (Partition, conjugate, contains, make_partition,
                         size)

# Deepest recursion the filling search may start, one frame per cell: below
# the interpreter's default recursion limit of 1000, with room for the frames
# of the caller (the CLI, a test runner or a tracer).  lr_support also
# refuses shapes of more rows, a limit the CLI documents.
MAX_DEPTH = 900
# Most steps (cells tried or fillings completed) the filling search may take
# per public call, all shapes of one lr_expand together: 5,058,346 for
# [12,9,5] . [12,9,5].
MAX_FILL_STEPS = 10 ** 7


def lr_coefficient(lam: Partition, nu: Partition, mu: Partition) -> int:
    """Multiplicity of mu in lam . nu; 0 when the shapes are incompatible."""
    _check_partitions(lam, nu, mu)
    return _count_fillings(lam, nu, mu, False, [MAX_FILL_STEPS])


def lr_positive(lam: Partition, nu: Partition, mu: Partition) -> bool:
    """True when mu appears in lam . nu.

    For p-group types this is exactly the condition for a group of type mu
    to be an extension of a group of type nu by a group of type lam.
    """
    _check_partitions(lam, nu, mu)
    return _count_fillings(lam, nu, mu, True, [MAX_FILL_STEPS]) > 0


def lr_expand(lam: Partition, nu: Partition) -> dict[Partition, int]:
    """All mu with positive coefficient in lam . nu, with multiplicities,
    in partitions.sort_key order."""
    budget = [MAX_FILL_STEPS]
    return {mu: _count_fillings(lam, nu, mu, False, budget)
            for mu in lr_support(lam, nu)}


def lr_support(lam: Partition, nu: Partition) -> tuple[Partition, ...]:
    """The mu with positive coefficient in lam . nu, in partitions.sort_key
    order: the shapes of lr_expand(lam, nu), without counting fillings."""
    _check_partitions(lam, nu)
    return _lr_support(lam, nu)


@lru_cache(maxsize=None)
def _lr_support(lam: Partition, nu: Partition) -> tuple[Partition, ...]:
    """lr_support for canonical partition tuples, unchecked and memoized:
    checked as given, then walked on the operand with fewer rows (of the
    transposes when taller than wide).  All shapes have |lam| + |nu|
    boxes, so none is a prefix of another: descending is sort_key order."""
    _check_depth(len(lam) + len(nu), "shapes", "rows")
    _check_depth(size(nu), "fillings", "cells")
    if len(lam) + len(nu) > (lam[0] if lam else 0) + (nu[0] if nu else 0):
        # taller than wide: walk the transposes, as c^mu'_{lam' nu'} =
        # c^mu_{lam nu}, so that the walk has few rows
        found = map(conjugate, _strip_shapes(conjugate(lam), conjugate(nu)))
    else:
        found = _strip_shapes(lam, nu)
    return tuple(sorted(found, reverse=True))


def _strip_shapes(lam, nu):
    """The shapes reached by adding the rows of the operand with fewer rows
    to the other as lattice horizontal strips, each once."""
    if (len(nu), nu) > (len(lam), lam):
        lam, nu = nu, lam
    if not nu:
        return {lam}
    states = {(lam, None)}
    for n in nu[:-1]:
        states = {grown for shape, limit in states
                  for grown in _strips(shape, limit, n)}
    return {grown for shape, limit in states
            for grown, _ in _strips(shape, limit, nu[-1])}


def _strips(shape, limit, n):
    """(grown shape, running count per row) for each horizontal strip of n
    cells on shape whose running count at row r is at most limit[r - 1],
    the previous label's running count; limit None is no limit.

    Rows are walked top to bottom, the new row len(shape) included.  A row
    takes at most its gap to the row above, and at least what the rows
    below it cannot hold: their gaps sum to its own old length.
    """
    padded = shape + (0,)
    partials = [((), (), 0)]
    for r, old in enumerate(padded):
        cap = padded[r - 1] - old if r else n
        if limit is None:
            most = n
        elif r:
            most = limit[r - 1] if limit[r - 1] < n else n
        else:
            most = 0
        grown = []
        for rows, counts, placed in partials:
            # placed <= most, which never falls down the rows, so x = 0
            # stays in range: a row that takes no cell never breaks the
            # lattice rule
            top = most - placed if most - placed < cap else cap
            low = n - placed - old
            for x in range(low if low > 0 else 0, top + 1):
                grown.append((rows + (old + x,), counts + (placed + x,),
                              placed + x))
        partials = grown
    return [(rows, counts) if rows[-1] else (rows[:-1], counts[:-1])
            for rows, counts, _ in partials]


def _check_partitions(*shapes):
    for shape in shapes:
        if make_partition(shape) != shape:
            raise ValueError(f"{shape!r} is not a partition tuple")


def _check_depth(n, things, units):
    if n > MAX_DEPTH:
        raise ResourceLimitError(f"{things} of {n} {units} exceed the LR "
                                 f"depth limit {MAX_DEPTH}")


def _count_fillings(lam, nu, mu, first_only, budget):
    """Count the fillings (stop at the first when first_only), spending
    steps from the one-element list budget, which it leaves holding the
    steps that remain."""
    if size(mu) != size(lam) + size(nu):
        return 0
    if not contains(mu, lam) or not contains(mu, nu):
        return 0
    if len(mu) > len(lam) + len(nu):
        return 0
    # a filling has one cell per box of nu: check before anything is built
    _check_depth(size(nu), "fillings", "cells")
    if not nu:
        return 1

    nrows = len(mu)
    lam_pad = lam + (0,) * (nrows - len(lam))
    k = len(nu)
    # row r holds its skew cells, columns lam_pad[r] .. mu[r] - 1, then k,
    # the bound from the right; up indexes the same column of the row above
    grid = [[0] * (mu[r] - lam_pad[r]) + [k] for r in range(nrows)]
    cells = [(r, j, j + lam_pad[r] - lam_pad[r - 1] if r else -1)
             for r in range(nrows)
             for j in range(mu[r] - lam_pad[r] - 1, -1, -1)]
    counts = [0] * (k + 1)
    total = 0
    steps = budget[0]

    def fill(i):
        nonlocal total, steps
        steps -= 1
        if steps < 0:
            raise ResourceLimitError(f"the filling search exceeds the LR "
                                     f"step limit {MAX_FILL_STEPS}")
        if i == len(cells):
            total += 1
            return first_only
        r, j, up = cells[i]
        row = grid[r]
        # the cell above constrains only when it lies in the skew shape
        lo = grid[r - 1][up] + 1 if up >= 0 else 1
        for v in range(lo, row[j + 1] + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            row[j] = v
            if fill(i + 1):
                return True
            counts[v] -= 1
        row[j] = 0
        return False

    fill(0)
    budget[0] = steps
    return total
