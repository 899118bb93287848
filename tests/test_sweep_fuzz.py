"""Differential fuzz of the sweep over generated families.

Every built-in family has its primes in {2, 3}, so only generated
families can show a sweep that treats one prime like another: row masks
at a prime outside a family's primes are shared by all such primes, table
entries there reduce to one mask, and a prime inside them must never be
taken for one outside.  Generated families also reach the caps of the
sweep tables: at a prime of the target, a table entry is keyed by the
p-types with parts above a cap lowered to it (E + 1, or 2E + 1 and at
least 2 for closure, with E the largest exponent the rows fix there).
Families here draw slots with moduli 5, 7, 8, 9 and 25 and exceptional
groups at 5 and 7, in windows up to 32: there caps up to 4 change
2-types (Z/32) and a cap of 2 changes 3-types (Z/27).  Each case compares
run_claim with the naive sweep of tests/oracles.py.
"""

import itertools
from functools import reduce
from operator import and_

from hypothesis import example, given, settings
from hypothesis import strategies as st

from abext.extensions import GroupSet
from abext.families import (A2, A3P, EVEN, FREE, PA4P, PB4P, TRIPLE,
                            A1xA3P, A2xA2, Family, FamilyPattern,
                            fixed, member_types, row_mask)
from abext.groups import AbelianGroup, parse_group
from abext.lr import _lr_support
from abext.partitions import partitions_of, union_merge
from abext.verify import (_A1xA1, Claim, Sweep, _Options, _outside, _reach,
                          _zero_pairs, run_claim)

from oracles import naive_members, naive_run_claim

SLOTS = [FREE, EVEN, TRIPLE] + [fixed(m) for m in (2, 3, 4, 5, 6, 7, 8, 9, 25)]
EXCEPTIONAL = ["Z/5^2", "Z/7 x Z/7", "Z/2^3", "Z/3 x Z/9", "Z/10"]
STEPS = ["extension", "product", "closure"]

# Family.__hash__ is the name's, and the memos of row_mask and of the
# closure masks are keyed by family: every generated family gets its own
_names = itertools.count()


def _family(patterns, exceptional):
    return Family(f"fuzz-{next(_names)}",
                  tuple(FamilyPattern(tuple(slots)) for slots in patterns),
                  GroupSet(parse_group(g) for g in exceptional))


families = st.builds(
    _family,
    st.lists(st.lists(st.sampled_from(SLOTS), min_size=1, max_size=4),
             min_size=1, max_size=4),
    st.lists(st.sampled_from(EXCEPTIONAL), max_size=1))


# at 5 and at 7 alike, row 0 alone admits the p-type (2) and row 1 alone
# (1, 1), so the entry of (1,) x (1,) holds two masks; the extensions of
# Z/35 by itself leave the target only where the two primes choose
# differently, which takes an entry's second mask at one of them
_TWO_ROWS = _family([[fixed(1225)], [fixed(35), fixed(35)]], [])
_Z35 = _family([], ["Z/35"])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STEPS), families, families, families,
       st.sampled_from([8, 12, 16, 32]))
@example("extension", _Z35, _Z35, _TWO_ROWS, 35)
def test_sweep_matches_naive_sweep(step, left, right, target, bound):
    claim = Claim("fuzz", (Sweep(step, left, right, target),))
    report = run_claim(claim, bound)
    checked, witnesses = naive_run_claim(claim, bound)
    assert report.checked_pairs == checked
    assert report.witness_sources == {
        g: tuple(sorted(pairs)) for g, pairs in witnesses.items()}


@settings(max_examples=60, deadline=None)
@given(families)
@example(_TWO_ROWS)
@example(_Z35)
def test_member_walk_matches_naive_members(family):
    # generated families fix parts at 5 and 7, where the walk's lists then
    # differ from those of class 0, which no built-in family shows; both
    # walks ascend by order, so equal lists at 256 cover every smaller bound
    assert [list(t.items()) for t in member_types(family, 256)] == [
        list(g.prime_types().items()) for g in naive_members(family, 256)]


def _outside_by_choices(step, ht, kt, target):
    """_outside without its table: the groups of every
    choice of one candidate p-type per prime whose masks AND to 0, in
    witness order."""
    mask_of = _reach if step == "closure" else row_mask
    n = len(target.rows)
    full = (1 << (n * n if step == "closure" else n)) - 1
    primes = tuple(ht.keys() | kt.keys() | target.primes)
    per_prime = []
    for p in primes:
        a, b = ht.get(p, ()), kt.get(p, ())
        mus = (union_merge(a, b),) if step == "product" else _lr_support(a, b)
        per_prime.append([(mask_of(target, p, mu), mu) for mu in mus])
    return sorted((AbelianGroup(dict(zip(primes, (mu for _, mu in combo))))
                   for combo in itertools.product(*per_prime)
                   if not reduce(and_, (m for m, _ in combo), full)),
                  key=AbelianGroup.sort_key)


# a sweep of the kind the fuzz draws, with members at 2, 3, 5 and 7
_LEFT = _family([[FREE], [fixed(5), fixed(5)]], ["Z/7 x Z/7"])
_RIGHT = _family([[EVEN, fixed(7)], [TRIPLE]], ["Z/5^2"])
_TARGET = _family([[FREE, FREE], [fixed(25), EVEN], [fixed(5), FREE, FREE]],
                  ["Z/3 x Z/9"])


def _key(types):
    """A prime-type map in hashable form, to compare pairs by type."""
    return tuple(sorted(types.items()))


def test_outside_matches_the_choices_on_every_pair():
    left, right = (list(member_types(f, 60)) for f in (_LEFT, _RIGHT))
    found = 0
    for step in STEPS:
        table = _Options(step, _TARGET)
        witnessed = set()
        for ht, kt in itertools.product(left, right):
            expected = _outside_by_choices(step, ht, kt, _TARGET)
            assert _outside(table, AbelianGroup(ht),
                            AbelianGroup(kt)) == expected, (step, ht, kt)
            if expected:
                witnessed.add((_key(ht), _key(kt)))
        # the join yields exactly the pairs that have a witness
        assert {(_key(ht), _key(kt)) for ht, kt in
                _zero_pairs(table, left, right)} == witnessed, step
        found += len(witnessed)
    # both verdicts occur
    assert 0 < found < 3 * len(left) * len(right)


@settings(max_examples=100, deadline=None)
@given(families)
@example(_A1xA1)
@example(A2)
@example(A3P)
@example(PA4P)
@example(PB4P)
@example(A2xA2)
@example(A1xA3P)
def test_lowering_a_part_above_the_fixed_exponents_keeps_every_row(target):
    # the closure cap rests on this monotonicity (verify's docstring): at a
    # target prime, lowering a part above E, the largest exponent the rows
    # fix there, to some e <= E keeps len(parts) and raises count(e), so
    # every row that admits mu admits the result; the examples are the
    # sweep claims' targets
    for p, cap in _Options("extension", target).cap.items():
        top = cap - 1
        for mu in (mu for n in range(13) for mu in partitions_of(n)):
            mask = row_mask(target, p, mu)
            # mu descends, so its parts above E come first
            for i in range(sum(part > top for part in mu)):
                for e in range(1, top + 1):
                    lowered = tuple(sorted(mu[:i] + (e,) + mu[i + 1:],
                                           reverse=True))
                    assert row_mask(target, p, lowered) & mask == mask, (
                        target.rows, p, mu, lowered)
