import os
import pickle
import subprocess
import sys
from collections import Counter
from itertools import accumulate
from math import isqrt, prod

import pytest

from abext.extensions import GroupSet
from abext import families
from abext.families import (A1, A1xA3P, A2, A2xA2, A3P, B1xB3P, B3P, PA4P,
                            PB4P, BUILTIN_FAMILIES, EVEN, FREE, Family,
                            FamilyPattern, Slot, TRIPLE,
                            enumerate_family, family_contains, family_product,
                            fixed, get_family, instantiate_pattern, matches,
                            render_pattern, row_mask)
from abext.groups import TRIVIAL, parse_group
from abext.verify import CLAIMS

from oracles import (all_abelian_groups_upto, naive_matches, naive_member,
                     partitions_upto)


def test_slot_validation():
    with pytest.raises(ValueError):
        Slot("fixed", 1)
    with pytest.raises(ValueError):
        Slot("free", 2)
    with pytest.raises(ValueError):
        Slot("weird")
    # a modulus must be an int: fixed(2.5) would name the prime 2.5, and
    # fixed(4.0) would render as Z/4.0
    for modulus in (2.5, 4.0, True):
        with pytest.raises(ValueError, match="must be ints"):
            fixed(modulus)
    with pytest.raises(ValueError, match="must be ints"):
        Slot("free", 0.0)


@pytest.mark.parametrize("args, message", [
    (("odd",), "unknown slot kind 'odd'"),
    (("fixed", 2.0), "slot moduli must be ints, got 2.0"),
    (("fixed", 1), "fixed slots need a modulus >= 2"),
    (("free", 3), "only fixed slots carry a modulus"),
])
def test_slot_errors_keep_their_messages(args, message):
    with pytest.raises(ValueError) as info:
        Slot(*args)
    assert str(info.value) == message


def test_slot_replace_validates_like_the_constructor():
    assert FREE._replace(kind="even") == EVEN
    with pytest.raises(ValueError, match="only fixed slots carry a modulus"):
        FREE._replace(modulus=3)


def test_value_types_keep_their_contract():
    assert repr(FREE) == "Slot(kind='free', modulus=0)"
    assert repr(fixed(4)) == "Slot(kind='fixed', modulus=4)"
    assert repr(A1.patterns[1]) == (
        "FamilyPattern(slots=(Slot(kind='fixed', modulus=2), "
        "Slot(kind='fixed', modulus=2)))")
    assert repr(A1) == (
        "Family(name='A1', patterns=(FamilyPattern(slots=(Slot(kind='free', "
        "modulus=0),)), FamilyPattern(slots=(Slot(kind='fixed', modulus=2), "
        "Slot(kind='fixed', modulus=2)))), exceptional=GroupSet({}))")
    # the memos key on these hashes
    assert hash(FREE) == hash(("free", 0))
    for family in BUILTIN_FAMILIES.values():
        for pattern in family.rows:
            assert hash(pattern) == hash((pattern.slots,))
    pattern = A1.patterns[1]
    for value, attr in ((FREE, "kind"), (pattern, "slots"),
                        (pattern, "params"), (A1, "name")):
        with pytest.raises(AttributeError):
            setattr(value, attr, getattr(value, attr))
    for value in (fixed(4), pattern, CLAIMS["thm-main"](32)):
        assert pickle.loads(pickle.dumps(value)) == value


def test_matches_examples():
    even_square = FamilyPattern((EVEN, fixed(2), fixed(2)))
    assert matches(parse_group("Z/10 x Z/2^2"), even_square)
    quintic = parse_group("Z/4^5")
    assert all(not matches(quintic, pat) for pat in PA4P.patterns)
    assert matches(parse_group("Z/4^4 x Z/2^2"), PA4P.patterns[7])


def test_matches_requires_all_parts_consumed():
    row = FamilyPattern((FREE, FREE))
    assert matches(parse_group("Z/6 x Z/4"), row)
    assert not matches(parse_group("Z/2 x Z/2 x Z/2"), row)
    assert matches(TRIVIAL, row)
    assert not matches(parse_group("Z/9"), FamilyPattern((TRIPLE, fixed(3))))
    assert matches(parse_group("Z/9 x Z/3"), FamilyPattern((TRIPLE, fixed(3))))


def test_matches_cross_prime_slot_sharing():
    # a single Z/k slot carries one part of every prime at once
    row = FamilyPattern((FREE,))
    assert matches(parse_group("Z/6"), row)
    assert not matches(parse_group("Z/6 x Z/2"), row)


def test_family_contains_examples():
    assert family_contains(parse_group("Z/3^3"), A2)
    assert family_contains(parse_group("Z/3^6"), PA4P)
    assert family_contains(parse_group("Z/4^5"), PB4P)
    assert not family_contains(parse_group("Z/4^5"), PA4P)


def test_get_family():
    assert get_family("A1") is A1
    assert get_family("B2xB2") is get_family("A2xA2")
    assert set(BUILTIN_FAMILIES) == {"A1", "A2", "A3p", "B3p", "PA4p", "PB4p",
                                     "A2xA2", "A1xA3p", "B2xB2", "B1xB3p"}
    with pytest.raises(KeyError) as info:
        get_family("A9")
    # also a ValueError, which the CLI reports as a usage error
    assert isinstance(info.value, ValueError)


def test_family_hash_is_by_value():
    rebuilt = Family("A2", tuple(FamilyPattern(tuple(pat.slots))
                                 for pat in A2.patterns))
    assert rebuilt is not A2 and rebuilt == A2 and hash(rebuilt) == hash(A2)
    pattern = FamilyPattern((EVEN, fixed(2), fixed(2)))
    twin = FamilyPattern((EVEN, fixed(2), fixed(2)))
    assert pattern is not twin and pattern == twin
    assert hash(pattern) == hash(twin)
    for text in ("Z/3^3", "Z/4^2 x Z/2", "Z/10 x Z/2^2", "Z/2^5"):
        g = parse_group(text)
        assert family_contains(g, rebuilt) == family_contains(g, A2)
        assert matches(g, pattern) == matches(g, twin)
    assert family_product(A2, A2) == get_family("A2xA2")
    assert hash(family_product(A2, A2)) == hash(get_family("A2xA2"))
    # each class defines __hash__ in its own __dict__, where the per-layer
    # tracer wraps it: Family by name, FamilyPattern as tuple.__hash__
    assert "__hash__" in Family.__dict__
    assert "__hash__" in FamilyPattern.__dict__


def test_cached_hash_survives_pickling_across_processes():
    # string hashes are salted per process, so no hash may travel inside
    # a pickle
    code = ("import pickle, sys; from abext.families import A2; "
            "sys.stdout.buffer.write(pickle.dumps(A2))")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(sys.path))
    payload = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, check=True).stdout
    loaded = pickle.loads(payload)
    assert loaded == A2 and hash(loaded) == hash(A2)
    assert hash(loaded.patterns[0]) == hash(A2.patterns[0])


def test_family_product_low_rank():
    prod = family_product(A1, A1)
    assert len(prod.patterns) == 3
    slot_sets = {p.slots for p in prod.patterns}
    assert (FREE, FREE) in slot_sets
    assert (FREE, fixed(2), fixed(2)) in slot_sets
    assert (fixed(2),) * 4 in slot_sets


def test_family_product_unordered_pairs():
    assert len(family_product(A2, A2).patterns) == 15


def test_family_product_lifts_exceptionals():
    spor = Family("S", (), GroupSet([parse_group("Z/4^4")]))
    prod = family_product(A1, spor)
    assert family_contains(parse_group("Z/5 x Z/4^4"), prod)
    assert family_contains(parse_group("Z/4^4"), prod)
    assert not family_contains(parse_group("Z/4^3 x Z/2"), prod)
    assert not prod.exceptional


def test_exceptional_groups_are_rows():
    z44 = parse_group("Z/4^4")
    spor = Family("S", (), GroupSet([z44]))
    assert [str(g) for g in all_abelian_groups_upto(256)
            if family_contains(g, spor)] == ["Z/4^4"]
    assert enumerate_family(spor, 256) == GroupSet([z44])
    assert enumerate_family(spor, 255) == GroupSet()


def test_enumerate_a1():
    members = enumerate_family(A1, 8)
    assert {str(g) for g in members} == {
        "1", "Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "Z/7", "Z/8", "Z/2^2"}


def test_enumerate_a2():
    members = enumerate_family(A2, 4)
    assert {str(g) for g in members} == {"1", "Z/2", "Z/3", "Z/4", "Z/2^2"}


def test_enumerate_round_trip():
    for family in (A1, A2, A3P, B3P):
        for g in enumerate_family(family, 24):
            assert family_contains(g, family), (str(g), family.name)


def test_enumerate_monotone():
    small = enumerate_family(A3P, 16)
    large = enumerate_family(A3P, 48)
    assert small <= large


def test_enumerate_rejects_bad_bound():
    with pytest.raises(ValueError):
        enumerate_family(A1, 0)


_LIMIT_MESSAGE = ("family enumeration exceeded the limit of 1000000 "
                  "group types")


def test_enumerate_resource_limit(monkeypatch):
    from abext.extensions import ResourceLimitError
    monkeypatch.setattr(families, "MAX_ENUMERATION_BOUND", 100)
    assert enumerate_family(A3P, 100)
    with pytest.raises(ResourceLimitError) as info:
        enumerate_family(A3P, 101)
    assert str(info.value) == _LIMIT_MESSAGE


def _type_counts(bound):
    """[a(0), ..., a(bound)]: a(n) group types of order n, the product of
    P(e) over the prime powers p^e of n (P counts partitions), a(0) = 0.
    Takes each n's smallest prime factor from a sieve.
    """
    P = [1] + [0] * bound.bit_length()
    for part in range(1, len(P)):
        for e in range(part, len(P)):
            P[e] += P[e - part]
    spf = list(range(bound + 1))
    for p in range(2, isqrt(bound) + 1):
        if spf[p] == p:
            for q in range(p * p, bound + 1, p):
                if spf[q] == q:
                    spf[q] = p
    a = [0, 1] + [0] * (bound - 1)
    for n in range(2, bound + 1):
        p, m, e = spf[n], n // spf[n], 1
        while m % p == 0:
            m, e = m // p, e + 1
        a[n] = a[m] * P[e]
    return a


def test_enumeration_bound_is_the_last_within_the_type_limit():
    last = families.MAX_ENUMERATION_BOUND
    windows = list(accumulate(_type_counts(last + 1)))
    # _group_types(x) walks the orders 1 .. x in turn, so a running count
    # over one walk to 2000 gives its length at every x
    per_order = Counter(prod(p ** sum(parts) for p, parts in types.items())
                        for types in families._group_types(2000))
    walked = 0
    for x in range(1, 2001):
        walked += per_order[x]
        assert windows[x] == walked, x
    for x in (1, 17, 256, 2000):
        assert windows[x] == sum(1 for _ in families._group_types(x)), x
    assert windows[last] == 999_999 <= families.MAX_ENUMERATION
    assert windows[last + 1] == 1_000_004 > families.MAX_ENUMERATION


def test_enumeration_bound_is_checked_before_the_walk(monkeypatch):
    from abext.extensions import ResourceLimitError
    walks = []
    monkeypatch.setattr(families, "_group_types",
                        lambda bound: walks.append(bound) or iter(()))
    last = families.MAX_ENUMERATION_BOUND
    assert enumerate_family(A1, last) == GroupSet()
    with pytest.raises(ResourceLimitError) as info:
        enumerate_family(A1, last + 1)
    assert str(info.value) == _LIMIT_MESSAGE
    assert walks == [last]


def test_a2_without_low_products_is_two_sporadics():
    low = family_product(A1, A1)
    leftovers32 = {str(g) for g in enumerate_family(A2, 32)
                   if not family_contains(g, low)}
    assert leftovers32 == {"Z/4^2 x Z/2", "Z/3^3"}
    leftovers27 = {str(g) for g in enumerate_family(A2, 27)
                   if not family_contains(g, low)}
    assert leftovers27 == {"Z/3^3"}


def test_product_family_matches_three_dim_table():
    prod = family_product(A1, A2)
    assert enumerate_family(prod, 128) == enumerate_family(A3P, 128)


def test_two_dim_table_contains_low_products():
    low = family_product(A1, A1)
    for bound in (16, 64):
        assert enumerate_family(low, bound) <= enumerate_family(A2, bound)


def test_pattern_round_trip_all_rows():
    for family in (A1, A2, A3P, B3P, PA4P, PB4P):
        for pat in family.patterns:
            free_slots = sum(1 for s in pat.slots if s.kind != "fixed")
            for base in (1, 2, 3):
                values = [base + i for i in range(free_slots)]
                g = instantiate_pattern(pat, values)
                assert matches(g, pat), (family.name, pat, values)
                assert family_contains(g, family)


def test_matches_agrees_with_naive_search():
    # every pattern of every built-in family (104 rows of nine families,
    # 57 distinct patterns) against every group of order up to 128
    patterns = list(dict.fromkeys(
        pat for fam in BUILTIN_FAMILIES.values() for pat in fam.patterns))
    assert len(patterns) == 57
    for g in all_abelian_groups_upto(128):
        for pat in patterns:
            assert matches(g, pat) == naive_matches(g, pat), (str(g), pat)


def test_family_contains_agrees_with_naive_search():
    for g in all_abelian_groups_upto(128):
        for family in BUILTIN_FAMILIES.values():
            expected = any(naive_matches(g, pat) for pat in family.patterns)
            assert family_contains(g, family) == expected, \
                (str(g), family.name)


@pytest.mark.parametrize("p", [5, 7, 11, 101])
def test_row_mask_at_a_prime_outside_the_rows(p):
    # no row fixes or demands a part at p, so row i admits exactly the
    # p-types with at most rows[i].params parts; row_mask answers every
    # such p from one class
    for family in BUILTIN_FAMILIES.values():
        if p in family.primes:
            continue
        for parts in partitions_upto(6):
            assert row_mask(family, p, parts) == sum(
                1 << i for i, row in enumerate(family.rows)
                if len(parts) <= row.params), (family.name, parts)


def test_enumeration_matches_membership_on_universe():
    # bounded enumeration and the brute-force matcher must agree on every
    # abelian group in the window
    sporadic = Family("S", (), GroupSet([parse_group("Z/4^2 x Z/2")]))
    empty = Family("E", ())
    for family in (A1, A2, A3P, B3P, PA4P, PB4P, A2xA2, A1xA3P, B1xB3P,
                   sporadic, empty):
        members = enumerate_family(family, 48)
        for g in all_abelian_groups_upto(48):
            assert (g in members) == naive_member(g, family), \
                (family.name, str(g))


def test_instantiate_pattern_checks_its_values():
    pat = FamilyPattern((FREE, EVEN, fixed(3)))
    assert str(instantiate_pattern(pat, [5, 2])) == "Z/60"
    with pytest.raises(ValueError, match="takes 2 parameter values, got 1"):
        instantiate_pattern(pat, [2])
    with pytest.raises(ValueError, match="takes 2 parameter values, got 3"):
        instantiate_pattern(pat, [1, 2, 3])
    with pytest.raises(ValueError, match="parameters must be >= 1"):
        instantiate_pattern(pat, [1, 0])
    # True and 2.0 would stand for 1 and 2
    for values in ([True], [2.0]):
        with pytest.raises(ValueError, match="of type int"):
            instantiate_pattern(FamilyPattern((FREE,)), values)


def test_render_pattern():
    text, cons = render_pattern(A3P.patterns[1])
    assert text == "Z/2k x Z/4^2 x Z/2"
    assert cons == ("k >= 1",)
    text, cons = render_pattern(PA4P.patterns[0], ("n", "k", "l", "m"))
    assert text == "Z/n x Z/k x Z/l x Z/m"
    assert cons == ("n >= 1", "k >= 1", "l >= 1", "m >= 1")
    text, cons = render_pattern(B3P.patterns[8])
    assert text == "Z/8^2 x Z/4 x Z/2"
    assert cons == ()
    with pytest.raises(IndexError):
        render_pattern(PA4P.patterns[0])
