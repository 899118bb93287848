import itertools
import random

import pytest

from abext import extensions
from abext.extensions import (GroupSet, ResourceLimitError,
                              _subgroup_masks, brute_force_is_extension,
                              extension_set, is_extension, set_extension,
                              set_product, subgroup_quotient_types)
from abext.families import A1, enumerate_family
from abext.groups import AbelianGroup, TRIVIAL, parse_group
from abext.lr import lr_support
from abext.partitions import componentwise_sum
from abext.verify import CLAIMS

from oracles import (all_abelian_groups_upto, naive_subgroup_quotient_types,
                     naive_subgroups, partitions_of, partitions_upto,
                     random_group)


def gs(*texts):
    return GroupSet(parse_group(t) for t in texts)


def test_is_extension_examples():
    assert is_extension(parse_group("Z/8 x Z/4"), parse_group("Z/4 x Z/2"),
                        parse_group("Z/2^2"))
    assert is_extension(parse_group("Z/4^5"), parse_group("Z/4^2 x Z/2"),
                        parse_group("Z/4^2 x Z/2"))
    for text in ["1", "Z/6", "Z/4^2 x Z/2"]:
        g = parse_group(text)
        assert is_extension(g, g, TRIVIAL)
        assert is_extension(g, TRIVIAL, g)


def test_extension_set_worked_example():
    result = extension_set(parse_group("Z/4 x Z/2"), parse_group("Z/2^2"))
    assert result == gs("Z/8 x Z/4", "Z/8 x Z/2^2", "Z/4^2 x Z/2",
                        "Z/4 x Z/2^3")


def test_extension_set_identity():
    for text in ["Z/12", "Z/4 x Z/2", "Z/9 x Z/3"]:
        h = parse_group(text)
        assert extension_set(h, TRIVIAL) == GroupSet([h])
        assert extension_set(TRIVIAL, h) == GroupSet([h])


def test_extension_set_elementary_cube():
    result = extension_set(parse_group("Z/3^3"), parse_group("Z/3^3"))
    assert result == gs("Z/3^6", "Z/9 x Z/3^4", "Z/9^2 x Z/3^2", "Z/9^3")


def test_extension_set_multi_prime():
    h = parse_group("Z/6")
    k = parse_group("Z/2")
    assert extension_set(h, k) == gs("Z/12", "Z/6 x Z/2")


def test_extension_set_shares_the_memoized_supports():
    # each group holds the tuples lr_support returned, not copies of them
    h = parse_group("Z/6^20")
    supports = {p: lr_support(h.p_part(p), h.p_part(p)) for p in (2, 3)}
    result = extension_set(h, h)
    assert len(result) == 21 ** 2
    for g in result:
        for p, support in supports.items():
            assert any(g.p_part(p) is mu for mu in support)


def test_extension_set_budget(monkeypatch):
    # Z/2^400 by itself has 401 extensions: the budget admits exactly that
    # many, and one fewer refuses them all
    h = parse_group("Z/2^400")
    monkeypatch.setattr(extensions, "MAX_EXTENSIONS", 401)
    assert len(extension_set(h, h)) == 401
    monkeypatch.setattr(extensions, "MAX_EXTENSIONS", 400)
    with pytest.raises(ResourceLimitError) as info:
        extension_set(h, h)
    assert str(info.value) == "401 extensions exceed the limit of 400"


def test_set_product():
    assert set_product(gs("Z/2"), gs("Z/3")) == gs("Z/6")
    b = gs("Z/4", "Z/2^2")
    assert set_product(gs("1"), b) == b
    assert set_product(gs("Z/3^3"), gs("Z/3^3")) == gs("Z/3^6")


def test_set_extension():
    assert set_extension(gs("Z/4 x Z/2"), gs("Z/2^2")) == gs(
        "Z/8 x Z/4", "Z/8 x Z/2^2", "Z/4^2 x Z/2", "Z/4 x Z/2^3")
    quartic = gs("Z/2^4")
    expected_types = {(2, 2, 2, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1),
                      (2, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)}
    assert {g.p_part(2) for g in set_extension(quartic, quartic)} == \
        expected_types


def test_set_operations_reject_empty():
    with pytest.raises(ValueError):
        set_product(GroupSet(), gs("Z/2"))
    with pytest.raises(ValueError):
        set_extension(gs("Z/2"), GroupSet())


def test_products_are_extensions():
    rng = random.Random(5)
    for _ in range(50):
        h = random_group(rng)
        k = random_group(rng)
        assert set_product(GroupSet([h]), GroupSet([k])) <= \
            set_extension(GroupSet([h]), GroupSet([k]))


def test_extension_set_laws_random():
    rng = random.Random(17)
    for _ in range(100):
        h = random_group(rng, max_size=3)
        k = random_group(rng, max_size=3)
        members = extension_set(h, k)
        assert h.direct_product(k) in members
        summed = AbelianGroup({
            p: componentwise_sum(h.p_part(p), k.p_part(p))
            for p in set(h.primes) | set(k.primes)})
        assert summed in members
        for g in members:
            assert g.order() == h.order() * k.order()
            for p in g.primes:
                assert max(len(h.p_part(p)), len(k.p_part(p))) \
                    <= len(g.p_part(p)) \
                    <= len(h.p_part(p)) + len(k.p_part(p))


def test_is_extension_symmetric_small():
    groups = [AbelianGroup({2: t} if t else {}) for t in partitions_upto(4)]
    for g in groups:
        for h in groups:
            for k in groups:
                assert is_extension(g, h, k) == is_extension(g, k, h)


def test_brute_force_examples():
    assert brute_force_is_extension(parse_group("Z/8 x Z/2^2"),
                                    parse_group("Z/4 x Z/2"),
                                    parse_group("Z/2^2"))
    assert not brute_force_is_extension(parse_group("Z/16"),
                                        parse_group("Z/4 x Z/2"),
                                        parse_group("Z/2^2"))
    assert brute_force_is_extension(parse_group("Z/12"), parse_group("Z/6"),
                                    parse_group("Z/2"))


def test_brute_force_bound():
    big = parse_group("Z/4^5")
    with pytest.raises(ResourceLimitError):
        brute_force_is_extension(big, parse_group("Z/4^2 x Z/2"),
                                 parse_group("Z/4^2 x Z/2"), oracle_bound=512)


def test_subgroup_quotient_types_trivial_and_cyclic():
    assert subgroup_quotient_types(2, ()) == frozenset({((), ())})
    # Z/4 has exactly the chain of subgroups 1 < Z/2 < Z/4
    assert subgroup_quotient_types(2, (2,)) == frozenset({
        ((), (2,)), ((1,), (1,)), ((2,), ())})


def test_subgroup_quotient_types_klein():
    # Z/2 x Z/2: three subgroups of order 2, quotient always Z/2
    assert subgroup_quotient_types(2, (1, 1)) == frozenset({
        ((), (1, 1)), ((1,), (1,)), ((1, 1), ())})


def test_subgroup_masks_of_elementary_2_groups():
    # the number of subspaces of GF(2)^n, each visited once
    for n, count in enumerate([1, 2, 5, 16, 67, 374, 2825, 29212]):
        masks = list(_subgroup_masks(2, (1,) * n, 2 ** n))
        assert len(masks) == count
        assert len(set(masks)) == count


def _p_types(bounds):
    for p, bound in bounds.items():
        n = 0
        while p ** n <= bound:
            for parts in partitions_of(n):
                yield p, parts
            n += 1


# every p-type the perfbench oracle workload draws
@pytest.mark.parametrize("p, parts",
                         list(_p_types({2: 128, 3: 243, 5: 125, 7: 49})),
                         ids=str)
def test_subgroup_enumeration_matches_breadth_first_search(p, parts):
    masks = list(_subgroup_masks(p, parts, p ** sum(parts)))
    assert len(set(masks)) == len(masks)
    assert set(masks) == naive_subgroups(p, parts)
    assert subgroup_quotient_types(p, parts) == \
        naive_subgroup_quotient_types(p, parts)


@pytest.mark.parametrize("p, parts",
                         list(_p_types({2: 64, 3: 81, 5: 125, 7: 49})),
                         ids=str)
def test_order_limit_keeps_exactly_the_lower_subgroups(p, parts):
    limit = p ** (sum(parts) // 2)
    masks = list(_subgroup_masks(p, parts, limit))
    assert len(set(masks)) == len(masks)
    assert set(masks) == {s for s in naive_subgroups(p, parts)
                          if s.bit_count() <= limit}


@pytest.mark.parametrize("p, parts",
                         list(_p_types({2: 64, 3: 81, 5: 125, 7: 49})),
                         ids=str)
def test_subgroup_quotient_types_are_closed_under_swap(p, parts):
    # duality: the pairs of all subgroups (the breadth-first search's) are
    # closed under swap, and so are the mirrored pairs of the lower half
    for pairs in (naive_subgroup_quotient_types(p, parts),
                  subgroup_quotient_types(p, parts)):
        assert {(q, s) for s, q in pairs} == pairs


def test_subgroup_enumeration_stops_at_the_cap(monkeypatch):
    # (Z/2)^3 has 16 subgroups
    monkeypatch.setattr(extensions, "MAX_SUBGROUPS", 16)
    assert len(list(_subgroup_masks(2, (1, 1, 1), 8))) == 16
    monkeypatch.setattr(extensions, "MAX_SUBGROUPS", 15)
    with pytest.raises(ResourceLimitError, match="more than 15 subgroups"):
        list(_subgroup_masks(2, (1, 1, 1), 8))


def test_oracle_agreement_small():
    types2 = list(partitions_upto(4))
    groups = [AbelianGroup({2: t} if t else {}) for t in types2]
    for g in groups:
        for h in groups:
            for k in groups:
                assert is_extension(g, h, k) == brute_force_is_extension(g, h, k)
    types3 = list(partitions_upto(3))
    groups = [AbelianGroup({3: t} if t else {}) for t in types3]
    for g in groups:
        for h in groups:
            for k in groups:
                assert is_extension(g, h, k) == brute_force_is_extension(g, h, k)


def test_extension_set_matches_oracle_on_p_groups():
    # every pair of p-group types with at most 6 boxes in all at p = 2 and
    # 4 at p = 3: the whole extension set, not one g at a time
    for p, boxes in ((2, 6), (3, 4)):
        for total in range(boxes + 1):
            candidates = [AbelianGroup({p: t}) for t in partitions_of(total)]
            for lam, nu in itertools.product(partitions_upto(total), repeat=2):
                if sum(lam) + sum(nu) != total:
                    continue
                h, k = AbelianGroup({p: lam}), AbelianGroup({p: nu})
                expected = {g for g in candidates
                            if brute_force_is_extension(g, h, k)}
                assert extension_set(h, k) == expected, (h, k)


def test_extension_set_matches_oracle_on_mixed_primes():
    rng = random.Random(31)
    pairs = [(random_group(rng, primes=(2, 3), max_size=2),
              random_group(rng, primes=(2, 3), max_size=2))
             for _ in range(30)]
    universe = list(all_abelian_groups_upto(
        max(h.order() * k.order() for h, k in pairs)))
    for h, k in pairs:
        expected = {g for g in universe
                    if g.order() == h.order() * k.order()
                    and brute_force_is_extension(g, h, k)}
        assert extension_set(h, k) == expected, (h, k)


def test_oracle_agreement_mixed_primes():
    rng = random.Random(29)
    for _ in range(60):
        g = random_group(rng, primes=(2, 3), max_size=3)
        h = random_group(rng, primes=(2, 3), max_size=2)
        k = random_group(rng, primes=(2, 3), max_size=2)
        assert is_extension(g, h, k) == brute_force_is_extension(g, h, k)


def test_set_extension_associative_random_singletons():
    rng = random.Random(23)
    for _ in range(30):
        a = GroupSet([AbelianGroup({2: random_partition_nonempty(rng)})])
        b = GroupSet([AbelianGroup({2: random_partition_nonempty(rng)})])
        c = GroupSet([AbelianGroup({2: random_partition_nonempty(rng)})])
        left = set_extension(set_extension(a, b), c)
        right = set_extension(a, set_extension(b, c))
        assert left == right


def random_partition_nonempty(rng):
    total = rng.randint(1, 3)
    parts = []
    while total:
        part = rng.randint(1, total)
        parts.append(part)
        total -= part
    return tuple(sorted(parts, reverse=True))


def test_group_set_iteration_order():
    s = gs("Z/8", "1", "Z/2^3", "Z/6")
    assert [str(g) for g in s] == ["1", "Z/6", "Z/2^3", "Z/8"]
    assert len(s) == 4
    assert parse_group("Z/6") in s


def test_group_set_results_keep_their_type_and_order():
    # set operators return plain frozensets, so each public function must
    # wrap its result to iterate in order
    results = [
        extension_set(parse_group("Z/4 x Z/2"), parse_group("Z/6")),
        set_product(gs("Z/4", "Z/3"), gs("Z/2", "Z/9")),
        set_extension(gs("Z/4", "Z/3"), gs("Z/2", "Z/9")),
        enumerate_family(A1, 64),
        CLAIMS["prop-product-types"](32).witnesses,
    ]
    for result in results:
        assert type(result) is GroupSet
        assert len(result) > 1
        assert list(result) == sorted(frozenset(result),
                                      key=AbelianGroup.sort_key)
