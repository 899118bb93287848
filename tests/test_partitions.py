import pytest
from hypothesis import given
from hypothesis import strategies as st

from abext.partitions import (componentwise_sum, conjugate, contains,
                              format_partition, make_partition,
                              parse_partition, partitions_of, size, sort_key,
                              union_merge)

from oracles import partitions_of as naive_partitions_of

partitions = st.lists(st.integers(min_value=0, max_value=6), max_size=5).map(
    make_partition)


def test_make_partition_canonicalizes():
    for raw, expected in [([1, 2, 0, 2], (2, 2, 1)), ([], ()),
                          ([3, 3, 2, 1], (3, 3, 2, 1)),
                          ((1, 2, 2), (2, 2, 1)), ((2, 0, 1), (2, 1)),
                          ((0,), ())]:
        canon = make_partition(raw)
        assert type(canon) is tuple and canon == expected
        assert canon is not raw


def test_make_partition_returns_a_canonical_tuple_itself():
    for raw in [(3, 3, 2, 1), (1,), ()]:
        assert make_partition(raw) is raw


def _assert_rejected(raw):
    with pytest.raises(ValueError) as info:
        make_partition(raw)
    assert str(info.value) == ("partition entries must be nonnegative "
                               f"integers, got {list(raw)!r}")


def test_make_partition_rejects_negative():
    for raw in ([2, -1], (2, -1), (-1,)):
        _assert_rejected(raw)


def test_make_partition_rejects_bools():
    # True == 1, but a bool is not a part
    for raw in ([True, 2], [False], [2, 1, True], (2, True), (True,)):
        _assert_rejected(raw)


def test_make_partition_rejects_floats():
    for raw in ([1.5], (2.0, 1), (1.0,)):
        _assert_rejected(raw)


def test_partitions_of_is_an_immutable_tuple_in_oracle_order():
    # the memo hands every caller the same object, so it must not be a list
    for n in range(10):
        for top in (None, *range(1, n + 2)):
            got = partitions_of(n, top)
            assert type(got) is tuple
            assert got == tuple(naive_partitions_of(n, top))


def test_size():
    assert size((2, 2, 1)) == 5
    assert size(()) == 0
    assert size((3, 3, 2, 1)) == 9


def test_contains():
    assert contains((3, 2, 1), (2, 2))
    assert not contains((2, 2), (3,))
    assert contains((2, 2, 2, 2, 2), (2, 2, 1))
    assert contains((), ())
    assert not contains((), (1,))


def test_union_merge():
    assert union_merge((2, 1), (1, 1)) == (2, 1, 1, 1)
    assert union_merge((), (3,)) == (3,)
    assert union_merge((2, 2, 1), (2, 2, 1)) == (2, 2, 2, 2, 1, 1)


def test_componentwise_sum():
    assert componentwise_sum((2, 1), (1, 1)) == (3, 2)
    assert componentwise_sum((), (1, 1)) == (1, 1)
    assert componentwise_sum((2, 2, 1), (2, 2, 1)) == (4, 4, 2)


def test_parse_format_round_trip():
    for text, expected in [("[3,3,2,1]", (3, 3, 2, 1)), ("[]", ()),
                           ("[ 2, 1 ]", (2, 1))]:
        assert parse_partition(text) == expected
    assert format_partition((3, 3, 2, 1)) == "[3,3,2,1]"
    assert format_partition(()) == "[]"
    assert parse_partition(format_partition((4, 2, 1))) == (4, 2, 1)


def test_parse_rejects_junk():
    for bad in ["3,2", "[3;2]", "[a]", "(3,2)"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


def test_conjugate():
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
    assert conjugate(()) == ()


def test_sort_key_order():
    ordering = sorted([(3, 1, 1), (3, 2), (2, 2, 1), (2, 2)], key=sort_key)
    assert ordering == [(3, 2), (3, 1, 1), (2, 2), (2, 2, 1)]


@given(partitions)
def test_make_partition_idempotent(p):
    assert make_partition(p) == p


@given(partitions, partitions)
def test_contains_antisymmetric(a, b):
    if contains(a, b) and contains(b, a):
        assert a == b


@given(partitions, partitions)
def test_size_additive(a, b):
    assert size(union_merge(a, b)) == size(a) + size(b)
    assert size(componentwise_sum(a, b)) == size(a) + size(b)


@given(partitions, partitions)
def test_merge_and_sum_commute(a, b):
    assert union_merge(a, b) == union_merge(b, a)
    assert componentwise_sum(a, b) == componentwise_sum(b, a)


@given(partitions, partitions, partitions)
def test_merge_and_sum_associative(a, b, c):
    assert union_merge(union_merge(a, b), c) == union_merge(a, union_merge(b, c))
    assert componentwise_sum(componentwise_sum(a, b), c) == \
        componentwise_sum(a, componentwise_sum(b, c))


@given(partitions)
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
