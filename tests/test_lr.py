import itertools
import time
from functools import partial
from math import comb

import pytest

from abext import lr
from abext.errors import ResourceLimitError
from abext.lr import lr_coefficient, lr_expand, lr_positive, lr_support
from abext.partitions import (componentwise_sum, contains, size, sort_key,
                              union_merge)

from oracles import (horizontal_strip_expand, naive_lr, partitions_of,
                     partitions_upto, syt_count)


def test_worked_product_example():
    assert lr_expand((2, 1), (1, 1)) == {
        (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1, (2, 1, 1, 1): 1}


def test_coefficient_examples():
    assert lr_coefficient((2, 1), (1, 1), (3, 2)) == 1
    assert lr_coefficient((2, 1), (1, 1), (2, 2)) == 0
    # the classic smallest multiplicity-2 instance
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == \
        naive_lr((2, 1), (2, 1), (3, 2, 1))


def test_positivity_examples():
    assert lr_positive((2, 2, 1), (2, 2, 1), (2, 2, 2, 2, 2))
    assert not lr_positive((1, 1), (2, 2, 2, 2), (3, 3, 3))
    for nu in [(), (3,), (2, 1), (4, 2, 2)]:
        assert lr_positive((), nu, nu)


def test_expansions_come_in_sort_key_order():
    small = list(partitions_upto(6))
    for lam in small:
        for nu in small:
            shapes = list(lr_expand(lam, nu))
            assert shapes == sorted(shapes, key=sort_key), (lam, nu)


def test_empty_product():
    assert lr_expand((), ()) == {(): 1}
    assert lr_expand((), (2, 1)) == {(2, 1): 1}


def test_column_products():
    assert set(lr_expand((1, 1, 1), (1, 1, 1))) == {
        (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)}


def _pairs_upto(total):
    """Every pair of partitions whose sizes sum to at most total."""
    for n in range(total + 1):
        for m in range(n + 1):
            for lam in partitions_of(m):
                for nu in partitions_of(n - m):
                    yield lam, nu


def _naive_expansion(lam, nu):
    """lam . nu by oracles.naive_lr, in sort_key order; in the orientation
    with fewer skew cells, as the oracle is slow."""
    inner, content = (lam, nu) if size(nu) <= size(lam) else (nu, lam)
    return {mu: c for mu in partitions_of(size(lam) + size(nu))
            if (c := naive_lr(inner, content, mu))}


def test_agrees_with_naive_enumeration():
    for lam, nu in _pairs_upto(7):
        expansion = lr_expand(lam, nu)
        # a support shape counted 0 would pass the dimension identity
        assert all(c >= 1 for c in expansion.values()), (lam, nu)
        assert expansion == _naive_expansion(lam, nu), (lam, nu)


def test_symmetry_exhaustive():
    pairs = [(lam, nu) for lam in partitions_upto(8) for nu in partitions_upto(8)
             if size(lam) + size(nu) <= 8]
    for lam, nu in pairs:
        assert lr_expand(lam, nu) == lr_expand(nu, lam), (lam, nu)


def test_support_bounds():
    for lam in partitions_upto(4):
        for nu in partitions_upto(4):
            for mu in lr_expand(lam, nu):
                assert contains(mu, lam) and contains(mu, nu)
                assert max(len(lam), len(nu)) <= len(mu) <= len(lam) + len(nu)
                assert size(mu) == size(lam) + size(nu)


def test_extreme_terms_have_multiplicity_one():
    for lam in partitions_upto(4):
        for nu in partitions_upto(4):
            expansion = lr_expand(lam, nu)
            assert expansion[union_merge(lam, nu)] == 1
            assert expansion[componentwise_sum(lam, nu)] == 1


def test_row_products_match_horizontal_strips():
    for lam in partitions_upto(5):
        for k in range(5):
            expansion = lr_expand(lam, (k,) if k else ())
            assert set(expansion) == horizontal_strip_expand(lam, k)
            assert all(c == 1 for c in expansion.values())


def test_dimension_identity():
    # sum of c * syt(mu) must equal syt(lam) * syt(nu) * C(n, |lam|)
    for lam in partitions_upto(8):
        for nu in partitions_upto(8 - size(lam)):
            n = size(lam) + size(nu)
            lhs = sum(c * syt_count(mu) for mu, c in lr_expand(lam, nu).items())
            rhs = syt_count(lam) * syt_count(nu) * comb(n, size(lam))
            assert lhs == rhs, (lam, nu)


def test_coefficient_nonnegative_on_mismatched_shapes():
    assert lr_coefficient((3,), (1,), (2, 1, 1)) == 0
    assert lr_coefficient((3,), (1,), (5,)) == 0
    assert lr_coefficient((1,), (1,), (1, 1, 1)) == 0


@pytest.mark.parametrize("call, args", [
    (lr_expand, ((1, 2), (2, 2, 1))),
    (lr_positive, ((0, 1), (1,), (1, 1))),
    (lr_coefficient, ((1, 3), (1,), (2, 3))),
    (lr_expand, ((2,), (1, -1))),
    (lr_coefficient, ((2,), (-1,), (1,))),
    (lr_coefficient, ([2, 1], (1,), (3, 1))),
    (lr_support, ((1, 2), (1,))),
    (lr_support, ((2,), (1, 0))),
    (lr_support, ((1.5,), (1,))),
    (lr_support, ((2,), ("1",))),
    (lr_support, ((True,), (1,))),
    (lr_positive, ((2.0,), (1,), (3,))),
    (lr_positive, ([1], (1,), (2,))),
    (lr_support, ([2, 1], (1,))),
    (lr_expand, ((1,), [2, 1])),
], ids=["unsorted", "zero-entry", "unsorted-lambda", "negative-expand",
        "negative-coefficient", "list", "unsorted-support",
        "zero-entry-support", "float-support", "str-support", "bool-support",
        "float-positive", "list-positive", "list-support", "list-expand"])
def test_entry_points_reject_non_partitions(call, args):
    with pytest.raises(ValueError):
        call(*args)


def test_support_checks_keys_equal_to_memoized_ones():
    # (2.0,) == (2,) and hashes alike, so a memo consulted before the
    # checks would answer it
    assert lr_support((2,), (1,)) == ((3,), (2, 1))
    with pytest.raises(ValueError):
        lr_support((2.0,), (1,))
    with pytest.raises(ValueError):
        lr_expand((2.0,), (1,))


TALL_PAIRS = [
    ((1,) * 12, (2,)), ((2, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1)),
    ((3, 2, 2, 1, 1, 1, 1), (2, 1, 1, 1, 1)),
    ((1, 1, 1), (2, 2, 1, 1, 1, 1))]


def _positive_shapes(lam, nu):
    """The support by the filling search alone, in sort_key order."""
    return tuple(mu for mu in partitions_of(size(lam) + size(nu))
                 if lr_positive(lam, nu, mu))


def test_support_matches_expansion():
    # against the filling search, which shares no code with the traversal,
    # in both argument orders, as the traversal swaps them to add the
    # operand with fewer rows (of the transposes, for a tall product)
    small = list(partitions_upto(5))
    pairs = [(lam, nu) for lam in small for nu in small]
    for lam, nu in pairs + list(_pairs_upto(8)) + TALL_PAIRS:
        shapes = _positive_shapes(lam, nu)
        assert lr_support(lam, nu) == shapes == lr_support(nu, lam), (lam, nu)


def test_support_against_naive_coefficients():
    for lam, nu in _pairs_upto(6):
        assert lr_support(lam, nu) == tuple(_naive_expansion(lam, nu)), \
            (lam, nu)


def test_support_on_conjugates():
    # taller than wide: the traversal runs on the conjugates.  The tall
    # pairs are checked against the filling search above; a product of two
    # columns of k cells has the closed form (2^j, 1^(2k-2j)), j = k .. 0.
    for lam, nu in TALL_PAIRS:
        assert len(lam) + len(nu) > lam[0] + nu[0]
    for k in range(2, 41):
        assert lr_support((1,) * k, (1,) * k) == tuple(
            (2,) * j + (1,) * (2 * k - 2 * j) for j in range(k, -1, -1)), k


def test_tall_support_is_fast():
    start = time.perf_counter()
    support = lr_support((1,) * 200, (1,) * 200)
    assert time.perf_counter() - start < 1
    assert support == tuple((2,) * j + (1,) * (400 - 2 * j)
                            for j in range(200, -1, -1))


@pytest.mark.parametrize("lam, nu, mu, message", [
    ((1,) * 3000, (1,), None,
     "shapes of 3001 rows exceed the LR depth limit 900"),
    ((1,), (100000000,), (100000001,),
     "fillings of 100000000 cells exceed the LR depth limit 900"),
], ids=["rows", "cells"])
def test_support_refuses_what_the_searches_refuse(lam, nu, mu, message):
    calls = [partial(lr_support, lam, nu), partial(lr_expand, lam, nu)]
    if mu is not None:
        # lr_coefficient is given mu and searches no shapes, so only the
        # cell guard applies
        calls.append(partial(lr_coefficient, lam, nu, mu))
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as exc:
            call()
        assert time.perf_counter() - start < 1
        assert str(exc.value) == message


def test_reference_products_against_independent_oracles():
    # every run of the regression cases re-derived two other ways: full
    # permutation counting (in the orientation with fewer skew cells) and
    # the hook length identity.  An exact run's reference, without its
    # terms that are not partitions, is the support; every term of a shape
    # run fits one of its (lower bounds, tail) templates.
    from abext.verify import _EXACT_CASES, _SHAPE_CASES, _runs
    runs = 0
    for exact, table in ((True, _EXACT_CASES), (False, _SHAPE_CASES)):
        for label, lam, nu, reference in _runs(table):
            runs += 1
            n = size(lam) + size(nu)
            inner, content = (lam, nu) if size(nu) <= size(lam) else (nu, lam)
            naive = {mu: c for mu in partitions_of(n)
                     if (c := naive_lr(inner, content, mu))}
            assert lr_expand(lam, nu) == naive, label
            lhs = sum(c * syt_count(mu) for mu, c in naive.items())
            assert lhs == syt_count(lam) * syt_count(nu) * comb(n, size(lam))
            if exact:
                assert set(naive) == {
                    t for t in reference
                    if list(t) == sorted(t, reverse=True) and 0 not in t}, label
                continue
            for mu in naive:
                assert any(len(mu) == len(low) + len(tail)
                           and mu[len(low):] == tail
                           and all(m >= b for m, b in zip(mu, low))
                           for low, tail in reference), (label, mu)
    assert runs == 75


def _fewest_steps(call, monkeypatch):
    """(smallest MAX_FILL_STEPS under which call() answers, its answer)."""
    for budget in itertools.count(1):
        monkeypatch.setattr(lr, "MAX_FILL_STEPS", budget)
        try:
            return budget, call()
        except ResourceLimitError:
            pass


def test_each_public_search_has_a_step_budget(monkeypatch):
    # a step is one cell tried or one complete filling: (4, 2) / (2, 1)
    # with content (2, 1) has one filling of three cells, found without
    # backtracking
    calls = [partial(lr_coefficient, (2, 1), (2, 1), (4, 2)),
             partial(lr_positive, (2, 1), (2, 1), (4, 2)),
             partial(lr_expand, (2, 1), (2, 1))]
    for call in calls:
        monkeypatch.setattr(lr, "MAX_FILL_STEPS", 3)
        with pytest.raises(ResourceLimitError) as exc:
            call()
        assert str(exc.value) == ("the filling search exceeds the LR step "
                                  "limit 3")
    assert _fewest_steps(calls[0], monkeypatch) == (4, 1)
    assert _fewest_steps(calls[1], monkeypatch) == (4, True)


def test_all_shapes_of_an_expansion_share_one_budget(monkeypatch):
    lam = nu = (2, 1)
    need = {mu: _fewest_steps(partial(lr_coefficient, lam, nu, mu),
                              monkeypatch)[0]
            for mu in lr_support(lam, nu)}
    monkeypatch.setattr(lr, "MAX_FILL_STEPS", max(need.values()))
    for mu in need:
        lr_coefficient(lam, nu, mu)
    with pytest.raises(ResourceLimitError):
        lr_expand(lam, nu)
    budget, expansion = _fewest_steps(partial(lr_expand, lam, nu),
                                      monkeypatch)
    assert budget == sum(need.values())
    assert expansion[(3, 2, 1)] == 2
