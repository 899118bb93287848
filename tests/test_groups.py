import os
import random
import subprocess
import sys
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

import abext
from abext import extensions, groups
from abext.errors import ResourceLimitError
from abext.groups import (MILLER_RABIN_BOUND, TRIAL_DIVISION_LIMIT,
                          AbelianGroup, GroupSyntaxError, TRIVIAL, factorize,
                          format_group, is_prime, parse_group)

from oracles import random_group


def test_parse_examples():
    assert parse_group("Z/8^2 x Z/4 x Z/2").prime_types() == {2: (3, 3, 2, 1)}
    assert parse_group("Z/6^2 x Z/3^2").prime_types() == {
        2: (1, 1), 3: (1, 1, 1, 1)}
    assert parse_group("1") == TRIVIAL


def test_parse_grammar_variants():
    g = parse_group("Z/4 x Z/2")
    assert parse_group("C4 * C2") == g
    assert parse_group("Z/4 × Z/2") == g
    assert parse_group("  Z/4xZ/2  ") == g
    assert parse_group("Z/1 x Z/4 x Z/2") == g
    assert parse_group("1 x 1") == TRIVIAL


def test_parse_errors():
    for bad in ["Z/0", "", "Z/2 y Z/3", "Z/2^0", "Z2", "Z/2^", "Z/-4"]:
        with pytest.raises(GroupSyntaxError):
            parse_group(bad)


def test_format_examples():
    assert format_group(AbelianGroup({2: (2, 2, 2, 2, 2)})) == "Z/4^5"
    assert format_group(TRIVIAL) == "1"
    assert format_group(AbelianGroup({2: (1, 1), 3: (1, 1, 1, 1)})) == \
        "Z/6^2 x Z/3^2"
    assert format_group(parse_group("Z/6^3 x Z/2")) == "Z/6^3 x Z/2"


def test_parse_counts_prime_power_factors(monkeypatch):
    monkeypatch.setattr(groups, "MAX_FACTORS", 4)
    assert parse_group("Z/6^2 x Z/1^9").prime_types() == {2: (1, 1),
                                                          3: (1, 1)}
    with pytest.raises(ResourceLimitError):
        parse_group("Z/6^2 x Z/5")


def test_p_part():
    g = AbelianGroup({2: (3, 3, 2, 1)})
    assert g.p_part(2) == (3, 3, 2, 1)
    assert AbelianGroup({2: (1, 1)}).p_part(3) == ()
    assert parse_group("Z/6^3 x Z/2").p_part(3) == (1, 1, 1)
    with pytest.raises(ValueError):
        g.p_part(4)


def test_rank():
    assert parse_group("Z/4^4").rank() == 4
    assert parse_group("Z/6^2 x Z/3^2").rank() == 4
    assert TRIVIAL.rank() == 0


def test_order():
    assert parse_group("Z/4^5").order() == 1024
    assert TRIVIAL.order() == 1
    assert parse_group("Z/3^6").order() == 729
    # Python integers make huge orders exact
    assert parse_group("Z/2^200").order() == 2 ** 200


def test_direct_product():
    a = parse_group("Z/4 x Z/2")
    b = parse_group("Z/2^2")
    assert a.direct_product(b).prime_types() == {2: (2, 1, 1, 1)}
    g = parse_group("Z/6^2 x Z/3^2")
    assert g.direct_product(TRIVIAL) == g
    half = parse_group("Z/4^2 x Z/2")
    assert half.direct_product(half) == parse_group("Z/4^4 x Z/2^2")


def test_constructor_validates():
    with pytest.raises(ValueError):
        AbelianGroup({4: (1,)})
    with pytest.raises(ValueError):
        AbelianGroup({2: (-1, 2)})
    for parts in ([1.5], ["1"], [2.0], [True], [True, 1]):
        with pytest.raises(ValueError):
            AbelianGroup({2: parts})
    # a prime key must be an int: 2.0 would print as Z/2.0
    for types in ({2.0: [1]}, {3.0: [2]}, {True: [1]}, {"2": [1]},
                  {2: [1], "3": [1]}):
        with pytest.raises(ValueError):
            AbelianGroup(types)
    assert AbelianGroup({2: (0, 1)}).prime_types() == {2: (1,)}
    assert AbelianGroup({2: ()}) == TRIVIAL


def test_json_round_trip():
    g = parse_group("Z/8^2 x Z/4 x Z/6")
    assert g.to_json() == {"primes": {"2": [3, 3, 2, 1], "3": [1]}}
    assert AbelianGroup.from_json(g.to_json()) == g
    for obj in ({"parts": {}}, {"primes": [1, 2]}, {"primes": {"2": 3}},
                {"primes": {"2": [1.5]}}, {"primes": {"2": [True, 1]}},
                {"primes": {"2": [False]}},
                # "02" names the prime 2 a second time, and would merge
                {"primes": {"2": [1], "02": [2]}}, {"primes": {"02": [1]}},
                {"primes": {" 3": [1]}}, {"primes": {"3 ": [1]}},
                {"primes": {"+2": [1]}}, {"primes": {"\u0662": [1]}},
                {"primes": {"1_1": [1]}}):
        with pytest.raises(ValueError):
            AbelianGroup.from_json(obj)


def test_is_prime_and_factorize():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)
    # factors must be ints: 2.0 would give Z/2, and True would vanish as 1
    for n in (2.0, True, 4.5):
        with pytest.raises(ValueError):
            factorize(n)
    for orders in ([2.0], [True, 3]):
        with pytest.raises(ValueError):
            AbelianGroup.from_factors(orders)


def test_large_primes_by_miller_rabin():
    mersenne61 = 2 ** 61 - 1
    assert is_prime(mersenne61)
    assert not is_prime(2 ** 67 - 1)  # 193707721 * 761838257287
    # a strong pseudoprime to the first twelve prime bases; base 41 exposes it
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ResourceLimitError):
        is_prime(MILLER_RABIN_BOUND + 2)


def test_miller_rabin_agrees_with_trial_division():
    start = TRIAL_DIVISION_LIMIT ** 2 + 1
    for n in range(start, start + 200, 2):
        trial = all(n % f for f in range(3, isqrt(n) + 1, 2))
        assert is_prime(n) == trial, n


def test_is_prime_agrees_with_a_sieve():
    n = 2 * 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    assert [m for m in range(n) if is_prime(m)] == \
        [m for m in range(n) if sieve[m]]


def test_is_prime_rejects_pseudoprimes():
    # strong pseudoprimes to the first k prime bases, k = 1 .. 12
    strong = [2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461]
    carmichael = [561, 1105, 1729, 41041, 825265]
    for n in strong + carmichael + [41 ** 2, 43 ** 2]:
        assert not is_prime(n), n
    assert all(is_prime(a) for a in groups._MR_BASES)


def test_import_loads_no_typing():
    # each of these costs every CLI call milliseconds of start-up
    code = ("import abext, abext.cli, sys; print(sorted({'typing', "
            "'dataclasses', 'inspect'} & sys.modules.keys()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_factorize_beyond_trial_division_limit():
    mersenne61 = 2 ** 61 - 1
    assert factorize(mersenne61) == {mersenne61: 1}
    assert factorize(12 * mersenne61) == {2: 2, 3: 1, mersenne61: 1}
    assert factorize(999983 ** 2) == {999983: 2}
    with pytest.raises(ResourceLimitError):
        factorize(1000003 * 1000033)
    with pytest.raises(ResourceLimitError):
        factorize(2 ** 89 - 1)


def test_parse_format_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        g = random_group(rng, primes=(2, 3, 5, 7), max_size=5)
        assert parse_group(format_group(g)) == g


def test_order_and_rank_laws_random():
    rng = random.Random(11)
    for _ in range(200):
        g = random_group(rng)
        h = random_group(rng)
        prod = g.direct_product(h)
        assert prod.order() == g.order() * h.order()
        assert prod.rank() <= g.rank() + h.rank()
        assert prod.rank() >= max(g.rank(), h.rank())


@given(st.integers(min_value=1, max_value=5000))
def test_cyclic_round_trip(n):
    g = AbelianGroup.from_factors([n])
    assert g.order() == n
    assert parse_group(f"Z/{n}") == g
    assert g.rank() <= 1


def test_rank_equals_max_per_prime_length():
    rng = random.Random(3)
    for _ in range(100):
        g = random_group(rng, primes=(2, 3, 5), max_size=5)
        lengths = [len(parts) for parts in g.prime_types().values()]
        assert g.rank() == max(lengths, default=0)


def test_sort_key_orders_by_order_then_name():
    groups = [parse_group(s) for s in ["Z/8", "Z/2^3", "Z/4 x Z/2", "Z/6", "1"]]
    ordering = [str(g) for g in sorted(groups)]
    assert ordering == ["1", "Z/6", "Z/2^3", "Z/4 x Z/2", "Z/8"]


def test_group_set_has_one_home():
    assert abext.GroupSet is groups.GroupSet is extensions.GroupSet
