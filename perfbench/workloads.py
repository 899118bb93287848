"""Seeded workloads of the benchmark.

A workload is a sequence of rounds.  A round is a fixed amount of work: one
or more jobs, each a list of CLI calls that one fresh child process runs
one after another, so every round starts with cold caches.  Each call is an
Op that knows its part of the round (the four parts of every workload are
reported separately), how many units of work it stands for, and how to
check its output.  All inputs come from random.Random(f"{seed}/{round}"),
so the same seed gives the same inputs.

sweep    the four bounded claims at --bound 128, each in its own process
queries  a fixed mix of one-off calls: lr-expand, lr-coeff, ext, member
         and enumerate, in one process
oracle   ext --check G H K triples covering every p-type up to order 128
         (p=2), 243 (p=3), 125 (p=5) and 49 (p=7), one process per prime
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

SWEEP_BOUND = 128

# the JSON report and exit code of each claim at SWEEP_BOUND
SWEEP_EXPECTED = {
    "prop-ext-low": {"claim_id": "prop-ext-low", "bound": 128,
                     "checked_pairs": 44505, "witnesses": [],
                     "verdict": "pass", "vacuous": False, "exit_code": 0},
    "thm-main": {"claim_id": "thm-main", "bound": 128,
                 "checked_pairs": 78261, "witnesses": ["Z/4^5"],
                 "verdict": "pass", "vacuous": False, "exit_code": 0},
    "prop-product-types": {"claim_id": "prop-product-types", "bound": 128,
                           "checked_pairs": 109866,
                           "witnesses": ["Z/3^6", "Z/4^4 x Z/2^2"],
                           "verdict": "pass", "vacuous": False,
                           "exit_code": 0},
    "thm-second": {"claim_id": "thm-second", "bound": 128,
                   "checked_pairs": 78261, "witnesses": [],
                   "verdict": "pass", "vacuous": False, "exit_code": 0},
}

FAMILIES = ("A1", "A2", "A3p", "B3p", "PA4p", "PB4p",
            "A2xA2", "A1xA3p", "B2xB2", "B1xB3p")

# queries per round, by kind; lr queries cover every pair of factor sizes
LR_SIZES = range(8, 13)
LR_EXPAND_PER_SIZES = 8
LR_COEFF_PER_SIZES = 2
EXT_QUERIES = 40
MEMBER_PER_FAMILY = 6
ENUMERATE_PER_FAMILY = 2

# oracle: largest p-part order per prime, and checks per G type
ORACLE_BOUNDS = {2: 128, 3: 243, 5: 125, 7: 49}
ORACLE_CHECKS_PER_TYPE = {2: 2, 3: 2, 5: 5, 7: 10}


@dataclass
class Op:
    """One CLI call of a round."""

    argv: list
    part: str
    check: Callable     # result -> error text, or None when right
    units: Callable = lambda result: 1


@dataclass
class Workload:
    unit: str            # what ops_per_s counts
    parts: tuple         # names of part1..part4
    make_round: Callable  # (rng, families) -> list of jobs (lists of Op)


def _random_partition(rng, n):
    return rng.choice(checks.partitions_of(n)) if n else ()


def _text(p) -> str:
    return "[" + ",".join(map(str, p)) + "]"


# -- sweep ---------------------------------------------------------------


def _claim_pairs(result):
    return json.loads(result["out"])["checked_pairs"]


def sweep_round(rng, families):
    claims = list(SWEEP_EXPECTED)
    rng.shuffle(claims)
    return [[Op(["verify", claim, "--bound", str(SWEEP_BOUND), "--format", "json"],
                claim, partial(checks.check_claim, expected=SWEEP_EXPECTED[claim]),
                _claim_pairs)]
            for claim in claims]


# -- queries -------------------------------------------------------------


def _random_types(rng, primes, max_size):
    return {p: t for p in primes
            if (t := _random_partition(rng, rng.randint(0, max_size)))}


def _random_member(rng, patterns):
    """A group drawn from one random pattern, as a {prime: type} map."""
    slots = rng.choice(patterns)
    orders = []
    for kind, modulus in slots:
        orders.append(modulus if kind == "fixed"
                      else checks.SLOT_SCALE[kind] * rng.randint(1, 6))
    return dict(checks.canonical(orders))


def _random_mu(rng, lam, nu):
    """The row sum, the row union, or a random partition containing both."""
    n = sum(lam) + sum(nu)
    choice = rng.randrange(3)
    if choice == 0:
        return tuple(sorted(lam + nu, reverse=True))
    if choice == 1:
        return tuple(x + y for x, y in
                     itertools.zip_longest(lam, nu, fillvalue=0))
    return rng.choice([m for m in checks.partitions_of(n)
                       if checks.contains(m, lam) and checks.contains(m, nu)])


def queries_round(rng, families):
    ops = []
    for a, b in itertools.product(LR_SIZES, repeat=2):
        for _ in range(LR_EXPAND_PER_SIZES):
            lam, nu = _random_partition(rng, a), _random_partition(rng, b)
            ops.append(Op(["lr-expand", _text(lam), _text(nu), "--format", "json"],
                          "lr", partial(checks.check_lr_expand, lam=lam, nu=nu)))
        for _ in range(LR_COEFF_PER_SIZES):
            lam, nu = _random_partition(rng, a), _random_partition(rng, b)
            mu = _random_mu(rng, lam, nu)
            ops.append(Op(["lr-coeff", _text(lam), _text(nu), _text(mu),
                           "--format", "json"],
                          "lr", partial(checks.check_lr_coeff, lam=lam, nu=nu, mu=mu)))
    for _ in range(EXT_QUERIES):
        primes = rng.sample((2, 3, 5, 7), rng.randint(2, 3))
        h = _random_types(rng, primes, 2)
        k = _random_types(rng, primes, 3)
        if len(set(h) | set(k)) < 2:
            k = {**k, primes[0]: (1,), primes[1]: (1,)}
        ops.append(Op(["ext", checks.group_text(h), checks.group_text(k),
                       "--format", "json"],
                      "ext", partial(checks.check_ext, h_types=h, k_types=k)))
    for name in FAMILIES:
        patterns = families[name]
        for i in range(MEMBER_PER_FAMILY):
            if i % 2:
                g = _random_member(rng, patterns)
            else:
                g = _random_types(rng, rng.sample((2, 3, 5, 7), rng.randint(1, 3)), 4)
            invariant = tuple(sorted(g.items()))
            ops.append(Op(["member", checks.group_text(g), "--family", name,
                           "--format", "json"],
                          "member", partial(checks.check_member,
                                            group_invariant=invariant,
                                            patterns=patterns)))
        for _ in range(ENUMERATE_PER_FAMILY):
            bound = rng.randint(8, 64)
            ops.append(Op(["enumerate", "--family", name, "--bound", str(bound),
                           "--format", "json"],
                          "enumerate", partial(checks.check_enumerate,
                                               patterns=patterns, bound=bound)))
    rng.shuffle(ops)
    return [ops]


# -- oracle --------------------------------------------------------------


def _split(rng, mu):
    """Split a type into a random sub-multiset and its complement."""
    h, k = [], []
    for part in mu:
        (h if rng.random() < 0.5 else k).append(part)
    return tuple(h), tuple(k)


def oracle_round(rng, families):
    jobs = []
    for p, bound in ORACLE_BOUNDS.items():
        ops = []
        n = 1
        while p ** n <= bound:
            for mu in checks.partitions_of(n):
                for i in range(ORACLE_CHECKS_PER_TYPE[p]):
                    split = i == 0
                    if split:
                        h, k = _split(rng, mu)
                    else:
                        a = rng.randint(0, n)
                        h = _random_partition(rng, a)
                        k = _random_partition(rng, n - a)
                    argv = ["ext", "--check", checks.group_text({p: mu}),
                            checks.group_text({p: h} if h else {}),
                            checks.group_text({p: k} if k else {}),
                            "--format", "json"]
                    ops.append(Op(argv, f"p{p}",
                                  partial(checks.check_oracle, split=split)))
            n += 1
        rng.shuffle(ops)
        jobs.append(ops)
    return jobs


WORKLOADS = {
    "sweep": Workload("checked pairs",
                      tuple(SWEEP_EXPECTED), sweep_round),
    "queries": Workload("queries",
                        ("lr", "ext", "member", "enumerate"), queries_round),
    "oracle": Workload("checks",
                       tuple(f"p{p}" for p in ORACLE_BOUNDS), oracle_round),
}


# the composed families, as products of table families (B1 = A1, B2 = A2)
PRODUCTS = {"A2xA2": ("A2", "A2"), "A1xA3p": ("A1", "A3p"),
            "B2xB2": ("A2", "A2"), "B1xB3p": ("A1", "B3p")}
_KIND_BY_PREFIX = {"": "free", "2": "even", "3": "triple"}
_KIND_ORDER = ("free", "even", "triple", "fixed")
_SLOT = re.compile(r"Z/(?:(\d+)(?:\^(\d+))?|([23]?)[a-z])")


def _slot_order(slot):
    kind, modulus = slot
    return _KIND_ORDER.index(kind), modulus


def parse_pattern(text):
    """Slots of a rendered table row, e.g. 'Z/2k x Z/4^2' ->
    (('even', 0), ('fixed', 4), ('fixed', 4))."""
    slots = []
    for piece in text.split(" x "):
        m = _SLOT.fullmatch(piece)
        if not m:
            raise ValueError(f"cannot read table row piece {piece!r}")
        if m.group(1):
            slots.extend([("fixed", int(m.group(1)))] * int(m.group(2) or 1))
        else:
            slots.append((_KIND_BY_PREFIX[m.group(3)], 0))
    return tuple(slots)


def load_families(tables_json):
    """Pattern slots of the ten built-in families, read from the output of
    `abext tables --format json` (the published tables, not the package's
    internal objects); the products are formed here."""
    out = {t["family"]: tuple(parse_pattern(row["pattern"]) for row in t["rows"])
           for t in json.loads(tables_json)}
    for name, (left, right) in PRODUCTS.items():
        # slots sorted by kind, then modulus; repeated patterns dropped
        products = (tuple(sorted(a + b, key=_slot_order))
                    for a in out[left] for b in out[right])
        out[name] = tuple(dict.fromkeys(products))
    return out
