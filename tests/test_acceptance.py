"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

from abext.cli import run
from abext.extensions import (GroupSet, brute_force_is_extension,
                              extension_set, is_extension, set_extension)
from abext.families import (A1, A2, A3P, B3P, PA4P, PB4P, family_contains,
                            instantiate_pattern, matches)
from abext.groups import AbelianGroup, parse_group
from abext.lr import lr_expand
from abext.partitions import componentwise_sum, size, union_merge
from abext.verify import CLAIMS

from oracles import partitions_upto, random_group, syt_count

DATA = Path(__file__).parent / "data"
SEED = 20250810


def _report(criterion, elapsed, limit):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit


def test_criterion_1_worked_example_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "abext", "ext", "Z/4 x Z/2", "Z/2^2"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split("\n")) - {""} == {
        "Z/8 x Z/4", "Z/8 x Z/2^2", "Z/4^2 x Z/2", "Z/4 x Z/2^3"}
    _report("1 (worked extension example)", elapsed, 1.0)


def _run_verify_cli(tmp_path, claim, bound):
    target = tmp_path / "report.json"
    start = time.perf_counter()
    code = run(["verify", claim, "--bound", str(bound), "--format", "json",
                "--out", str(target)])
    elapsed = time.perf_counter() - start
    return code, json.loads(target.read_text()), elapsed


def test_criterion_2_regression_expansions(tmp_path):
    code, obj, elapsed = _run_verify_cli(tmp_path, "regressions", 64)
    assert code == 0
    assert obj["verdict"] == "pass" and not obj["vacuous"]
    assert obj["checked_pairs"] == 75
    _report("2 (reference expansion vectors)", elapsed, 10.0)


def test_criterion_3_main_classification_at_64(tmp_path):
    code, obj, elapsed = _run_verify_cli(tmp_path, "thm-main", 64)
    assert code == 0
    assert obj["verdict"] == "pass" and not obj["vacuous"]
    assert obj["witnesses"] == ["Z/4^5"]
    report = CLAIMS["thm-main"](64)
    pair = (parse_group("Z/4^2 x Z/2"), parse_group("Z/4^2 x Z/2"))
    assert report.witness_sources[parse_group("Z/4^5")] == (pair,)
    _report("3 (main classification, bound 64)", elapsed, 60.0)


def test_criterion_4_product_window_at_64(tmp_path):
    code, obj, elapsed = _run_verify_cli(tmp_path, "prop-product-types", 64)
    assert code == 0
    assert obj["verdict"] == "pass" and not obj["vacuous"]
    assert set(obj["witnesses"]) == {"Z/3^6", "Z/4^4 x Z/2^2"}
    _report("4 (product-type window, bound 64)", elapsed, 60.0)


def test_criterion_5_second_classification_at_64(tmp_path):
    code, obj, elapsed = _run_verify_cli(tmp_path, "thm-second", 64)
    assert code == 0
    assert obj["verdict"] == "pass" and not obj["vacuous"]
    assert obj["witnesses"] == []
    _report("5 (second classification, bound 64)", elapsed, 120.0)


def test_criterion_6_low_rank_closure_at_32(tmp_path):
    code, obj, elapsed = _run_verify_cli(tmp_path, "prop-ext-low", 32)
    assert code == 0
    assert obj["verdict"] == "pass" and not obj["vacuous"]
    assert obj["witnesses"] == []
    _report("6 (low-rank closure, bound 32)", elapsed, 30.0)


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    disagreements = []
    for p, max_size in ((2, 6), (3, 4)):
        types = list(partitions_upto(max_size))
        groups = [AbelianGroup({p: t} if t else {}) for t in types]
        for g in groups:
            for h in groups:
                for k in groups:
                    if is_extension(g, h, k) != brute_force_is_extension(g, h, k):
                        disagreements.append((g, h, k))
    elapsed = time.perf_counter() - start
    assert not disagreements
    _report("7 (oracle equivalence)", elapsed, 600.0)


def test_criterion_8_property_suite():
    start = time.perf_counter()
    rng = random.Random(SEED)

    # symmetry and extreme terms, exhaustively up to total size 8
    small = list(partitions_upto(8))
    for lam in small:
        for nu in small:
            if size(lam) + size(nu) > 8:
                continue
            expansion = lr_expand(lam, nu)
            assert expansion == lr_expand(nu, lam)
            assert expansion[union_merge(lam, nu)] == 1
            assert expansion[componentwise_sum(lam, nu)] == 1

    # dimension identity up to total size 8
    for lam in small:
        for nu in small:
            n = size(lam) + size(nu)
            if n > 8:
                continue
            lhs = sum(c * syt_count(mu) for mu, c in lr_expand(lam, nu).items())
            assert lhs == syt_count(lam) * syt_count(nu) * comb(n, size(lam))

    # order law and rank bounds on 1000 random extension instances
    for _ in range(1000):
        h = random_group(rng, max_size=3)
        k = random_group(rng, max_size=3)
        members = extension_set(h, k)
        assert h.direct_product(k) in members
        for g in members:
            assert g.order() == h.order() * k.order()
            for p in g.primes:
                assert max(len(h.p_part(p)), len(k.p_part(p))) \
                    <= len(g.p_part(p)) \
                    <= len(h.p_part(p)) + len(k.p_part(p))

    # associativity of the extension closure on 100 singleton triples
    for _ in range(100):
        a, b, c = (GroupSet([AbelianGroup({2: _random_type(rng)})])
                   for _ in range(3))
        assert set_extension(set_extension(a, b), c) == \
            set_extension(a, set_extension(b, c))

    # family round trip on every table row at three instantiations
    for family in (A1, A2, A3P, B3P, PA4P, PB4P):
        for pat in family.patterns:
            free_slots = sum(1 for s in pat.slots if s.kind != "fixed")
            for base in (1, 2, 3):
                g = instantiate_pattern(pat, [base + i
                                              for i in range(free_slots)])
                assert matches(g, pat)
                assert family_contains(g, family)

    elapsed = time.perf_counter() - start
    _report("8 (property suite)", elapsed, 600.0)


def _random_type(rng):
    total = rng.randint(1, 3)
    parts = []
    while total:
        part = rng.randint(1, total)
        parts.append(part)
        total -= part
    return tuple(sorted(parts, reverse=True))


def test_criterion_9_table_fidelity():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "abext", "tables"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    golden = (DATA / "tables_golden.txt").read_text()
    assert proc.stdout == golden
    _report("9 (table fidelity)", elapsed, 10.0)
