"""Tests of the benchmark itself: checkers, percentiles and the tracer.

Run with the repository's suite (PYTHONPATH=src), or alone:
    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SRC = HERE.parent / "src"


def _run(argv):
    from abext import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return {"code": code, "out": out.getvalue(), "err": "", "s": 0.0}


@pytest.fixture(scope="module")
def families():
    return workloads.load_families(_run(["tables", "--format", "json"])["out"])


def test_families_match_the_package(families):
    from abext.families import BUILTIN_FAMILIES
    assert set(families) == set(BUILTIN_FAMILIES) == set(workloads.FAMILIES)
    for name, family in BUILTIN_FAMILIES.items():
        assert not family.exceptional
        assert families[name] == tuple(tuple((s.kind, s.modulus) for s in pat.slots)
                                       for pat in family.patterns)


def _first_ops(round_jobs, part, n):
    ops = [op for job in round_jobs for op in job if op.part == part]
    assert len(ops) >= n
    return ops[:n]


# -- percentiles ---------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(list(range(1000))) == (99.0, 989)
    assert stats.tail_percentile(list(range(10000)))[0] == 99.9
    assert stats.tail_percentile(list(range(999)))[0] == 90.0
    assert stats.tail_percentile(list(range(20)))[0] == 50.0
    assert stats.tail_percentile(list(range(19))) is None
    for n in (20, 100, 1000, 1234, 10000, 123456):
        q, value = stats.tail_percentile(list(range(n)))
        beyond = sum(1 for x in range(n) if x > value)
        assert beyond >= stats.MIN_BEYOND
        higher = [c for c in stats.TAIL_PERCENTILES if c > q]
        for c in higher:
            assert n - stats.percentile(list(range(n)), c) - 1 < stats.MIN_BEYOND


# -- independent arithmetic ---------------------------------------------


def test_independent_lr_coefficients():
    assert checks.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert checks.lr_coefficient((2, 1), (1, 1), (3, 2)) == 1
    assert checks.lr_coefficient((2, 1), (1, 1), (4, 1)) == 0
    assert checks.expansion_support((1,), (1,)) == {(2,), (1, 1)}
    assert checks.hook_count((3, 2, 1)) == 16


def test_independent_lr_matches_hook_identity():
    # sum over mu of c * f^mu equals C(n, |lam|) f^lam f^nu
    from math import comb
    for lam, nu in (((2, 1), (2, 1)), ((3, 1), (2, 2)), ((2, 2, 1), (3, 1))):
        n = sum(lam) + sum(nu)
        total = sum(checks.lr_coefficient(lam, nu, mu) * checks.hook_count(mu)
                    for mu in checks.partitions_of(n))
        assert total == comb(n, sum(lam)) * checks.hook_count(lam) * checks.hook_count(nu)


def test_group_strings_round_trip():
    inv = checks.parse_group("Z/12^2 x Z/6")
    assert inv == ((2, (2, 2, 1)), (3, (1, 1, 1)))
    assert checks.parse_group(checks.group_text(dict(inv))) == inv
    assert checks.parse_group("1") == ()


# -- checkers accept right outputs and reject corrupted ones --------------


def _corruptions(result):
    """Deliberately broken copies of a right result."""
    out = result["out"]
    data = json.loads(out)
    broken = []
    wrong_code = dict(result, code=1 if result["code"] != 1 else 0)
    broken.append(wrong_code)
    if isinstance(data, list) and data:
        broken.append(dict(result, out=json.dumps(data[:-1])))
        broken.append(dict(result, out=json.dumps(data + data[:1])))
        if len(data) > 1:
            broken.append(dict(result, out=json.dumps(data[::-1])))
        if isinstance(data[0], dict):
            changed = copy.deepcopy(data)
            changed[0]["multiplicity"] += 1
            broken.append(dict(result, out=json.dumps(changed)))
    elif isinstance(data, bool):
        broken.append(dict(result, out=json.dumps(not data)))
    elif isinstance(data, int):
        broken.append(dict(result, out=json.dumps(data + 1)))
    elif isinstance(data, dict) and "criterion" in data:
        broken.append(dict(result, out=json.dumps({**data, "oracle": not data["oracle"]})))
    elif isinstance(data, dict):
        broken.append(dict(result, out=json.dumps({**data, "checked_pairs": data["checked_pairs"] + 1})))
        broken.append(dict(result, out=json.dumps({**data, "witnesses": []})))
    broken.append(dict(result, out="Traceback (most recent call last):"))
    return broken


def _rejects(check, result):
    """True when the checker reports an error, or cannot read the output
    (which the benchmark counts as a failure too)."""
    try:
        return bool(check(result))
    except (ValueError, KeyError, TypeError):
        return True


def _assert_checker_works(op):
    result = _run(op.argv)
    assert op.check(result) is None, op.argv
    for bad in _corruptions(result):
        assert _rejects(op.check, bad), (op.argv, bad["out"][:200])


@pytest.mark.parametrize("part,n", [("lr", 6), ("ext", 4), ("member", 6), ("enumerate", 2)])
def test_query_checkers_reject_corruption(families, part, n):
    rng = random.Random("checker-test")
    jobs = workloads.queries_round(rng, families)
    for op in _first_ops(jobs, part, n):
        _assert_checker_works(op)


def test_oracle_checker_rejects_corruption(families):
    rng = random.Random("checker-test")
    jobs = workloads.oracle_round(rng, families)
    small = [op for op in jobs[2] + jobs[3]]
    split = [op for op in small if op.check.keywords["split"]][:3]
    other = [op for op in small if not op.check.keywords["split"]][:3]
    for op in split + other:
        _assert_checker_works(op)
    # a split triple the criterion rejects is wrong even when the oracle agrees
    split_result = _run(split[0].argv)
    both_false = dict(split_result, out=json.dumps({"criterion": False, "oracle": False}))
    assert split[0].check(both_false)


def test_claim_checker_rejects_corruption():
    expected = workloads.SWEEP_EXPECTED["thm-main"]
    right = {"code": 0, "s": 1.0, "err": "",
             "out": json.dumps({k: v for k, v in expected.items() if k != "exit_code"})}
    assert checks.check_claim(right, expected) is None
    for bad in _corruptions(right):
        assert _rejects(partial(checks.check_claim, expected=expected), bad)


def test_small_claim_report_is_checked():
    # the checker reads a real report; bound 16 keeps it quick
    result = _run(["verify", "prop-ext-low", "--bound", "16", "--format", "json"])
    report = json.loads(result["out"])
    expected = dict(report, exit_code=result["code"])
    assert checks.check_claim(result, expected) is None
    assert checks.check_claim(result, dict(expected, checked_pairs=report["checked_pairs"] + 1))


# -- workloads and tracer -------------------------------------------------


def test_workloads_are_seeded(families):
    for workload in workloads.WORKLOADS.values():
        a = workload.make_round(random.Random("7/0"), families)
        b = workload.make_round(random.Random("7/0"), families)
        assert [[op.argv for op in job] for job in a] == [[op.argv for op in job] for job in b]
        parts = {op.part for job in a for op in job}
        assert parts == set(workload.parts)


def test_oracle_round_covers_every_type(families):
    jobs = workloads.oracle_round(random.Random("1/0"), families)
    for p, bound in workloads.ORACLE_BOUNDS.items():
        seen = {checks.parse_group(op.argv[2]) for job in jobs for op in job
                if op.part == f"p{p}"}
        n_types = sum(len(checks.partitions_of(n)) for n in range(1, 10) if p ** n <= bound)
        assert len(seen) == n_types


def test_traced_child_reports_spans():
    job = {"src": str(SRC), "trace": True,
           "calls": [["ext", "--check", "Z/4 x Z/2", "Z/2", "Z/4"],
                     ["lr-expand", "[2,1]", "[1,1]"],
                     ["member", "Z/4^5", "--family", "PB4p"]]}
    proc = subprocess.run([sys.executable, str(HERE / "harness.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=60, check=True)
    record = json.loads(proc.stdout)
    assert [r["code"] for r in record["results"]] == [0, 0, 0]
    spans = {(s["name"], s["parent"]): s for s in record["trace"]["spans"]}
    assert spans[("cli.run", None)]["calls"] == 3
    assert ("extensions.subgroup_quotient_types",
            "extensions.brute_force_is_extension") in spans
    assert ("lr.lr_expand", "cli.run") in spans
    assert ("families.family_contains", "cli.run") in spans
    for span in spans.values():
        assert 0 <= span["self_s"] <= span["total_s"] + 1e-9
    assert record["trace"]["counts"]["families.Family.hash.calls"] >= 1
