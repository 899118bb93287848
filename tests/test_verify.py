import os
import subprocess
import sys
import time

import pytest

from abext.extensions import extension_set
from abext.families import (A1, A2, A3P, PA4P, PB4P, Family,
                            enumerate_family, family_contains)
from abext.groups import parse_group
from abext.verify import (CLAIMS, CLAIM_TABLE, Claim, Sweep, _extends_two,
                          _finalize, regression_expansions, run_claim)

from oracles import all_abelian_groups_upto, naive_extends_two


def test_prop_ext_low_passes():
    for bound in (4, 16):
        report = CLAIMS["prop-ext-low"](bound)
        assert report.verdict == "pass"
        assert not report.vacuous
        assert len(report.witnesses) == 0
        assert report.checked_pairs > 0


def test_thm_main_small_window_is_vacuous():
    report = CLAIMS["thm-main"](16)
    assert report.verdict == "pass"
    assert report.vacuous
    assert len(report.witnesses) == 0
    assert report.exit_code == 2


def test_thm_main_at_minimal_window():
    report = CLAIMS["thm-main"](32)
    assert report.verdict == "pass"
    assert not report.vacuous
    assert [str(g) for g in report.witnesses] == ["Z/4^5"]
    pair = (parse_group("Z/4^2 x Z/2"), parse_group("Z/4^2 x Z/2"))
    assert report.witness_sources[parse_group("Z/4^5")] == (pair,)
    assert report.exit_code == 0


def test_prop_product_types_windows():
    report = CLAIMS["prop-product-types"](16)
    assert report.verdict == "pass" and report.vacuous
    report = CLAIMS["prop-product-types"](32)
    assert report.verdict == "pass" and not report.vacuous
    assert {str(g) for g in report.witnesses} == {"Z/3^6", "Z/4^4 x Z/2^2"}


def test_thm_second_small_window():
    report = CLAIMS["thm-second"](16)
    assert report.verdict == "pass"
    assert len(report.witnesses) == 0


def test_corrupted_table_is_detected():
    # drop the Z/2k x Z/4^2 x Z/2 row; extensions reaching it must surface
    corrupted = Family("A3p-broken",
                       A3P.patterns[:1] + A3P.patterns[2:])
    claim = Claim("corrupted", (Sweep("extension", A1, A2, corrupted),))
    report = run_claim(claim, 32)
    assert report.verdict == "fail", "corruption went unnoticed"
    assert parse_group("Z/8 x Z/4^2 x Z/2") in report.witnesses


_SQUARE_PAIR = ("Z/4^2 x Z/2", "Z/4^2 x Z/2")
_PINNED_SOURCES = {
    "prop-ext-low": {},
    "thm-main": {"Z/4^5": (_SQUARE_PAIR,)},
    "prop-product-types": {"Z/3^6": (("Z/3^3", "Z/3^3"),),
                           "Z/4^4 x Z/2^2": (_SQUARE_PAIR,)},
    "thm-second": {},
}


@pytest.mark.parametrize("claim_id, bound, checked", [
    ("prop-ext-low", 32, 2838), ("prop-ext-low", 64, 11180),
    ("thm-main", 32, 4624), ("thm-main", 64, 19054),
    ("prop-product-types", 32, 6439), ("prop-product-types", 64, 26659),
    ("thm-second", 32, 4624), ("thm-second", 64, 19054),
])
def test_claim_reports_are_pinned(claim_id, bound, checked):
    report = CLAIMS[claim_id](bound)
    sources = _PINNED_SOURCES[claim_id]
    assert report.to_json_obj() == {
        "claim_id": claim_id, "bound": bound, "checked_pairs": checked,
        "witnesses": list(sources), "verdict": "pass", "vacuous": False}
    assert report.witness_sources == {
        parse_group(g): tuple((parse_group(h), parse_group(k))
                              for h, k in pairs)
        for g, pairs in sources.items()}


def test_closure_search_matches_window_search():
    # every g that the closure sweep of prop-product-types reaches at 32
    bound = 32
    claim = next(c for c in CLAIM_TABLE if c.claim_id == "prop-product-types")
    sweep = next(s for s in claim.sweeps if s.step == "closure")
    reached = set()
    for h in enumerate_family(sweep.left, bound):
        for k in enumerate_family(sweep.right, bound):
            if not (family_contains(h, sweep.target)
                    and family_contains(k, sweep.target)):
                reached |= extension_set(h, k).members
    assert len(reached) > 100
    for g in reached:
        assert _extends_two(g, sweep.target) == naive_extends_two(
            g, sweep.target, bound * bound), str(g)


def test_closure_search_on_small_groups():
    # A2 and A3p reach every group of order up to 256; A1 misses some
    verdicts = {}
    for g in all_abelian_groups_upto(256):
        for family in (A1, A2, A3P):
            verdict = _extends_two(g, family)
            assert verdict == naive_extends_two(g, family, 256), \
                (str(g), family.name)
            verdicts.setdefault(family.name, set()).add(verdict)
    assert verdicts == {"A1": {True, False}, "A2": {True}, "A3p": {True}}


def test_missing_expected_witness_fails_when_window_suffices():
    z45 = parse_group("Z/4^5")
    report = _finalize("thm-main", 64, 10, {}, {z45: 32}, time.perf_counter())
    assert report.verdict == "fail"
    report = _finalize("thm-main", 16, 10, {}, {z45: 32}, time.perf_counter())
    assert report.verdict == "pass" and report.vacuous


def test_unexpected_witness_fails():
    stray = parse_group("Z/2^8")
    report = _finalize("thm-main", 64, 10, {stray: {(stray, stray)}}, {},
                       time.perf_counter())
    assert report.verdict == "fail"
    assert stray in report.witnesses


def test_empty_sweep_is_vacuous():
    report = _finalize("thm-main", 1, 0, {}, {}, time.perf_counter())
    assert report.verdict == "pass" and report.vacuous


def test_regressions_pass():
    report = regression_expansions()
    assert report.verdict == "pass", report.details
    assert not report.details
    # nine concrete vectors plus every parameterized instantiation
    assert report.checked_pairs == 75


def test_regression_case_count():
    from abext.verify import _CONCRETE_PRODUCTS, _SHAPE_CASES, _SYMBOLIC_CASES
    assert len(_CONCRETE_PRODUCTS) == 9
    assert len(_SYMBOLIC_CASES) + len(_SHAPE_CASES) == 12
    from abext.verify import _assignments
    for case in _SYMBOLIC_CASES + _SHAPE_CASES:
        assert len(list(_assignments(case.params, case.ordered))) >= 3


def test_sporadic_extension_example():
    h = parse_group("Z/2")
    k = parse_group("Z/4^4")
    members = extension_set(h, k)
    assert members == extension_set(k, h)
    assert {str(g) for g in members} == {"Z/8 x Z/4^3", "Z/4^4 x Z/2"}
    for g in members:
        assert family_contains(g, PB4P)


def test_sporadic_square_extension_types():
    members = extension_set(parse_group("Z/2^2"), parse_group("Z/4^4"))
    assert {g.p_part(2) for g in members} == {
        (3, 3, 2, 2), (3, 2, 2, 2, 1), (2, 2, 2, 2, 1, 1)}
    for g in members:
        assert family_contains(g, PB4P)


def test_sporadic_rows_stay_in_product_type():
    sporadics = [parse_group(t) for t in
                 ("Z/4^4", "Z/8^2 x Z/4 x Z/2", "Z/6^2 x Z/3^2",
                  "Z/6^3 x Z/2")]
    for h in enumerate_family(A1, 8):
        for k in sporadics:
            for g in extension_set(h, k):
                assert family_contains(g, PB4P), (str(h), str(k), str(g))


def test_reports_are_deterministic():
    first = CLAIMS["thm-main"](32)
    second = CLAIMS["thm-main"](32)
    assert first.to_json_obj() == second.to_json_obj()
    assert first.witness_sources == second.witness_sources


def test_report_json_schema():
    report = CLAIMS["thm-main"](32)
    obj = report.to_json_obj()
    assert set(obj) == {"claim_id", "bound", "checked_pairs", "witnesses",
                        "verdict", "vacuous"}
    assert obj["claim_id"] == "thm-main"
    assert obj["witnesses"] == ["Z/4^5"]
    assert isinstance(obj["vacuous"], bool)


def test_witnesses_are_recheckable():
    report = CLAIMS["thm-main"](32)
    for g in report.witnesses:
        assert not family_contains(g, PA4P)
        for h, k in report.witness_sources[g]:
            assert g in extension_set(h, k)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="reads the peak RSS from /proc/self/status")
def test_thm_second_memory_ceiling():
    # a fresh process, so that memos filled by other tests do not count;
    # its ru_maxrss would not do, since Linux carries the launching
    # process's peak across exec.  Importing abext alone takes about 16 MB.
    code = ("from abext.verify import CLAIMS; "
            "print(CLAIMS['thm-second'](128).verdict); "
            "print(open('/proc/self/status').read())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    lines = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True,
                           check=True).stdout.splitlines()
    peak_kib = next(int(line.split()[1]) for line in lines
                    if line.startswith("VmHWM:"))
    assert lines[0] == "pass"
    assert peak_kib < 64 * 1024
