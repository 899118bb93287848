import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import time
from functools import reduce
from operator import and_

import pytest

from abext import groups, verify
from abext.cli import run
from abext.errors import ResourceLimitError
from abext.extensions import (GroupSet, brute_force_is_extension,
                              extension_set, subgroup_quotient_types)
from abext.families import (A1, A2, A3P, EVEN, FREE, PA4P, PB4P, TRIPLE,
                            Family, FamilyPattern, enumerate_family,
                            family_contains, fixed, member_types, row_mask)
from abext.groups import TRIVIAL, parse_group
from abext.lr import _lr_support, lr_positive
from abext.partitions import contains, partitions_of, size, union_merge
from abext.verify import (CLAIMS, CLAIM_TABLE, Claim, Sweep, _finalize,
                          _Options, _outside, _reach, _zero_pairs,
                          regression_expansions, run_claim)

from oracles import (all_abelian_groups_upto, naive_extends_two,
                     naive_run_claim, partitions_upto)


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
    # read-only fields, and the repr of the dataclass it replaced, which hid
    # witness_sources
    assert repr(report) == (
        "VerificationReport(claim_id='thm-main', bound=32, "
        "checked_pairs=4624, witnesses=GroupSet({Z/4^5}), verdict='pass', "
        "vacuous=False, details=())")
    for name in (*report._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)


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


# drop the Z/2k x Z/4^2 x Z/2 row; extensions reaching it must surface
_BROKEN = Family("A3p-broken", A3P.patterns[:1] + A3P.patterns[2:])
_CORRUPTED = Claim("corrupted", (Sweep("extension", A1, A2, _BROKEN),))
# the same, with one of the lost groups exceptional
_LOST = parse_group("Z/8 x Z/4^2 x Z/2")
_PATCHED = Claim("patched", (Sweep("extension", A1, A2, Family(
    "A3p-patched", _BROKEN.patterns, GroupSet([_LOST]))),))
# closure into an A2 without its Z/k x Z/l row: no member of A1 lies in it,
# and witnesses (the trivial group among them) appear in the smallest windows
_CORRUPTED_CLOSURE = Claim("corrupted-closure", (Sweep(
    "closure", A1, A3P, Family("A2-broken", A2.patterns[1:])),))
_CLAIMS_BY_ID = {claim.claim_id: claim for claim in
                 CLAIM_TABLE + (_CORRUPTED, _PATCHED, _CORRUPTED_CLOSURE)}


def test_corrupted_table_is_detected():
    report = run_claim(_CORRUPTED, 32)
    assert report.verdict == "fail", "corruption went unnoticed"
    assert _LOST in report.witnesses


def test_exceptional_target_members_are_not_witnesses():
    report = run_claim(_PATCHED, 32)
    assert report.verdict == "fail"
    assert set(report.witnesses) == (
        set(run_claim(_CORRUPTED, 32).witnesses) - {_LOST})


@pytest.mark.parametrize("claim", _CLAIMS_BY_ID.values(),
                         ids=lambda claim: claim.claim_id)
def test_run_claim_matches_naive_sweep(claim):
    report = run_claim(claim, 32)
    checked, witnesses = naive_run_claim(claim, 32)
    assert report.checked_pairs == checked
    assert report.witness_sources == {
        g: tuple(sorted(pairs)) for g, pairs in witnesses.items()}


def test_corrupted_closure_is_detected_in_small_windows():
    report = run_claim(_CORRUPTED_CLOSURE, 16)
    assert report.verdict == "fail" and report.witnesses


def _reports(claim_ids, bound):
    """JSON of the report and witness sources of each claim, run in turn."""
    out = []
    for claim_id in claim_ids:
        report = run_claim(_CLAIMS_BY_ID[claim_id], bound)
        sources = {str(g): [[str(h), str(k)] for h, k in pairs]
                   for g, pairs in report.witness_sources.items()}
        out.append([report.to_json_obj(), sources])
    return json.dumps(out)


def _reports_in_child(claim_ids, bound):
    """_reports of claims run in turn in one fresh process."""
    code = ("import sys, test_verify; "
            "print(test_verify._reports(sys.argv[1:-1], int(sys.argv[-1])))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return json.loads(subprocess.run(
        [sys.executable, "-c", code, *claim_ids, str(bound)], env=env,
        capture_output=True, text=True, check=True).stdout)


def test_tables_do_not_leak_between_targets():
    # the closure sweeps of both claims start from A1 x A3p, into A2 and
    # into the broken A2: each target's table must serve that target alone
    ids = ["prop-product-types", "corrupted-closure"]
    alone = [_reports_in_child([claim_id], 32)[0] for claim_id in ids]
    assert alone[1][0]["verdict"] == "fail"
    assert _reports_in_child(ids, 32) == alone
    assert _reports_in_child(ids[::-1], 32) == alone[::-1]


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
    ("prop-ext-low", 128, 44505), ("thm-main", 128, 78261),
    ("prop-product-types", 128, 109866), ("thm-second", 128, 78261),
    ("prop-ext-low", 256, 178358), ("thm-main", 256, 320754),
    ("prop-product-types", 256, 450539), ("thm-second", 256, 321011),
    ("prop-ext-low", 512, 714609), ("thm-main", 512, 1301251),
    ("prop-product-types", 512, 1828102), ("thm-second", 512, 1303303),
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


def _key(types):
    """A prime-type map in hashable form, to compare pairs by type."""
    return tuple(sorted(types.items()))


def _zero_pairs_by_loop(step, target, left, right):
    """The pairs of left x right, as _key pairs, for which some choice of
    one mask per prime ANDs to 0, pair by pair, with each result's mask
    taken from row_mask or _reach and not from the sweep table: the
    reference for the join in _zero_pairs."""
    mask_of = _reach if step == "closure" else row_mask
    n = len(target.rows)
    full = (1 << (n * n if step == "closure" else n)) - 1
    memo = {}

    def masks(p, a, b):
        if (p, a, b) not in memo:
            mus = ((union_merge(a, b),) if step == "product"
                   else _lr_support(a, b))
            memo[p, a, b] = {mask_of(target, p, mu) for mu in mus}
        return memo[p, a, b]

    return {(_key(ht), _key(kt)) for ht in left for kt in right
            if any(not reduce(and_, choice, full)
                   for choice in itertools.product(*(
                       masks(p, ht.get(p, ()), kt.get(p, ()))
                       for p in ht.keys() | kt.keys() | target.primes)))}


_EMPTY = Family("E", ())
# the one right member has no odd prime, so each odd prime of h is its own;
# (Z/5^2, Z/4^2 x Z/2) fails only there, in the one row that admits its 2-part
_SQUARE = Family("Z/4^2 x Z/2", A2.patterns[2:3])
_JOIN_SWEEPS = [sweep for claim in _CLAIMS_BY_ID.values()
                for sweep in claim.sweeps] + [
    Sweep(step, A1, A2, _EMPTY) for step in ("extension", "product", "closure")
] + [Sweep("extension", A2, _SQUARE, A2)]


@pytest.mark.parametrize("sweep", _JOIN_SWEEPS, ids=lambda s: "-".join(
    (s.step, s.left.name, s.right.name, s.target.name)))
def test_join_matches_per_pair_and(sweep):
    left, right = (list(member_types(f, 64))
                   for f in (sweep.left, sweep.right))
    for rhs in ([], right):
        joined = [(_key(ht), _key(kt)) for ht, kt in
                  _zero_pairs(_Options(sweep.step, sweep.target),
                              left, rhs)]
        expected = _zero_pairs_by_loop(sweep.step, sweep.target, left, rhs)
        assert len(joined) == len(set(joined))
        assert set(joined) == expected
    if sweep.target is _EMPTY:
        # no rows, so every pair is outside
        assert len(expected) == len(left) * len(right)
    if sweep.right is _SQUARE:
        assert (_key(parse_group("Z/5^2").prime_types()),
                _key(parse_group("Z/4^2 x Z/2").prime_types())) in expected


def test_join_tries_every_choice_of_masks():
    # at 5 and at 7 alike, the p-type (2) is admitted by row 0 alone and
    # (1, 1) by row 1 alone: neither prime alone reaches 0, and the two
    # primes reach it only when their choices differ, so a join that takes
    # one fixed mask per entry finds nothing
    target = Family("two-choices", (FamilyPattern((fixed(1225),)),
                                    FamilyPattern((fixed(35), fixed(35)))))
    table = _Options("extension", target)
    assert table.full == 0b11 and target.primes == {5, 7}
    z35 = parse_group("Z/35")
    both = z35.prime_types()
    assert list(_zero_pairs(table, [both], [both])) == [(both, both)]
    for p in (5, 7):
        assert table[p, (1,), (1,)] == (0b01, 0b10)
    assert [str(g) for g in _outside(table, z35, z35)] == [
        "Z/175 x Z/7", "Z/245 x Z/5"]


def test_table_entries_are_symmetric():
    # _Options stores one entry for (p, a, b) and (p, b, a); each side is
    # computed here in a table of its own.  Every entry is masks alone:
    # an ascending tuple of distinct ints, none of which contains another.
    # The tables are filled by joining the claims' members at 64
    tables = {}
    for sweep in (s for claim in CLAIM_TABLE for s in claim.sweeps):
        step, target = sweep.step, sweep.target
        table = tables.setdefault((step, target), _Options(step, target))
        left, right = (list(member_types(f, 64))
                       for f in (sweep.left, sweep.right))
        list(_zero_pairs(table, left, right))
    assert len(tables) == 7 and all(tables.values())
    for (step, target), table in tables.items():
        for (p, a, b), entry in list(table.items()):
            assert type(entry) is tuple and entry, (step, p, a, b)
            assert all(type(m) is int for m in entry), (step, p, a, b)
            assert list(entry) == sorted(set(entry)), (step, p, a, b)
            assert not any(o != m and o & m == o for o in entry
                           for m in entry), (step, p, a, b)
            assert (_Options(step, target)[p, a, b]
                    == _Options(step, target)[p, b, a]), (step, p, a, b)


def _entry_without_table(step, target, p, a, b):
    """The inclusion-minimal masks, ascending, of step's results on the
    p-types a and b, from row_mask or _reach alone: the reference for one
    entry of _Options."""
    mask_of = _reach if step == "closure" else row_mask
    mus = (union_merge(a, b),) if step == "product" else _lr_support(a, b)
    masks = {mask_of(target, p, mu) for mu in mus}
    return tuple(sorted(m for m in masks
                        if not any(o != m and o & m == o for o in masks)))


# rows at 2, 3 and 5, shaped like the target of tests/test_sweep_fuzz.py
_AT_2_3_5 = Family("rows-at-2-3-5", (
    FamilyPattern((FREE, FREE)), FamilyPattern((fixed(25), EVEN)),
    FamilyPattern((fixed(5), FREE, FREE))),
    GroupSet([parse_group("Z/3 x Z/9")]))


@pytest.mark.parametrize("step", ["extension", "product", "closure"])
def test_entries_outside_the_target_primes_are_one_mask(step):
    # at a prime no row names, masks shrink as the part count grows, so
    # the inclusion-minimal masks of the full support reduce to the mask
    # of union_merge(a, b), which lies inside the entry of ((), b).  The
    # join keys every such prime as class 0, whose entry is each prime's
    assert _AT_2_3_5.primes == {2, 3, 5}
    table = _Options(step, _AT_2_3_5)
    types = list(partitions_upto(4))
    for a, b in itertools.product(types, types):
        entry = table[0, a, b]
        assert len(entry) == 1, (a, b)
        for p in (7, 11, 13):
            assert entry == _entry_without_table(step, _AT_2_3_5, p, a, b)
        assert entry[0] & ~table[0, (), b][0] == 0, (a, b)


def _pairs_upto(total):
    """Every pair of partitions a, b with |a| + |b| <= total."""
    return [(a, b) for n in range(total + 1) for k in range(n + 1)
            for a in partitions_of(k) for b in partitions_of(n - k)]


def _cap(parts, c):
    return tuple(min(x, c) for x in parts)


def _join_key(table, p, a, b):
    """The key under which _zero_pairs looks up the p-types a and b: capped
    at a target prime, class 0 at any other."""
    if c := table.cap.get(p):
        return p, _cap(a, c), _cap(b, c)
    return 0, a, b


def _drawn_targets(count):
    """Targets drawn like the sweep fuzz's, each with a prime that only
    Z/2k or Z/3k slots demand, where no row fixes an exponent."""
    rng = random.Random(27)
    slots = [FREE, EVEN, TRIPLE] + [fixed(m) for m in (2, 3, 4, 5, 8, 9, 25)]
    targets = []
    while len(targets) < count:
        target = Family(f"drawn-{len(targets)}", tuple(
            FamilyPattern(tuple(rng.choices(slots, k=rng.randint(1, 4))))
            for _ in range(rng.randint(1, 4))))
        if any(all(p not in row.fixed for row in target.rows)
               for p in target.primes):
            targets.append(target)
    return targets


# each step into each target of the claims
_CLAIM_TABLES = list(dict.fromkeys((s.step, s.target) for claim in CLAIM_TABLE
                                   for s in claim.sweeps))


@pytest.mark.parametrize("step, target", _CLAIM_TABLES,
                         ids=lambda x: getattr(x, "name", x))
def test_capped_entries_match_the_real_ones(step, target):
    # every pair of p-types with at most 12 boxes in all at p = 2, and at
    # most 7 at p = 3: the entry filled from the capped key is the pair's
    table = _Options(step, target)
    for p, total in ((2, 12), (3, 7)):
        for a, b in _pairs_upto(total):
            assert table[_join_key(table, p, a, b)] == _entry_without_table(
                step, target, p, a, b), (p, a, b)


def test_capped_entries_match_at_primes_without_fixed_exponents():
    # at a prime that no row fixes, rows read only part counts, yet closure
    # masks tell (2) from (1): its cap there is 2, not 1
    targets = _drawn_targets(40)
    capped = 0
    for target, step in itertools.product(
            targets, ("extension", "product", "closure")):
        table = _Options(step, target)
        for p, c in table.cap.items():
            for a, b in _pairs_upto(6 if p == 2 else 4):
                assert table[_join_key(table, p, a, b)] == (
                    _entry_without_table(step, target, p, a, b)), (
                    target.rows, step, p, a, b)
                capped += (_cap(a, c), _cap(b, c)) != (a, b)
    assert capped > 1000


def test_capping_lemma_at_the_element_level():
    # the caps of the groups with a subgroup of type a and quotient of type
    # b equal those for cap a and cap b, by the element-level oracle and no
    # LR code: every p-group of order up to 2^8 and 3^6, caps 2-4 and 2-3
    compared = 0
    for p, top, caps in ((2, 8, (2, 3, 4)), (3, 6, (2, 3))):
        shapes = {}
        for mu in (mu for n in range(top + 1) for mu in partitions_of(n)):
            for a, b in subgroup_quotient_types(p, mu):
                shapes.setdefault((a, b), set()).add(mu)
        for c in caps:
            for (a, b), mus in shapes.items():
                key = _cap(a, c), _cap(b, c)
                if key != (a, b):
                    compared += 1
                    assert ({_cap(mu, c) for mu in mus} == {
                        _cap(mu, c) for mu in shapes[key]}), (p, c, a, b)
    assert compared > 500


def test_closure_cap_is_not_a_corollary_of_the_capping_lemma():
    # the lemma caps (a, b) at c = E + 1, but Z/16 has a (subgroup,
    # quotient) pair capped ((2), (2)) that no pair of Z/8 caps to, though
    # both cap to (3) at A1's closure cap; their closure masks agree only
    # because admission is monotone (Z/8's ((1), (2)) covers it)
    def capped_pairs(mu):
        return {(_cap(a, 2), _cap(b, 2))
                for a, b in subgroup_quotient_types(2, mu)}

    assert ((2,), (2,)) in capped_pairs((4,))
    assert ((2,), (2,)) not in capped_pairs((3,))
    assert _Options("closure", A1).cap[2] == 3
    assert _reach(A1, 2, (3,)) == _reach(A1, 2, (4,))


@pytest.mark.parametrize("claim", CLAIM_TABLE, ids=lambda c: c.claim_id)
def test_joins_look_up_capped_keys(claim, monkeypatch):
    # run_claim builds one table per (step, target), and its joins look up
    # (p, cap a, cap v) for every left p-type a and right p-type v at a
    # target prime, and class 0 at every other prime.  Each entry equals
    # the uncapped pair's: up to 24 boxes at 4096 (the capping lemma at
    # every size the window reaches)
    built, joins = [], []
    zero_pairs = verify._zero_pairs

    class Recording(_Options):
        def __init__(self, step, target):
            super().__init__(step, target)
            built.append(self)

    def recording(table, left, right):
        joins.append((table, left, right))
        return zero_pairs(table, left, right)

    monkeypatch.setattr(verify, "_Options", Recording)
    monkeypatch.setattr(verify, "_zero_pairs", recording)
    run_claim(claim, 4096)
    assert len(built) == len({(s.step, s.target) for s in claim.sweeps})
    pairs = {}
    for table, left, right in joins:
        for p in table.cap:
            # a join without right members looks up (p, cap a, ())
            pairs.setdefault((id(table), p), set()).update(itertools.product(
                {t.get(p, ()) for t in left},
                {t.get(p, ()) for t in right} or {()}))
    compared = 0
    for table in built:
        step, target = table.step, table.target
        assert all(p == 0 or p in table.cap for p, _, _ in table)
        for p in table.cap:
            those = pairs[id(table), p]
            assert {key for key in table if key[0] == p} == {
                _join_key(table, p, a, v) for a, v in those}, (step, p)
            for a, v in those:
                assert table[_join_key(table, p, a, v)] == (
                    _entry_without_table(step, target, p, a, v)), (p, a, v)
            compared += len(those)
    assert compared > 1000
    assert max(size(a) + size(v) for those in pairs.values()
               for a, v in those) == 24


def test_outside_runs_only_on_witness_pairs(monkeypatch):
    # _zero_pairs decides each pair exactly, so every pair it hands to
    # _outside has a witness: 3 pairs over the four claims at 64
    calls, outside = [], verify._outside
    monkeypatch.setattr(verify, "_outside", lambda *args: calls.append(
        outside(*args)) or calls[-1])
    for claim in CLAIM_TABLE:
        run_claim(claim, 64)
    assert len(calls) == 3 and all(calls)
    for claim in (_CORRUPTED, _PATCHED, _CORRUPTED_CLOSURE):
        assert run_claim(claim, 64).witnesses
    assert len(calls) > 3 and all(calls)


def test_groups_are_built_only_for_witness_pairs(monkeypatch):
    # members are read as prime types; each witness pair becomes two groups
    # in run_claim (its sources), which _outside takes to build its
    # results: thm-main's one pair has 15 extensions (2 + 15), and
    # prop-product-types' two pairs one product each (2 * (2 + 1))
    built, init = [], groups.AbelianGroup.__init__

    def counting(self, types):
        built.append(types)
        init(self, types)

    monkeypatch.setattr(groups.AbelianGroup, "__init__", counting)
    counts = {}
    for claim in CLAIM_TABLE:
        built.clear()
        run_claim(claim, 64)
        counts[claim.claim_id] = len(built)
    assert counts == {"prop-ext-low": 0, "thm-main": 17,
                      "prop-product-types": 6, "thm-second": 0}


@pytest.mark.parametrize("claim_id", ["prop-product-types",
                                      "corrupted-closure"])
def test_closure_split_only_skips_work(claim_id):
    # run_claim joins no closure pair of two target members; _outside
    # finds nothing on any of them, those _zero_pairs yields among them
    sweep = next(s for s in _CLAIMS_BY_ID[claim_id].sweeps
                 if s.step == "closure")
    table = _Options("closure", sweep.target)
    held = [[g for g in enumerate_family(f, 64)
             if family_contains(g, sweep.target)]
            for f in (sweep.left, sweep.right)]
    for h, k in itertools.product(*held):
        assert _outside(table, h, k) == [], (h, k)
    if claim_id == "prop-product-types":
        assert len(held[0]) * len(held[1]) > 1000



def test_sweep_refuses_an_unknown_step():
    with pytest.raises(ValueError) as info:
        Sweep("extention", A1, A1, A2)
    assert str(info.value) == ("unknown step 'extention': expected "
                               "'extension', 'product' or 'closure'")


def test_sweep_replace_validates_like_the_constructor():
    sweep = Sweep("extension", A1, A1, A2)
    assert sweep._replace(step="closure") == ("closure", A1, A1, A2)
    with pytest.raises(ValueError, match="unknown step 'extention'"):
        sweep._replace(step="extention")


def test_verify_bound_limit(monkeypatch):
    monkeypatch.setattr(verify, "MAX_VERIFY_BOUND", 16)
    assert CLAIMS["prop-ext-low"](16).verdict == "pass"
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as info:
        CLAIMS["thm-main"](17)
    assert time.perf_counter() - start < 1
    assert str(info.value) == "verification bound 17 exceeds the limit of 16"
    # the regression vectors are fixed, so their bound is only recorded
    assert regression_expansions(10 ** 9).verdict == "pass"


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
                reached |= extension_set(h, k)
    assert len(reached) > 100
    table = _Options("closure", sweep.target)
    for g in reached:
        # extension_set(g, TRIVIAL) is {g}
        inside = not _outside(table, g, TRIVIAL)
        assert inside == naive_extends_two(g, sweep.target, bound * bound), \
            str(g)


def test_closure_search_on_small_groups():
    # A2 and A3p reach every group of order up to 256; A1 misses some
    verdicts = {}
    tables = [_Options("closure", family) for family in (A1, A2, A3P)]
    for g in all_abelian_groups_upto(256):
        for table in tables:
            family = table.target
            verdict = not _outside(table, g, TRIVIAL)
            assert verdict == naive_extends_two(g, family, 256), \
                (str(g), family.name)
            verdicts.setdefault(family.name, set()).add(verdict)
    assert verdicts == {"A1": {True, False}, "A2": {True}, "A3p": {True}}


@pytest.mark.parametrize("step", ["extension", "product", "closure"])
def test_empty_target_has_every_result_outside(step):
    # with no rows and no primes to constrain, the masks AND over nothing
    table = _Options(step, Family("E", ()))
    assert _outside(table, TRIVIAL, TRIVIAL) == [TRIVIAL]
    z2 = parse_group("Z/2")
    assert _outside(table, z2, TRIVIAL) == [z2]


def test_missing_expected_witness_fails_when_window_suffices():
    z45 = parse_group("Z/4^5")
    report = _finalize("thm-main", 64, 10, {}, {z45: 32})
    assert report.verdict == "fail"
    report = _finalize("thm-main", 16, 10, {}, {z45: 32})
    assert report.verdict == "pass" and report.vacuous


def test_unexpected_witness_fails():
    stray = parse_group("Z/2^8")
    report = _finalize("thm-main", 64, 10, {stray: {(stray, stray)}}, {})
    assert report.verdict == "fail"
    assert stray in report.witnesses


def test_empty_sweep_is_vacuous():
    report = _finalize("thm-main", 1, 0, {}, {})
    assert report.verdict == "pass" and report.vacuous


def test_regressions_pass():
    report = regression_expansions()
    assert report.verdict == "pass", report.details
    assert not report.details
    # nine concrete vectors plus every parameterized instantiation
    assert report.checked_pairs == 75


def test_regressions_fail_on_a_wrong_reference(capsys, monkeypatch):
    # [1] * [1] = [2] + [1,1], and the exact reference misses [1,1];
    # [a] * [1] = [a+1] + [a,1], and the one template, a row of at least a
    # above a tail of [1], misses [a+1]
    monkeypatch.setattr(verify, "_EXACT_CASES", (
        ("[1]*[1]", lambda: ((1,), (1,), [(2,)])),))
    monkeypatch.setattr(verify, "_SHAPE_CASES", (
        ("[a]*[1]", lambda a: ((a,), (1,), [((a,), (1,))])),))
    details = ("[1]*[1]: support mismatch",
               "[a]*[1] at {'a': 1}: (2,) outside the stated shapes",
               "[a]*[1] at {'a': 2}: (3,) outside the stated shapes",
               "[a]*[1] at {'a': 3}: (4,) outside the stated shapes")
    report = regression_expansions()
    assert report.verdict == "fail" and not report.vacuous
    assert report.details == details
    assert report.checked_pairs == 4
    assert run(["verify", "regressions"]) == 1
    captured = capsys.readouterr()
    assert "verdict: fail" in captured.out.splitlines()
    assert captured.err == "".join(line + "\n" for line in details)


def test_regression_case_count():
    from abext.verify import _EXACT_CASES, _SHAPE_CASES, _runs
    cases = _EXACT_CASES + _SHAPE_CASES
    assert len({case_id for case_id, _ in cases}) == len(cases)
    runs = {case_id: len(list(_runs([(case_id, case)])))
            for case_id, case in cases}
    params = {case_id: len(inspect.signature(case).parameters)
              for case_id, case in cases}
    assert [runs[c] for c in runs if not params[c]] == [1] * 9
    parameterized = [runs[c] for c in runs if params[c]]
    assert len(parameterized) == 12
    assert min(parameterized) >= 3
    assert sum(runs.values()) == 75


def test_reach_matches_the_subdiagram_rule():
    # the reference sets row pairs (i, j) for every a, b inside mu of |mu|
    # boxes in total that the filling search finds mu in; it shares no code
    # with the strip traversal that _reach scatters its supports from
    for family in (A1, A2, A3P, _CORRUPTED_CLOSURE.sweeps[0].target):
        n = len(family.rows)
        for p in (2, 3, 5):
            for mu in partitions_upto(8):
                subs = [(a, m) for a in partitions_upto(size(mu))
                        if contains(mu, a) and (m := row_mask(family, p, a))]
                want = 0
                for (a, left), (b, right) in itertools.product(subs, subs):
                    if size(a) + size(b) == size(mu) and lr_positive(a, b, mu):
                        want |= sum(right << i * n for i in range(n)
                                    if left >> i & 1)
                assert _reach(family, p, mu) == want, (family.name, p, mu)


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


def test_witnesses_pass_independent_checks():
    # thm-main's witness at the element level, the product witnesses as
    # direct products of their source pairs
    report = CLAIMS["thm-main"](32)
    assert [str(g) for g in report.witnesses] == ["Z/4^5"]
    for g in report.witnesses:
        for h, k in report.witness_sources[g]:
            assert brute_force_is_extension(g, h, k)
    report = CLAIMS["prop-product-types"](32)
    assert {str(g) for g in report.witnesses} == {"Z/3^6", "Z/4^4 x Z/2^2"}
    for g in report.witnesses:
        for h, k in report.witness_sources[g]:
            assert h.direct_product(k) == g


def _claim_in_child(claim_id, bound):
    """Verdict and peak RSS in KiB of one claim run in a fresh process."""
    # a fresh process, so that memos filled by other tests do not count;
    # its ru_maxrss would not do, since Linux carries the launching
    # process's peak across exec.  Importing abext alone takes about 16 MB.
    code = ("from abext.verify import CLAIMS; "
            f"print(CLAIMS[{claim_id!r}]({bound}).verdict); "
            "print(open('/proc/self/status').read())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    lines = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True,
                           check=True).stdout.splitlines()
    peak_kib = next(int(line.split()[1]) for line in lines
                    if line.startswith("VmHWM:"))
    return lines[0], peak_kib


_ON_LINUX = pytest.mark.skipif(
    sys.platform != "linux",
    reason="reads the peak RSS from /proc/self/status")


@_ON_LINUX
def test_thm_second_memory_ceiling():
    verdict, peak_kib = _claim_in_child("thm-second", 128)
    assert verdict == "pass"
    assert peak_kib < 64 * 1024


@_ON_LINUX
def test_prop_product_types_memory_ceiling():
    verdict, peak_kib = _claim_in_child("prop-product-types", 128)
    assert verdict == "pass"
    assert peak_kib < 32 * 1024
