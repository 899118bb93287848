"""Bounded verification of the classification claims.

The four sweep claims are rows of one table, CLAIM_TABLE, and run_claim
runs any row.  A Claim holds its id, its sweeps and its expected
witnesses.  A Sweep pairs every member of a left family with every member
of a right family inside the order window and tests each result against a
target family.  There are three step kinds:

  extension  every extension of the pair lies in the target;
  product    the direct product of the pair lies in the target;
  closure    every extension of the pair is an extension of two target
             members.

_zero_pairs decides all three per prime, by bitmasks over the target's
rows (row_mask) or, for closure, over pairs of rows (_reach, filled from
the supports of all pairs of one size at once; its docstring argues that
it is exact).  run_claim keeps one table (_Options) per (step, target)
for the run, keyed by plain (p, h_p, k_p) tuples; at every prime and for
every step, an entry holds the inclusion-minimal masks of the key's
results, and (p, a, b) and (p, b, a) share one entry.  The join caps each
p-type at a target prime as it enters, every part above c lowered to c:
E + 1 for extension and product, as rows read no more of a p-type (E the
largest exponent they fix at p), and max(2E + 1, 2) for closure (Z/p^2
extends Z/p by Z/p; Z/p does not), and keys every other prime as class 0.
The capping lemma below proves E + 1 exact; the closure cap is tested,
not proved.
run_claim reads members as prime types from families.member_types and
does not loop over pairs: _zero_pairs joins each left member with all
right members at once and yields exactly the pairs where one mask per
prime can AND to 0; only those become groups, and _outside builds their
results (extension_set or the direct product) and keeps those outside
the target.  A closure pair of two target members is skipped, since its
extensions are extensions of those two, but counted.  No test uses a
truncated enumeration, so a pass verifies the claim restricted to pairs
within the window, whose bound is at most MAX_VERIFY_BOUND.

Reports distinguish three outcomes.  A claim fails when an unexpected
witness appears, or when an expected witness is missing although the pair
that produces it fits inside the window.  A pass is vacuous when expected
witnesses are missing only because the window is too small to reach them,
or when the sweep is empty.  Otherwise the claim passes.

Claim ids: prop-ext-low, thm-main, prop-product-types, thm-second,
regressions.  The regression claim replays reference Young-diagram
products: nine concrete ones and twelve parameterized ones.  Each case is
a function of its parameters that returns (lam, nu, reference), and runs
at every value 1, 2, 3 of each parameter that makes lam and nu partitions.
Ten references list the exact support, without the terms that stop being
partitions at small parameters; two list the shapes every term must fit.

The capping lemma.  Let cap_c(mu) be mu with every part above c lowered
to c.  For partitions a, b and c >= 1, the caps of lr_support(a, b) are
the caps of lr_support(cap_c a, cap_c b).  Proof.  By Green's theorem
(Macdonald, Symmetric Functions and Hall Polynomials, ch. II, section 4;
Fulton, Bull. AMS 37 (2000); lr_positive rests on it), lr_support(a, b)
is the set of types of the finite abelian p-groups G with a subgroup A
of type a and G/A of type b; and the type of X/p^cX is cap_c of the type
of X.  Subgroup side: A/p^cA, of type cap_c a, is a subgroup of G/p^cA
with quotient B = G/A, and G/p^cA has the cap of G: p^cA lies in p^cG,
so (G/p^cA)/p^c(G/p^cA) = G/p^cG.  Every extension of B by A/p^cA arises
so, as G -> G/p^cA is the pushout along the surjection A -> A/p^cA, and
Ext^1(B, A) -> Ext^1(B, A/p^cA) is onto because Ext^2 vanishes over Z.
So the caps over (a, b) are those over (cap_c a, b).  Quotient side:
c^mu_ab = c^mu_ba, the duality G -> Hom(G, Q/Z) that
subgroup_quotient_types spells out, so the same step caps b.  Hence
extension tables are exact at c = E + 1: FamilyPattern.admits reads at p
only len(parts) and parts.count(e) for fixed e <= E, and cap_(E+1) keeps
both.  Product tables are exact too, as union_merge commutes with caps.

The closure cap C = max(2E + 1, 2) is tested, to 24 boxes (all a window
of 4096 pairs), but not proved: _reach must read only cap_C mu, and that
does not follow from the lemma.  At p = 2 and E = 1 (c = 2, C = 3), Z/16
has the subgroup Z/4 with quotient Z/4, capped ((2), (2)), and no pair
of Z/8 caps to that, though both groups cap to (3).  Their masks agree
because admission is monotone: lowering a part above E to some e <= E
keeps len(parts) and raises count(e), so every row that admits a p-type
admits the result, and Z/8's ((1), (2)) covers Z/16's ((2), (2)).  A
proof must use this monotonicity; the tests pin both it and this pair.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache, partial, reduce
from operator import and_, ge

from .errors import ResourceLimitError
from .extensions import extension_set
from .families import (A1, A2, A3P, B3P, PA4P, PB4P, A1xA3P, A2xA2, Family,
                       _admits, family_product, member_types, row_mask)
from .groups import AbelianGroup, GroupSet
from .lr import _lr_support, lr_support
from .partitions import (Partition, make_partition, partitions_of, size,
                         union_merge)

DEFAULT_BOUND = 64
# claim time about doubles per doubling of the bound: 1.0 s at most at 4096
# (CPU time, Python 3.11 on a shared 2-core machine)
MAX_VERIFY_BOUND = 4096


class VerificationReport(namedtuple(
        "VerificationReport", "claim_id bound checked_pairs witnesses verdict "
        "vacuous witness_sources details", defaults=(None, ()))):
    """Outcome of one bounded verification run.  witness_sources, a new dict
    by default and left out of the repr, maps each witness to its pairs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        return (report if report.witness_sources is not None
                else report._replace(witness_sources={}))

    def __repr__(self) -> str:
        return "VerificationReport(%s)" % ", ".join(
            f"{k}={v!r}" for k, v in self._asdict().items()
            if k != "witness_sources")

    @property
    def exit_code(self) -> int:
        if self.verdict == "fail":
            return 1
        return 2 if self.vacuous else 0

    def to_json_obj(self) -> dict:
        obj = dict(self._asdict(), witnesses=[str(g) for g in self.witnesses])
        del obj["witness_sources"], obj["details"]
        return obj


def _finalize(claim_id, bound, checked, witnesses, expected,
              details=()) -> VerificationReport:
    # expected maps each anticipated witness to the smallest window bound
    # whose sweep produces it
    found = GroupSet(witnesses)
    unexpected = [g for g in found if g not in expected]
    missing = [g for g in expected if g not in witnesses]
    fail = (bool(unexpected) or bool(details)
            or any(expected[g] <= bound for g in missing))
    vacuous = not fail and (bool(missing) or checked == 0)
    # keyed in witness order, since sweeps visit extensions unordered
    sources = {g: tuple(sorted(witnesses[g])) for g in found}
    return VerificationReport(
        claim_id=claim_id,
        bound=bound,
        checked_pairs=checked,
        witnesses=found,
        verdict="fail" if fail else "pass",
        vacuous=vacuous,
        witness_sources=sources,
        details=tuple(details),
    )


class Sweep(namedtuple("Sweep", "step left right target")):
    """Every pair of a left and a right family member inside the window;
    each result of step ("extension", "product" or "closure") is tested
    against the target family."""

    __slots__ = ()

    def __new__(cls, step: str, left: Family, right: Family, target: Family):
        if step not in ("extension", "product", "closure"):
            raise ValueError(f"unknown step {step!r}: expected "
                             f"'extension', 'product' or 'closure'")
        return super().__new__(cls, step, left, right, target)

    # _replace builds through _make, so it validates too
    _make = classmethod(lambda cls, fields: cls(*fields))


class Claim(namedtuple("Claim", "claim_id sweeps expected")):
    """A bounded claim: its sweeps, and its expected witnesses (a new empty
    dict by default), each mapped to the smallest window bound whose sweep
    produces it."""

    __slots__ = ()

    def __new__(cls, claim_id, sweeps, expected=None):
        return super().__new__(cls, claim_id, sweeps,
                               {} if expected is None else expected)


def run_claim(claim: Claim, bound: int = DEFAULT_BOUND) -> VerificationReport:
    """Run every sweep of claim inside the window and judge the witnesses.

    _zero_pairs joins the left members, read as prime types, with the right
    ones and yields only the pairs that have a witness; only those become
    groups, with the results _outside builds.  A bound above
    MAX_VERIFY_BOUND raises ResourceLimitError before any enumeration.
    """
    if bound > MAX_VERIFY_BOUND:
        raise ResourceLimitError(f"verification bound {bound} exceeds the "
                                 f"limit of {MAX_VERIFY_BOUND}")
    members: dict = {}
    tables: dict = {}
    witnesses: dict = {}
    checked = 0
    for sweep in claim.sweeps:
        for family in (sweep.left, sweep.right):
            if family not in members:
                members[family] = list(member_types(family, bound))
        step, target = sweep.step, sweep.target
        if (step, target) not in tables:
            tables[step, target] = _Options(step, target)
        table = tables[step, target]
        left, right = members[sweep.left], members[sweep.right]
        checked += len(left) * len(right)
        joins = [(left, right)]
        if step == "closure":
            # extensions of two target members are never witnesses; the
            # split only skips work, but joined, those pairs fill closure
            # entries that cost time and memory at large windows
            held = partial(_admits, target)
            joins = [([t for t in left if not held(t)], right),
                     ([t for t in left if held(t)],
                      [t for t in right if not held(t)])]
        for lhs, rhs in joins:
            for ht, kt in _zero_pairs(table, lhs, rhs):
                pair = AbelianGroup(ht), AbelianGroup(kt)
                for g in _outside(table, *pair):
                    witnesses.setdefault(g, set()).add(pair)
    return _finalize(claim.claim_id, bound, checked, witnesses, claim.expected)


def _zero_pairs(table: _Options, left: list, right: list):
    """The pairs (ht, kt) of left x right, given as prime types, that have
    a witness: some choice of one mask per prime from their entries in
    table ANDs to 0.

    A join over the right members instead of a loop over pairs.  cols[p]
    maps each p-type v to the bitset of right indices j with that p-type,
    () for the members that lack p; p-types enter capped at table.cap, so
    equal capped types share a column and a lane.  Every choice of masks
    for the pair (ht, right[j]) lies in some vector of lanes (_lanes), one
    per prime.  ANDing a vector leaves bit r * m + j exactly when row r
    (row pair for closure) survives that choice; folding the rows by
    doubling shifts leaves the right members that some row admits.  base
    ANDs the lanes of () at the primes outside target.primes once, which
    is exact: there a row admits a p-type of at most params parts, and
    _reach sets (i, j) for a mu of at most params_i + params_j parts
    (union_merge of a split of mu's rows), so masks shrink as parts grow.
    union_merge(a, v) has the most parts in lr_support(a, v), so the
    entry's minimal masks are its mask alone, which lies inside the entry
    of ((), v).
    """
    target = table.target
    m, n = len(right), table.full.bit_length()
    every = (1 << m) - 1

    def capped(p, t):
        c = table.cap.get(p)
        return tuple(min(x, c) for x in t) if c else t

    cols: dict = {}
    for j, kt in enumerate(right):
        for p, v in kt.items():
            v = capped(p, v)
            col = cols.setdefault(p, {})
            col[v] = col.get(v, 0) | 1 << j
    for col in cols.values():
        if lack := every - sum(col.values()):
            col[()] = lack
    base = reduce(and_, (_lanes(table, p, (), cols[p], m)[0] for p in
                         cols.keys() - target.primes), (1 << n * m) - 1)
    spans = [m << i for i in range((n - 1).bit_length())]
    lanes: dict = {}
    for ht in left:
        keys = [(p, capped(p, ht.get(p, ())))
                for p in target.primes | ht.keys()]
        for p, a in keys:
            if (p, a) not in lanes:
                lanes[p, a] = _lanes(table, p, a, cols.get(p, {(): every}), m)
        dead = 0
        for vector in itertools.product(*map(lanes.get, keys)):
            y = reduce(and_, vector, base)
            for span in spans:
                y |= y >> span
            dead |= every & ~y
        while dead:
            low = dead & -dead
            yield ht, right[low.bit_length() - 1]
            dead ^= low


def _lanes(table: _Options, p: int, a: Partition, col: dict, m: int):
    """One lane per choice index c below the longest entry (a, v) over the
    p-types v of col: bit r * m + j is set when row r is in the c-th mask
    of (a, v_j), or in its last mask when it has fewer.  Entries are read
    at p for a target prime and at class 0 for any other."""
    q = p if p in table.target.primes else 0
    entries = [(bits, table[q, a, v]) for v, bits in col.items()]
    lanes = [0] * max((len(e) for _, e in entries), default=1)
    for c in range(len(lanes)):
        for bits, e in entries:
            mask = e[min(c, len(e) - 1)]
            for r in range(mask.bit_length()):
                if mask >> r & 1:
                    lanes[c] |= bits << r * m
    return lanes


def _outside(table: _Options, h: AbelianGroup,
             k: AbelianGroup) -> list[AbelianGroup]:
    """The results of table's step on (h, k) whose masks (row_mask, or
    _reach for closure) AND to 0 over the primes.  The sweep calls it only
    on the pairs that _zero_pairs yields."""
    target = table.target
    primes = {*h.primes, *k.primes} | target.primes
    return [g for g in ((h.direct_product(k),) if table.step == "product"
                        else extension_set(h, k))
            if not reduce(and_, (table.mask_of(target, p, g.p_part(p))
                                 for p in primes), table.full)]


class _Options(dict):
    """(p, a, b) -> the inclusion-minimal masks, ascending, of the
    results of step on p-types a and b (union_merge for a product,
    lr_support otherwise), for one step into one target, filled on first
    lookup.  The rule holds at every prime and for every step; at a p
    outside target.primes it leaves one mask (_zero_pairs argues why),
    the same at every such p, which the join keys as class 0.  mask_of
    gives each result's mask: row_mask, or _reach for closure.  (p, a, b)
    and (p, b, a) share one entry, filled once.  cap[p], at each p in
    target.primes, is the part size to which the join lowers p-types
    before it looks them up: E + 1, or max(2E + 1, 2) for closure, with E
    the largest exponent target's rows fix at p (the module docstring's
    capping lemma proves E + 1; the closure cap is tested, not proved).
    Its keys hold no Family, so a lookup hashes only ints and partitions.
    full has a bit for every row (every row pair for closure).  run_claim
    keeps one table per (step, target) for the run.
    """

    def __init__(self, step: str, target: Family):
        super().__init__()
        self.step, self.target = step, target
        self.mask_of = _reach if step == "closure" else row_mask
        n = len(target.rows)
        self.full = (1 << (n * n if step == "closure" else n)) - 1
        top = {p: max((e for row in target.rows for e in row.fixed.get(p, ())),
                      default=0) for p in target.primes}
        self.cap = {p: max(2 * e + 1, 2) if step == "closure" else e + 1
                    for p, e in top.items()}

    def __missing__(self, key: tuple[int, Partition, Partition]):
        p, a, b = key
        if (p, b, a) in self:
            # c^mu_ab = c^mu_ba and union_merge is symmetric, and each mask
            # depends on mu alone
            self[key] = entry = self[p, b, a]
            return entry
        mus = ((union_merge(a, b),) if self.step == "product"
               else _lr_support(a, b))
        masks = {self.mask_of(self.target, p, mu) for mu in mus}
        # a mask that contains another never lets a choice reach 0
        self[key] = entry = tuple(sorted(
            m for m in masks if not any(o != m and o & m == o for o in masks)))
        return entry


def _reach(family: Family, p: int, mu: Partition) -> int:
    """Bitmask over row pairs: bit i * len(rows) + j is set when some a, b
    with mu in lr_support(a, b) have rows[i] admitting a and rows[j] b at p.
    _reach_by_size scatters each pair's support, which loses nothing: mu in
    lr_support(a, b) already forces a, b inside mu and |a| + |b| = |mu|.

    Exact for closure: g is an extension of k by h when every p-part has a
    positive coefficient for (h_p, k_p), which puts h_p and k_p inside g_p
    and h, k inside g's primes (|h||k| = |g|).  Rows split over primes too,
    so g extends members of rows i and j exactly when bit (i, j) survives
    the AND of _reach over the primes of g and of the rows.
    """
    p = p if p in family.primes else 0
    return _reach_by_size(family, p, size(mu)).get(mu, 0)


@lru_cache(maxsize=None)
def _reach_by_size(family: Family, p: int, total: int) -> dict:
    """mu -> _reach(family, p, mu) for the mu of total boxes."""
    n = len(family.rows)
    # right * spread is right << i * n summed over the rows i admitting a
    typed = [[(a, m, sum(1 << i * n for i in range(n) if m >> i & 1))
              for a in partitions_of(k) if (m := row_mask(family, p, a))]
             for k in range(total + 1)]
    reach: dict = {}
    for k in range(total // 2 + 1):
        for i, (a, left, ls) in enumerate(typed[k]):
            # each unordered pair once, in both orders: supports are symmetric
            for b, right, rs in typed[total - k][i if 2 * k == total else 0:]:
                pairs = right * ls | left * rs
                for mu in _lr_support(a, b):
                    reach[mu] = reach.get(mu, 0) | pairs
    return reach


_A1xA1 = family_product(A1, A1, "A1xA1")

CLAIM_TABLE = (
    # extensions over the two smallest families stay of product type
    Claim("prop-ext-low", (
        Sweep("extension", A1, A1, _A1xA1),
        Sweep("extension", A1, A2, A3P))),
    # extensions over A2 x A2 and A1 x A3p land in PA4p, except Z/4^5
    # (produced by the pair Z/4^2 x Z/2 with itself)
    Claim("thm-main", (
        Sweep("extension", A2, A2, PA4P),
        Sweep("extension", A1, A3P, PA4P)),
        {AbelianGroup.parse("Z/4^5"): 32}),
    # direct products over A2 x A2 leave the A1 x A3p product family only
    # at Z/3^6 and Z/4^4 x Z/2^2; A1 x A3p products lie in the A2 x A2
    # product family, and every extension over A1 x A3p is an extension of
    # two A2 members
    Claim("prop-product-types", (
        Sweep("product", A2, A2, A1xA3P),
        Sweep("product", A1, A3P, A2xA2),
        Sweep("closure", A1, A3P, A2)),
        {AbelianGroup.parse("Z/3^6"): 27,
         AbelianGroup.parse("Z/4^4 x Z/2^2"): 32}),
    # extensions over B1 x B3p and B2 x B2 land in PB4p (B1 = A1, B2 = A2)
    Claim("thm-second", (
        Sweep("extension", A1, B3P, PB4P),
        Sweep("extension", A2, A2, PB4P))),
)


# --- reference expansion vectors ---------------------------------------

# Each case maps its parameters to (lam, nu, reference).  An exact case's
# reference lists the support of lam * nu; terms that are not partitions at
# small parameters are dropped.  A shape case's reference lists templates
# (lower bounds, tail): a term fits when its leading rows are at least the
# bounds and the rest are exactly the tail.

_EXACT_CASES = (
    ("[2,1]*[1,1]", lambda: ((2, 1), (1, 1), [
        (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)])),
    ("[2,2,1]*[2,2,1]", lambda: ((2, 2, 1), (2, 2, 1), [
        (4, 4, 2), (4, 4, 1, 1), (4, 3, 3), (4, 3, 2, 1), (4, 3, 1, 1, 1),
        (4, 2, 2, 2), (4, 2, 2, 1, 1), (3, 3, 3, 1), (3, 3, 2, 2),
        (3, 3, 2, 1, 1), (3, 3, 1, 1, 1, 1), (3, 2, 2, 2, 1),
        (3, 2, 2, 1, 1, 1), (2, 2, 2, 2, 2), (2, 2, 2, 2, 1, 1)])),
    ("[2,2,1]*[1,1,1,1]", lambda: ((2, 2, 1), (1, 1, 1, 1), [
        (3, 3, 2, 1), (3, 3, 1, 1, 1), (3, 2, 2, 1, 1), (3, 2, 1, 1, 1, 1),
        (2, 2, 2, 1, 1, 1), (2, 2, 1, 1, 1, 1, 1)])),
    ("[1,1,1]*[1,1,1]", lambda: ((1, 1, 1), (1, 1, 1), [
        (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)])),
    ("[1,1,1,1]*[1,1,1,1]", lambda: ((1, 1, 1, 1), (1, 1, 1, 1), [
        (2, 2, 2, 2), (2, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1),
        (2, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 1)])),
    ("[1,1]*[2,2,2,2]", lambda: ((1, 1), (2, 2, 2, 2), [
        (3, 3, 2, 2), (3, 2, 2, 2, 1), (2, 2, 2, 2, 1, 1)])),
    ("[1,1]*[3,3,2,1]", lambda: ((1, 1), (3, 3, 2, 1), [
        (4, 4, 2, 1), (4, 3, 3, 1), (4, 3, 2, 2), (4, 3, 2, 1, 1),
        (3, 3, 3, 2), (3, 3, 3, 1, 1), (3, 3, 2, 2, 1), (3, 3, 2, 1, 1, 1)])),
    ("[1,1]*[1,1]", lambda: ((1, 1), (1, 1), [
        (2, 2), (2, 1, 1), (1, 1, 1, 1)])),
    ("[1,1]*[1,1,1,1]", lambda: ((1, 1), (1, 1, 1, 1), [
        (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)])),
    ("[a,b]*[2,2,1]", lambda a, b: ((a, b), (2, 2, 1), [
        (a + 2, b + 2, 1), (a + 2, b + 1, 2), (a + 2, b + 1, 1, 1),
        (a + 2, b, 2, 1), (a + 1, b + 2, 2), (a + 1, b + 2, 1, 1),
        (a + 1, b + 1, 2, 1), (a + 1, b + 1, 1, 1, 1), (a + 1, b, 2, 2),
        (a + 1, b, 2, 1, 1), (a, b + 2, 2, 1), (a, b + 1, 2, 2),
        (a, b + 1, 2, 1, 1), (a, b, 2, 2, 1)])),
    ("[a,b]*[1,1,1]", lambda a, b: ((a, b), (1, 1, 1), [
        (a + 1, b + 1, 1), (a + 1, b, 1, 1), (a, b + 1, 1, 1),
        (a, b, 1, 1, 1)])),
    ("[a,b]*[1,1,1,1]", lambda a, b: ((a, b), (1, 1, 1, 1), [
        (a + 1, b + 1, 1, 1), (a + 1, b, 1, 1, 1), (a, b + 1, 1, 1, 1),
        (a, b, 1, 1, 1, 1)])),
    ("[a+1,1,1]*[2,2,1]", lambda a: ((a + 1, 1, 1), (2, 2, 1), [
        (a + 3, 3, 2), (a + 3, 3, 1, 1), (a + 3, 2, 2, 1), (a + 3, 2, 1, 1, 1),
        (a + 2, 3, 3), (a + 2, 3, 2, 1), (a + 2, 3, 1, 1, 1), (a + 2, 2, 2, 2),
        (a + 2, 2, 2, 1, 1), (a + 2, 2, 1, 1, 1, 1), (a + 1, 3, 3, 1),
        (a + 1, 3, 2, 2), (a + 1, 3, 2, 1, 1), (a + 1, 2, 2, 2, 1),
        (a + 1, 2, 2, 1, 1, 1)])),
    ("[a]*[1,1,1]", lambda a: ((a,), (1, 1, 1), [
        (a + 1, 1, 1), (a, 1, 1, 1)])),
    ("[a+1,1,1]*[1,1,1,1]", lambda a: ((a + 1, 1, 1), (1, 1, 1, 1), [
        (a + 2, 2, 2, 1), (a + 2, 2, 1, 1, 1), (a + 2, 1, 1, 1, 1, 1),
        (a + 1, 2, 2, 1, 1), (a + 1, 2, 1, 1, 1, 1),
        (a + 1, 1, 1, 1, 1, 1, 1)])),
    ("[a]*[2,2,2,2]", lambda a: ((a,), (2, 2, 2, 2), [
        (a + 2, 2, 2, 2), (a + 1, 2, 2, 2, 1), (a, 2, 2, 2, 2)])),
    ("[a]*[3,3,2,1]", lambda a: ((a,), (3, 3, 2, 1), [
        (a + 3, 3, 2, 1), (a + 2, 3, 3, 1), (a + 2, 3, 2, 2),
        (a + 2, 3, 2, 1, 1), (a + 1, 3, 3, 2), (a + 1, 3, 3, 1, 1),
        (a + 1, 3, 2, 2, 1), (a, 3, 3, 2, 1)])),
    ("[a]*[1,1,1,1]@p3", lambda a: ((a,), (1, 1, 1, 1), [
        (a + 1, 1, 1, 1), (a, 1, 1, 1, 1)])),
    ("[a]*[1,1,1,1]@p2", lambda a: ((a,), (1, 1, 1, 1), [
        (a + 1, 1, 1, 1), (a, 1, 1, 1, 1)])),
)

_SHAPE_CASES = (
    ("[a,b]*[c+1,1,1]", lambda a, b, c: ((a, b), (c + 1, 1, 1), [
        ((a, b, 1), ()), ((a, b, 1), (1,)), ((a, b, 1), (1, 1))])),
    ("[a+1,1,1]*[c+1,1,1]", lambda a, c: ((a + 1, 1, 1), (c + 1, 1, 1), [
        ((c + 1, 1), (1, 1, 1, 1)), ((c + 1, 1), (1, 1, 1)),
        ((c + 1, 1), (1, 1)), ((c + 1, 1), (2,)), ((c + 1, 1), (2, 1, 1)),
        ((c + 1, 1), (2, 1)), ((c + 1, 1), (2, 2))])),
)


def _runs(table):
    """(label, lam, nu, reference) for each case of table at every value 1,
    2, 3 of its parameters that makes lam and nu partitions."""
    for case_id, case in table:
        names = case.__code__.co_varnames[:case.__code__.co_argcount]
        for values in itertools.product((1, 2, 3), repeat=len(names)):
            lam, nu, reference = case(*values)
            if make_partition(lam) == lam and make_partition(nu) == nu:
                env = dict(zip(names, values))
                label = f"{case_id} at {env}" if env else case_id
                yield label, lam, nu, reference


def regression_expansions(bound: int = DEFAULT_BOUND) -> VerificationReport:
    """Replay the reference expansion vectors against lr_support.

    The bound is recorded in the report but plays no role; the vectors are
    fixed.  Failures are listed in the report details.
    """
    checked = 0
    failures = []
    for label, lam, nu, terms in _runs(_EXACT_CASES):
        checked += 1
        expected = {t for t in terms if make_partition(t) == t}
        if frozenset(lr_support(lam, nu)) != expected:
            failures.append(f"{label}: support mismatch")
    for label, lam, nu, templates in _runs(_SHAPE_CASES):
        checked += 1
        for mu in lr_support(lam, nu):
            if not any(len(mu) == len(low) + len(tail)
                       and mu[len(low):] == tail and all(map(ge, mu, low))
                       for low, tail in templates):
                failures.append(f"{label}: {mu} outside the stated shapes")
    return _finalize("regressions", bound, checked, {}, {}, details=failures)


CLAIMS = {claim.claim_id: partial(run_claim, claim) for claim in CLAIM_TABLE}
CLAIMS["regressions"] = regression_expansions
