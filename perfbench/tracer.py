"""Per-layer tracing of abext from outside the program.

The tracer wraps public functions of each layer and installs every wrapper
in each abext module that holds a reference to the original, so calls made
through module globals are traced as well as calls made through the
package.  Nothing under src/ changes.

A span records a name, a start, an end and the span that caused it.  Spans
are aggregated in memory per (name, parent name) as call count, total time
and self time (total time minus the time covered by child spans), and are
written out when the run ends.  Wrappers may also record, per name, how
many calls repeat arguments already seen in the run (the best hit ratio any
cache could reach), the summed size of results, and the share of true
results of predicates.  The __hash__ wrappers count calls only: timing
millions of hash calls would swamp the trace.

The program is single-threaded and does no I/O on its hot path, so no span
waits on anything; the trace reports busy time only.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict


class Tracer:
    """Aggregated spans and counters of one traced process."""

    def __init__(self):
        self._stack = []            # open frames: [name, child time]
        self.spans = {}             # (name, parent) -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self._seen = defaultdict(set)
        self._gc_start = None

    # -- wrappers -------------------------------------------------------

    def timed(self, name, fn, *, key=None, size=None, predicate=False,
              observe=None):
        """A wrapper around fn that records one span per call.

        key(args) gives a hashable form of the arguments for repeat
        counting; size(result) a result size summed into '<name>.out';
        predicate counts true results into '<name>.true'; observe(result,
        counts) may record further counters.
        """
        stack = self._stack
        spans = self.spans
        counts = self.counts
        seen = self._seen[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                k = hash(key(args))
                if k in seen:
                    counts[name + ".repeat"] += 1
                else:
                    seen.add(k)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = spans.get((name, parent))
                if record is None:
                    record = spans[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if size is not None:
                counts[name + ".out"] += size(result)
            if predicate and result:
                counts[name + ".true"] += 1
            if observe is not None:
                observe(result, counts)
            return result

        return wrapper

    def counted(self, name, fn):
        """A wrapper around fn that only counts calls."""
        counts = self.counts
        counter = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    @staticmethod
    def rebind(original, replacement):
        """Replace every module-level reference to original in abext and its
        submodules; returns the number of references."""
        n = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "abext"
                                      or mod_name.startswith("abext.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    n += 1
        return n

    def install_function(self, module, attr, name, **options):
        original = getattr(module, attr)
        wrapped = self.timed(name, original, **options)
        if not self.rebind(original, wrapped):
            raise LookupError(f"no module references {module.__name__}.{attr}")
        return wrapped

    def install_method(self, cls, attr, name, *, count_only=False, **options):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.timed(name, raw.__func__, **options))
        elif count_only:
            wrapped = self.counted(name, raw)
        else:
            wrapped = self.timed(name, raw, **options)
        setattr(cls, attr, wrapped)
        return wrapped

    def watch_gc(self):
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.counts["py.gc.collections"] += 1
            self.counts["py.gc.pause_s"] += time.perf_counter() - self._gc_start
            self._gc_start = None

    def close(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        """The aggregated spans and counters as plain JSON data."""
        return {
            "spans": [{"name": name, "parent": parent, "calls": calls,
                       "total_s": total, "self_s": self_s}
                      for (name, parent), (calls, total, self_s)
                      in sorted(self.spans.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
        }


def _group_key(args):
    # groups hash cheaply (the hash is cached); families and patterns are
    # long-lived module objects and are keyed by identity, so that repeat
    # counting does not call their costly dataclass hash
    return tuple(a if type(a).__name__ not in ("Family", "FamilyPattern")
                 else id(a) for a in args)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every abext layer."""
    from abext import cli, extensions, families, groups, lr, verify

    t = tracer
    t.install_function(lr, "lr_expand", "lr.lr_expand", key=tuple, size=len)
    t.install_function(lr, "lr_positive", "lr.lr_positive", key=tuple)
    t.install_function(lr, "lr_coefficient", "lr.lr_coefficient")

    t.install_function(families, "family_contains",
                       "families.family_contains", key=_group_key,
                       predicate=True)
    t.install_function(families, "matches", "families.matches",
                       key=_group_key)
    t.install_function(families, "enumerate_family",
                       "families.enumerate_family", size=len)
    t.install_method(families.Family, "__hash__", "families.Family.hash",
                     count_only=True)
    t.install_method(families.FamilyPattern, "__hash__",
                     "families.FamilyPattern.hash", count_only=True)

    t.install_method(groups.AbelianGroup, "__init__",
                     "groups.AbelianGroup.init")
    t.install_method(groups.AbelianGroup, "__str__",
                     "groups.AbelianGroup.str")
    product = t.install_method(groups.AbelianGroup, "direct_product",
                               "groups.AbelianGroup.direct_product")
    groups.AbelianGroup.__mul__ = product
    t.install_method(groups.AbelianGroup, "parse", "groups.AbelianGroup.parse")
    t.install_function(groups, "factorize", "groups.factorize")

    t.install_method(extensions.GroupSet, "__iter__",
                     "extensions.GroupSet.iter")
    t.install_function(extensions, "extension_set",
                       "extensions.extension_set", key=_group_key, size=len)
    t.install_function(extensions, "is_extension", "extensions.is_extension",
                       predicate=True)
    t.install_function(extensions, "subgroup_quotient_types",
                       "extensions.subgroup_quotient_types", key=tuple,
                       size=len)
    t.install_function(extensions, "brute_force_is_extension",
                       "extensions.brute_force_is_extension")

    def checked_pairs(report, counts):
        counts["verify.checked_pairs"] += report.checked_pairs

    for claim_id, fn in list(verify.CLAIMS.items()):
        verify.CLAIMS[claim_id] = t.timed("verify.claim", fn,
                                          observe=checked_pairs)

    t.install_function(cli, "build_parser", "cli.build_parser")
    t.install_function(cli, "run", "cli.run")
    t.watch_gc()
