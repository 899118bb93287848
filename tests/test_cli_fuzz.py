"""Random calls of every subcommand through cli.run.

Each call must end in a documented exit code other than 70 (internal
error), print no traceback and answer within CALL_SECONDS.  Inputs stay
where the program must answer quickly: at most two cyclic factors of
order up to 20 with repetition exponents up to 4, partitions with entries
up to 12 and at most three rows (two for one factor of lr-expand, six for
an lr-coeff target), and --bound up to 32.  ext --check draws no G with
a p-part of order from 129 to DEFAULT_ORACLE_BOUND: the element-level
oracle enumerates those, up to seconds each, while it skips a larger
p-part at once.  One huge repetition exponent checks the factor limit.
Larger LR inputs are out of range: the tableau search has no work bound
yet, and lr-expand [12,9,5] [12,9,5] alone takes seconds.
"""

import contextlib
import io
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from abext.cli import run
from abext.extensions import DEFAULT_ORACLE_BOUND, ResourceLimitError
from abext.families import BUILTIN_FAMILIES
from abext.groups import AbelianGroup
from abext.verify import CLAIMS

EXIT_CODES = {0, 1, 2, 3, 64}
CALL_SECONDS = 10

# no newlines: a line of stderr that starts with "Traceback" is then the
# interpreter's, not an echo of the input
junk = st.text(st.characters(blacklist_characters="\n"), max_size=12)
factor = st.builds("{}{}{}".format, st.sampled_from(["Z/", "C"]),
                   st.integers(0, 20),
                   st.sampled_from(["", "^0", "^1", "^2", "^3", "^4"]))
group = st.one_of(
    st.builds(str.join, st.sampled_from([" x ", "*", "×", "x"]),
              st.lists(factor, min_size=1, max_size=2)),
    st.sampled_from(["1", "Z/2^100000000000000000000"]), junk)


def _oracle_answers_quickly(text):
    try:
        types = AbelianGroup.parse(text).prime_types().items()
    except (ValueError, ResourceLimitError):
        return True  # ext --check stops before the oracle
    largest = max((p ** sum(parts) for p, parts in types), default=1)
    return largest <= 128 or largest > DEFAULT_ORACLE_BOUND


def _partition(max_size):
    return st.one_of(
        st.lists(st.integers(-1, 12), max_size=max_size).map(
            lambda parts: "[" + ",".join(map(str, parts)) + "]"),
        junk)


partition = _partition(3)
# one factor of at most two rows, on either side
expand_pair = st.one_of(st.tuples(partition, _partition(2)),
                        st.tuples(_partition(2), partition))
family = st.one_of(st.sampled_from(sorted(BUILTIN_FAMILIES)), junk)
bound = st.one_of(st.integers(-1, 32).map(str), junk)
fmt = st.sampled_from([(), ("--format", "json"), ("--format", "text")])

calls = st.one_of(
    expand_pair.map(lambda pair: ("lr-expand", *pair)),
    st.tuples(st.just("lr-coeff"), partition, partition, _partition(6)),
    st.tuples(st.just("ext"), group, group),
    st.tuples(st.just("ext"), st.just("--check"),
              group.filter(_oracle_answers_quickly), group, group),
    st.tuples(st.just("member"), group, st.just("--family"), family),
    st.tuples(st.just("enumerate"), st.just("--family"), family,
              st.just("--bound"), bound),
    st.just(("tables",)),
    st.tuples(st.just("verify"), st.one_of(st.sampled_from(sorted(CLAIMS)),
                                           junk),
              st.just("--bound"), bound),
    st.lists(junk, max_size=4).map(tuple),
)


@settings(max_examples=500, deadline=None)
@given(calls, fmt)
def test_every_call_ends_in_a_documented_exit_code(argv, options):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run([*argv, *options])
        except SystemExit as exit_:  # --help and --version
            code = exit_.code
    assert time.perf_counter() - start < CALL_SECONDS
    assert code in EXIT_CODES, err.getvalue()
    assert not any(line.startswith("Traceback")
                   for line in err.getvalue().split("\n"))
