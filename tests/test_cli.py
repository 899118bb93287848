import errno
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from abext import cli, extensions, lr
from abext.cli import run
from abext.extensions import extension_set
from abext.families import BUILTIN_FAMILIES, enumerate_family, get_family
from abext.groups import AbelianGroup, parse_group
from abext.verify import CLAIMS


def get_output(capsys):
    captured = capsys.readouterr()
    return captured.out.rstrip("\n")


def test_ext_worked_example(capsys):
    code = run(["ext", "Z/4 x Z/2", "Z/2^2"])
    assert code == 0
    lines = get_output(capsys).splitlines()
    assert lines == ["Z/4 x Z/2^3", "Z/4^2 x Z/2", "Z/8 x Z/2^2", "Z/8 x Z/4"]
    # every printed group string parses back to itself
    for line in lines:
        assert str(parse_group(line)) == line


def test_ext_json(capsys):
    code = run(["ext", "Z/4 x Z/2", "Z/2^2", "--format", "json"])
    assert code == 0
    assert json.loads(get_output(capsys)) == [
        "Z/4 x Z/2^3", "Z/4^2 x Z/2", "Z/8 x Z/2^2", "Z/8 x Z/4"]


def test_ext_check(capsys):
    code = run(["ext", "--check", "Z/8 x Z/4", "Z/4 x Z/2", "Z/2^2"])
    assert code == 0
    assert get_output(capsys) == "criterion: true\noracle: true"


def test_ext_check_negative(capsys):
    code = run(["ext", "--check", "Z/16", "Z/4 x Z/2", "Z/2^2"])
    assert code == 0
    assert get_output(capsys) == "criterion: false\noracle: false"


def test_ext_check_oracle_skipped_beyond_bound(capsys):
    # Z/4^6 has order 4096, past DEFAULT_ORACLE_BOUND: skipped at once
    code = run(["ext", "--check", "Z/4^6", "Z/4^3", "Z/4^3",
                "--format", "json"])
    assert code == 0
    assert json.loads(get_output(capsys)) == {"criterion": True, "oracle": None}


def test_ext_check_homocyclic_witness(capsys):
    # the largest p-part the oracle's order limit admits, with 55,989
    # subgroups, 37,140 of them of order at most 2^5
    code = run(["ext", "--check", "Z/4^5", "Z/4^2 x Z/2", "Z/4^2 x Z/2"])
    assert code == 0
    assert get_output(capsys) == "criterion: true\noracle: true"


def test_ext_check_lower_half_fits_under_subgroup_cap(capsys):
    # Z/8 x Z/2^7 has 1,193,173 subgroups, more than MAX_SUBGROUPS, but the
    # oracle visits only the 782,324 of order at most 2^5
    code = run(["ext", "--check", "Z/8 x Z/2^7", "Z/4 x Z/2^3",
                "Z/2 x Z/2^4"])
    assert code == 0
    assert get_output(capsys) == "criterion: true\noracle: true"


def test_ext_check_oracle_skipped_past_subgroup_cap(capsys):
    # Z/2^10 fits the oracle's order limit but has 169,488,628 subgroups
    # of order at most 2^5, the ones the oracle visits: it stops at
    # MAX_SUBGROUPS instead of hanging
    start = time.perf_counter()
    code = run(["ext", "--check", "Z/2^10", "Z/2^5", "Z/2^5"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert get_output(capsys) == "criterion: true\noracle: skipped"
    assert elapsed < 60, f"took {elapsed:.1f} s"


@pytest.mark.parametrize("groups, bound", [
    (["Z/2", "1", "Z/2"], "1025"),
    # the oracle's work per subgroup grows with the p-part, so a raised
    # bound here would run for minutes under MAX_SUBGROUPS
    (["Z/2^16", "Z/2^8", "Z/2^8"], "65536"),
])
def test_oracle_bound_past_default_is_a_usage_error(capsys, groups, bound):
    # ext has no --oracle-bound: any value is refused before the oracle runs
    start = time.perf_counter()
    assert run(["ext", "--check", *groups, "--oracle-bound", bound]) == 64
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert err.endswith(f"unrecognized arguments: --oracle-bound {bound}\n")


@pytest.mark.parametrize("argv, flag", [
    (["enumerate", "--family", "A1", "--bound", "x"], "--bound"),
    (["verify", "thm-main", "--bound", "1.5"], "--bound"),
])
def test_non_integer_flag_names_no_private_function(capsys, argv, flag):
    assert run(argv) == 64
    err = capsys.readouterr().err
    assert "usage:" in err
    value = argv[-1]
    assert err.endswith(f"argument {flag}: invalid int value: {value!r}\n")
    assert "_positive" not in err


def test_ext_wrong_arity(capsys):
    assert run(["ext", "Z/2"]) == 64
    assert run(["ext", "--check", "Z/2", "Z/2"]) == 64


def test_lr_expand(capsys):
    code = run(["lr-expand", "[2,1]", "[1,1]"])
    assert code == 0
    assert get_output(capsys).splitlines() == [
        "[3,2] 1", "[3,1,1] 1", "[2,2,1] 1", "[2,1,1,1] 1"]


def test_lr_expand_json(capsys):
    run(["lr-expand", "[2,1]", "[2,1]", "--format", "json"])
    payload = json.loads(get_output(capsys))
    assert {"partition": [3, 2, 1], "multiplicity": 2} in payload


def test_lr_coeff(capsys):
    assert run(["lr-coeff", "[2,1]", "[2,1]", "[3,2,1]"]) == 0
    assert get_output(capsys) == "2"


def test_member(capsys):
    assert run(["member", "Z/3^3", "--family", "A2"]) == 0
    assert get_output(capsys) == "true"
    assert run(["member", "Z/4^5", "--family", "PA4p"]) == 0
    assert get_output(capsys) == "false"


def test_member_unknown_family(capsys):
    assert run(["member", "Z/2", "--family", "A7"]) == 64
    assert "unknown family" in capsys.readouterr().err


def test_parse_error_exit_code(capsys):
    assert run(["ext", "Z/0", "Z/2"]) == 64
    assert run(["member", "Z/junk", "--family", "A1"]) == 64
    assert run(["lr-coeff", "[2,x]", "[1]", "[3]"]) == 64


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 64
    assert "usage:" in capsys.readouterr().err
    assert run(["verify", "no-such-claim"]) == 64
    assert run(["enumerate", "--family", "A1", "--bound", "0"]) == 64
    assert run(["ext", "Z/2", "Z/2", "--seed", "1"]) == 64


@pytest.mark.parametrize("argv, error", [
    (["ext", "Z/2", "Z/2"],
     RecursionError("maximum recursion depth exceeded")),
    (["lr-coeff", "[1]", "[1]", "[2]"],
     RecursionError("maximum recursion depth exceeded")),
    # a KeyError from a bug is a crash, not a mistyped family name
    (["member", "Z/2", "--family", "A1"], KeyError("no-such-key")),
], ids=["argv0", "argv1", "argv2"])
def test_internal_error_exit_code(capsys, monkeypatch, argv, error):
    def crash(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, argv[0], crash)
    assert run(argv) == 70
    assert capsys.readouterr().err == (
        f"abext: internal error: {type(error).__name__}: {error}\n")


def test_out_of_memory_exit_code(capsys, monkeypatch):
    # running out of memory is a resource limit, not an internal error
    def exhaust(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "ext", exhaust)
    assert run(["ext", "Z/2", "Z/2"]) == 3
    assert capsys.readouterr().err == "abext: resource limit: out of memory\n"


def test_ext_result_budget_exit_code(capsys):
    # Z/30030^10 by itself has 11^6 extensions, 11 shapes at each of six
    # primes; the budget stops it before any group is built
    assert extensions.MAX_EXTENSIONS == 10 ** 6
    start = time.perf_counter()
    assert run(["ext", "Z/30030^10", "Z/30030^10"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "abext: resource limit: 1771561 extensions exceed the limit of "
        "1000000\n")


@pytest.mark.skipif(sys.platform != "linux",
                    reason="reads the peak RSS from /proc/self/status")
def test_ext_many_results_memory_ceiling():
    # 10,201 names read from the memoized support tuples, with no group
    # built per result, peak at about 20 MB; a group per result took about
    # 22-26 MB, and a copy of each partition per group 52 MB.  A fresh
    # process, read through VmHWM as in test_verify's claim ceilings.
    code = ("import sys; from abext.cli import run; "
            "code = run(['ext', 'Z/6^100', 'Z/6^100']); "
            "print(open('/proc/self/status').read()); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    lines = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True,
                           check=True).stdout.splitlines()
    # 101 shapes at each prime, then the status file
    assert lines[10200] == "Z/6^200" and lines[10201].startswith("Name:")
    peak_kib = next(int(line.split()[1]) for line in lines
                    if line.startswith("VmHWM:"))
    assert peak_kib < 40 * 1024


@pytest.mark.parametrize("argv, message", [
    (["ext", "Z/2^3000", "Z/2"], "LR depth limit"),
    (["lr-coeff", "[1500]", "[1500]", "[1500,1500]"], "LR depth limit"),
    # 2^89 - 1 is prime, but beyond the reach of the fixed Miller-Rabin bases
    (["member", "Z/618970019642690137449562111", "--family", "A1"],
     "cannot decide"),
    # 1000003 * 1000033: both prime factors lie above the trial division cap
    (["member", "Z/1000036000099", "--family", "A1"], "cannot factor"),
])
def test_resource_limit_exit_code(capsys, argv, message):
    start = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("abext: resource limit: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["lr-expand", "[1]", "[100000000]"],
    ["lr-coeff", "[]", "[100000000]", "[100000000]"],
])
def test_lr_filling_size_checked_before_allocation(capsys, argv):
    start = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == ("abext: resource limit: fillings of 100000000 cells "
                   "exceed the LR depth limit 900\n")


def test_lr_step_limit_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(lr, "MAX_FILL_STEPS", 3)
    assert run(["lr-expand", "[2,1]", "[2,1]"]) == 3
    assert capsys.readouterr() == (
        "", "abext: resource limit: the filling search exceeds the LR step "
        "limit 3\n")


def test_lr_huge_entries_with_small_filling(capsys):
    big = 10 ** 20
    assert run(["lr-coeff", f"[{big - 1}]", "[1]", f"[{big}]"]) == 0
    assert get_output(capsys) == "1"
    assert run(["lr-expand", f"[{big - 1}]", "[1]"]) == 0
    assert get_output(capsys).splitlines() == [f"[{big}] 1",
                                               f"[{big - 1},1] 1"]


def test_group_string_factor_limit(capsys):
    # the repetition exponent is checked before any factor list is built
    start = time.perf_counter()
    assert run(["member", "Z/2^100000000000000000000", "--family", "A1"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("abext: resource limit: ") and "factors" in err
    assert run(["member", "Z/2^1000", "--family", "A1"]) == 0
    assert get_output(capsys) == "false"


def test_member_with_large_prime_factor(capsys):
    start = time.perf_counter()
    assert run(["member", "Z/2305843009213693951", "--family", "A1"]) == 0
    assert time.perf_counter() - start < 2
    assert get_output(capsys) == "true"


def test_enumerate(capsys):
    assert run(["enumerate", "--family", "A1", "--bound", "8"]) == 0
    assert get_output(capsys).splitlines() == [
        "1", "Z/2", "Z/3", "Z/2^2", "Z/4", "Z/5", "Z/6", "Z/7", "Z/8"]


def _text_and_json(capsys, argv):
    assert run(argv) == 0
    text = get_output(capsys)
    assert run(argv + ["--format", "json"]) == 0
    return text, json.loads(get_output(capsys))


# ext and enumerate print from prime types; the library builds the groups
_FACTORS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 25, 27, 30, 36, 49, 60, 72,
            210)


def _drawn_group(rng):
    factors = rng.choices(_FACTORS, k=rng.randint(1, 5))
    return " x ".join(f"Z/{n}" for n in factors)


_rng = random.Random(2025)
_EXT_PAIRS = [(_drawn_group(_rng), _drawn_group(_rng)) for _ in range(200)]
_EXT_PAIRS += [(f"Z/6^{n}", f"Z/6^{n}") for n in (1, 5, 20, 100)]


@pytest.mark.parametrize("h, k", _EXT_PAIRS)
def test_ext_prints_the_library_extension_set(capsys, h, k):
    names = [str(g) for g in extension_set(parse_group(h), parse_group(k))]
    assert _text_and_json(capsys, ["ext", h, k]) == ("\n".join(names),
                                                     names)


@pytest.mark.parametrize("bound", [1, 2, 64, 1024])
@pytest.mark.parametrize("name", sorted(BUILTIN_FAMILIES))
def test_enumerate_prints_the_library_members(capsys, name, bound):
    names = [str(g) for g in enumerate_family(get_family(name), bound)]
    assert _text_and_json(capsys, ["enumerate", "--family", name,
                                   "--bound", str(bound)]) == (
        "\n".join(names), names)


def test_ext_and_enumerate_build_no_groups(capsys, monkeypatch):
    built = []
    init = AbelianGroup.__init__

    def counted(self, types):
        init(self, types)
        built.append(self)

    monkeypatch.setattr(AbelianGroup, "__init__", counted)
    assert run(["ext", "Z/4 x Z/2", "Z/2^2"]) == 0
    assert [str(g) for g in built] == ["Z/4 x Z/2", "Z/2^2"]
    built.clear()
    assert run(["enumerate", "--family", "PB4p", "--bound", "256"]) == 0
    assert built == []


_ENUMERATION_LIMIT = ("family enumeration exceeded the limit of 1000000 "
                      "group types")


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--family", "A1", "--bound", "438640"], _ENUMERATION_LIMIT),
    (["enumerate", "--family", "A1", "--bound", "2000000"],
     _ENUMERATION_LIMIT),
    (["enumerate", "--family", "A1", "--bound", str(10 ** 30)],
     _ENUMERATION_LIMIT),
    (["verify", "thm-main", "--bound", "4097"],
     "verification bound 4097 exceeds the limit of 4096"),
    (["verify", "thm-main", "--bound", str(10 ** 30)],
     f"verification bound {10 ** 30} exceeds the limit of 4096"),
], ids=["enumerate-first", "enumerate", "enumerate-huge", "verify-first",
        "verify-huge"])
def test_bound_past_limit_exits_at_once(capsys, argv, message):
    # the bound is compared with families.MAX_ENUMERATION_BOUND (438,640 is
    # the first bound whose window holds more than MAX_ENUMERATION group
    # types), or for verify with verify.MAX_VERIFY_BOUND, before any walk
    start = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"abext: resource limit: {message}\n"


def test_verify_text_report(capsys):
    code = run(["verify", "thm-main", "--bound", "32"])
    assert code == 0
    lines = get_output(capsys).splitlines()
    assert "claim_id: thm-main" in lines
    assert "witnesses: Z/4^5" in lines
    assert "verdict: pass" in lines
    assert "vacuous: false" in lines


def test_verify_json_report(capsys):
    code = run(["verify", "thm-main", "--bound", "32", "--format", "json"])
    assert code == 0
    obj = json.loads(get_output(capsys))
    assert obj == {"claim_id": "thm-main", "bound": 32,
                   "checked_pairs": obj["checked_pairs"],
                   "witnesses": ["Z/4^5"], "verdict": "pass",
                   "vacuous": False}
    assert obj["checked_pairs"] > 0


def test_verify_vacuous_exit_code(capsys):
    assert run(["verify", "thm-main", "--bound", "16"]) == 2
    assert run(["verify", "prop-product-types", "--bound", "16"]) == 2


def test_verify_regressions(capsys):
    assert run(["verify", "regressions"]) == 0
    assert "verdict: pass" in get_output(capsys)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(["verify", "regressions", "--format", "json",
                "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["verdict"] == "pass"


def test_tables_row_counts(capsys):
    assert run(["tables", "--format", "json"]) == 0
    tables = json.loads(get_output(capsys))
    assert [t["table"] for t in tables] == [1, 2, 3, 4, 5, 6]
    assert [len(t["rows"]) for t in tables] == [2, 5, 7, 11, 11, 17]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0


_VALID_CALLS = [
    ["lr-expand", "[1]", "[1]"],
    ["lr-coeff", "[1]", "[1]", "[2]"],
    ["ext", "Z/2", "Z/2"],
    ["member", "Z/2", "--family", "A1"],
    ["enumerate", "--family", "A1", "--bound", "4"],
    ["tables"],
    ["verify", "regressions"],
]


@pytest.mark.parametrize("argv, usage, leftovers", [
    *((argv + ["--bogus", "1"], f"usage: abext {argv[0]} ", "--bogus 1")
      for argv in _VALID_CALLS),
    (["--bogus", "ext", "Z/2", "Z/2"], "usage: abext [-h] ", "--bogus"),
], ids=[argv[0] for argv in _VALID_CALLS] + ["before-subcommand"])
def test_unknown_option_is_a_usage_error(capsys, argv, usage, leftovers):
    # the parser that rejects an argument prints its own usage line
    assert run(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(usage)
    assert captured.err.endswith(f"unrecognized arguments: {leftovers}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, target, reason", [
    (["tables"], "missing/out.txt", "No such file or directory"),
    (["tables"], ".", "Is a directory"),
    (["verify", "thm-main", "--bound", "16"], "missing/out.txt",
     "No such file or directory"),
])
def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys, fmt, argv,
                                              target, reason):
    path = tmp_path / target
    assert run(argv + ["--format", fmt, "--out", str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"abext: error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("method", ["write", "flush"])
def test_stdout_write_error_is_a_usage_error(capsys, monkeypatch, method):
    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    stdout = io.StringIO()
    setattr(stdout, method, full)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["ext", "Z/4", "Z/2"]) == 64
    assert capsys.readouterr().err == (
        f"abext: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("buffered", [True, False])
def test_full_stdout_exits_64_in_a_process(buffered):
    # buffered stdout keeps the bytes of a failed write; unless entrypoint
    # drops them, the interpreter's exit flush retries them and turns exit
    # 64 into 120, which PYTHONUNBUFFERED hides
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "abext", "ext", "Z/4",
                               "Z/2"], env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 64
    assert proc.stderr == (
        f"abext: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


def test_verify_details_follow_the_report(capsys, monkeypatch):
    report = CLAIMS["regressions"]()
    failed = report._replace(verdict="fail",
                             details=("first failure", "second failure"))
    monkeypatch.setitem(cli.CLAIMS, "regressions", lambda bound: failed)
    assert run(["verify", "regressions"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-2:] == ["verdict: fail",
                                              "vacuous: false"]
    assert captured.err == "first failure\nsecond failure\n"
