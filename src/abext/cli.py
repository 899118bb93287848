"""Command-line interface.

Subcommands: lr-expand, lr-coeff, ext, member, enumerate, tables, verify.
Each command returns its JSON payload and its text form; run() writes the
one --format asks for to stdout or --out.  Output is UTF-8, newline
terminated, and deterministic for fixed flags.

Exit codes:
  0   success; for verify, the claim passed
  1   the claim failed
  2   the claim passed vacuously (window too small for its witnesses)
  3   resource limit exceeded, or out of memory
  64  usage, parse, lookup or output write error
  70  internal error (an exception nothing else handles)
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from contextlib import nullcontext, suppress

from . import __version__
from .errors import ResourceLimitError
from .extensions import brute_force_is_extension, extension_types, is_extension
from .families import (TABLES, family_contains, get_family, member_types,
                       render_pattern)
from .groups import AbelianGroup, format_types, types_key
from .lr import lr_coefficient, lr_expand
from .partitions import format_partition, parse_partition
from .verify import CLAIMS, DEFAULT_BOUND


class _Parser(argparse.ArgumentParser):
    # argparse parses a subcommand's arguments with that subcommand's
    # parser, so each parser reports its own leftovers under its own usage
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _positive(text: str) -> int:
    # argparse would name this function in the message of a ValueError
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    common.add_argument("--out", metavar="FILE",
                        help="write the output to FILE instead of stdout")

    parser = _Parser(prog="abext",
                     description="Abelian group extensions via Young-diagram "
                                 "products, with bounded verification of the "
                                 "classification families.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("lr-expand", parents=[common],
                       help="expand a Young-diagram product")
    p.add_argument("lam", help="partition, e.g. '[2,1]'")
    p.add_argument("nu", help="partition, e.g. '[1,1]'")

    p = sub.add_parser("lr-coeff", parents=[common],
                       help="one Littlewood-Richardson coefficient")
    p.add_argument("lam")
    p.add_argument("nu")
    p.add_argument("mu")

    p = sub.add_parser("ext", parents=[common],
                       help="extensions of K by H, or check one triple")
    p.add_argument("groups", nargs="+", metavar="GROUP",
                   help="H K, or G H K together with --check")
    p.add_argument("--check", action="store_true",
                   help="decide whether G is an extension of K by H and "
                        "cross-check with the element-level oracle")

    p = sub.add_parser("member", parents=[common],
                       help="membership of a group in a built-in family")
    p.add_argument("group")
    p.add_argument("--family", required=True)

    # an explicit usage keeps its line break on every Python version
    p = sub.add_parser("enumerate", parents=[common],
                       help="family members up to an order bound",
                       usage="%(prog)s [-h] [--format {text,json}] [--out FILE]"
                             " --family\n                       FAMILY"
                             " [--bound BOUND]")
    p.add_argument("--family", required=True)
    p.add_argument("--bound", type=_positive, default=DEFAULT_BOUND)

    sub.add_parser("tables", parents=[common],
                   help="print the built-in family tables")

    p = sub.add_parser("verify", parents=[common],
                       help="run one bounded verification claim")
    p.add_argument("claim", choices=sorted(CLAIMS))
    p.add_argument("--bound", type=_positive, default=DEFAULT_BOUND)

    return parser


# a command's result: json payload or text, lines for stderr, exit code
_Output = namedtuple("_Output", "payload text code details", defaults=(0, ()))


def _cmd_lr_expand(args) -> _Output:
    lam = parse_partition(args.lam)
    nu = parse_partition(args.nu)
    expansion = lr_expand(lam, nu).items()
    return _Output(
        [{"partition": list(mu), "multiplicity": c} for mu, c in expansion],
        "\n".join(f"{format_partition(mu)} {c}" for mu, c in expansion))


def _cmd_lr_coeff(args) -> _Output:
    c = lr_coefficient(parse_partition(args.lam), parse_partition(args.nu),
                       parse_partition(args.mu))
    return _Output(c, str(c))


def _cmd_ext(args) -> _Output:
    groups = [AbelianGroup.parse(text) for text in args.groups]
    if args.check:
        if len(groups) != 3:
            raise ValueError("ext --check expects three groups: G H K")
        g, h, k = groups
        criterion = is_extension(g, h, k)
        try:
            oracle = brute_force_is_extension(g, h, k)
        except ResourceLimitError:
            oracle = None
        oracle_text = "skipped" if oracle is None else json.dumps(oracle)
        return _Output({"criterion": criterion, "oracle": oracle},
                       f"criterion: {json.dumps(criterion)}\n"
                       f"oracle: {oracle_text}")
    if len(groups) != 2:
        raise ValueError("ext expects two groups: H K")
    # every extension has order |H| |K|, so GroupSet's order is by name
    return _names(sorted(format_types(t.items())
                         for t in extension_types(*groups)))


def _cmd_member(args) -> _Output:
    group = AbelianGroup.parse(args.group)
    verdict = family_contains(group, get_family(args.family))
    return _Output(verdict, json.dumps(verdict))


def _cmd_enumerate(args) -> _Output:
    keys = sorted(types_key(t.items()) for t in
                  member_types(get_family(args.family), args.bound))
    return _names([name for _, name in keys])


def _names(names: list[str]) -> _Output:
    # ext and enumerate name prime types in GroupSet's order, without
    # building the groups
    return _Output(names, "\n".join(names) or "(empty)")


def _cmd_tables(args) -> _Output:
    payload, blocks = [], []
    for number, family, letters in TABLES:
        rows, lines = [], [f"Table {number}: {family.name}"]
        for i, pat in enumerate(family.patterns, start=1):
            text, constraints = render_pattern(pat, letters)
            rows.append({"row": i, "pattern": text,
                         "constraints": list(constraints)})
            suffix = f"  [{', '.join(constraints)}]" if constraints else ""
            lines.append(f"({i}) {text}{suffix}")
        payload.append({"table": number, "family": family.name,
                        "rows": rows})
        blocks.append("\n".join(lines))
    return _Output(payload, "\n\n".join(blocks))


def _cmd_verify(args) -> _Output:
    report = CLAIMS[args.claim](args.bound)
    payload = report.to_json_obj()
    fields = dict(payload, witnesses=", ".join(payload["witnesses"]) or "none",
                  vacuous=json.dumps(payload["vacuous"]))
    text = "\n".join(f"{key}: {value}" for key, value in fields.items())
    return _Output(payload, text, report.exit_code, report.details)


_COMMANDS = {
    "lr-expand": _cmd_lr_expand,
    "lr-coeff": _cmd_lr_coeff,
    "ext": _cmd_ext,
    "member": _cmd_member,
    "enumerate": _cmd_enumerate,
    "tables": _cmd_tables,
    "verify": _cmd_verify,
}


def _write(path: str | None, output: str) -> None:
    # one path for stdout (path None) and --out, flushed inside the try, so
    # that a full disk is a write error wherever the output goes
    try:
        with (nullcontext(sys.stdout) if path is None
              else open(path, "w", encoding="utf-8")) as handle:
            print(output, file=handle, flush=True)
    except OSError as err:
        target = "stdout" if path is None else path
        raise ValueError(f"cannot write {target}: {err.strerror}") from None


def run(argv: list[str] | None = None) -> int:
    """Parse argv, run the command, write its output; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = _COMMANDS[args.command](args)
        indent = 2 if args.command == "tables" else None
        _write(args.out, json.dumps(result.payload, indent=indent)
               if args.format == "json" else result.text)
    except ValueError as err:
        message = err.args[0] if err.args else err
        print(f"abext: error: {message}", file=sys.stderr)
        return 64
    except (ResourceLimitError, MemoryError) as err:
        reason = "out of memory" if isinstance(err, MemoryError) else err
        print(f"abext: resource limit: {reason}", file=sys.stderr)
        return 3
    except Exception as err:
        # exit 1 means "claim failed", so a crash needs a code of its own
        print(f"abext: internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 70
    for line in result.details:
        print(line, file=sys.stderr)
    return result.code


def entrypoint() -> None:
    code = run()
    # a failed write leaves its bytes in stdout's buffer, and the exit
    # flush would retry them and exit 120; closing stdout drops them
    with suppress(OSError):
        sys.stdout.close()
    sys.exit(code)

