"""Command-line interface.

Subcommands: lr-expand, lr-coeff, ext, member, enumerate, tables, verify.
Output is UTF-8, newline terminated, and deterministic for fixed flags;
text and JSON modes carry the same content.

Exit codes:
  0   success; for verify, the claim passed
  1   the claim failed
  2   the claim passed vacuously (window too small for its witnesses)
  3   resource limit exceeded
  64  usage, parse or lookup error
  70  internal error (an exception nothing else handles)
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .extensions import (DEFAULT_ORACLE_BOUND, ResourceLimitError,
                         brute_force_is_extension, extension_set,
                         is_extension)
from .families import (TABLES, enumerate_family, family_contains, get_family,
                       render_pattern)
from .groups import AbelianGroup
from .lr import lr_coefficient, lr_expand
from .partitions import format_partition, parse_partition, sort_key
from .verify import CLAIMS, DEFAULT_BOUND


class _UsageError(Exception):
    def __init__(self, message, usage=""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _positive(text: str) -> int:
    value = int(text)
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
    p.add_argument("--oracle-bound", type=_positive,
                   default=DEFAULT_ORACLE_BOUND,
                   help="largest p-part order the oracle will enumerate "
                        f"(default {DEFAULT_ORACLE_BOUND})")

    p = sub.add_parser("member", parents=[common],
                       help="membership of a group in a built-in family")
    p.add_argument("group")
    p.add_argument("--family", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="family members up to an order bound")
    p.add_argument("--family", required=True)
    p.add_argument("--bound", type=_positive, default=DEFAULT_BOUND)

    sub.add_parser("tables", parents=[common],
                   help="print the built-in family tables")

    p = sub.add_parser("verify", parents=[common],
                       help="run one bounded verification claim")
    p.add_argument("claim", choices=sorted(CLAIMS))
    p.add_argument("--bound", type=_positive, default=DEFAULT_BOUND)

    return parser


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _group_lines(groups, args) -> str:
    if args.format == "json":
        return json.dumps([str(g) for g in groups])
    return "\n".join(str(g) for g in groups) if len(groups) else "(empty)"


def _cmd_lr_expand(args) -> int:
    lam = parse_partition(args.lam)
    nu = parse_partition(args.nu)
    expansion = sorted(lr_expand(lam, nu).items(),
                       key=lambda item: sort_key(item[0]))
    if args.format == "json":
        payload = [{"partition": list(mu), "multiplicity": c}
                   for mu, c in expansion]
        _emit(json.dumps(payload), args)
    else:
        _emit("\n".join(f"{format_partition(mu)} {c}" for mu, c in expansion),
              args)
    return 0


def _cmd_lr_coeff(args) -> int:
    c = lr_coefficient(parse_partition(args.lam), parse_partition(args.nu),
                       parse_partition(args.mu))
    _emit(json.dumps(c) if args.format == "json" else str(c), args)
    return 0


def _cmd_ext(args) -> int:
    groups = [AbelianGroup.parse(text) for text in args.groups]
    if args.check:
        if len(groups) != 3:
            raise _UsageError("ext --check expects three groups: G H K")
        g, h, k = groups
        criterion = is_extension(g, h, k)
        try:
            oracle = brute_force_is_extension(g, h, k, args.oracle_bound)
        except ResourceLimitError:
            oracle = None
        if args.format == "json":
            _emit(json.dumps({"criterion": criterion, "oracle": oracle}), args)
        else:
            oracle_text = "skipped" if oracle is None else str(oracle).lower()
            _emit(f"criterion: {str(criterion).lower()}\noracle: {oracle_text}",
                  args)
        return 0
    if len(groups) != 2:
        raise _UsageError("ext expects two groups: H K")
    _emit(_group_lines(extension_set(*groups), args), args)
    return 0


def _cmd_member(args) -> int:
    group = AbelianGroup.parse(args.group)
    verdict = family_contains(group, get_family(args.family))
    _emit(json.dumps(verdict) if args.format == "json"
          else str(verdict).lower(), args)
    return 0


def _cmd_enumerate(args) -> int:
    members = enumerate_family(get_family(args.family), args.bound)
    _emit(_group_lines(members, args), args)
    return 0


def _cmd_tables(args) -> int:
    if args.format == "json":
        payload = []
        for number, family, letters in TABLES:
            rows = []
            for i, pat in enumerate(family.patterns, start=1):
                text, constraints = render_pattern(pat, letters)
                rows.append({"row": i, "pattern": text,
                             "constraints": list(constraints)})
            payload.append({"table": number, "family": family.name,
                            "rows": rows})
        _emit(json.dumps(payload, indent=2), args)
        return 0
    blocks = []
    for number, family, letters in TABLES:
        lines = [f"Table {number}: {family.name}"]
        for i, pat in enumerate(family.patterns, start=1):
            text, constraints = render_pattern(pat, letters)
            suffix = f"  [{', '.join(constraints)}]" if constraints else ""
            lines.append(f"({i}) {text}{suffix}")
        blocks.append("\n".join(lines))
    _emit("\n\n".join(blocks), args)
    return 0


def _cmd_verify(args) -> int:
    report = CLAIMS[args.claim](args.bound)
    if args.format == "json":
        _emit(json.dumps(report.to_json_obj()), args)
    else:
        witnesses = ", ".join(str(g) for g in report.witnesses) or "none"
        _emit("\n".join([
            f"claim_id: {report.claim_id}",
            f"bound: {report.bound}",
            f"checked_pairs: {report.checked_pairs}",
            f"witnesses: {witnesses}",
            f"verdict: {report.verdict}",
            f"vacuous: {str(report.vacuous).lower()}",
        ]), args)
    for line in report.details:
        print(line, file=sys.stderr)
    return report.exit_code


_COMMANDS = {
    "lr-expand": _cmd_lr_expand,
    "lr-coeff": _cmd_lr_coeff,
    "ext": _cmd_ext,
    "member": _cmd_member,
    "enumerate": _cmd_enumerate,
    "tables": _cmd_tables,
    "verify": _cmd_verify,
}


def _usage_exit(err: _UsageError) -> int:
    if err.usage:
        print(err.usage.rstrip(), file=sys.stderr)
    print(f"abext: error: {err}", file=sys.stderr)
    return 64


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        return _usage_exit(err)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        return _usage_exit(err)
    except (ValueError, KeyError) as err:
        message = err.args[0] if err.args else err
        print(f"abext: error: {message}", file=sys.stderr)
        return 64
    except ResourceLimitError as err:
        print(f"abext: resource limit: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        # exit 1 means "claim failed", so a crash needs a code of its own
        print(f"abext: internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 70


def entrypoint() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
