"""Pinned CLI output: stdout, stderr and exit code of a fixed set of calls.

The fixture `data/cli_golden.json` holds one record per call.  Run this
file as a script (`PYTHONPATH=src python tests/test_cli_golden.py`) to
record it again from the current code; do that only for an intended
change of output, and review the diff.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from abext.cli import run

FIXTURE = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

CASES = [
    ["lr-expand", "[2,1]", "[1,1]"],
    ["lr-expand", "[2,1]", "[2,1]", "--format", "json"],
    ["lr-expand", "[]", "[]"],
    ["lr-expand", "[]", "[]", "--format", "json"],
    ["lr-expand", "[2,1]", "[1,x]"],
    ["lr-coeff", "[2,1]", "[2,1]", "[3,2,1]"],
    ["lr-coeff", "[2,1]", "[2,1]", "[3,2,1]", "--format", "json"],
    ["lr-coeff", "[2,1]", "[1]", "[5]"],
    ["lr-coeff", "[1500]", "[1500]", "[1500,1500]"],
    ["lr-coeff", "[99999999999999999999]", "[1]", "[100000000000000000000]"],
    ["lr-expand", "[99999999999999999999]", "[1]"],
    ["lr-expand", "[1]", "[100000000]"],
    ["ext", "Z/4 x Z/2", "Z/2^2"],
    ["ext", "Z/4 x Z/2", "Z/2^2", "--format", "json"],
    ["ext", "1", "1"],
    ["ext", "Z/3", "Z/2", "--format", "json"],
    ["ext", "--check", "Z/8 x Z/4", "Z/4 x Z/2", "Z/2^2"],
    ["ext", "--check", "Z/16", "Z/4 x Z/2", "Z/2^2", "--format", "json"],
    ["ext", "--check", "Z/4^6", "Z/4^3", "Z/4^3"],
    ["ext", "--check", "Z/4^6", "Z/4^3", "Z/4^3", "--format", "json"],
    ["ext", "Z/2"],
    ["ext", "--check", "Z/2", "Z/2"],
    ["ext", "Z/0", "Z/2"],
    ["ext", "Z/2^3000", "Z/2", "--format", "json"],
    ["ext", "Z/4 x Z/2", "Z/2^2", "--jobs", "4"],
    ["member", "Z/3^3", "--family", "A2"],
    ["member", "Z/4^5", "--family", "PA4p", "--format", "json"],
    ["member", "Z/2", "--family", "A7"],
    ["member", "Z/1000036000099", "--family", "A1"],
    ["member", "Z/2305843009213693951", "--family", "A1"],
    ["enumerate", "--family", "A1", "--bound", "8"],
    ["enumerate", "--family", "PA4p", "--bound", "32", "--format", "json"],
    ["enumerate", "--family", "A2", "--bound", "1"],
    ["enumerate", "--family", "A1", "--bound", "0"],
    *(["enumerate", "--family", name, "--bound", "64", "--format", "json"]
      for name in ("A1", "A2", "A3p", "B3p", "PA4p", "PB4p", "A2xA2",
                   "A1xA3p", "B1xB3p", "B2xB2")),
    ["tables"],
    ["tables", "--format", "json"],
    ["verify", "thm-main", "--bound", "32"],
    ["verify", "thm-main", "--bound", "32", "--format", "json"],
    ["verify", "thm-main", "--bound", "16"],
    ["verify", "prop-product-types", "--bound", "16", "--format", "json"],
    ["verify", "prop-ext-low", "--bound", "16"],
    ["verify", "thm-second", "--bound", "16", "--format", "json"],
    ["verify", "regressions"],
    ["verify", "regressions", "--format", "json"],
    ["verify", "no-such-claim"],
    ["no-such-command"],
]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def pinned():
    return {tuple(record["argv"]): record
            for record in json.loads(FIXTURE.read_text(encoding="utf-8"))}


def test_fixture_covers_every_case(pinned):
    assert list(pinned) == [tuple(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_pinned(monkeypatch, pinned, argv):
    # argparse wraps usage lines at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert call(argv) == pinned[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    FIXTURE.write_text(json.dumps([call(argv) for argv in CASES], indent=1)
                       + "\n", encoding="utf-8")
