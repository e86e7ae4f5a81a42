"""Golden CLI reports: each command's output and exit code, byte for byte.

tests/golden/manifest.json lists the commands (name, argv, exit code); the
JSON report of each is in tests/golden/<name>.json and its text report in
tests/golden/<name>.txt, both with the timestamp replaced by a fixed string.
The test reruns every command in process, in both formats, and compares. To
re-record after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/.
"""

import argparse
import json
import re
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from qlucas.cli import _build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
# The timestamp line of each format, and its fixed stand-in.
TIMESTAMP = {
    "json": (re.compile(r'^(  "timestamp": )"[^"]*"', re.MULTILINE), r'\1"<timestamp>"'),
    "text": (re.compile(r"^(timestamp: ).*$", re.MULTILINE), r"\1<timestamp>"),
}
SUFFIX = {"json": ".json", "text": ".txt"}

# The README's command-line examples, with build-series and specialize cut to
# small orders, plus a failing verify-ld and two whole polynomials whose ratio
# step pairs a lost (1 - q^k) with a gained (1 - q^2k).
COMMANDS = {
    "cyclotomic": ["cyclotomic", "12"],
    "qbinom-mod": ["qbinom", "10", "4", "--mod", "7"],
    "qratio-apery": ["qratio", "--spec", "apery", "--point", "3,3"],
    "qratio-at-one": ["qratio", "--spec", "central", "--point", "40", "--at-one"],
    "qratio-central3": ["qratio", "--spec", "central:3", "--point", "12"],
    "qbinom": ["qbinom", "20", "8"],
    "check-landau": ["check-landau", "--spec", "apery"],
    "verify-congruence": ["verify-congruence", "--spec", "central:2", "--b-max", "20", "--n-box", "8"],
    "verify-plucas": ["verify-plucas", "--spec", "central", "--p-max", "11", "--n-box", "6"],
    "verify-inter2": ["verify-inter2", "--spec", "central", "--b", "5", "--n-box", "6"],
    "build-series": ["build-series", "--spec", "apery", "--cap", "4,4"],
    "specialize": ["specialize", "--spec", "apery", "--t", "1,0", "--m", "1,1", "--order", "12"],
    "extract-cofactor": ["extract-cofactor", "--spec", "central", "--order", "30", "--b", "3"],
    "verify-apery": ["verify-apery", "--family", "a", "--t", "1", "--b-max", "10", "--n-max", "40"],
    "verify-ld": ["verify-ld", "--series", "g2", "--p", "3", "--order", "40"],
    "verify-ld-fails": ["verify-ld", "--series", "factorial", "--p", "2", "--order", "16"],
    "find-relations": ["find-relations", "--series", "g1", "--dx", "1", "--dy", "2", "--order", "30"],
}


def report(argv, fmt="json"):
    """(exit code, output with the timestamp fixed) of one in-process run."""
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv + ["--format", fmt])
    pattern, fixed = TIMESTAMP[fmt]
    return code, pattern.sub(fixed, out.getvalue())


def _manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_the_commands():
    assert {name: entry["argv"] for name, entry in _manifest().items()} == COMMANDS


def test_every_subcommand_has_a_golden():
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    pinned = {entry["argv"][0] for entry in _manifest().values()}
    assert sorted(set(subparsers.choices) - pinned) == []


@pytest.mark.parametrize("fmt", sorted(SUFFIX))
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, fmt):
    entry = _manifest()[name]
    code, out = report(entry["argv"], fmt)
    assert "<timestamp>" in out
    assert code == entry["exit"]
    assert out == (GOLDEN / f"{name}{SUFFIX[fmt]}").read_text(encoding="utf-8")


def record():
    manifest = {}
    for name, argv in COMMANDS.items():
        for fmt, suffix in SUFFIX.items():
            code, out = report(argv, fmt)
            (GOLDEN / f"{name}{suffix}").write_text(out, encoding="utf-8")
        manifest[name] = {"argv": argv, "exit": code}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    sys.exit(record())
