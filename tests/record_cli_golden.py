"""Record the CLI-output gate: tests/golden/cli_outputs.jsonl.

    PYTHONPATH=src python tests/record_cli_golden.py

Runs every argv of ``argvs()`` through ``gpspec.cli.main`` in this process
and writes one JSON line per argv: the argv, its exit code, the SHA-256 of
its stdout and the last line of its stderr (the ``error: ...`` diagnostic, or
"" when stderr is empty; argparse's usage lines above it are left out, as
they wrap with the terminal width).  ``test_cli.test_golden_cli_outputs``
replays the file, so any change to what a command prints, how it exits or
what it reports on failure shows up there.  Re-record
only for a deliberate output change, and name the argv whose entries changed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from gpspec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.jsonl"
FORMATS = ("pretty", "json", "csv")
VARIANTS = ("gp", "gpsum", "comp", "gpsum-comp")

#: (k, p, m): case A and semiprimitive for k = 3 and 4, and the -m twins of LIFTS
M_GRAPHS = [(3, 7, 3), (3, 2, 4), (4, 5, 4), (4, 3, 4),
            (3, 31, 6), (3, 7, 12), (3, 7, 15), (4, 5, 8)]
#: (k, p, s, level): s = 0 and s > 0 for k = 3, and k = 4
LIFTS = [(3, 31, 0, 2), (3, 7, 1, 1), (3, 7, 2, 1), (4, 5, 0, 2)]
#: one fault each, with the commands that must reject it
FAULTS = [
    ["-k", "3", "-p", "31", "--lift", "0"],
    ["-k", "4", "-p", "5", "--lift", "-1"],
    ["-k", "3", "-p", "7", "-t", "2", "--lift", "1"],
    ["-k", "3", "-p", "7", "-s", "3", "--lift", "1"],
    ["-k", "3", "-p", "5", "--lift", "1"],
    ["-k", "4", "-p", "5", "-s", "1", "--lift", "1"],
    ["-k", "4", "-p", "7", "--lift", "1"],
    ["-k", "3", "-p", "7", "-m", "2"],
    ["-k", "3", "-p", "7", "-m", "3", "-t", "3"],
    ["-k", "3", "-p", "3317044064679887385961981", "-m", "3"],
]


def argvs() -> list[list[str]]:
    out = []
    routes = [["-k", str(k), "-p", str(p), "-m", str(m)] for k, p, m in M_GRAPHS]
    routes += [["-k", str(k), "-p", str(p)] + (["-s", str(s)] if s else []) + ["--lift", str(ell)]
               for k, p, s, ell in LIFTS]
    for cmd in ("spectrum", "energy", "equienergetic"):
        for route in routes:
            for variant in VARIANTS:
                for fmt in FORMATS:
                    out.append([cmd, *route, "--variant", variant, "--format", fmt])
        out += [[cmd, *fault] for fault in FAULTS]
    for route in (["-k", "3", "-p", "7", "-m", "3"], ["-k", "4", "-p", "5", "--lift", "1"]):
        out += [["verify", *route, "--format", fmt] for fmt in FORMATS]
    for family in (["-k", "3", "-p", "31"], ["-k", "3", "-p", "7", "-s", "1"],
                   ["-k", "3", "-p", "7", "-t", "3", "-s", "2"], ["-k", "4", "-p", "5"]):
        for fmt in FORMATS:
            out.append(["lift", *family, "--ell-max", "4", "--format", fmt])
            out.append(["family", *family, "--ell-max", "6", "--format", fmt])
        out.append(["lift", *family, "--lift", "2"])
    out += [["lift", "-k", "4", "-p", "5", "--lift", "0"], ["family", "-k", "3", "-p", "13", "--ell-max", "0"],
            ["family", "-k", "3", "-p", "5", "--ell-max", "2"], ["lift", "-k", "4", "-p", "7", "--ell-max", "2"]]
    out += [["tables"]] + [["tables", "--table", w] for w in ("1", "2", "3", "all")]
    # results past the interpreter's 4300-digit int/str limit
    out += [["spectrum", "-k", "3", "-p", "31", "--lift", ell, "--format", fmt]
            for ell in ("900", "1500") for fmt in FORMATS]
    return out


def run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:                    # argparse rejects the command line
            code = exc.code
    lines = stderr.getvalue().splitlines()
    return {"argv": argv, "code": code,
            "stdout_sha256": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest(),
            "diagnostic": lines[-1] if lines else ""}


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for argv in argvs():
            fh.write(json.dumps(run(argv)) + "\n")
