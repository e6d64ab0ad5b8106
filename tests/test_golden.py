"""Byte-exact CSV regression against checked-in command-line output.

Each file under ``golden/`` is the stdout of one ``pskrates`` invocation,
whose arguments are recorded in the file's ``# pskrates ...`` first line.
The test re-runs that invocation through ``cli.main`` and compares the
whole output exactly, as text so that a mismatch prints a line diff.
A difference is a change in behaviour: it needs its own stated reason, and
the files are not to be regenerated to make it pass.
"""

from pathlib import Path

import pytest

from pskrates.cli import EXIT_OK, main

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.csv"))
PREFIX = "# pskrates "


def test_golden_set_present():
    assert len(GOLDEN) == 13


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_output_is_byte_identical(path, capsys):
    expected = path.read_bytes().decode("ascii")
    first = expected.splitlines()[0]
    assert first.startswith(PREFIX)
    code = main(first[len(PREFIX):].split(" "))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.isascii()
    assert out == expected
