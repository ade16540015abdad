"""Byte-stability of the CLI: outputs compared with committed expected bytes.

The files under ``golden/`` were captured from the CLI before the
closed-form routes moved to whole rows (the raised-entry pair before the
battery dropped its checks that could not fail); any change to a route, a
check, the failure order or the text formats shows up here as a diff.
"""
from pathlib import Path

import pytest

from wderiv.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def expected(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("ascii")


@pytest.mark.parametrize("fmt, name", [("text", "verify_n12.txt"),
                                       ("json", "verify_n12.json")])
def test_verify_n12(capsys, fmt, name):
    code, out = run(capsys, "verify", "--n-max", "12", "--format", fmt)
    assert code == 0
    assert out == expected(name)


def test_verify_bumped_table_lists_every_failure(capsys):
    # entry (9, 4) of a 12-row table bumped by +1: every route and the
    # inversion and alternating-sum identities must report it
    code, out = run(capsys, "verify", "--table",
                    str(GOLDEN / "table12_bumped_9_4.json"))
    assert code == 1
    assert out == expected("verify_table_bumped_9_4.txt")


def test_verify_table_breaking_log_concavity(capsys):
    # entry (10, 7) of a 12-row table raised a millionfold: besides the routes
    # and identities, plain and weighted log-concavity, unimodality and the
    # ratio bound fail, so the binomial inequality is never reached
    code, out = run(capsys, "verify", "--table",
                    str(GOLDEN / "table12_raised_10_7.json"))
    assert code == 1
    assert out == expected("verify_table_raised_10_7.txt")
