"""Each entry point imports only the package modules it runs.

Every case starts a fresh interpreter, since this one has loaded the whole
package already.
"""
import json
import subprocess
import sys

import pytest

import wderiv
from wderiv import numeric
from wderiv.cli import build_parser
from conftest import src_env


def added_by(statement):
    """The modules a fresh interpreter adds to ``sys.modules`` running ``statement``.

    Modules that ``site`` or the probe itself loaded beforehand do not count.
    """
    probe = (f"import json, sys\nbefore = set(sys.modules)\n{statement}\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def loaded_after(statement):
    """The ``wderiv`` modules a fresh interpreter holds after ``statement``."""
    return {m for m in added_by(statement) if m.split(".")[0] == "wderiv"}


def imported_by_command(*argv):
    """Every module in ``sys.modules`` when ``python -m wderiv *argv`` exits.

    The module runs as ``-m`` runs it; an exit hook writes the names to
    stderr last.
    """
    probe = ("import atexit, json, runpy, sys\n"
             "atexit.register(lambda: sys.stderr.write(json.dumps(sorted(sys.modules))))\n"
             "runpy.run_module('wderiv', run_name='__main__', alter_sys=True)")
    stderr = subprocess.run([sys.executable, "-c", probe, *argv], env=src_env(),
                            capture_output=True, text=True, check=True).stderr
    return set(json.loads(stderr.splitlines()[-1]))


EXACT = {"wderiv", "wderiv.triangle", "wderiv.closed_forms", "wderiv.properties",
         "wderiv.verify"}
# the default verify needs the exact layer; table, verify --table and eval
# import the rest
CLI = EXACT | {"wderiv.cli"}
# decimal with its C module and numbers: only a table file needs them
DECIMAL = {"decimal", "_decimal", "numbers"}


@pytest.mark.parametrize("statement, want", [
    ("import wderiv", {"wderiv"}),
    ("import wderiv.numeric", {"wderiv", "wderiv.numeric"}),
    ("import wderiv.cli", CLI),
    # a submodule name imports that submodule and nothing else
    ("from wderiv import triangle", {"wderiv", "wderiv.triangle"}),
    ("from wderiv import cli", CLI),
    ("from wderiv import *", EXACT | {"wderiv.numeric", "wderiv.tableio"}),
])
def test_loaded_modules(statement, want):
    assert loaded_after(statement) == want


@pytest.mark.parametrize("statement", ["import wderiv.cli", "import wderiv.numeric"])
def test_value_types_import_neither_dataclasses_nor_inspect(statement):
    assert not {"dataclasses", "inspect"} & added_by(statement)


@pytest.mark.parametrize("statement", ["import wderiv.cli", "import wderiv.verify",
                                       "from wderiv import triangle"])
def test_exact_layer_imports_neither_decimal_nor_fractions(statement):
    assert not (DECIMAL | {"fractions"}) & added_by(statement)


def test_exact_rstirling_value_loads_no_fractions():
    # the quotient is checked with divmod; only an inexact one needs a Fraction
    assert "fractions" not in added_by(
        "from wderiv.closed_forms import rstirling_shifted\n"
        "assert rstirling_shifted(8, 3, 2) == 35574")


def test_default_verify_loads_no_table_file_module():
    assert not (DECIMAL | {"fractions", "wderiv.tableio"}) & imported_by_command(
        "verify", "--n-max", "5")


def test_table_file_commands_load_decimal_and_tableio(tmp_path):
    path = tmp_path / "t5.json"
    written = imported_by_command("table", "--n-max", "5", "--format", "json",
                                  "--out", str(path))
    read = imported_by_command("verify", "--table", str(path))
    for loaded in (written, read):
        assert DECIMAL | {"wderiv.tableio"} <= loaded
        assert "fractions" not in loaded  # only an inexact quotient needs it


def test_unknown_names_raise_and_dir_lists_every_name():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wderiv.no_such_name
    assert set(wderiv.__all__) < set(dir(wderiv))


def test_eval_route_choices_are_the_numeric_routes():
    """``cli`` spells the routes out so that it need not import ``numeric``."""
    eval_parser = build_parser()._subparsers._group_actions[0].choices["eval"]
    (route,) = (a for a in eval_parser._actions if a.dest == "route")
    assert route.choices == (numeric.ROUTE_CLOSED, numeric.ROUTE_TAYLOR,
                             numeric.ROUTE_FD)
    assert route.default == numeric.ROUTE_CLOSED
