"""Imports: the dead-import check that CI runs over the package, scripts
and tests (scripts/check_imports.py), and what importing the package loads."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_imports", ROOT / "scripts" / "check_imports.py")
check_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_imports)


def test_package_imports_are_all_read():
    for path in sorted((ROOT / "src" / "drplane").glob("*.py")):
        assert check_imports.unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_script_and_test_imports_are_all_read():
    for path in sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        assert check_imports.unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_finds_unused_names_and_exempts_reexports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import xml.dom\n"
        "from a import b, c, d as e\n"
        "from f import g, h\n"
        "__all__ = ['c']\n"
        "def k(x: 'g') -> None:\n"
        "    os = sys.argv\n"
        "    return xml\n"
    )
    assert check_imports.unused_imports(source) == [(2, "os"), (4, "b"), (4, "e"), (5, "h")]


def test_function_local_imports_are_read_in_their_own_function():
    # another function's read of the same name does not count; a nested
    # function's does, and a module-level import may be read anywhere
    source = (
        "import json\n"
        "def f():\n"
        "    from a import b, c\n"
        "    return b\n"
        "def g():\n"
        "    from a import c\n"
        "    import os\n"
        "    return c, json\n"
        "def h():\n"
        "    import sys\n"
        "    def inner():\n"
        "        return sys\n"
        "    return inner\n"
        "def k():\n"
        "    return os\n"
    )
    assert check_imports.unused_imports(source) == [(3, "c"), (7, "os")]


# Run in a fresh `python -S` interpreter: prints, as JSON, what the package
# import loads and how its lazy names and path records behave.
IMPORT_PROBE = """
import json, sys
heavy = ("logging", "typing", "drplane.cycling", "drplane.closedform", "drplane.altproj")
loaded = lambda: [m for m in heavy if m in sys.modules]
out = {}
import drplane
out["after_package"] = loaded()
import drplane.cli
out["after_cli"] = loaded()
out["dir_has_all"] = "__all__" in dir(drplane)
out["unresolved"] = [n for n in drplane.__all__ if getattr(drplane, n, None) is None]
try:
    drplane.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
import io, logging
from fractions import Fraction
stream = io.StringIO()
logging.basicConfig(stream=stream, level=logging.DEBUG, format="%(name)s: %(message)s")
A = drplane.Hyperplane((Fraction(1),))
drplane.iterate(A, drplane.FiniteSet.ordered([(Fraction(-1),), (Fraction(2),)], A), (Fraction(0),), 3)
out["log"] = stream.getvalue()
print(json.dumps(out))
"""


def test_package_import_is_lazy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "after_package": [],
        "after_cli": [],
        "dir_has_all": True,
        "unresolved": [],
        "unknown": "module 'drplane' has no attribute 'no_such_name'",
        # logging imported after drplane still gets iterate's path record
        "log": "drplane.dynamics: iterate: integer lattice\n",
    }


# Run one subcommand in a fresh `python -S` interpreter, its output going to
# --out, and print its exit code and which of these modules it loaded.
SUBCOMMAND_PROBE = """
import json, sys
from drplane.cli import main
code = main(sys.argv[1:])
heavy = ("logging", "drplane.cycling", "drplane.closedform", "drplane.altproj")
print(json.dumps([code, [m for m in heavy if m in sys.modules]]))
"""

# subcommand: (drplane modules it loads, drplane modules it must not load);
# none of them loads logging
SUBCOMMAND_MODULES = {
    "run": ((), ("cycling", "closedform", "altproj")),
    "map": (("altproj",), ("cycling", "closedform")),
    "cycle": (("cycling",), ("closedform", "altproj")),
    "closed-form": ((), ("altproj",)),
    "verify": ((), ("altproj",)),
    "beatty": ((), ("altproj",)),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_its_own_modules(tmp_path, command):
    argv = [command, "--horizon", "20", "--out", str(tmp_path / "out")]
    if command != "beatty":
        argv += ["--problem", str(ROOT / "problems" / "rational_cycle.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SUBCOMMAND_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    loads, not_loaded = SUBCOMMAND_MODULES[command]
    assert code == 0 and (tmp_path / "out").stat().st_size > 0
    assert {f"drplane.{m}" for m in loads} <= set(loaded)
    assert not {"logging", *(f"drplane.{m}" for m in not_loaded)} & set(loaded)
