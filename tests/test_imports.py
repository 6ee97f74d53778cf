"""The dead-import check that CI runs over the package, scripts and tests
(scripts/check_imports.py)."""

import importlib.util
from pathlib import Path

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
