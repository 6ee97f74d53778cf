#!/usr/bin/env python3
"""Report imports that a module never reads.

A name bound by ``import`` or ``from ... import`` must be read in its scope
(string annotations included) or be listed in the module's ``__all__``,
which is how a package re-exports it.  A module-level import may be read
anywhere in the module; a function-local one only inside its function,
since another function's read of the same name does not use it.
``from __future__`` imports are exempt.  Standard library only.

Usage:
    python3 scripts/check_imports.py src/drplane scripts tests

Each argument is a ``.py`` file or a directory whose ``*.py`` files are
checked.  Prints ``path:line: unused import 'name'`` for each finding and
exits 1 if there is any, else 0.
"""

import ast
import sys
from pathlib import Path


def _annotation_names(node) -> set[str]:
    """Names read by an annotation, including those inside string parts."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reads(scope) -> set[str]:
    """Names read anywhere in a scope, its nested functions included."""
    used: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, _FUNCTIONS) and node.returns:
            used |= _annotation_names(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def _imports(scope):
    """(line, name) of each import bound in a scope itself, in source order;
    the imports of its nested functions belong to those functions."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, _FUNCTIONS):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name
        yield from _imports(node)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name never read in its scope: the
    module for a module-level import, the function for a function-local
    one."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
        bound: dict[str, int] = {}
        for line, name in _imports(scope):
            bound.setdefault(name, line)
        if bound:
            used = _reads(scope)
            unused += [(line, name) for name, line in bound.items() if name not in used]
    return sorted(unused)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("Usage:")[1].strip(), file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files.extend(sorted(arg.glob("*.py")) if arg.is_dir() else [arg])
    found = 0
    for path in files:
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            print(f"{path}:{line}: unused import {name!r}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
