"""Runtime modules hold no helpers that only the tests use.

Every public module-level function, class and constant of
``src/discocirc`` must be named by runtime code: a module of the package,
a demo or the benchmark harness, outside its own definition and the
package's re-exports in ``__init__.py``.  The few names kept for library
users alone are listed in the README's "Python API" section.  Click
commands are exempt: the command line is their caller.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "discocirc"


def _names(node) -> set:
    """The names a statement reads: names, attributes and imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _defined(stmt) -> list:
    """The public names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                        ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _is_command(stmt) -> bool:
    return isinstance(stmt, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in stmt.decorator_list)


def _python_api() -> set:
    """The ``module.name`` entries of the README's "Python API" list."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+\.\w+)`", section, re.M))


def test_every_public_name_has_a_runtime_caller():
    runtime = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    runtime += sorted((ROOT / "demos").glob("*.py"))
    runtime += sorted((ROOT / "perfbench").glob("*.py"))
    statements = [(path, stmt, _names(stmt)) for path in runtime
                  for stmt in ast.parse(path.read_text("utf-8")).body]
    listed = _python_api()
    unused = []
    for path, stmt, _ in statements:
        if path.parent != PACKAGE or _is_command(stmt):
            continue
        for name in _defined(stmt):
            if not any(name in names for _, other, names in statements
                       if other is not stmt):
                unused.append(f"{path.stem}.{name}")
    assert sorted(set(unused) - listed) == []
    # a listed name that has gained a caller leaves the list
    assert sorted(listed - set(unused)) == []
