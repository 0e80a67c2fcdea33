"""Runtime modules hold no helpers that only the tests use.

Every public module-level function, class and constant of
``src/discocirc``, and every public method and property of a public
class there, must be named by runtime code: a module of the package, a
demo or the benchmark harness, outside its own definition and the
package's re-exports in ``__init__.py``.  A module-level name counts as
read through an attribute only off a ``discocirc`` module (``sim.train``
reads ``train``, ``thetas.T`` reads no ``T``); a method counts as read
through any attribute except one off an imported outside name
(``json.load`` reads no ``Lexicon.load``).  The few names kept for
library users alone are listed in the README's "Python API" section.
Click commands are exempt, as the command line is their caller, and so
are dunders and overrides of a method an outside base class declares
(``_Group.invoke``), as their caller is that class's machinery.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "discocirc"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _imports(tree) -> tuple[set, set]:
    """The names a file binds to ``discocirc`` modules, and the names it
    imports from elsewhere."""
    modules, outside = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:
                root = a.name.partition(".")[0]
                bound = a.asname or root
                if root == "discocirc":
                    modules.add(bound)
                else:
                    outside.add(bound)
        elif isinstance(n, ast.ImportFrom):
            ours = n.level > 0 or (n.module or "").startswith("discocirc")
            for a in n.names:
                bound = a.asname or a.name
                if not ours:
                    outside.add(bound)
                elif a.name in MODULES:
                    modules.add(bound)
    return modules, outside


def _off(value, names) -> bool:
    """True iff an attribute's ``value`` is a name in ``names``, or a
    module attribute of one (``discocirc.sim``)."""
    if isinstance(value, ast.Attribute) and value.attr in MODULES:
        value = value.value
    return isinstance(value, ast.Name) and value.id in names


def _names(node, modules) -> set:
    """The module-level names a statement reads: names, imports and
    attributes off a ``discocirc`` module."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and _off(n.value, modules):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _attributes(node, outside) -> Counter:
    """The attributes a node reads off anything but an outside import."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and not _off(n.value, outside))


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


def _methods(path, stmt) -> list:
    """The public methods and properties of a public class statement,
    less overrides of a method that an outside base class declares."""
    if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
        return []
    cls = getattr(importlib.import_module(f"discocirc.{path.stem}"),
                  stmt.name)
    outside = [base for base in cls.__mro__[1:]
               if not base.__module__.startswith("discocirc")]
    return [m for m in stmt.body
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            and not any(hasattr(base, m.name) for base in outside)]


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
    statements, attributes, outside = [], Counter(), {}
    for path in runtime:
        tree = ast.parse(path.read_text("utf-8"))
        modules, outside[path] = _imports(tree)
        statements += [(path, stmt, _names(stmt, modules))
                       for stmt in tree.body]
        attributes += _attributes(tree, outside[path])
    listed = _python_api()
    unused = []
    for path, stmt, _ in statements:
        if path.parent != PACKAGE or _is_command(stmt):
            continue
        for name in _defined(stmt):
            if not any(name in names for _, other, names in statements
                       if other is not stmt):
                unused.append(f"{path.stem}.{name}")
        for method in _methods(path, stmt):
            # its own body, recursing, is no caller
            own = _attributes(method, outside[path])[method.name]
            if attributes[method.name] <= own:
                unused.append(f"{path.stem}.{stmt.name}.{method.name}")
    assert sorted(set(unused) - listed) == []
    # a listed name that has gained a caller leaves the list
    assert sorted(listed - set(unused)) == []


def test_every_traced_function_resolves():
    """The benchmark's tracer looks each of its ``TRACED`` (layer, module,
    function) up with ``getattr`` and no default, so a renamed or deleted
    function breaks the traced run."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text("utf-8"))
    traced = next(ast.literal_eval(stmt.value) for stmt in tree.body
                  if isinstance(stmt, ast.Assign)
                  and [t.id for t in stmt.targets] == ["TRACED"])
    assert traced
    missing = [f"{module}.{name}" for _, module, name in traced
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
