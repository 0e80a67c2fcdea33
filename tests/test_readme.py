"""The README's Python cannot go stale: its Quickstart runs as written,
and every name it gives in backticks as ``discocirc.<name>`` or as
``<module>.<name>``, for a module of the package, exists."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = {p.stem for p in (ROOT / "src" / "discocirc").glob("*.py")}


def test_quickstart_runs():
    section = README.split("\n## Quickstart\n", 1)[1].split("\n## ", 1)[0]
    compile_block, train_block = re.findall(r"```python\n(.*?)```", section,
                                            re.S)
    namespace = {}
    exec(compile_block, namespace)
    dist, success = namespace["dist"], namespace["success"]
    assert abs(sum(dist) - 1) < 1e-9 and 0 < success <= 1
    # the training block takes its dataset from the reader
    namespace["dataset"] = [(namespace["c"], 0), (namespace["c"], 1)]
    exec(train_block, namespace)
    assert len(namespace["history"].rows) == 30


def _resolves(name: str) -> bool:
    """True iff ``name``, read under ``discocirc``, is a module of the
    package or an attribute of one."""
    parts = name.split(".")
    if parts[0] != "discocirc":
        parts.insert(0, "discocirc")
    obj = importlib.import_module("discocirc")
    for k in range(1, len(parts)):
        if hasattr(obj, parts[k]):
            obj = getattr(obj, parts[k])
            continue
        try:
            obj = importlib.import_module(".".join(parts[:k + 1]))
        except ModuleNotFoundError:
            return False
    return True


def test_every_name_the_readme_gives_exists():
    names = sorted({name for name in re.findall(
        r"`([A-Za-z_]\w*(?:\.\w+)+)`", README)
        if name.split(".")[0] in MODULES | {"discocirc"}})
    assert any(name.startswith("discocirc.") for name in names)
    assert any(not name.startswith("discocirc.") for name in names)
    assert [name for name in names if not _resolves(name)] == []
