"""The package declares numpy>=1.24; these names exist only in NumPy 2."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NUMPY_2_ONLY = re.compile(
    r"\.mT\b|\bnp\.(?:concat|pow)\(|\bpermute_dims\b|\bmatrix_transpose\b"
    r"|\bnp\.(?:unstack|astype|vecdot)\b")


def test_the_scan_sees_each_numpy_2_name():
    for line in ("m.mT @ v", "np.concat([a, b])", "np.permute_dims(a)",
                 "np.matrix_transpose(a)", "np.unstack(a)",
                 "np.astype(a, float)", "np.vecdot(a, b)", "np.pow(a, 2)"):
        assert NUMPY_2_ONLY.search(line), line
    for line in ("np.concatenate([a, b])", "a.astype(float)",
                 "a.transpose(0, 2, 1)", "np.power(a, 2)", "m.T"):
        assert not NUMPY_2_ONLY.search(line), line


def test_src_uses_no_numpy_2_only_name():
    assert "numpy>=1.24" in (SRC.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    hits = [f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if NUMPY_2_ONLY.search(line)]
    assert not hits, "NumPy 2-only names under src/:\n" + "\n".join(hits)
