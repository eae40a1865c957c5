"""scripts/count_lines.py: the line split behind the package's size figures."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    path = ROOT / "scripts" / "count_lines.py"
    spec = importlib.util.spec_from_file_location("count_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kinds_sum_to_the_newline_count():
    package = ROOT / "src" / "hapstack"
    counts = load_script().count(package)
    newlines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))  # wc -l
    assert counts["total"] == newlines
    assert sum(counts[kind] for kind in ("code", "docstrings", "comments", "blank")) == newlines
    assert min(counts.values()) > 0


def test_split_of_a_small_module(tmp_path):
    (tmp_path / "m.py").write_text('"""Module\n\ndoc."""\n\n# a comment\nx = 1  # code\n\n\n'
                                   'def f():\n    """One line."""\n    return x\n',
                                   encoding="utf-8")
    assert load_script().count(tmp_path) == {"total": 11, "code": 3, "docstrings": 4,
                                             "comments": 1, "blank": 3}
