#!/usr/bin/env python3
"""Count the lines of a package's Python files, split by kind.

Prints total, code, docstring, comment and blank lines. Docstring lines
are those of module, class and function docstrings; comment lines hold
only a comment; blank lines hold only whitespace, outside docstrings.
Code lines are the rest. Run as ``python scripts/count_lines.py [DIR]``
(default ``src/hapstack``).
"""

import ast
import sys
from pathlib import Path

KINDS = ("total", "code", "docstrings", "comments", "blank")


def count(root: Path) -> dict[str, int]:
    counts = dict.fromkeys(KINDS, 0)
    for path in sorted(root.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        docs = set()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        counts["total"] += len(lines)
        counts["docstrings"] += len(docs)
        rest = [line.strip() for i, line in enumerate(lines, 1) if i not in docs]
        counts["blank"] += sum(not line for line in rest)
        counts["comments"] += sum(line.startswith("#") for line in rest)
    counts["code"] = counts["total"] - counts["docstrings"] - counts["comments"] - counts["blank"]
    return counts


if __name__ == "__main__":
    counts = count(Path(sys.argv[1] if len(sys.argv) > 1 else "src/hapstack"))
    print(" ".join(f"{kind}={counts[kind]}" for kind in KINDS))
