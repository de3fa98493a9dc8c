"""Every import in `src/ecbench` is used, unless its statement carries
`# noqa: F401` (a name kept bound for callers outside the module)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ecbench"


def unused_imports(source: str) -> list[str]:
    """`line: name` for each imported name that `source` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or "# noqa: F401" in "\n".join(
                    lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a string annotation reads the names in its text
    annotations = [getattr(n, field, None) for n in ast.walk(tree)
                   for field in ("annotation", "returns")]
    for text in (c.value for a in annotations if a is not None
                 for c in ast.walk(a)
                 if isinstance(c, ast.Constant) and isinstance(c.value, str)):
        used |= {n.id for n in ast.walk(ast.parse(text, mode="eval"))
                 if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names exported through __all__
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\nimport os\nimport re  # noqa: F401\n"
              "from typing import (  # noqa: F401\n    Any,\n)\n"
              "from pathlib import Path, PurePath\n"
              "def f(x: 'Path') -> None:\n    return os.sep\n")
    assert unused_imports(source) == ["2: json", "8: PurePath"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
