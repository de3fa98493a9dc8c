"""Every import in `src/ecbench` is used, unless its statement carries
`# noqa: F401` (a name kept bound for callers outside the module; outside
`__init__`, only for the benchmark tracer, and only while it binds a name
the module does not read), and every private module-level name, method and
class attribute there is read somewhere in `src/ecbench`."""

import ast
import importlib
from pathlib import Path

import pytest

from test_oracle import bench_tracing

SRC = Path(__file__).resolve().parents[1] / "src" / "ecbench"


def imports_and_reads(source: str) -> tuple[list, set[str]]:
    """(line, kept, names) for each import statement of `source`, `kept`
    when it carries `# noqa: F401`, and the names `source` reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imports = [(node.lineno,
                "# noqa: F401" in "\n".join(
                    lines[node.lineno - 1:node.end_lineno]),
                [alias.asname or alias.name.split(".")[0]
                 for alias in node.names])
               for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
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
    return imports, used


def unused_imports(source: str, kept: bool = False) -> list[str]:
    """`line: name` for each imported name that `source` never reads: of the
    statements without `# noqa: F401`, or of those with it if `kept`."""
    imports, used = imports_and_reads(source)
    imported = {name: line for line, marked, names in imports
                if marked == kept for name in names}
    return [f"{line}: {name}" for name, line in imported.items()
            if name not in used]


def stale_marks(source: str) -> list[int]:
    """The line of each `# noqa: F401` import statement of `source` whose
    every imported name `source` reads: the mark keeps nothing bound."""
    imports, used = imports_and_reads(source)
    return [line for line, marked, names in imports
            if marked and used.issuperset(names)]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\nimport os\nimport re  # noqa: F401\n"
              "from typing import (  # noqa: F401\n    Any,\n)\n"
              "from pathlib import Path, PurePath\n"
              "def f(x: 'Path') -> None:\n    return os.sep\n")
    assert unused_imports(source) == ["2: json", "8: PurePath"]
    assert unused_imports(source, kept=True) == ["4: re", "5: Any"]


def test_the_check_finds_a_stale_mark():
    source = ("import json  # noqa: F401\nimport os  # noqa: F401\n"
              "from typing import (  # noqa: F401\n    Any,\n    IO,\n)\n"
              "def f(x: 'Any') -> IO:\n    return json.dumps(x)\n")
    assert stale_marks(source) == [1, 3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                         if p.stem != "__init__"),
                         ids=lambda path: path.name)
def test_no_stale_noqa_marks(path):
    # outside __init__ a mark keeps a name bound for the benchmark tracer;
    # once the module reads every name of the statement, the mark is stale
    assert stale_marks(path.read_text()) == []


def test_each_kept_binding_is_patched_by_the_benchmark_tracer():
    # a name a module imports under `# noqa: F401` and never reads is bound
    # only so that benchmarks/tracing.py can rebind it there; once the
    # tracer no longer patches it, the binding is stale
    tracing = bench_tracing()
    patched = {(owner, attr) for owner, attr, *_ in tracing._span_table()}
    patched |= {(owner, attr) for owner, attr, _ in tracing._COUNTER_TABLE}
    kept = [(path.stem, entry.split(": ")[1])
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
            for entry in unused_imports(path.read_text(), kept=True)]
    assert kept  # the scan finds the bindings
    for module, name in kept:
        owner = importlib.import_module(f"ecbench.{module}")
        assert (owner, name) in patched, f"{module}.{name}"


def defined_names(node: ast.stmt) -> list[str]:
    """The names a function, class or assignment statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [n.id for t in node.targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """`module: name` for each private module-level function, class or
    constant of `sources` (module name to text) that no module reads as a
    name, an attribute or an import, and `module: Class.name` for each
    private method or class attribute that no module reads as an
    attribute."""
    defined, names, attributes = {}, set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            statements = [("", node)]
            if isinstance(node, ast.ClassDef):
                statements += [(f"{node.name}.", member)
                               for member in node.body]
            for owner, statement in statements:
                for name in defined_names(statement):
                    if name.startswith("_") and not name.startswith("__"):
                        defined[f"{module}: {owner}{name}"] = name, owner
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return [where for where, (name, owner) in defined.items()
            if name not in attributes and (owner or name not in names)]


def test_the_check_finds_a_dead_helper():
    sources = {
        "a": ("_USED, _DEAD = 1, 2\n_ALSO: int = 3\n__version__ = '1'\n"
              "def _orphan():\n    return _USED\n"
              "class _Kept:\n    _LIVE, _UNREAD = 1, 2\n    _typed: int\n"
              "    def __init__(self):\n        self._live()\n"
              "    def _live(self):\n        return self._LIVE\n"
              "    def _uncalled(self):\n        return _uncalled\n"
              "def public():\n    return _Kept\n"),
        "b": "from .a import _ALSO\nimport a\nx = a._called()\n"
             "def _called():\n    return a._Kept()._typed\n"
             "_uncalled = 0\n",
    }
    assert dead_helpers(sources) == ["a: _DEAD", "a: _orphan",
                                     "a: _Kept._UNREAD", "a: _Kept._uncalled"]


def test_no_dead_private_helpers():
    assert dead_helpers({path.stem: path.read_text()
                         for path in sorted(SRC.glob("*.py"))}) == []
