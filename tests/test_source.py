"""The package holds no helpers that only tests use, and no unused imports.

Every top-level public function or class of ``src/dvconv`` must be used by
code of the package (a name or an attribute, not a docstring), or be read
by the benchmark: named in BENCHMARK.json's per-layer metrics or used by
``perfbench/*.py``.  Every name a module imports must be read by that
module, unless its line carries ``# noqa: F401``.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dvconv"


def _used(tree: ast.AST) -> set[str]:
    """Every name and attribute that ``tree`` reads."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_public_name_in_src_is_used_by_src_or_by_the_benchmark():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    public, used = {}, set()
    for module, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public[node.name] = module
                # a definition that only refers to itself is not a use
                used |= _used(node) - {node.name}
            else:
                used |= _used(node)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    pinned = {metric["name"].split(".")[1] for metric in per_layer}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        pinned |= _used(ast.parse(path.read_text()))
    unused = sorted(f"{public[name]}.{name}" for name in set(public) - used - pinned)
    pinned_only = sorted(f"{public[name]}.{name}" for name in (set(public) - used) & pinned)
    assert not unused, (f"public names that neither src/ nor the benchmark uses: {unused}; "
                        f"used only because the benchmark names them, the backlog of "
                        f"ROADMAP item 1: {pinned_only}")


def test_every_import_in_src_is_used_by_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert not unused, f"imports that their module never reads: {unused}"
