"""The package holds no helpers that only tests use, no unused imports and
no arithmetic on a seed.

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


def _is_seed(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "seed")
            or (isinstance(node, ast.Attribute) and node.attr == "seed"))


def test_no_arithmetic_on_a_seed_in_src():
    """Seeds are never offset or scaled (``seed + 1``, ``seed + d``): nearby
    seeds would then share streams.  Children come from spawning."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            operands = ((node.left, node.right) if isinstance(node, ast.BinOp)
                        else (node.target,) if isinstance(node, ast.AugAssign) else ())
            if any(_is_seed(operand) for operand in operands):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"arithmetic on a seed: {found}"


def _adjoint_of(node: ast.AST) -> ast.AST | None:
    """X for ``X.conj().swapaxes(-1, -2)``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "swapaxes"
            and [ast.unparse(arg) for arg in node.args] == ["-1", "-2"]
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "conj"):
        return node.func.value.func.value
    return None


def _halved(node: ast.AST) -> ast.AST:
    """X for ``X / 2``, else the node itself."""
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.Constant) and node.right.value == 2):
        return node.left
    return node


def test_one_hermitian_part_in_src():
    """``(X + X^dag) / 2``, halved before or after the sum, is written only in
    ``states.hermitian_part``; everything else calls it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and path.stem == "states" and fn.name == "hermitian_part"
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in skip or not (isinstance(node, ast.BinOp)
                                        and isinstance(node.op, ast.Add)):
                continue
            left, right = _halved(node.left), _halved(node.right)
            for x, adj in ((left, right), (right, left)):
                of = _adjoint_of(adj)
                if of is not None and ast.dump(of) == ast.dump(x):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"Hermitian parts outside states.hermitian_part: {found}"


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _report_adds(tree: ast.AST) -> list[ast.Call]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "report"]


def test_no_report_add_in_a_loop_in_src():
    """A suite adds each block of records with one broadcast ``report.add``,
    never one record per pass of a loop or a comprehension."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text())):
            if isinstance(loop, LOOPS):
                found |= {f"{path.name}:{call.lineno}" for call in _report_adds(loop)}
    assert not found, f"report.add inside a loop or comprehension: {sorted(found)}"


def test_report_records_change_only_in_add():
    """No code in src/ assigns, sorts or appends to a report's records except
    ``ExperimentReport.add``: the record order is the one ``add`` makes."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                and cls.name == "ExperimentReport" for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "add"
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
                    else [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                targets = [node.func.value]  # records.sort(), records.append(...)
            else:
                continue
            for target in targets:
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute) and target.attr == "records":
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"report records changed outside ExperimentReport.add: {found}"
