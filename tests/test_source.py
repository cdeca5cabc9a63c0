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


def _nodes_of(tree: ast.AST, name: str) -> set[int]:
    """The ids of the nodes inside the top-level function ``name`` of ``tree``."""
    return {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and fn.name == name for node in ast.walk(fn)}


def test_one_hermitian_part_in_src():
    """``(X + X^dag) / 2``, halved before or after the sum, is written only in
    ``states.hermitian_part``; everything else calls it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = _nodes_of(tree, "hermitian_part") if path.stem == "states" else set()
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


def test_one_root_of_unity_rule_in_src():
    """``np.exp(2j * np.pi ...)`` is written only in ``weyl.xi``, which reduces
    its exponent mod d first, and no expression raises ``xi(...)`` to a
    power: a rounded root raised to a large power drifts off the unit circle."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = _nodes_of(tree, "xi") if path.stem == "weyl" else set()
        for node in ast.walk(tree):
            angle = (isinstance(node, ast.Call) and id(node) not in skip
                     and ast.unparse(node).startswith("np.exp(2j * np.pi"))
            power = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                     and isinstance(node.left, ast.Call)
                     and ast.unparse(node.left.func).split(".")[-1] == "xi")
            if angle or power:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"roots of unity written outside weyl.xi: {found}"


def _is_frozen_dataclass(decorator: ast.AST) -> bool:
    return (isinstance(decorator, ast.Call) and ast.unparse(decorator.func) == "dataclass"
            and any(kw.arg == "frozen" and ast.unparse(kw.value) == "True"
                    for kw in decorator.keywords))


def test_every_frozen_dataclass_in_src_checks_its_own_invariant():
    """A ``@dataclass(frozen=True)`` value type defines ``__post_init__``: the
    invariant is checked where the value is made, not left to its callers."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if (isinstance(cls, ast.ClassDef)
                    and any(map(_is_frozen_dataclass, cls.decorator_list))
                    and not any(isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                                for fn in cls.body)):
                found.append(f"{path.name}:{cls.lineno} {cls.name}")
    assert not found, f"frozen dataclasses without __post_init__: {found}"


def test_dense_weyl_basis_is_built_apart_from_the_transform():
    """weyl.weyl_basis is the dense oracle of the transform, so neither it nor
    any function of weyl.py that it reaches reads the transform's tables or
    kernels: a fast path must never be used to verify itself."""
    functions = {node.name: node for node in ast.parse((SRC / "weyl.py").read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["weyl_basis"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += sorted((_used(functions[name]) & set(functions)) - reached)
    fast = {"_transform_tables", "char_table", "inverse_char", "_per_digit"}
    assert reached >= {"weyl_basis", "single_weyl_table"}
    assert not reached & fast, f"weyl_basis reaches the transform: {sorted(reached & fast)}"


def _imported_modules(node: ast.AST) -> set[str]:
    """The dotted names an import statement reads: each module, and each
    module.name of a from-import; a relative one inside the dvconv package."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ["dvconv" if node.level else None, node.module]))
        return {base} | {f"{base}.{alias.name}" for alias in node.names}
    return set()


def test_only_entropy_and_states_import_from_linalg():
    """SUPPORT_TOL lives in weyl, suite monotonicity takes its trace norms
    inline and the sandwiched divergence runs its own eigvalsh, so no module
    reads a name from linalg.  Only entropy and states import from it: the
    by-name herm_eig that perfbench/test_tracer.py checks, never called."""
    importers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = _used(tree)
        for node in ast.walk(tree):
            if "dvconv.linalg" in _imported_modules(node):
                names = {alias.asname or alias.name for alias in node.names}
                importers[path.name] = names
                assert not names & read, f"{path.name} reads {sorted(names & read)} from linalg"
    assert importers == {"entropy.py": {"herm_eig"}, "states.py": {"herm_eig"}}, importers


def test_conv_imports_nothing_from_magic():
    """holevo_bounds reads H(M(sigma)) off the count of sigma's unit points,
    so conv builds no mean state and imports nothing from magic."""
    tree = ast.parse((SRC / "conv.py").read_text())
    found = sorted(name for node in ast.walk(tree) for name in _imported_modules(node)
                   if name == "dvconv.magic" or name.startswith("dvconv.magic."))
    assert not found, f"conv.py imports from magic: {found}"


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


def _revalidated_stacks(tree: ast.AST) -> list[tuple[str, int]]:
    """(top-level function, line) of each ``DensityMatrix(...)`` call that is
    passed a subscript of a ``.mat`` or of ``mats``: a validated stack
    wrapped again, as a new state, to index or broadcast it."""
    found = []
    for fn in tree.body:
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call)
                    and ast.unparse(call.func).split(".")[-1] == "DensityMatrix"):
                continue
            args = call.args + [kw.value for kw in call.keywords]
            if any(isinstance(node, ast.Subscript)
                   and (isinstance(node.value, ast.Attribute) and node.value.attr == "mat"
                        or isinstance(node.value, ast.Name) and node.value.id == "mats")
                   for arg in args for node in ast.walk(arg)):
                found.append((getattr(fn, "name", ""), call.lineno))
    return found


def test_experiments_broadcasts_validated_stacks_as_views():
    """``rho[:, None]`` is a view of a validated stack; only suite extremality
    validates a subscripted stack, its input rows: MSPS rows and drawn rows
    joined into a new array."""
    parent = "def f(d, mats):\n    return states.DensityMatrix(d, 1, mats[:, None])\n"
    assert _revalidated_stacks(ast.parse(parent)) == [("f", 2)]
    found = _revalidated_stacks(ast.parse((SRC / "experiments.py").read_text()))
    assert {name for name, _ in found} <= {"suite_extremality"}, found
