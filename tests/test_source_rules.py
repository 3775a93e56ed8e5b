"""Rules about the package source that no behavioural test can see."""

import ast
import importlib.util
import re
from pathlib import Path

import perfectnt

PACKAGE = Path(perfectnt.__file__).resolve().parent


def test_matrix_products_only_in_the_kernel():
    # every product-then-reduce goes through matrix.mulmod, where its overflow
    # bound is checked; an `@` anywhere else would bypass that check
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "matrix.py":
            kernel = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "mulmod"
            )
            allowed = {id(node) for node in ast.walk(kernel)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                if id(node) not in allowed:
                    stray.append(f"{path.name}:{node.lineno}")
    assert not stray, f"`@` outside matrix.mulmod: {stray}"


def _referenced_names(tree: ast.AST) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_module_function_has_a_caller_outside_the_tests():
    # a module-level function that nothing in the package, the export list, the
    # benchmark's trace targets or the console script names is test-only code
    root = PACKAGE.parents[1]
    spec = importlib.util.spec_from_file_location("bench_tracing", root / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    external = {path.split(".")[0] for _, _, path, _, _ in tracing.TARGETS}
    external |= set(perfectnt.__all__)
    scripts = (root / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")[1]
    external |= set(re.findall(r':(\w+)"', scripts.split("\n[")[0]))

    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    unused = []
    for name, tree in trees.items():
        elsewhere = set().union(*(_referenced_names(t) for n, t in trees.items() if n != name))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in external | elsewhere:
                continue
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if node.name not in _referenced_names(rest):
                unused.append(f"{name}:{node.name}")
    assert not unused, f"module-level functions without a caller outside the tests: {unused}"
