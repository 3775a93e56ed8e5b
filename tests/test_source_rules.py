"""Rules about the package source that no behavioural test can see."""

import ast
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
