"""Rules about the package source that no behavioural test can see."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import perfectnt

PACKAGE = Path(perfectnt.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


# numpy's product functions: any `.dot(` call, and these on np or numpy
PRODUCT_FUNCTIONS = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}


def _products(tree: ast.AST) -> list[ast.AST]:
    """Every matrix product: `@`, `@=`, `x.dot(...)` and np.matmul and its kin."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = getattr(node.func.value, "id", None)
            if node.func.attr == "dot" or (
                node.func.attr in PRODUCT_FUNCTIONS and owner in ("np", "numpy")
            ):
                found.append(node)
    return found


def test_matrix_products_only_in_the_kernel():
    # every product-then-reduce goes through matrix.mulmod, where its overflow
    # bound is checked; a product anywhere else would bypass that check
    snippet = "a @ b\nc @= d\ne.dot(f)\nnp.einsum('ij->i', g)\nnumpy.vdot(h, h)\nnp.sum(i)\n"
    assert sorted(node.lineno for node in _products(ast.parse(snippet))) == [1, 2, 3, 4, 5]
    stray = []
    for name, tree in _package_trees().items():
        allowed = set()
        if name == "matrix.py":
            kernel = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "mulmod"
            )
            allowed = {id(node) for node in ast.walk(kernel)}
        stray += [f"{name}:{node.lineno}" for node in _products(tree) if id(node) not in allowed]
    assert not stray, f"matrix products outside matrix.mulmod: {stray}"


FLOAT_TYPES = {"float16", "float32", "float64", "float128", "half", "single", "double", "longdouble"}
FLOAT_CODES = FLOAT_TYPES | {"float", "e", "f", "d", "g", "f2", "f4", "f8", "f16"}
# conversion targets that are visibly not float types; any other argument to
# astype, such as a dtype held in a variable, may be a float type
NON_FLOAT_TYPES = {"int", "bool", "object", "int8", "int16", "int32", "int64", "intp", "uint8",
                   "uint16", "uint32", "uint64", "bool_", "object_"}


def _float_dtype_lines(tree: ast.AST) -> set[int]:
    """Lines naming a float type: np.float32 and the like, a float given as a
    dtype= argument (float, "float32", "f4", ...), or astype to a type that is
    not visibly an integer, bool or object type."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FLOAT_TYPES:
            lines.add(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype" and node.args:
            converted = node.args[0]
            if getattr(converted, "attr", getattr(converted, "id", None)) not in NON_FLOAT_TYPES:
                lines.add(node.lineno)
        for arg in (kw.value for kw in node.keywords if kw.arg == "dtype"):
            name = arg.id if isinstance(arg, ast.Name) else getattr(arg, "value", None)
            if isinstance(name, str) and name in FLOAT_CODES:
                lines.add(node.lineno)
    return lines


# the only definitions in matrix.py that may name a float type: the tiers and
# the factored chain that uses them, which proves its own bound
FLOAT_DEFINITIONS = {"_FLOAT_TIERS", "Factored", "mulmod", "_reduce"}


def _definition_lines(tree: ast.Module, names: set[str]) -> set[int]:
    """Every line of the module-level definitions and assignments in `names`."""
    lines = set()
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if getattr(node, "name", None) in names or set(targets) & names:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def test_float_types_only_in_the_kernel_module():
    # a float product is exact only under the factored chain's bound, so float
    # types are named in matrix.py alone, and there only in the tiers, the
    # Factored operand, mulmod and _reduce
    snippet = (
        "a.astype(float)\nnp.zeros(3, dtype='f8')\nb = np.float32\nc.astype(np.int64)\n"
        "d.astype(kind)\ne.astype(object, copy=False)\nf.astype('f4')\n"
    )
    assert _float_dtype_lines(ast.parse(snippet)) == {1, 2, 3, 5, 7}
    defs = "X = 1\ndef f():\n    return 2\nY = (\n    3,\n)\nclass C:\n    z = 4\n"
    assert _definition_lines(ast.parse(defs), {"Y", "C"}) == {4, 5, 6, 7, 8}
    trees = _package_trees()
    stray = [
        f"{name}:{line}"
        for name, tree in trees.items()
        if name != "matrix.py"
        for line in sorted(_float_dtype_lines(tree))
    ]
    assert not stray, f"float types outside matrix.py: {stray}"
    kernel = trees["matrix.py"]
    allowed = _definition_lines(kernel, FLOAT_DEFINITIONS)
    stray = sorted(_float_dtype_lines(kernel) - allowed)
    assert not stray, f"float types in matrix.py outside {sorted(FLOAT_DEFINITIONS)}: {stray}"
    assert _float_dtype_lines(kernel)


def _referenced_names(tree: ast.AST) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _trace_targets() -> set[tuple[str, str]]:
    """The benchmark's trace targets by qualified name: (module file, function
    or Class.method), e.g. ("matrix.py", "inverse") or ("poly.py", "CyclicRing.mul")."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(f"{module.rsplit('.', 1)[1]}.py", path) for _, module, path, _, _ in tracing.TARGETS}


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_every_module_function_has_a_caller_outside_the_tests():
    # a module-level function that nothing in the package, the export list, the
    # benchmark's trace targets (module and function) or the console script
    # names is test-only code
    traced = _trace_targets()
    external = set(perfectnt.__all__)
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")[1]
    external |= set(re.findall(r':(\w+)"', scripts.split("\n[")[0]))

    trees = _package_trees()
    unused = []
    for name, tree in trees.items():
        elsewhere = set().union(*(_referenced_names(t) for n, t in trees.items() if n != name))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in external | elsewhere:
                continue
            if (name, node.name) in traced:
                continue
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if node.name not in _referenced_names(rest):
                unused.append(f"{name}:{node.name}")
    assert not unused, f"module-level functions without a caller outside the tests: {unused}"


def _is_array_receiver(node: ast.AST) -> bool:
    """numpy itself (`np`, `numpy`) or an array held in a `.data` attribute."""
    return getattr(node, "id", None) in ("np", "numpy") or getattr(node, "attr", None) == "data"


def _attribute_reads(tree: ast.AST) -> Counter:
    """Attribute names read, except on numpy or a `.data` array, whose names
    (np.zeros, m.data.copy) call no method of the package."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not _is_array_receiver(node.value)
    )


def test_every_method_has_a_caller_outside_the_tests():
    # a method is called when the package reads its name as an attribute outside
    # its own body, when the benchmark traces it as Class.method, or when the
    # README quick start reads it; dunders are called by the language itself.
    # Reads on numpy or on a `.data` array do not count: np.zeros calls no
    # FieldMatrix.zeros
    snippet = "np.zeros(1)\nnumpy.eye(2)\nm.data.copy()\nm.copy()\nm.data\n"
    assert _attribute_reads(ast.parse(snippet)) == Counter({"copy": 1, "data": 2})
    traced = _trace_targets()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    external = set(_attribute_reads(ast.parse(quick_start)))

    trees = _package_trees()
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    unused = []
    for name, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                outside = reads[node.name] - _attribute_reads(node)[node.name]
                is_traced = (name, f"{cls.name}.{node.name}") in traced
                if not is_traced and node.name not in external and outside <= 0:
                    unused.append(f"{name}:{cls.name}.{node.name}")
    assert not unused, f"methods without a caller outside the tests: {unused}"


def test_transforms_are_constructed_only_by_the_certifying_tail():
    # every TransformSpec passes through transforms._finish, where its
    # determinant is checked and its inverse is formed
    trees = _package_trees()
    finish = next(
        node for node in trees["transforms.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_finish"
    )
    inside = {id(node) for node in ast.walk(finish)}
    sites = {
        f"{name}:{node.lineno}": id(node) in inside
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "TransformSpec" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert list(sites.values()) == [True], f"TransformSpec(...) outside _finish: {sites}"


def _scoped(tree: ast.AST, scope: str = ""):
    """(qualified name of the enclosing class or function, node) for every node."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped(child, inner)


def test_factors_are_attached_only_to_transform_views():
    # mulmod multiplies a matrix that carries `_factors` through them and never
    # reads its data, so only a transform's dense view (Factored.dense) and
    # the transpose of one may attach them; _wrap's `factors` is keyword-only,
    # _set stores it, and only the constructors call _set
    sites, setters, stores = set(), set(), set()
    for name, tree in _package_trees().items():
        for scope, node in _scoped(tree):
            where = f"{name}:{scope}"
            if isinstance(node, ast.Call):
                func = getattr(node.func, "attr", getattr(node.func, "id", None))
                if func == "_set":
                    setters.add(where)
                if any(kw.arg == "factors" for kw in node.keywords):
                    sites.add(where)
            if isinstance(node, ast.Constant) and node.value == "_factors":
                stores.add(where)
    assert sites == {"matrix.py:Factored.dense", "matrix.py:FieldMatrix.transpose"}, sites
    assert setters == {"matrix.py:FieldMatrix.__init__", "matrix.py:FieldMatrix._wrap"}, setters
    assert stores == {"matrix.py:FieldMatrix", "matrix.py:FieldMatrix._set"}, stores


def _monomial_calls(tree: ast.AST) -> list[int]:
    """Lines calling `<anything>.monomial(...)`, the way x^N - 1 is formed."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "monomial"
    ]


def _imports_from(tree: ast.AST, module: str) -> list[int]:
    """Lines importing the package module `module` or a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.rsplit(".", 1)[-1] == module for name in names):
            found.append(node.lineno)
    return found


def test_x_to_the_n_minus_one_is_divided_only_in_codes():
    # a cyclic code's CodeSpec divides x^N - 1 by h once and keeps g, so no
    # other module forms x^N - 1, and the polynomial route in transforms.py
    # reads g off the code instead of dividing through poly
    snippet = (
        "from .poly import FieldPoly\nimport perfectnt.poly\nfrom . import poly\n"
        "from .polys import x\nFieldPoly.monomial(f, n)\nx.mono(1)\n"
    )
    tree = ast.parse(snippet)
    assert (_monomial_calls(tree), _imports_from(tree, "poly")) == ([5], [1, 2, 3])
    trees = _package_trees()
    stray = [
        f"{name}:{line}"
        for name, tree in trees.items()
        if name != "codes.py"
        for line in _monomial_calls(tree)
    ]
    assert not stray, f"FieldPoly.monomial called outside codes.py: {stray}"
    assert _monomial_calls(trees["codes.py"])
    assert not _imports_from(trees["transforms.py"], "poly"), "transforms.py imports from poly"
