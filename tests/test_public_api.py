"""Contracts outside the package that name its functions: the top-level
export list, the README quick start, and the benchmark's trace targets."""

import importlib
import importlib.util
import re
from pathlib import Path

import perfectnt

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_imports():
    namespace = {}
    exec("from perfectnt import *", namespace)  # AttributeError on a stale name
    assert set(perfectnt.__all__) <= set(namespace)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(snippet, namespace)
    assert namespace["t"].det == 2
    assert namespace["report"].all_passed


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, module_name, path, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (span, module_name, path)
