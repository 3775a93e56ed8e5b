"""Contracts outside the package that name its functions: the top-level
export list, the README quick start, and the benchmark's trace targets."""

import importlib
import importlib.util
import re
from pathlib import Path

import perfectnt
from perfectnt.cli import main

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


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_targets_resolve():
    for span, module_name, path, _, _ in _load_tracing().TARGETS:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (span, module_name, path)


def test_cli_builds_are_traced(capsys):
    # the CLI looks its builder up on every call, so the tracer's patches reach it:
    # gen builds once, eigen once per residue lambda (p = 2)
    selector = ["--code", "hamming", "--p", "2", "--m", "3", "--form", "cyclic"]
    for command, builds in (("gen", 1), ("eigen", 2)):
        tracer = _load_tracing().Tracer()
        tracer.install()
        try:
            status = main([command, *selector])
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert status == 0
        assert [span[3] for span in tracer.spans].count("transforms.build") == builds, command
