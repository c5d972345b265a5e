"""Every name the benchmark under perfbench/ reads from the package resolves.

The benchmark runs against the package as it stands, so a renamed or
deleted function would only show when ``perfbench/run.py --trace 1`` or a
workload fails.  This test reads the benchmark's files without editing
them: the tracer's SPANS and relation tokens, the modules run.py imports,
and every ``et.<module>.<name>`` chain that workloads.py and selftest.py
call, an alias ``x = et.<module>`` included.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from eulertwist import checks

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def program_modules() -> tuple:
    """run.py's PROGRAM_MODULES, read from its source."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "PROGRAM_MODULES" for t in node.targets)]
    return ast.literal_eval(value)


def tracer():
    """perfbench/tracer.py, loaded from its path; it imports the standard library only."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, path: str):
    owner = importlib.import_module("eulertwist" if module == "package" else f"eulertwist.{module}")
    for part in path.split(".") if path else ():
        owner = getattr(owner, part)
    return owner


def _chain(node) -> list | None:
    """["root", "a", "b"] for the expression root.a.b, None for any other."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def called_names(filename: str) -> set:
    """(module, attribute path) of every et.<module>.<path> chain in the file's
    functions, with a local x = et.<module> read as et.<module>."""
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    out = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = {"et": None}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                chain = _chain(node.value)
                if chain and len(chain) == 2 and chain[0] == "et":
                    aliases[node.targets[0].id] = chain[1]
        for node in ast.walk(function):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if not chain or chain[0] not in aliases:
                continue
            module = aliases[chain[0]]
            parts = chain[1:] if module is None else [module, *chain[1:]]
            out.add((parts[0], ".".join(parts[1:])))
    return out


def test_run_imports_every_program_module():
    for name in program_modules():
        resolve(name, "")


@pytest.mark.parametrize("span", tracer().SPANS, ids=lambda span: f"{span[0]}:{span[2]}")
def test_every_traced_span_resolves(span):
    _, module, path = span
    assert callable(resolve(module, path))


def test_every_traced_relation_token_is_registered():
    assert set(tracer().RELATION_TOKENS) == set(checks.RELATIONS)


@pytest.mark.parametrize("filename", ["workloads.py", "selftest.py", "tracer.py"])
def test_every_name_the_benchmark_calls_resolves(filename):
    names = called_names(filename)
    assert names, filename
    modules = set(program_modules()) | {"package"}
    for module, path in sorted(names):
        assert module in modules, (filename, module)
        resolve(module, path)
