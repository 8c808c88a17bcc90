"""Rules over the package source as a whole."""

import ast
import pathlib
import sys

import monochrome


def test_imports_only_the_standard_library():
    """monochrome has no runtime dependencies: every import in the package
    is relative or names a module of the standard library."""
    outside = set()
    for path in sorted(pathlib.Path(monochrome.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update((path.name, name) for name in names
                           if name.partition(".")[0] not in sys.stdlib_module_names)
    assert not outside


def _bench_names(filename: str) -> dict:
    """The top-level assignments of a bench/ script, by name, read with ast
    (the script is not imported)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / filename
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def test_benchmark_instrumentation_binds():
    """bench/tracer.py wraps only the public functions and CLI handlers it
    finds, so a renamed or removed one would read 0 in a per-layer metric
    instead of failing: every name the benchmark reads must still exist."""
    import importlib
    import inspect

    from monochrome import cli

    run = _bench_names("run.py")
    spans = [name for names in ast.literal_eval(run["LAYER_MS"]).values() for name in names]
    spans += ast.literal_eval(run["LAYER_CALLS"])
    spans += [ast.literal_eval(key) for key in _bench_names("tracer.py")["HOOKS"].keys]
    unbound = []
    for span in spans:
        module, _, name = span.partition(".")
        fn = getattr(importlib.import_module(f"monochrome.{module}"), name, None)
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != f"monochrome.{module}"):
            unbound.append(span)
    assert not unbound
    assert set(ast.literal_eval(run["CLI_COMMANDS"])) <= set(cli._HANDLERS)
