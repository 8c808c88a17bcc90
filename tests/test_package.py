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


def test_reads_no_environment():
    """A result follows from a command's arguments alone: no module of the
    package names environ, getenv or putenv, as a name, an attribute or an
    imported name."""
    found = set()
    for path in sorted(pathlib.Path(monochrome.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            found.update((path.name, name) for name in names & {"environ", "getenv", "putenv"})
    assert not found


def _bench_names(filename: str) -> dict:
    """The top-level assignments of a bench/ script, by name, read with ast
    (the script is not imported)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / filename
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def test_window_raw_values_are_the_benchmark_oracles():
    """The benchmark compares raw values (.val) with bench/oracle.py's,
    which imports nothing from monochrome: each SCAN_CASES window's raw
    values, in window order, equal the oracle's window, so a change of
    raw format fails here and not first as a refused benchmark run."""
    import importlib.util

    from monochrome import enumerate_window, parse_ring_spec, parse_window_params

    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    cases = ast.literal_eval(_bench_names("workloads.py")["SCAN_CASES"])
    assert len(cases) == 5
    for ring, params, *_ in cases:
        ring_spec = parse_ring_spec(ring)
        window = enumerate_window(ring_spec, parse_window_params(ring_spec, params))
        assert [e.val for e in window.elements] == oracle.Ring(ring).window(params), (ring, params)


def test_benchmark_instrumentation_binds():
    """bench/tracer.py wraps only the public functions and CLI handlers it
    finds, so a renamed or removed one would read 0 in a per-layer metric
    instead of failing: every name the benchmark reads must still exist.
    So must the attributes and fields it reads off the package's objects
    (micro_ns in bench/run.py, the HOOKS of bench/tracer.py and
    bench/workloads.py): only a traced run reads the hooks' ones, so a
    dropped one would otherwise break only that run."""
    import dataclasses
    import importlib
    import inspect

    from monochrome import cli, colorings, dpll, patterns, rings, search

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

    read = [(rings.Window, "elements"), (rings.Window, "index"), (colorings.Coloring, "window"),
            (rings.RingSpec, "zero"), (rings.RingSpec, "one"),
            (patterns.ScanConstraints, "admits_x"), (patterns.ScanConstraints, "admits_y"),
            (search.AvoidanceInstance, "candidates"), (search.AvoidanceResult, "nodes"),
            (search.AvoidanceResult, "backtracks"), (search.MoreiraResult, "trace"),
            (search.CnfDocument, "clauses"), (dpll, "dpll_sat")]
    missing = [(owner.__name__, name) for owner, name in read
               if not hasattr(owner, name) and not (dataclasses.is_dataclass(owner) and name in
                                                    {f.name for f in dataclasses.fields(owner)})]
    assert not missing


# Public API that nothing in src/, demos/ or bench/ calls, kept on purpose
_UNCALLED_KEPT = {
    "pattern_color": "test_patterns' abundance oracle compares against it as the reference",
    "PatternInstance.degenerate": "the same oracle's reference degeneracy test",
    "RingSpec.gaussian": "the Zi constructor, beside integer and poly",
}


def _public_definitions(package: pathlib.Path) -> set:
    """'name' for each public module-level function of the package, and
    'Class.name' for each public method or property of a public class."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found.add(node.name)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return found


class _References(ast.NodeVisitor):
    """The names a file loads, other than those a function binds locally
    (a local `words` is not a call of halesjewett's), and the attribute
    names it reads."""

    def __init__(self):
        self.names, self.attrs, self._scopes = set(), set(), []

    def visit_FunctionDef(self, node):
        args = node.args
        bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if a is not None}
        bound |= {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        self._scopes.append(bound)
        self.generic_visit(node)
        self._scopes.pop()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self._scopes):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        self.generic_visit(node)


def test_every_public_helper_has_a_caller():
    """A public function, method or property that only tests reach is a
    second implementation waiting to drift: each must be referenced from
    src/ (the __init__.py re-exports do not count), demos/ or bench/.
    A method counts as referenced when some file reads an attribute of
    its name."""
    root = pathlib.Path(__file__).resolve().parent.parent
    package = pathlib.Path(monochrome.__file__).parent
    refs = _References()
    for path in [*sorted(package.glob("*.py")), *sorted((root / "demos").rglob("*.py")),
                 *sorted((root / "bench").rglob("*.py"))]:
        if path != package / "__init__.py":
            refs.visit(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = {name for name in _public_definitions(package)
                if name.rpartition(".")[2] not in refs.attrs
                and ("." in name or name not in refs.names)}
    only_tests = sorted(uncalled - set(_UNCALLED_KEPT))
    assert not only_tests, f"only tests reach {', '.join(only_tests)}"
    assert set(_UNCALLED_KEPT) <= uncalled, "an allowlisted name has a caller now: drop it"


# Optional parameters that nothing in src/, demos/ or bench/ passes, kept on purpose
_UNPASSED_KEPT = {
    "moreira_number.constraints": "restricts y to an ideal (ROADMAP direction 11), and "
                                  "test_zi_threshold_probes_the_least_box needs it",
}


def test_every_optional_parameter_has_a_caller():
    """A parameter with a default that no caller passes is a knob whose
    other setting only tests run: for each public module-level function
    of the package, each such parameter must be passed, by position or
    by keyword, by some call of that name in src/ (not __init__.py),
    demos/ or bench/.  A call with *args or **kwargs counts as passing
    every parameter of its kind."""
    root = pathlib.Path(__file__).resolve().parent.parent
    package = pathlib.Path(monochrome.__file__).parent
    optional = {}  # (function, parameter) -> its position, None for keyword-only
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                first = len(positional) - len(args.defaults)
                optional.update(((node.name, a.arg), i) for i, a in enumerate(positional) if i >= first)
                optional.update(((node.name, a.arg), None)
                                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    passed = set()
    for path in [*sorted(package.glob("*.py")), *sorted((root / "demos").rglob("*.py")),
                 *sorted((root / "bench").rglob("*.py"))]:
        if path == package / "__init__.py":
            continue
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}
            passed.update((fn, param) for (fn, param), i in optional.items() if fn == name and (
                param in keywords or None in keywords
                or i is not None and (starred or i < len(call.args))))
    unpassed = {f"{fn}.{param}" for fn, param in set(optional) - passed}
    only_tests = sorted(unpassed - set(_UNPASSED_KEPT))
    assert not only_tests, f"no caller passes {', '.join(only_tests)}"
    assert set(_UNPASSED_KEPT) <= unpassed, "an allowlisted parameter has a caller now: drop it"


def test_exceptions_are_input_errors_or_internal_errors():
    """An expected dead end of a search is a returned status, never an
    exception: every exception class the package defines is a ValueError
    (bad input, exit 2 in the CLI) or InternalError (a bug, exit 3)."""
    import importlib
    import inspect
    import pkgutil

    defined = set()
    for info in pkgutil.iter_modules(monochrome.__path__):
        module = importlib.import_module(f"monochrome.{info.name}")
        defined.update(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                       if issubclass(cls, BaseException) and cls.__module__.startswith("monochrome"))
    assert monochrome.InternalError in defined and monochrome.ColoringFormatError in defined
    assert sorted(cls.__name__ for cls in defined
                  if not (issubclass(cls, ValueError) or cls is monochrome.InternalError)) == []
