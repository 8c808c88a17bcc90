"""Span tracing for the benchmark's traced run (``--trace 1``).

``Tracer.install`` replaces every public function of the ``monochrome``
package at every module binding that holds it (``cli`` and ``search``
import names directly, so patching the defining module alone would miss
their calls), and each CLI subcommand handler.  A span records name,
start, end and parent.  A generator such as ``witness_scan`` is timed
over its full consumption, from the first ``next`` to exhaustion; its
self time counts only the time spent inside the generator.

Spans live in compact arrays.  At the end of every round they are folded
into per-name totals (self time, calls); the last timed round's spans
are kept for the trace file.  Untraced runs never construct a Tracer, so
they install no wrappers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.on = False
        self.stack = [-1]
        self._reset_spans()
        self.self_s = defaultdict(float)  # (phase kind, name) -> seconds
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)  # (phase kind, counter) -> total
        self._pending = []  # (hook, args, kwargs, result): counters read at the fold
        self.kept = None  # (name, parent, start, end) arrays of the last kept round

    def spans(self) -> dict:
        """The kept round's spans, by column, for the trace file."""
        name, parent, start, end = self.kept
        return {"names": self.names, "name": name.tolist(), "parent": parent.tolist(),
                "start": start.tolist(), "end": end.tolist()}

    def _reset_spans(self):
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.gen_active: dict = {}  # span id -> seconds spent inside the generator

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public functions at every binding, and the
        CLI subcommand handlers."""
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(prefix))]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(prefix):]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{short}.{name}", HOOKS.get(f"{short}.{name}"))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        cli = sys.modules.get(prefix + "cli")
        if cli is not None:
            for cmd, handler in list(cli._HANDLERS.items()):
                cli._HANDLERS[cmd] = self._wrap(handler, f"cli.{cmd}", None)

    def _wrap(self, fn, name: str, hook):
        nid = self._name_id(name)
        tracer = self
        stack = self.stack

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.on:
                    yield from fn(*args, **kwargs)
                    return
                sid = tracer._open(nid)
                gen = fn(*args, **kwargs)
                active = 0.0
                yielded = 0
                try:
                    while True:
                        stack.append(sid)
                        t0 = _clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            active += _clock() - t0
                            stack.pop()
                        yielded += 1
                        yield item
                finally:
                    tracer.s_end[sid] = _clock()
                    tracer.gen_active[sid] = active
                    gen.close()
                    if hook is not None:
                        tracer._pending.append((hook, args, kwargs, yielded))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = tracer._open(nid)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.s_end[sid] = _clock()
            if hook is not None:
                tracer._pending.append((hook, args, kwargs, result))
            return result

        return wrapper

    def _open(self, nid: int) -> int:
        sid = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1])
        self.s_end.append(0.0)
        self.s_start.append(_clock())
        return sid

    # -- folding ---------------------------------------------------------

    def fold(self, kind: str, keep: bool = False) -> None:
        """Add the spans recorded since the last fold to the totals of
        ``kind`` ('setup', 'warmup' or 'timed') and drop them, keeping them
        for the trace file when ``keep`` is set."""
        n = len(self.s_name)
        child = [0.0] * n
        starts, ends, parents = self.s_start, self.s_end, self.s_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        active = self.gen_active
        for i in range(n):
            name = self.names[self.s_name[i]]
            busy = active[i] if i in active else ends[i] - starts[i]
            self.self_s[(kind, name)] += busy - child[i]
            self.calls[(kind, name)] += 1
        for hook, args, kwargs, result in self._pending:
            for counter, value in hook(args, kwargs, result).items():
                self.counts[(kind, counter)] += value
        if keep:
            self.kept = (self.s_name, self.s_parent, self.s_start, self.s_end)
        self._pending = []
        self._reset_spans()


# ---------------------------------------------------------------------------
# Work counters read from the arguments and results of traced calls


def _scan_pairs(args, kwargs, yielded):
    coloring = args[0]
    constraints = args[2] if len(args) > 2 else kwargs.get("constraints")
    elements = coloring.window.elements
    if constraints is None:
        spec = coloring.window.spec
        ys = sum(1 for e in elements if e != spec.zero and e != spec.one)
        xs = sum(1 for e in elements if e != spec.zero)
    else:
        ys = sum(1 for e in elements if constraints.admits_y(e))
        xs = sum(1 for e in elements if constraints.admits_x(e))
    return {"patterns.witness_scan.witnesses": yielded, "patterns.witness_scan.pairs": ys * xs}


HOOKS = {
    "patterns.witness_scan": _scan_pairs,
    "search.build_instance": lambda a, k, res: {"search.build_instance.candidates": len(res.candidates)},
    "search.avoidance_backtrack": lambda a, k, res: {
        "search.avoidance_backtrack.nodes": res.nodes,
        "search.avoidance_backtrack.backtracks": res.backtracks,
    },
    "search.moreira_number": lambda a, k, res: {"search.moreira_number.probes": len(res.trace)},
    "search.cnf_export": lambda a, k, res: {"search.cnf.clauses": len(res.clauses)},
}
