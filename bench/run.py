"""Benchmark for monochrome: one workload in one process, checked and timed.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``monochrome`` from
its ``src/`` directory.  The process sets the workload up several times
(``setup_s`` is the median), runs one warm-up round and then whole timed
rounds until ``--seconds`` have passed.  Every task's wall time is
divided by the reference loop (``refloop.py``) timed just before and just
after it; ``round_ref`` is the median over timed rounds of the sum of
those ratios.  Every output is checked against the independent oracles.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or the
per-layer metrics with ``--trace 1``).  The traced run also writes its
spans and metrics to ``bench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import refloop  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUPS = 5
RING_KEYS = ("z", "zi", "gf2", "gf3")
# windows for the rings.*_ns micro-timings; a workload's own windows
# replace these where it has one of that ring
MICRO_WINDOWS = {"z": ("Z", "N=300"), "zi": ("Zi", "B=8"),
                 "gf2": ("GF(2)[x]", "d=8"), "gf3": ("GF(3)[x]", "d=5")}
WORKLOAD_MICRO = {"threshold": {"z": ("Z", "N=120")}, "toolkit": {"z": ("Z", "N=200")}}
LAYER_MS = {
    # metric -> span names whose self time it sums
    "rings.enumerate_window.ms": ("rings.enumerate_window",),
    "colorings.random_coloring.ms": ("colorings.random_coloring",),
    "colorings.store_load.ms": ("colorings.store_coloring", "colorings.load_coloring",
                                "colorings.dumps_coloring", "colorings.loads_coloring"),
    "patterns.witness_scan.ms": ("patterns.witness_scan",),
    "patterns.abundance_profile.ms": ("patterns.abundance_profile",),
    "search.build_instance.ms": ("search.build_instance",),
    "search.avoidance_backtrack.ms": ("search.avoidance_backtrack",),
    "search.moreira_number.ms": ("search.moreira_number",),
    "search.dual_engine_check.ms": ("search.dual_engine_check",),
    "search.cnf_export.ms": ("search.cnf_export",),
    "search.to_dimacs.ms": ("search.to_dimacs",),
    "search.parse_dimacs.ms": ("search.parse_dimacs",),
    "search.cnf_model_decode.ms": ("search.cnf_model_decode",),
    "dpll.dpll_sat.ms": ("dpll.dpll_sat",),
    "largeness.syndetic_check.ms": ("largeness.syndetic_check",),
    "largeness.ps_witness_search.ms": ("largeness.ps_witness_search",),
    "largeness.ipstar_refute.ms": ("largeness.ipstar_refute",),
    "largeness.transport.ms": ("largeness.dilation_transport", "largeness.division_transport",
                               "largeness.dilate_set", "largeness.divide_set"),
    "halesjewett.hj_number_exhaustive.ms": ("halesjewett.hj_number_exhaustive",),
    "halesjewett.sigma_trials.ms": ("halesjewett.sigma_trials",),
    "ufp.grow_ufp.ms": ("ufp.grow_ufp",),
    "ufp.has_ufp.ms": ("ufp.has_ufp",),
}
SETUP_LAYERS = ("rings.enumerate_window.ms", "colorings.random_coloring.ms")
LAYER_CALLS = ("patterns.witness_scan", "patterns.eval_poly", "patterns.pattern_elements",
               "search.build_instance", "dpll.dpll_sat")
CLI_COMMANDS = ("scan", "abundance", "largeness", "hj", "sigma", "search", "cnf", "ufp", "report")


def fresh_import(tracer):
    """Import monochrome from this checkout's src/, dropping any earlier
    import so that every set-up pays the full import."""
    for name in [n for n in sys.modules if n == "monochrome" or n.startswith("monochrome.")]:
        del sys.modules[name]
    mono = importlib.import_module("monochrome")
    if not os.path.abspath(mono.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"monochrome imported from {mono.__file__}, not from {SRC}")
    t0 = time.perf_counter()
    importlib.import_module("monochrome.cli")
    cli_import_s = time.perf_counter() - t0
    # search imports dpll only when called; import it now so that tracing wraps it
    importlib.import_module("monochrome.dpll")
    if tracer is not None:
        tracer.install(mono)
    return mono, cli_import_s


def run_round(tasks, tracer, kind):
    """One pass over the task list: (raw seconds, reference units, failed)."""
    gc.collect()
    raw = 0.0
    units = 0.0
    failed = 0
    ref_before = refloop.measure()
    for task in tasks:
        if task.before is not None:
            task.before()
        if tracer is not None:
            tracer.on = True
        t0 = time.perf_counter()
        out = task.run()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.on = False
        ref_after = refloop.measure()
        raw += dt
        units += dt / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        if task.check(out) == workloads.FAILED:
            failed += 1
    if tracer is not None:
        tracer.fold(kind, keep=(kind == "timed"))
    return raw, units, failed


def micro_ns(mono, workload):
    """Nanoseconds per window-element multiply, add and index lookup."""
    out = {}
    windows = dict(MICRO_WINDOWS, **WORKLOAD_MICRO.get(workload, {}))
    for key in RING_KEYS:
        ring, params = windows[key]
        spec = mono.parse_ring_spec(ring)
        win = mono.enumerate_window(spec, mono.parse_window_params(spec, params))
        elems = win.elements
        n = len(elems)
        pairs = [(elems[i], elems[(7 * i + 3) % n]) for i in range(n)]
        index = win.index
        for op, body in (("mul", lambda: [a * b for a, b in pairs]),
                         ("add", lambda: [a + b for a, b in pairs]),
                         ("index", lambda: [index[a] for a, _ in pairs])):
            samples = []
            for _ in range(7):
                t0 = time.perf_counter_ns()
                body()
                samples.append((time.perf_counter_ns() - t0) / n)
            out[f"rings.{op}_ns.{key}"] = statistics.median(samples)
    return out


def layer_metrics(tracer, timed_rounds, setup_cli_import, round_ref_median, wall_s, mono, workload):
    per_round = 1.0 / timed_rounds
    metrics = {}

    def self_ms(kind, names, scale):
        return sum(tracer.self_s.get((kind, n), 0.0) for n in names) * 1e3 * scale

    for metric, names in LAYER_MS.items():
        if metric in SETUP_LAYERS:
            metrics[metric] = (self_ms("setup", names, 1.0 / SETUPS), "ms")
        else:
            metrics[metric] = (self_ms("timed", names, per_round), "ms")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (tracer.calls.get(("timed", name), 0) * per_round, "count")
    for counter in ("patterns.witness_scan.witnesses", "patterns.witness_scan.pairs",
                    "search.build_instance.candidates", "search.avoidance_backtrack.nodes",
                    "search.avoidance_backtrack.backtracks", "search.moreira_number.probes",
                    "search.cnf.clauses"):
        metrics[counter] = (tracer.counts.get(("timed", counter), 0) * per_round, "count")
    scan_ms = metrics["patterns.witness_scan.ms"][0]
    bt_ms = metrics["search.avoidance_backtrack.ms"][0]
    metrics["patterns.witness_scan.pairs_per_ms"] = (
        metrics["patterns.witness_scan.pairs"][0] / scan_ms if scan_ms else 0.0, "1/ms")
    metrics["search.avoidance_backtrack.nodes_per_ms"] = (
        metrics["search.avoidance_backtrack.nodes"][0] / bt_ms if bt_ms else 0.0, "1/ms")
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}.ms"] = (self_ms("timed", (f"cli.{cmd}",), per_round), "ms")
    metrics["cli.import.ms"] = (statistics.median(setup_cli_import) * 1e3, "ms")
    for name, value in micro_ns(mono, workload).items():
        metrics[name] = (value, "ns")
    cpu = resource.getrusage(resource.RUSAGE_SELF)
    metrics["proc.cpu_s"] = (cpu.ru_utime + cpu.ru_stime, "s")
    metrics["proc.wall_s"] = (wall_s, "s")
    metrics["trace.round_ref"] = (round_ref_median, "ref")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wall0 = time.perf_counter()

    if not os.path.isdir(os.path.join(SRC, "monochrome")):
        print(f"error: no monochrome sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)

    tracer = Tracer() if args.trace else None
    expected_fn, setup_fn = workloads.WORKLOADS[args.workload]
    outdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    attempted = failed = 0
    try:
        expected = expected_fn(args.seed)
        setup_times, cli_imports = [], []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            mono, cli_import_s = fresh_import(tracer)
            if tracer is not None:
                tracer.on = True
            tasks = setup_fn(mono, args.seed, outdir, expected)
            if tracer is not None:
                tracer.on = False
                tracer.fold("setup")
            setup_times.append(time.perf_counter() - t0)
            cli_imports.append(cli_import_s)

        _, _, warm_failed = run_round(tasks, tracer, "warmup")
        attempted, failed = len(tasks), warm_failed
        raw_rounds, ref_rounds = [], []
        start = time.perf_counter()
        while not ref_rounds or time.perf_counter() - start < args.seconds:
            raw, units, round_failed = run_round(tasks, tracer, "timed")
            raw_rounds.append(raw)
            ref_rounds.append(units)
            attempted += len(tasks)
            failed += round_failed
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed,
                          "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    round_ref = statistics.median(ref_rounds)
    print(f"{args.workload} seed={args.seed}: {len(ref_rounds)} timed rounds of {len(tasks)} tasks; "
          f"round_s median {statistics.median(raw_rounds):.4f} "
          f"[{min(raw_rounds):.4f}..{max(raw_rounds):.4f}]; round_ref median {round_ref:.3f} "
          f"[{min(ref_rounds):.3f}..{max(ref_rounds):.3f}]; ref unit "
          f"{1e3 * statistics.median(raw_rounds) / round_ref:.3f} ms; "
          f"setups {[round(s, 4) for s in setup_times]}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "round_ref": (round_ref, "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, len(ref_rounds), cli_imports, round_ref,
                                time.perf_counter() - wall0, mono, args.workload)
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "timed_rounds": len(ref_rounds),
                       "round_s": raw_rounds, "round_ref": ref_rounds,
                       "metrics": {k: v for k, (v, _) in metrics.items()},
                       "last_round_spans": tracer.spans()}, fh)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
