"""Command-line front door.

Every subcommand is a thin shell over one library entry point: its
handler returns ``(status, payload)``, or None when it wrote its own
output (``report``, and ``cnf export`` without -o).  ``dispatch`` alone
turns an outcome into a report with the fixed shape {command,
timestamp, status, payload} as JSON (default), flat text, or CSV; the
command is the subcommand's words.  Exit codes: 0 for the positive
statuses in POSITIVE_STATUSES (ok, found, holds, counterexample,
avoidance_found), 1 for every other status (a definite negative:
nothing found, refuted, timeout, work cap exceeded, pool exhausted), 2
for usage, parse and input errors, 3 for internal errors (a tripped
guard or a recursion overflow: a bug in the package, not in the input).

A flag is required exactly when --help marks it so, and argparse alone
enforces that, once the config file and the environment are applied:
a config file of `key = value` lines (keys mirror the long flag names,
values get the flags' type and choice checks) can supply any flag,
required ones included; explicit flags win.  The environment variable
MONOCHROME_BUDGET provides a global default for --budget / --work-cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

from .colorings import (
    Coloring,
    ColoringFormatError,
    load_coloring,
    random_coloring,
    store_coloring,
)
from .errors import InternalError
from .halesjewett import WorkCapExceeded, hj_number_exhaustive, sigma_trials
from .largeness import (
    PSWitness,
    dilate_set,
    dilation_transport,
    divide_set,
    division_transport,
    ipstar_refute,
    ps_witness_search,
    syndetic_check,
    validate_ps_witness,
)
from .patterns import (
    ScanConstraints,
    abundance_profile,
    format_family,
    parse_family,
    witness_scan,
)
from .rings import (
    WHITESPACE,
    WindowParams,
    enumerate_window,
    format_element,
    format_ring_spec,
    format_window_params,
    integer,
    parse_element,
    parse_element_set,
    parse_ring_spec,
    parse_window_params,
)
from .search import (
    avoidance_backtrack,
    build_instance,
    cnf_export,
    cnf_model_decode,
    dual_engine_check,
    moreira_number,
    parse_model,
    to_dimacs,
)
from .ufp import PoolExhaustedError, UfpSequence, grow_ufp, has_ufp

BUDGET_ENV = "MONOCHROME_BUDGET"

# report statuses that exit 0; every other status exits 1
POSITIVE_STATUSES = frozenset({"ok", "found", "holds", "counterexample", "avoidance_found"})


class CliError(Exception):
    """Usage-level problem: reported to stderr, exit code 2."""


# ---------------------------------------------------------------------------
# Parser

def _add_common(p, *, ring=False, window=False, colors=False, family=False,
                seed=False, coloring=False, budget=False, constraints=False, output=True):
    if ring:
        p.add_argument("--ring", help="ring spec: Z, Zi, or GF(q)[x]")
    if window:
        p.add_argument("--window", required=True, help="window params: N=50[,signed] / B=3 / d=4")
    if colors:
        p.add_argument("--colors", type=integer, required=True, help="number of colors r")
    if family:
        p.add_argument("--F", dest="F", required=True,
                       help='family literal, e.g. "t" or "0; t" or "2t^2+t"')
    if seed:
        p.add_argument("--seed", type=integer, help="stream seed (default 0)")
    if coloring:
        p.add_argument("--coloring", help="coloring file (instead of --seed)")
        p.add_argument("--partial", action="store_true", default=None,
                       help="judge instances only partly inside the window by their visible part")
    if budget:
        p.add_argument("--budget", type=integer,
                       help=f"node budget (default: ${BUDGET_ENV} or unlimited)")
    if constraints:
        p.add_argument("--exclude-y", help="element set never used as y (default {0,1})")
        p.add_argument("--exclude-x", help="element set never used as x (default {0})")
        p.add_argument("--allow-degenerate", action="store_true", default=None,
                       help="keep single-element instances")
    if output:
        p.add_argument("--format", choices=("json", "text", "csv"), help="report format")
        p.add_argument("-o", "--output", help="write the report here instead of stdout")
    p.add_argument("--config", help="file of key = value lines mirroring these flags")


class _Parser(argparse.ArgumentParser):
    """Required options may come from a config file, so parsing leaves
    them unchecked and check_required checks them once the config is
    applied; usage and help still show them as required."""

    def __init__(self, *args, **kwargs):
        self.deferred = []
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.required and action.option_strings:
            action.required = False
            self.deferred.append(action)
        return action

    def check_required(self, args: argparse.Namespace) -> None:
        """argparse's own "required" error for options still unset."""
        missing = ["/".join(a.option_strings) for a in self.deferred if getattr(args, a.dest) is None]
        if missing:
            self.error("the following arguments are required: " + ", ".join(missing))

    def _shown_required(self, render):
        for a in self.deferred:
            a.required = True
        try:
            return render()
        finally:
            for a in self.deferred:
                a.required = False

    def format_usage(self) -> str:
        return self._shown_required(super().format_usage)

    def format_help(self) -> str:
        return self._shown_required(super().format_help)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monochrome",
        description="verification and search for monochromatic product/shift "
                    "configurations over finite ring windows",
    )
    sub = parser.add_subparsers(dest="cmd", metavar="subcommand", required=True)

    p = sub.add_parser("scan", help="list monochromatic instances of a coloring")
    _add_common(p, ring=True, window=True, colors=True, family=True, seed=True,
                coloring=True, constraints=True)
    p.add_argument("--limit", type=integer, help="stop after this many witnesses")

    p = sub.add_parser("abundance", help="per-y color profile of admissible x values")
    _add_common(p, ring=True, window=True, colors=True, family=True, seed=True,
                coloring=True, constraints=True)
    p.add_argument("--y", help="restrict to one y (element literal)")

    p = sub.add_parser("largeness", help="syndetic / witness / IP checks and transports")
    lsub = p.add_subparsers(dest="sub", metavar="check", required=True)

    q = lsub.add_parser("syndetic", help="do the gap translates of a set cover the window?")
    _add_common(q, ring=True, window=True)
    q.add_argument("--target", required=True, help="element set A")
    q.add_argument("--gaps", required=True, help="gap set G")

    q = lsub.add_parser("ps-witness", help="least anchor making (gaps, block) a witness")
    _add_common(q, ring=True, window=True)
    q.add_argument("--target", required=True)
    q.add_argument("--gaps", required=True)
    q.add_argument("--block", required=True)

    q = lsub.add_parser("ipstar", help="search seeded sequences whose finite sums miss a set")
    _add_common(q, ring=True, window=True, seed=True)
    q.add_argument("--target", required=True)
    q.add_argument("--target-window",
                   help="window params for parsing --target (default: --window)")
    q.add_argument("--len", type=integer, required=True, help="sequence length")
    q.add_argument("--samples", type=integer, required=True)

    q = lsub.add_parser("transport", help="dilate or divide a witness exactly")
    _add_common(q, ring=True, window=True)
    q.add_argument("--gaps", required=True)
    q.add_argument("--block", required=True)
    q.add_argument("--anchor", required=True, help="element literal")
    q.add_argument("--by", required=True, help="element literal to dilate/divide by")
    q.add_argument("--mode", choices=("dilate", "divide"), required=True)
    q.add_argument("--target", help="optional set A for before/after validation")

    p = sub.add_parser("hj", help="exhaustive cube-coloring search for forced lines")
    _add_common(p, colors=True)
    p.add_argument("--alphabet", type=integer, required=True)
    p.add_argument("--maxN", dest="maxN", type=integer, required=True)
    p.add_argument("--work-cap", type=integer,
                   help="stop a side's search after this many decisions (default 10^8)")

    p = sub.add_parser("sigma", help="randomized exact checks of the embedding identity")
    _add_common(p, ring=True, window=True, family=True, seed=True)
    p.add_argument("--n", type=integer, help="side of the layered space (default 2)")
    p.add_argument("--depth", type=integer, help="levels d (default: family top degree)")
    p.add_argument("--trials", type=integer, help="default 100")

    p = sub.add_parser("search", help="avoidance colorings and least-window thresholds")
    ssub = p.add_subparsers(dest="sub", metavar="mode", required=True)

    q = ssub.add_parser("avoid", help="search one window for an avoidance coloring")
    _add_common(q, ring=True, window=True, colors=True, family=True, budget=True,
                constraints=True)
    q.add_argument("--save-coloring", help="write a found coloring to this file")

    q = ssub.add_parser("moreira", help="least N over Z at which avoidance becomes impossible")
    _add_common(q, colors=True, family=True, budget=True)
    q.add_argument("--maxN", dest="maxN", type=integer, required=True)
    q.add_argument("--crosscheck", action="store_true", default=None,
                   help="confirm the boundary with the reference CNF engine")

    p = sub.add_parser("cnf", help="DIMACS export / model decode")
    csub = p.add_subparsers(dest="sub", metavar="direction", required=True)

    q = csub.add_parser("export", help="write the avoidance instance as DIMACS CNF")
    _add_common(q, ring=True, window=True, colors=True, family=True, constraints=True,
                output=False)
    q.add_argument("--format", choices=("json", "text", "csv"), help="report format")
    q.add_argument("-o", "--output", help="CNF file path (default: raw DIMACS on stdout)")

    q = csub.add_parser("decode", help="turn a satisfying model back into a coloring")
    _add_common(q, ring=True, window=True, colors=True, family=True, constraints=True)
    q.add_argument("--model", required=True, help="model file (v-lines or literals); - for stdin")
    q.add_argument("--save-coloring", help="also write the decoded coloring here")

    p = sub.add_parser("ufp", help="uniqueness-of-finite-products tools")
    usub = p.add_subparsers(dest="sub", metavar="action", required=True)

    q = usub.add_parser("verify", help="check pairwise distinctness of subset products")
    _add_common(q, ring=True)
    q.add_argument("--elements", required=True,
                   help="comma-separated element literals, in order")

    q = usub.add_parser("grow", help="extend a sequence over a window pool")
    _add_common(q, ring=True, window=True)
    q.add_argument("--start", required=True, help="first element (literal)")
    q.add_argument("--length", type=integer, required=True, help="target length")

    p = sub.add_parser("report", help="merge report JSON files into one CSV table")
    p.add_argument("inputs", nargs="+", help="report JSON files")
    p.add_argument("-o", "--output", help="CSV destination (default stdout)")

    return parser


# ---------------------------------------------------------------------------
# Config files


def _load_config(path: str) -> dict:
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip(WHITESPACE)
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key = value, got {raw.strip(WHITESPACE)!r}")
                key, value = line.split("=", 1)
                entries[key.strip(WHITESPACE).replace("-", "_")] = value.strip(WHITESPACE)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    return entries


def _leaf_parser(parser: argparse.ArgumentParser, args: argparse.Namespace) -> argparse.ArgumentParser:
    """The (sub)parser that parsed args."""
    for dest in ("cmd", "sub"):
        name = getattr(args, dest, None)
        if name is not None:
            subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = subparsers.choices[name]
    return parser


def _convert(action: argparse.Action, value: str):
    """A config value typed and checked like the flag with the same dest."""
    key = action.dest
    if action.nargs == 0:  # store_true flag
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise CliError(f"config key {key}: expected a boolean, got {value!r}")
    if action.type is not None:
        try:
            value = action.type(value)
        except ValueError:
            raise CliError(f"config key {key}: invalid {action.type.__name__} value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise CliError(f"config key {key}: invalid choice {value!r} (choose from {choices})")
    return value


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then the environment."""
    if getattr(args, "config", None):
        allowed = {k for k in vars(args) if k not in ("cmd", "sub", "config", "inputs")}
        actions = {a.dest: a for a in _leaf_parser(parser, args)._actions}
        for key, value in _load_config(args.config).items():
            if key not in allowed:
                raise CliError(f"unknown config key {key!r}")
            if getattr(args, key) is None:
                setattr(args, key, _convert(actions[key], value))
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        for dest in ("budget", "work_cap"):
            if dest in vars(args) and getattr(args, dest) is None:
                try:
                    setattr(args, dest, integer(env))
                except ValueError:
                    raise CliError(f"${BUDGET_ENV} must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# Shared pieces


def _spec(args):
    return parse_ring_spec(getattr(args, "ring", None) or "Z")


def _window(spec, text: str):
    return enumerate_window(spec, parse_window_params(spec, text))


def _problem(args) -> tuple:
    """(spec, window, r, family, constraints) from the flags."""
    spec = _spec(args)
    window = _window(spec, args.window)
    return spec, window, args.colors, parse_family(spec, args.F), _constraints(args, spec, window)


def _header(spec, window, r, family) -> dict:
    """The payload fields that name the problem."""
    return {
        "ring": format_ring_spec(spec),
        "window": format_window_params(spec, window.params),
        "colors": r,
        "family": format_family(family),
    }


def _constraints(args, spec, window) -> ScanConstraints:
    base = ScanConstraints.defaults_for(spec)
    exclude_y = base.exclude_y
    exclude_x = base.exclude_x
    if args.exclude_y is not None:
        exclude_y = parse_element_set(spec, args.exclude_y, window)
    if args.exclude_x is not None:
        exclude_x = parse_element_set(spec, args.exclude_x, window)
    return ScanConstraints(
        exclude_y=exclude_y,
        exclude_x=exclude_x,
        require_in_window=not getattr(args, "partial", None),
        forbid_degenerate=not args.allow_degenerate,
    )


def _coloring_for(args, spec, window, r) -> Coloring:
    if not args.coloring:
        return random_coloring(window, r, args.seed if args.seed is not None else 0)
    if args.seed is not None:
        raise CliError("--coloring and --seed exclude each other: the file fixes every color")
    coloring = load_coloring(args.coloring)
    if coloring.window.spec != spec:
        raise CliError("coloring file ring differs from --ring")
    if coloring.window != window:
        raise CliError("coloring file window differs from --window")
    if coloring.r != r:
        raise CliError("coloring file colors differ from --colors")
    return coloring


def _save_coloring(args, coloring: Coloring, payload: dict) -> None:
    """Write the coloring to --save-coloring, if given, and name the file in the payload."""
    if args.save_coloring:
        store_coloring(coloring, args.save_coloring)
        payload["coloring_file"] = args.save_coloring


def _fmt_set(elems) -> list:
    return sorted(format_element(e) for e in elems)


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _render_text(report: dict) -> str:
    lines = [f"# {report['command']}", f"status: {report['status']}"]
    for key, value in report["payload"].items():
        if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            lines.append(f"{key}:")
            for row in value:
                lines.append("  " + "  ".join(f"{k}={_plain(v)}" for k, v in row.items()))
        else:
            lines.append(f"{key}: {_plain(value)}")
    return "\n".join(lines) + "\n"


def _plain(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _render_csv(report: dict) -> str:
    payload = report["payload"]
    tables = [
        (k, v)
        for k, v in payload.items()
        if isinstance(v, list) and v and all(isinstance(x, dict) for x in v)
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if len(tables) == 1:
        rows = tables[0][1]
        cols = list(dict.fromkeys(key for row in rows for key in row))
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_plain(row.get(c, "")) for c in cols])
    else:
        scalars = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
        writer.writerow(["command", "timestamp", "status", *scalars])
        writer.writerow([report["command"], report["timestamp"], report["status"],
                         *[_plain(v) for v in scalars.values()]])
    return buf.getvalue()


def _emit(args, status: str, payload: dict) -> int:
    """Write the report of a handler's outcome and return its exit code."""
    command = " ".join(filter(None, (args.cmd, getattr(args, "sub", None))))
    report = {"command": command, "timestamp": _now(), "status": status, "payload": payload}
    fmt = getattr(args, "format", None) or "json"
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "text":
        text = _render_text(report)
    else:
        text = _render_csv(report)
    _write(getattr(args, "output", None), text)
    return 0 if status in POSITIVE_STATUSES else 1


def _write(dest, text: str) -> None:
    """Write text to the file dest, or to stdout when dest is empty."""
    if dest:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Handlers


def _cmd_scan(args) -> tuple:
    spec, window, r, family, constraints = _problem(args)
    coloring = _coloring_for(args, spec, window, r)
    witnesses = [
        {"x": format_element(w.x), "y": format_element(w.y), "color": w.color}
        for w in witness_scan(coloring, family, constraints, limit=args.limit)
    ]
    return "ok", {**_header(spec, window, r, family), "seed": args.seed,
                  "count": len(witnesses), "witnesses": witnesses}


def _cmd_abundance(args) -> tuple:
    spec, window, r, family, constraints = _problem(args)
    coloring = _coloring_for(args, spec, window, r)
    if args.y is not None:
        ys = [parse_element(spec, args.y)]
    else:
        ys = [y for y in window.elements if constraints.admits_y(y)]
    rows = []
    for y in ys:
        profile = abundance_profile(coloring, family, y, constraints)
        for c in range(1, r + 1):
            rows.append({"y": format_element(y), "color": c,
                         "count": len(profile.get(c, ()))})
    return "ok", {**_header(spec, window, r, family), "rows": rows}


def _cmd_largeness(args) -> tuple:
    spec = _spec(args)
    window = _window(spec, args.window)
    if args.sub == "syndetic":
        target = parse_element_set(spec, args.target, window)
        gaps = parse_element_set(spec, args.gaps, window)
        bad = syndetic_check(target, gaps, window)
        return ("holds" if bad is None else "refuted",
                {"holds": bad is None, "counterexample": None if bad is None else format_element(bad)})
    if args.sub == "ps-witness":
        target = parse_element_set(spec, args.target, window)
        gaps = parse_element_set(spec, args.gaps, window)
        block = parse_element_set(spec, args.block, window)
        witness = ps_witness_search(target, gaps, block, window)
        if witness is None:
            return "not_found", {"found": False}
        return "found", {
            "found": True,
            "gaps": _fmt_set(witness.gaps),
            "block": _fmt_set(witness.block),
            "anchor": format_element(witness.anchor),
        }
    if args.sub == "ipstar":
        target_window = _window(spec, args.target_window) if args.target_window else window
        target = parse_element_set(spec, args.target, target_window)
        seed = args.seed if args.seed is not None else 0
        seq = ipstar_refute(target, window, args.len, args.samples, seed)
        return "none_found" if seq is None else "counterexample", {
            "seq_len": args.len, "samples": args.samples, "seed": seed, "found": seq is not None,
            "sequence": None if seq is None else [format_element(e) for e in seq]}
    # transport
    gaps = parse_element_set(spec, args.gaps, window)
    block = parse_element_set(spec, args.block, window)
    anchor = parse_element(spec, args.anchor)
    by = parse_element(spec, args.by)
    witness = PSWitness(frozenset(gaps), frozenset(block), anchor)
    target = None if args.target is None else parse_element_set(spec, args.target, window)
    payload = {"mode": args.mode, "by": format_element(by)}
    if target is not None:
        payload["valid_before"] = validate_ps_witness(witness, target)
    # built per call, so the wrappers bench/tracer.py binds over these names are the ones run
    move, move_set = {"dilate": (dilation_transport, dilate_set),
                      "divide": (division_transport, divide_set)}[args.mode]
    moved = move(witness, by)
    if moved is None:  # division left the ring
        payload["divisible"] = False
        return "not_divisible", payload
    moved_target = move_set(target, by) if target is not None else None
    payload["gaps"] = _fmt_set(moved.gaps)
    payload["block"] = _fmt_set(moved.block)
    payload["anchor"] = format_element(moved.anchor)
    if moved_target is not None:
        payload["valid_after"] = validate_ps_witness(moved, moved_target)
    elif target is not None:
        payload["valid_after"] = None  # target itself not fully divisible
    return "ok", payload


def _cmd_hj(args) -> tuple:
    try:
        res = hj_number_exhaustive(args.colors, args.alphabet, args.maxN, args.work_cap)
    except WorkCapExceeded as exc:
        return "work_cap_exceeded", {"error": str(exc)}
    payload = {"r": res.r, "t": res.t, "N": res.n, "status": res.status}
    if res.avoiding is not None:
        payload["avoiding_coloring"] = list(res.avoiding)
    return res.status, payload


def _cmd_sigma(args) -> tuple:
    spec = _spec(args)
    pool = _window(spec, args.window)
    family = parse_family(spec, args.F)
    n = args.n if args.n is not None else 2
    trials = args.trials if args.trials is not None else 100
    seed = args.seed if args.seed is not None else 0
    oks = [check.ok for trial in sigma_trials(family, pool, n, args.depth, trials, seed) for check in trial]
    failures = oks.count(False)
    return "ok" if failures == 0 else "failed", {
        "ring": format_ring_spec(spec),
        "family": format_family(family),
        "n": n,
        "trials": trials,
        "checks": len(oks),
        "failures": failures,
        "all_ok": failures == 0,
    }


def _cmd_search(args) -> tuple:
    if args.sub == "avoid":
        spec, window, r, family, constraints = _problem(args)
        inst = build_instance(window, r, family, constraints)
        res = avoidance_backtrack(inst, args.budget)
        payload = {
            **_header(spec, window, r, family),
            "candidates": len(inst.candidates),
            "status": res.status.value,
            "nodes": res.nodes,
            "backtracks": res.backtracks,
        }
        if res.coloring is not None:
            payload["coloring"] = list(res.coloring.colors)
            _save_coloring(args, res.coloring, payload)
        return res.status.value, payload
    # moreira
    spec = parse_ring_spec("Z")
    r = args.colors
    family = parse_family(spec, args.F)
    res = moreira_number(r, family, args.maxN, args.budget)
    payload = {
        "colors": r,
        "family": format_family(family),
        "maxN": args.maxN,
        "status": res.status,
        "N": res.n,
        "trace": [{"N": n, "status": st.value} for n, st in res.trace],
    }
    if args.crosscheck and res.status == "found":
        sizes = {"below": res.n - 1, "at": res.n}
        payload["crosscheck"] = {
            side: dual_engine_check(build_instance(enumerate_window(spec, WindowParams(n)), r, family))
            for side, n in sizes.items() if n > 0}
    return res.status, payload


def _cmd_cnf(args) -> tuple | None:
    spec, window, r, family, constraints = _problem(args)
    inst = build_instance(window, r, family, constraints)
    if args.sub == "export":
        doc = cnf_export(inst)
        _write(args.output, to_dimacs(doc))
        if not args.output:
            return None
        payload = {
            "path": args.output,
            "vars": doc.num_vars,
            "clauses": len(doc.clauses),
            "candidates": len(inst.candidates),
        }
        args.output = None  # -o named the CNF file; the report goes to stdout
        return "ok", payload
    # decode
    if args.model == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.model, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read model {args.model}: {exc}") from None
    coloring = cnf_model_decode(parse_model(text), inst)
    payload = {"colors": list(coloring.colors), "valid": True}
    _save_coloring(args, coloring, payload)
    return "ok", payload


def _cmd_ufp(args) -> tuple:
    spec = _spec(args)
    if args.sub == "verify":
        literals = [tok.strip(WHITESPACE) for tok in args.elements.split(",") if tok.strip(WHITESPACE)]
        if not literals:
            raise CliError("--elements needs at least one literal")
        seq = UfpSequence([parse_element(spec, tok) for tok in literals])
        violation = has_ufp(seq)
        payload = {
            "elements": [format_element(e) for e in seq.elements],
            "holds": violation is None,
        }
        if violation is not None:
            payload["violation"] = {
                "h": sorted(violation.h),
                "k": sorted(violation.k),
                "product": format_element(violation.product),
            }
        return "holds" if violation is None else "violated", payload
    # grow
    window = _window(spec, args.window)
    start = parse_element(spec, args.start)
    try:
        seq = grow_ufp(start, window, args.length)
    except PoolExhaustedError as exc:
        return "pool_exhausted", {"error": str(exc), "step": exc.step}
    return "ok", {
        "length": len(seq),
        "sequence": [format_element(e) for e in seq.elements],
        "products": len(seq.fp_set()),
    }


def _cmd_report(args) -> None:
    reports = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: not valid JSON ({exc})") from None
        for key in ("command", "timestamp", "status", "payload"):
            if key not in data:
                raise CliError(f"{path}: missing report key {key!r}")
        reports.append((path, data))
    keys = sorted({
        k
        for _, data in reports
        for k, v in data["payload"].items()
        if not isinstance(v, (dict, list))
    })
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["file", "command", "timestamp", "status", *keys])
    for path, data in reports:
        payload = data["payload"]
        writer.writerow([
            path, data["command"], data["timestamp"], data["status"],
            *[_plain(payload[k]) if k in payload else "" for k in keys],
        ])
    _write(args.output, buf.getvalue())


_HANDLERS = {
    "scan": _cmd_scan,
    "abundance": _cmd_abundance,
    "largeness": _cmd_largeness,
    "hj": _cmd_hj,
    "sigma": _cmd_sigma,
    "search": _cmd_search,
    "cnf": _cmd_cnf,
    "ufp": _cmd_ufp,
    "report": _cmd_report,
}


def dispatch(argv) -> int:
    """Parse argv, run the subcommand, write its report and return the
    exit code (0 positive status or no report, 1 any other status, 2
    usage/input error, 3 internal error)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(parser, args)
        _leaf_parser(parser, args).check_required(args)
        outcome = _HANDLERS[args.cmd](args)
        return 0 if outcome is None else _emit(args, *outcome)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, RecursionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ColoringFormatError, ZeroDivisionError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
