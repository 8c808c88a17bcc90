"""Command-line front door.

Every subcommand is a thin shell over one library entry point: its
handler returns ``(status, payload)``, or None when it wrote its own
output (``report``, and ``cnf export`` without -o, which therefore
takes no --format).  ``dispatch`` alone turns an outcome into a report
with the fixed shape {command, timestamp, status, payload} as JSON
(default), flat text, or CSV; the command is the subcommand's words.
A JSON report is one compact line (no spaces between tokens, keys in
that order, non-ASCII escaped; no cycle check, a cyclic report is an
internal error, exit 3); pipe it through ``python3 -m json.tool`` to
read it.  Text, CSV and ``report`` flatten a report one way, _cells:
command, timestamp, status, then the payload fields, a payload key that
repeats an earlier column headed payload.<key>.  A payload may end with
a table, a list of row tuples whose key and columns _COMMANDS declares:
JSON writes each row as an object spliced from fragments of its cells,
each distinct fragment encoded once, CSV writes that header and the
rows, and text lists the rows.  Exit codes:
0 for the positive statuses in POSITIVE_STATUSES (ok, found, holds,
counterexample, avoidance_found), 1 for every other status (a definite
negative: nothing found, refuted, timeout, work cap exceeded, pool
exhausted; the library returns each as a value, never raises it), 2
for usage, parse and input errors (a ValueError, the one type the CLI
raises for them, an OSError or a ZeroDivisionError), 3 for internal
errors (a tripped guard, a recursion overflow or any other
RuntimeError: a bug in the package, not in the input).

argparse alone checks flags: their values, and the required ones,
which --help shows without brackets.  Each flag is declared once, in the
table _FLAGS of option strings and add_argument keywords, and each
command once, in the ordered table _COMMANDS of its words, help text,
the names of its flags and its table.  ``dispatch`` builds only the
parser path that argv names: the top parser, the group parser if any,
and the one leaf.  It builds the full tree only for argv that names no
leaf (top-level or group help, a missing or unknown subcommand); every
help, usage and error text is the same either way.  A config file
(--config FILE) of `key = value` lines is read before parsing, and each
entry becomes the subcommand's own flag `--key=value` (a store-true
flag `--key` when the value is true, nothing when false), placed after
the subcommand words and before the user's flags: argparse checks its
value like any flag, it can supply a required flag, and an explicit
flag wins.  The environment variable MONOCHROME_BUDGET then fills an
unset --budget / --work-cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from functools import cache
from itertools import islice

from .colorings import (
    Coloring,
    load_coloring,
    random_coloring,
    store_coloring,
)
from .errors import InternalError
from .halesjewett import hj_number_exhaustive, sigma_trials
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
from .patterns import ScanConstraints, _witness_triples, format_family, parse_family
from .rings import (
    WHITESPACE,
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
from .ufp import UfpSequence, grow_ufp, has_ufp

BUDGET_ENV = "MONOCHROME_BUDGET"

# report statuses that exit 0; every other status exits 1
POSITIVE_STATUSES = frozenset({"ok", "found", "holds", "counterexample", "avoidance_found"})


# ---------------------------------------------------------------------------
# Parser

# flag name -> (option strings, add_argument keywords).  A name stands for
# one meaning, so an option string with two meanings has two entries.
_FLAGS = {
    "ring": (("--ring",), dict(default="Z", help="ring spec: Z, Zi, or GF(q)[x]")),
    "window": (("--window",), dict(required=True, help="window params: N=50[,signed] / B=3 / d=4")),
    "colors": (("--colors",), dict(type=integer, required=True, help="number of colors r")),
    "F": (("--F",), dict(required=True, help='family literal, e.g. "t" or "0; t" or "2t^2+t"')),
    "seed": (("--seed",), dict(type=integer, help="stream seed (default 0)")),
    "coloring": (("--coloring",), dict(help="coloring file (instead of --seed)")),
    "partial": (("--partial",), dict(action="store_true", default=None, help="judge instances only "
                                     "partly inside the window by their visible part")),
    "budget": (("--budget",), dict(type=integer,
                                   help=f"node budget (default: ${BUDGET_ENV} or unlimited)")),
    "exclude-y": (("--exclude-y",), dict(help="element set never used as y (default {0,1})")),
    "exclude-x": (("--exclude-x",), dict(help="element set never used as x (default {0})")),
    "allow-degenerate": (("--allow-degenerate",), dict(action="store_true", default=None,
                                                       help="keep single-element instances")),
    "format": (("--format",), dict(choices=("json", "text", "csv"), help="report format")),
    "output": (("-o", "--output"), dict(help="write the report here instead of stdout")),
    "config": (("--config",), dict(help="file of key = value lines mirroring these flags")),
    "limit": (("--limit",), dict(type=integer, help="stop after this many witnesses")),
    "y": (("--y",), dict(help="restrict to one y (element literal)")),
    "target": (("--target",), dict(required=True, help="element set A")),
    "gaps": (("--gaps",), dict(required=True, help="gap set G")),
    "block": (("--block",), dict(required=True)),
    "target-window": (("--target-window",),
                      dict(help="window params for parsing --target (default: --window)")),
    "len": (("--len",), dict(type=integer, required=True, help="sequence length")),
    "samples": (("--samples",), dict(type=integer, required=True)),
    "anchor": (("--anchor",), dict(required=True, help="element literal")),
    "by": (("--by",), dict(required=True, help="element literal to dilate/divide by")),
    "mode": (("--mode",), dict(choices=("dilate", "divide"), required=True)),
    "check-target": (("--target",), dict(help="optional set A for before/after validation")),
    "alphabet": (("--alphabet",), dict(type=integer, required=True)),
    "max-side": (("--maxN",), dict(type=integer, required=True)),
    "work-cap": (("--work-cap",), dict(type=integer, help="stop a side's search after this many "
                                       "decisions (default 10^8)")),
    "n": (("--n",), dict(type=integer, default=2, help="side of the layered space (default 2)")),
    "depth": (("--depth",), dict(type=integer, help="levels d (default: family top degree)")),
    "trials": (("--trials",), dict(type=integer, default=100, help="default 100")),
    "save-coloring": (("--save-coloring",), dict(help="write the resulting coloring to this file")),
    "max-window": (("--maxN",), dict(type=integer, required=True, help="largest window size probed: "
                                     "N over Z, B over Zi, d over GF(q)[x]")),
    "crosscheck": (("--crosscheck",), dict(action="store_true", default=None,
                                           help="confirm the boundary with the reference CNF engine")),
    "cnf-output": (("-o", "--output"), dict(dest="cnf_file", metavar="OUTPUT",
                                            help="CNF file path (default: raw DIMACS on stdout)")),
    "model": (("--model",), dict(required=True, help="model file (v-lines or literals); - for stdin")),
    "elements": (("--elements",), dict(required=True,
                                       help="comma-separated element literals, in order")),
    "start": (("--start",), dict(required=True, help="first element (literal)")),
    "length": (("--length",), dict(type=integer, required=True, help="target length")),
    "inputs": (("inputs",), dict(nargs="+", help="report JSON files")),
    "csv-output": (("-o", "--output"), dict(help="CSV destination (default stdout)")),
}

# runs of flags that several commands share, in --help order
_REPORT = ("format", "output", "config")
_CONSTRAINTS = ("exclude-y", "exclude-x", "allow-degenerate")
_SCAN = ("ring", "window", "colors", "F", "seed", "coloring", "partial", *_CONSTRAINTS, *_REPORT)

# group word -> (help, metavar of its subcommand)
_GROUPS = {
    "largeness": ("syndetic / witness / IP checks and transports", "check"),
    "search": ("avoidance colorings and least-window thresholds", "mode"),
    "cnf": ("DIMACS export / model decode", "direction"),
    "ufp": ("uniqueness-of-finite-products tools", "action"),
}

# leaf words -> (help, flags, table), in --help order; a group is listed
# where its first leaf is.  flags names the leaf's _FLAGS entries in
# --help order.  table is (key, columns) of the payload list whose rows
# --format csv and text print, or None
_COMMANDS = {
    ("scan",): ("list monochromatic instances of a coloring", (*_SCAN, "limit"),
                ("witnesses", ("x", "y", "color"))),
    ("abundance",): ("per-y color profile of admissible x values", (*_SCAN, "y"),
                     ("rows", ("y", "color", "count"))),
    ("largeness", "syndetic"): ("do the gap translates of a set cover the window?",
                                ("ring", "window", *_REPORT, "target", "gaps"), None),
    ("largeness", "ps-witness"): ("least anchor making (gaps, block) a witness",
                                  ("ring", "window", *_REPORT, "target", "gaps", "block"), None),
    ("largeness", "ipstar"): ("search seeded sequences whose finite sums miss a set",
                              ("ring", "window", "seed", *_REPORT, "target", "target-window", "len",
                               "samples"), None),
    ("largeness", "transport"): ("dilate or divide a witness exactly",
                                 ("ring", "window", *_REPORT, "gaps", "block", "anchor", "by", "mode",
                                  "check-target"), None),
    ("hj",): ("exhaustive cube-coloring search for forced lines",
              ("colors", *_REPORT, "alphabet", "max-side", "work-cap"), None),
    ("sigma",): ("randomized exact checks of the embedding identity",
                 ("ring", "window", "F", "seed", *_REPORT, "n", "depth", "trials"), None),
    ("search", "avoid"): ("search one window for an avoidance coloring",
                          ("ring", "window", "colors", "F", "budget", *_CONSTRAINTS, *_REPORT,
                           "save-coloring"), None),
    ("search", "moreira"): ("least window size at which avoidance becomes impossible",
                            ("ring", "colors", "F", "budget", *_REPORT, "max-window", "crosscheck"),
                            None),
    ("cnf", "export"): ("write the avoidance instance as DIMACS CNF",
                        ("ring", "window", "colors", "F", *_CONSTRAINTS, "config", "format",
                         "cnf-output"), None),
    ("cnf", "decode"): ("turn a satisfying model back into a coloring",
                        ("ring", "window", "colors", "F", *_CONSTRAINTS, *_REPORT, "model",
                         "save-coloring"), None),
    ("ufp", "verify"): ("check pairwise distinctness of subset products",
                        ("ring", *_REPORT, "elements"), None),
    ("ufp", "grow"): ("extend a sequence over a window pool",
                      ("ring", "window", *_REPORT, "start", "length"), None),
    ("report",): ("merge report JSON files into one CSV table", ("inputs", "csv-output"), None),
}


def _build_parser(words: tuple | None = None) -> tuple:
    """The parser, and the parser of each leaf subcommand by its words:
    the whole tree, or with words only the path to that one leaf."""
    parser = argparse.ArgumentParser(
        prog="monochrome",
        description="verification and search for monochromatic product/shift "
                    "configurations over finite ring windows",
    )
    sub = parser.add_subparsers(dest="cmd", metavar="subcommand", required=True)
    groups = {}
    leaves = {}
    for path, (help_text, flags, _) in _COMMANDS.items():
        if words not in (None, path):
            continue
        if len(path) == 2 and path[0] not in groups:
            group_help, metavar = _GROUPS[path[0]]
            groups[path[0]] = sub.add_parser(path[0], help=group_help).add_subparsers(
                dest="sub", metavar=metavar, required=True)
        parent = groups[path[0]] if len(path) == 2 else sub
        leaves[path] = leaf = parent.add_parser(path[-1], help=help_text)
        for name in flags:
            options, keywords = _FLAGS[name]
            leaf.add_argument(*options, **keywords)
    return parser, leaves


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
                    raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip(WHITESPACE)!r}")
                key, value = line.split("=", 1)
                entries[key.strip(WHITESPACE).replace("-", "_")] = value.strip(WHITESPACE)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    return entries


class _RaisingParser(argparse.ArgumentParser):
    def error(self, message):  # an ambiguous option calls this even with exit_on_error=False
        raise argparse.ArgumentError(None, message)


def _with_config(leaf: argparse.ArgumentParser, words: tuple, argv: list) -> list:
    """argv, which names the leaf subcommand by its words, with the
    --config file's entries turned into the leaf's own flags, placed
    after its words and before the user's flags, so that argparse checks
    them and explicit flags win."""
    options = leaf._option_string_actions
    if "--config" not in options:
        return argv
    # all the leaf's option strings, so that argparse reads an abbreviation of
    # --config as the leaf does; no option takes an option-like value, so arity is moot
    pre = _RaisingParser(add_help=False)
    pre.add_argument(*(s for s, a in options.items() if a.dest != "config"), nargs="?", dest="other")
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv[len(words):])[0].config
    except argparse.ArgumentError:  # let the subcommand's parser report it
        return argv
    if path is None:
        return argv
    flags = []
    for key, value in _load_config(path).items():
        flag = "--" + key.replace("_", "-")
        action = options.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise ValueError(f"unknown config key {key!r}")
        if action.nargs != 0:
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            flags.append(flag)
        elif value.lower() not in ("0", "false", "no", "off"):
            raise ValueError(f"config key {key}: expected a boolean, got {value!r}")
    return [*words, *flags, *argv[len(words):]]


def _apply_env(args: argparse.Namespace) -> None:
    """Fill an unset --budget or --work-cap from the environment."""
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        for dest in ("budget", "work_cap"):
            if dest in vars(args) and getattr(args, dest) is None:
                try:
                    setattr(args, dest, integer(env))
                except ValueError:
                    raise ValueError(f"${BUDGET_ENV} must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# Shared pieces


def _window(spec, text: str):
    return enumerate_window(spec, parse_window_params(spec, text))


def _problem(args) -> tuple:
    """(spec, window, r, family, constraints) from the flags."""
    spec = parse_ring_spec(args.ring)
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
    if args.coloring is None:
        return random_coloring(window, r, args.seed if args.seed is not None else 0)
    if args.seed is not None:
        raise ValueError("--coloring and --seed exclude each other: the file fixes every color")
    coloring = load_coloring(args.coloring)
    if coloring.window.spec != spec:
        raise ValueError("coloring file ring differs from --ring")
    if coloring.window != window:
        raise ValueError("coloring file window differs from --window")
    if coloring.r != r:
        raise ValueError("coloring file colors differ from --colors")
    return coloring


def _save_coloring(args, coloring: Coloring, payload: dict) -> None:
    """Write the coloring to --save-coloring, if given, and name the file in the payload."""
    if args.save_coloring is not None:
        store_coloring(coloring, args.save_coloring)
        payload["coloring_file"] = args.save_coloring


def _fmt_set(elems) -> list:
    return sorted(format_element(e) for e in elems)


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_REPORT_KEYS = ("command", "timestamp", "status")


def _cells(report: dict) -> dict:
    """A report's cells by column: its fields before the payload, then each
    payload field, headed payload.<key> where an earlier column has its key."""
    cells = {key: value for key, value in report.items() if key != "payload"}
    for key, value in report["payload"].items():
        cells[f"payload.{key}" if key in cells else key] = value
    return cells


def _render_text(cells: dict, table) -> str:
    lines = [f"# {cells.pop('command')}"]
    del cells["timestamp"]
    for column, value in cells.items():
        if table is not None and column == table[0] and value:
            lines.append(f"{column}:")
            lines.extend("  " + "  ".join(f"{k}={v}" for k, v in zip(table[1], row)) for row in value)
        else:
            lines.append(f"{column}: {_plain(value)}")
    return "\n".join(lines) + "\n"


def _json(value) -> str:
    """The CLI's one JSON form: compact, ASCII-escaped, keys in insertion order.
    No cycle check: a cyclic value overflows as a RecursionError."""
    return json.dumps(value, separators=(",", ":"), check_circular=False)


def _json_table(report: dict, key: str, columns: tuple) -> str:
    """_json(report) whose payload ends with the table key of row tuples:
    _json of the report with the table emptied, each row spliced in before
    the closing ]}} as the fragment of its first cell, {"x":"17", and of
    its other cells, ,"y":"2","color":1}, each distinct one encoded once
    (cells are str or int, so no two distinct cells share a cache key)."""
    payload = report["payload"]
    head = _json({**report, "payload": {**payload, key: []}})[:-3]
    first = cache(lambda cell: _json({columns[0]: cell})[:-1])
    rest = cache(lambda *cells: "," + _json(dict(zip(columns[1:], cells)))[1:])
    return head + ",".join([first(row[0]) + rest(*row[1:]) for row in payload[key]]) + "]}}"


def _plain(value) -> str:
    if isinstance(value, (dict, list)):
        return _json(value)
    return str(value)


def _csv(columns, rows) -> str:
    """A CSV table: the header, then each row, a sequence of str or int
    cells in the order of columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _scalar_columns(cells: dict) -> list:
    return [column for column, value in cells.items() if not isinstance(value, (dict, list))]


def _emit(args, status: str, payload: dict) -> int:
    """Write the report of a handler's outcome and return its exit code."""
    words = tuple(filter(None, (args.cmd, getattr(args, "sub", None))))
    report = {"command": " ".join(words), "timestamp": _now(), "status": status, "payload": payload}
    fmt, table = getattr(args, "format", None) or "json", _COMMANDS[words][2]
    if table is not None and next(reversed(payload), None) != table[0]:
        raise InternalError(f"{report['command']}: table {table[0]!r} is not the payload's last field")
    if fmt == "json":
        text = (_json(report) if table is None else _json_table(report, *table)) + "\n"
    else:
        cells = _cells(report)
        if fmt == "text":
            text = _render_text(cells, table)
        elif table is not None:
            text = _csv(table[1], payload[table[0]])
        else:
            columns = _scalar_columns(cells)
            text = _csv(columns, [[_plain(cells[c]) for c in columns]])
    _write(getattr(args, "output", None), text)
    return 0 if status in POSITIVE_STATUSES else 1


def _write(dest, text: str) -> None:
    """Write text to the file dest, or to stdout when dest is None."""
    if dest is not None:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Handlers


def _cmd_scan(args) -> tuple:
    spec, window, r, family, constraints = _problem(args)
    coloring = _coloring_for(args, spec, window, r)
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"witness limit must be >= 0, got {args.limit}")
    values, names = list(window.raw_index), [None] * len(window)  # literals by position, made at first use
    witnesses, last = [], None
    for y, pos, color in islice(_witness_triples(coloring, family, constraints), args.limit):
        if y is not last:
            last, y_name = y, format_element(y)
        x_name = names[pos]
        if x_name is None:
            x_name = names[pos] = spec.text(values[pos])
        witnesses.append((x_name, y_name, color))
    return "ok", {**_header(spec, window, r, family), "seed": args.seed,
                  "count": len(witnesses), "witnesses": witnesses}


def _cmd_abundance(args) -> tuple:
    spec, window, r, family, constraints = _problem(args)
    coloring = _coloring_for(args, spec, window, r)
    ys = None if args.y is None else [parse_element(spec, args.y)]
    counts = Counter((y.val, color) for y, _, color in _witness_triples(coloring, family, constraints, ys))
    ys = ys or [y for y in window.elements if constraints.admits_y(y)]  # the rows' y
    rows = [(format_element(y), c, counts[y.val, c]) for y in ys for c in range(1, r + 1)]
    return "ok", {**_header(spec, window, r, family), "rows": rows}


def _cmd_largeness(args) -> tuple:
    spec = parse_ring_spec(args.ring)
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
        target_window = _window(spec, args.target_window) if args.target_window is not None else window
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
    res = hj_number_exhaustive(args.colors, args.alphabet, args.maxN, args.work_cap)
    payload = {"r": res.r, "t": res.t, "N": res.n, "status": res.status}
    if res.avoiding is not None:
        payload["avoiding_coloring"] = list(res.avoiding)
    return res.status, payload


def _cmd_sigma(args) -> tuple:
    spec = parse_ring_spec(args.ring)
    pool = _window(spec, args.window)
    family = parse_family(spec, args.F)
    seed = args.seed if args.seed is not None else 0
    oks = [check.ok for trial in sigma_trials(family, pool, args.n, args.depth, args.trials, seed)
           for check in trial]
    failures = oks.count(False)
    return "ok" if failures == 0 else "failed", {
        "ring": format_ring_spec(spec),
        "family": format_family(family),
        "n": args.n,
        "trials": args.trials,
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
            "candidates": len(inst.index_sets),
            "status": res.status.value,
            "nodes": res.nodes,
            "backtracks": res.backtracks,
        }
        if res.coloring is not None:
            payload["coloring"] = list(res.coloring.colors)
            _save_coloring(args, res.coloring, payload)
        return res.status.value, payload
    # moreira
    spec = parse_ring_spec(args.ring)
    r = args.colors
    family = parse_family(spec, args.F)
    res = moreira_number(r, family, args.maxN, args.budget)
    payload = {
        "ring": format_ring_spec(spec),
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
            side: dual_engine_check(res.instance_at(n)) for side, n in sizes.items() if n >= spec.least}
    return res.status, payload


def _cmd_cnf(args) -> tuple | None:
    if args.sub == "export" and args.cnf_file is None and args.format is not None:
        raise ValueError("--format sets the report's form, and cnf export writes a report only with -o")
    spec, window, r, family, constraints = _problem(args)
    inst = build_instance(window, r, family, constraints)
    if args.sub == "export":
        doc = cnf_export(inst)
        _write(args.cnf_file, to_dimacs(doc))
        if args.cnf_file is None:
            return None
        return "ok", {
            "path": args.cnf_file,
            "vars": doc.num_vars,
            "clauses": len(doc.clauses),
            "candidates": len(inst.index_sets),
        }
    # decode
    if args.model == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.model, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read model {args.model}: {exc}") from None
    coloring = cnf_model_decode(parse_model(text), inst)
    payload = {"colors": list(coloring.colors), "valid": True}
    _save_coloring(args, coloring, payload)
    return "ok", payload


def _cmd_ufp(args) -> tuple:
    spec = parse_ring_spec(args.ring)
    if args.sub == "verify":
        literals = [tok.strip(WHITESPACE) for tok in args.elements.split(",") if tok.strip(WHITESPACE)]
        if not literals:
            raise ValueError("--elements needs at least one literal")
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
    seq = grow_ufp(parse_element(spec, args.start), window, args.length)
    payload = {
        "length": len(seq),
        "sequence": [format_element(e) for e in seq.elements],
        "products": 2 ** len(seq) - 1,  # distinct, as a grown sequence has UFP
    }
    if len(seq) < args.length:
        payload["step"] = len(seq) + 1  # the first step with no admissible element
        return "pool_exhausted", payload
    return "ok", payload


def _cmd_report(args) -> None:
    rows = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        except RecursionError:
            raise ValueError(f"{path}: not valid JSON (nested too deeply)") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: not a report (the top level is not a JSON object)")
        for key in (*_REPORT_KEYS, "payload"):
            if key not in data:
                raise ValueError(f"{path}: missing report key {key!r}")
        if not isinstance(data["payload"], dict):
            raise ValueError(f"{path}: report payload is not a JSON object")
        rows.append(_cells({"file": path, **{key: data[key] for key in (*_REPORT_KEYS, "payload")}}))
    fixed = ["file", *_REPORT_KEYS]
    renamed = {f"payload.{key}": key for key in fixed}
    # the payload columns, in the order of the payload keys they head
    payload_columns = sorted({c for cells in rows for c in _scalar_columns(cells)}.difference(fixed),
                             key=lambda c: renamed.get(c, c))
    columns = [*fixed, *payload_columns]
    _write(args.output, _csv(columns, [[_plain(cells.get(c, "")) for c in columns] for cells in rows]))


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
    usage/input error, 3 internal error).

    Only the parsers on argv's path are built: argparse takes no
    abbreviated subcommand, and no flag but -h before it, so argv names a
    leaf only by exactly its first one or two words.  Help and errors
    for argv that names no leaf need the whole tree."""
    words = next((w for w in (tuple(argv[:2]), tuple(argv[:1])) if w in _COMMANDS), None)
    parser, leaves = _build_parser(words)
    try:
        if words is not None:
            argv = _with_config(leaves[words], words, argv)
        args = parser.parse_args(argv)
        _apply_env(args)
        outcome = _HANDLERS[args.cmd](args)
        return 0 if outcome is None else _emit(args, *outcome)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except RuntimeError as exc:  # InternalError, RecursionError: a fault of the package
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
