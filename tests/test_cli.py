"""Command-line front end: payloads mirror library calls, exit codes follow
the 0/1/2 contract, config files merge under flags."""

import argparse
import ast
import csv
import functools
import gzip
import io
import itertools
import json
import operator
import os
import pathlib
import re
import subprocess
import sys

import pytest

from monochrome import (
    ScanConstraints,
    WindowParams,
    abundance_profile,
    build_instance,
    cnf_export,
    dual_engine_check,
    enumerate_window,
    format_element,
    format_family,
    format_ring_spec,
    format_window_params,
    grow_ufp,
    hj_number_exhaustive,
    load_coloring,
    parse_element,
    parse_family,
    parse_ring_spec,
    parse_window_params,
    random_coloring,
    store_coloring,
    to_dimacs,
    witness_scan,
)
from monochrome import cli
from monochrome.cli import dispatch

from test_patterns import KERNEL_RINGS, kernel_cases

Z = parse_ring_spec("Z")


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# scan / abundance


def test_scan_mirrors_library(capsys):
    code, report = run_json(
        capsys,
        "scan", "--ring", "Z", "--window", "N=50", "--colors", "2",
        "--seed", "7", "--F", "t",
    )
    assert code == 0
    assert report["command"] == "scan"
    assert report["status"] == "ok"
    payload = report["payload"]
    assert payload["count"] == 83
    w = enumerate_window(Z, WindowParams(50))
    expected = [
        {"x": format_element(wit.x), "y": format_element(wit.y), "color": wit.color}
        for wit in witness_scan(random_coloring(w, 2, 7), parse_family(Z, "t"))
    ]
    assert payload["witnesses"] == expected


def test_scan_limit_flag(capsys):
    code, report = run_json(
        capsys,
        "scan", "--ring", "Z", "--window", "N=50", "--colors", "2",
        "--seed", "7", "--F", "t", "--limit", "4",
    )
    assert code == 0
    assert report["payload"]["count"] == 4


def test_scan_with_coloring_file(capsys, tmp_path):
    from monochrome import store_coloring

    w = enumerate_window(Z, WindowParams(30))
    c = random_coloring(w, 2, 9)
    path = tmp_path / "c.txt"
    store_coloring(c, path)
    code, report = run_json(
        capsys,
        "scan", "--ring", "Z", "--window", "N=30", "--colors", "2",
        "--coloring", str(path), "--F", "t",
    )
    assert code == 0
    code2, seeded = run_json(
        capsys,
        "scan", "--ring", "Z", "--window", "N=30", "--colors", "2",
        "--seed", "9", "--F", "t",
    )
    assert report["payload"]["witnesses"] == seeded["payload"]["witnesses"]
    # the file fixes every color, so a seed beside it is a usage error
    assert dispatch(["scan", "--ring", "Z", "--window", "N=30", "--colors", "2",
                     "--coloring", str(path), "--seed", "9", "--F", "t"]) == 2
    assert "--coloring and --seed exclude each other" in capsys.readouterr().err


@pytest.mark.parametrize("ring,window,family", [("Zi", "B=3", "0;t"), ("GF(3)[x]", "d=3", "0;(x+1)t")])
def test_scan_names_tuple_valued_elements(capsys, ring, window, family):
    """scan formats each element once, keyed by its raw value: over rings
    whose raw values are tuples, in both modes and under --limit, the
    reported literals are format_element's, in witness_scan's order."""
    spec = parse_ring_spec(ring)
    coloring = random_coloring(enumerate_window(spec, parse_window_params(spec, window)), 2, 5)
    defaults = ScanConstraints.defaults_for(spec)
    partial = ScanConstraints(defaults.exclude_y, defaults.exclude_x, require_in_window=False)
    argv = ["scan", "--ring", ring, "--window", window, "--colors", "2", "--seed", "5", "--F", family]
    for extra, constraints in (([], defaults), (["--partial"], partial)):
        expected = [(format_element(wit.x), format_element(wit.y)) for wit in
                    witness_scan(coloring, parse_family(spec, family), constraints)]
        assert len(expected) > 1
        for limit, want in ((), expected), (("--limit", "1"), expected[:1]):
            code, report = run_json(capsys, *argv, *extra, *limit)
            assert code == 0
            assert [(row["x"], row["y"]) for row in report["payload"]["witnesses"]] == want


def test_scan_coloring_file_window_mismatch(capsys, tmp_path):
    from monochrome import store_coloring

    w = enumerate_window(Z, WindowParams(30))
    store_coloring(random_coloring(w, 2, 9), tmp_path / "c.txt")
    code, _ = run(
        capsys,
        "scan", "--ring", "Z", "--window", "N=31", "--colors", "2",
        "--coloring", str(tmp_path / "c.txt"), "--F", "t",
    )
    assert code == 2


def test_abundance_rows(capsys):
    code, report = run_json(
        capsys,
        "abundance", "--ring", "Z", "--window", "N=50", "--colors", "2",
        "--seed", "7", "--F", "t", "--y", "2",
    )
    assert code == 0
    rows = report["payload"]["rows"]
    assert rows == [
        {"y": "2", "color": 1, "count": 5},
        {"y": "2", "color": 2, "count": 5},
    ]


def test_abundance_csv_format(capsys):
    code, out = run(
        capsys,
        "abundance", "--ring", "Z", "--window", "N=20", "--colors", "2",
        "--seed", "1", "--F", "t", "--y", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "y,color,count"
    assert len(lines) == 3


def test_table_commands_print_their_declared_csv_header(capsys):
    """scan and abundance print under --format csv their declared header,
    then one line per row of the JSON report's table, also when the
    table is empty (text then says key: [])."""
    problem = ["--ring", "Z", "--colors", "2", "--F", "t"]
    cases = [(["scan", "--window", "N=3", "--seed", "1"], "witnesses", ["x", "y", "color"]),
             (["scan", "--window", "N=50", "--seed", "7"], "witnesses", ["x", "y", "color"]),
             (["abundance", "--window", "N=3", "--seed", "1", "--exclude-y", "{0,1,2,3}"], "rows",
              ["y", "color", "count"]),
             (["abundance", "--window", "N=50", "--seed", "7", "--y", "2"], "rows", ["y", "color", "count"])]
    sizes = []
    for argv, key, header in cases:
        code, report = run_json(capsys, *argv, *problem)
        assert code == 0, argv
        rows = report["payload"][key]
        sizes.append(len(rows))
        code, out = run(capsys, *argv, *problem, "--format", "csv")
        assert code == 0, argv
        assert list(csv.reader(out.splitlines())) == [header, *([str(row[c]) for c in header] for row in rows)]
        code, out = run(capsys, *argv, *problem, "--format", "text")
        assert (f"\n{key}: []\n" in out) is not rows, argv
    assert sizes[0] == sizes[2] == 0 and sizes[1] > 0 and sizes[3] > 0


def test_negative_element_literals_join_their_flag(capsys):
    """A literal that begins with - and is not a plain negative number is
    given as --flag=value; with a space, argparse takes it for a flag."""
    zi = parse_ring_spec("Zi")
    window = enumerate_window(zi, parse_window_params(zi, "B=3"))
    argv = ["abundance", "--ring", "Zi", "--window", "B=3", "--colors", "2", "--seed", "1", "--F", "t"]
    code, report = run_json(capsys, *argv, "--y=-1i")
    assert code == 0
    y = parse_element(zi, "-1i")
    profile = abundance_profile(random_coloring(window, 2, 1), parse_family(zi, "t"), y,
                                ScanConstraints.defaults_for(zi))
    assert report["payload"]["rows"] == [{"y": "-1i", "color": c, "count": len(profile[c])} for c in (1, 2)]
    grow = ["ufp", "grow", "--ring", "Zi", "--window", "B=3", "--length", "3"]
    code, report = run_json(capsys, *grow, "--start=-1+1i")
    assert code == 0
    want = grow_ufp(parse_element(zi, "-1+1i"), window, 3)
    assert report["payload"]["sequence"] == [format_element(e) for e in want.elements]
    for spaced, flag in (([*argv, "--y", "-1i"], "--y"), ([*grow, "--start", "-1+1i"], "--start")):
        assert dispatch(spaced) == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err


def test_abundance_partial_flag(capsys):
    code, report = run_json(
        capsys,
        "abundance", "--ring", "Z", "--window", "N=30", "--colors", "2",
        "--seed", "3", "--F", "t", "--y", "5", "--partial",
    )
    assert code == 0
    w = enumerate_window(Z, WindowParams(30))
    partial = ScanConstraints(frozenset({Z.zero, Z.one}), frozenset({Z.zero}),
                              require_in_window=False)
    profile = abundance_profile(random_coloring(w, 2, 3), parse_family(Z, "t"),
                                Z.integer(5), partial)
    rows = report["payload"]["rows"]
    assert rows == [{"y": "5", "color": c, "count": len(profile[c])} for c in (1, 2)]
    assert sum(row["count"] for row in rows) == 23  # the x values of the partial scan


def _set_literal(elements) -> str:
    return "{" + ",".join(sorted(format_element(e) for e in elements)) + "}"


@pytest.mark.parametrize("ring_case", range(len(KERNEL_RINGS)))
def test_scan_and_abundance_mirror_the_library_in_every_mode(capsys, ring_case):
    """For each constraint set of the kernel differential that flags can
    name (all but an element of another ring), passed as --exclude-y,
    --exclude-x, --allow-degenerate and --partial, on Z, signed Z, Zi,
    GF(2)[x] and GF(3)[x]: scan under no --limit, 0 and 1 reports
    witness_scan's witnesses, abundance reports abundance_profile's
    counts at every admitted y and at a --y outside the window, and an
    excluded --y is a usage error."""
    spec, params, family_texts, outside = KERNEL_RINGS[ring_case]
    window = enumerate_window(spec, params)
    y_out = parse_element(spec, outside)
    base = ["--ring", spec.name, "--window", format_window_params(spec, params)]
    modes = witnessed = 0
    for k, (name, constraints) in enumerate(kernel_cases(spec, window, ring_case).items()):
        if name == "exclude_other_ring":
            continue
        family_text = family_texts[k % len(family_texts)]
        family = parse_family(spec, family_text)
        r, seed = 2 + k % 2, 10 * ring_case + k
        coloring = random_coloring(window, r, seed)
        argv = [*base, "--colors", str(r), "--seed", str(seed), "--F", family_text,
                "--exclude-y", _set_literal(constraints.exclude_y),
                "--exclude-x", _set_literal(constraints.exclude_x),
                *["--allow-degenerate"] * (not constraints.forbid_degenerate),
                *["--partial"] * (not constraints.require_in_window)]
        label = f"{spec.name} {name} F={family_text}"
        for limit in (None, 0, 1):
            want = [{"x": format_element(w.x), "y": format_element(w.y), "color": w.color}
                    for w in witness_scan(coloring, family, constraints, limit)]
            extra = [] if limit is None else ["--limit", str(limit)]
            code, report = run_json(capsys, "scan", *argv, *extra)
            assert code == 0 and report["payload"]["witnesses"] == want, (label, limit)
        modes += 1
        witnessed += len(want)
        ys = [y for y in window.elements if constraints.admits_y(y)]
        for y_flag, y_list in (([], ys), ([f"--y={outside}"], [y_out])):
            want = [{"y": format_element(y), "color": c, "count": len(profile[c])}
                    for y in y_list
                    for profile in [abundance_profile(coloring, family, y, constraints)]
                    for c in range(1, r + 1)]
            code, report = run_json(capsys, "abundance", *argv, *y_flag)
            assert code == 0 and report["payload"]["rows"] == want, (label, y_flag)
        for y in sorted(constraints.exclude_y & set(window.elements), key=window.elements.index)[:1]:
            assert dispatch(["abundance", *argv, f"--y={format_element(y)}"]) == 2, label
            assert (f"error: y = {format_element(y)} is excluded by the scan constraints"
                    in capsys.readouterr().err), label
    assert witnessed > modes // 2  # most modes find a witness


def test_scan_partial_golden_report(tmp_path):
    """The report of the benchmark toolkit's partial scan (Z N=200, two
    colors, seed 7, F = 0;t: 29,701 witnesses) is byte for byte the
    committed one, its timestamp blanked."""
    out = tmp_path / "scan_partial.json"
    assert dispatch(["scan", "--ring", "Z", "--window", "N=200", "--colors", "2", "--seed", "7",
                     "--F", "0;t", "--partial", "-o", str(out)]) == 0
    got = re.sub(rb'"timestamp":"[^"]*"', b'"timestamp":""', out.read_bytes(), count=1)
    golden = pathlib.Path(__file__).parent / "golden" / "scan_partial_seed7.json.gz"
    assert got == gzip.decompress(golden.read_bytes())


@pytest.mark.parametrize("golden, argv", [
    ("scan_whole_gf2_seed7.json.gz", ["scan", "--ring", "GF(2)[x]", "--window", "d=8", "--F", "0;t"]),
    ("scan_whole_zi_seed7.json.gz", ["scan", "--ring", "Zi", "--window", "B=8", "--F", "2t^2+t"]),
    ("abundance_gf3_seed7.csv.gz", ["abundance", "--ring", "GF(3)[x]", "--window", "d=5",
                                    "--F", "2t^2+t", "--format", "csv"]),
])
def test_whole_scan_golden_reports(tmp_path, golden, argv):
    """Whole-window scan and abundance reports (two colors, seed 7) are byte
    for byte the committed ones, their timestamps blanked: 427 witnesses
    over GF(2)[x] d=8, 798 over Zi B=8, and the per-y counts of GF(3)[x]
    d=5."""
    out = tmp_path / "report"
    assert dispatch([*argv, "--colors", "2", "--seed", "7", "-o", str(out)]) == 0
    got = re.sub(rb'"timestamp":"[^"]*"', b'"timestamp":""', out.read_bytes(), count=1)
    assert got == gzip.decompress((pathlib.Path(__file__).parent / "golden" / golden).read_bytes())


def _plain(value) -> str:
    return json.dumps(value, separators=(",", ":")) if isinstance(value, (dict, list)) else str(value)


def _dict_row_csv(columns, rows) -> str:
    """The CSV of a table of one dict per row: an oracle for the tuple-row writer."""
    lines = [columns, *([_plain(row.get(c, "")) for c in columns] for row in rows)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    return buf.getvalue()


def _dict_row_text(report, table) -> str:
    """The text of a report whose table has one dict per row: an oracle
    for the tuple-row writer."""
    cells = {key: value for key, value in report.items() if key != "payload"}
    for key, value in report["payload"].items():
        cells[f"payload.{key}" if key in cells else key] = value
    lines = [f"# {cells.pop('command')}"]
    del cells["timestamp"]
    for column, value in cells.items():
        if column == table[0] and value:
            lines.append(f"{column}:")
            lines.extend("  " + "  ".join(f"{k}={_plain(row[k])}" for k in table[1]) for row in value)
        else:
            lines.append(f"{column}: {_plain(value)}")
    return "\n".join(lines) + "\n"


# (command, ring, window, colors, family, options): every scan mode (whole,
# --partial, --coloring), an empty and a cut table, and abundance at every
# admitted y and at one --y, on Z, signed Z, Zi, GF(2)[x] and GF(3)[x]
_TABLE_CASES = [
    ("scan", "Z", "N=50", 2, "t", {}),
    ("scan", "Z", "N=50", 2, "t", {"limit": 0}),
    ("scan", "Z", "N=50", 2, "t", {"limit": 5}),
    ("scan", "Z", "N=40", 3, "0;t", {"partial": True}),
    ("scan", "Z", "N=40", 3, "0;t", {"coloring": True}),
    ("scan", "Z", "N=15,signed", 2, "0;t", {"partial": True}),
    ("scan", "Zi", "B=3", 2, "(1+1i)t", {}),
    ("scan", "Zi", "B=3", 2, "0;t", {"coloring": True, "partial": True}),
    ("scan", "GF(2)[x]", "d=5", 2, "0;t", {}),
    ("scan", "GF(3)[x]", "d=3", 3, "0;t", {"partial": True, "limit": 5}),
    ("abundance", "Z", "N=50", 2, "t", {}),
    ("abundance", "Z", "N=50", 2, "t", {"y": "2"}),
    ("abundance", "Z", "N=15,signed", 2, "0;t", {"y": "-3", "partial": True}),
    ("abundance", "Zi", "B=3", 2, "t", {"y": "-1i"}),
    ("abundance", "Zi", "B=3", 2, "t", {"y": "1+1i", "coloring": True}),
    ("abundance", "GF(2)[x]", "d=4", 2, "0;t", {}),
    ("abundance", "GF(3)[x]", "d=3", 3, "t", {"partial": True}),
]


@pytest.mark.parametrize("case", _TABLE_CASES, ids=lambda case: " ".join(map(str, case[:5])) + str(case[5]))
def test_table_reports_are_the_dict_row_encoding(capsys, tmp_path, case):
    """scan's and abundance's JSON, CSV and text reports, the timestamp
    masked, are byte for byte those of the report with one dict per table
    row, built from witness_scan and abundance_profile, under json.dumps
    and the CSV and text rendering of such rows."""
    command, ring, window_text, r, family_text, options = case
    spec = parse_ring_spec(ring)
    window = enumerate_window(spec, parse_window_params(spec, window_text))
    family = parse_family(spec, family_text)
    base = ScanConstraints.defaults_for(spec)
    constraints = ScanConstraints(base.exclude_y, base.exclude_x,
                                  require_in_window=not options.get("partial"))
    argv = [command, "--ring", ring, "--window", window_text, "--colors", str(r), "--F", family_text,
            *["--partial"] * bool(options.get("partial"))]
    if options.get("coloring"):
        seed, coloring = None, random_coloring(window, r, 5)
        store_coloring(coloring, tmp_path / "c.txt")
        argv += ["--coloring", str(tmp_path / "c.txt")]
    else:
        seed, coloring = 7, random_coloring(window, r, 7)
        argv += ["--seed", "7"]
    header = {"ring": format_ring_spec(spec), "window": format_window_params(spec, window.params),
              "colors": r, "family": format_family(family)}
    if command == "scan":
        limit = options.get("limit")
        argv += [] if limit is None else ["--limit", str(limit)]
        rows = [{"x": format_element(w.x), "y": format_element(w.y), "color": w.color}
                for w in witness_scan(coloring, family, constraints, limit)]
        payload = {**header, "seed": seed, "count": len(rows), "witnesses": rows}
    else:
        if "y" in options:
            argv.append(f"--y={options['y']}")
            ys = [parse_element(spec, options["y"])]
        else:
            ys = [y for y in window.elements if constraints.admits_y(y)]
        rows = [{"y": format_element(y), "color": c, "count": len(profile[c])}
                for y in ys for profile in [abundance_profile(coloring, family, y, constraints)]
                for c in range(1, r + 1)]
        payload = {**header, "rows": rows}
    assert bool(rows) is (options.get("limit") != 0)
    table = cli._COMMANDS[(command,)][2]
    report = {"command": command, "timestamp": "", "status": "ok", "payload": payload}
    want = {"json": json.dumps(report, separators=(",", ":")) + "\n",
            "csv": _dict_row_csv(table[1], rows),
            "text": _dict_row_text(report, table)}
    for fmt, text in want.items():
        code, out = run(capsys, *argv, "--format", fmt)
        assert code == 0, fmt
        assert re.sub(r'"timestamp":"[^"]*"', '"timestamp":""', out, count=1) == text, fmt


def test_tables_are_last_and_hold_only_str_and_int(tmp_path):
    """Each command that declares a table returns it as its payload's last
    field, a list of tuples of the declared width whose cells are exactly
    str or int: the JSON writer splices the rows in at the report's end,
    and caches cell fragments by value, where 1, True and 1.0 would be one
    key."""
    zi = parse_ring_spec("Zi")
    zi_window = enumerate_window(zi, parse_window_params(zi, "B=3"))
    store_coloring(random_coloring(zi_window, 3, 4), tmp_path / "c.txt")
    runs = {
        ("scan",): [["--ring", "Z", "--window", "N=30", "--colors", "2", "--seed", "3", "--F", "0;t"],
                    ["--ring", "Zi", "--window", "B=3", "--colors", "3", "--coloring", str(tmp_path / "c.txt"),
                     "--F", "0;t", "--partial"],
                    ["--ring", "GF(3)[x]", "--window", "d=3", "--colors", "2", "--F", "t", "--limit", "0"]],
        ("abundance",): [["--ring", "Z", "--window", "N=30", "--colors", "2", "--seed", "3", "--F", "t"],
                         ["--ring", "Zi", "--window", "B=3", "--colors", "3", "--coloring",
                          str(tmp_path / "c.txt"), "--F", "0;t", "--y=1+1i"]],
    }
    assert set(runs) == {words for words, (_, _, table) in cli._COMMANDS.items() if table is not None}
    for words, argvs in runs.items():
        key, columns = cli._COMMANDS[words][2]
        parser, _ = cli._build_parser(words)
        for argv in argvs:
            status, payload = cli._HANDLERS[words[0]](parser.parse_args([*words, *argv]))
            assert list(payload)[-1] == key, argv
            assert all(type(row) is tuple and len(row) == len(columns) for row in payload[key]), argv
            assert {type(cell) for row in payload[key] for cell in row} <= {str, int}, argv
            assert payload[key] or "--limit" in argv, argv


# ---------------------------------------------------------------------------
# largeness


def test_syndetic_holds(capsys):
    code, report = run_json(
        capsys,
        "largeness", "syndetic", "--ring", "Z", "--window", "N=10",
        "--target", "evens", "--gaps", "{0,1}",
    )
    assert code == 0
    assert report["status"] == "holds"


def test_evens_names_itself_in_characteristic_2(capsys):
    code = dispatch(["largeness", "syndetic", "--ring", "GF(2)[x]", "--window", "d=3",
                     "--target", "evens", "--gaps", "{0}"])
    assert code == 2
    assert capsys.readouterr().err == "error: evens is ideal(2), and 2 = 0 in GF(2)[x]\n"


def test_syndetic_refuted(capsys):
    code, report = run_json(
        capsys,
        "largeness", "syndetic", "--ring", "Z", "--window", "N=10",
        "--target", "{1,2,3,4,5}", "--gaps", "{0}",
    )
    assert code == 1
    assert report["payload"]["counterexample"] == "6"


def test_ps_witness_found(capsys):
    code, report = run_json(
        capsys,
        "largeness", "ps-witness", "--ring", "Z", "--window", "N=30",
        "--target", "evens", "--gaps", "{0,1}", "--block", "{1,2,3,4,5}",
    )
    assert code == 0
    assert report["payload"]["anchor"] == "1"


def test_ps_witness_not_found(capsys):
    code, report = run_json(
        capsys,
        "largeness", "ps-witness", "--ring", "Z", "--window", "N=30",
        "--target", "{10,11,12,13,14,15}", "--gaps", "{0,1}",
        "--block", "{1,2,3,4,5,6,7,8,9,10}",
    )
    assert code == 1
    assert report["status"] == "not_found"


def test_ipstar_counterexample(capsys):
    odds = "{" + ",".join(str(v) for v in range(1, 100, 2)) + "}"
    code, report = run_json(
        capsys,
        "largeness", "ipstar", "--ring", "Z", "--window", "N=100",
        "--target", odds, "--len", "1", "--samples", "5", "--seed", "0",
    )
    assert code == 0
    assert report["status"] == "counterexample"
    assert report["payload"]["sequence"] == ["36"]


def test_ipstar_none_found(capsys):
    code, report = run_json(
        capsys,
        "largeness", "ipstar", "--ring", "Z", "--window", "N=100",
        "--target-window", "N=300,signed", "--target", "ideal(3)",
        "--len", "3", "--samples", "50", "--seed", "1",
    )
    assert code == 1
    assert report["status"] == "none_found"


def test_transport_dilate(capsys):
    code, report = run_json(
        capsys,
        "largeness", "transport", "--ring", "Z", "--window", "N=30",
        "--mode", "dilate", "--gaps", "{0,1}", "--block", "{1,2,3,4,5}",
        "--anchor", "1", "--by", "3", "--target", "evens",
    )
    assert code == 0
    assert report["payload"]["valid_before"] is True
    assert report["payload"]["valid_after"] is True
    assert report["payload"]["anchor"] == "3"
    assert report["payload"]["block"] == ["12", "15", "3", "6", "9"]


def test_transport_divide_round_trip(capsys):
    code, report = run_json(
        capsys,
        "largeness", "transport", "--ring", "Z", "--window", "N=90",
        "--mode", "divide", "--gaps", "{0,3}", "--block", "{3,6,9,12,15}",
        "--anchor", "3", "--by", "3",
    )
    assert code == 0
    assert report["payload"]["anchor"] == "1"
    assert report["payload"]["gaps"] == ["0", "1"]


def test_transport_not_divisible(capsys):
    code, report = run_json(
        capsys,
        "largeness", "transport", "--ring", "Z", "--window", "N=30",
        "--mode", "divide", "--gaps", "{1}", "--block", "{2}",
        "--anchor", "2", "--by", "2",
    )
    assert code == 1
    assert report["status"] == "not_divisible"


def test_transport_target_not_divisible(capsys):
    # the witness divides by 3, but not every even number does
    code, report = run_json(
        capsys,
        "largeness", "transport", "--ring", "Z", "--window", "N=30",
        "--mode", "divide", "--gaps", "{0,3}", "--block", "{3,6}",
        "--anchor", "3", "--by", "3", "--target", "evens",
    )
    assert code == 0
    assert report["payload"] == {"mode": "divide", "by": "3", "valid_before": True, "gaps": ["0", "1"],
                                 "block": ["1", "2"], "anchor": "1", "valid_after": None}


# ---------------------------------------------------------------------------
# hj / sigma


def test_hj_found(capsys):
    code, report = run_json(capsys, "hj", "--colors", "2", "--alphabet", "2", "--maxN", "3")
    assert code == 0
    assert report["payload"]["N"] == 2
    assert report["payload"]["status"] == "found"
    lib = hj_number_exhaustive(2, 2, 3)
    assert report["payload"]["r"] == lib.r and report["payload"]["N"] == lib.n


def test_hj_not_found_reports_avoider(capsys):
    code, report = run_json(capsys, "hj", "--colors", "2", "--alphabet", "3", "--maxN", "1")
    assert code == 1
    assert report["payload"]["status"] == "not_found_within"
    assert len(set(report["payload"]["avoiding_coloring"])) > 1


def test_hj_work_cap(capsys):
    code, report = run_json(
        capsys, "hj", "--colors", "2", "--alphabet", "3", "--maxN", "3",
        "--work-cap", "2",
    )
    assert code == 1
    assert report["status"] == "work_cap_exceeded"
    # side 1 needs two decisions, side 2 eight: N is the side that hit the cap
    assert report["payload"] == {"r": 2, "t": 3, "N": 2, "status": "work_cap_exceeded"}
    # [2]^1 and the forced [2]^2 need one decision each
    code, report = run_json(
        capsys, "hj", "--colors", "2", "--alphabet", "2", "--maxN", "3",
        "--work-cap", "1",
    )
    assert code == 0
    assert report["payload"] == {"r": 2, "t": 2, "N": 2, "status": "found"}


def test_hj_default_cap_searches_the_3_cube(capsys):
    # the cap counts decisions made, not the r^(t^n) worst case
    code, report = run_json(capsys, "hj", "--colors", "2", "--alphabet", "3", "--maxN", "3")
    assert code == 1
    assert report["status"] == "not_found_within" and report["payload"]["N"] == 3
    code, capped = run_json(capsys, "hj", "--colors", "2", "--alphabet", "3", "--maxN", "3",
                            "--work-cap", str(10**10))
    assert code == 1
    assert report["payload"] == capped["payload"]


def test_sigma_all_ok(capsys):
    code, report = run_json(
        capsys,
        "sigma", "--ring", "GF(3)[x]", "--window", "d=2", "--F", "t^3+2t",
        "--n", "2", "--trials", "20", "--seed", "5",
    )
    assert code == 0
    assert report["payload"]["all_ok"] is True
    assert report["payload"]["checks"] == 20


# ---------------------------------------------------------------------------
# search


def test_search_avoid_found(capsys, tmp_path):
    save = tmp_path / "avoid.txt"
    code, report = run_json(
        capsys,
        "search", "avoid", "--ring", "Z", "--window", "N=4", "--colors", "2",
        "--F", "t", "--save-coloring", str(save),
    )
    assert code == 0
    assert report["status"] == "avoidance_found"
    stored = load_coloring(save)
    assert list(stored.colors) == report["payload"]["coloring"]


def test_search_avoid_forced(capsys):
    code, report = run_json(
        capsys,
        "search", "avoid", "--ring", "Z", "--window", "N=8", "--colors", "2",
        "--F", "t",
    )
    assert code == 1
    assert report["status"] == "forced"


def test_search_avoid_budget_timeout(capsys, monkeypatch):
    monkeypatch.setenv("MONOCHROME_BUDGET", "0")
    code, report = run_json(
        capsys,
        "search", "avoid", "--ring", "Z", "--window", "N=6", "--colors", "2",
        "--F", "t",
    )
    assert code == 1
    assert report["status"] == "timeout"


@pytest.mark.parametrize("argv, env", [
    (("search", "avoid", "--ring", "Z", "--window", "N=6", "--colors", "2", "--F", "t",
      "--budget", "-3"), None),
    (("hj", "--colors", "2", "--alphabet", "2", "--maxN", "3", "--work-cap", "-1"), None),
    (("search", "moreira", "--colors", "2", "--F", "t", "--maxN", "20", "--budget", "-1"), None),
    (("search", "avoid", "--ring", "Z", "--window", "N=6", "--colors", "2", "--F", "t"), "-1"),
    (("hj", "--colors", "2", "--alphabet", "2", "--maxN", "3"), "-1"),
    (("search", "moreira", "--colors", "2", "--F", "t", "--maxN", "20"), "-1"),
], ids=["avoid", "hj", "moreira", "avoid-env", "hj-env", "moreira-env"])
def test_negative_budget_is_a_usage_error(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("MONOCHROME_BUDGET", env)
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "budget must be >= 0" in captured.err


def test_search_moreira_crosscheck(capsys):
    """Each side is checked exactly as a fresh build's instance."""
    for ring, family, threshold in (("Z", "t", 8), ("GF(2)[x]", "t", 3), ("Zi", "0;3t", 4)):
        code, report = run_json(
            capsys,
            "search", "moreira", "--ring", ring, "--colors", "2", "--F", family, "--maxN", "64",
            "--crosscheck",
        )
        assert code == 0
        payload = report["payload"]
        assert payload["ring"] == ring and payload["N"] == threshold
        assert payload["crosscheck"]["below"]["agree"] is True
        assert payload["crosscheck"]["at"]["agree"] is True
        spec = parse_ring_spec(ring)
        fresh = {side: dual_engine_check(build_instance(enumerate_window(spec, WindowParams(n)), 2,
                                                        parse_family(spec, family)))
                 for side, n in (("below", threshold - 1), ("at", threshold))}
        assert payload["crosscheck"] == json.loads(json.dumps(fresh)), ring


@pytest.mark.parametrize("ring, threshold", [("GF(2)[x]", 3), ("Zi", 2)])
def test_search_moreira_over_other_rings(capsys, ring, threshold):
    code, report = run_json(
        capsys, "search", "moreira", "--ring", ring, "--colors", "2", "--F", "t", "--maxN", "8",
        "--crosscheck",
    )
    assert code == 0
    payload = report["payload"]
    assert payload["ring"] == ring and payload["N"] == threshold
    assert payload["crosscheck"]["below"]["backtrack"] == "avoidance_found"
    assert payload["crosscheck"]["at"]["backtrack"] == "forced"
    assert payload["crosscheck"]["below"]["agree"] is True and payload["crosscheck"]["at"]["agree"] is True



def test_search_moreira_crosscheck_keeps_the_least_zi_box(capsys):
    # one color: B=1 is forced, B=0 = {0} is avoidable and is the below side
    code, report = run_json(
        capsys, "search", "moreira", "--ring", "Zi", "--colors", "1", "--F", "t", "--maxN", "4",
        "--crosscheck",
    )
    assert code == 0
    payload = report["payload"]
    assert payload["N"] == 1
    assert payload["trace"] == [{"N": 1, "status": "forced"}, {"N": 0, "status": "avoidance_found"}]
    below, at = payload["crosscheck"]["below"], payload["crosscheck"]["at"]
    assert (below["backtrack"], below["vars"], below["agree"]) == ("avoidance_found", 1, True)
    assert (at["backtrack"], at["agree"]) == ("forced", True)


def test_search_moreira_csv_holds_the_answer(capsys):
    """search moreira prints under --format csv one row of the report's
    scalars, the least forced N and the payload's status among them."""
    argv = ["search", "moreira", "--colors", "2", "--F", "t", "--maxN", "20"]
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, row = csv.reader(out.splitlines())
    cells = dict(zip(header, row))
    assert (cells["status"], cells["payload.status"], cells["N"]) == ("found", "found", "8")
    assert header == ["command", "timestamp", "status", "ring", "colors", "family", "maxN",
                      "payload.status", "N"]


def test_search_moreira_not_found(capsys):
    code, report = run_json(
        capsys, "search", "moreira", "--colors", "2", "--F", "t", "--maxN", "5",
    )
    assert code == 1
    assert report["status"] == "not_found_within"


# ---------------------------------------------------------------------------
# cnf


def test_cnf_export_file(capsys, tmp_path):
    out = tmp_path / "inst.cnf"
    code, report = run_json(
        capsys,
        "cnf", "export", "--ring", "Z", "--window", "N=3", "--colors", "2",
        "--F", "t", "-o", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert "p cnf 6 8" in text
    assert text.startswith("c map 1 0\n")
    assert report["payload"]["vars"] == 6
    assert report["payload"]["clauses"] == 8


def test_cnf_export_destinations(capsys, tmp_path):
    """Without -o the DIMACS text is all of stdout; with -o the CNF goes
    to the file and the report, in the chosen format, to stdout."""
    argv = ["cnf", "export", "--ring", "Z", "--window", "N=6", "--colors", "2", "--F", "t"]
    dimacs = to_dimacs(cnf_export(build_instance(
        enumerate_window(Z, WindowParams(6)), 2, parse_family(Z, "t"), ScanConstraints.defaults_for(Z))))
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == dimacs
    path = tmp_path / "inst.cnf"
    code, out = run(capsys, *argv, "-o", str(path), "--format", "text")
    assert code == 0
    assert path.read_text() == dimacs
    assert out.startswith("# cnf export\nstatus: ok\n")
    assert f"path: {path}\n" in out


def test_cnf_export_takes_format_only_with_output(capsys):
    """Without -o there is no report, so --format is a usage error, not
    a flag that is read and then ignored."""
    argv = ["cnf", "export", "--ring", "Z", "--window", "N=44", "--colors", "2", "--F", "0;3t"]
    for fmt in ("json", "text", "csv"):
        assert dispatch([*argv, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --format sets the report's form, and cnf export writes a report only with -o\n"


def test_cnf_decode_model_file(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("v 1 -2 -3 4 5 -6 0\n")
    code, report = run_json(
        capsys,
        "cnf", "decode", "--ring", "Z", "--window", "N=3", "--colors", "2",
        "--F", "t", "--model", str(model),
    )
    assert code == 0
    assert report["payload"]["colors"] == [1, 2, 1]
    assert report["payload"]["valid"] is True


def test_cnf_decode_invalid_model(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("v 1 2 -3 4 5 -6 0\n")  # element 1 carries two colors
    code, _ = run(
        capsys,
        "cnf", "decode", "--ring", "Z", "--window", "N=3", "--colors", "2",
        "--F", "t", "--model", str(model),
    )
    assert code == 2


def test_cnf_decode_monochromatic_model_is_an_input_error(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("v 1 -2 3 -4 5 -6 0\n")  # one color everywhere: {2, 3} monochromatic
    code, _ = run(
        capsys,
        "cnf", "decode", "--ring", "Z", "--window", "N=3", "--colors", "2",
        "--F", "t", "--model", str(model),
    )
    assert code == 2


def test_tripped_guard_exits_three(capsys, monkeypatch):
    import monochrome.search

    monkeypatch.setattr(monochrome.search, "_first_monochromatic", lambda colors, index_sets: 0)
    code = dispatch(["search", "avoid", "--ring", "Z", "--window", "N=7", "--colors", "2",
                     "--F", "t"])
    assert code == 3
    assert "internal error: backtracker guard tripped" in capsys.readouterr().err


def test_recursion_error_exits_three(capsys, monkeypatch):
    import monochrome.cli

    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(monochrome.cli, "avoidance_backtrack", overflow)
    code, _ = run(
        capsys,
        "search", "avoid", "--ring", "Z", "--window", "N=7", "--colors", "2", "--F", "t",
    )
    assert code == 3


def test_cyclic_report_exits_three(capsys, monkeypatch, tmp_path):
    """A report that contains itself is a fault of the package: exit 3,
    nothing written, not a usage error."""
    def cyclic(args):
        payload = {"count": 1}
        payload["self"] = payload
        payload["witnesses"] = []  # scan's table ends the payload
        return "ok", payload

    monkeypatch.setitem(cli._HANDLERS, "scan", cyclic)
    out = tmp_path / "report.json"
    for dest in ([], ["-o", str(out)]):
        code = dispatch(["scan", "--ring", "Z", "--window", "N=7", "--colors", "2",
                         "--F", "t", *dest])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("internal error:")
        assert captured.out == ""
        assert not out.exists()


def test_table_not_last_exits_three(capsys, monkeypatch):
    """A declared table must end its payload, where the JSON writer
    splices its rows in: a payload with a field after it is a fault of
    the package, exit 3 with nothing written, in every format."""
    def misordered(args):
        return "ok", {"witnesses": [("2", "3", 1)], "count": 1}

    monkeypatch.setitem(cli._HANDLERS, "scan", misordered)
    for fmt in ("json", "csv", "text"):
        code = dispatch(["scan", "--ring", "Z", "--window", "N=7", "--colors", "2", "--F", "t",
                         "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3, fmt
        assert captured.err == "internal error: scan: table 'witnesses' is not the payload's last field\n"
        assert captured.out == ""


# ---------------------------------------------------------------------------
# ufp


def test_ufp_verify_holds(capsys):
    code, report = run_json(
        capsys, "ufp", "verify", "--ring", "Z", "--elements", "2,3",
    )
    assert code == 0
    assert report["status"] == "holds"


def test_ufp_verify_violation(capsys):
    code, report = run_json(
        capsys, "ufp", "verify", "--ring", "Z", "--elements", "2,2",
    )
    assert code == 1
    assert report["payload"]["violation"]["product"] == "2"


def test_ufp_grow(capsys):
    code, report = run_json(
        capsys,
        "ufp", "grow", "--ring", "Z", "--window", "N=10000",
        "--start", "2", "--length", "10",
    )
    assert code == 0
    assert report["payload"]["sequence"] == [
        "2", "3", "4", "5", "7", "9", "11", "13", "16", "17",
    ]
    assert report["payload"]["products"] == 1023


def test_ufp_grow_pool_exhausted(capsys):
    code, report = run_json(
        capsys,
        "ufp", "grow", "--ring", "Z", "--window", "N=3",
        "--start", "2", "--length", "4",
    )
    assert code == 1
    assert report["status"] == "pool_exhausted"
    # the sequence reached, and the first step with no admissible element
    assert report["payload"] == {"length": 2, "sequence": ["2", "3"], "products": 3, "step": 3}


@pytest.mark.parametrize("ring,window,start", [("Z", "N=10", "2"), ("Zi", "B=2", "1+1i"),
                                               ("GF(2)[x]", "d=3", "x")])
def test_ufp_grow_products_is_the_recount(capsys, ring, window, start):
    """products, 2^length - 1, is the number of distinct products over
    the nonempty subsets of the sequence reported: at length 1, at the
    full length and where the pool runs out."""
    spec = parse_ring_spec(ring)
    statuses = []
    for length in (1, 4, 18):
        code, report = run_json(capsys, "ufp", "grow", "--ring", ring, "--window", window,
                                f"--start={start}", "--length", str(length))
        statuses.append(report["status"])
        seq = [parse_element(spec, e) for e in report["payload"]["sequence"]]
        products = {functools.reduce(operator.mul, subset)
                    for k in range(1, len(seq) + 1) for subset in itertools.combinations(seq, k)}
        assert report["payload"]["products"] == len(products), (length, report)
    assert statuses == ["ok", "ok", "pool_exhausted"]


# ---------------------------------------------------------------------------
# report merge


def test_report_merges_json_to_csv(capsys, tmp_path):
    """Compact reports and indented ones (the older JSON form) merge alike."""
    outs = []
    for n in (10, 20):
        code, out = run(
            capsys,
            "scan", "--ring", "Z", "--window", f"N={n}", "--colors", "2",
            "--seed", "7", "--F", "t",
        )
        assert code == 0
        outs.append(out)
    (tmp_path / "r0.json").write_text(outs[0])
    (tmp_path / "r1.json").write_text(outs[1])
    (tmp_path / "old.json").write_text(json.dumps(json.loads(outs[0]), indent=2) + "\n")

    def merged(*names):
        code, out = run(capsys, "report", *(str(tmp_path / name) for name in names))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("file,command,timestamp,status")
        assert len(lines) == 3
        return [line.split(",", 1)[1] for line in lines]  # without the file column

    compact = merged("r0.json", "r1.json")
    assert compact[1].startswith("scan,")
    assert merged("old.json", "r1.json") == compact


def test_report_names_colliding_payload_columns(capsys, tmp_path):
    """hj and search payloads carry a scalar status: its column is headed
    payload.status, beside the report's own status column."""
    for name, argv in (("h.json", ["hj", "--colors", "2", "--alphabet", "2", "--maxN", "3"]),
                       ("u.json", ["ufp", "grow", "--ring", "Z", "--window", "N=100", "--start", "2",
                                   "--length", "4"])):
        assert dispatch([*argv, "-o", str(tmp_path / name)]) == 0
    code, out = run(capsys, "report", str(tmp_path / "h.json"), str(tmp_path / "u.json"))
    assert code == 0
    header, hj_row, ufp_row = csv.reader(out.splitlines())
    assert header == ["file", "command", "timestamp", "status", "N", "length", "products", "r",
                      "payload.status", "t"]
    assert len(set(header)) == len(header)
    hj = json.loads((tmp_path / "h.json").read_text())
    assert hj_row[3] == hj["status"] and hj_row[8] == hj["payload"]["status"]
    assert ufp_row[1:4:2] == ["ufp grow", "ok"] and ufp_row[8] == ""


def test_report_rejects_non_report_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for text in ("{}", '"command timestamp status payload"', "null",
                 '{"command": "scan", "timestamp": "t", "status": "ok", "payload": 5}',
                 "[" * 100000 + "]" * 100000):
        bad.write_text(text)
        assert dispatch(["report", str(bad)]) == 2, text[:80]
        assert capsys.readouterr().err.startswith(f"error: {bad}: "), text[:80]


# fixed reports, written by hand in the CLI's forms (one indented), covering a
# payload status, an empty table, a nested value in a scalar column, a null,
# a false, CSV quoting and an escaped non-ASCII text
REPORT_INPUTS = {
    "scan.json": '{"command":"scan","timestamp":"2026-01-02T03:04:05Z","status":"ok","payload":'
                 '{"ring":"Z","window":"N=3","colors":2,"family":"t","seed":1,"count":0,"witnesses":[]}}',
    "hj.json": '{"command":"hj","timestamp":"2026-01-02T03:04:06Z","status":"work_cap_exceeded","payload":'
               '{"error":"search for t^n=9, r=2 needs more than 5 decisions"}}',
    "hj22.json": '{"command":"hj","timestamp":"2026-01-02T03:04:07Z","status":"found","payload":'
                 '{"r":2,"t":2,"N":2,"status":"found"}}',
    "decode.json": '{"command":"cnf decode","timestamp":"2026-01-02T03:04:08Z","status":"ok","payload":'
                   '{"colors":[1,2,1],"valid":true}}',
    "ipstar.json": '{\n  "command": "largeness ipstar",\n  "timestamp": "2026-01-02T03:04:09Z",\n'
                   '  "status": "none_found",\n  "payload": {"seq_len": 3, "samples": 50, "seed": 1,'
                   ' "found": false, "sequence": null}\n}\n',
    "moreira.json": '{"command":"search moreira","timestamp":"2026-01-02T03:04:10Z","status":"found",'
                    '"payload":{"ring":"Zi","colors":2,"family":"t","maxN":3,"status":"found","N":2,'
                    '"trace":[{"N":1,"status":"avoidance_found"},{"N":2,"status":"forced"}]}}',
    "syndetic.json": '{"command":"largeness syndetic","timestamp":"2026-01-02T03:04:11Z","status":"refuted",'
                     '"payload":{"holds":false,"counterexample":"caf\\u00e9 \\"7\\""}}',
}

REPORT_CSV = (
    "file,command,timestamp,status,N,colors,count,counterexample,error,family,found,holds,maxN,r,ring,"
    "samples,seed,seq_len,sequence,payload.status,t,valid,window\n"
    "scan.json,scan,2026-01-02T03:04:05Z,ok,,2,0,,,t,,,,,Z,,1,,,,,,N=3\n"
    'hj.json,hj,2026-01-02T03:04:06Z,work_cap_exceeded,,,,,"search for t^n=9, r=2 needs more than 5 '
    'decisions",,,,,,,,,,,,,,\n'
    "hj22.json,hj,2026-01-02T03:04:07Z,found,2,,,,,,,,,2,,,,,,found,2,,\n"
    'decode.json,cnf decode,2026-01-02T03:04:08Z,ok,,"[1,2,1]",,,,,,,,,,,,,,,,True,\n'
    "ipstar.json,largeness ipstar,2026-01-02T03:04:09Z,none_found,,,,,,,False,,,,,50,1,3,None,,,,\n"
    "moreira.json,search moreira,2026-01-02T03:04:10Z,found,2,2,,,,t,,,3,,Zi,,,,,found,,,\n"
    'syndetic.json,largeness syndetic,2026-01-02T03:04:11Z,refuted,,,,"caf\u00e9 ""7""",,,,False,,,,,,,,,,,\n'
)


def test_report_of_fixed_reports_is_stable(capsys, tmp_path, monkeypatch):
    """report over fixed input files prints the same bytes to stdout and to -o."""
    monkeypatch.chdir(tmp_path)
    for name, text in REPORT_INPUTS.items():
        pathlib.Path(name).write_text(text, encoding="utf-8")
    assert run(capsys, "report", *REPORT_INPUTS) == (0, REPORT_CSV)
    assert dispatch(["report", *REPORT_INPUTS, "-o", "summary.csv"]) == 0
    assert pathlib.Path("summary.csv").read_text(encoding="utf-8") == REPORT_CSV


def test_json_report_is_one_compact_line(capsys, tmp_path):
    save = tmp_path / "caf\u00e9.txt"
    code, out = run(
        capsys,
        "search", "avoid", "--ring", "Z", "--window", "N=4", "--colors", "2",
        "--F", "t", "--save-coloring", str(save),
    )
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    report = json.loads(out)
    assert out == json.dumps(report, separators=(",", ":")) + "\n"
    assert list(report) == ["command", "timestamp", "status", "payload"]
    assert report["payload"]["coloring_file"] == str(save)
    assert "\\u00e9" in out and "\u00e9" not in out


def test_cli_json_form_stated_once():
    """Reports and nested text values share one encoder call, cli._json."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    users = {
        node.name if isinstance(node, ast.FunctionDef) else f"line {node.lineno}"
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == "dumps"
    }
    assert users == {"_json"}


# ---------------------------------------------------------------------------
# config and errors


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("ring = Z\nwindow = N=50\ncolors = 2\nseed = 7\nF = t\n")
    # --conf is argparse's abbreviation of --config: it loads the file too
    for argv in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)], [f"--conf={cfg}"]):
        code, report = run_json(capsys, "scan", *argv)
        assert code == 0, argv
        assert report["payload"]["count"] == 83, argv


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("ring = Z\nwindow = N=50\ncolors = 2\nseed = 7\nF = t\n")
    code, report = run_json(capsys, "scan", "--config", str(cfg), "--seed", "8")
    assert code == 0
    assert report["payload"]["seed"] == 8
    assert report["payload"]["count"] != 83 or report["payload"]["seed"] == 8
    # an explicit store-true flag beats a false config entry
    cfg.write_text("ring = Z\nwindow = N=20\ncolors = 2\nseed = 7\nF = t\npartial = no\n")
    flags = ["--ring", "Z", "--window", "N=20", "--colors", "2", "--seed", "7", "--F", "t"]
    for extra in ([], ["--partial"]):
        code, report = run_json(capsys, "scan", "--config", str(cfg), *extra)
        assert code == 0
        assert report["payload"] == run_json(capsys, "scan", *flags, *extra)[1]["payload"], extra


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    # help and config are flags but no config keys; abbreviations such as col are not keys
    for key in ("banana", "jobs", "help", "config", "col"):
        cfg.write_text(f"ring = Z\n{key} = 3\n")
        code = dispatch(["scan", "--config", str(cfg), "--window", "N=5", "--colors", "2", "--F", "t"])
        assert code == 2, key
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n", key


def test_config_values_checked_like_flags(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    good = {"ring": "Z", "window": "N=10", "colors": "2", "F": "t"}
    # values are argparse's to check, so its messages name the flag
    for key, value, message in (
            ("format", "xml", "argument --format: invalid choice: 'xml'"),
            ("colors", "two", "argument --colors: invalid integer value: 'two'"),
            ("colors", "２", "argument --colors: invalid integer value"),
            ("colors", "1_0", "argument --colors: invalid integer value"),
            ("colors", "\u30002", "argument --colors: invalid integer value"),
            ("allow-degenerate", "maybe", "config key allow_degenerate: expected a boolean, got 'maybe'")):
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**good, key: value}.items()))
        assert dispatch(["scan", "--config", str(cfg)]) == 2, key
        assert message in capsys.readouterr().err, key
    good.update({"format": "text", "allow-degenerate": "yes"})
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in good.items()))
    code, out = run(capsys, "scan", "--config", str(cfg))
    assert code == 0
    assert out.startswith("# scan\n")
    # keys may spell - as _; a false store-true entry leaves the flag unset
    cfg.write_text("ring = Z\nwindow = N=10\ncolors = 2\nF = t\nexclude_y = {0,1,2}\nallow_degenerate = no\n")
    flags = ["--ring", "Z", "--window", "N=10", "--colors", "2", "--F", "t", "--exclude-y", "{0,1,2}"]
    code, report = run_json(capsys, "scan", "--config", str(cfg))
    assert code == 0
    assert report["payload"] == run_json(capsys, "scan", *flags)[1]["payload"]


def test_config_supplies_required_flags(capsys, tmp_path):
    cfg = tmp_path / "hj.cfg"
    cfg.write_text("colors = 2\nalphabet = 2\nmaxN = 3\n")
    for flag in ("--config", "--conf"):
        code, report = run_json(capsys, "hj", flag, str(cfg))
        assert code == 0, flag
        assert report["payload"]["N"] == 2, flag
    code, report = run_json(capsys, "hj", "--config", str(cfg), "--maxN", "1")
    assert code == 1 and report["payload"]["N"] == 1  # the flag still wins


def test_missing_required_flag_exits_two(capsys, tmp_path):
    assert dispatch(["hj", "--colors", "2", "--alphabet", "2"]) == 2
    assert "the following arguments are required: --maxN" in capsys.readouterr().err
    cfg = tmp_path / "hj.cfg"
    cfg.write_text("colors = 2\n")
    assert dispatch(["hj", "--config", str(cfg)]) == 2
    assert "the following arguments are required: --alphabet, --maxN" in capsys.readouterr().err
    # --window, --colors and --F follow the same rule: every missing flag at once, with usage
    assert dispatch(["scan", "--ring", "Z", "--F", "t"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: monochrome scan")
    assert "the following arguments are required: --window, --colors" in err
    assert dispatch(["scan", "--help"]) == 0
    assert "--window WINDOW --colors COLORS --F F" in " ".join(capsys.readouterr().out.split())


# Every README command and every command of the benchmark's toolkit workload
# (report aside: it takes no --config), in the order that makes each input file
# (avoid.txt, model.txt) exist before a command reads it.
GOLDEN_COMMANDS = [
    ["scan", "--ring", "Z", "--window", "N=50", "--colors", "2", "--seed", "7", "--F", "t"],
    ["abundance", "--ring", "Z", "--window", "N=50", "--colors", "2", "--seed", "7", "--F", "t",
     "--y", "2", "--format", "csv"],
    ["abundance", "--ring", "Z", "--window", "N=30", "--colors", "2", "--seed", "3", "--F", "t",
     "--y", "5", "--partial"],
    ["largeness", "syndetic", "--ring", "Z", "--window", "N=10", "--target", "evens", "--gaps", "{0,1}"],
    ["largeness", "ps-witness", "--ring", "Z", "--window", "N=30", "--target", "evens",
     "--gaps", "{0,1}", "--block", "{1,2,3,4,5}"],
    ["largeness", "ipstar", "--ring", "Z", "--window", "N=100", "--target-window", "N=300,signed",
     "--target", "ideal(3)", "--len", "3", "--samples", "50", "--seed", "1"],
    ["largeness", "transport", "--ring", "Z", "--window", "N=30", "--mode", "dilate",
     "--gaps", "{0,1}", "--block", "{1,2,3,4,5}", "--anchor", "1", "--by", "3", "--target", "evens"],
    ["hj", "--colors", "2", "--alphabet", "2", "--maxN", "3", "--format", "text"],
    ["sigma", "--ring", "GF(2)[x]", "--window", "d=3", "--F", "t^2+t", "--n", "2", "--trials", "100",
     "--seed", "0"],
    ["search", "avoid", "--ring", "Z", "--window", "N=7", "--colors", "2", "--F", "t",
     "--save-coloring", "avoid7.txt"],
    ["search", "moreira", "--colors", "2", "--F", "t", "--maxN", "20", "--crosscheck"],
    ["cnf", "export", "--ring", "Z", "--window", "N=3", "--colors", "2", "--F", "t", "-o", "inst.cnf"],
    ["cnf", "decode", "--ring", "Z", "--window", "N=3", "--colors", "2", "--F", "t", "--model", "model.txt"],
    ["ufp", "verify", "--ring", "Z", "--elements", "2,3,4"],
    ["ufp", "grow", "--ring", "Z", "--window", "N=10000", "--start", "2", "--length", "10"],
    ["scan", "--ring", "Z", "--window", "N=200", "--colors", "2", "--seed", "0", "--F", "0;t",
     "--partial", "-o", "scan_partial.json"],
    ["abundance", "--ring", "Z", "--window", "N=150", "--colors", "2", "--seed", "1", "--F", "t",
     "--format", "csv", "-o", "abundance.csv"],
    ["largeness", "syndetic", "--ring", "Z", "--window", "N=2000", "--target", "evens",
     "--gaps", "{0,1}", "-o", "syndetic.json"],
    ["largeness", "ps-witness", "--ring", "Z", "--window", "N=2000", "--target", "ideal(3)",
     "--gaps", "{0,1}", "--block", "{1,2,3,4,5}", "-o", "ps_witness.json"],
    ["largeness", "ipstar", "--ring", "Z", "--window", "N=100", "--target-window", "N=600,signed",
     "--target", "evens", "--len", "4", "--samples", "400", "--seed", "0", "-o", "ipstar.json"],
    ["largeness", "transport", "--ring", "Z", "--window", "N=2000", "--mode", "dilate",
     "--gaps", "{0,1}", "--block", "{1,2,3,4,5}", "--anchor", "1", "--by", "3", "--target", "evens",
     "-o", "transport.json"],
    ["hj", "--colors", "2", "--alphabet", "3", "--maxN", "3", "--work-cap", "10000000000",
     "-o", "hj23.json"],
    ["sigma", "--ring", "GF(2)[x]", "--window", "d=3", "--F", "t^2+t", "--n", "2", "--trials", "200",
     "--seed", "0", "-o", "sigma.json"],
    ["ufp", "verify", "--ring", "Z", "--elements", "2,3,5,7,11,13,17,19,23,29,31,37",
     "-o", "ufp_verify.json"],
    ["search", "avoid", "--ring", "Z", "--window", "N=44", "--colors", "2", "--F", "0;3t",
     "--save-coloring", "avoid.txt", "-o", "avoid.json"],
    ["scan", "--coloring", "avoid.txt", "--ring", "Z", "--window", "N=44", "--colors", "2",
     "--F", "0;3t", "-o", "scan_coloring.json"],
    ["cnf", "export", "--ring", "Z", "--window", "N=44", "--colors", "2", "--F", "0;3t"],
]


def test_config_file_gives_the_flags_answer(capsys, tmp_path, monkeypatch):
    """Each command's flags written to a config file give the same exit code,
    report and written files as the flags, also when the config holds a
    different value for the first flag and the flag itself is given."""

    def config_lines(flags, first=False):
        lines, i = [], 0
        while i < len(flags):
            key = {"-o": "output"}.get(flags[i], flags[i].lstrip("-"))
            if i + 1 < len(flags) and not flags[i + 1].startswith("-"):
                lines.append(f"{key} = {'99' if i == 0 and first else flags[i + 1]}\n")
                i += 2
            else:
                lines.append(f"{key} = yes\n")
                i += 1
        return "".join(lines)

    def outcome(argv):
        code, out = run(capsys, *argv)
        files = {p.name: p.read_text() for p in sorted(pathlib.Path().iterdir())}
        return code, *(re.sub(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", "", text) for text in (out, str(files)))

    for mode in ("flags", "config", "config+flag"):
        (tmp_path / mode).mkdir()
    cfg = tmp_path / "command.cfg"
    for argv in GOLDEN_COMMANDS:
        words = argv[:2] if argv[0] in ("largeness", "search", "cnf", "ufp") else argv[:1]
        flags = argv[len(words):]
        results = {}
        for mode in ("flags", "config", "config+flag"):
            monkeypatch.chdir(tmp_path / mode)
            pathlib.Path("model.txt").write_text("v 1 -2 -3 4 5 -6 0\n")
            if mode == "flags":
                results[mode] = outcome(argv)
                continue
            cfg.write_text(config_lines(flags, first=mode == "config+flag"))
            explicit = flags[:2] if mode == "config+flag" else []
            results[mode] = outcome([*words, "--config", str(cfg), *explicit])
        assert results["config"] == results["flags"], argv
        assert results["config+flag"] == results["flags"], argv


def test_csv_and_text_never_repeat_a_column(capsys, tmp_path, monkeypatch):
    """Under --format csv and text, no report of GOLDEN_COMMANDS repeats a
    CSV header cell or a text key: a payload field named like a report
    field is headed payload.<key>."""
    monkeypatch.chdir(tmp_path)
    pathlib.Path("model.txt").write_text("v 1 -2 -3 4 5 -6 0\n")
    seen = set()
    for argv in GOLDEN_COMMANDS:
        if argv[:2] == ["cnf", "export"] and "-o" not in argv:
            continue  # raw DIMACS, no report
        for fmt in ("csv", "text"):
            code, out = run(capsys, *argv, "--format", fmt)  # the last --format wins
            assert code in (0, 1), argv
            if "-o" in argv and argv[0] != "cnf":
                out = pathlib.Path(argv[argv.index("-o") + 1]).read_text()
            if fmt == "csv":
                names = next(csv.reader(out.splitlines()))
            else:
                names = [line.split(":", 1)[0] for line in out.splitlines()[1:] if not line.startswith("  ")]
            assert names and len(names) == len(set(names)), (argv, fmt, names)
            seen.update(names)
    assert "payload.status" in seen


def test_empty_value_is_an_error(capsys, tmp_path, monkeypatch):
    """An empty value is a bad value, never a missing flag."""
    monkeypatch.chdir(tmp_path)
    problem = ["--ring", "Z", "--window", "N=7", "--colors", "2", "--F", "t"]  # avoidable: avoid saves
    for argv in (["scan", *problem, "--ring", ""],
                 ["scan", *problem, "--coloring", "", "--seed", "1"],
                 ["scan", *problem, "--coloring", ""],
                 ["scan", *problem, "-o", ""],
                 ["scan", *problem, "--config", ""],
                 ["scan", *problem, "--config="],
                 ["search", "avoid", *problem, "--save-coloring", ""],
                 ["cnf", "export", *problem, "-o", ""],
                 ["largeness", "ipstar", "--ring", "Z", "--window", "N=10", "--target-window", "",
                  "--target", "evens", "--len", "2", "--samples", "3"]):
        assert dispatch(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv
    assert list(tmp_path.iterdir()) == []


def test_stray_runtime_error_exits_three(capsys, monkeypatch):
    """Only input errors exit 2: any other RuntimeError is a fault of the package."""

    def fault(args):
        raise RuntimeError("unexpected state")

    monkeypatch.setitem(cli._HANDLERS, "hj", fault)
    assert dispatch(["hj", "--colors", "2", "--alphabet", "2", "--maxN", "3"]) == 3
    assert capsys.readouterr().err == "internal error: unexpected state\n"


def test_config_missing_file(capsys):
    code, _ = run(
        capsys, "scan", "--config", "/nonexistent.cfg", "--ring", "Z",
        "--window", "N=5", "--colors", "2", "--F", "t",
    )
    assert code == 2
    # --co abbreviates --colors and --config of hj alike, so it names no file
    assert dispatch(["hj", "--co", "/nonexistent.cfg", "--alphabet", "2", "--maxN", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: monochrome hj")
    assert err.endswith("error: ambiguous option: --co could match --colors, --config\n")
    assert dispatch(["hj", "--conf", "/nonexistent.cfg", "--alphabet", "2", "--maxN", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config /nonexistent.cfg")


def test_usage_errors_exit_two(capsys, monkeypatch):
    assert run(capsys, "scan", "--ring", "Q", "--window", "N=5", "--colors", "2", "--F", "t")[0] == 2
    assert run(capsys, "scan", "--ring", "Z", "--window", "B=5", "--colors", "2", "--F", "t")[0] == 2
    assert run(capsys, "scan", "--ring", "Z", "--window", "N=5", "--colors", "2", "--F", "t+1")[0] == 2
    for group in ("largeness", "search", "cnf", "ufp"):
        assert dispatch([group]) == 2, group
        assert "error: the following arguments are required" in capsys.readouterr().err
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "scan", "--ring", "Z", "--window", "N=10", "--colors", "2",
               "--seed", "1", "--F", "t", "--jobs", "4")[0] == 2
    # integer flags take ASCII decimals only, as every literal does
    for flag, value in (("--colors", "２"), ("--seed", "1_0"), ("--limit", "٣"), ("--colors", "2.0")):
        flags = {"--colors": "2", "--seed": "1", flag: value}
        argv = ["scan", "--ring", "Z", "--window", "N=10", "--F", "t"]
        assert dispatch(argv + [tok for item in flags.items() for tok in item]) == 2, (flag, value)
        assert f"argument {flag}: invalid integer value: {value!r}" in capsys.readouterr().err
    assert run(capsys, "hj", "--colors", "2", "--alphabet", "2", "--maxN", "３")[0] == 2
    # negative counts are input errors; zero stays valid
    for argv, zero in ((["sigma", "--ring", "Z", "--window", "N=5", "--F", "t", "--trials"], 0),
                       (["largeness", "ipstar", "--ring", "Z", "--window", "N=10", "--target", "evens",
                         "--len", "2", "--samples"], 1),
                       (["scan", "--ring", "Z", "--window", "N=10", "--colors", "2", "--F", "t",
                         "--limit"], 0)):
        assert dispatch(argv + ["-3"]) == 2, argv
        assert "must be >= 0, got -3" in capsys.readouterr().err
        assert run(capsys, *argv, "0")[0] == zero, argv
    # literals take ASCII whitespace only, as integer flags do: U+3000 is an error
    for flag, value in (("--ring", "\u3000Z"), ("--window", "N=\u30005"), ("--F", "\u3000t"),
                        ("--F", "t;\u3000t^2"), ("--exclude-y", "{1,\u30002}")):
        flags = {"--ring": "Z", "--window": "N=5", "--colors": "2", "--F": "t", flag: value}
        assert dispatch(["scan"] + [tok for item in flags.items() for tok in item]) == 2, (flag, value)
    assert run(capsys, "ufp", "verify", "--ring", "Z", "--elements", "2,\u30003")[0] == 2
    assert run(capsys, "ufp", "verify", "--ring", "Z", "--elements", " 2 ,\t3")[0] == 0
    assert run(capsys, "search", "moreira", "--colors", "2", "--F", "t", "--maxN", " 20 ")[0] == 0
    for env in ("1_0", "１０", " 1 0"):
        monkeypatch.setenv("MONOCHROME_BUDGET", env)
        assert dispatch(["search", "avoid", "--ring", "Z", "--window", "N=6", "--colors", "2",
                         "--F", "t"]) == 2, env
        assert "$MONOCHROME_BUDGET must be an integer" in capsys.readouterr().err


def test_text_format(capsys):
    code, out = run(
        capsys,
        "hj", "--colors", "2", "--alphabet", "2", "--maxN", "3",
        "--format", "text",
    )
    assert code == 0
    assert out.startswith("# hj\n")
    assert "status: found" in out


def test_only_dispatch_emits():
    """Handlers return (status, payload); dispatch alone hands it to _emit,
    so the report shape and the exit-code rule live in one place."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    users = {
        node.name if isinstance(node, ast.FunctionDef) else f"line {node.lineno}"
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and sub.id == "_emit"
    }
    assert users == {"dispatch"}


# ---------------------------------------------------------------------------
# parser path


LEAF_WORDS = [
    ["scan"], ["abundance"], ["largeness", "syndetic"], ["largeness", "ps-witness"],
    ["largeness", "ipstar"], ["largeness", "transport"], ["hj"], ["sigma"], ["search", "avoid"],
    ["search", "moreira"], ["cnf", "export"], ["cnf", "decode"], ["ufp", "verify"], ["ufp", "grow"],
    ["report"],
]


def test_dispatch_matches_the_full_tree(capsys, monkeypatch, tmp_path):
    """dispatch builds only the parsers on argv's path, yet every help,
    usage and error text and exit code equals that of the whole tree."""
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.chdir(tmp_path)
    pathlib.Path("bad.cfg").write_text("nosuch = 1\n")
    corpus = [[*words, "--help"] for words in LEAF_WORDS]
    corpus += [[group, "-h"] for group in ("largeness", "search", "cnf", "ufp")]
    corpus += [["-h"], [], ["frobnicate"], ["largeness"], ["search", "nope"], ["-h", "scan"],
               ["scan", "--jobs", "4"], ["hj", "--colors", "2"], ["search", "avoid"],
               ["scan", "--ring", "Z", "--window", "N=5", "--colors", "x", "--F", "t"],
               ["scan", "--config", "bad.cfg"], ["largeness", "ipstar", "--config", "bad.cfg"],
               ["hj", "--co", "missing.cfg"], ["hj", "--config"]]

    def outcomes():
        results = []
        for argv in corpus:
            code = dispatch(list(argv))
            results.append((code, *capsys.readouterr()))
        return results

    path_only = outcomes()
    full_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda words=None: full_parser())
    assert path_only == outcomes()
    assert len({out for _, out, _ in path_only}) > len(LEAF_WORDS)  # the helps differ


def test_dispatch_builds_only_the_path(monkeypatch, tmp_path):
    """A top-level leaf costs 3 parsers (top, leaf and the parser that
    looks for --config), a group leaf 4; nothing is kept from call to
    call."""
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    monkeypatch.chdir(tmp_path)
    pathlib.Path("scan.cfg").write_text("seed = 3\n")
    scan = ["scan", "--ring", "Z", "--window", "N=5", "--colors", "2", "--F", "t", "-o", "r.json"]
    ipstar = ["largeness", "ipstar", "--ring", "Z", "--window", "N=10", "--target", "evens",
              "--len", "2", "--samples", "3", "-o", "r.json"]
    for argv, parsers in ((scan, 3), (scan, 3), (ipstar, 4), ([*scan, "--config", "scan.cfg"], 3)):
        built.clear()
        assert dispatch(argv) in (0, 1), argv
        assert len(built) == parsers, argv


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import monochrome.cli\n"
            "print(len(built))\n")
    src = str(pathlib.Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "0\n"


def test_command_table_is_the_full_tree():
    """The table dispatch matches argv against names the full tree's
    leaves, in the same order."""
    parser, leaves = cli._build_parser()

    def walk(p, words):
        subs = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield words, p
        for name, child in (subs[0].choices.items() if subs else ()):
            yield from walk(child, (*words, name))

    tree = dict(walk(parser, ()))
    assert list(tree) == list(cli._COMMANDS) == list(leaves) == [tuple(w) for w in LEAF_WORDS]
    assert all(tree[words] is leaves[words] for words in tree)


# ---------------------------------------------------------------------------
# flag table

# the help texts that one _FLAGS entry now shares: (leaf, option) -> help
HELP_MERGES = {
    ("largeness ps-witness", "--target"): "element set A",
    ("largeness ipstar", "--target"): "element set A",
    ("largeness ps-witness", "--gaps"): "gap set G",
    ("largeness transport", "--gaps"): "gap set G",
    ("search avoid", "--save-coloring"): "write the resulting coloring to this file",
    ("cnf decode", "--save-coloring"): "write the resulting coloring to this file",
}


def _leaf_actions(leaf) -> list:
    """The leaf's argparse actions in a form that does not depend on the
    Python version, unlike its --help text."""
    return json.loads(json.dumps([
        {"option_strings": a.option_strings, "dest": a.dest, "required": a.required,
         "default": a.default, "type": getattr(a.type, "__name__", None), "choices": a.choices,
         "nargs": a.nargs, "metavar": a.metavar, "help": a.help, "action": type(a).__name__}
        for a in leaf._actions]))


def test_flag_table_builds_the_golden_actions():
    """tests/golden/cli_actions.json holds every leaf's actions as they were
    when each command added its own flags; the table builds the same,
    apart from the help texts of HELP_MERGES."""
    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_actions.json").read_text())
    for (leaf, option), text in HELP_MERGES.items():
        action, = (a for a in golden[leaf] if option in a["option_strings"])
        assert action["help"] != text, (leaf, option)
        action["help"] = text
    _, leaves = cli._build_parser()
    assert {" ".join(words): _leaf_actions(p) for words, p in leaves.items()} == golden


def test_every_flag_is_declared_once_and_used():
    used = {name for _, flags, _ in cli._COMMANDS.values() for name in flags}
    assert used == set(cli._FLAGS)
    declared = [repr(entry) for entry in cli._FLAGS.values()]
    assert len(set(declared)) == len(declared)


# ---------------------------------------------------------------------------
# input paths


def test_coloring_file_must_match_the_flags(capsys, tmp_path):
    path = tmp_path / "c.txt"
    store_coloring(random_coloring(enumerate_window(Z, WindowParams(10)), 2, 1), path)
    problem = ["--F", "t", "--coloring", str(path)]
    for flags, message in (
            (["--ring", "GF(2)[x]", "--window", "d=3", "--colors", "2"], "ring differs from --ring"),
            (["--window", "N=9", "--colors", "2"], "window differs from --window"),
            (["--window", "N=10", "--colors", "3"], "colors differ from --colors")):
        assert dispatch(["scan", *flags, *problem]) == 2, flags
        assert capsys.readouterr().err == f"error: coloring file {message}\n"


def test_cnf_decode_model_paths(capsys, monkeypatch, tmp_path):
    problem = ["cnf", "decode", "--ring", "Z", "--window", "N=3", "--colors", "2", "--F", "t"]
    assert dispatch([*problem, "--model", str(tmp_path / "missing.txt")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read model {tmp_path / 'missing.txt'}: ")
    monkeypatch.setattr(sys, "stdin", io.StringIO("v 1 -2 -3 4 5 -6 0\n"))
    code, report = run_json(capsys, *problem, "--model", "-")
    assert code == 0
    assert report["payload"] == {"colors": [1, 2, 1], "valid": True}


def test_ufp_verify_needs_a_literal(capsys):
    assert dispatch(["ufp", "verify", "--elements", " , "]) == 2
    assert capsys.readouterr().err == "error: --elements needs at least one literal\n"


def test_report_of_unreadable_files(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    assert dispatch(["report", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
    text = tmp_path / "notes.txt"
    text.write_text("not json\n")
    assert dispatch(["report", str(text)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {text}: not valid JSON (")


def test_config_lines(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# a scan\n\nring = Z  # the integers\nwindow = N=50\n\ncolors = 2\nseed = 7\nF = t\n")
    code, report = run_json(capsys, "scan", "--config", str(cfg))
    assert code == 0
    assert report["payload"]["count"] == 83
    cfg.write_text("ring = Z\nseed 7\n")
    assert dispatch(["scan", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key = value, got 'seed 7'\n"


def test_module_entry_point():
    src = str(pathlib.Path(cli.__file__).parents[1])
    argv = [sys.executable, "-m", "monochrome.cli", "hj", "--colors", "2", "--alphabet", "2", "--maxN", "3"]
    out = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["payload"] == {"r": 2, "t": 2, "N": 2, "status": "found"}
