"""Command-line front end: payloads mirror library calls, exit codes follow
the 0/1/2 contract, config files merge under flags."""

import ast
import json
import pathlib

import pytest

from monochrome import (
    ScanConstraints,
    WindowParams,
    abundance_profile,
    build_instance,
    cnf_export,
    enumerate_window,
    format_element,
    hj_number_exhaustive,
    load_coloring,
    parse_family,
    parse_ring_spec,
    random_coloring,
    to_dimacs,
    witness_scan,
)
from monochrome import cli
from monochrome.cli import dispatch

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
        capsys, "hj", "--colors", "2", "--alphabet", "2", "--maxN", "3",
        "--work-cap", "1",
    )
    assert code == 1
    assert report["status"] == "work_cap_exceeded"


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
    code, report = run_json(
        capsys,
        "search", "moreira", "--colors", "2", "--F", "t", "--maxN", "64",
        "--crosscheck",
    )
    assert code == 0
    payload = report["payload"]
    assert payload["N"] == 8
    assert payload["crosscheck"]["below"]["agree"] is True
    assert payload["crosscheck"]["at"]["agree"] is True


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

    monkeypatch.setattr(monochrome.search, "_is_avoiding", lambda colors, index_sets: False)
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
    assert report["payload"]["step"] == 3


# ---------------------------------------------------------------------------
# report merge


def test_report_merges_json_to_csv(capsys, tmp_path):
    for i, n in enumerate((10, 20)):
        code, out = run(
            capsys,
            "scan", "--ring", "Z", "--window", f"N={n}", "--colors", "2",
            "--seed", "7", "--F", "t",
        )
        assert code == 0
        (tmp_path / f"r{i}.json").write_text(out)
    code, out = run(
        capsys, "report", str(tmp_path / "r0.json"), str(tmp_path / "r1.json"),
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("file,command,timestamp,status")
    assert len(lines) == 3
    assert "scan" in lines[1]


def test_report_rejects_non_report_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _ = run(capsys, "report", str(bad))
    assert code == 2


# ---------------------------------------------------------------------------
# config and errors


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("ring = Z\nwindow = N=50\ncolors = 2\nseed = 7\nF = t\n")
    code, report = run_json(capsys, "scan", "--config", str(cfg))
    assert code == 0
    assert report["payload"]["count"] == 83


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("ring = Z\nwindow = N=50\ncolors = 2\nseed = 7\nF = t\n")
    code, report = run_json(capsys, "scan", "--config", str(cfg), "--seed", "8")
    assert code == 0
    assert report["payload"]["seed"] == 8
    assert report["payload"]["count"] != 83 or report["payload"]["seed"] == 8


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    for key in ("banana", "jobs"):
        cfg.write_text(f"ring = Z\n{key} = 3\n")
        code, _ = run(
            capsys, "scan", "--config", str(cfg), "--window", "N=5",
            "--colors", "2", "--F", "t",
        )
        assert code == 2, key


def test_config_values_checked_like_flags(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    good = {"ring": "Z", "window": "N=10", "colors": "2", "F": "t"}
    for key, value in (("format", "xml"), ("colors", "two"), ("colors", "２"), ("colors", "1_0"),
                       ("colors", "\u30002"), ("allow-degenerate", "maybe")):
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**good, key: value}.items()))
        assert run(capsys, "scan", "--config", str(cfg))[0] == 2, key
    good.update({"format": "text", "allow-degenerate": "yes"})
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in good.items()))
    code, out = run(capsys, "scan", "--config", str(cfg))
    assert code == 0
    assert out.startswith("# scan\n")


def test_config_supplies_required_flags(capsys, tmp_path):
    cfg = tmp_path / "hj.cfg"
    cfg.write_text("colors = 2\nalphabet = 2\nmaxN = 3\n")
    code, report = run_json(capsys, "hj", "--config", str(cfg))
    assert code == 0
    assert report["payload"]["N"] == 2
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


def test_config_missing_file(capsys):
    code, _ = run(
        capsys, "scan", "--config", "/nonexistent.cfg", "--ring", "Z",
        "--window", "N=5", "--colors", "2", "--F", "t",
    )
    assert code == 2


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
