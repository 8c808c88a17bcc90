"""Avoidance-coloring search, CNF export/decode, least-window thresholds,
and the reference DPLL used for cross-checking."""

import functools
import hashlib
import itertools
import json
import random
import sys
from collections import Counter

import pytest

from monochrome import (
    AvoidanceStatus,
    ScanConstraints,
    WindowParams,
    avoidance_backtrack,
    build_instance,
    cnf_export,
    cnf_model_decode,
    cnf_var,
    coloring_to_model,
    dual_engine_check,
    enumerate_window,
    moreira_number,
    parse_dimacs,
    parse_family,
    parse_model,
    parse_ring_spec,
    to_dimacs,
    witness_scan,
)
from monochrome import search
from monochrome.dpll import dpll_sat, model_satisfies
from _reference_engines import (
    reference_backtrack, reference_candidates, reference_dimacs, reference_dpll,
    reference_parse_dimacs,
)

Z = parse_ring_spec("Z")
ZI = parse_ring_spec("Zi")
GF2 = parse_ring_spec("GF(2)[x]")
GF3 = parse_ring_spec("GF(3)[x]")

LINEAR = parse_family(Z, "t")
TRIPLE = parse_family(Z, "0;t")


def zwindow(n):
    return enumerate_window(Z, WindowParams(n))


# ---------------------------------------------------------------------------
# Reference DPLL


def test_dpll_simple_sat():
    model = dpll_sat(2, [(1, 2), (-1, 2)])
    assert model is not None
    assert model_satisfies(model, [(1, 2), (-1, 2)])
    assert sorted(abs(v) for v in model) == [1, 2]


def test_dpll_simple_unsat():
    assert dpll_sat(1, [(1,), (-1,)]) is None


def test_dpll_empty_clause_unsat():
    assert dpll_sat(2, [(1, 2), ()]) is None


def test_dpll_negative_variable_count_rejected():
    with pytest.raises(ValueError, match="^variable count must be >= 0$"):
        dpll_sat(-1, [])


def test_dpll_no_clauses_sat():
    model = dpll_sat(3, [])
    assert model is not None and len(model) == 3


def test_dpll_literal_validation():
    with pytest.raises(ValueError):
        dpll_sat(1, [(2,)])
    with pytest.raises(ValueError):
        dpll_sat(1, [(0,)])


def test_dpll_agrees_with_truth_tables():
    rng = random.Random(77)
    for _ in range(300):
        nv = rng.randint(1, 5)
        clauses = [
            tuple(
                rng.choice((v, -v))
                for v in rng.sample(range(1, nv + 1), rng.randint(1, nv))
            )
            for _ in range(rng.randint(1, 8))
        ]
        model = dpll_sat(nv, clauses)
        brute = any(
            all(any((lit > 0) == assign[abs(lit) - 1] for lit in cl) for cl in clauses)
            for assign in itertools.product((False, True), repeat=nv)
        )
        assert (model is not None) == brute
        if model is not None:
            assert model_satisfies(model, clauses)


def test_dpll_guard_raises_internal_error(monkeypatch):
    import monochrome.dpll
    from monochrome import InternalError

    monkeypatch.setattr(monochrome.dpll, "model_satisfies", lambda model, clauses: False)
    with pytest.raises(InternalError, match="dpll guard tripped"):
        dpll_sat(2, [(1, 2)])


def test_dpll_decisions_beyond_the_recursion_limit():
    # Z {1..300}, r=2, every y excluded: no candidates, 600 variables, and
    # one decision per element (its first color; propagation rules out the
    # second), so 300 decisions against a recursion limit of 200
    w = zwindow(300)
    inst = build_instance(w, 2, LINEAR, ScanConstraints(frozenset(w.elements), frozenset()))
    assert inst.candidates == ()
    doc = cnf_export(inst)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        model = dpll_sat(doc.num_vars, doc.clauses)
        checked = dual_engine_check(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert model == [v if v % 2 else -v for v in range(1, 601)]
    assert cnf_model_decode(model, inst).colors == (1,) * 300
    assert checked["agree"] is True and checked["cnf_sat"] is True


# ---------------------------------------------------------------------------
# Instance construction


def test_candidates_at_three():
    inst = build_instance(zwindow(3), 2, LINEAR)
    assert [tuple(sorted(s)) for s in inst.index_sets] == [(1, 2)]  # {2, 3}


def test_candidates_at_four():
    inst = build_instance(zwindow(4), 2, LINEAR)
    assert [tuple(sorted(s)) for s in inst.index_sets] == [(1, 2), (2, 3)]


def test_no_candidates_at_one():
    assert build_instance(zwindow(1), 2, LINEAR).candidates == ()


def test_candidates_fully_inside_window():
    rng = random.Random(5)
    for spec, params, fam_text in (
        (Z, WindowParams(20), "t^2"),
        (ZI, WindowParams(2), "t"),
        (GF2, WindowParams(3), "0;t"),
    ):
        w = enumerate_window(spec, params)
        inst = build_instance(w, 2, parse_family(spec, fam_text))
        for cand in inst.candidates:
            assert all(e in w for e in cand.elements)
            assert len(cand.elements) > 1


def test_candidates_deduplicated_by_element_set():
    inst = build_instance(zwindow(12), 2, LINEAR)
    seen = [frozenset(c.elements) for c in inst.candidates]
    assert len(seen) == len(set(seen))


def test_degenerates_included_when_allowed():
    k = ScanConstraints(
        exclude_y=frozenset({Z.zero, Z.one}),
        exclude_x=frozenset({Z.zero}),
        forbid_degenerate=False,
    )
    inst = build_instance(zwindow(4), 2, LINEAR, k)
    sizes = sorted(len(c.elements) for c in inst.candidates)
    assert sizes[0] == 1  # the collapsed pair at x = y = 2


def _lazy_cases():
    """(window, family, constraints) over Z, Zi and GF(3)[x], with the
    default constraints and with degenerates kept and y = 0 admitted."""
    for spec, sizes, fams in ((Z, (1, 12, 30), ("t", "0;t", "t;t^2")),
                              (ZI, (0, 1, 2), ("t", "0;(1+i)t")),
                              (GF3, (1, 2, 3), ("t", "0;xt"))):
        for n in sizes:
            window = enumerate_window(spec, WindowParams(n))
            for fam_text in fams:
                for constraints in (ScanConstraints.defaults_for(spec),
                                    ScanConstraints(frozenset({spec.one}), frozenset({spec.zero}),
                                                    forbid_degenerate=False)):
                    yield window, parse_family(spec, fam_text), constraints


def test_candidates_equal_an_eager_build():
    for window, fam, constraints in _lazy_cases():
        inst = build_instance(window, 2, fam, constraints)
        want = reference_candidates(window, fam, constraints)
        assert [(c.x, c.y, c.elements) for c in inst.candidates] == want, (window, fam)
        assert len(inst.index_sets) == len(want)
        assert inst.candidates is inst.candidates  # built once, on the first read


def test_searches_and_cnf_build_no_candidate_objects(monkeypatch, capsys, tmp_path):
    """moreira_number, prefix, cnf_export, DIMACS text, the searches and
    the decoding of a valid model read positions only: no PatternInstance
    is made until candidates is read."""
    made = []
    real = search.PatternInstance
    monkeypatch.setattr(search, "PatternInstance", lambda *a: made.append(a) or real(*a))
    for spec, fam_text, max_n in ((Z, "0;t", 40), (ZI, "t", 3), (GF3, "t", 3)):
        fam = parse_family(spec, fam_text)
        res = moreira_number(2, fam, max_n)
        inst = build_instance(enumerate_window(spec, WindowParams(res.n)), 2, fam)
        below = inst.prefix(enumerate_window(spec, WindowParams(res.n - 1))) if res.n > spec.least else inst
        whole = build_instance(inst.window, 3, fam)
        whole.prefix(below.window)
        avoider = avoidance_backtrack(below).coloring
        cnf_model_decode(coloring_to_model(avoider), below)
        parse_dimacs(to_dimacs(cnf_export(whole)))
        dual_engine_check(inst)
    assert made == []
    assert len(whole.candidates) == len(made) == len(whole.index_sets) > 0

    from monochrome.cli import dispatch
    made.clear()
    for argv, want in ((["search", "avoid", "--ring", "Z", "--window", "N=44", "--colors", "2",
                         "--F", "0;3t"], 93),
                       (["cnf", "export", "--ring", "Z", "--window", "N=44", "--colors", "3",
                         "--F", "0;3t", "-o", str(tmp_path / "inst.cnf")], 93)):
        assert dispatch(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.splitlines()[-1])["payload"]
        assert payload["candidates"] == want == len(reference_candidates(
            zwindow(44), parse_family(Z, "0;3t"), ScanConstraints.defaults_for(Z)))
    assert made == []


# ---------------------------------------------------------------------------
# Backtracking search


def test_avoidance_found_at_four():
    res = avoidance_backtrack(build_instance(zwindow(4), 2, LINEAR))
    assert res.status is AvoidanceStatus.FOUND
    assert res.coloring is not None
    assert list(witness_scan(res.coloring, LINEAR)) == []


def test_single_color_with_candidate_is_forced():
    res = avoidance_backtrack(build_instance(zwindow(3), 1, LINEAR))
    assert res.status is AvoidanceStatus.FORCED


def test_zero_budget_times_out():
    res = avoidance_backtrack(build_instance(zwindow(4), 2, LINEAR), budget=0)
    assert res.status is AvoidanceStatus.TIMEOUT
    assert res.coloring is None


def test_negative_budget_rejected():
    # also where no decision is needed: {1} has no candidate
    for n in (1, 4):
        with pytest.raises(ValueError):
            avoidance_backtrack(build_instance(zwindow(n), 2, LINEAR), budget=-1)
    with pytest.raises(ValueError):
        moreira_number(2, LINEAR, 30, budget=-1)


def test_build_instance_checks_its_arguments():
    with pytest.raises(ValueError, match="^color count must be >= 1, got 0$"):
        build_instance(zwindow(10), 0, LINEAR)
    with pytest.raises(ValueError, match="^window and family from different rings$"):
        build_instance(zwindow(10), 2, parse_family(ZI, "t"))


def test_empty_instance_single_color_found():
    res = avoidance_backtrack(build_instance(zwindow(1), 1, LINEAR))
    assert res.status is AvoidanceStatus.FOUND
    assert res.coloring.colors == (1,)


def test_unconstrained_elements_get_first_color():
    res = avoidance_backtrack(build_instance(zwindow(4), 2, LINEAR))
    # element 1 occurs in no candidate at N=4
    assert res.coloring.colors[res.coloring.window.index[Z.integer(1)]] == 1


def test_found_colorings_never_leave_witnesses():
    rng = random.Random(8)
    for n in range(2, 8):
        for fam in (LINEAR, TRIPLE):
            res = avoidance_backtrack(build_instance(zwindow(n), 2, fam))
            if res.status is AvoidanceStatus.FOUND:
                assert list(witness_scan(res.coloring, fam)) == []


def test_forced_is_monotone_in_window_size():
    statuses = {}
    for n in range(1, 12):
        res = avoidance_backtrack(build_instance(zwindow(n), 2, LINEAR))
        statuses[n] = res.status
    forced_at = [n for n, s in statuses.items() if s is AvoidanceStatus.FORCED]
    assert forced_at
    first = min(forced_at)
    assert all(statuses[n] is AvoidanceStatus.FORCED for n in range(first, 12))


# ---------------------------------------------------------------------------
# CNF export


def test_cnf_variable_numbering():
    assert cnf_var(0, 0, 2) == 1
    assert cnf_var(0, 1, 2) == 2
    assert cnf_var(3, 1, 2) == 8


def test_cnf_exact_bytes_at_three():
    doc = cnf_export(build_instance(zwindow(3), 2, LINEAR))
    assert to_dimacs(doc) == (
        "c map 1 0\n"
        "c map 2 1\n"
        "c map 3 2\n"
        "p cnf 6 8\n"
        "1 2 0\n"
        "3 4 0\n"
        "5 6 0\n"
        "-1 -2 0\n"
        "-3 -4 0\n"
        "-5 -6 0\n"
        "-3 -5 0\n"
        "-4 -6 0\n"
    )


def test_cnf_exact_bytes_at_the_thresholds():
    # DIMACS text of the least forced windows, frozen from the full-window
    # (x, y) loop that the product-bounded kernel replaced
    linear = to_dimacs(cnf_export(build_instance(zwindow(8), 2, LINEAR)))
    assert linear == (
        "".join(f"c map {k + 1} {k}\n" for k in range(8))
        + "p cnf 16 30\n"
        + "".join(f"{2 * k + 1} {2 * k + 2} 0\n" for k in range(8))
        + "".join(f"-{2 * k + 1} -{2 * k + 2} 0\n" for k in range(8))
        + "-3 -5 0\n-4 -6 0\n-9 -11 0\n-10 -12 0\n-11 -15 0\n-12 -16 0\n"
        "-5 -7 0\n-6 -8 0\n-7 -9 0\n-8 -10 0\n-11 -13 0\n-12 -14 0\n"
        "-13 -15 0\n-14 -16 0\n"
    )
    triple = to_dimacs(cnf_export(build_instance(zwindow(15), 2, TRIPLE))).encode()
    assert len(triple) == 1161
    assert hashlib.sha256(triple).hexdigest() == (
        "9c3aeed8248f636b6d834f354c5407a4ebe1fa4b5bc1fcde26c52ea4a809509a"
    )


def test_cnf_size_formula():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 15)
        r = rng.randint(1, 3)
        fam = rng.choice((LINEAR, TRIPLE))
        inst = build_instance(zwindow(n), r, fam)
        doc = cnf_export(inst)
        assert doc.num_vars == n * r
        assert len(doc.clauses) == n * (1 + r * (r - 1) // 2) + len(inst.candidates) * r


def test_cnf_without_candidates_is_satisfiable():
    doc = cnf_export(build_instance(zwindow(1), 2, LINEAR))
    assert dpll_sat(doc.num_vars, doc.clauses) is not None


def test_dimacs_round_trip():
    doc = cnf_export(build_instance(zwindow(8), 2, TRIPLE))
    back = parse_dimacs(to_dimacs(doc))
    assert back.num_vars == doc.num_vars
    assert [tuple(c) for c in back.clauses] == [tuple(c) for c in doc.clauses]


def test_dimacs_parse_errors():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")  # missing header
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 2\n1 2 0\n")  # clause count mismatch
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 1 1\n1 2\n")  # unterminated clause
    # int() alone takes non-ASCII digits and underscores, and str.split()
    # splits at U+3000; DIMACS numbers and separators are ASCII only
    for text in ("p cnf ２ 1\n1 0\n", "p cnf 1 1_0\n1 0\n", "p cnf 1 1\n１ 0\n",
                 "p cnf 1 1\n0_1 0\n", "c map 1 ０\np cnf 1 1\n1 0\n",
                 "p cnf\u30001 1\n1 0\n", "p cnf 1 1\n1\u30000\n",
                 "p cnf 2 2\n1 0\u20282 0\n"):  # U+2028 ends no line
        with pytest.raises(ValueError):
            parse_dimacs(text)


def test_dimacs_text_equals_the_cnf_var_loops():
    for window, fam, constraints in _lazy_cases():
        for r in (1, 2, 3, 4):
            inst = build_instance(window, r, fam, constraints)
            assert to_dimacs(cnf_export(inst)) == reference_dimacs(inst), (window, fam, r)


def test_threshold_dimacs_bytes():
    # frozen from the per-literal cnf_var encoder: the threshold
    # workload's CNF round-trip instance
    inst = build_instance(zwindow(120), 3, TRIPLE)
    text = to_dimacs(cnf_export(inst)).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "a74db25fb558245b56f4220f365590ee89883ee03a019ca93df032f0bb4fe96f"
    )


def _relaid(doc, rng) -> str:
    """DIMACS text of doc in a random layout: clauses split across lines
    or several on a line, comments and blank lines among them, CRLF line
    ends and trailing whitespace here and there."""
    lines = [f"c map {lit} {idx}" for lit, idx in doc.mapping]
    lines.append(f"c free comment\np cnf {doc.num_vars} {len(doc.clauses)}")
    words = [str(lit) for clause in doc.clauses for lit in clause + (0,)]
    while words:
        take = words[:rng.randint(1, 7)]
        words = words[len(take):]
        lines.append(rng.choice(" \t").join(take))
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "c between clauses", "   ", "c")))
    return "".join(line + rng.choice(("\n", "\r\n", " \n", "\t\r\n")) for line in lines)


_DIMACS_FAULTS = (
    "p cnf 1 1\n1 2\n",  # unterminated clause
    "p cnf 2 2\n1 2 0\n",  # count mismatch
    "1 2 0\n",  # missing problem line
    "",
    "c only a comment\n",
    "p cnf 2\n1 0\n",
    "c x\n\np dnf 1 1\n1 0\n",
    "p cnf 1 1 1\n1 0\n",
    "pcnf 1 1\n1 0\n",
    "p cnf 1 1\n1_000 0\n",
    "p cnf 1_000 1\n1 0\n",
    "c map 5 1_0\np cnf 1 1\n1 0\n",
    "p cnf 1 1\n\u0661 0\n",
    "p cnf \uff12 1\n1 0\n",
    "p cnf 1 1\n1\u30000\n",
    "p cnf 1 1\n1 x 0\n",
    "p cnf 1 1\n1 0 c\n",
    # two faults: the first in text order is reported
    "p cnf 1 1\n1 x 0\np cnf\n",
    "p cnf 1 1\n1 x 0\nc map a \u0663\n",
    "p bad\n1 x 0\n",
    "c map a \u0663\n1 x 0\np cnf 1 1\n",
    "1 y 0\n2 z\n",
    "p cnf 2 5\n1 2\n",
    "1 2\n",
    "p cnf 1 1\n1 0\np cnf 1 x\n",
    "p cnf 1 1\n1 0\r\n2 \u00a0\n",
)


def _dimacs_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_parse_dimacs_matches_the_line_reader():
    rng = random.Random(24)
    texts = list(_DIMACS_FAULTS)
    for n, r, fam in ((1, 2, LINEAR), (8, 2, TRIPLE), (15, 3, TRIPLE), (30, 1, LINEAR)):
        doc = cnf_export(build_instance(zwindow(n), r, fam))
        for _ in range(5):
            text = _relaid(doc, rng)
            assert parse_dimacs(text) == reference_parse_dimacs(text) == doc
            texts.append(text)
    # each laid-out text with one or two of its tokens or lines broken
    for text in texts[len(_DIMACS_FAULTS):]:
        for _ in range(6):
            lines = text.split("\n")
            for _ in range(rng.randint(1, 2)):
                k = rng.randrange(len(lines))
                lines[k] = rng.choice((
                    lines[k] + " q", lines[k].replace("0", "\u0660", 1), "p cnf 1",
                    lines[k].replace(" ", "_", 1), lines[k][:-1], "7", "c map a b",
                    "p cnf 9 9"))
            texts.append("\n".join(lines))
    for text in texts:
        want = _dimacs_outcome(reference_parse_dimacs, text)
        assert _dimacs_outcome(parse_dimacs, text) == want, text
    outcomes = {_dimacs_outcome(parse_dimacs, t) for t in _DIMACS_FAULTS}
    assert all(isinstance(o, str) for o in outcomes)
    assert "ValueError: bad decimal 'x'" in outcomes
    assert "ValueError: line 3: bad problem line 'p dnf 1 1'" in outcomes


def test_model_text_forms():
    assert parse_model("v 1 -2 0\nv 3 0\n") == [1, -2, 3]
    assert parse_model("1\n-2\n3\n") == [1, -2, 3]
    assert parse_model("c comment\ns SATISFIABLE\nv -1 0\n") == [-1]
    assert parse_model("v 1 -2 0\r\nv 3 0\r\n") == [1, -2, 3]
    assert parse_dimacs("p cnf 2 1\r\n1 -2 0\r\n").clauses == ((1, -2),)
    # lines end at \n only: \x85 (like U+2028) is neither a line end nor a separator
    for text in ("v １ -2 0\n", "1_0\n", "v -٢ 0\n", "v 1\u30000\n", "\u3000v 1 0\n", "v 1\x85-2 0\n"):
        with pytest.raises(ValueError):
            parse_model(text)


# ---------------------------------------------------------------------------
# Model decoding


def test_decode_solver_model():
    inst = build_instance(zwindow(3), 2, LINEAR)
    doc = cnf_export(inst)
    model = dpll_sat(doc.num_vars, doc.clauses)
    coloring = cnf_model_decode(model, inst)
    assert list(witness_scan(coloring, LINEAR)) == []


def test_decode_round_trips_through_unit_model():
    inst = build_instance(zwindow(4), 2, LINEAR)
    res = avoidance_backtrack(inst)
    model = coloring_to_model(res.coloring)
    assert cnf_model_decode(model, inst) == res.coloring


def test_decode_rejects_double_colored_element():
    inst = build_instance(zwindow(3), 2, LINEAR)
    with pytest.raises(ValueError):
        cnf_model_decode([1, 2, 3, -4, 5, -6], inst)


def test_decode_rejects_out_of_range_literal():
    inst = build_instance(zwindow(3), 2, LINEAR)
    with pytest.raises(ValueError):
        cnf_model_decode([1, -2, 3, -4, 5, -6, 9], inst)


def test_decode_flags_monochromatic_candidate():
    inst = build_instance(zwindow(3), 2, LINEAR)
    # elements 2 and 3 share color 1: candidate {2,3} monochromatic, an input error
    with pytest.raises(ValueError, match=r"candidate \{2, 3\} monochromatic"):
        cnf_model_decode([1, -2, 3, -4, 5, -6], inst)


# ---------------------------------------------------------------------------
# Dual engine


def test_engines_agree_on_small_sweep():
    for n in range(1, 9):
        for fam in (LINEAR, TRIPLE):
            report = dual_engine_check(build_instance(zwindow(n), 2, fam))
            assert report["agree"] is True


# ---------------------------------------------------------------------------
# Least forced window


def test_single_color_threshold_is_first_candidate():
    res = moreira_number(1, LINEAR, 10)
    assert res.status == "found" and res.n == 3


def test_two_color_linear_threshold():
    res = moreira_number(2, LINEAR, 64)
    assert res.status == "found" and res.n == 8  # frozen; re-derived below
    below = avoidance_backtrack(build_instance(zwindow(7), 2, LINEAR))
    at = avoidance_backtrack(build_instance(zwindow(8), 2, LINEAR))
    assert below.status is AvoidanceStatus.FOUND
    assert at.status is AvoidanceStatus.FORCED


def test_two_color_triple_threshold():
    res = moreira_number(2, TRIPLE, 64)
    assert res.status == "found" and res.n == 15  # frozen; dual-engine in acceptance


def test_threshold_not_reached():
    res = moreira_number(2, LINEAR, 5)
    assert res.status == "not_found_within" and res.n == 5
    with pytest.raises(ValueError):
        moreira_number(2, LINEAR, 0)


def test_threshold_timeout_is_inconclusive():
    res = moreira_number(2, LINEAR, 30, budget=0)
    assert res.status == "inconclusive"
    # a timeout in the binary search, after the doubling bracketed 8..16
    res = moreira_number(2, parse_family(Z, "t^2"), 200, budget=2)
    assert (res.status, res.n) == ("inconclusive", 12)
    assert [(n, st.value) for n, st in res.trace] == [
        (1, "avoidance_found"), (2, "avoidance_found"), (4, "avoidance_found"),
        (8, "avoidance_found"), (16, "forced"), (12, "timeout")]


def test_threshold_trace_records_probes():
    res = moreira_number(2, LINEAR, 64)
    probed = [n for n, _ in res.trace]
    assert probed[0] == 1
    assert len(probed) == len(set(probed))


def _avoidable_by_enumeration(window, family) -> bool:
    """Whether some 2-coloring of a window of at most 16 elements leaves
    no instance monochromatic, the instances rebuilt from scratch: every
    y not in {0, 1} and x != 0 of the window whose set {xy} u {x + f(y)}
    has two or more elements, all inside the window."""
    spec = window.spec
    assert len(window) <= 16
    bit = {e: 1 << k for k, e in enumerate(window.elements)}
    masks = set()
    for y in window.elements:
        if y == spec.zero or y == spec.one:
            continue
        f_vals = [sum((c * y**d for d, c in f.terms), spec.zero) for f in family.polys]
        for x in window.elements:
            if x == spec.zero:
                continue
            elems = {x * y} | {x + v for v in f_vals}
            if len(elems) > 1 and all(e in bit for e in elems):
                masks.add(sum(bit[e] for e in elems))
    return any(all(0 < m & s < s for s in masks) for m in range(1 << len(window)))


def test_thresholds_outside_z():
    # boxes of Zi and degree windows of GF(q)[x] nest like {1..N}; each
    # side of every boundary is re-derived without avoidance_backtrack
    for ring, fam_text, threshold in [("Zi", "t", 2), ("GF(2)[x]", "t", 3), ("GF(2)[x]", "0;t", 5),
                                      ("GF(3)[x]", "t", 2), ("GF(3)[x]", "t^2", 3)]:
        spec = parse_ring_spec(ring)
        fam = parse_family(spec, fam_text)
        res = moreira_number(2, fam, 8)
        assert (res.status, res.n) == ("found", threshold), (ring, fam_text)
        for size, status in res.trace:  # sliced or built, each probe answers as a fresh build
            window = enumerate_window(spec, WindowParams(size))
            assert avoidance_backtrack(build_instance(window, 2, fam)).status is status, (ring, size)
        for size, avoidable in ((threshold - 1, True), (threshold, False)):
            window = enumerate_window(spec, WindowParams(size))
            if len(window) <= 16:
                got = _avoidable_by_enumeration(window, fam)
            else:
                got = reference_backtrack(build_instance(window, 2, fam)).status is AvoidanceStatus.FOUND
            assert got is avoidable, (ring, fam_text, size)



def test_zi_threshold_probes_the_least_box():
    # F = t with nothing excluded and degenerates admitted: B=0 = {0} holds
    # the one-element candidate {0} (x = y = 0), which no coloring avoids
    fam = parse_family(ZI, "t")
    open_all = ScanConstraints(frozenset(), frozenset(), forbid_degenerate=False)
    least = build_instance(enumerate_window(ZI, WindowParams(0)), 2, fam, open_all)
    assert avoidance_backtrack(least).status is AvoidanceStatus.FORCED
    res = moreira_number(2, fam, 4, constraints=open_all)
    assert (res.status, res.n) == ("found", 0)
    assert res.trace == ((1, AvoidanceStatus.FORCED), (0, AvoidanceStatus.FORCED))
    # one color: B=1 is forced by any candidate, and B=0 holds none
    res = moreira_number(1, fam, 4)
    assert (res.status, res.n) == ("found", 1)
    assert res.trace == ((1, AvoidanceStatus.FORCED), (0, AvoidanceStatus.FOUND))
    # Z and GF(q)[x] windows start at 1: a forced first probe is the answer
    for spec in (Z, GF2):
        res = moreira_number(2, parse_family(spec, "0"), 4, constraints=open_all)
        assert (res.status, res.n, res.trace) == ("found", 1, ((1, AvoidanceStatus.FORCED),))


# ---------------------------------------------------------------------------
# Prefix slices


def _prefix_constraints(spec):
    """The defaults; degenerates kept with y = 0 admitted; nothing excluded;
    and degenerates kept with x = 0 admitted but not y = 0, where F = {0}
    makes the instance {0} at any y."""
    zero, one = spec.zero, spec.one
    return [
        ScanConstraints.defaults_for(spec),
        ScanConstraints(frozenset({one}), frozenset({zero}), forbid_degenerate=False),
        ScanConstraints(frozenset(), frozenset()),
        ScanConstraints(frozenset({zero, one}), frozenset(), forbid_degenerate=False),
    ]


@pytest.mark.parametrize("ring, big, sizes", [
    ("Z", 100, range(1, 101)),
    ("GF(2)[x]", 6, range(1, 7)),
    ("GF(3)[x]", 4, range(1, 5)),
    ("Zi", 4, (0, 1, 2)),
])
def test_prefix_equals_a_fresh_build(ring, big, sizes):
    spec = parse_ring_spec(ring)
    for fam_text in ("t", "0;t", "0", "t;t^2"):
        fam = parse_family(spec, fam_text)
        for constraints in _prefix_constraints(spec):
            whole = build_instance(enumerate_window(spec, WindowParams(big)), 2, fam, constraints)
            for n in sizes:
                window = enumerate_window(spec, WindowParams(n))
                sliced = whole.prefix(window)
                fresh = build_instance(window, 2, fam, constraints)
                assert sliced.window is window and sliced.r == 2
                assert sliced.index_sets == fresh.index_sets, (fam_text, constraints, n)
                assert sliced.candidates == fresh.candidates, (fam_text, constraints, n)


def test_prefix_rejects_a_window_that_is_not_a_prefix():
    whole = build_instance(enumerate_window(ZI, WindowParams(4)), 2, parse_family(ZI, "t"))
    for window in (enumerate_window(ZI, WindowParams(3)), enumerate_window(ZI, WindowParams(5))):
        with pytest.raises(ValueError, match="not a prefix"):
            whole.prefix(window)


def test_threshold_builds_only_where_no_prefix_is_kept():
    # frozen: the doubling probes build; every binary-search probe is a slice of N=128
    res = moreira_number(2, parse_family(Z, "t^3"), 128)
    assert (res.status, res.n) == ("found", 69)
    assert [n for n, _ in res.trace] == [1, 2, 4, 8, 16, 32, 64, 128, 96, 80, 72, 68, 70, 69]
    assert res.builds == 8


# (ring, family, r, N, budget) -> status, nodes, backtracks and the first 16
# hex digits of the sha256 of the avoider's color bytes, frozen: a change to
# how the search keeps its state must leave every number as it is.  A forced
# row's counts were measured with all r colors tried at the first decision,
# before that decision took color 1 only; the engine's are _one_root_color
# of them.  Found and timeout rows are the engine's own.
ENGINE_ROWS = [
    ("Z", "t^2", 3, 183, None, "avoidance_found", 187, 130, "a55b10d0d9a0b546"),
    ("Z", "t^2", 3, 184, None, "forced", 1479, 1480, None),
    ("Z", "0;3t", 2, 44, None, "avoidance_found", 20, 12, "07c79ba24d2a3f3b"),
    ("Z", "0;3t", 2, 45, None, "forced", 54, 55, None),
    ("Z", "t;t^2", 2, 79, None, "avoidance_found", 18, 1, "68a1af4968b4abb0"),
    ("Z", "t;t^2", 2, 80, None, "forced", 70, 71, None),
    ("Z", "0;t;2t", 2, 150, None, "forced", 25906, 25907, None),
    ("GF(2)[x]", "0;t", 3, 9, 300, "timeout", 300, 284, None),
]


def _digest(colors):
    return None if colors is None else hashlib.sha256(bytes(colors)).hexdigest()[:16]


def _one_root_color(r, nodes, backtracks):
    """A forced search's (nodes, backtracks) once its first decision takes
    color 1 only, from its counts with all r colors tried there: each root
    color opened an isomorphic subtree, and the root's exhaustion was one
    more backtrack, so one subtree is left."""
    assert nodes % r == 0 and (backtracks - 1) % r == 0
    return nodes // r, (backtracks - 1) // r + 1


@pytest.mark.parametrize("ring, fam_text, r, n, budget, status, nodes, backtracks, avoider", ENGINE_ROWS)
def test_engine_rows_frozen(ring, fam_text, r, n, budget, status, nodes, backtracks, avoider):
    spec = parse_ring_spec(ring)
    inst = build_instance(enumerate_window(spec, WindowParams(n)), r, parse_family(spec, fam_text))
    res = avoidance_backtrack(inst, budget)
    colors = None if res.coloring is None else res.coloring.colors
    if status == "forced":
        nodes, backtracks = _one_root_color(r, nodes, backtracks)
    assert (res.status.value, res.nodes, res.backtracks, _digest(colors)) == (
        status, nodes, backtracks, avoider)


@pytest.mark.parametrize("t, n, r, status, nodes, backtracks, avoider", [
    (3, 3, 2, "avoidance_found", 18, 3, "0535a2f331ee3e1f"),
    (2, 3, 3, "forced", 9, 10, None),  # all r colors at the root, as in ENGINE_ROWS
])
def test_cube_engine_rows_frozen(t, n, r, status, nodes, backtracks, avoider):
    # the cube's lines as index sets, cells in order, as find_avoiding_coloring runs them
    from monochrome.halesjewett import _line_cells

    st, colors, got_nodes, got_backtracks = search._avoid(_line_cells(t, n), range(t**n), t**n, r, None)
    if status == "forced":
        nodes, backtracks = _one_root_color(r, nodes, backtracks)
    assert (st.value, got_nodes, got_backtracks, _digest(colors)) == (status, nodes, backtracks, avoider)


def test_a_budget_decides_the_forced_search_in_one_root_subtree():
    # 0;3t at N=45 is forced once color 1 at the first decision is refuted,
    # in 27 nodes; color 2 there is never tried
    inst = build_instance(zwindow(45), 2, parse_family(Z, "0;3t"))
    res = avoidance_backtrack(inst, 27)
    assert (res.status, res.nodes) == (AvoidanceStatus.FORCED, 27)
    assert avoidance_backtrack(inst, 26).status is AvoidanceStatus.TIMEOUT


# ---------------------------------------------------------------------------
# Differential tests against the engines before propagation
# (tests/_reference_engines.py: the plain backtracker and the rescanning DPLL)

DIFF_FAMILIES = ("t", "0;t", "t^2", "2t", "0;3t", "t^3", "t;t^2")
DEGENERATE = ScanConstraints(
    exclude_y=frozenset({Z.zero, Z.one}),
    exclude_x=frozenset({Z.zero}),
    forbid_degenerate=False,
)


@functools.lru_cache(maxsize=None)
def _diff_instances() -> tuple:
    """Z {1..N}, N <= 30, r = 1..3, seven families, with and without
    one-element candidates: ((family, N, r, degenerate?), instance) pairs."""
    out = []
    for fam_text in DIFF_FAMILIES:
        fam = parse_family(Z, fam_text)
        for n in range(1, 31):
            w = zwindow(n)
            for constraints in (None, DEGENERATE):
                for r in (1, 2, 3):
                    out.append(((fam_text, n, r, constraints is not None),
                                build_instance(w, r, fam, constraints)))
    return tuple(out)


# the plain backtracker needs ~3e6 nodes for t^3, r=3, N=30 with one-element
# candidates (forced at the root with propagation); beyond this cap a
# reference run counts as timed out and only the budgeted sweep compares
REFERENCE_CAP = 20_000


def test_backtracker_matches_the_plain_backtracker():
    compared = 0
    for label, inst in _diff_instances():
        ref = reference_backtrack(inst, REFERENCE_CAP)
        new = avoidance_backtrack(inst)
        if ref.status is AvoidanceStatus.TIMEOUT:
            assert new.status is not AvoidanceStatus.TIMEOUT, label
            continue
        assert (new.status, new.coloring) == (ref.status, ref.coloring), label
        assert new.nodes <= ref.nodes, label
        compared += 1
    assert compared >= 1240


def test_budgeted_backtracker_matches_the_plain_backtracker():
    for label, inst in _diff_instances():
        unlimited = avoidance_backtrack(inst)
        for budget in range(21):
            ref = reference_backtrack(inst, budget)
            new = avoidance_backtrack(inst, budget)
            assert new.nodes <= budget, (label, budget)
            if ref.status is not AvoidanceStatus.TIMEOUT:
                assert (new.status, new.coloring) == (ref.status, ref.coloring), (label, budget)
                assert new.nodes <= ref.nodes, (label, budget)
            elif new.status is not AvoidanceStatus.TIMEOUT:
                assert (new.status, new.coloring) == (unlimited.status, unlimited.coloring), (label, budget)


def test_dpll_matches_the_rescanning_dpll_on_instance_cnfs():
    for label, inst in _diff_instances():
        doc = cnf_export(inst)
        assert dpll_sat(doc.num_vars, doc.clauses) == reference_dpll(doc.num_vars, doc.clauses), label


def test_dpll_matches_the_rescanning_dpll_on_random_cnfs():
    # duplicate literals, tautologies, unit and empty clauses included
    rng = random.Random(606)
    sat = 0
    for k in range(400):
        nv = rng.randint(1, 14)
        clauses = []
        for _ in range(rng.randint(0, 45)):
            width = rng.choice((0, 1, 2, 2, 3, 3, 3, 4)) if k % 10 == 0 else rng.randint(1, 4)
            clauses.append(tuple(rng.choice((-1, 1)) * rng.randint(1, nv) for _ in range(width)))
        model = dpll_sat(nv, clauses)
        assert model == reference_dpll(nv, clauses), (nv, clauses)
        if model is not None:
            sat += 1
            assert model_satisfies(model, clauses)
    assert 50 < sat < 350  # both outcomes well represented


def test_propagation_cuts_the_forced_search():
    # t;t^2 at N=80 took 219,154 nodes without propagation, and 70 (71
    # backtracks) with propagation and both colors tried at the root
    res = avoidance_backtrack(build_instance(zwindow(80), 2, parse_family(Z, "t;t^2")))
    assert res.status is AvoidanceStatus.FORCED
    assert (res.nodes, res.backtracks) == _one_root_color(2, 70, 71)


def test_found_colorings_give_the_heaviest_position_color_1():
    # the first decision is the heaviest position, (-weight, index) first
    found = 0
    for label, inst in _diff_instances():
        res = avoidance_backtrack(inst)
        if res.status is AvoidanceStatus.FOUND and inst.index_sets:
            weight = Counter(itertools.chain.from_iterable(inst.index_sets))
            heaviest = min(weight, key=lambda i: (-weight[i], i))
            assert res.coloring.colors[heaviest] == 1, label
            found += 1
    assert found >= 440


def test_one_element_candidate_forces_at_the_root():
    res = avoidance_backtrack(build_instance(zwindow(4), 2, LINEAR, DEGENERATE), budget=0)
    assert res.status is AvoidanceStatus.FORCED and res.nodes == 0


@pytest.mark.parametrize("fam_text, threshold", [("t;t^2", 80), ("0;t^2", 88)])
def test_thresholds_beyond_the_plain_backtracker(fam_text, threshold):
    # frozen: both engines agree on each side of the boundary
    fam = parse_family(Z, fam_text)
    res = moreira_number(2, fam, 128)
    assert res.status == "found" and res.n == threshold
    below = dual_engine_check(build_instance(zwindow(threshold - 1), 2, fam))
    at = dual_engine_check(build_instance(zwindow(threshold), 2, fam))
    assert below["backtrack"] == "avoidance_found" and below["cnf_sat"] is True
    assert at["backtrack"] == "forced" and at["cnf_sat"] is False
    assert below["agree"] is True and at["agree"] is True
