"""Avoidance-coloring search, CNF export/decode, least-window thresholds,
and the reference DPLL used for cross-checking."""

import functools
import hashlib
import itertools
import random
import sys

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
from monochrome.dpll import dpll_sat, model_satisfies
from _reference_engines import reference_backtrack, reference_dpll

Z = parse_ring_spec("Z")
ZI = parse_ring_spec("Zi")
GF2 = parse_ring_spec("GF(2)[x]")

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


def test_empty_instance_single_color_found():
    res = avoidance_backtrack(build_instance(zwindow(1), 1, LINEAR))
    assert res.status is AvoidanceStatus.FOUND
    assert res.coloring.colors == (1,)


def test_unconstrained_elements_get_first_color():
    res = avoidance_backtrack(build_instance(zwindow(4), 2, LINEAR))
    # element 1 occurs in no candidate at N=4
    assert res.coloring.color_of(Z.integer(1)) == 1


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
    # elements 2 and 3 share color 1: candidate {2,3} monochromatic
    with pytest.raises(RuntimeError):
        cnf_model_decode([1, -2, 3, -4, 5, -6], inst)


# ---------------------------------------------------------------------------
# Dual engine


def test_engines_agree_on_small_sweep():
    for n in range(1, 9):
        for fam in (LINEAR, TRIPLE):
            report = dual_engine_check(build_instance(zwindow(n), 2, fam))
            assert report["agree"] is True


def test_dual_engine_timeout_leaves_agreement_open():
    report = dual_engine_check(build_instance(zwindow(6), 2, LINEAR), budget=0)
    assert report["backtrack"] == "timeout"
    assert report["agree"] is None


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
        for size, avoidable in ((threshold - 1, True), (threshold, False)):
            window = enumerate_window(spec, WindowParams(size))
            if len(window) <= 16:
                got = _avoidable_by_enumeration(window, fam)
            else:
                got = reference_backtrack(build_instance(window, 2, fam)).status is AvoidanceStatus.FOUND
            assert got is avoidable, (ring, fam_text, size)


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
    # t;t^2 at N=80 took 219,154 nodes without propagation
    res = avoidance_backtrack(build_instance(zwindow(80), 2, parse_family(Z, "t;t^2")))
    assert res.status is AvoidanceStatus.FORCED
    assert res.nodes == 70


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
