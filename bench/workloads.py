"""The benchmark's three workloads: task lists, their set-up and their checks.

A workload is built in two halves:

* ``expected_<name>(seed)`` computes what every task must return, from
  the independent oracles in ``oracle.py``; it never imports
  ``monochrome`` and runs once per process, untimed.
* ``setup_<name>(mono, seed, outdir, expected)`` takes the freshly
  imported package, parses specs and families, enumerates windows and
  draws colorings (all of it timed as ``setup_s``), and returns the
  round's task list.

A task's ``run`` is the timed call into the program; its ``check``
compares the result with the expectation and raises
``oracle.CheckFailed`` on a mismatch.  A task whose ``run`` reports a
failure (the CLI's nonzero exit on a usage error) returns ``FAILED``
from ``check`` and is counted, not treated as wrong output.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os

import oracle
from oracle import CheckFailed, expect

FAILED = "failed"


class Task:
    """One timed operation of a round."""

    __slots__ = ("name", "run", "check", "before")

    def __init__(self, name, run, check, before=None):
        self.name = name
        self.run = run
        self.check = check
        self.before = before  # untimed preparation, e.g. writing an input file


def _raw_witnesses(witnesses) -> list:
    return [(w.x.val, w.y.val, w.color) for w in witnesses]


def check_witnesses(got: list, expected: list, label: str) -> None:
    """The full, ordered witness list must match the oracle's."""
    if got == expected:
        return
    for k, (g, e) in enumerate(zip(got, expected)):
        if g != e:
            raise CheckFailed(f"{label}: witness #{k} is {g}, oracle says {e}")
    raise CheckFailed(f"{label}: {len(got)} witnesses, oracle says {len(expected)}")


def check_threshold(result, expected_n: int, label: str) -> None:
    """moreira_number found expected_n, and its probe trace is consistent
    with it: every probed N below is avoidable, every N from it on forced."""
    expect(result.status == "found", f"{label}: status {result.status}")
    expect(result.n == expected_n, f"{label}: threshold {result.n}, oracle says {expected_n}")
    for n, status in result.trace:
        want = "avoidance_found" if n < expected_n else "forced"
        expect(status.value == want, f"{label}: probe N={n} gave {status.value}, expected {want}")


# ---------------------------------------------------------------------------
# scan: witness_scan and abundance_profile on large seeded windows

SCAN_CASES = (
    # ring, window, colors, family
    ("Z", "N=300", 2, "t"),
    ("Z", "N=150,signed", 3, "0;t"),
    ("Zi", "B=8", 2, "2t^2+t"),
    ("GF(2)[x]", "d=8", 2, "0;t"),
    ("GF(3)[x]", "d=5", 3, "2t^2+t"),
)
# abundance_profile is asked about the elements at these window positions
# (positions holding 0 or 1 are skipped)
ABUNDANCE_POSITIONS = (2, 3, 5, 8)


def _scan_seed(seed: int, case: int) -> int:
    return seed * 1000 + case


def _abundance_ys(elements: list, ring) -> list:
    return [elements[k] for k in ABUNDANCE_POSITIONS if elements[k] not in (ring.zero, ring.one)]


def expected_scan(seed: int) -> list:
    out = []
    for k, (ring_text, window, r, fam) in enumerate(SCAN_CASES):
        ring = oracle.Ring(ring_text)
        cw = oracle.Colored.seeded(ring, window, r, _scan_seed(seed, k))
        witnesses = oracle.scan(cw, oracle.parse_family(ring, fam))
        by_y = oracle.group_by_y(witnesses, r)
        empty = {c: set() for c in range(1, r + 1)}
        profiles = [(y, by_y.get(y, empty)) for y in _abundance_ys(cw.elements, ring)]
        out.append((witnesses, profiles))
    return out


def setup_scan(mono, seed: int, outdir: str, expected: list) -> list:
    tasks = []
    asks = []  # (coloring, family, ys, oracle profiles, label) for abundance_profile
    for k, (ring_text, window, r, fam) in enumerate(SCAN_CASES):
        spec = mono.parse_ring_spec(ring_text)
        win = mono.enumerate_window(spec, mono.parse_window_params(spec, window))
        family = mono.parse_family(spec, fam)
        coloring = mono.random_coloring(win, r, _scan_seed(seed, k))
        witnesses, profiles = expected[k]
        label = f"{ring_text} {window} r={r} F={fam}"
        by_val = {e.val: e for e in win.elements}
        asks.append((coloring, family, [by_val[y] for y, _ in profiles], profiles, label))
        tasks.append(Task(
            f"witness_scan {label}",
            lambda c=coloring, f=family: list(mono.witness_scan(c, f)),
            lambda got, exp=witnesses, lb=label: check_witnesses(_raw_witnesses(got), exp, lb),
        ))

    def abundance():
        return [[mono.abundance_profile(c, f, y) for y in ys] for c, f, ys, _, _ in asks]

    def check_abundance(got):
        for (_, _, _, profiles, label), profs in zip(asks, got):
            for (y, want), prof in zip(profiles, profs):
                have = {c: {x.val for x in xs} for c, xs in prof.items()}
                expect(have == want, f"{label}: abundance at y={y} differs from the grouped scan")

    tasks.append(Task("abundance_profile", abundance, check_abundance))
    return tasks


# ---------------------------------------------------------------------------
# threshold: least forced windows over Z, dual engines, budgeted search, CNF

MOREIRA_CASES = (
    # one task each: (family, max N), r = 2
    (("t", 128), ("0;t", 128), ("t^2", 128), ("2t", 128)),  # small thresholds
    (("t^3", 128),),   # build-heavy: build_instance dominates
    (("0;3t", 128),),  # search-heavy: the backtracker dominates
)
# thresholds up to this size are confirmed by enumerating all r^N colorings
EXHAUSTIVE_MAX = 16
# windows {1..N} given to dual_engine_check, r = 2
DUAL_CASES = (("t", 7), ("t", 8), ("0;t", 14), ("0;t", 15),
              ("t^2", 11), ("t^2", 12), ("2t", 9), ("2t", 10))
# budgeted 3-color searches (family, N, budget); each must find an avoider
BUDGET_CASES = (("0;t", 60, 100_000), ("0;t", 90, 100_000), ("0;t", 120, 100_000))
# CNF round trip instance (family, N, r)
CNF_CASE = ("0;t", 120, 3)


def _z_family(text: str) -> list:
    return oracle.parse_family(oracle.Ring("Z"), text)


@functools.lru_cache(maxsize=None)
def _z_candidates(fam: str, n: int) -> list:
    return oracle.candidates(n, _z_family(fam))


def expected_threshold(seed: int) -> dict:
    """Exhaustive verdicts for the small windows.  The larger thresholds
    cannot be enumerated; the checks confirm them in ``confirm_threshold``."""
    del seed  # the threshold workload has no random inputs
    verdicts = {}

    def avoidable(fam: str, n: int) -> bool:
        key = (fam, n)
        if key not in verdicts:
            verdicts[key] = oracle.exhaustive_avoidable(n, 2, _z_candidates(fam, n))
        return verdicts[key]

    thresholds = {}
    for fam, max_n in (case for group in MOREIRA_CASES for case in group):
        for n in range(1, EXHAUSTIVE_MAX + 1):
            if not avoidable(fam, n):
                thresholds[fam] = n
                break
    for fam, n in DUAL_CASES:
        expect(n <= EXHAUSTIVE_MAX, "dual-engine windows must be small enough to enumerate")
        avoidable(fam, n)
    return {"thresholds": thresholds, "verdicts": verdicts, "confirmed": {}}


def confirm_threshold(mono, fam: str, n: int, confirmed: dict) -> int:
    """Confirm a threshold above EXHAUSTIVE_MAX: the program's avoider at
    N-1 passes the oracle's checker, and dpll_sat finds the oracle's own
    CNF at N unsatisfiable.  Cached per (family, N)."""
    key = (fam, n)
    if key not in confirmed:
        spec = mono.parse_ring_spec("Z")
        below = mono.build_instance(
            mono.enumerate_window(spec, mono.WindowParams(n - 1)), 2,
            mono.parse_family(spec, fam))
        res = mono.avoidance_backtrack(below)
        expect(res.coloring is not None, f"F={fam}: no avoider returned at N={n - 1}")
        expect(oracle.avoids(res.coloring.colors, _z_candidates(fam, n - 1)),
               f"F={fam}: the avoider at N={n - 1} has a monochromatic instance")
        clauses = oracle.cnf_clauses(n, 2, _z_candidates(fam, n))
        model = mono.dpll.dpll_sat(2 * n, clauses)
        expect(model is None, f"F={fam}: dpll_sat satisfies the oracle's CNF at N={n}")
        confirmed[key] = n
    return confirmed[key]


def setup_threshold(mono, seed: int, outdir: str, expected: dict) -> list:
    del seed, outdir
    spec = mono.parse_ring_spec("Z")
    families = {fam: mono.parse_family(spec, fam)
                for fam in {c[0] for c in sum(MOREIRA_CASES, ()) + DUAL_CASES + BUDGET_CASES}
                | {CNF_CASE[0]}}
    windows = {n: mono.enumerate_window(spec, mono.WindowParams(n))
               for n in {c[1] for c in DUAL_CASES + BUDGET_CASES} | {CNF_CASE[1]}}
    tasks = []

    for group in MOREIRA_CASES:
        def moreira(group=group):
            return [mono.moreira_number(2, families[fam], max_n) for fam, max_n in group]

        def check_moreira(got, group=group):
            for (fam, _), res in zip(group, got):
                n = expected["thresholds"].get(fam)
                if n is None:
                    expect(res.n > EXHAUSTIVE_MAX, f"F={fam}: threshold {res.n} missed by enumeration")
                    n = confirm_threshold(mono, fam, res.n, expected["confirmed"])
                check_threshold(res, n, f"moreira_number F={fam}")

        tasks.append(Task("moreira_number " + " ".join(f"F={fam}" for fam, _ in group),
                          moreira, check_moreira))

    def dual():
        return [mono.dual_engine_check(mono.build_instance(windows[n], 2, families[fam]))
                for fam, n in DUAL_CASES]

    def check_dual(got):
        for (fam, n), rep in zip(DUAL_CASES, got):
            sat = expected["verdicts"][(fam, n)]
            label = f"dual_engine_check F={fam} N={n}"
            cands = _z_candidates(fam, n)
            expect(rep["backtrack"] == ("avoidance_found" if sat else "forced"),
                   f"{label}: backtracker says {rep['backtrack']}")
            expect(rep["cnf_sat"] is sat and rep["agree"] is True, f"{label}: {rep}")
            expect(rep["vars"] == 2 * n and rep["clauses"] == len(oracle.cnf_clauses(n, 2, cands)),
                   f"{label}: CNF size {rep['vars']} vars, {rep['clauses']} clauses")

    tasks.append(Task("dual_engine_check", dual, check_dual))

    def budgeted():
        return [mono.avoidance_backtrack(mono.build_instance(windows[n], 3, families[fam]), budget)
                for fam, n, budget in BUDGET_CASES]

    def check_budgeted(got):
        for (fam, n, budget), res in zip(BUDGET_CASES, got):
            label = f"avoidance_backtrack r=3 F={fam} N={n}"
            expect(res.status.value == "avoidance_found", f"{label}: {res.status.value}")
            expect(res.nodes <= budget, f"{label}: {res.nodes} nodes over the budget {budget}")
            expect(oracle.avoids(res.coloring.colors, _z_candidates(fam, n)),
                   f"{label}: the coloring has a monochromatic instance")

    tasks.append(Task("avoidance_backtrack r=3 budgeted", budgeted, check_budgeted))

    fam, n, r = CNF_CASE

    def cnf_round_trip():
        inst = mono.build_instance(windows[n], r, families[fam])
        doc = mono.cnf_export(inst)
        parsed = mono.parse_dimacs(mono.to_dimacs(doc))
        model = mono.dpll.dpll_sat(doc.num_vars, doc.clauses)
        decoded = mono.cnf_model_decode(model, inst)
        avoider = mono.avoidance_backtrack(inst).coloring
        redecoded = mono.cnf_model_decode(mono.coloring_to_model(avoider), inst)
        return doc, parsed, model, decoded.colors, avoider.colors, redecoded.colors

    def check_cnf(got):
        doc, parsed, model, decoded, avoider, redecoded = got
        label = f"CNF round trip F={fam} N={n} r={r}"
        clauses = oracle.cnf_clauses(n, r, _z_candidates(fam, n))
        expect(parsed == doc, f"{label}: parse_dimacs(to_dimacs(d)) != d")
        expect(list(doc.clauses) == clauses and doc.num_vars == n * r,
               f"{label}: the CNF differs from the documented encoding")
        expect(model is not None and oracle.satisfies(model, clauses),
               f"{label}: the DPLL model leaves a clause false")
        expect(decoded == oracle.model_colors(model, n, r), f"{label}: decoded coloring != model")
        expect(redecoded == avoider, f"{label}: decoding the encoded avoider changed it")

    tasks.append(Task(f"cnf round trip F={fam} N={n} r={r}", cnf_round_trip, check_cnf))
    return tasks


# ---------------------------------------------------------------------------
# toolkit: the README's command list through monochrome.cli.dispatch

# abundance --partial fails today with exit 2 (the flag does not exist);
# its inputs are fixed so that the failure does not depend on the seed
PARTIAL_ABUNDANCE = ("Z", "N=30", 2, 3, "t", 5)  # ring, window, r, seed, family, y
AVOID_CASE = ("0;3t", 44)  # search avoid / scan --coloring / cnf export / cnf decode
UFP_ELEMENTS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def expected_toolkit(seed: int) -> dict:
    z = oracle.Ring("Z")
    exp = {}
    cw = oracle.Colored.seeded(z, "N=200", 2, seed)
    exp["scan_partial"] = oracle.scan(cw, _z_family("0;t"), partial=True)
    cw = oracle.Colored.seeded(z, "N=150", 2, seed + 1)
    by_y = oracle.group_by_y(oracle.scan(cw, _z_family("t")), 2)
    exp["abundance"] = [(y, c, len(by_y.get(y, {}).get(c, ())))
                        for y in range(2, 151) for c in (1, 2)]
    _, window, r, pseed, fam, y = PARTIAL_ABUNDANCE
    cw = oracle.Colored.seeded(z, window, r, pseed)
    hits = oracle.scan(cw, _z_family(fam), partial=True, ys=[y])
    exp["abundance_partial"] = [(y, c, sum(1 for w in hits if w[2] == c)) for c in range(1, r + 1)]
    exp["avoid_cands"] = _z_candidates(*AVOID_CASE)
    exp["ufp_holds"] = oracle.subset_products_distinct(list(UFP_ELEMENTS))
    return exp


def _dispatch(mono, argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mono.cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _coloring_file(path: str) -> tuple:
    """Colors of a coloring file, read by its documented format."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return tuple(int(tok) for tok in " ".join(lines[3:]).split())


def _dimacs_clauses(path: str) -> tuple:
    header, clauses = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("c"):
                continue
            if line.startswith("p"):
                header = tuple(int(v) for v in line.split()[2:])
                continue
            lits = [int(v) for v in line.split()]
            expect(lits and lits[-1] == 0, f"{path}: clause line without a closing 0")
            clauses.append(tuple(lits[:-1]))
    return header, clauses


def _z_set(text: str, n: int) -> set:
    """The README's element-set presets over {1..N}: evens and ideal(m)."""
    m = 2 if text == "evens" else int(text[len("ideal("):-1])
    return {v for v in range(1, n + 1) if v % m == 0}


def setup_toolkit(mono, seed: int, outdir: str, expected: dict) -> list:
    p = lambda name: os.path.join(outdir, name)  # noqa: E731
    tasks = []

    def cli_task(name, argv, check, ok_codes=(0,), before=None):
        def run():
            return _dispatch(mono, argv)

        def checked(got):
            code, out, err = got
            expect(code in ok_codes, f"{name}: exit {code}: {err.strip()}")
            return check(out)

        tasks.append(Task(name, run, checked, before))

    def witness_rows(path):
        return [(int(w["x"]), int(w["y"]), w["color"]) for w in _report(path)["payload"]["witnesses"]]

    # scan --partial keeps the full O(|W|^2) loop
    def check_scan_partial(_):
        check_witnesses(witness_rows(p("scan_partial.json")), expected["scan_partial"], "scan --partial")

    cli_task("cli scan --partial",
             ["scan", "--ring", "Z", "--window", "N=200", "--colors", "2", "--seed", str(seed),
              "--F", "0;t", "--partial", "-o", p("scan_partial.json")], check_scan_partial)

    def check_abundance(_):
        rows = _csv_rows(p("abundance.csv"))
        expect(rows[0] == ["y", "color", "count"], f"abundance CSV header {rows[0]}")
        got = [(int(y), int(c), int(k)) for y, c, k in rows[1:]]
        expect(got == expected["abundance"], "abundance CSV differs from the grouped scan")

    cli_task("cli abundance --format csv",
             ["abundance", "--ring", "Z", "--window", "N=150", "--colors", "2", "--seed", str(seed + 1),
              "--F", "t", "--format", "csv", "-o", p("abundance.csv")], check_abundance)

    ring, window, r, pseed, fam, y = PARTIAL_ABUNDANCE

    def run_partial():
        return _dispatch(mono, ["abundance", "--ring", ring, "--window", window, "--colors", str(r),
                                "--seed", str(pseed), "--F", fam, "--y", str(y), "--partial",
                                "-o", p("abundance_partial.json")])

    def check_partial(got):
        code, _, err = got
        if code != 0:
            return FAILED
        rows = _report(p("abundance_partial.json"))["payload"]["rows"]
        have = [(int(row["y"]), row["color"], row["count"]) for row in rows]
        expect(have == expected["abundance_partial"], f"abundance --partial rows {have}")
        return None

    tasks.append(Task("cli abundance --partial", run_partial, check_partial))

    n_large = 2000
    evens = _z_set("evens", n_large)

    def check_syndetic(_):
        bad = next((w for w in range(1, n_large + 1) if not any(g + w in evens for g in (0, 1))), None)
        pay = _report(p("syndetic.json"))["payload"]
        expect(pay["holds"] is (bad is None), f"syndetic holds={pay['holds']}, oracle cover says {bad}")
        expect(pay["counterexample"] == (None if bad is None else str(bad)), "syndetic counterexample")

    cli_task("cli largeness syndetic",
             ["largeness", "syndetic", "--ring", "Z", "--window", f"N={n_large}",
              "--target", "evens", "--gaps", "{0,1}", "-o", p("syndetic.json")],
             check_syndetic, ok_codes=(0, 1))

    block = (1, 2, 3, 4, 5)

    def check_ps(_):
        # no anchor works (b + x and b + x + 1 miss ideal(3) for some b),
        # so the search walks the whole window
        target = _z_set("ideal(3)", n_large)
        anchor = next((x for x in range(1, n_large + 1)
                       if all(any(g + b + x in target for g in (0, 1)) for b in block)), None)
        pay = _report(p("ps_witness.json"))["payload"]
        expect(pay["found"] is (anchor is not None) and pay.get("anchor") == (anchor and str(anchor)),
               f"ps-witness {pay}, oracle anchor {anchor}")

    cli_task("cli largeness ps-witness",
             ["largeness", "ps-witness", "--ring", "Z", "--window", f"N={n_large}", "--target", "ideal(3)",
              "--gaps", "{0,1}", "--block", "{1,2,3,4,5}", "-o", p("ps_witness.json")], check_ps,
             ok_codes=(0, 1))

    ip_len, ip_samples, ip_window, ip_target_n = 4, 400, 100, 600

    def check_ipstar(_):
        target = {v for v in range(-ip_target_n, ip_target_n + 1) if v % 2 == 0}
        found = None
        for s in range(ip_samples):
            seq = [1 + oracle.stream_value(seed, s * ip_len + k) % ip_window for k in range(ip_len)]
            if not oracle.finite_sums(seq) & target:
                found = seq
                break
        pay = _report(p("ipstar.json"))["payload"]
        want = None if found is None else [str(v) for v in found]
        expect(pay["sequence"] == want, f"ipstar sequence {pay['sequence']}, oracle {want}")

    cli_task("cli largeness ipstar",
             ["largeness", "ipstar", "--ring", "Z", "--window", f"N={ip_window}",
              "--target-window", f"N={ip_target_n},signed", "--target", "evens",
              "--len", str(ip_len), "--samples", str(ip_samples), "--seed", str(seed),
              "-o", p("ipstar.json")], check_ipstar, ok_codes=(0, 1))

    def check_transport(_):
        by, anchor = 3, 1
        valid = lambda gaps, blk, x, tgt: all(any(g + b + x in tgt for g in gaps) for b in blk)  # noqa: E731
        pay = _report(p("transport.json"))["payload"]
        want = {
            "gaps": sorted(str(by * g) for g in (0, 1)),
            "block": sorted(str(by * b) for b in block),
            "anchor": str(by * anchor),
            "valid_before": valid((0, 1), block, anchor, evens),
            "valid_after": valid((0, by), [by * b for b in block], by * anchor, {by * v for v in evens}),
        }
        for key, value in want.items():
            expect(pay[key] == value, f"transport {key}={pay[key]}, oracle {value}")

    cli_task("cli largeness transport",
             ["largeness", "transport", "--ring", "Z", "--window", f"N={n_large}", "--mode", "dilate",
              "--gaps", "{0,1}", "--block", "{1,2,3,4,5}", "--anchor", "1", "--by", "3",
              "--target", "evens", "-o", p("transport.json")], check_transport)

    def check_hj22(_):
        pay = _report(p("hj22.json"))["payload"]
        expect(pay["status"] == "found" and pay["N"] == 2, f"HJ(2,2) = 2, got {pay}")

    cli_task("cli hj r=2 t=2", ["hj", "--colors", "2", "--alphabet", "2", "--maxN", "3",
                                "-o", p("hj22.json")], check_hj22)

    def check_hj23(_):
        # HJ(2,3) = 4: no side below 4 forces a line, so the search reports
        # an avoiding coloring of [3]^3, which must have no monochromatic line
        pay = _report(p("hj23.json"))["payload"]
        expect(pay["status"] == "not_found_within" and pay["N"] == 3, f"HJ(2,3) = 4, got {pay}")
        colors = pay["avoiding_coloring"]
        expect(len(colors) == 27 and not oracle.has_mono_line(colors, 3, 3),
               "hj: the avoiding coloring of [3]^3 has a monochromatic line")

    cli_task("cli hj r=2 t=3", ["hj", "--colors", "2", "--alphabet", "3", "--maxN", "3",
                                "--work-cap", str(10**10), "-o", p("hj23.json")], check_hj23,
             ok_codes=(1,))

    sigma_trials = 100

    def check_sigma(_):
        pay = _report(p("sigma.json"))["payload"]
        expect(pay["all_ok"] is True and pay["failures"] == 0 and pay["checks"] == sigma_trials,
               f"sigma: the embedding identity must hold in every trial, got {pay}")

    cli_task("cli sigma", ["sigma", "--ring", "GF(2)[x]", "--window", "d=3", "--F", "t^2+t",
                           "--n", "2", "--trials", str(sigma_trials), "--seed", str(seed),
                           "-o", p("sigma.json")], check_sigma)

    def check_ufp_verify(_):
        pay = _report(p("ufp_verify.json"))["payload"]
        expect(pay["holds"] is expected["ufp_holds"], f"ufp verify holds={pay['holds']}")

    cli_task("cli ufp verify", ["ufp", "verify", "--ring", "Z", "--elements",
                                ",".join(map(str, UFP_ELEMENTS)), "-o", p("ufp_verify.json")],
             check_ufp_verify)

    def check_ufp_grow(_):
        seq = [int(v) for v in _report(p("ufp_grow.json"))["payload"]["sequence"]]
        expect(len(seq) == 10 and seq[0] == 2 and all(1 < v <= 10_000 for v in seq),
               f"ufp grow sequence {seq}")
        expect(oracle.subset_products_distinct(seq), f"ufp grow: subset products collide in {seq}")

    cli_task("cli ufp grow", ["ufp", "grow", "--ring", "Z", "--window", "N=10000", "--start", "2",
                              "--length", "10", "-o", p("ufp_grow.json")], check_ufp_grow)

    afam, an = AVOID_CASE
    zargs = ["--ring", "Z", "--window", f"N={an}", "--colors", "2", "--F", afam]
    cands = expected["avoid_cands"]

    def check_avoid(_):
        pay = _report(p("avoid.json"))["payload"]
        colors = tuple(pay["coloring"])
        expect(pay["status"] == "avoidance_found" and oracle.avoids([c - 1 for c in colors], cands),
               "search avoid: the coloring has a monochromatic instance")
        expect(_coloring_file(p("avoid.txt")) == colors, "search avoid: saved file != reported coloring")

    cli_task("cli search avoid", ["search", "avoid", *zargs, "--save-coloring", p("avoid.txt"),
                                  "-o", p("avoid.json")], check_avoid)

    def check_scan_coloring(_):
        colors = _coloring_file(p("avoid.txt"))
        cw = oracle.Colored(oracle.Ring("Z"), f"N={an}", colors)
        check_witnesses(witness_rows(p("scan_coloring.json")), oracle.scan(cw, _z_family(afam)),
                        "scan --coloring")

    cli_task("cli scan --coloring", ["scan", "--coloring", p("avoid.txt"), *zargs,
                                     "-o", p("scan_coloring.json")], check_scan_coloring)

    def check_export(out):
        header, clauses = _dimacs_clauses(p("inst.cnf"))
        want = oracle.cnf_clauses(an, 2, cands)
        expect(header == (2 * an, len(want)) and clauses == want, "cnf export differs from the encoding")
        expect(json.loads(out)["payload"]["clauses"] == len(want), "cnf export report clause count")

    cli_task("cli cnf export", ["cnf", "export", *zargs, "-o", p("inst.cnf")], check_export)

    def write_model():
        with open(p("model.txt"), "w", encoding="utf-8") as fh:
            fh.write(oracle.model_text(_coloring_file(p("avoid.txt")), 2))

    def check_decode(_):
        pay = _report(p("decode.json"))["payload"]
        encoded = _coloring_file(p("avoid.txt"))
        expect(tuple(pay["colors"]) == encoded and pay["valid"] is True,
               "cnf decode: the decoded coloring differs from the encoded one")

    cli_task("cli cnf decode", ["cnf", "decode", *zargs, "--model", p("model.txt"),
                                "-o", p("decode.json")], check_decode, before=write_model)

    merged = ["scan_partial.json", "syndetic.json", "ps_witness.json", "ipstar.json",
              "transport.json", "hj22.json", "hj23.json", "sigma.json", "ufp_verify.json",
              "ufp_grow.json", "avoid.json", "decode.json"]

    def check_report(_):
        rows = _csv_rows(p("summary.csv"))
        expect(rows[0][:4] == ["file", "command", "timestamp", "status"], f"report header {rows[0]}")
        expect(len(rows) == len(merged) + 1, f"report has {len(rows) - 1} rows for {len(merged)} files")
        for name, row in zip(merged, rows[1:]):
            rep = _report(p(name))
            expect(row[0] == p(name) and row[1] == rep["command"] and row[3] == rep["status"],
                   f"report row for {name}: {row[:4]}")

    cli_task("cli report", ["report", *[p(n) for n in merged], "-o", p("summary.csv")], check_report)
    return tasks


WORKLOADS = {
    "scan": (expected_scan, setup_scan),
    "threshold": (expected_threshold, setup_threshold),
    "toolkit": (expected_toolkit, setup_toolkit),
}
