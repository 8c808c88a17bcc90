"""End-to-end acceptance checks.

One test per criterion; each prints a single summary line and enforces its
runtime budget.  Derived quantities are frozen here after being recomputed
by the independent oracles embedded in the tests themselves.
"""

import itertools
import random
import time

from monochrome import (
    AvoidanceStatus,
    PSWitness,
    WindowParams,
    abundance_profile,
    avoidance_backtrack,
    build_instance,
    cnf_export,
    dilate_set,
    dilation_transport,
    division_transport,
    dual_engine_check,
    enumerate_window,
    exclusion_set,
    find_avoiding_coloring,
    grow_ufp,
    has_ufp,
    hj_number_exhaustive,
    ipstar_refute,
    line_of,
    moreira_number,
    parse_family,
    parse_ring_spec,
    random_coloring,
    sigma_trials,
    validate_ps_witness,
    variable_words,
    witness_scan,
)

Z = parse_ring_spec("Z")
ZI = parse_ring_spec("Zi")
GF2 = parse_ring_spec("GF(2)[x]")


def report(name, detail, elapsed, budget):
    print(f"[PASS] {name}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


# ---------------------------------------------------------------------------
# 1. Layered-embedding identity suite: 1000 randomized instances per ring,
#    coordinate sets, base points and entries drawn per seed, d <= 3, N <= 3.


def test_01_embedding_identity_suite():
    budget = 10.0
    rings = (
        (Z, WindowParams(20), ("2t", "t^2+3t", "2t^3+t")),
        (ZI, WindowParams(3), ("(1+1i)t", "t^2+(1+2i)t", "t^3+(2+1i)t")),
        (GF2, WindowParams(4), ("t", "t^2+t", "t^3+t^2+t")),
    )
    t0 = time.monotonic()
    per_ring = []
    for spec, params, family_texts in rings:
        pool = enumerate_window(spec, params)
        instances = 0
        checks = 0
        seed = 0
        while instances < 1000:
            for fam_text in family_texts:
                fam = parse_family(spec, fam_text)
                for n in (1, 2, 3):
                    for trial in sigma_trials(fam, pool, n, None, 13, seed):
                        instances += 1
                        for chk in trial:
                            checks += 1
                            assert chk.ok, (
                                f"identity failed: {spec} {fam_text} "
                                f"lhs={chk.lhs} rhs={chk.rhs}"
                            )
                    seed += 1
        per_ring.append(instances)
        assert instances >= 1000
        assert checks >= instances
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(
        "criterion 1 identity suite",
        f"instances per ring {per_ring}, all exact",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------
# 2. Tiny exhaustive threshold with an independent double-loop oracle over
#    all 16 colorings x 5 lines of the 2x2 cube.


def test_02_exhaustive_threshold_desk_scale():
    budget = 1.0
    t0 = time.monotonic()
    res = hj_number_exhaustive(2, 2, 3)
    assert res.status == "found" and res.n == 2

    status, avoider = find_avoiding_coloring(2, 2, 1)
    assert status is AvoidanceStatus.FOUND and avoider == (1, 2)

    # oracle: every 2-coloring of the 16-point space meets a one-color line
    def cells(n):  # oracle cell order: itertools' lexicographic enumeration of [2]^n
        return {letters: k for k, letters in enumerate(itertools.product((1, 2), repeat=n))}

    cell = cells(2)
    assert len(cell) == 4
    lines = [[cell[w.letters] for w in line_of(vw)] for vw in variable_words(2, 2)]
    assert len(lines) == 5
    colorings_checked = 0
    for colors in itertools.product((1, 2), repeat=4):
        colorings_checked += 1
        assert any(len({colors[i] for i in idx}) == 1 for idx in lines)
    assert colorings_checked == 16

    # and at side length 1 the emitted coloring defeats the single line
    single_line = [cells(1)[w.letters] for w in line_of(next(variable_words(2, 1)))]
    assert len({avoider[i] for i in single_line}) == 2

    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(
        "criterion 2 exhaustive threshold",
        "threshold 2, side-1 avoider (1, 2), oracle over 16 colorings x 5 lines",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------
# 3. Backtracker vs reference DPLL over the full sweep.


def test_03_dual_engine_sweep():
    budget = 60.0
    t0 = time.monotonic()
    families = [parse_family(Z, text) for text in ("t", "0;t", "t^2")]
    instances = 0
    for n in range(1, 13):
        w = enumerate_window(Z, WindowParams(n))
        for r in (2, 3):
            for fam in families:
                got = dual_engine_check(build_instance(w, r, fam))
                instances += 1
                assert got["agree"] is True, f"N={n} r={r} {fam}"
    elapsed = time.monotonic() - t0
    assert instances == 72
    assert elapsed < budget
    report(
        "criterion 3 dual-engine sweep",
        f"{instances} instances, zero disagreements",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------
# 4. Least forced window sizes with dual-engine cross-checks at the boundary.


def test_04_least_forced_window_sizes():
    budget = 60.0
    t0 = time.monotonic()
    linear = parse_family(Z, "t")
    triple = parse_family(Z, "0;t")

    res_linear = moreira_number(2, linear, 64)
    assert res_linear.status == "found" and res_linear.n == 8

    res_triple = moreira_number(2, triple, 64)
    assert res_triple.status == "found" and res_triple.n == 15

    for fam, n in ((linear, 8), (triple, 15)):
        below = dual_engine_check(
            build_instance(enumerate_window(Z, WindowParams(n - 1)), 2, fam)
        )
        at = dual_engine_check(
            build_instance(enumerate_window(Z, WindowParams(n)), 2, fam)
        )
        assert below["backtrack"] == "avoidance_found" and below["cnf_sat"] is True
        assert at["backtrack"] == "forced" and at["cnf_sat"] is False
        assert below["agree"] is True and at["agree"] is True

    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(
        "criterion 4 least forced windows",
        "two colors: linear family 8, sum-product triple 15, both dual-checked",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------
# 5. Transport exactness: 500 randomized dilations and round-trip divisions
#    per ring, every witness re-validated.


def rand_elem(spec, rng):
    if spec is Z:
        return spec.integer(rng.randint(-30, 30))
    if spec is ZI:
        return spec.gaussian(rng.randint(-6, 6), rng.randint(-6, 6))
    return spec.poly([rng.randrange(spec.q) for _ in range(rng.randint(0, 3))])


def test_05_transport_exactness():
    budget = 10.0
    t0 = time.monotonic()
    rng = random.Random(2025)
    for spec in (Z, ZI, GF2):
        validated = 0
        for _ in range(500):
            gaps = {rand_elem(spec, rng) for _ in range(rng.randint(1, 3))}
            block = {rand_elem(spec, rng) for _ in range(rng.randint(1, 4))}
            anchor = rand_elem(spec, rng)
            target = set()
            for b in block:
                t = rng.choice(sorted(gaps, key=lambda e: e.sort_key()))
                target.add(t + b + anchor)
            for _ in range(rng.randint(0, 3)):
                target.add(rand_elem(spec, rng))
            target = frozenset(target)
            witness = PSWitness(frozenset(gaps), frozenset(block), anchor)
            assert validate_ps_witness(witness, target)

            r = rand_elem(spec, rng)
            while r.is_zero():
                r = rand_elem(spec, rng)
            moved = dilation_transport(witness, r)
            assert validate_ps_witness(moved, dilate_set(target, r))

            back = division_transport(moved, r)
            assert back == witness
            validated += 1
        assert validated == 500
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(
        "criterion 5 transport exactness",
        "500 dilation + round-trip division validations per ring",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------
# 6. Sampling evidence for multiples being unavoidable by subset sums, plus
#    a quick refutation of the odd numbers.


def test_06_subset_sum_sampling_evidence():
    budget = 10.0
    t0 = time.monotonic()
    draws = enumerate_window(Z, WindowParams(100))
    ambient = enumerate_window(Z, WindowParams(1200))
    for n in range(2, 13):
        target = frozenset(e for e in ambient.elements if e.val % n == 0)
        assert ipstar_refute(target, draws, n, 200, n) is None, f"n={n}"

    odds_window = enumerate_window(Z, WindowParams(100))
    odds = frozenset(e for e in odds_window.elements if e.val % 2 == 1)
    seq = ipstar_refute(odds, odds_window, 1, 5, 0)
    assert seq is not None
    assert [e.val for e in seq] == [36]

    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(
        "criterion 6 subset-sum sampling",
        "multiples 2..12 never refuted in 200 samples each; odds refuted by [36]",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------
# 7. Distinct-subset-product growth to length 10 plus exclusion-set bounds.


def test_07_product_uniqueness_suite():
    budget = 10.0
    t0 = time.monotonic()

    wz = enumerate_window(Z, WindowParams(10000))
    seq_z = grow_ufp(Z.integer(2), wz, 10)
    assert [e.val for e in seq_z.elements] == [2, 3, 4, 5, 7, 9, 11, 13, 16, 17]
    assert has_ufp(seq_z) is None
    fp = seq_z.fp_set()
    assert len(fp) == 1023
    assert Z.zero not in fp and Z.one not in fp

    wg = enumerate_window(GF2, WindowParams(8))
    seq_g = grow_ufp(GF2.poly((0, 1)), wg, 10)
    assert has_ufp(seq_g) is None
    fp_g = seq_g.fp_set()
    assert len(fp_g) == 1023
    assert GF2.zero not in fp_g and GF2.one not in fp_g

    rng = random.Random(99)
    checked = 0
    for spec in (Z, ZI, GF2):
        for _ in range(167):
            b = set()
            while len(b) < rng.randint(1, 5):
                e = rand_elem(spec, rng)
                if not e.is_zero():
                    b.add(e)
            c = exclusion_set(b)
            base = set(b) | {spec.one}
            for x in c:
                assert any(x * alpha in base for alpha in base)
            assert len(c) <= (len(b) + 1) ** 2
            checked += 1
    assert checked >= 500

    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(
        "criterion 7 product uniqueness",
        f"two length-10 growths verified (1023 products each), {checked} exclusion sets bounded",
        elapsed,
        budget,
    )


# ---------------------------------------------------------------------------
# 8. Scan and abundance agree with a from-scratch double loop on large
#    windows in all three rings.


def oracle_scan(window, colors, family):
    """Recount witnesses without the library scanner: explicit polynomial
    evaluation, dedup, membership and color comparison."""
    spec = window.spec
    zero, one = spec.zero, spec.one
    color_of = dict(zip(window.elements, colors))
    hits = []
    for y in window.elements:
        if y == zero or y == one:
            continue
        f_vals = []
        for f in family.polys:
            acc = spec.zero
            for degree, coeff in f.terms:
                p = y
                for _ in range(degree - 1):
                    p = p * y
                acc = acc + coeff * p
            f_vals.append(acc)
        for x in window.elements:
            if x == zero:
                continue
            elems = [x * y]
            for fv in f_vals:
                e = x + fv
                if e not in elems:
                    elems.append(e)
            if len(elems) == 1:
                continue
            first = color_of.get(elems[0])
            if first is None:
                continue
            ok = True
            for e in elems[1:]:
                c = color_of.get(e)
                if c != first:
                    ok = False
                    break
            if ok:
                hits.append((x, y, first))
    return hits


def test_08_oracle_equivalence_large_windows():
    budget = 30.0
    t0 = time.monotonic()
    setups = (
        (Z, WindowParams(350)),
        (ZI, WindowParams(8)),
        (GF2, WindowParams(8)),
    )
    family_texts = ("t", "0;t", "2t^2+t")
    totals = []
    for spec, params in setups:
        window = enumerate_window(spec, params)
        assert len(window) <= 500
        coloring = random_coloring(window, 2, 42)
        for fam_text in family_texts:
            family = parse_family(spec, fam_text)
            expected = oracle_scan(window, coloring.colors, family)
            got = [(w.x, w.y, w.color) for w in witness_scan(coloring, family)]
            assert got == expected, f"{spec} {fam_text}"
            totals.append(len(got))

            by_y = {}
            for x, y, c in expected:
                by_y.setdefault(y, {1: set(), 2: set()})[c].add(x)
            for y in window.elements:
                if y == spec.zero or y == spec.one:
                    continue
                profile = abundance_profile(coloring, family, y)
                assert profile == by_y.get(y, {1: set(), 2: set()})
    assert totals == [944, 474, 376, 2197, 1088, 793, 760, 381, 760]
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(
        "criterion 8 oracle equivalence",
        f"scan + abundance recounted from scratch, witness totals {totals}",
        elapsed,
        budget,
    )
