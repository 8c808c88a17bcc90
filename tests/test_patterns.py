"""Pattern family {x*y} + {x + f(y)}: evaluation, scanning, abundance, literals."""

import itertools
import random
import re

import pytest

from monochrome import (
    Coloring,
    PatternVerdict,
    RingElement,
    ScanConstraints,
    WindowParams,
    abundance_profile,
    enumerate_window,
    eval_poly,
    format_element,
    format_family,
    format_poly,
    make_family,
    parse_element,
    parse_family,
    parse_poly,
    parse_ring_spec,
    pattern_color,
    pattern_elements,
    random_coloring,
    witness_scan,
    zero_const_poly,
)
from monochrome.prng import stream_value

Z = parse_ring_spec("Z")
ZI = parse_ring_spec("Zi")
GF2 = parse_ring_spec("GF(2)[x]")
GF3 = parse_ring_spec("GF(3)[x]")


def rand_elem(spec, rng):
    if spec is Z:
        return spec.integer(rng.randint(-20, 20))
    if spec is ZI:
        return spec.gaussian(rng.randint(-5, 5), rng.randint(-5, 5))
    return spec.poly([rng.randrange(spec.q) for _ in range(rng.randint(0, 3))])


def parity_coloring(n):
    w = enumerate_window(Z, WindowParams(n))
    return Coloring(w, 2, tuple(1 + (k % 2) for k in range(1, n + 1)))


# ---------------------------------------------------------------------------
# Polynomials with zero constant term


def test_eval_poly_examples():
    f = parse_poly(Z, "t^2+2t")
    assert eval_poly(f, Z.integer(3)) == Z.integer(15)
    zero = parse_poly(Z, "0")
    assert eval_poly(zero, Z.integer(9)) == Z.zero
    frob = parse_poly(GF2, "t^2")
    assert eval_poly(frob, GF2.poly((1, 1))) == GF2.poly((1, 0, 1))


def test_eval_poly_at_zero_is_zero():
    rng = random.Random(1)
    for spec in (Z, ZI, GF3):
        f = zero_const_poly(spec, {1: rand_elem(spec, rng), 3: rand_elem(spec, rng)})
        assert eval_poly(f, spec.zero) == spec.zero


def repeated_product_eval(f, y):
    """f(y) from scratch: each term c*y^d with y^d as d - 1 products."""
    acc = f.spec.zero
    for degree, coeff in f.terms:
        p = y
        for _ in range(degree - 1):
            p = p * y
        acc = acc + coeff * p
    return acc


# ring, families, y literals: 0, 1, the units, and values outside any test window
SHARED_FAMILIES = ("t^5", "-t+t^3", "2t^2+t", "0", "t;t^2;t^3")
EVAL_CASES = [
    (Z, SHARED_FAMILIES, ("0", "1", "-1", "-7", "41", "-1000")),
    (ZI, SHARED_FAMILIES + ("(1+1i)t^3",), ("0", "1", "-1", "1i", "-1i", "4-3i", "-20+7i")),
    (GF2, SHARED_FAMILIES + ("(x+1)t^2+xt",), ("0", "1", "x", "x^5+x", "x^9+x^3+1")),
    (GF3, SHARED_FAMILIES + ("(x+1)t^2+xt",), ("0", "1", "2", "2x^3+1", "x^7+2x+2")),
]


@pytest.mark.parametrize("spec, families, ys", EVAL_CASES, ids=[c[0].name for c in EVAL_CASES])
def test_eval_poly_matches_repeated_multiplication(spec, families, ys):
    from monochrome.patterns import _raw_evaluator

    for text in families:
        family = parse_family(spec, text)
        evaluate = _raw_evaluator(family)  # the kernel's: powers shared across f
        for y in (parse_element(spec, lit) for lit in ys):
            want = [repeated_product_eval(f, y) for f in family]
            assert [eval_poly(f, y) for f in family] == want, (text, y)
            assert evaluate(y.val) == [v.val for v in want], (text, y)


def test_constant_term_rejected():
    with pytest.raises(ValueError):
        zero_const_poly(Z, {0: Z.integer(1)})


def test_zero_coefficients_dropped():
    f = zero_const_poly(Z, {1: Z.integer(0), 2: Z.integer(3)})
    assert f.degree == 2
    assert f.coeff(1) == Z.zero
    assert f.coeff(2) == Z.integer(3)


def test_family_sorted_and_deduplicated():
    fam = make_family(Z, [parse_poly(Z, "t^2"), parse_poly(Z, "t"), parse_poly(Z, "t")])
    assert len(fam) == 2
    assert [format_poly(f) for f in fam] == ["t", "t^2"]


def test_family_must_be_nonempty():
    with pytest.raises(ValueError):
        make_family(Z, [])


# ---------------------------------------------------------------------------
# Pattern instances


def test_pattern_elements_examples():
    fam = parse_family(Z, "t")
    inst = pattern_elements(Z.integer(2), Z.integer(3), fam)
    assert [e.val for e in inst.elements] == [6, 5]

    triple = parse_family(Z, "0;t")
    inst = pattern_elements(Z.integer(2), Z.integer(3), triple)
    assert [e.val for e in inst.elements] == [6, 2, 5]

    degenerate = pattern_elements(Z.integer(2), Z.integer(2), fam)
    assert [e.val for e in degenerate.elements] == [4]
    assert degenerate.degenerate


def test_pattern_elements_ring_mismatch():
    with pytest.raises(ValueError):
        pattern_elements(Z.integer(1), ZI.gaussian(1, 0), parse_family(Z, "t"))


def test_product_always_first_and_size_bounded():
    rng = random.Random(3)
    for spec in (Z, ZI, GF3):
        fam = parse_family(spec, "t; t^2; 0")
        for _ in range(300):
            x, y = rand_elem(spec, rng), rand_elem(spec, rng)
            inst = pattern_elements(x, y, fam)
            assert inst.elements[0] == x * y
            assert 1 <= len(inst.elements) <= len(fam) + 1
            assert len(set(inst.elements)) == len(inst.elements)


def test_zero_and_linear_family_gives_sum_product_triple():
    rng = random.Random(4)
    for spec in (Z, ZI, GF2):
        fam = parse_family(spec, "0;t")
        for _ in range(300):
            x, y = rand_elem(spec, rng), rand_elem(spec, rng)
            inst = pattern_elements(x, y, fam)
            assert set(inst.elements) == {x * y, x, x + y}


# ---------------------------------------------------------------------------
# Monochromaticity


def test_pattern_color_examples():
    w = enumerate_window(Z, WindowParams(10))
    ones = Coloring(w, 1, (1,) * 10)
    fam = parse_family(Z, "t")
    assert pattern_color(ones, Z.integer(2), Z.integer(3), fam) == 1

    par = parity_coloring(10)
    # elements {6, 5} straddle the parity classes
    assert (
        pattern_color(par, Z.integer(2), Z.integer(3), fam)
        is PatternVerdict.NOT_MONOCHROMATIC
    )

    w5 = enumerate_window(Z, WindowParams(5))
    small = Coloring(w5, 1, (1,) * 5)
    assert (
        pattern_color(small, Z.integer(2), Z.integer(3), fam)
        is PatternVerdict.OUT_OF_WINDOW
    )


def test_pattern_color_escape_wins_over_clash():
    par = parity_coloring(4)
    fam = parse_family(Z, "0;t^2")
    # elements [2, 1, 5]: 2 and 1 clash before 5 escapes the window
    assert (
        pattern_color(par, Z.integer(1), Z.integer(2), fam)
        is PatternVerdict.OUT_OF_WINDOW
    )


def test_scan_constraint_defaults():
    k = ScanConstraints.defaults_for(Z)
    assert not k.admits_y(Z.zero)
    assert not k.admits_y(Z.one)
    assert k.admits_y(Z.integer(2))
    assert not k.admits_x(Z.zero)
    assert k.admits_x(Z.one)
    assert k.require_in_window and k.forbid_degenerate


# ---------------------------------------------------------------------------
# Witness scan


def test_first_witness_on_all_one_coloring():
    w = enumerate_window(Z, WindowParams(9))
    ones = Coloring(w, 1, (1,) * 9)
    fam = parse_family(Z, "t")
    first = next(iter(witness_scan(ones, fam)))
    assert (first.x.val, first.y.val, first.color) == (1, 2, 1)


def test_degenerate_instances_surface_when_allowed():
    par = parity_coloring(20)
    fam = parse_family(Z, "t")
    k = ScanConstraints(
        exclude_y=frozenset({Z.zero, Z.one}),
        exclude_x=frozenset({Z.zero}),
        forbid_degenerate=False,
    )
    pairs = {(wit.x.val, wit.y.val) for wit in witness_scan(par, fam, k)}
    assert (2, 2) in pairs  # {4}: a singleton is vacuously one-colored
    default_pairs = {(wit.x.val, wit.y.val) for wit in witness_scan(par, fam)}
    assert (2, 2) not in default_pairs


def test_scan_order_is_y_outer_x_inner():
    w = enumerate_window(Z, WindowParams(30))
    c = random_coloring(w, 2, 3)
    fam = parse_family(Z, "t")
    keys = [(w.index[wit.y], w.index[wit.x]) for wit in witness_scan(c, fam)]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_scan_limit():
    w = enumerate_window(Z, WindowParams(30))
    c = Coloring(w, 1, (1,) * 30)
    fam = parse_family(Z, "t")
    assert len(list(witness_scan(c, fam, limit=5))) == 5
    assert list(witness_scan(c, fam, limit=0)) == []


def brute_force_scan_linear(n, r, seed):
    """Independent recount for F = {t} over {1..n}: recompute the coloring
    from the documented update rule and check {x*y, x+y} membership by hand."""
    color = {v: 1 + stream_value(seed, v - 1) % r for v in range(1, n + 1)}
    found = []
    for y in range(2, n + 1):  # y=0 impossible, y=1 excluded
        for x in range(1, n + 1):
            a, b = x * y, x + y
            if a == b:
                continue
            if a in color and b in color and color[a] == color[b]:
                found.append((x, y, color[a]))
    return found


def test_scan_matches_independent_recount():
    n, r, seed = 50, 2, 7
    w = enumerate_window(Z, WindowParams(n))
    c = random_coloring(w, r, seed)
    fam = parse_family(Z, "t")
    got = [(wit.x.val, wit.y.val, wit.color) for wit in witness_scan(c, fam)]
    oracle = brute_force_scan_linear(n, r, seed)
    assert sorted(got) == sorted(oracle)
    assert len(got) == 83  # frozen count for (N=50, r=2, seed=7)


def test_scan_without_window_requirement_judges_visible_part():
    w = enumerate_window(Z, WindowParams(6))
    c = parity_coloring(6)
    fam = parse_family(Z, "t")
    k = ScanConstraints(
        exclude_y=frozenset({Z.zero, Z.one}),
        exclude_x=frozenset({Z.zero}),
        require_in_window=False,
    )
    pairs = {(wit.x.val, wit.y.val): wit.color for wit in witness_scan(c, fam, k)}
    # x=4, y=2: product 8 escapes; visible part {6} is color 1
    assert pairs.get((4, 2)) == 1
    # under defaults the same pair is suppressed
    strict = {(wit.x.val, wit.y.val) for wit in witness_scan(c, fam)}
    assert (4, 2) not in strict


def test_scan_ring_mismatch():
    w = enumerate_window(Z, WindowParams(5))
    c = Coloring(w, 1, (1,) * 5)
    with pytest.raises(ValueError):
        list(witness_scan(c, parse_family(ZI, "t")))


# ---------------------------------------------------------------------------
# Abundance profiles


ALLOW_SINGLETONS = ScanConstraints(
    exclude_y=frozenset({Z.zero, Z.one}),
    exclude_x=frozenset({Z.zero}),
    forbid_degenerate=False,
)


def test_abundance_window_containment_only():
    w = enumerate_window(Z, WindowParams(100))
    ones = Coloring(w, 1, (1,) * 100)
    fam = parse_family(Z, "t")
    prof = abundance_profile(ones, fam, Z.integer(2), ALLOW_SINGLETONS)
    assert prof[1] == {Z.integer(v) for v in range(1, 51)}
    # under defaults x=2 drops out: {2*2, 2+2} collapses to the singleton {4}
    strict = abundance_profile(ones, fam, Z.integer(2))
    assert strict[1] == {Z.integer(v) for v in range(1, 51) if v != 2}


def test_abundance_parity_classes():
    w = enumerate_window(Z, WindowParams(100))
    par = parity_coloring(100)
    fam = parse_family(Z, "t")
    prof = abundance_profile(par, fam, Z.integer(2), ALLOW_SINGLETONS)
    assert prof[1] == {Z.integer(v) for v in range(2, 51, 2)}
    assert prof[2] == set()


def test_abundance_matches_pattern_color_pointwise():
    w = enumerate_window(Z, WindowParams(60))
    c = random_coloring(w, 2, 11)
    fam = parse_family(Z, "t^2")
    y = Z.integer(3)
    prof = abundance_profile(c, fam, y)
    assert not (prof[1] & prof[2])
    for x in w.elements:
        verdict = pattern_color(c, x, y, fam)
        for i in (1, 2):
            assert (x in prof[i]) == (verdict == i and not x.is_zero())


def scan_grouped_by_y(coloring, family, constraints):
    grouped = {}
    for wit in witness_scan(coloring, family, constraints):
        per_color = grouped.setdefault(wit.y, {i: set() for i in range(1, coloring.r + 1)})
        per_color[wit.color].add(wit.x)
    return grouped


def constraint_variants(spec, window):
    defaults = ScanConstraints.defaults_for(spec)
    # every other window element, so the exclusion is not just x = 0
    custom_x = frozenset(window.elements[::2]) | {spec.zero}
    return {
        "defaults": defaults,
        "partial": ScanConstraints(
            defaults.exclude_y, defaults.exclude_x, require_in_window=False
        ),
        "degenerate": ScanConstraints(
            defaults.exclude_y, defaults.exclude_x, forbid_degenerate=False
        ),
        "exclude_x": ScanConstraints(defaults.exclude_y, custom_x),
    }


@pytest.mark.parametrize("mode", ["defaults", "partial", "degenerate", "exclude_x"])
@pytest.mark.parametrize(
    "spec, params, family_text",
    [
        (Z, WindowParams(30), "t"),
        (Z, WindowParams(12, signed=True), "0;t"),
        (ZI, WindowParams(3), "0;t"),
        (GF2, WindowParams(5), "t^2+t"),
        (GF3, WindowParams(3), "2t^2+t"),
    ],
)
def test_abundance_equals_scan_grouped_by_y(mode, spec, params, family_text):
    window = enumerate_window(spec, params)
    coloring = random_coloring(window, 2, 3)
    family = parse_family(spec, family_text)
    constraints = constraint_variants(spec, window)[mode]
    grouped = scan_grouped_by_y(coloring, family, constraints)
    empty = {1: set(), 2: set()}
    for y in window.elements:
        if not constraints.admits_y(y):
            continue
        assert abundance_profile(coloring, family, y, constraints) == grouped.get(y, empty)


def test_abundance_partial_mode_judges_visible_part():
    w = enumerate_window(Z, WindowParams(30))
    c = random_coloring(w, 2, 3)
    fam = parse_family(Z, "t")
    k = constraint_variants(Z, w)["partial"]
    y = Z.integer(5)
    prof = abundance_profile(c, fam, y, k)
    assert sum(len(s) for s in prof.values()) == 23  # frozen for (N=30, seed=3)
    assert sum(1 for wit in witness_scan(c, fam, k) if wit.y == y) == 23


def test_abundance_rejects_excluded_y():
    w = enumerate_window(Z, WindowParams(10))
    c = Coloring(w, 1, (1,) * 10)
    fam = parse_family(Z, "t")
    with pytest.raises(ValueError):
        abundance_profile(c, fam, Z.one)


@pytest.mark.parametrize("ring, y, error, message", [
    ("Zi", parse_element(GF3, "x"), ValueError, "ring mismatch: Zi vs GF(3)[x]"),  # raw value of i
    ("Z", ZI.gaussian(0, 1), ValueError, "ring mismatch: Z vs Zi"),
    ("Z", 2, TypeError, "expected RingElement, got int"),
], ids=["gf3-y-on-zi", "zi-y-on-z", "int-y"])
def test_abundance_rejects_a_y_of_another_ring(ring, y, error, message):
    spec = parse_ring_spec(ring)
    coloring = random_coloring(enumerate_window(spec, WindowParams(3)), 2, 1)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        abundance_profile(coloring, parse_family(spec, "t"), y)


def test_family_of_another_ring_rejected_by_every_judge():
    coloring = random_coloring(enumerate_window(Z, WindowParams(10)), 2, 1)
    fam, y = parse_family(ZI, "t"), ZI.from_int(2)
    message = "^family ring differs from the coloring's ring$"
    with pytest.raises(ValueError, match=message):
        abundance_profile(coloring, fam, y)
    with pytest.raises(ValueError, match=message):
        next(witness_scan(coloring, fam))
    with pytest.raises(ValueError, match=message):
        pattern_color(coloring, ZI.one, y, fam)


@pytest.mark.parametrize("build, error, message", [
    (lambda: make_family(Z, [parse_poly(ZI, "t")]), ValueError, "family member from a different ring"),
    (lambda: zero_const_poly(Z, {1: 3}), TypeError, "coefficients must be RingElements"),
    (lambda: zero_const_poly(Z, {1: ZI.one}), ValueError, "coefficient from a different ring"),
    (lambda: eval_poly(parse_poly(Z, "t"), ZI.one), ValueError,
     "polynomial and argument from different rings"),
], ids=["family-member", "coefficient-type", "coefficient-ring", "eval-argument"])
def test_polynomial_arguments_checked(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


# ---------------------------------------------------------------------------
# Literals


def test_poly_literal_round_trips():
    cases = [
        (Z, "t"),
        (Z, "0"),
        (Z, "2t^2+t"),
        (Z, "-3t^4+2t"),
        (ZI, "(1+2i)t^3"),
        (GF2, "(x+1)t^2+xt"),
        (GF3, "2t^3+t"),
    ]
    for spec, text in cases:
        f = parse_poly(spec, text)
        assert format_poly(f) == text
        assert parse_poly(spec, format_poly(f)).terms == f.terms
    assert repr(parse_family(GF3, "t^2+2t").polys[0]) == "<poly t^2+2t over GF(3)[x]>"
    assert repr(parse_poly(ZI, "(1+2i)t^3")) == "<poly (1+2i)t^3 over Zi>"


def test_poly_literal_rejects_constant_terms():
    with pytest.raises(ValueError):
        parse_poly(Z, "t+1")
    with pytest.raises(ValueError):
        parse_poly(Z, "3")
    with pytest.raises(ValueError):
        parse_poly(Z, "")
    # degrees are ASCII digits only
    for text in ("t^\u0662", "t^\uff12", "t^1_0"):
        with pytest.raises(ValueError):
            parse_family(Z, text)


def test_family_literal_round_trip():
    fam = parse_family(Z, "t; 0; 2t^2+t")
    assert format_family(fam) == "0; t; 2t^2+t"
    again = parse_family(Z, format_family(fam))
    assert format_family(again) == format_family(fam)


def test_family_literal_collapses_duplicates():
    fam = parse_family(Z, "t; t")
    assert len(fam) == 1


def test_char_collapse_in_small_characteristic():
    # over GF(2), 2t^2 + t = t
    fam = parse_family(GF2, "2t^2+t")
    assert format_family(fam) == "t"


# ---------------------------------------------------------------------------
# The product-bounded kernel against a full-window (x, y) loop


def full_window_loop(window, colors, family, constraints, ys=None):
    """From scratch, with no product bound: every admitted (x, y) of the
    window in (y, x) order, y running over ys (default: the window).
    Returns the witnesses (x, y, color) and the instances lying fully
    inside the window as (x, y, elements, positions)."""
    spec = window.spec
    position = {e: k for k, e in enumerate(window.elements)}
    witnesses, inside = [], []
    for y in window.elements if ys is None else ys:
        if y in constraints.exclude_y:
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
            if x in constraints.exclude_x:
                continue
            elems = [x * y]
            for fv in f_vals:
                if x + fv not in elems:
                    elems.append(x + fv)
            if constraints.forbid_degenerate and len(elems) == 1:
                continue
            positions = [position.get(e) for e in elems]
            visible = [p for p in positions if p is not None]
            if len(visible) == len(elems):
                inside.append((x, y, tuple(elems), positions))
            elif constraints.require_in_window:
                continue
            if visible and len({colors[p] for p in visible}) == 1:
                witnesses.append((x, y, colors[visible[0]]))
    return witnesses, inside


# ring, window, families, a y outside the window (N+1, B+1, degree d)
# (t^3 and t;t^2;t^3 leave the window at small y: the kernel's early exit;
# 0 is x's own color alone; t;t^2 and 0;t;t^2 have equal members at y = 1,
# and t;2t at y = 0, which open_y admits)
KERNEL_RINGS = [
    (Z, WindowParams(40), ("t", "0;t", "2t^2+t", "t^2", "t^3", "t;t^2;t^3", "0", "t;t^2", "0;t;t^2"),
     "41"),
    (Z, WindowParams(15, signed=True), ("t", "0;t", "2t^2+t", "t^3", "t;t^2;t^3"), "16"),
    (ZI, WindowParams(3), ("0;t", "2t^2+t", "(1+1i)t", "t^3", "t;t^2;t^3"), "4"),
    (GF2, WindowParams(5), ("0;t", "t^2+t", "t^3", "t;t^2;t^3"), "x^5+x"),
    (GF3, WindowParams(3), ("t", "0;t", "2t^2+t", "t^3", "t;t^2;t^3", "0", "t;2t"), "2x^3+1"),
    # at (x, y) = (4, 2) every element of t^2's instance is 8: degenerate and
    # wholly outside the window, so partial mode must yield no witness there
    (Z, WindowParams(7), ("t^2", "0;t^2"), "8"),
]


# an element of another ring whose raw value a window element shares:
# GF(3)[x] x and Zi i are both (0, 1), Zi 1+1i and GF(2)[x] x+1 both (1, 1)
COLLIDING = {ZI: GF3.poly((0, 1)), GF2: ZI.gaussian(1, 1), GF3: ZI.gaussian(0, 1)}


def kernel_cases(spec, window, seed):
    """Named constraint sets: the fixed modes, then seeded random ones.
    An empty exclude_y admits y = 0 and 1, y = -1 in signed Z, the units
    +-i in Zi and the constants in GF(3)[x]."""
    defaults = ScanConstraints.defaults_for(spec)
    every_third = frozenset(window.elements[1::3])
    cases = {
        "defaults": defaults,
        "open_y": ScanConstraints(frozenset(), defaults.exclude_x),
        "exclude_x": ScanConstraints(defaults.exclude_y, every_third),
        "degenerate": ScanConstraints(defaults.exclude_y, frozenset(), forbid_degenerate=False),
        "partial": ScanConstraints(defaults.exclude_y, defaults.exclude_x, require_in_window=False),
        "partial_open": ScanConstraints(frozenset(), frozenset(), False, False),
        "partial_exclude_x": ScanConstraints(defaults.exclude_y, every_third, require_in_window=False),
    }
    if spec in COLLIDING:
        # excludes the window's zero, never its element of the same raw value
        cases["exclude_other_ring"] = ScanConstraints(
            defaults.exclude_y, defaults.exclude_x | {COLLIDING[spec]}, require_in_window=False)
    rng = random.Random(seed)
    for k in range(4):
        cases[f"random{k}"] = ScanConstraints(
            frozenset(e for e in window.elements if rng.random() < 0.2),
            frozenset(e for e in window.elements if rng.random() < 0.2),
            require_in_window=rng.random() < 0.6,
            forbid_degenerate=rng.random() < 0.6,
        )
    return cases


def profile_by_pattern_color(coloring, family, y, constraints):
    """abundance_profile at y rebuilt x by x from pattern_color; in partial
    mode an instance leaving the window is judged on its visible part."""
    window, colors = coloring.window, coloring.colors
    profile = {i: set() for i in range(1, coloring.r + 1)}
    for x in window.elements:
        if not constraints.admits_x(x):
            continue
        inst = pattern_elements(x, y, family)
        if constraints.forbid_degenerate and inst.degenerate:
            continue
        color = pattern_color(coloring, x, y, family)
        if color is PatternVerdict.OUT_OF_WINDOW and not constraints.require_in_window:
            visible = {colors[window.index[e]] for e in inst.elements if e in window}
            color = visible.pop() if len(visible) == 1 else None
        if isinstance(color, int):
            profile[color].add(x)
    return profile


@pytest.mark.parametrize("ring_case", range(len(KERNEL_RINGS)))
def test_kernel_matches_full_window_loop(ring_case):
    from monochrome import build_instance

    spec, params, family_texts, outside = KERNEL_RINGS[ring_case]
    window = enumerate_window(spec, params)
    y_out = parse_element(spec, outside)
    assert y_out not in window
    rng = random.Random(100 + ring_case)
    cases = kernel_cases(spec, window, ring_case).items()
    for (name, constraints), family_text in itertools.product(cases, family_texts):
        family = parse_family(spec, family_text)
        r = rng.choice((2, 3))
        coloring = random_coloring(window, r, rng.randrange(10**6))
        label = f"{spec} {name} {format_family(family)} r={r}"
        want, inside = full_window_loop(window, coloring.colors, family, constraints)

        got = [(w.x, w.y, w.color) for w in witness_scan(coloring, family, constraints)]
        assert got == want, label

        grouped = {}
        for x, y, c in want:
            grouped.setdefault(y, {i: set() for i in range(1, r + 1)})[c].add(x)
        empty = {i: set() for i in range(1, r + 1)}
        for y in window.elements:
            if constraints.admits_y(y):
                prof = abundance_profile(coloring, family, y, constraints)
                assert prof == grouped.get(y, empty), f"{label} y={format_element(y)}"

        # a y no window position holds: the kernel takes its raw value and
        # product run all the same
        prof = abundance_profile(coloring, family, y_out, constraints)
        assert prof == profile_by_pattern_color(coloring, family, y_out, constraints), label
        want_out = {i: set() for i in range(1, r + 1)}
        for x, _, c in full_window_loop(window, coloring.colors, family, constraints, (y_out,))[0]:
            want_out[c].add(x)
        assert prof == want_out, label

        seen, cands, index_sets = set(), [], []
        for x, y, elems, positions in inside:
            key = frozenset(positions)
            if key not in seen:
                seen.add(key)
                cands.append((x, y, elems))
                index_sets.append(tuple(sorted(key)))
        inst = build_instance(window, r, family, constraints)
        assert [(c.x, c.y, c.elements) for c in inst.candidates] == cands, label
        assert list(inst.index_sets) == index_sets, label


@pytest.mark.parametrize("ring_text, params", [
    ("Z", WindowParams(150, signed=True)), ("GF(2)[x]", WindowParams(8))])
def test_whole_scan_multiplies_only_after_the_sums_agree(monkeypatch, ring_text, params):
    """A whole-window scan with F = 0;t takes x's own color for x + 0,
    adds x + y once per admitted pair of product_run(y), and computes
    x*y only where x and x + y lie in the window in one color."""
    spec = parse_ring_spec(ring_text)
    window = enumerate_window(spec, params)
    coloring = random_coloring(window, 3, 17)
    want = list(witness_scan(coloring, parse_family(spec, "0;t")))
    colors, pairs, agreeing = coloring.colors, 0, 0
    for y in window.elements:
        if y == spec.zero or y == spec.one:
            continue
        lo, hi = window.product_run(y)
        for x in window.elements[lo:hi]:
            if x != spec.zero:
                pairs += 1
                agreeing += x + y in window and colors[window.index[x]] == colors[window.index[x + y]]

    seen = {"add": [], "mul": []}  # the second operand of each call
    for name, args in seen.items():
        op = getattr(spec, name)
        monkeypatch.setattr(type(spec), name, staticmethod(lambda a, b, op=op, args=args: args.append(b) or op(a, b)))
    counted = parse_ring_spec(ring_text)  # binds the counting ops
    family = parse_family(counted, "0;t")
    counted_coloring = Coloring(enumerate_window(counted, params), 3, colors)
    for args in seen.values():
        args.clear()
    got = list(witness_scan(counted_coloring, family))
    monkeypatch.undo()
    assert got == want and 0 < len(got) < agreeing < pairs
    assert len(seen["mul"]) == agreeing
    assert len(seen["add"]) == pairs and spec.zero.val not in seen["add"]


def test_scans_leave_window_index_unbuilt(monkeypatch):
    """witness_scan, abundance_profile, build_instance and moreira_number
    read raw_index alone: Window.index is built only once read, and then
    maps each element to its position."""
    from monochrome import Window, build_instance, moreira_number

    built = []
    lazy = Window.__dict__["index"]
    monkeypatch.setattr(Window, "index", property(lambda w: built.append(w) or lazy.__get__(w)))
    for spec, params, text in ((Z, WindowParams(60), "0;t"), (ZI, WindowParams(3), "t"),
                               (GF2, WindowParams(4), "t;t^2")):
        window = enumerate_window(spec, params)
        family = parse_family(spec, text)
        coloring = random_coloring(window, 2, 5)
        defaults = ScanConstraints.defaults_for(spec)
        for constraints in (defaults, ScanConstraints(defaults.exclude_y, defaults.exclude_x, False)):
            list(witness_scan(coloring, family, constraints))
            abundance_profile(coloring, family, window.elements[-1], constraints)
        build_instance(window, 2, family)
        moreira_number(2, family, 3)
        assert built == [] and "index" not in vars(window), spec
        assert window.elements[2] in window and COLLIDING.get(spec, ZI.one) not in window
    monkeypatch.undo()
    assert window.index == {e: k for k, e in enumerate(window.elements)}
    assert vars(window)["index"] is window.index


def test_raw_readers_leave_window_elements_unbuilt(monkeypatch):
    """Readers that need only raw values read raw_index: grow_ufp,
    syndetic_check, ps_witness_search, ipstar_refute, the ideal presets,
    len, random colorings, build_instance and moreira_number's sliced
    probes and builds leave Window.elements unbuilt, and elements is
    built once read, from raw_index in window order.
    ipstar_refute still returns the sequence its documented draw rule
    gives."""
    from monochrome import (
        Window, build_instance, grow_ufp, ipstar_refute, moreira_number, parse_element_set,
        ps_witness_search, syndetic_check, validate_ps_witness,
    )
    from monochrome.prng import stream_below

    def replay_ipstar(target, w, seq_len, samples, seed):
        for s in range(samples):
            seq = tuple(w.elements[stream_below(seed, s * seq_len + p, len(w))] for p in range(seq_len))
            sums = {sum(sub[1:], sub[0]) for k in range(1, seq_len + 1)
                    for sub in itertools.combinations(seq, k)}
            if not sums & target:
                return seq
        return None

    built = []
    lazy = Window.__dict__["elements"]
    monkeypatch.setattr(Window, "elements", property(lambda w: built.append(w) or lazy.__get__(w)))
    window = enumerate_window(Z, WindowParams(10000))
    assert [e.val for e in grow_ufp(Z.integer(2), window, 10).elements] == [2, 3, 4, 5, 7, 9, 11, 13, 16, 17]
    assert len(window) == 10000 and len(random_coloring(window, 3, 1).colors) == 10000
    refuted = []  # (target, window, length, samples, seed, ipstar_refute's answer)
    for spec, params in ((Z, WindowParams(30)), (Z, WindowParams(12, signed=True)), (ZI, WindowParams(2)),
                         (GF2, WindowParams(4)), (GF3, WindowParams(2))):
        w = enumerate_window(spec, params)
        ideal = parse_element_set(spec, "ideal(1+1i)" if spec is ZI else "ideal(x)" if spec.q else "evens", w)
        gaps = {spec.zero, spec.one}
        assert syndetic_check(ideal, {spec.zero}, w) in w
        witness = ps_witness_search(ideal, gaps, {spec.one}, w)
        assert witness.anchor in w and validate_ps_witness(witness, ideal)
        assert ps_witness_search(ideal, {spec.zero}, {spec.zero, spec.one}, w) is None
        refuted.extend((target, w, 3, 8, seed, ipstar_refute(target, w, 3, 8, seed))
                       for target in (ideal, frozenset({spec.one})) for seed in (1, 2))
    assert built == [] and not any("elements" in vars(w) for w in (window, w))
    for spec, max_n in ((Z, 20), (GF2, 5)):
        res = moreira_number(2, parse_family(spec, "t"), max_n)
        assert len(res.trace) > res.builds > 0
        assert built == [], spec
    for spec, params in ((Z, WindowParams(40)), (ZI, WindowParams(3)), (GF3, WindowParams(3))):
        w = enumerate_window(spec, params)
        assert build_instance(w, 2, parse_family(spec, "0;t")).index_sets
        assert built == [] and "elements" not in vars(w), spec
    monkeypatch.undo()
    assert any(got is None for *_, got in refuted) and any(got for *_, got in refuted)
    for *call, got in refuted:
        assert got == replay_ipstar(*call), call
    assert window.elements == tuple(RingElement(Z, v) for v in range(1, 10001))
    assert vars(window)["elements"] is window.elements


def test_witness_scan_yields_witness_instances():
    """witness_scan yields exact Witness tuples in both modes, honours a
    limit of None, 0 and 1, and refuses a negative limit at the first
    next()."""
    from monochrome import Witness

    window = enumerate_window(Z, WindowParams(40))
    coloring = random_coloring(window, 2, 3)
    family = parse_family(Z, "0;t")
    defaults = ScanConstraints.defaults_for(Z)
    for constraints in (defaults, ScanConstraints(defaults.exclude_y, defaults.exclude_x, False)):
        every = list(witness_scan(coloring, family, constraints))
        assert every and all(type(w) is Witness for w in every)
        assert every[0] == Witness(every[0].x, every[0].y, every[0].color)
        assert list(witness_scan(coloring, family, constraints, 0)) == []
        assert list(witness_scan(coloring, family, constraints, 1)) == every[:1]
        assert list(witness_scan(coloring, family, constraints, None)) == every
        scan = witness_scan(coloring, family, constraints, -1)
        with pytest.raises(ValueError, match=r"^witness limit must be >= 0, got -1$"):
            next(scan)


def test_scan_builds_elements_per_y_not_per_pair(monkeypatch):
    """witness_scan, abundance_profile and build_instance compute every
    instance, f(y) included, on raw values: they build no RingElement,
    per y or per pair."""
    from monochrome import build_instance

    built = [0]
    init = RingElement.__init__

    def counting_init(self, spec, val):
        built[0] += 1
        init(self, spec, val)

    for spec, params, text in ((Z, WindowParams(300), "0;t"), (GF2, WindowParams(6), "0;t"),
                               (ZI, WindowParams(4), "2t^2+t;t^3"),
                               (GF3, WindowParams(3), "(x+1)t^2+xt")):
        window = enumerate_window(spec, params)
        family = parse_family(spec, text)
        coloring = random_coloring(window, 2, 11)
        y = window.elements[3]
        monkeypatch.setattr(RingElement, "__init__", counting_init)
        built[0] = 0
        witnesses = list(witness_scan(coloring, family))
        abundance_profile(coloring, family, y)
        build_instance(window, 2, family)
        monkeypatch.undo()
        assert witnesses and built[0] == 0, (spec, built[0])


def test_poly_literal_sums_repeated_degrees():
    assert format_poly(parse_poly(Z, "t+t")) == "2t"
    assert parse_poly(Z, "t-t").terms == ()
    assert parse_poly(GF3, "t+2t").terms == ()


@pytest.mark.parametrize("text,message", [
    ("t+", "dangling sign"), ("(t", "unbalanced parentheses"), ("t)", "unbalanced parentheses"),
    ("t^", "bad polynomial term"), (";", "empty family literal"),
    ("()", r"bad polynomial term '\(\)' in '\(\)'"),
])
def test_family_literal_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_family(Z, text)
