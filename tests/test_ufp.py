"""Distinct-subset-product sequences: verification, exclusion sets, extension."""

import itertools
import random

import pytest

from monochrome import (
    FS_LENGTH_CAP,
    GROW_CAP,
    UfpSequence,
    WindowParams,
    enumerate_window,
    exact_divide,
    exclusion_set,
    extend_ufp,
    format_element,
    grow_ufp,
    has_ufp,
    parse_element,
    parse_ring_spec,
)

from _reference_engines import reference_extend, reference_grow

Z = parse_ring_spec("Z")
ZI = parse_ring_spec("Zi")
GF2 = parse_ring_spec("GF(2)[x]")
GF3 = parse_ring_spec("GF(3)[x]")


def zints(*vals):
    return [Z.integer(v) for v in vals]


def subset_products(seq):
    """Oracle: products over nonempty index subsets, by index tuples."""
    out = {}
    for k in range(1, len(seq) + 1):
        for combo in itertools.combinations(range(len(seq)), k):
            acc = seq[combo[0]]
            for i in combo[1:]:
                acc = acc * seq[i]
            out[frozenset(i + 1 for i in combo)] = acc
    return out


def bitmask_products(seq):
    """The oracle's raw products in bitmask order: entry m-1 is the product
    over the positions of the set bits of m (bit i for position i+1)."""
    by_set = subset_products(seq)
    return [by_set[frozenset(i + 1 for i in range(len(seq)) if m >> i & 1)].val
            for m in range(1, 2 ** len(seq))]


# ---------------------------------------------------------------------------
# Verification


def test_distinct_products_hold():
    assert has_ufp(zints(2, 3)) is None


def test_repeated_element_collides():
    v = has_ufp(zints(2, 2))
    assert v is not None
    assert (v.h, v.k) == (frozenset({1}), frozenset({2}))
    assert v.product == Z.integer(2)


def test_poly_ring_example():
    x = GF2.poly((0, 1))
    seq = UfpSequence((x, x + GF2.one))
    assert has_ufp(seq) is None
    assert seq.fp_set() == frozenset({x, x + GF2.one, x * (x + GF2.one)})


def test_first_collision_in_subset_counter_order():
    # subsets by increasing bitmask: {1},{2},{1,2},{3},...
    v = has_ufp(zints(4, 6, 24))
    assert v is not None
    assert v.h == frozenset({1, 2})
    assert v.k == frozenset({3})
    assert v.product == Z.integer(24)


def test_product_map_matches_oracle():
    rng = random.Random(3)
    for spec in (Z, ZI, GF3):
        for _ in range(60):
            if spec is Z:
                seq = [spec.integer(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            elif spec is ZI:
                seq = [
                    spec.gaussian(rng.randint(-3, 3), rng.randint(-3, 3))
                    for _ in range(rng.randint(1, 5))
                ]
            else:
                seq = [
                    spec.poly([rng.randrange(3) for _ in range(rng.randint(0, 2))])
                    for _ in range(rng.randint(1, 5))
                ]
            assert UfpSequence(seq)._raw_products() == bitmask_products(seq)


def test_extended_reuses_parent_products():
    base = UfpSequence(zints(2, 3))
    base._raw_products()
    child = base.extended(Z.integer(5))
    assert child._products is not None  # continued from the parent's cache
    assert child._raw_products() == UfpSequence(zints(2, 3, 5))._raw_products()
    assert child._raw_products() == bitmask_products(zints(2, 3, 5))


def test_length_cap_enforced():
    long = UfpSequence(zints(*range(2, 2 + FS_LENGTH_CAP + 1)))
    with pytest.raises(ValueError):
        has_ufp(long)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        UfpSequence(())


def test_mixed_ring_sequence_rejected():
    with pytest.raises(ValueError, match="^mixed rings in sequence$"):
        UfpSequence((Z.integer(2), ZI.gaussian(1, 1)))


# ---------------------------------------------------------------------------
# Exclusion sets


def test_exclusion_singleton():
    c = exclusion_set({Z.integer(2)})
    assert c == frozenset({Z.integer(2)})


def test_exclusion_closed_product_set():
    b = {Z.integer(2), Z.integer(3), Z.integer(6)}
    assert exclusion_set(b) == frozenset(b)


def test_exclusion_empty():
    assert exclusion_set(frozenset()) == frozenset()


def test_exclusion_rejects_zero_member():
    with pytest.raises(ValueError):
        exclusion_set({Z.zero, Z.integer(2)})


def test_exclusion_soundness():
    rng = random.Random(11)
    for spec in (Z, ZI, GF3):
        for _ in range(100):
            b = set()
            while len(b) < rng.randint(1, 5):
                if spec is Z:
                    e = spec.integer(rng.randint(-20, 20))
                elif spec is ZI:
                    e = spec.gaussian(rng.randint(-4, 4), rng.randint(-4, 4))
                else:
                    e = spec.poly([rng.randrange(3) for _ in range(rng.randint(0, 3))])
                if not e.is_zero():
                    b.add(e)
            base = set(b) | {spec.one}
            c = exclusion_set(b)
            for x in c:
                assert any(
                    x * alpha in base for alpha in base
                ), f"{format_element(x)} has no witness pair"
            assert len(c) <= (len(b) + 1) ** 2


def test_exclusion_complete_on_window_scan():
    w = enumerate_window(Z, WindowParams(60, signed=True))
    b = {Z.integer(2), Z.integer(5)}
    base = set(b) | {Z.one}
    c = exclusion_set(b)
    for x in w.elements:
        breaks = any(x * alpha in base for alpha in base)
        in_c = x in c
        if x.is_zero() or x.is_one():
            assert not in_c
        else:
            assert breaks == in_c


def test_exclusion_complete_on_poly_window():
    w = enumerate_window(GF2, WindowParams(4))
    x = GF2.poly((0, 1))
    b = {x, x * x}
    base = set(b) | {GF2.one}
    c = exclusion_set(b)
    for e in w.elements:
        if e.is_zero() or e.is_one():
            continue
        assert (e in c) == any(e * alpha in base for alpha in base)


# ---------------------------------------------------------------------------
# Extension


def test_extension_picks_first_admissible():
    pool = zints(*range(2, 11))
    got = extend_ufp(UfpSequence(zints(2)), pool)
    assert [e.val for e in got.elements] == [2, 3]


def test_extension_pool_exhausted():
    assert extend_ufp(UfpSequence(zints(2)), zints(0, 1, 2)) is None


def test_extension_over_poly_pool():
    w = enumerate_window(GF2, WindowParams(4))  # all degree <= 3 polynomials
    x = GF2.poly((0, 1))
    got = extend_ufp(UfpSequence((x,)), w.elements)
    assert len(got) == 2
    assert has_ufp(got) is None


def test_extension_requires_ufp_input():
    with pytest.raises(ValueError):
        extend_ufp(UfpSequence(zints(2, 2)), zints(3, 4))


def test_extension_rejects_product_touching_one():
    i = ZI.gaussian(0, 1)
    seq = UfpSequence((i, ZI.gaussian(0, -1)))  # i * (-i) = 1
    assert has_ufp(seq) is None
    for _ in range(2):  # has_ufp's verdict is kept, and the {0, 1} test still runs each time
        with pytest.raises(ValueError, match=r"^product set touches \{0, 1\}$"):
            extend_ufp(seq, [ZI.gaussian(2, 0)])


def test_extension_skips_trivial_pool_entries():
    got = extend_ufp(UfpSequence(zints(3)), zints(0, 1, 5))
    assert [e.val for e in got.elements] == [3, 5]


# ---------------------------------------------------------------------------
# Growth


def test_grow_integer_sequence_frozen():
    w = enumerate_window(Z, WindowParams(10000))
    seq = grow_ufp(Z.integer(2), w, 10)
    assert [e.val for e in seq.elements] == [2, 3, 4, 5, 7, 9, 11, 13, 16, 17]
    assert has_ufp(seq) is None


def test_grow_checks_each_sequence_once(monkeypatch):
    """grow_ufp runs has_ufp on the start and then once per step, in
    extend_ufp's guard: each step starts from the product set the last
    guard verified.  extend_ufp checks a sequence it has not seen before,
    and checks it only once."""
    import monochrome.ufp as ufp

    calls = []
    monkeypatch.setattr(ufp, "has_ufp", lambda seq: calls.append(len(seq)) or has_ufp(seq))
    w = enumerate_window(Z, WindowParams(10000))
    seq = grow_ufp(Z.integer(2), w, 12)
    assert calls == list(range(1, 13))
    assert [e.val for e in seq.elements] == [2, 3, 4, 5, 7, 9, 11, 13, 16, 17, 19, 23]
    calls.clear()
    fresh = UfpSequence(seq.elements[:5])
    assert [e.val for e in extend_ufp(fresh, w).elements] == [2, 3, 4, 5, 7, 9]
    assert [e.val for e in extend_ufp(fresh, w).elements] == [2, 3, 4, 5, 7, 9]
    assert calls == [5, 6, 6]


def test_grow_builds_each_product_set_once(monkeypatch):
    """Each step's product set is built once, by has_ufp in extend_ufp's
    guard, and the next step starts from that same set."""
    import monochrome.ufp as ufp

    sizes = []
    monkeypatch.setattr(ufp, "set", lambda items=(): sizes.append(len(items)) or set(items), raising=False)
    seq = grow_ufp(Z.integer(2), enumerate_window(Z, WindowParams(10000)), 12)
    assert sizes == [2 ** k - 1 for k in range(1, 13)]
    assert seq._base == set(seq._raw_products())


def test_grow_poly_sequence_frozen():
    w = enumerate_window(GF2, WindowParams(8))
    seq = grow_ufp(GF2.poly((0, 1)), w, 10)
    assert [format_element(e) for e in seq.elements] == [
        "x",
        "x+1",
        "x^2",
        "x^2+1",
        "x^2+x+1",
        "x^3+x+1",
        "x^3+x^2+1",
        "x^4",
        "x^4+1",
        "x^4+x+1",
    ]
    assert has_ufp(seq) is None


def test_grow_length_one_is_start():
    w = enumerate_window(Z, WindowParams(10))
    seq = grow_ufp(Z.integer(7), w, 1)
    assert [e.val for e in seq.elements] == [7]


def test_grow_rejects_trivial_start():
    w = enumerate_window(Z, WindowParams(10))
    with pytest.raises(ValueError):
        grow_ufp(Z.one, w, 3)
    with pytest.raises(ValueError):
        grow_ufp(Z.zero, w, 3)


def test_grow_length_bounds():
    w = enumerate_window(Z, WindowParams(10))
    with pytest.raises(ValueError):
        grow_ufp(Z.integer(2), w, 0)
    with pytest.raises(ValueError):
        grow_ufp(Z.integer(2), w, GROW_CAP + 1)


def test_grow_reports_exhaustion_step():
    w = enumerate_window(Z, WindowParams(3))
    seq = grow_ufp(Z.integer(2), w, 4)
    assert [e.val for e in seq.elements] == [2, 3]  # step 3 has no admissible element


def test_grow_preserves_distinct_products_randomized():
    rng = random.Random(19)
    cases = []
    for _ in range(500):
        cases.append((Z, WindowParams(rng.randint(20, 80)), Z.integer(rng.randint(2, 6))))
    for spec, params, start in cases:
        w = enumerate_window(spec, params)
        seq = grow_ufp(start, w, 4)
        assert has_ufp(seq) is None
        fp = seq.fp_set()
        assert spec.zero not in fp and spec.one not in fp


def test_grow_preserves_distinct_products_other_rings():
    rng = random.Random(23)
    for _ in range(250):
        w = enumerate_window(ZI, WindowParams(rng.randint(2, 3)))
        pool = [e for e in w.elements if not (e.is_zero() or e.is_one())]
        start = pool[rng.randrange(len(pool))]
        seq = grow_ufp(start, w, 3)
        assert has_ufp(seq) is None
    for _ in range(250):
        q, d = rng.choice(((2, 5), (3, 3)))
        spec = GF2 if q == 2 else GF3
        w = enumerate_window(spec, WindowParams(d))
        pool = [e for e in w.elements if not (e.is_zero() or e.is_one())]
        start = pool[rng.randrange(len(pool))]
        seq = grow_ufp(start, w, 4)
        assert has_ufp(seq) is None


def test_grown_elements_avoid_exclusion_chain():
    # replay the constructive argument: each appended element must divide
    # no pair of earlier products
    w = enumerate_window(Z, WindowParams(200))
    seq = grow_ufp(Z.integer(2), w, 6)
    for cut in range(1, len(seq)):
        prefix = UfpSequence(seq.elements[:cut])
        c = exclusion_set(prefix.fp_set())
        nxt = seq.elements[cut]
        assert nxt not in c
        assert not nxt.is_zero() and not nxt.is_one()


# ---------------------------------------------------------------------------
# Differential: raw-value extension and growth against the element-level
# reference (tests/_reference_engines.py)


def _outcome(fn, *args):
    """The picks of a call, None when it extends nothing, or its exception's type and text."""
    try:
        seq = fn(*args)
    except (ValueError, TypeError, RuntimeError) as exc:
        return type(exc), str(exc)
    return None if seq is None else [format_element(e) for e in seq.elements]


DIFF_WINDOWS = (
    (Z, WindowParams(60)),
    (Z, WindowParams(25, signed=True)),
    (ZI, WindowParams(3)),
    (GF2, WindowParams(5)),
    (GF3, WindowParams(3)),
)


def test_grow_matches_the_element_reference():
    rng = random.Random(29)
    exhausted = 0
    for spec, params in DIFF_WINDOWS:
        w = enumerate_window(spec, params)
        for start in [spec.zero, spec.one, *rng.sample(w.elements, 6)]:
            for m in (1, 2, 4, 7, 11):
                got = _outcome(grow_ufp, start, w, m)
                assert got == _outcome(reference_grow, start, w, m), (spec, params, start, m)
                exhausted += isinstance(got, list) and len(got) < m
        other = enumerate_window(ZI if spec != ZI else Z, WindowParams(2))
        assert _outcome(grow_ufp, w.elements[-1], other, 3) == _outcome(reference_grow, w.elements[-1], other, 3)
    assert exhausted


def test_extend_matches_the_element_reference():
    """Pools holding 0 and 1, and a foreign-ring element placed before
    and after the pick: same pick or None, same exception and text."""
    rng = random.Random(31)
    seen = set()
    for spec, params in DIFF_WINDOWS:
        w = enumerate_window(spec, params)
        foreign = enumerate_window(ZI if spec != ZI else GF3, WindowParams(2)).elements[-1]
        for _ in range(40):
            pool = rng.sample(w.elements, rng.randint(0, 8)) + [spec.zero, spec.one]
            rng.shuffle(pool)
            if rng.random() < 0.7:
                pool.insert(rng.randint(0, len(pool)), foreign)
            seq = UfpSequence(rng.sample([e for e in w.elements if not (e.is_zero() or e.is_one())],
                                         rng.randint(1, 3)))
            got = _outcome(extend_ufp, seq, pool)
            assert got == _outcome(reference_extend, seq, pool), (spec, pool, seq)
            if got is None:
                seen.add("pool exhausted")
            elif isinstance(got, tuple):
                seen.add(got[1].partition(":")[0])
            elif any(e is foreign for e in pool):
                pick = parse_element(spec, got[-1])
                seen.add("foreign after the pick")
                assert [e for e in pool if e is foreign or e == pick][0] == pick
    assert {"ring mismatch", "foreign after the pick", "sequence lacks UFP",
            "pool exhausted"} <= seen, seen
