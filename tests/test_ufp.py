"""Distinct-subset-product sequences: verification, exclusion sets, extension."""

import itertools
import random

import pytest

from monochrome import (
    FS_LENGTH_CAP,
    GROW_CAP,
    PoolExhaustedError,
    UfpSequence,
    WindowParams,
    enumerate_window,
    exact_divide,
    exclusion_set,
    extend_ufp,
    format_element,
    grow_ufp,
    has_ufp,
    parse_ring_spec,
)

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
            assert UfpSequence(seq).fp_map() == subset_products(seq)


def test_extended_reuses_parent_products():
    base = UfpSequence(zints(2, 3))
    base.fp_map()
    child = base.extended(Z.integer(5))
    assert child.fp_map() == subset_products(zints(2, 3, 5))


def test_length_cap_enforced():
    long = UfpSequence(zints(*range(2, 2 + FS_LENGTH_CAP + 1)))
    with pytest.raises(ValueError):
        has_ufp(long)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        UfpSequence(())


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
    with pytest.raises(PoolExhaustedError):
        extend_ufp(UfpSequence(zints(2)), zints(0, 1, 2))


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
    with pytest.raises(ValueError):
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
    with pytest.raises(PoolExhaustedError) as info:
        grow_ufp(Z.integer(2), w, 4)
    assert info.value.step == 3  # <2,3> exists; step 3 has no admissible element


def test_grow_preserves_distinct_products_randomized():
    rng = random.Random(19)
    cases = []
    for _ in range(500):
        cases.append((Z, WindowParams(rng.randint(20, 80)), Z.integer(rng.randint(2, 6))))
    for spec, params, start in cases:
        w = enumerate_window(spec, params)
        m = 4
        try:
            seq = grow_ufp(start, w, m)
        except PoolExhaustedError:
            continue
        assert has_ufp(seq) is None
        fp = seq.fp_set()
        assert spec.zero not in fp and spec.one not in fp


def test_grow_preserves_distinct_products_other_rings():
    rng = random.Random(23)
    for _ in range(250):
        w = enumerate_window(ZI, WindowParams(rng.randint(2, 3)))
        pool = [e for e in w.elements if not (e.is_zero() or e.is_one())]
        start = pool[rng.randrange(len(pool))]
        try:
            seq = grow_ufp(start, w, 3)
        except PoolExhaustedError:
            continue
        assert has_ufp(seq) is None
    for _ in range(250):
        q, d = rng.choice(((2, 5), (3, 3)))
        spec = GF2 if q == 2 else GF3
        w = enumerate_window(spec, WindowParams(d))
        pool = [e for e in w.elements if not (e.is_zero() or e.is_one())]
        start = pool[rng.randrange(len(pool))]
        try:
            seq = grow_ufp(start, w, 4)
        except PoolExhaustedError:
            continue
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
