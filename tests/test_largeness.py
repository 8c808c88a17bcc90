"""Coverage witnesses, finite sums/products, IP*-refutation sampling, transport."""

import itertools
import operator
import random

import pytest

from monochrome import (
    FS_LENGTH_CAP,
    PSWitness,
    WindowParams,
    dilate_set,
    dilation_transport,
    divide_set,
    division_transport,
    enumerate_window,
    exact_divide,
    finite_products,
    finite_sums,
    ipstar_refute,
    parse_ring_spec,
    ps_witness_search,
    syndetic_check,
    validate_ps_witness,
)
from monochrome.prng import stream_below

Z = parse_ring_spec("Z")
ZI = parse_ring_spec("Zi")
GF2 = parse_ring_spec("GF(2)[x]")
GF3 = parse_ring_spec("GF(3)[x]")


def rand_elem(spec, rng):
    if spec is Z:
        return spec.integer(rng.randint(-30, 30))
    if spec is ZI:
        return spec.gaussian(rng.randint(-6, 6), rng.randint(-6, 6))
    return spec.poly([rng.randrange(spec.q) for _ in range(rng.randint(0, 3))])


def rand_nonzero(spec, rng):
    while True:
        e = rand_elem(spec, rng)
        if not e.is_zero():
            return e


def subset_folds(seq, op):
    """Oracle: fold every nonempty subsequence with itertools, no dedup tricks."""
    out = set()
    for k in range(1, len(seq) + 1):
        for combo in itertools.combinations(seq, k):
            acc = combo[0]
            for e in combo[1:]:
                acc = op(acc, e)
            out.add(acc)
    return out


# ---------------------------------------------------------------------------
# Witness validation and search


def test_validate_witness_by_hand():
    evens = frozenset(Z.integer(v) for v in range(2, 31, 2))
    w = PSWitness(
        frozenset({Z.integer(0), Z.integer(1)}),
        frozenset(Z.integer(v) for v in range(1, 6)),
        Z.integer(1),
    )
    assert validate_ps_witness(w, evens)
    # anchor 1 pushed to 2 still works... but gaps {0} alone cannot cover odd b+x
    narrow = PSWitness(frozenset({Z.integer(0)}), w.block, Z.integer(1))
    assert not validate_ps_witness(narrow, evens)


def test_syndetic_even_cover():
    w10 = enumerate_window(Z, WindowParams(10))
    evens = frozenset(e for e in w10.elements if e.val % 2 == 0)
    gaps = {Z.integer(0), Z.integer(1)}
    assert syndetic_check(evens, gaps, w10) is None


def test_syndetic_first_counterexample():
    w10 = enumerate_window(Z, WindowParams(10))
    head = frozenset(Z.integer(v) for v in range(1, 6))
    bad = syndetic_check(head, {Z.integer(0)}, w10)
    assert bad == Z.integer(6)


def test_syndetic_zero_constant_cover_poly_ring():
    w = enumerate_window(GF2, WindowParams(3))
    target = frozenset(e for e in w.elements if not e.val or e.val[0] == 0)
    gaps = {GF2.zero, GF2.one}
    assert syndetic_check(target, gaps, w) is None


def test_ps_witness_full_target_takes_first_anchor():
    w10 = enumerate_window(Z, WindowParams(10))
    target = frozenset(w10.elements)
    got = ps_witness_search(target, {Z.integer(0)}, {Z.integer(1)}, w10)
    assert got is not None and got.anchor == w10.elements[0]


def test_ps_witness_evens_block():
    w30 = enumerate_window(Z, WindowParams(30))
    evens = frozenset(e for e in w30.elements if e.val % 2 == 0)
    got = ps_witness_search(
        evens,
        {Z.integer(0), Z.integer(1)},
        {Z.integer(v) for v in range(1, 6)},
        w30,
    )
    assert got is not None
    assert got.anchor == Z.integer(1)
    assert validate_ps_witness(got, evens)


def test_ps_witness_not_found():
    w30 = enumerate_window(Z, WindowParams(30))
    target = frozenset(Z.integer(v) for v in range(10, 16))
    got = ps_witness_search(
        target,
        {Z.integer(0), Z.integer(1)},
        {Z.integer(v) for v in range(1, 11)},
        w30,
    )
    assert got is None


def test_ps_witness_anchor_is_least():
    rng = random.Random(17)
    w = enumerate_window(Z, WindowParams(25))
    for _ in range(50):
        target = frozenset(e for e in w.elements if rng.random() < 0.5)
        gaps = {Z.integer(rng.randint(0, 3)) for _ in range(2)}
        block = {Z.integer(rng.randint(1, 5)) for _ in range(2)}
        got = ps_witness_search(target, gaps, block, w)
        # oracle: first anchor in window order passing the raw inclusion test
        expected = None
        for x in w.elements:
            if all(any(t + b + x in target for t in gaps) for b in block):
                expected = x
                break
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.anchor == expected
            assert validate_ps_witness(got, target)


def test_syndetic_cover_yields_witness_for_small_blocks():
    # a full-window cover certifies any block that stays in reach of anchor 0-shift
    w = enumerate_window(Z, WindowParams(14))
    evens = frozenset(e for e in w.elements if e.val % 2 == 0)
    gaps = {Z.integer(0), Z.integer(1)}
    assert syndetic_check(evens, gaps, w) is None
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(1, 6), size):
            block = {Z.integer(v) for v in combo}
            got = ps_witness_search(evens, gaps, block, w)
            assert got is not None
            assert validate_ps_witness(got, evens)


# ---------------------------------------------------------------------------
# Finite sums and products


def test_finite_sums_binary_example():
    fs = finite_sums([Z.integer(1), Z.integer(2), Z.integer(4)])
    assert {e.val for e in fs.sums} == set(range(1, 8))
    assert fs.generators == (Z.integer(1), Z.integer(2), Z.integer(4))


def test_finite_sums_repeated_generator():
    fs = finite_sums([Z.integer(2), Z.integer(2)])
    assert {e.val for e in fs.sums} == {2, 4}


def test_finite_products_example():
    fp = finite_products([Z.integer(2), Z.integer(3)])
    assert {e.val for e in fp} == {2, 3, 6}


def test_finite_sums_arithmetic_progression():
    for n in (1, 3, 6):
        fs = finite_sums([Z.integer(5)] * n)
        assert {e.val for e in fs.sums} == {5 * k for k in range(1, n + 1)}


def test_generators_belong_to_sums():
    rng = random.Random(23)
    for spec in (Z, ZI, GF3):
        for _ in range(50):
            seq = [rand_elem(spec, rng) for _ in range(rng.randint(1, 6))]
            fs = finite_sums(seq)
            assert set(seq) <= fs.sums
            assert len(fs.sums) <= 2 ** len(seq) - 1


def test_sums_and_products_match_subset_oracle():
    rng = random.Random(29)
    for spec in (Z, ZI, GF2, GF3):
        for _ in range(40):
            seq = [rand_elem(spec, rng) for _ in range(rng.randint(1, 5))]
            assert finite_sums(seq).sums == subset_folds(seq, lambda a, b: a + b)
            assert finite_products(seq) == subset_folds(seq, lambda a, b: a * b)


def test_sequence_caps_and_empty():
    with pytest.raises(ValueError):
        finite_sums([])
    with pytest.raises(ValueError):
        finite_products([])
    too_long = [Z.integer(1)] * (FS_LENGTH_CAP + 1)
    with pytest.raises(ValueError):
        finite_sums(too_long)


def test_mixed_ring_sequence_rejected():
    with pytest.raises(ValueError):
        finite_sums([Z.integer(1), ZI.gaussian(1, 0)])


# ---------------------------------------------------------------------------
# IP*-refutation sampling


def test_ipstar_finds_even_counterexample_for_odds():
    w100 = enumerate_window(Z, WindowParams(100))
    odds = frozenset(e for e in w100.elements if e.val % 2 == 1)
    seq = ipstar_refute(odds, w100, 1, 5, 0)
    assert seq is not None
    assert [e.val for e in seq] == [36]  # frozen draw for seed 0


def test_ipstar_counterexample_is_draw_rule_output():
    # sums of multiples of m stay multiples, so a sample drawn from m*R
    # refutes the complement of m*R; m = 2 over Z, 1+i over Zi, x over GF(2)[x]
    cases = [
        (enumerate_window(Z, WindowParams(100)), Z.integer(2), 3, 20, (5,)),
        (enumerate_window(ZI, WindowParams(2)), ZI.gaussian(1, 1), 2, 30, (0, 1, 2)),
        (enumerate_window(GF2, WindowParams(4)), GF2.poly((0, 1)), 3, 40, (0, 1, 2)),
    ]
    for window, m, seq_len, samples, seeds in cases:
        outside = frozenset(e for e in window.elements if exact_divide(e, m) is None)
        for seed in seeds:
            seq = ipstar_refute(outside, window, seq_len, samples, seed)
            # replay the documented draw rule: seq is the first sample whose
            # subset sums all miss the target
            draws = [
                tuple(window.elements[stream_below(seed, s * seq_len + p, len(window))]
                      for p in range(seq_len))
                for s in range(samples)
            ]
            assert seq in draws
            first = draws.index(seq)
            assert not (subset_folds(list(seq), operator.add) & outside)
            assert all(subset_folds(list(d), operator.add) & outside for d in draws[:first])
            assert all(exact_divide(e, m) is not None for e in seq)


def test_ipstar_full_window_never_refuted():
    for spec, size in ((Z, 40), (ZI, 2), (GF2, 4)):
        w = enumerate_window(spec, WindowParams(size))
        assert ipstar_refute(frozenset(w.elements), w, 2, 30, 3) is None


def test_ipstar_multiples_with_bounded_draws():
    # drawing from {1..100} keeps 3-term sums inside {1..300}: a multiple of 3
    # always appears among consecutive-block sums, so no refutation exists
    w300 = enumerate_window(Z, WindowParams(300, signed=True))
    target = frozenset(e for e in w300.elements if e.val % 3 == 0)
    draws = enumerate_window(Z, WindowParams(100))
    for seed in (0, 1, 7):
        assert ipstar_refute(target, draws, 3, 50, seed) is None


def test_ipstar_sums_leave_window_uncLipped():
    # {90, 95}: the pair sum 185 exceeds N=100 and must count as outside
    w100 = enumerate_window(Z, WindowParams(100))
    target = frozenset({Z.integer(185)})
    # target is allowed to mention elements outside the draw window:
    # no drawn singleton nor pair-sum inside {1..100} can hit it unless summed
    seq = ipstar_refute(target, w100, 1, 3, 2)
    assert seq is not None  # single draws never reach 185


def test_ipstar_length_validation():
    w = enumerate_window(Z, WindowParams(10))
    with pytest.raises(ValueError):
        ipstar_refute(frozenset(), w, 0, 1, 0)
    with pytest.raises(ValueError):
        ipstar_refute(frozenset(), w, FS_LENGTH_CAP + 1, 1, 0)
    with pytest.raises(ValueError):
        ipstar_refute(frozenset(), w, 2, -4, 0)
    assert ipstar_refute(frozenset(), w, 2, 0, 0) is None


# ---------------------------------------------------------------------------
# Transport


def build_valid_witness(spec, rng, size=4):
    """Random (target, witness) pair that validates by construction."""
    gaps = {rand_elem(spec, rng) for _ in range(rng.randint(1, 3))}
    block = {rand_elem(spec, rng) for _ in range(rng.randint(1, size))}
    anchor = rand_elem(spec, rng)
    target = set()
    for b in block:
        t = rng.choice(sorted(gaps, key=lambda e: e.sort_key()))
        target.add(t + b + anchor)
    for _ in range(rng.randint(0, 3)):  # noise
        target.add(rand_elem(spec, rng))
    witness = PSWitness(frozenset(gaps), frozenset(block), anchor)
    assert validate_ps_witness(witness, frozenset(target))
    return frozenset(target), witness


def test_dilation_by_one_is_identity():
    rng = random.Random(31)
    for spec in (Z, ZI, GF3):
        _, w = build_valid_witness(spec, rng)
        assert dilation_transport(w, spec.one) == w


def test_dilation_worked_example():
    w = PSWitness(
        frozenset({Z.integer(0), Z.integer(1)}),
        frozenset(Z.integer(v) for v in range(1, 6)),
        Z.integer(1),
    )
    moved = dilation_transport(w, Z.integer(3))
    assert moved.gaps == frozenset({Z.integer(0), Z.integer(3)})
    assert moved.block == frozenset(Z.integer(v) for v in (3, 6, 9, 12, 15))
    assert moved.anchor == Z.integer(3)
    evens = frozenset(Z.integer(v) for v in range(2, 31, 2))
    assert validate_ps_witness(w, evens)
    assert validate_ps_witness(moved, dilate_set(evens, Z.integer(3)))


def test_dilation_preserves_validity():
    rng = random.Random(37)
    for spec in (Z, ZI, GF2, GF3):
        for _ in range(100):
            target, w = build_valid_witness(spec, rng)
            r = rand_nonzero(spec, rng)
            moved = dilation_transport(w, r)
            assert validate_ps_witness(moved, dilate_set(target, r))


def test_dilation_by_x_over_poly_ring():
    rng = random.Random(41)
    x = GF2.poly((0, 1))
    target, w = build_valid_witness(GF2, rng)
    moved = dilation_transport(w, x)
    assert validate_ps_witness(moved, dilate_set(target, x))


def test_dilation_by_zero_rejected():
    rng = random.Random(43)
    _, w = build_valid_witness(Z, rng)
    with pytest.raises(ValueError):
        dilation_transport(w, Z.zero)
    with pytest.raises(ValueError):
        dilate_set({Z.integer(1)}, Z.zero)


def test_division_by_one_is_identity():
    rng = random.Random(47)
    _, w = build_valid_witness(ZI, rng)
    assert division_transport(w, ZI.one) == w


def test_division_undoes_dilation():
    rng = random.Random(53)
    for spec in (Z, ZI, GF3):
        for _ in range(100):
            target, w = build_valid_witness(spec, rng)
            y = rand_nonzero(spec, rng)
            moved = dilation_transport(w, y)
            back = division_transport(moved, y)
            assert back == w
            dilated = dilate_set(target, y)
            assert divide_set(dilated, y) == target
            assert validate_ps_witness(back, target)


def test_division_not_divisible():
    w = PSWitness(frozenset({Z.integer(1)}), frozenset({Z.integer(2)}), Z.integer(4))
    assert division_transport(w, Z.integer(2)) is None


def test_division_by_zero_raises():
    w = PSWitness(frozenset({Z.integer(2)}), frozenset({Z.integer(2)}), Z.integer(2))
    with pytest.raises(ZeroDivisionError):
        division_transport(w, Z.zero)
    with pytest.raises(ZeroDivisionError):
        divide_set({Z.integer(2)}, Z.zero)


def test_divide_set_is_all_or_nothing():
    s = {Z.integer(4), Z.integer(6)}
    assert divide_set(s, Z.integer(2)) == frozenset({Z.integer(2), Z.integer(3)})
    assert divide_set({Z.integer(4), Z.integer(5)}, Z.integer(2)) is None
