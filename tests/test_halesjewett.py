"""Words, combinatorial lines, tiny exhaustive thresholds, layered translation,
and the additive embedding identity."""

import itertools
import random

import pytest

from monochrome import (
    WILDCARD,
    AvoidanceStatus,
    SigmaPoint,
    VariableWord,
    Word,
    coefficient_alphabet,
    find_avoiding_coloring,
    flat_index,
    hj_number_exhaustive,
    line_of,
    multi_indices,
    multiplicative_assignment,
    parse_family,
    parse_ring_spec,
    sigma_embed,
    sigma_translate,
    sigma_trials,
    substitute,
    variable_words,
    verify_sigma_line_identity,
    wildcard_set,
    enumerate_window,
    WindowParams,
)
from monochrome.halesjewett import _line_cells
from _reference_engines import reference_find_avoiding_coloring

Z = parse_ring_spec("Z")
ZI = parse_ring_spec("Zi")
GF2 = parse_ring_spec("GF(2)[x]")
GF3 = parse_ring_spec("GF(3)[x]")


# ---------------------------------------------------------------------------
# Words and substitution


def test_substitute_examples():
    w = VariableWord(2, (1, WILDCARD, 2))
    assert substitute(w, 1) == Word(2, (1, 1, 2))
    assert substitute(w, 2) == Word(2, (1, 2, 2))

    vv = VariableWord(3, (WILDCARD, WILDCARD))
    for a in (1, 2, 3):
        assert substitute(vv, a) == Word(3, (a, a))


def test_variable_word_needs_a_wildcard():
    with pytest.raises(ValueError):
        VariableWord(2, (1, 2))


def test_letters_validated():
    with pytest.raises(ValueError):
        Word(2, (1, 3))
    with pytest.raises(ValueError):
        Word(2, (0, 1))  # plain words carry no wildcard
    with pytest.raises(ValueError):
        VariableWord(2, (WILDCARD, 5))
    with pytest.raises(ValueError):
        substitute(VariableWord(2, (WILDCARD,)), 3)


def test_line_substitutions_pairwise_distinct():
    rng = random.Random(1)
    for _ in range(200):
        t = rng.randint(2, 4)
        n = rng.randint(1, 5)
        letters = [rng.randint(1, t) for _ in range(n)]
        for pos in rng.sample(range(n), rng.randint(1, n)):
            letters[pos] = WILDCARD
        w = VariableWord(t, tuple(letters))
        line = line_of(w)
        assert len(line) == t
        assert len(set(line)) == t


def cube_cells(t, n):
    """Oracle: each word of [t]^n, as its letters, to its place in
    itertools' lexicographic enumeration of the cube."""
    return {letters: k for k, letters in enumerate(itertools.product(range(1, t + 1), repeat=n))}


def oracle_lines(t, n):
    """Every line of [t]^n as a list of oracle cell indices."""
    cell = cube_cells(t, n)
    return [[cell[w.letters] for w in line_of(vw)] for vw in variable_words(t, n)]


def test_word_enumeration_counts():
    for t, n in ((2, 3), (3, 2), (2, 4)):
        assert len(list(multi_indices(t, n))) == t**n
        assert len(list(variable_words(t, n))) == (t + 1) ** n - t**n


def test_word_index_matches_enumeration_order():
    """The cube search indexes each word at its place in the lexicographic
    enumeration of [t]^n."""
    for t, n in ((1, 3), (2, 3), (3, 2), (4, 1)):
        assert [list(line) for line in _line_cells(t, n)] == oracle_lines(t, n)


# ---------------------------------------------------------------------------
# Exhaustive tiny thresholds


def mono_line_in_every_coloring(t, n, r):
    """Oracle: plain double loop over all colorings x all lines."""
    line_idx = oracle_lines(t, n)
    for colors in itertools.product(range(1, r + 1), repeat=t**n):
        if not any(
            len({colors[i] for i in idx}) == 1 for idx in line_idx
        ):
            return False, colors
    return True, None


def test_single_color_always_forced_at_length_one():
    res = hj_number_exhaustive(1, 3, 2)
    assert res.status == "found" and res.n == 1


def test_two_colors_alphabet_three_avoids_at_length_one():
    res = hj_number_exhaustive(2, 3, 1)
    assert res.status == "not_found_within"
    assert res.avoiding is not None
    # the only line is {1,2,3}: the emitted coloring must split it
    assert len(set(res.avoiding)) > 1


def test_two_colors_alphabet_two_threshold():
    res = hj_number_exhaustive(2, 2, 3)
    assert res.status == "found"
    assert res.n == 2
    # oracle agreement at both sides of the threshold
    forced, _ = mono_line_in_every_coloring(2, 2, 2)
    assert forced
    forced1, avoider = mono_line_in_every_coloring(2, 1, 2)
    assert not forced1 and avoider is not None


FOUND, FORCED, TIMEOUT = AvoidanceStatus.FOUND, AvoidanceStatus.FORCED, AvoidanceStatus.TIMEOUT


def test_avoiding_coloring_at_length_one():
    assert find_avoiding_coloring(2, 2, 1) == (FOUND, (1, 2))
    assert find_avoiding_coloring(2, 2, 2) == (FORCED, None)


def test_forced_propagates_upward():
    # once every coloring is hit at n, longer cubes stay hit
    assert find_avoiding_coloring(2, 2, 2) == (FORCED, None)
    assert find_avoiding_coloring(2, 2, 3) == (FORCED, None)


def test_avoiding_colorings_verify_against_oracle():
    status, got = find_avoiding_coloring(2, 3, 1)
    assert status is FOUND
    for idx in oracle_lines(3, 1):
        assert len({got[i] for i in idx}) > 1


def test_work_cap_guard():
    # [3]^1 needs two decisions and [3]^2 eight, so a cap of 2 stops at side 2
    res = hj_number_exhaustive(2, 3, 3, work_cap=2)
    assert (res.status, res.n, res.avoiding) == ("work_cap_exceeded", 2, None)
    # [2]^1 needs one decision, and so does the forced [2]^2: color 1 at its
    # first cell is refuted and no other color is tried there
    res = hj_number_exhaustive(2, 2, 3, work_cap=1)
    assert (res.status, res.n) == ("found", 2)
    res = hj_number_exhaustive(2, 2, 3, work_cap=10**7)
    assert (res.status, res.n) == ("found", 2)


def test_negative_work_cap_rejected():
    for call in (lambda: find_avoiding_coloring(2, 2, 1, work_cap=-1),
                 lambda: hj_number_exhaustive(2, 2, 3, work_cap=-1)):
        with pytest.raises(ValueError):
            call()
    # a cap of 0 stays valid: [1]^1 is forced without a decision, [2]^1 needs one
    assert find_avoiding_coloring(2, 1, 1, work_cap=0) == (FORCED, None)
    assert find_avoiding_coloring(2, 2, 1, work_cap=0) == (TIMEOUT, None)
    res = hj_number_exhaustive(2, 2, 3, work_cap=0)
    assert (res.status, res.n) == ("work_cap_exceeded", 1)


# r >= 2 with t >= 3 and n >= 4 is left out: there the reference passes
# 10^6 assignments (about 2 s each); every other case up to n = 5 finishes
REFERENCE_CASES = [(r, t, n) for r in (1, 2, 3) for t in (1, 2, 3, 4) for n in range(1, 6)
                   if not (r >= 2 and t >= 3 and n >= 4)]


def test_cube_search_matches_the_reference_counter():
    assert {(2, 3, 3), (3, 3, 3), (2, 4, 3), (1, 4, 5), (3, 1, 5)} <= set(REFERENCE_CASES)
    for r, t, n in REFERENCE_CASES:
        ref = reference_find_avoiding_coloring(r, t, n, work_cap=10**6)
        assert find_avoiding_coloring(r, t, n) == ref, (r, t, n)


def test_cube_search_matches_the_brute_force_oracle():
    # the oracle walks colorings in lexicographic order, so its avoider is
    # the lexicographically first one, which the search must return too
    cases = [(r, t, n) for r in (1, 2, 3) for t in (1, 2, 3, 4) for n in (1, 2, 3)
             if r ** (t**n) <= 2**12]
    assert len(cases) == 28
    for r, t, n in cases:
        forced, avoider = mono_line_in_every_coloring(t, n, r)
        assert find_avoiding_coloring(r, t, n) == (FORCED if forced else FOUND, avoider), (r, t, n)
        assert forced == (avoider is None)


def test_input_validation():
    with pytest.raises(ValueError):
        hj_number_exhaustive(0, 2, 2)
    with pytest.raises(ValueError):
        hj_number_exhaustive(2, 0, 2)
    with pytest.raises(ValueError):
        hj_number_exhaustive(2, 2, 0)


# ---------------------------------------------------------------------------
# Layered spaces


def test_multi_indices_row_major():
    assert list(multi_indices(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(multi_indices(3, 1)) == [(1,), (2,), (3,)]


def test_flat_index_inverts_enumeration():
    for n, j in ((2, 2), (3, 2), (2, 3)):
        for k, idx in enumerate(multi_indices(n, j)):
            assert flat_index(idx, n) == k


def test_wildcard_set_validation():
    with pytest.raises(ValueError):
        wildcard_set(())
    g = wildcard_set((2, 1))
    assert g.gamma == frozenset({1, 2})
    with pytest.raises(ValueError):
        g.check_range(1)
    g.check_range(2)


@pytest.mark.parametrize("build, message", [
    (lambda: Word(0, (1,)), "alphabet size must be >= 1"),
    (lambda: Word(2, ()), "words are nonempty"),
    (lambda: flat_index((3,), 2), "index entry 3 out of range 1..2"),
    (lambda: wildcard_set([0]), "coordinates are integers >= 1"),
    (lambda: SigmaPoint(Z, 0, ((),)), "side must be >= 1"),
    (lambda: coefficient_alphabet(parse_family(Z, "t^2"), 1),
     "padding degree 1 below the family's top degree 2"),
    (lambda: multiplicative_assignment([], 1), "need at least one base value"),
    (lambda: multiplicative_assignment([Z.integer(2)], 0), "depth must be >= 1"),
], ids=["alphabet", "empty-word", "flat-index", "wildcard", "side", "padding", "no-base", "depth"])
def test_word_and_layered_space_arguments_checked(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# ---------------------------------------------------------------------------
# Additive embedding


def test_sigma_point_shape_checked():
    SigmaPoint(Z, 2, ((Z.one, Z.zero), (Z.one,) * 4))
    with pytest.raises(ValueError, match=r"^level 2 must have length 4, got 3$"):
        SigmaPoint(Z, 2, ((Z.one, Z.zero), (Z.one,) * 3))
    with pytest.raises(ValueError, match=r"^at least one level$"):
        SigmaPoint(Z, 2, ())
    with pytest.raises(ValueError, match=r"^entries must be ring elements of the stated ring$"):
        SigmaPoint(Z, 1, ((GF2.one,),))


def test_sigma_embed_linear_example():
    ys = (Z.integer(3), Z.integer(5))
    y_assign = multiplicative_assignment(ys, 1)
    u = SigmaPoint(Z, 2, ((Z.integer(2), Z.integer(2)),))
    assert sigma_embed(u, y_assign, Z.zero) == Z.integer(16)


def test_sigma_embed_all_zero_coefficients():
    ys = (Z.integer(3), Z.integer(5))
    y_assign = multiplicative_assignment(ys, 2)
    zero = Z.zero
    u = SigmaPoint(Z, 2, ((zero, zero), (zero,) * 4))
    assert sigma_embed(u, y_assign, Z.integer(7)) == Z.integer(7)


def test_sigma_embed_char_two_example():
    x = GF2.poly((0, 1))
    ys = (x, x + GF2.one)
    y_assign = multiplicative_assignment(ys, 1)
    u = SigmaPoint(GF2, 2, ((GF2.one, GF2.one),))
    assert sigma_embed(u, y_assign, GF2.one) == GF2.zero


def test_sigma_embed_missing_assignment_entry():
    u = SigmaPoint(Z, 2, ((Z.integer(1), Z.integer(1)),))
    with pytest.raises(ValueError):
        sigma_embed(u, {(1,): Z.integer(3)}, Z.zero)


def test_sigma_linearity_in_single_coordinates():
    rng = random.Random(15)
    for spec in (Z, ZI, GF3):
        w = enumerate_window(spec, WindowParams(3 if spec is not Z else 9))
        pool = w.elements
        for _ in range(100):
            n, d = rng.randint(1, 3), rng.randint(1, 2)
            ys = tuple(rng.choice(pool) for _ in range(n))
            y_assign = multiplicative_assignment(ys, d)
            layers = [
                [rng.choice(pool) for _ in range(n**j)] for j in range(1, d + 1)
            ]
            u = SigmaPoint(spec, n, tuple(tuple(l) for l in layers))
            r0 = rng.choice(pool)
            base = sigma_embed(u, y_assign, r0)
            j = rng.randint(1, d)
            cell = rng.randrange(n**j)
            c_old = layers[j - 1][cell]
            c_new = rng.choice(pool)
            layers[j - 1][cell] = c_new
            bumped = SigmaPoint(spec, n, tuple(tuple(l) for l in layers))
            idx = list(multi_indices(n, j))[cell]
            delta = (c_new - c_old) * y_assign[idx]
            assert sigma_embed(bumped, y_assign, r0) == base + delta


def test_multiplicative_assignment_products():
    ys = (Z.integer(2), Z.integer(3))
    ya = multiplicative_assignment(ys, 2)
    assert ya[(1,)] == Z.integer(2)
    assert ya[(2, 1)] == Z.integer(6)
    assert ya[(2, 2)] == Z.integer(9)


def test_non_multiplicative_assignment_rejected():
    fam = parse_family(Z, "t^2")
    ys = (Z.integer(2), Z.integer(3))
    ya = dict(multiplicative_assignment(ys, 2))
    ya[(2, 2)] = Z.integer(10)  # break the product structure
    u = SigmaPoint(Z, 2, ((Z.zero, Z.zero), (Z.zero,) * 4))
    with pytest.raises(ValueError):
        verify_sigma_line_identity(fam, ya, wildcard_set({1}), u, Z.zero)


@pytest.mark.parametrize("check, message", [
    (lambda u, ya: sigma_embed(u, ya, ZI.zero), "base point and layered point from different rings"),
    (lambda u, ya: verify_sigma_line_identity(parse_family(ZI, "t"), ya, wildcard_set({1}), u, Z.zero),
     "family and layered point from different rings"),
    (lambda u, ya: verify_sigma_line_identity(parse_family(Z, "t^2"), ya, wildcard_set({1}), u, Z.zero),
     "layered point too shallow for the family's top degree"),
], ids=["base-point-ring", "family-ring", "too-shallow"])
def test_sigma_checks_rings_and_depth(check, message):
    u = SigmaPoint(Z, 2, ((Z.one, Z.zero),))  # one level over Z
    ya = multiplicative_assignment((Z.integer(2), Z.integer(3)), 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(u, ya)


def test_coefficient_alphabet_contents():
    fam = parse_family(Z, "2t; 3t^2+t")
    # degree padding inserts 0: poly 2t has no square term
    alpha = coefficient_alphabet(fam)
    assert set(alpha) == {Z.zero, Z.one, Z.integer(2), Z.integer(3)}
    assert list(alpha) == sorted(alpha, key=lambda e: e.sort_key())


def test_identity_worked_example_full_gamma():
    fam = parse_family(Z, "2t")
    ys = (Z.integer(3), Z.integer(5))
    ya = multiplicative_assignment(ys, 1)
    u = SigmaPoint(Z, 2, ((Z.integer(2), Z.integer(2)),))
    checks = verify_sigma_line_identity(fam, ya, wildcard_set({1, 2}), u, Z.zero)
    assert len(checks) == 1
    chk = checks[0]
    assert chk.ok
    # substituted coefficients cover both cells: value 2*3 + 2*5 = 16 = f(3+5)
    assert chk.lhs == Z.integer(16)
    assert chk.rhs == Z.integer(16)


def test_identity_worked_example_partial_gamma():
    fam = parse_family(Z, "2t")
    ys = (Z.integer(3), Z.integer(5))
    ya = multiplicative_assignment(ys, 1)
    u = SigmaPoint(Z, 2, ((Z.integer(2), Z.integer(2)),))
    checks = verify_sigma_line_identity(fam, ya, wildcard_set({2}), u, Z.zero)
    chk = checks[0]
    assert chk.ok
    # untouched cell contributes 2*3 = 6; f(y_2) = 10
    assert chk.lhs == Z.integer(16)


def test_phj_translate_single_layer():
    u = SigmaPoint(Z, 3, ((Z.one,) * 3,))
    moved = sigma_translate(u, wildcard_set({1, 3}), (Z.integer(2),))
    assert moved.layers == ((Z.integer(2), Z.one, Z.integer(2)),)


def test_phj_translate_touches_exactly_gamma_cells():
    u = SigmaPoint(Z, 2, ((Z.one,) * 2, (Z.one,) * 4))
    moved = sigma_translate(u, wildcard_set({1}), (Z.integer(2), Z.integer(2)))
    assert moved.layers[0] == (Z.integer(2), Z.one)
    # gamma^2 = {(1,1)} -> flat cell 0 only
    assert moved.layers[1] == (Z.integer(2), Z.one, Z.one, Z.one)


def test_sigma_translate_writes_family_coefficients():
    # (family, side n, base entry, gamma, the cells of each level set to f's coefficient)
    for fam_text, n, base, gamma, cells in (
            ("3t^2+2t", 2, Z.zero, {1}, ((0,), (0,))),
            # gamma^2 = {1,3}^2 is flat cells 0, 2, 6 and 8 of level 2
            ("3t^2+2t", 3, Z.one, {1, 3}, ((0, 2), (0, 2, 6, 8)))):
        f = parse_family(Z, fam_text).polys[0]
        u = SigmaPoint(Z, n, tuple((base,) * n**j for j in range(1, len(cells) + 1)))
        moved = sigma_translate(u, wildcard_set(gamma), tuple(f.coeff(j) for j in range(1, u.d + 1)))
        assert moved.layers == tuple(
            tuple(f.coeff(j) if k in cells[j - 1] else base for k in range(n**j))
            for j in range(1, u.d + 1)), (fam_text, n, gamma)


def test_sigma_translate_idempotent():
    rng = random.Random(9)
    for spec, pool in ((Z, enumerate_window(Z, WindowParams(5)).elements),
                       (GF2, enumerate_window(GF2, WindowParams(2)).elements)):
        for _ in range(100):
            n, d = rng.randint(1, 3), rng.randint(1, 2)
            u = SigmaPoint(spec, n, tuple(tuple(rng.choice(pool) for _ in range(n**j))
                                          for j in range(1, d + 1)))
            gamma = wildcard_set(rng.sample(range(1, n + 1), rng.randint(1, n)))
            coeffs = tuple(rng.choice(pool) for _ in range(d))
            once = sigma_translate(u, gamma, coeffs)
            assert sigma_translate(once, gamma, coeffs) == once


def test_sigma_translate_rejects_bad_coefficients():
    u = SigmaPoint(Z, 2, ((Z.one, Z.one), (Z.one,) * 4))
    gamma = wildcard_set({1})
    with pytest.raises(ValueError, match=r"^need 2 coefficients, got 1$"):
        sigma_translate(u, gamma, (Z.one,))
    with pytest.raises(ValueError, match=r"^coefficients must be ring elements of the stated ring$"):
        sigma_translate(u, gamma, (Z.one, GF2.one))
    with pytest.raises(ValueError, match=r"exceeds side 2"):
        sigma_translate(u, wildcard_set({3}), (Z.one, Z.one))


def test_seeded_trials_all_pass_each_ring():
    for spec, params, fam_text in (
        (Z, WindowParams(12), "2t^2+t"),
        (ZI, WindowParams(2), "t; (1+1i)t^2"),
        (GF3, WindowParams(2), "t^3+2t"),
    ):
        pool = enumerate_window(spec, params)
        fam = parse_family(spec, fam_text)
        ran = 0
        for trial in sigma_trials(fam, pool, 2, None, 50, 13):
            for chk in trial:
                assert chk.ok
                assert chk.lhs == chk.rhs
                ran += 1
        assert ran == 50 * len(fam.polys)


def test_trials_are_seed_deterministic():
    pool = enumerate_window(Z, WindowParams(10))
    fam = parse_family(Z, "t^2")
    a = [tuple(chk.lhs for chk in t) for t in sigma_trials(fam, pool, 2, None, 20, 3)]
    b = [tuple(chk.lhs for chk in t) for t in sigma_trials(fam, pool, 2, None, 20, 3)]
    assert a == b


@pytest.mark.parametrize("ring, n, trials, message", [
    ("GF(2)[x]", 2, 5, "pool window and family from different rings"),
    ("Z", 0, 5, "side must be >= 1"),
    ("Z", 2, -1, "trial count must be >= 0, got -1"),
], ids=["ring-mismatch", "side-below-one", "negative-trials"])
def test_trials_check_their_arguments_at_the_call(ring, n, trials, message):
    # the call itself raises: no trial result has to be read first
    spec = parse_ring_spec(ring)
    pool = enumerate_window(spec, WindowParams(3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        sigma_trials(parse_family(Z, "t^2"), pool, n, None, trials, 0)
