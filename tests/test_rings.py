"""Ring arithmetic, exact division, canonical windows, literal round-trips."""

import ast
import pathlib
import random

import pytest

import monochrome
from monochrome import (
    RingElement,
    WindowParams,
    enumerate_window,
    exact_divide,
    format_element,
    format_ring_spec,
    format_window_params,
    parse_element,
    parse_element_set,
    parse_ring_spec,
    parse_window_params,
)
from monochrome.rings import _Poly, integers

Z = parse_ring_spec("Z")
ZI = parse_ring_spec("Zi")
GF2 = parse_ring_spec("GF(2)[x]")
GF3 = parse_ring_spec("GF(3)[x]")
ALL_SPECS = (Z, ZI, GF2, GF3)


def rand_elem(spec, rng):
    if spec == Z:
        return spec.integer(rng.randint(-50, 50))
    if spec == ZI:
        return spec.gaussian(rng.randint(-9, 9), rng.randint(-9, 9))
    return spec.poly([rng.randrange(spec.q) for _ in range(rng.randint(0, 4))])


def rand_nonzero(spec, rng):
    while True:
        e = rand_elem(spec, rng)
        if not e.is_zero():
            return e


# ---------------------------------------------------------------------------
# Spec construction and validation


def test_spec_strings_round_trip():
    for text in ("Z", "Zi", "GF(2)[x]", "GF(7)[x]"):
        assert format_ring_spec(parse_ring_spec(text)) == text


def test_poly_spec_requires_prime_modulus():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match="prime modulus"):
            parse_ring_spec(f"GF({q})[x]")
        with pytest.raises(ValueError, match="prime modulus"):
            _Poly(q)
    assert _Poly(3) == GF3 and hash(_Poly(3)) == hash(GF3)
    assert parse_ring_spec("GF(3)[x]") != GF2 and parse_ring_spec("Zi") == ZI != Z


def test_constructors_guard_their_ring():
    with pytest.raises(ValueError):
        Z.gaussian(1, 1)
    with pytest.raises(ValueError):
        ZI.integer(3)
    with pytest.raises(ValueError):
        Z.poly((1,))


def test_unknown_ring_literal_rejected():
    # the modulus too is ASCII digits only
    for text in ("Q", "GF(\uff13)[x]", "GF(\u0663)[x]"):
        with pytest.raises(ValueError):
            parse_ring_spec(text)


# ---------------------------------------------------------------------------
# Arithmetic


def test_integer_addition_example():
    assert Z.integer(2) + Z.integer(3) == Z.integer(5)


def test_char_two_cancellation_example():
    p = GF2.poly((1, 1))  # x + 1
    assert p + p == GF2.zero
    assert (p + p).is_zero()


def test_gaussian_norm_product_example():
    assert ZI.gaussian(1, 1) * ZI.gaussian(1, -1) == ZI.from_int(2)


def test_ring_axioms_random_triples():
    rng = random.Random(2024)
    for spec in ALL_SPECS:
        for _ in range(1000):
            a, b, c = (rand_elem(spec, rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + spec.zero == a
            assert a * spec.one == a
            assert a - b == a + (-b)
            assert a + (-a) == spec.zero


def _strip(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reference_raw_ops(spec):
    """From-scratch (add, neg, mul) on raw values, independent of rings.py."""
    if spec == Z:
        return (lambda a, b: a + b), (lambda a: -a), (lambda a, b: a * b)
    if spec == ZI:
        def gmul(u, v):
            (a, b), (c, d) = u, v  # (a+bi)(c+di) = (ac-bd) + (ad+bc)i
            return (a * c - b * d, a * d + b * c)
        return (lambda u, v: (u[0] + v[0], u[1] + v[1])), (lambda u: (-u[0], -u[1])), gmul
    q = spec.q

    def padd(a, b):
        n = max(len(a), len(b))
        a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
        return _strip((x + y) % q for x, y in zip(a, b))

    def pmul(a, b):
        conv = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        return _strip(c % q for c in conv)

    return padd, (lambda a: _strip((-c) % q for c in a)), pmul


def rand_raw(spec, rng):
    """A raw value; zero about one time in six, polynomial lengths 0..5."""
    if rng.randrange(6) == 0:
        return spec.zero.val
    if spec == Z:
        return rng.randint(-10**6, 10**6)
    if spec == ZI:
        return (rng.randint(-999, 999), rng.randint(-999, 999))
    return _strip(rng.randrange(spec.q) for _ in range(rng.randint(0, 5)))


def test_raw_ops_match_reference():
    rng = random.Random(4242)
    for spec in ALL_SPECS:
        ref_add, ref_neg, ref_mul = reference_raw_ops(spec)
        assert spec.add is spec.add and spec.neg is spec.neg and spec.mul is spec.mul  # cached
        pairs = [(spec.zero.val, spec.zero.val), (spec.zero.val, spec.one.val)]
        pairs += [(rand_raw(spec, rng), rand_raw(spec, rng)) for _ in range(500)]
        if spec.q is not None:
            pairs += [((1,), (0, 0, 1)), ((1, 1, 1, 1), (spec.q - 1,)), ((0, 1), ())]
            assert any(len(a) != len(b) and a and b for a, b in pairs)
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                assert spec.add(x, y) == ref_add(x, y)
                assert spec.mul(x, y) == ref_mul(x, y)
                assert spec.neg(x) == ref_neg(x)
                ex, ey = RingElement(spec, x), RingElement(spec, y)
                assert (ex + ey).val == ref_add(x, y)
                assert (ex * ey).val == ref_mul(x, y)
                assert (-ex).val == ref_neg(x)
                assert (ex - ey).val == ref_add(x, ref_neg(y))


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(ValueError):
        Z.integer(1) + ZI.gaussian(1, 0)
    with pytest.raises(ValueError):
        GF2.poly((1,)) * GF3.poly((1,))
    with pytest.raises(TypeError, match="^expected RingElement, got int$"):
        Z.integer(1) + 1
    assert (Z.integer(1) == 1) is False


def test_powers():
    assert Z.integer(3) ** 4 == Z.integer(81)
    assert GF2.poly((0, 1)) ** 2 == GF2.poly((0, 0, 1))
    assert ZI.gaussian(0, 1) ** 2 == ZI.from_int(-1)
    assert Z.integer(5) ** 0 == Z.one
    with pytest.raises(ValueError):
        Z.integer(2) ** -1



def test_power_multiplies_only_as_needed(monkeypatch):
    # square-and-multiply: bit_length - 1 squarings and popcount - 1
    # products into the result, none of them by one
    mults = [0, 0, 1, 2, 2, 3, 3, 4, 3]
    for base in (Z.integer(-3), ZI.gaussian(1, 2), GF3.poly((2, 1))):
        spec = base.spec
        want = [spec.one]
        for _ in range(8):
            want.append(want[-1] * base)
        calls = [0]
        mul = spec.mul

        def counting_mul(a, b):
            calls[0] += 1
            return mul(a, b)

        monkeypatch.setattr(spec, "mul", counting_mul)
        for k in range(9):
            calls[0] = 0
            assert base ** k == want[k], (spec, k)
            assert calls[0] == mults[k], (spec, k)
        monkeypatch.undo()

def test_no_zero_divisors_sampled():
    rng = random.Random(11)
    for spec in ALL_SPECS:
        for _ in range(300):
            a, b = rand_nonzero(spec, rng), rand_nonzero(spec, rng)
            assert not (a * b).is_zero()


# ---------------------------------------------------------------------------
# Exact division


def test_exact_divide_examples():
    assert exact_divide(Z.integer(6), Z.integer(3)) == Z.integer(2)
    assert exact_divide(Z.integer(7), Z.integer(3)) is None
    # (x^2 + x) / x = x + 1 over GF(2)
    assert exact_divide(GF2.poly((0, 1, 1)), GF2.poly((0, 1))) == GF2.poly((1, 1))


def test_exact_divide_by_zero_raises():
    for spec in ALL_SPECS:
        with pytest.raises(ZeroDivisionError):
            exact_divide(spec.one, spec.zero)


def test_exact_divide_inverts_multiplication():
    rng = random.Random(99)
    for spec in ALL_SPECS:
        for _ in range(1000):
            a = rand_elem(spec, rng)
            b = rand_nonzero(spec, rng)
            assert exact_divide(a * b, b) == a


def test_exact_divide_gaussian_non_divisible():
    # (1+2i)/(1+i): quotient (3+i)/2 is not integral
    assert exact_divide(ZI.gaussian(1, 2), ZI.gaussian(1, 1)) is None
    assert exact_divide(ZI.gaussian(0, 2), ZI.gaussian(1, 1)) == ZI.gaussian(1, 1)


def test_exact_divide_result_verifies():
    rng = random.Random(5)
    for spec in ALL_SPECS:
        hits = 0
        for _ in range(500):
            a = rand_elem(spec, rng)
            b = rand_nonzero(spec, rng)
            c = exact_divide(a, b)
            if c is not None:
                hits += 1
                assert b * c == a
        assert hits > 0


# ---------------------------------------------------------------------------
# Canonical form


def test_poly_trailing_zeros_normalized():
    assert GF2.poly((1, 1, 0, 0)) == GF2.poly((1, 1))
    assert GF2.poly((0, 0)) == GF2.zero
    assert GF2.poly(()) == GF2.zero
    # coefficients reduced mod q
    assert GF3.poly((4, 3)) == GF3.poly((1,))


def test_normalization_idempotent():
    rng = random.Random(13)
    for spec in (GF2, GF3):
        for _ in range(200):
            coeffs = [rng.randrange(10) for _ in range(rng.randint(0, 5))]
            once = spec.poly(coeffs)
            assert spec.poly(once.val) == once


def test_from_int_embedding():
    assert Z.from_int(5) == Z.integer(5)
    assert ZI.from_int(-2) == ZI.gaussian(-2, 0)
    assert GF2.from_int(3) == GF2.one
    assert GF3.from_int(3) == GF3.zero


# ---------------------------------------------------------------------------
# Windows


def test_integer_window_example():
    w = enumerate_window(Z, WindowParams(5))
    assert [e.val for e in w.elements] == [1, 2, 3, 4, 5]


def test_signed_integer_window():
    w = enumerate_window(Z, WindowParams(2, signed=True))
    assert [e.val for e in w.elements] == [-2, -1, 0, 1, 2]


def test_poly_window_example():
    w = enumerate_window(GF2, WindowParams(2))
    assert [format_element(e) for e in w.elements] == ["0", "1", "x", "x+1"]


def test_gaussian_window_example():
    w = enumerate_window(ZI, WindowParams(1))
    assert len(w) == 9
    assert w.elements[0] == ZI.zero
    # ordered by (norm, re, im)
    norms = [e.val[0] ** 2 + e.val[1] ** 2 for e in w.elements]
    assert norms == sorted(norms)


def test_window_sizes():
    assert len(enumerate_window(Z, WindowParams(17))) == 17
    assert len(enumerate_window(Z, WindowParams(3, signed=True))) == 7
    assert len(enumerate_window(ZI, WindowParams(2))) == 25
    assert len(enumerate_window(GF2, WindowParams(3))) == 8
    assert len(enumerate_window(GF3, WindowParams(2))) == 9


def test_index_inverts_position():
    for spec, params in (
        (Z, WindowParams(30)),
        (Z, WindowParams(6, signed=True)),
        (ZI, WindowParams(2)),
        (GF2, WindowParams(4)),
        (GF3, WindowParams(2)),
    ):
        w = enumerate_window(spec, params)
        for k, e in enumerate(w.elements):
            assert w.index[e] == k
            assert e in w
        keys = [e.sort_key() for e in w.elements]
        assert keys == sorted(keys)
        assert w.product_run(spec.zero) == (0, len(w))


def test_window_identity_is_spec_and_params():
    a = enumerate_window(Z, WindowParams(5))
    b = enumerate_window(Z, WindowParams(5))
    c = enumerate_window(Z, WindowParams(6))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_window_elements_unique():
    for spec, params in ((ZI, WindowParams(2)), (GF3, WindowParams(3))):
        w = enumerate_window(spec, params)
        assert len(set(w.elements)) == len(w)


def test_invalid_window_params():
    with pytest.raises(ValueError):
        enumerate_window(Z, WindowParams(0))
    with pytest.raises(ValueError):
        enumerate_window(ZI, WindowParams(-1))
    with pytest.raises(ValueError):
        enumerate_window(GF2, WindowParams(0))
    for spec in (ZI, GF2):
        with pytest.raises(ValueError):
            enumerate_window(spec, WindowParams(2, signed=True))


def test_window_param_strings_round_trip():
    for spec, text in ((Z, "N=50"), (Z, "N=10,signed"), (ZI, "B=3"), (GF2, "d=4")):
        params = parse_window_params(spec, text)
        assert format_window_params(spec, params) == text


def test_window_param_key_must_match_ring():
    with pytest.raises(ValueError):
        parse_window_params(Z, "B=3")
    with pytest.raises(ValueError):
        parse_window_params(ZI, "N=3")
    with pytest.raises(ValueError):
        parse_window_params(GF2, "N=3")
    with pytest.raises(ValueError):
        parse_window_params(ZI, "B=2,signed")
    with pytest.raises(ValueError):
        parse_window_params(GF2, "d=3,signed")
    # the size too is ASCII digits only, between ASCII whitespace only
    for text in ("N=\uff11_\uff12", "N=1_2", "N=\u0663", "N=\u30005", "\u3000N=5", "N=5,\u3000signed"):
        with pytest.raises(ValueError):
            parse_window_params(Z, text)


# ---------------------------------------------------------------------------
# Element literals


def test_element_literals_round_trip():
    rng = random.Random(31)
    for spec in ALL_SPECS:
        for _ in range(300):
            e = rand_elem(spec, rng)
            assert parse_element(spec, format_element(e)) == e


def test_gaussian_literal_forms():
    assert parse_element(ZI, "1+2i") == ZI.gaussian(1, 2)
    assert parse_element(ZI, "-3i") == ZI.gaussian(0, -3)
    assert parse_element(ZI, "i") == ZI.gaussian(0, 1)
    assert parse_element(ZI, "4") == ZI.gaussian(4, 0)
    assert format_element(ZI.gaussian(0, 0)) == "0"
    # the imaginary part may come first; the canonical form puts it last
    for text, want in (("i+1", (1, 1)), ("3i+2", (2, 3)), ("-i+2", (2, -1)), ("-2i-3", (-3, -2))):
        e = parse_element(ZI, text)
        assert e == ZI.gaussian(*want)
        assert format_element(e) == format_element(ZI.gaussian(*want))


def test_poly_literal_forms():
    assert parse_element(GF2, "x^2+x") == GF2.poly((0, 1, 1))
    assert parse_element(GF3, "2x^2+1") == GF3.poly((1, 0, 2))
    assert parse_element(GF2, "0") == GF2.zero
    assert format_element(GF3.poly((1, 0, 2))) == "2x^2+1"


def test_bad_element_literals():
    with pytest.raises(ValueError):
        parse_element(Z, "two")
    with pytest.raises(ValueError):
        parse_element(GF2, "y+1")
    for text in ("1+2", "2j", "i+i", "1+2i+3", "1+-2i", "-"):
        with pytest.raises(ValueError):
            parse_element(ZI, text)
    # ASCII digits only, in every ring: no underscores, no other scripts' digits
    for spec, text in ((Z, "1_000"), (Z, "\uff11\uff12"), (Z, "\u0663"), (ZI, "1_000"),
                       (ZI, "\uff11\uff12"), (ZI, "2+\u0661i"), (GF2, "1_0"),
                       (GF3, "\uff11x"), (GF3, "x^\u0662")):
        with pytest.raises(ValueError):
            parse_element(spec, text)
    # ASCII whitespace only around a literal: str.strip() would also take U+3000
    for spec, text in ((Z, "\u30005"), (Z, "5\u3000"), (ZI, "\u3000i"), (GF2, "x\u3000")):
        with pytest.raises(ValueError):
            parse_element(spec, text)
    with pytest.raises(ValueError, match="^empty element literal$"):
        parse_element(Z, "  ")
    w = enumerate_window(Z, WindowParams(10))
    assert parse_element_set(Z, "\t{1, 2 } ", w) == frozenset({Z.integer(1), Z.integer(2)})
    with pytest.raises(ValueError, match=r"^ideal\(m\) needs m != 0$"):
        parse_element_set(Z, "ideal(0)", w)
    for text in ("{1,\u30002}", "\u3000{1}", "{\u3000}"):
        with pytest.raises(ValueError):
            parse_element_set(Z, text, w)


def test_integers_reports_a_bad_token_alike_in_any_text():
    """The all-ASCII fast path and the per-token path give one message."""
    for text in ("1 x", "1 x \u00e9"):
        with pytest.raises(ValueError) as err:
            integers(text)
        assert str(err.value) == "bad decimal 'x'", text


def test_element_set_literals():
    w = enumerate_window(Z, WindowParams(10))
    got = parse_element_set(Z, "{1,3,5}", w)
    assert got == frozenset({Z.integer(1), Z.integer(3), Z.integer(5)})


def test_element_set_presets():
    w = enumerate_window(Z, WindowParams(10))
    evens = parse_element_set(Z, "evens", w)
    assert evens == frozenset(e for e in w.elements if e.val % 2 == 0)
    threes = parse_element_set(Z, "ideal(3)", w)
    assert threes == frozenset(e for e in w.elements if e.val % 3 == 0)


def test_element_set_preset_poly_ring():
    w = enumerate_window(GF2, WindowParams(3))
    x = GF2.poly((0, 1))
    ideal = parse_element_set(GF2, "ideal(x)", w)
    assert ideal == frozenset(e for e in w.elements if exact_divide(e, x) is not None)


def test_repr_is_readable():
    assert "Z" in repr(Z.integer(3))
    assert isinstance(repr(enumerate_window(Z, WindowParams(3))), str)


def test_ring_kind_stays_in_rings():
    """Each ring kind's behaviour lives in its RingSpec subclass in
    rings.py: no other module names RingKind or a subclass, or reads a
    spec's ``.kind``."""
    hidden = {"RingKind", "_Integers", "_Gaussian", "_Poly"}
    found = set()
    for path in sorted(pathlib.Path(monochrome.__file__).parent.glob("*.py")):
        if path.name == "rings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id in hidden
                    or isinstance(node, ast.alias) and node.name in hidden
                    or isinstance(node, ast.Attribute) and (node.attr in hidden or node.attr == "kind")):
                found.add((path.name, node.lineno))
    assert not found
