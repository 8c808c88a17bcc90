"""Exact arithmetic in three integral domains, plus canonical finite windows.

Supported rings and element representations:

* ``Z`` -- rational integers; the value is a Python int (arbitrary
  precision, so products never overflow).
* ``Zi`` -- Gaussian integers; the value is an ``(re, im)`` pair of ints.
* ``GF(q)[x]`` -- polynomials over a prime field; the value is a tuple of
  coefficients ``(c0, c1, ...)`` in ``{0..q-1}``, constant term first,
  with no trailing zeros (``()`` is the zero polynomial).

Each element has exactly one canonical representation, so structural
equality is ring equality and elements are usable as dict keys.  No
other module knows these representations: each ring's spec is an
instance of one :class:`RingSpec` subclass per ring kind (``_Integers``,
``_Gaussian``, ``_Poly``), which holds that raw format.
``RingElement``'s operators, the subset folds and walks of ``largeness``
and the candidate kernel of ``patterns`` run on the spec's raw ``add``,
``neg`` and ``mul``, treating raw values as opaque.  A ``GF(q)[x]``
product whose shorter factor has at most ``255 // (q-1)^2`` terms is one
integer multiply of the coefficient bytes, each byte then taken mod q (no
sum carries); any other takes the schoolbook loop.

A :class:`Window` is a canonically ordered finite slice of a ring:

* ``Z``: ``{1..N}`` ascending, or ``[-N..N]`` ascending with the
  ``signed`` flag,
* ``Zi``: the box ``|re| <= B, |im| <= B`` ordered by ``(norm, re, im)``,
* ``GF(q)[x]``: all polynomials of degree < d ordered by their base-q
  integer value (equivalently by (degree, coefficient vector)).

The fixed order pins down element indices, which keeps colorings, CNF
variable numbering and scan order reproducible across runs and
implementations.  It also makes the x with x*y in the window a run of
positions, :meth:`Window.product_run` (a superset where inexact): the
prefix ``x <= N // y`` of ``Z {1..N}``, the middle ``|x| <= N // |y|``
of signed ``Z``, the norm prefix ``N(x) <= 2B^2 // N(y)`` of ``Zi``, the
first ``q^(d - deg y)`` elements of ``GF(q)[x]``, and for ``y = 0`` the
whole window; a Zi run is one bisect of the cached sort keys
(``Window.keys``).  Scans that need whole configurations visit only these
runs: about ``|W| log |W|`` pairs over ``Z`` instead of ``|W|^2``.
A window holds raw values, and builds its RingElements on the first
read of ``elements``: readers that need only raw values, such as
``len``, the largeness walks and distinct-product growth, build none.

Spec strings accepted by :func:`parse_ring_spec`: ``Z``, ``Zi``,
``GF(q)[x]`` with q a decimal prime.  Window parameter strings accepted
by :func:`parse_window_params`: ``N=<int>`` (optionally ``N=<int>,signed``),
``B=<int>``, ``d=<int>``.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# the only whitespace a literal read from outside may carry (str.strip()
# and str.split() also take U+3000 and other Unicode spaces)
WHITESPACE = " \t\n\r\f\v"
_TOKEN = re.compile(f"[^{WHITESPACE}]+")
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(text: str) -> int:
    """An optionally signed run of ASCII digits, the only integer form a
    literal takes in any ring (int() alone also takes ``1_000`` and
    non-ASCII digits)."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"bad decimal {text!r}")
    return int(text)


def integer(text: str) -> int:
    """_decimal between WHITESPACE: an integer from a flag, the environment or a file."""
    return _decimal(text.strip(WHITESPACE))


def tokens(text: str) -> list:
    """The WHITESPACE-separated tokens of a text."""
    return _TOKEN.findall(text)


def integers(text: str) -> list:
    """The WHITESPACE-separated decimals of a text, each as _decimal takes
    it; the common all-ASCII case is checked once, not per token (bytes
    split at WHITESPACE only), and its failure is retried per token for
    the same message as in any other text."""
    if text.isascii() and "_" not in text:
        try:
            return [int(tok) for tok in text.encode().split()]
        except ValueError:
            pass
    return [_decimal(tok) for tok in tokens(text)]


class RingSpec:
    """One supported ring and its raw format, one subclass per ring kind
    (specs are equal when of the same class and q): ``add``/``neg``/``mul``,
    ``raw_int``, ``key`` (canonical order), ``divide`` (exact quotient by
    a nonzero divisor, or None), ``values`` (a window's values in order),
    ``run`` (the product run of a nonzero y), ``text``/``parse``
    (literals), ``name``, the window size key and least size, and whether
    the ``signed`` window flag applies."""

    q: Optional[int] = None
    signed = False

    def __init__(self):
        # RingElement's operators, largeness's subset folds and the scan
        # kernel look these up per operation: bind them once per spec
        self.add, self.neg, self.mul = self.add, self.neg, self.mul

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.q == self.q

    def __hash__(self) -> int:
        return hash((type(self), self.q))

    def __repr__(self) -> str:
        return f"<RingSpec {self.name}>"

    def check_signed(self, signed: bool) -> None:
        if signed and not self.signed:
            raise ValueError("the signed flag only applies to windows of Z")

    # -- element constructors ------------------------------------------

    def integer(self, n: int) -> "RingElement":
        raise ValueError("integer() is only for Z; use from_int() for the canonical embedding")

    def gaussian(self, re_part: int, im_part: int) -> "RingElement":
        raise ValueError("gaussian() is only for Zi")

    def poly(self, coeffs) -> "RingElement":
        raise ValueError("poly() is only for GF(q)[x]")

    def from_int(self, n: int) -> "RingElement":
        """Canonical image of the integer n (n times the ring's 1)."""
        return RingElement(self, self.raw_int(n))

    # Cached per spec: elements are immutable, and the scan, the exclusion
    # sets and the oracles compare against these for every y.
    zero = cached_property(lambda self: self.from_int(0))
    one = cached_property(lambda self: self.from_int(1))


class _Integers(RingSpec):
    name, size_key, least, signed = "Z", "N", 1, True
    add, neg, mul = staticmethod(operator.add), staticmethod(operator.neg), staticmethod(operator.mul)

    def integer(self, n: int) -> "RingElement":
        return RingElement(self, n)

    def raw_int(self, n: int) -> int:
        return n

    key = raw_int

    def divide(self, a: int, b: int) -> Optional[int]:
        quo, rem = divmod(a, b)
        return quo if rem == 0 else None

    def values(self, size: int, signed: bool):
        return range(-size if signed else 1, size + 1)

    def run(self, v: int, window: "Window") -> tuple:
        size = window.params.size
        k = size // abs(v)
        return (size - k, size + k + 1) if window.params.signed else (0, k)

    text = staticmethod(str)

    def parse(self, text: str) -> int:
        try:
            return _decimal(text)
        except ValueError:
            raise ValueError(f"bad integer literal {text!r}") from None


class _Gaussian(RingSpec):
    name, size_key, least = "Zi", "B", 0
    terms = re.compile(r"([+-]?[^+-]+)([+-][^+-]+)?")
    add = staticmethod(lambda a, b: (a[0] + b[0], a[1] + b[1]))
    neg = staticmethod(lambda a: (-a[0], -a[1]))
    mul = staticmethod(lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]))

    def gaussian(self, re_part: int, im_part: int) -> "RingElement":
        return RingElement(self, (re_part, im_part))

    def raw_int(self, n: int) -> tuple:
        return (n, 0)

    def key(self, v: tuple) -> tuple:
        a, b = v
        return (a * a + b * b, a, b)

    def divide(self, a: tuple, b: tuple) -> Optional[tuple]:
        (ar, ai), (br, bi) = a, b
        norm = br * br + bi * bi
        num_re = ar * br + ai * bi
        num_im = ai * br - ar * bi
        if num_re % norm or num_im % norm:
            return None
        return (num_re // norm, num_im // norm)

    def values(self, size: int, signed: bool) -> list:
        side = range(-size, size + 1)
        return sorted(((a, b) for a in side for b in side), key=self.key)

    def run(self, v: tuple, window: "Window") -> tuple:
        size = window.params.size
        # sort keys are (norm, re, im); none of norm limit exceeds (limit, B, B)
        limit = 2 * size * size // (v[0] * v[0] + v[1] * v[1])
        return 0, bisect_right(window.keys, (limit, size, size))

    def text(self, v: tuple) -> str:
        a, b = v
        if b == 0:
            return str(a)
        imag = f"{b}i"
        if a == 0:
            return imag
        return f"{a}+{b}i" if b > 0 else f"{a}-{-b}i"

    def parse(self, text: str) -> tuple:
        # a real and an imaginary term, each optional, in either order
        m = self.terms.fullmatch(text)
        try:
            if not m:
                raise ValueError
            parts: dict = {}
            for term in filter(None, m.groups()):
                imag = term.endswith("i")
                coeff = term[:-1] if imag else term
                if imag in parts:
                    raise ValueError
                parts[imag] = int(coeff + "1") if coeff in ("", "+", "-") else _decimal(coeff)
            return (parts.get(False, 0), parts.get(True, 0))
        except ValueError:
            raise ValueError(f"bad Gaussian integer literal {text!r}") from None


class _Poly(RingSpec):
    size_key, least = "d", 1
    term = re.compile(r"^([0-9]+)?(?:(x)(?:\^([0-9]+))?)?$")

    def __init__(self, q: int):
        if not _is_prime(q):
            raise ValueError(f"GF(q)[x] needs a prime modulus, got q={q}")
        self.q = q
        self.name = f"GF({q})[x]"
        # mul's one-multiply path: the longest shorter factor whose sums fit a byte; byte mod q
        self.short, self.residues = 255 // (q - 1) ** 2, bytes(c % q for c in range(256))
        super().__init__()

    def poly(self, coeffs) -> "RingElement":
        return RingElement(self, self.normalize(coeffs))

    def normalize(self, coeffs) -> tuple:
        out = [c % self.q for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def add(self, a: tuple, b: tuple) -> tuple:
        q = self.q
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % q
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def neg(self, a: tuple) -> tuple:
        q = self.q
        return tuple((-c) % q for c in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        if not a or not b:
            return ()
        if min(len(a), len(b)) <= self.short:  # each byte is a whole convolution sum
            prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
            return tuple(prod.to_bytes(len(a) + len(b) - 1, "little").translate(self.residues))
        q = self.q
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % q
        return tuple(out)  # GF(q) is a field: the leading ca * cb is nonzero

    def raw_int(self, n: int) -> tuple:
        return self.normalize((n,))

    def key(self, v: tuple) -> int:
        # base-q value; consistent with (degree, coefficient vector) order
        k = 0
        for c in reversed(v):
            k = k * self.q + c
        return k

    def divide(self, a: tuple, b: tuple) -> Optional[tuple]:
        q = self.q
        rem = list(a)
        quo = [0] * max(len(a) - len(b) + 1, 0)
        inv_lead = pow(b[-1], -1, q)
        for k in range(len(rem) - len(b), -1, -1):
            coeff = (rem[k + len(b) - 1] * inv_lead) % q
            if coeff:
                quo[k] = coeff
                for j, cb in enumerate(b):
                    rem[k + j] = (rem[k + j] - coeff * cb) % q
        return None if any(rem) else self.normalize(quo)

    def values(self, size: int, signed: bool) -> list:
        q = self.q
        out = []
        for v in range(q**size):
            coeffs = []
            while v:
                coeffs.append(v % q)
                v //= q
            out.append(tuple(coeffs))
        return out

    def run(self, v: tuple, window: "Window") -> tuple:
        return 0, self.q ** max(window.params.size - len(v) + 1, 0)

    def text(self, v: tuple) -> str:
        if not v:
            return "0"
        terms = []
        for deg in range(len(v) - 1, -1, -1):
            c = v[deg]
            if c == 0:
                continue
            if deg == 0:
                terms.append(str(c))
            else:
                var = "x" if deg == 1 else f"x^{deg}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms)

    def parse(self, text: str) -> tuple:
        coeffs: dict = {}
        for raw in text.split("+"):
            m = self.term.match(raw)
            if not m or m.group(1) is None and not m.group(2):
                raise ValueError(f"bad {self.name} literal {text!r}")
            c_raw, has_x, deg_raw = m.groups()
            coeff = int(c_raw) if c_raw is not None else 1
            deg = 0 if not has_x else (int(deg_raw) if deg_raw is not None else 1)
            coeffs[deg] = coeffs.get(deg, 0) + coeff
        top = max(coeffs) if coeffs else 0
        return self.normalize(coeffs.get(k, 0) for k in range(top + 1))



class RingElement:
    """A canonical element of one of the supported rings.

    Arithmetic is exact; operands must come from the same RingSpec.
    """

    __slots__ = ("spec", "val")

    def __init__(self, spec: RingSpec, val):
        self.spec = spec
        self.val = val

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError(f"ring mismatch: {format_ring_spec(self.spec)} vs {format_ring_spec(other.spec)}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.spec, self.spec.add(self.val, other.val))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.spec, self.spec.neg(self.val))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.spec, self.spec.mul(self.val, other.val))

    def __pow__(self, exponent: int) -> "RingElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        if exponent == 0:
            return self.spec.one
        # square-and-multiply from the low bit: the first set bit takes base
        # as is, and no squaring follows the top bit
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return False
        spec = other.spec
        return (spec is self.spec or spec == self.spec) and self.val == other.val

    def __hash__(self) -> int:
        # consistent with __eq__ (equal elements share val); elements of
        # different rings may collide, and __eq__ tells them apart
        return hash(self.val)

    def __repr__(self) -> str:
        return f"<{format_ring_spec(self.spec)}: {format_element(self)}>"

    def is_zero(self) -> bool:
        return self == self.spec.zero

    def is_one(self) -> bool:
        return self == self.spec.one

    def sort_key(self):
        """Key realizing the ring's canonical enumeration order."""
        return self.spec.key(self.val)


def exact_divide(a: RingElement, b: RingElement) -> Optional[RingElement]:
    """The unique c with b*c = a, or None when a is not divisible by b.

    Uniqueness holds by cancellation (all three rings are integral
    domains).  Raises ZeroDivisionError for b = 0.
    """
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("exact_divide by ring zero")
    quo = a.spec.divide(a.val, b.val)
    return None if quo is None else RingElement(a.spec, quo)


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowParams:
    """One integer parameter (N, B or d, per ring kind) plus the Z-only
    ``signed`` flag selecting [-N..N] instead of {1..N}."""

    size: int
    signed: bool = False


class Window:
    """A canonically ordered finite slice of a ring with O(1) position lookup.

    Identity (equality, hashing) is (spec, params); the element list is
    derived deterministically from those.  ``raw_index`` maps raw values
    to positions, in window order; ``len``, ``in``, the scan kernel and
    the raw-value walks read it, checking the ring.  ``elements`` (the
    RingElements in order), ``index`` (elements to positions) and ``keys``
    (the sort keys in order) are built on first read.
    """

    __slots__ = ("spec", "params", "raw_index", "__dict__")  # __dict__ caches elements, index and keys
    elements = cached_property(lambda self: tuple([RingElement(self.spec, v) for v in self.raw_index]))
    index = cached_property(lambda self: {e: k for k, e in enumerate(self.elements)})
    keys = cached_property(lambda self: list(map(self.spec.key, self.raw_index)))

    def __init__(self, spec: RingSpec, params: WindowParams):
        spec.check_signed(params.signed)
        if params.size < spec.least:
            raise ValueError(f"window of {spec.name} needs {spec.size_key} >= {spec.least}, got {params.size}")
        self.spec = spec
        self.params = params
        self.raw_index: dict = {v: k for k, v in enumerate(spec.values(params.size, params.signed))}

    def __len__(self) -> int:
        return len(self.raw_index)

    def __iter__(self) -> Iterator[RingElement]:
        return iter(self.elements)

    def __contains__(self, e) -> bool:
        return isinstance(e, RingElement) and e.spec == self.spec and e.val in self.raw_index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Window)
            and self.spec == other.spec
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.params))

    def __repr__(self) -> str:
        return f"<Window {format_ring_spec(self.spec)} {format_window_params(self.spec, self.params)} (|W|={len(self)})>"

    def product_run(self, y: RingElement) -> tuple:
        """Positions ``(lo, hi)`` of the window slice holding every x with
        x*y in the window, by the per-ring rule in the module docstring;
        y may lie outside the window, but not in another ring."""
        self.spec.zero._check(y)
        return self.raw_run(y.val)

    def raw_run(self, v) -> tuple:
        """product_run of the raw value v of this window's ring, unchecked."""
        return (0, len(self.raw_index)) if v == self.spec.zero.val else self.spec.run(v, self)


def enumerate_window(spec: RingSpec, params: WindowParams) -> Window:
    """Build the canonical window for (spec, params); validates params."""
    return Window(spec, params)


# ---------------------------------------------------------------------------
# Spec / parameter / element literals
# ---------------------------------------------------------------------------

_GF_RE = re.compile(r"^GF\(([0-9]+)\)\[x\]$")


def parse_ring_spec(text: str) -> RingSpec:
    text = text.strip(WHITESPACE)
    if text == "Z":
        return _Integers()
    if text == "Zi":
        return _Gaussian()
    m = _GF_RE.match(text)
    if m:
        return _Poly(int(m.group(1)))
    raise ValueError(f"unknown ring spec {text!r} (expected Z, Zi, or GF(q)[x])")


def format_ring_spec(spec: RingSpec) -> str:
    return spec.name


def parse_window_params(spec: RingSpec, text: str) -> WindowParams:
    text = text.strip(WHITESPACE)
    parts = [p.strip(WHITESPACE) for p in text.split(",")]
    signed = False
    if len(parts) == 2 and parts[1] == "signed":
        signed = True
    elif len(parts) != 1:
        raise ValueError(f"bad window parameter string {text!r}")
    key, _, raw = parts[0].partition("=")
    if key != spec.size_key:
        raise ValueError(
            f"window parameter for {spec.name} must be {spec.size_key}=<int>, got {text!r}"
        )
    try:
        size = _decimal(raw.strip(WHITESPACE))
    except ValueError:
        raise ValueError(f"bad window size in {text!r}") from None
    spec.check_signed(signed)
    return WindowParams(size, signed)


def format_window_params(spec: RingSpec, params: WindowParams) -> str:
    suffix = ",signed" if params.signed else ""
    return f"{spec.size_key}={params.size}{suffix}"


def format_element(e: RingElement) -> str:
    """Canonical literal: Z decimal, Zi like 3+2i / -1i, GF like x^2+2x+1."""
    return e.spec.text(e.val)


def parse_element(spec: RingSpec, text: str) -> RingElement:
    """Parse a canonical (or mildly relaxed) element literal."""
    text = text.strip(WHITESPACE).replace(" ", "")
    if not text:
        raise ValueError("empty element literal")
    return RingElement(spec, spec.parse(text))


# -- element-set literals for the CLI ---------------------------------------

def parse_element_set(spec: RingSpec, text: str, window: Window) -> frozenset:
    """Parse ``{e1,e2,...}`` or the presets ``evens`` / ``ideal(m)``.

    Presets are relative to the window: ideal(m) = m*R intersected with
    the window; evens is ideal(2).
    """
    text = text.strip(WHITESPACE)
    if text == "evens":
        if parse_element(spec, "2").is_zero():
            raise ValueError(f"evens is ideal(2), and 2 = 0 in {format_ring_spec(spec)}")
        return _ideal_preset(spec, "2", window)
    m = re.match(r"^ideal\((.+)\)$", text)
    if m:
        return _ideal_preset(spec, m.group(1), window)
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"bad element-set literal {text!r}")
    body = text[1:-1].strip(WHITESPACE)
    if not body:
        return frozenset()
    return frozenset(parse_element(spec, tok) for tok in body.split(","))


def _ideal_preset(spec: RingSpec, gen_literal: str, window: Window) -> frozenset:
    gen = parse_element(spec, gen_literal)
    if gen.is_zero():
        raise ValueError("ideal(m) needs m != 0")
    window.spec.zero._check(gen)  # the ring check exact_divide made per element
    divide, m = spec.divide, gen.val
    return frozenset(RingElement(window.spec, v) for v in window.raw_index if divide(v, m) is not None)
