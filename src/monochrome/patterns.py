"""The sums-and-products configuration family {x*y} u {x + f(y) : f in F}.

F is a finite family of polynomials with zero constant term (so f(0) = 0)
over the working ring; with F = {0, t} the configuration is the classic
triple {x, x*y, x+y}.  This module evaluates configurations, decides
monochromaticity against a coloring, scans windows for monochromatic
witnesses, and measures per-y abundance (how many x make the whole
configuration land in one color class).

Scan order is fixed: y runs over the window in canonical order, x runs in
canonical order inside each y, so "first witness" is reproducible.

Scans run on raw values and build no RingElement: the family is evaluated
once per y from y's raw powers, and the product x*y is computed only for
the x of product_run(y).  A scan that needs whole instances places each
pair's elements cheapest first, x's own color, then each distinct
x + f(y), then x*y, and drops the pair at its first element outside the
window or of another color.  A partial scan visits every pair and
decides each y over whole color columns, one entry per window position.
Witnesses leave the kernel as (y, x position, color) triples; only the
public API builds elements.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .colorings import Coloring
from .rings import (
    WHITESPACE, RingElement, RingSpec, format_element, format_ring_spec, parse_element,
)


@dataclass(frozen=True)
class ZeroConstPoly:
    """A polynomial over the ring with zero constant term.

    ``terms`` holds (degree, coefficient) pairs with degree >= 1 and
    nonzero coefficients, in ascending degree; the empty tuple is the
    zero polynomial.
    """

    spec: RingSpec
    terms: tuple

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    def coeff(self, degree: int) -> RingElement:
        for d, c in self.terms:
            if d == degree:
                return c
        return self.spec.zero

    def sort_key(self):
        padded = [self.coeff(j).sort_key() for j in range(1, self.degree + 1)]
        return (self.degree, tuple(padded))

    def __repr__(self) -> str:
        return f"<poly {format_poly(self)} over {format_ring_spec(self.spec)}>"


def zero_const_poly(spec: RingSpec, coeffs: dict) -> ZeroConstPoly:
    """Build a zero-constant-term polynomial from {degree: coefficient}."""
    terms = []
    for degree, c in coeffs.items():
        if degree < 1:
            raise ValueError(f"zero-constant-term polynomial cannot have a degree-{degree} term")
        if not isinstance(c, RingElement):
            raise TypeError("coefficients must be RingElements")
        if c.spec != spec:
            raise ValueError("coefficient from a different ring")
        if not c.is_zero():
            terms.append((degree, c))
    terms.sort(key=lambda t: t[0])
    return ZeroConstPoly(spec, tuple(terms))


@dataclass(frozen=True)
class PolyFamily:
    """A nonempty, deduplicated, deterministically ordered family of
    zero-constant-term polynomials."""

    spec: RingSpec
    polys: tuple

    @property
    def max_degree(self) -> int:
        return max(f.degree for f in self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def __repr__(self) -> str:
        return f"<family {format_family(self)}>"


def make_family(spec: RingSpec, polys) -> PolyFamily:
    """Deduplicate and sort (by degree, then coefficient vector)."""
    unique = list(dict.fromkeys(polys))
    if not unique:
        raise ValueError("polynomial family must be nonempty")
    for f in unique:
        if f.spec != spec:
            raise ValueError("family member from a different ring")
    unique.sort(key=ZeroConstPoly.sort_key)
    return PolyFamily(spec, tuple(unique))


def eval_poly(f: ZeroConstPoly, y: RingElement) -> RingElement:
    """Exact evaluation; eval_poly(f, 0) = 0 by construction.  It runs the
    kernel's raw routine (_raw_evaluator) on f alone."""
    if y.spec != f.spec:
        raise ValueError("polynomial and argument from different rings")
    return RingElement(f.spec, _raw_evaluator(PolyFamily(f.spec, (f,)))(y.val)[0])


def _raw_evaluator(family: PolyFamily) -> Callable:
    """The function taking a raw y to the raw values [f(y) for f in family].
    It computes y's raw powers once, up to family.max_degree, and sums each
    f as c*y^d with the spec's raw add and mul, skipping the mul where c is
    one; no RingElement is built."""
    spec = family.spec
    add, mul, zero, one = spec.add, spec.mul, spec.zero.val, spec.one.val
    # per f: (degree, raw coefficient or None for one) pairs
    terms = [[(d, None if c.val == one else c.val) for d, c in f.terms] for f in family]
    top = family.max_degree

    def f_values(yv) -> list:
        powers = [one, yv]  # powers[d] = y^d
        for _ in range(top - 1):
            powers.append(mul(powers[-1], yv))
        out = []
        for f_terms in terms:
            acc = None
            for d, c in f_terms:
                v = powers[d] if c is None else mul(c, powers[d])
                acc = v if acc is None else add(acc, v)
            out.append(zero if acc is None else acc)
        return out

    return f_values


@dataclass(frozen=True)
class PatternInstance:
    """The configuration at one (x, y): [x*y] ++ [x + f(y) per family order],
    deduplicated keeping first occurrence."""

    x: RingElement
    y: RingElement
    elements: tuple

    @property
    def degenerate(self) -> bool:
        return len(self.elements) == 1


def pattern_elements(x: RingElement, y: RingElement, family: PolyFamily) -> PatternInstance:
    if x.spec != y.spec or x.spec != family.spec:
        raise ValueError("x, y and family must come from the same ring")
    spec = x.spec
    xv = x.val
    vals = [spec.mul(xv, y.val)] + [spec.add(xv, fv) for fv in _raw_evaluator(family)(y.val)]
    return PatternInstance(x, y, tuple(RingElement(spec, v) for v in dict.fromkeys(vals)))


@dataclass(frozen=True)
class ScanConstraints:
    """Filters applied while scanning (x, y) pairs.

    Defaults exclude y in {0, 1} and x = 0 (they trivialize the
    configuration) and skip degenerate, single-element instances, which
    are vacuously monochromatic.
    """

    exclude_y: frozenset
    exclude_x: frozenset
    require_in_window: bool = True
    forbid_degenerate: bool = True

    @classmethod
    def defaults_for(cls, spec: RingSpec) -> "ScanConstraints":
        return cls(
            exclude_y=frozenset({spec.zero, spec.one}),
            exclude_x=frozenset({spec.zero}),
        )

    def admits_y(self, y: RingElement) -> bool:
        return y not in self.exclude_y

    def admits_x(self, x: RingElement) -> bool:
        return x not in self.exclude_x


class PatternVerdict(enum.Enum):
    """Non-color outcomes of pattern_color, kept distinct on purpose:
    boundary truncation is not a color obstruction."""

    OUT_OF_WINDOW = "out-of-window"
    NOT_MONOCHROMATIC = "not-monochromatic"


def pattern_color(
    coloring: Coloring, x: RingElement, y: RingElement, family: PolyFamily
) -> Union[int, PatternVerdict]:
    """The color i if the whole instance sits in the window with color i,
    OUT_OF_WINDOW if any element escapes, NOT_MONOCHROMATIC otherwise; a
    family of another ring than the coloring's is an error, as in the scans."""
    if family.spec != coloring.window.spec:
        raise ValueError("family ring differs from the coloring's ring")
    index = coloring.window.index
    positions = list(map(index.get, pattern_elements(x, y, family).elements))
    if None in positions:
        return PatternVerdict.OUT_OF_WINDOW
    colors = {coloring.colors[pos] for pos in positions}
    return colors.pop() if len(colors) == 1 else PatternVerdict.NOT_MONOCHROMATIC


class Witness(NamedTuple):
    x: RingElement
    y: RingElement
    color: int


def _witness_triples(coloring: Coloring, family: PolyFamily,
                     constraints: Optional[ScanConstraints] = None, ys=None) -> Iterator[tuple]:
    """witness_scan's witnesses as (y, x position, color) triples, in scan
    order, for each y of ys (default: the admitted y; constraints default
    to the ring's).  It checks its own arguments: the family's ring at the
    first next(), each y of ys for its ring and admission at its turn.
    Per y both modes take the distinct f(y), a zero f(y) standing for x
    itself, and compute x*y only for the admitted x of product_run(y).  A
    pair is degenerate when its product equals every x + f(y), so only
    where every f(y) is one value are positions compared.
    Whole mode places each pair's elements cheapest first, x's own color
    where some f(y) is zero, then each distinct nonzero x + f(y), then
    x*y, and drops the pair at its first element outside the window or of
    another color.  Partial mode keeps one common color per window
    position, starting from x's own color (or 0) and -1 at an excluded x,
    and folds whole color columns into it (0 for an element outside the
    window), x*y's over product_run(y) and each x + f(y)'s over the
    window: 0 with no color visible, -1 at a clash, which no fold undoes."""
    window, colors = coloring.window, coloring.colors
    position, n, spec = window.raw_index, len(window), window.spec
    if family.spec != spec:
        raise ValueError("family ring differs from the coloring's ring")
    if constraints is None:
        constraints = ScanConstraints.defaults_for(spec)
    get, ext, zero = position.get, colors + (0,), spec.zero.val
    add, mul, f_values = spec.add, spec.mul, _raw_evaluator(family)
    whole, forbid_degenerate = constraints.require_in_window, constraints.forbid_degenerate
    skip = {position[x.val] for x in constraints.exclude_x if x in window}
    values = list(position)
    given = ys is not None
    for y in ys if given else window.elements:
        if given:
            spec.zero._check(y)
        if not constraints.admits_y(y):
            if given:
                raise ValueError(f"y = {format_element(y)} is excluded by the scan constraints")
            continue
        yv = y.val
        fvs = dict.fromkeys(f_values(yv))  # the distinct f(y), in family order
        own, lone = zero in fvs, forbid_degenerate and len(fvs) == 1
        adds = [fv for fv in fvs if fv != zero]
        lo, hi = window.product_run(y)
        if whole:
            first, rest = (None, adds) if own else (adds[0], adds[1:])
            for pos, xv in enumerate(values[lo:hi], lo):
                if pos in skip:
                    continue
                q = pos if own else get(add(xv, first), n)  # x, or its first x + f(y)
                color = ext[q]
                if not color:  # outside the window
                    continue
                for fv in rest:
                    if ext[get(add(xv, fv), n)] != color:
                        break
                else:
                    p = get(mul(xv, yv), n)
                    if ext[p] == color and not (lone and p == q):
                        yield y, pos, color
            continue
        run = values[lo:hi]
        products = [get(mul(xv, yv), n) for xv in run]
        # a common color m meets a color c: m where c equals it or is 0, c where m is 0, else -1
        common = list(colors) if own else [0] * n
        for pos in skip:
            common[pos] = -1
        head = [m if (c := ext[p]) == m or c == 0 else c if m == 0 else -1
                for m, p in zip(common[lo:hi], products)]
        if lone:
            fv, = fvs
            head = [-1 if p < n and p == get(add(xv, fv)) else m for p, m, xv in zip(products, head, run)]
        common[lo:hi] = head
        for fv in adds:  # in any order: the fold is commutative
            common = [m if (c := ext[get(add(xv, fv), n)]) == m or c == 0 else c if m == 0 else -1
                      for m, xv in zip(common, values)]
        yield from [(y, pos, color) for pos, color in enumerate(common) if color > 0]


def witness_scan(
    coloring: Coloring,
    family: PolyFamily,
    constraints: Optional[ScanConstraints] = None,
    limit: Optional[int] = None,
) -> Iterator[Witness]:
    """All (x, y) pairs whose instance is monochromatic, in (y, x) canonical
    order; stops after `limit` witnesses if given (a negative limit is a
    ValueError).

    By default the whole instance must lie in the window, so only the x
    in Window.product_run(y) are examined (Z {1..N}: x <= N//y; signed Z:
    |x| <= N//|y|; Zi: N(x) <= 2B^2//N(y); GF(q)[x]: deg x < d - deg y;
    y = 0: all).  With require_in_window=False, elements falling outside
    the window are ignored and monochromaticity is judged on the visible
    part (instances with no visible element are skipped); that visits
    every pair, but computes the product x*y only for the x in
    Window.product_run(y).  A whole-window scan tests each element's color
    as it computes it, x*y last, and leaves a pair at its first clash.

    It checks the limit and wraps _witness_triples, which checks the rest.
    This is a generator function: its ValueError checks (negative limit,
    family ring against the coloring's) run at the first next(), not at
    the call.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"witness limit must be >= 0, got {limit}")
    elements, new = coloring.window.elements, tuple.__new__  # Witness(x, y, c) without its Python-level __new__
    yield from islice((new(Witness, (elements[pos], y, color))
                       for y, pos, color in _witness_triples(coloring, family, constraints)), limit)


def abundance_profile(
    coloring: Coloring,
    family: PolyFamily,
    y: RingElement,
    constraints: Optional[ScanConstraints] = None,
) -> dict:
    """Per-color sets X_y^i = {x in window : instance at (x, y) is entirely
    of color i}; the sets are disjoint across colors.

    The sets are exactly witness_scan's witnesses at this y grouped by
    color, so with require_in_window=False an instance is judged by its
    visible part in the same way.  The checks are _witness_triples': a
    family or a y of another ring, or a y the constraints exclude, is an
    error at the call.
    """
    profile: dict = {i: set() for i in range(1, coloring.r + 1)}
    elements = coloring.window.elements
    for _, pos, color in _witness_triples(coloring, family, constraints, (y,)):
        profile[color].add(elements[pos])
    return profile


# ---------------------------------------------------------------------------
# Polynomial literals over the formal variable t
# ---------------------------------------------------------------------------

_T_TERM_RE = re.compile(r"^(?:\((?P<paren>[^()]*)\)|(?P<bare>[^t()]*))(?:(?P<t>t)(?:\^(?P<deg>[0-9]+))?)?$")


def parse_poly(spec: RingSpec, text: str) -> ZeroConstPoly:
    """Parse a zero-constant-term polynomial literal over t.

    Examples: ``t``, ``0``, ``2t^2+t``, ``(1+2i)t^3``, ``(x+1)t^2+xt``.
    Coefficients are ring-element literals; parenthesize them when they
    contain + or -.  A constant term is only legal when it is 0.
    """
    text = text.strip(WHITESPACE).replace(" ", "")
    if not text:
        raise ValueError("empty polynomial literal")
    coeffs: dict = {}
    for chunk, sign in _signed_chunks(text):
        m = _T_TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad polynomial term {chunk!r} in {text!r}")
        raw = m.group("paren") if m.group("paren") is not None else m.group("bare")
        if m.group("t") is None:
            if raw == "":
                raise ValueError(f"bad polynomial term {chunk!r} in {text!r}")
            if parse_element(spec, raw).is_zero():
                continue
            raise ValueError(
                f"nonzero constant term in {text!r}: the family lives in t*R[t]"
            )
        degree = int(m.group("deg")) if m.group("deg") else 1
        coeff = spec.one if raw == "" else parse_element(spec, raw)
        if sign < 0:
            coeff = -coeff
        if degree in coeffs:
            coeffs[degree] = coeffs[degree] + coeff
        else:
            coeffs[degree] = coeff
    return zero_const_poly(spec, coeffs)


def _signed_chunks(text: str):
    """Split at top-level + and - (sign binds to the following term)."""
    chunks = []
    depth = 0
    start = 0
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        start = 1
    pos = start
    for pos, ch in enumerate(text[start:], start):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif ch in "+-" and depth == 0 and pos > start:
            chunks.append((text[start:pos], sign))
            sign = -1 if ch == "-" else 1
            start = pos + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if start >= len(text):
        raise ValueError(f"dangling sign in {text!r}")
    chunks.append((text[start:], sign))
    return chunks


def format_poly(f: ZeroConstPoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for degree, c in sorted(f.terms, key=lambda t: -t[0]):
        t_part = "t" if degree == 1 else f"t^{degree}"
        lit = format_element(c)
        if c.is_one():
            parts.append(t_part)
        elif re.fullmatch(r"-?\d+", lit) or re.fullmatch(r"\d*x(\^\d+)?", lit):
            # numeric or single-monomial coefficients bind unambiguously
            parts.append(f"{lit}{t_part}")
        else:
            parts.append(f"({lit}){t_part}")
    return "+".join(parts)


def parse_family(spec: RingSpec, text: str) -> PolyFamily:
    """Parse a semicolon-separated family literal, e.g. ``"t; 0; 2t^2+t"``."""
    parts = [p for p in (chunk.strip(WHITESPACE) for chunk in text.split(";")) if p]
    if not parts:
        raise ValueError("empty family literal")
    return make_family(spec, [parse_poly(spec, p) for p in parts])


def format_family(family: PolyFamily) -> str:
    return "; ".join(format_poly(f) for f in family)
