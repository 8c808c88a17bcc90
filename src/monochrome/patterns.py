"""The sums-and-products configuration family {x*y} u {x + f(y) : f in F}.

F is a finite family of polynomials with zero constant term (so f(0) = 0)
over the working ring; with F = {0, t} the configuration is the classic
triple {x, x*y, x+y}.  This module evaluates configurations, decides
monochromaticity against a coloring, scans windows for monochromatic
witnesses, and measures per-y abundance (how many x make the whole
configuration land in one color class).

Scan order is fixed: y runs over the window in canonical order, x runs in
canonical order inside each y, so "first witness" is reproducible.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

from .colorings import Coloring
from .rings import (
    WHITESPACE, RingElement, RingSpec, Window, format_element, format_ring_spec, parse_element,
)

__all__ = [
    "ZeroConstPoly",
    "PolyFamily",
    "PatternInstance",
    "ScanConstraints",
    "PatternVerdict",
    "Witness",
    "zero_const_poly",
    "make_family",
    "eval_poly",
    "pattern_elements",
    "pattern_color",
    "witness_scan",
    "abundance_profile",
    "parse_poly",
    "parse_family",
    "format_poly",
    "format_family",
]


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
    """Exact evaluation; eval_poly(f, 0) = 0 by construction."""
    if y.spec != f.spec:
        raise ValueError("polynomial and argument from different rings")
    acc = f.spec.zero
    for degree, c in f.terms:
        acc = acc + c * y**degree
    return acc


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
    vals = _raw_instance(x.val, y.val, _f_values(family, y), spec.add, spec.mul)
    return PatternInstance(x, y, tuple(RingElement(spec, v) for v in vals))


def _f_values(family: PolyFamily, y: RingElement) -> list:
    """The raw values of [f(y) for f in family], evaluated once per y."""
    return [eval_poly(f, y).val for f in family]


def _raw_instance(xv, yv, f_values: list, add, mul) -> list:
    """The raw values of [x*y] ++ [x + f(y) ...] deduplicated keeping first
    occurrence, from the raw x, y and f(y) and the ring's raw add and mul."""
    vals = [mul(xv, yv)]
    for fv in f_values:
        v = add(xv, fv)
        if v not in vals:
            vals.append(v)
    return vals


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


def _common_color(positions: list, colors: tuple) -> Optional[int]:
    """The one color of the positions in the window (None entries are
    elements outside it), or None at a color clash or with none visible."""
    color = None
    for pos in positions:
        if pos is not None:
            if color is None:
                color = colors[pos]
            elif colors[pos] != color:
                return None
    return color


def pattern_color(
    coloring: Coloring, x: RingElement, y: RingElement, family: PolyFamily
) -> Union[int, PatternVerdict]:
    """The color i if the whole instance sits in the window with color i,
    OUT_OF_WINDOW if any element escapes, NOT_MONOCHROMATIC otherwise."""
    index = coloring.window.index
    positions = list(map(index.get, pattern_elements(x, y, family).elements))
    if None in positions:
        return PatternVerdict.OUT_OF_WINDOW
    color = _common_color(positions, coloring.colors)
    return PatternVerdict.NOT_MONOCHROMATIC if color is None else color


class Witness(NamedTuple):
    x: RingElement
    y: RingElement
    color: int


def _instances(window: Window, family: PolyFamily, constraints: ScanConstraints,
               ys=None) -> Iterator[tuple]:
    """The candidate kernel of witness_scan, abundance_profile and
    search.build_instance: for each y of ys (default: the admitted y in
    canonical order) it evaluates f(y) once and yields (y, x, positions)
    for the admitted x in canonical order, dropping degenerate instances
    unless allowed.  Each instance is computed on raw values by
    _raw_instance, so no element is built per pair; positions follow the
    instance's element order.  With require_in_window, x runs only over
    window.product_run(y) and instances leaving the window are dropped;
    otherwise x runs over the whole window and an element outside it has
    position None."""
    index = window.index
    elements = window.elements
    position = window.raw_index
    add, mul = window.spec.add, window.spec.mul
    skip = {index[x] for x in constraints.exclude_x if x in index}
    require_in_window = constraints.require_in_window
    forbid_degenerate = constraints.forbid_degenerate
    if ys is None:
        ys = (y for y in elements if constraints.admits_y(y))
    for y in ys:
        yv = y.val
        f_values = _f_values(family, y)
        lo, hi = window.product_run(y) if require_in_window else (0, len(elements))
        run = [x for pos, x in enumerate(elements[lo:hi], lo) if pos not in skip]
        for x in run:
            vals = _raw_instance(x.val, yv, f_values, add, mul)
            if forbid_degenerate and len(vals) == 1:
                continue
            positions = list(map(position.get, vals))
            if require_in_window and None in positions:
                continue
            yield y, x, positions


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
    part (instances with no visible element are skipped); that examines
    every pair, O(|W|^2).
    """
    window = coloring.window
    spec = window.spec
    if family.spec != spec:
        raise ValueError("family ring differs from the coloring's ring")
    if constraints is None:
        constraints = ScanConstraints.defaults_for(spec)
    if limit is not None and limit < 0:
        raise ValueError(f"witness limit must be >= 0, got {limit}")
    if limit == 0:
        return
    colors = coloring.colors
    emitted = 0
    for y, x, positions in _instances(window, family, constraints):
        color = _common_color(positions, colors)
        if color is None:
            continue
        yield Witness(x, y, color)
        emitted += 1
        if limit is not None and emitted >= limit:
            return


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
    visible part in the same way.
    """
    spec = coloring.window.spec
    if family.spec != spec:
        raise ValueError("family ring differs from the coloring's ring")
    if constraints is None:
        constraints = ScanConstraints.defaults_for(spec)
    if not constraints.admits_y(y):
        raise ValueError(f"y = {format_element(y)} is excluded by the scan constraints")
    profile: dict = {i: set() for i in range(1, coloring.r + 1)}
    for _, x, positions in _instances(coloring.window, family, constraints, (y,)):
        color = _common_color(positions, coloring.colors)
        if color is not None:
            profile[color].add(x)
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
