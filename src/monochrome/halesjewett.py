"""Words, variable words and combinatorial lines over a finite alphabet;
brute-force Hales-Jewett numbers at desk scale; and the embedding of a
layered product space into a ring that turns wildcard translations into
configurations r0 + s + f(y_gamma).

Alphabet letters are 1..t and the wildcard is 0.  Cells of the cube
[t]^N are indexed lexicographically (first letter most significant), and
a coloring of the cube is a flat tuple over those cells.  The layered
space has one array per level j = 1..d; level j is indexed by j-tuples
over {1..N} flattened in row-major order, so its length is N^j.

The embedding sends a layered point u with ring-element entries to
r0 + sum_j sum_i u[j][i] * y(i) for a user-supplied assignment y on
multi-indices.  When y is multiplicative on product indices
(y(i1..ij) = y(i1)*...*y(ij)), substituting a polynomial's coefficients
into the gamma^j positions shifts the value by exactly f(y_gamma) with
y_gamma = sum_{i in gamma} y(i); verify_sigma_line_identity checks that
equality exactly, polynomial by polynomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

from .patterns import PolyFamily, ZeroConstPoly, eval_poly
from .prng import stream_below
from .rings import RingElement, RingSpec
from .search import AvoidanceStatus, _avoid

WILDCARD = 0

DEFAULT_WORK_CAP = 10**8


class WorkCapExceeded(RuntimeError):
    """The search needed more decisions than the configured cap."""


def _check_letters(t: int, letters: tuple, low: int) -> None:
    """A nonempty word over the letters low..t of an alphabet of size t >= 1."""
    if t < 1:
        raise ValueError("alphabet size must be >= 1")
    if not letters:
        raise ValueError("words are nonempty")
    if any(not low <= a <= t for a in letters):
        raise ValueError(f"letters must lie in {low}..{t}")


@dataclass(frozen=True)
class Word:
    t: int
    letters: tuple

    def __post_init__(self):
        _check_letters(self.t, self.letters, 1)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class VariableWord:
    """A word over {1..t} plus the wildcard 0, with >= 1 wildcard."""

    t: int
    letters: tuple

    def __post_init__(self):
        _check_letters(self.t, self.letters, WILDCARD)
        if WILDCARD not in self.letters:
            raise ValueError("a variable word needs at least one wildcard")

    def __len__(self) -> int:
        return len(self.letters)


def substitute(w: VariableWord, a: int) -> Word:
    """Replace every wildcard by the letter a."""
    if not 1 <= a <= w.t:
        raise ValueError(f"letter {a} out of range 1..{w.t}")
    return Word(w.t, tuple(a if x == WILDCARD else x for x in w.letters))


def line_of(w: VariableWord) -> tuple:
    """The combinatorial line {w(a) : a in 1..t}, in letter order."""
    return tuple(substitute(w, a) for a in range(1, w.t + 1))


def words(t: int, n: int):
    """All of [t]^n in lexicographic (canonical cell) order."""
    for letters in itertools.product(range(1, t + 1), repeat=n):
        yield Word(t, letters)


def variable_words(t: int, n: int):
    """All (t+1)^n - t^n variable words of length n, wildcard-first
    lexicographic order."""
    for letters in itertools.product(range(0, t + 1), repeat=n):
        if WILDCARD in letters:
            yield VariableWord(t, letters)


def word_index(w: Word) -> int:
    """Position of w in the canonical cell order of [t]^len(w)."""
    k = 0
    for a in w.letters:
        k = k * w.t + (a - 1)
    return k


def _line_cells(t: int, n: int):
    """Every line of [t]^n as a tuple of cell indices."""
    return [tuple(map(word_index, line_of(vw))) for vw in variable_words(t, n)]


def find_avoiding_coloring(r: int, t: int, n: int, work_cap: Optional[int] = None) -> Optional[tuple]:
    """An r-coloring of [t]^n (flat tuple, colors 1..r) in which no line
    is monochromatic, or None when every coloring contains one.

    Runs the avoidance search of search.py with the lines as index sets
    and the cells in canonical order 0..t^n-1, so a found coloring is the
    lexicographically first avoider.  Every decision (a color tried at a
    cell; colors forced by propagation are free) counts one unit of
    work; passing work_cap (default DEFAULT_WORK_CAP) raises
    WorkCapExceeded, and a negative work_cap raises ValueError.
    """
    if r < 1 or t < 1 or n < 1:
        raise ValueError("colors, alphabet size and length must be >= 1")
    cap = DEFAULT_WORK_CAP if work_cap is None else work_cap
    cells = t**n
    status, colors, _, _ = _avoid(_line_cells(t, n), range(cells), cells, r, cap)
    if status is AvoidanceStatus.TIMEOUT:
        raise WorkCapExceeded(f"search for t^n={cells}, r={r} needs more than {cap} decisions")
    return colors


@dataclass(frozen=True)
class HjResult:
    r: int
    t: int
    status: str  # "found" | "not_found_within"
    n: int  # least cube length when found, else the largest probed
    avoiding: Optional[tuple] = None  # explicit avoiding coloring at n otherwise


def hj_number_exhaustive(r: int, t: int, max_n: int, work_cap: Optional[int] = None) -> HjResult:
    """Least n <= max_n at which every r-coloring of [t]^n contains a
    monochromatic line, by exhaustive search; otherwise the explicit
    avoiding coloring found at max_n."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    avoiding = None
    for n in range(1, max_n + 1):
        avoiding = find_avoiding_coloring(r, t, n, work_cap)
        if avoiding is None:
            return HjResult(r, t, "found", n)
    return HjResult(r, t, "not_found_within", max_n, avoiding)


# ---------------------------------------------------------------------------
# Layered product spaces and wildcard translation


def multi_indices(n: int, j: int):
    """j-tuples over {1..n} in row-major (lexicographic) order — the flat
    order of level j."""
    return itertools.product(range(1, n + 1), repeat=j)


def flat_index(idx: tuple, n: int) -> int:
    """Position of a multi-index in the row-major order of [n]^len(idx)."""
    k = 0
    for i in idx:
        if not 1 <= i <= n:
            raise ValueError(f"index entry {i} out of range 1..{n}")
        k = k * n + (i - 1)
    return k


@dataclass(frozen=True)
class WildcardSet:
    """Nonempty coordinate set gamma used for wildcard translation."""

    gamma: frozenset

    def __post_init__(self):
        if not self.gamma:
            raise ValueError("the wildcard coordinate set is nonempty")
        if any(not isinstance(i, int) or i < 1 for i in self.gamma):
            raise ValueError("coordinates are integers >= 1")

    def check_range(self, n: int) -> None:
        if any(i > n for i in self.gamma):
            raise ValueError(f"coordinate set {sorted(self.gamma)} exceeds side {n}")


def wildcard_set(coords) -> WildcardSet:
    return WildcardSet(frozenset(coords))


def _check_levels(n: int, layers: tuple) -> None:
    """At least one level, and level j holds n^j entries."""
    if not layers:
        raise ValueError("at least one level")
    for j, layer in enumerate(layers, start=1):
        if len(layer) != n**j:
            raise ValueError(f"level {j} must have length {n**j}, got {len(layer)}")


@dataclass(frozen=True)
class PhjPoint:
    """Point of the layered space [q]^n x [q]^(n^2) x ... x [q]^(n^d):
    layers[j-1] is the level-j array, flat over [n]^j row-major."""

    n: int
    q: int
    layers: tuple

    def __post_init__(self):
        if self.n < 1 or self.q < 1:
            raise ValueError("side and alphabet size must be >= 1")
        _check_levels(self.n, self.layers)
        for j, layer in enumerate(self.layers, start=1):
            if any(not 1 <= a <= self.q for a in layer):
                raise ValueError(f"level {j} letters must lie in 1..{self.q}")

    @property
    def d(self) -> int:
        return len(self.layers)


def phj_translate(a: PhjPoint, gamma: WildcardSet, xs: Sequence[int]) -> PhjPoint:
    """Set the gamma^j coordinates of level j to xs[j-1], all others
    unchanged."""
    return _translate(a, gamma, xs, "letters",
                      lambda x: None if 1 <= x <= a.q else f"letter {x} out of range 1..{a.q}")


def _translate(point, gamma: WildcardSet, values: Sequence, noun: str, check):
    """The layered point with every gamma^j entry of level j set to
    values[j-1]; check(value) is None or the error message for a bad value."""
    gamma.check_range(point.n)
    values = tuple(values)
    if len(values) != point.d:
        raise ValueError(f"need {point.d} {noun}, got {len(values)}")
    for v in values:
        error = check(v)
        if error is not None:
            raise ValueError(error)
    coords = sorted(gamma.gamma)
    out = []
    for j, layer in enumerate(point.layers, start=1):
        new = list(layer)
        for idx in itertools.product(coords, repeat=j):
            new[flat_index(idx, point.n)] = values[j - 1]
        out.append(tuple(new))
    return replace(point, layers=tuple(out))


# ---------------------------------------------------------------------------
# The embedding into a ring


@dataclass(frozen=True)
class SigmaPoint:
    """Layered point whose entries are ring elements (drawn from a
    family's coefficient alphabet) — the domain of the embedding."""

    spec: RingSpec
    n: int
    layers: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("side must be >= 1")
        _check_levels(self.n, self.layers)
        if not all(_in_ring(c, self.spec) for layer in self.layers for c in layer):
            raise ValueError("entries must be ring elements of the stated ring")

    @property
    def d(self) -> int:
        return len(self.layers)


def _in_ring(c, spec: RingSpec) -> bool:
    return isinstance(c, RingElement) and c.spec == spec


def coefficient_alphabet(family: PolyFamily, d: Optional[int] = None) -> tuple:
    """The coefficients of the family's polynomials in degrees 1..d,
    zero-padded per polynomial up to d, deduplicated and canonically
    sorted.  d defaults to the family's top degree."""
    top = family.max_degree
    if d is None:
        d = top
    if d < top:
        raise ValueError(f"padding degree {d} below the family's top degree {top}")
    seen = {}
    for f in family.polys:
        for j in range(1, d + 1):
            seen.setdefault(f.coeff(j), None)
    return tuple(sorted(seen, key=lambda e: e.sort_key()))


def multiplicative_assignment(ys: Sequence[RingElement], d: int) -> dict:
    """The assignment on multi-indices of length <= d generated by
    y(i1..ij) = y(i1)*...*y(ij) from base values y(1..n) = ys."""
    ys = tuple(ys)
    if not ys:
        raise ValueError("need at least one base value")
    if d < 1:
        raise ValueError("depth must be >= 1")
    n = len(ys)
    assign = {}
    for j in range(1, d + 1):
        for idx in multi_indices(n, j):
            v = ys[idx[0] - 1]
            for i in idx[1:]:
                v = v * ys[i - 1]
            assign[idx] = v
    return assign


def _require_multiplicative(y_assign: dict, n: int, d: int) -> None:
    ys = [_y_at(y_assign, (i,)) for i in range(1, n + 1)]
    for idx, v in multiplicative_assignment(ys, d).items():
        if _y_at(y_assign, idx) != v:
            raise ValueError(f"y assignment is not multiplicative at {idx!r}")


def _y_at(y_assign: dict, idx: tuple) -> RingElement:
    try:
        return y_assign[idx]
    except KeyError:
        raise ValueError(f"y assignment missing index {idx!r}") from None


def sigma_embed(u: SigmaPoint, y_assign: dict, r0: RingElement,
                family: Optional[PolyFamily] = None) -> RingElement:
    """r0 + sum_j sum_idx u[j][idx] * y(idx), exactly.

    When a family is supplied, every entry of u must come from its
    coefficient alphabet at depth u.d.
    """
    if r0.spec != u.spec:
        raise ValueError("base point and layered point from different rings")
    if family is not None:
        allowed = set(coefficient_alphabet(family, u.d))
        for layer in u.layers:
            for c in layer:
                if c not in allowed:
                    raise ValueError(f"entry {c!r} outside the family's coefficient alphabet")
    total = r0
    for j, layer in enumerate(u.layers, start=1):
        for flat, idx in enumerate(multi_indices(u.n, j)):
            total = total + layer[flat] * _y_at(y_assign, idx)
    return total


def sigma_translate(u: SigmaPoint, gamma: WildcardSet, coeffs: Sequence[RingElement]) -> SigmaPoint:
    """Wildcard translation with ring-element values: level j's gamma^j
    coordinates are set to coeffs[j-1]."""
    return _translate(u, gamma, coeffs, "coefficients", lambda c: None if _in_ring(c, u.spec)
                      else "coefficients must be ring elements of the stated ring")


class SigmaCheck(NamedTuple):
    poly: ZeroConstPoly
    lhs: RingElement
    rhs: RingElement
    ok: bool


def verify_sigma_line_identity(family: PolyFamily, y_assign: dict, gamma: WildcardSet,
                               u: SigmaPoint, r0: RingElement) -> tuple:
    """For each f in the family, compare the embedding of u after
    substituting f's coefficients into the gamma^j positions against
    r0 + s + f(y_gamma), where s collects the untouched coordinates and
    y_gamma = sum_{i in gamma} y(i).  Exact equality on both sides.

    Requires a multiplicative y assignment: only then does the gamma^j
    block of level j sum to y_gamma^j.
    """
    if family.spec != u.spec:
        raise ValueError("family and layered point from different rings")
    n, d = u.n, u.d
    gamma.check_range(n)
    if family.max_degree > d:
        raise ValueError("layered point too shallow for the family's top degree")
    _require_multiplicative(y_assign, n, d)

    gam = gamma.gamma
    y_gamma = u.spec.zero
    for i in sorted(gam):
        y_gamma = y_gamma + _y_at(y_assign, (i,))

    s = u.spec.zero
    for j, layer in enumerate(u.layers, start=1):
        for flat, idx in enumerate(multi_indices(n, j)):
            if all(i in gam for i in idx):
                continue
            s = s + layer[flat] * _y_at(y_assign, idx)

    checks = []
    for f in family.polys:
        coeffs = tuple(f.coeff(j) for j in range(1, d + 1))
        lhs = sigma_embed(sigma_translate(u, gamma, coeffs), y_assign, r0)
        rhs = r0 + s + eval_poly(f, y_gamma)
        checks.append(SigmaCheck(f, lhs, rhs, lhs == rhs))
    return tuple(checks)


def sigma_trials(family: PolyFamily, pool, n: int, depth: Optional[int],
                 trials: int, seed: int):
    """Seeded randomized identity checks.

    Base values, the base point, the coordinate set and every layered
    entry are drawn from one splitmix counter stream in that order, so a
    (family, pool, n, depth, trials, seed) tuple pins the whole run.
    Yields the per-polynomial check tuple of each trial; a negative trial
    count is a ValueError.
    """
    if pool.spec != family.spec:
        raise ValueError("pool window and family from different rings")
    if n < 1:
        raise ValueError("side must be >= 1")
    if trials < 0:
        raise ValueError(f"trial count must be >= 0, got {trials}")
    d = family.max_degree if depth is None else depth
    alphabet = coefficient_alphabet(family, d)
    size = len(pool.elements)
    counter = 0

    def draw(bound: int) -> int:
        nonlocal counter
        v = stream_below(seed, counter, bound)
        counter += 1
        return v

    for _ in range(trials):
        ys = tuple(pool.elements[draw(size)] for _ in range(n))
        r0 = pool.elements[draw(size)]
        mask = draw(2**n - 1) + 1
        gamma = wildcard_set(i + 1 for i in range(n) if mask >> i & 1)
        layers = tuple(
            tuple(alphabet[draw(len(alphabet))] for _ in range(n**j))
            for j in range(1, d + 1)
        )
        u = SigmaPoint(family.spec, n, layers)
        y_assign = multiplicative_assignment(ys, d)
        yield verify_sigma_line_identity(family, y_assign, gamma, u, r0)
