"""Words, variable words and combinatorial lines over a finite alphabet;
brute-force Hales-Jewett numbers at desk scale; and the embedding of a
layered product space into a ring that turns wildcard translations into
configurations r0 + s + f(y_gamma).

Alphabet letters are 1..t and the wildcard is 0.  A word's cell in the
cube [t]^N is flat_index(letters, t), the lexicographic order of
multi_indices(t, N) (first letter most significant), and a coloring of
the cube is a flat tuple over those cells.  The layered
space has one array per level j = 1..d; level j is indexed by j-tuples
over {1..N} flattened in row-major order, so its length is N^j, and its
entries are ring elements only.

The embedding sends a layered point u to r0 + sum_j sum_i u[j][i] * y(i)
for a user-supplied assignment y on multi-indices.  When y is
multiplicative on product indices (y(i1..ij) = y(i1)*...*y(ij)),
substituting a polynomial's coefficients into the gamma^j positions
shifts the value by exactly f(y_gamma) with y_gamma = sum_{i in gamma}
y(i); verify_sigma_line_identity checks that equality exactly,
polynomial by polynomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .patterns import PolyFamily, ZeroConstPoly, eval_poly
from .prng import stream_below
from .rings import RingElement, RingSpec
from .search import AvoidanceStatus, _avoid

WILDCARD = 0

DEFAULT_WORK_CAP = 10**8


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


@dataclass(frozen=True)
class VariableWord:
    """A word over {1..t} plus the wildcard 0, with >= 1 wildcard."""

    t: int
    letters: tuple

    def __post_init__(self):
        _check_letters(self.t, self.letters, WILDCARD)
        if WILDCARD not in self.letters:
            raise ValueError("a variable word needs at least one wildcard")


def substitute(w: VariableWord, a: int) -> Word:
    """Replace every wildcard by the letter a."""
    if not 1 <= a <= w.t:
        raise ValueError(f"letter {a} out of range 1..{w.t}")
    return Word(w.t, tuple(a if x == WILDCARD else x for x in w.letters))


def line_of(w: VariableWord) -> tuple:
    """The combinatorial line {w(a) : a in 1..t}, in letter order."""
    return tuple(substitute(w, a) for a in range(1, w.t + 1))


def variable_words(t: int, n: int):
    """All (t+1)^n - t^n variable words of length n, wildcard-first
    lexicographic order."""
    for letters in itertools.product(range(0, t + 1), repeat=n):
        if WILDCARD in letters:
            yield VariableWord(t, letters)


def _line_cells(t: int, n: int):
    """Every line of [t]^n as a tuple of cell indices."""
    return [tuple(flat_index(w.letters, t) for w in line_of(vw)) for vw in variable_words(t, n)]


def find_avoiding_coloring(r: int, t: int, n: int, work_cap: Optional[int] = None) -> tuple:
    """(status, colors): FOUND with an r-coloring of [t]^n (flat tuple,
    colors 1..r) in which no line is monochromatic, FORCED with None when
    every coloring contains one, TIMEOUT with None when the search needs
    more than work_cap decisions.

    Runs the avoidance search of search.py with the lines as index sets
    and the cells in order 0..t^n-1 (a found coloring is the first
    avoider in that order; cell 0 takes color 1 only, so a forced cube
    costs 1/r of the work).  Every decision (a color tried at a cell;
    propagated colors are free) counts one unit of work against work_cap
    (default DEFAULT_WORK_CAP); a negative work_cap raises ValueError.
    """
    if r < 1 or t < 1 or n < 1:
        raise ValueError("colors, alphabet size and length must be >= 1")
    cap = DEFAULT_WORK_CAP if work_cap is None else work_cap
    cells = t**n
    return _avoid(_line_cells(t, n), range(cells), cells, r, cap)[:2]


@dataclass(frozen=True)
class HjResult:
    r: int
    t: int
    status: str  # "found" | "not_found_within" | "work_cap_exceeded"
    n: int  # least cube length when found, the side that hit the cap, else the largest probed
    avoiding: Optional[tuple] = None  # explicit avoiding coloring at n when not_found_within


def hj_number_exhaustive(r: int, t: int, max_n: int, work_cap: Optional[int] = None) -> HjResult:
    """Least n <= max_n at which every r-coloring of [t]^n contains a
    monochromatic line, by exhaustive search; otherwise the explicit
    avoiding coloring found at max_n, or the first side whose search
    needed more than work_cap decisions."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    avoiding = None
    for n in range(1, max_n + 1):
        status, avoiding = find_avoiding_coloring(r, t, n, work_cap)
        if status is AvoidanceStatus.FORCED:
            return HjResult(r, t, "found", n)
        if status is AvoidanceStatus.TIMEOUT:
            return HjResult(r, t, "work_cap_exceeded", n)
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


# ---------------------------------------------------------------------------
# The embedding into a ring


@dataclass(frozen=True)
class SigmaPoint:
    """Point of the layered space, the domain of the embedding: layers[j-1]
    is level j, ring elements flat over [n]^j in row-major order."""

    spec: RingSpec
    n: int
    layers: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("side must be >= 1")
        if not self.layers:
            raise ValueError("at least one level")
        for j, layer in enumerate(self.layers, start=1):
            if len(layer) != self.n**j:
                raise ValueError(f"level {j} must have length {self.n**j}, got {len(layer)}")
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


def sigma_embed(u: SigmaPoint, y_assign: dict, r0: RingElement) -> RingElement:
    """r0 + sum_j sum_idx u[j][idx] * y(idx), exactly."""
    if r0.spec != u.spec:
        raise ValueError("base point and layered point from different rings")
    total = r0
    for j, layer in enumerate(u.layers, start=1):
        for flat, idx in enumerate(multi_indices(u.n, j)):
            total = total + layer[flat] * _y_at(y_assign, idx)
    return total


def sigma_translate(u: SigmaPoint, gamma: WildcardSet, coeffs: Sequence[RingElement]) -> SigmaPoint:
    """Wildcard translation: the layered point with every gamma^j entry of
    level j set to coeffs[j-1], all others unchanged."""
    gamma.check_range(u.n)
    coeffs = tuple(coeffs)
    if len(coeffs) != u.d:
        raise ValueError(f"need {u.d} coefficients, got {len(coeffs)}")
    if not all(_in_ring(c, u.spec) for c in coeffs):
        raise ValueError("coefficients must be ring elements of the stated ring")
    coords = sorted(gamma.gamma)
    out = []
    for j, layer in enumerate(u.layers, start=1):
        new = list(layer)
        for idx in itertools.product(coords, repeat=j):
            new[flat_index(idx, u.n)] = coeffs[j - 1]
        out.append(tuple(new))
    return SigmaPoint(u.spec, u.n, tuple(out))


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
                 trials: int, seed: int) -> tuple:
    """Seeded randomized identity checks.

    Base values, the base point, the coordinate set and every layered
    entry are drawn from one splitmix counter stream in that order, so a
    (family, pool, n, depth, trials, seed) tuple pins the whole run.
    Returns the per-polynomial check tuple of each trial, in a tuple.
    Pool and family from different rings, a side below 1 and a negative
    trial count raise ValueError.
    """
    if pool.spec != family.spec:
        raise ValueError("pool window and family from different rings")
    if n < 1:
        raise ValueError("side must be >= 1")
    if trials < 0:
        raise ValueError(f"trial count must be >= 0, got {trials}")
    d = family.max_degree if depth is None else depth
    alphabet = coefficient_alphabet(family, d)
    size = len(pool)
    counter = 0

    def draw(bound: int) -> int:
        nonlocal counter
        v = stream_below(seed, counter, bound)
        counter += 1
        return v

    out = []
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
        out.append(verify_sigma_line_identity(family, y_assign, gamma, u, r0))
    return tuple(out)
