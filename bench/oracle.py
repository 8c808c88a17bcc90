"""Independent oracles for the benchmark's output checks.

Nothing here imports ``monochrome``.  Ring elements are raw values:

* ``Z``        -- a plain int,
* ``Zi``       -- an ``(re, im)`` pair,
* ``GF(q)[x]`` -- a tuple of coefficients mod q, constant term first,
  no trailing zeros (``()`` is zero).

Windows, colorings, families and the witness rule are rebuilt from the
documented definitions (README and module docstrings), never from a copy
of the program's output.  ``expect`` raises :class:`CheckFailed` on a
mismatch; the checks in ``workloads.py`` are built on it.
"""

from __future__ import annotations

import itertools
import re

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class CheckFailed(AssertionError):
    """An output of the program disagrees with the oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Seeded stream: splitmix64 counter mode, from the documented formula


def stream_value(seed: int, k: int) -> int:
    z = (seed + (k + 1) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def coloring_colors(size: int, r: int, seed: int) -> tuple:
    """Position k gets color 1 + value(seed, k) % r."""
    return tuple(1 + stream_value(seed, k) % r for k in range(size))


# ---------------------------------------------------------------------------
# Raw rings


class Ring:
    """Raw-value arithmetic of one ring: 'Z', 'Zi' or 'GF(q)[x]'."""

    def __init__(self, text: str):
        m = re.fullmatch(r"GF\((\d+)\)\[x\]", text)
        if text == "Z":
            self.kind, self.q = "Z", None
        elif text == "Zi":
            self.kind, self.q = "Zi", None
        elif m:
            self.kind, self.q = "GF", int(m.group(1))
        else:
            raise ValueError(f"unknown ring {text!r}")

    def from_int(self, n: int):
        if self.kind == "Z":
            return n
        if self.kind == "Zi":
            return (n, 0)
        return _trim([n % self.q])

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def add(self, a, b):
        if self.kind == "Z":
            return a + b
        if self.kind == "Zi":
            return (a[0] + b[0], a[1] + b[1])
        n = max(len(a), len(b))
        a = a + (0,) * (n - len(a))
        b = b + (0,) * (n - len(b))
        return _trim([(u + v) % self.q for u, v in zip(a, b)])

    def mul(self, a, b):
        if self.kind == "Z":
            return a * b
        if self.kind == "Zi":
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return _trim([c % self.q for c in out])

    def power(self, a, e: int):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def window(self, spec: str) -> list:
        """Canonical window order, from the README's definitions."""
        key, _, rest = spec.partition("=")
        size, _, flag = rest.partition(",")
        size = int(size)
        if self.kind == "Z":
            expect(key == "N", f"bad Z window {spec}")
            return list(range(-size if flag == "signed" else 1, size + 1))
        if self.kind == "Zi":
            expect(key == "B", f"bad Zi window {spec}")
            box = [(a, b) for a in range(-size, size + 1) for b in range(-size, size + 1)]
            return sorted(box, key=lambda p: (p[0] ** 2 + p[1] ** 2, p[0], p[1]))
        expect(key == "d", f"bad GF window {spec}")
        out = []
        for v in range(self.q ** size):
            digits = []
            while v:
                digits.append(v % self.q)
                v //= self.q
            out.append(tuple(digits))
        return out


def _trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def parse_family(ring: Ring, text: str) -> list:
    """Families of integer-coefficient terms: ``t``, ``0;t``, ``2t^2+t``.

    Each polynomial becomes a list of (degree, raw coefficient) terms."""
    family = []
    for part in text.split(";"):
        part = part.strip().replace(" ", "")
        terms = {}
        for term in part.split("+"):
            m = re.fullmatch(r"(\d*)(?:t(?:\^(\d+))?)?", term)
            expect(m is not None and term != "", f"oracle cannot parse {text!r}")
            if "t" not in term:
                expect(int(m.group(1)) == 0, f"constant term in {text!r}")
                continue
            coeff = int(m.group(1)) if m.group(1) else 1
            deg = int(m.group(2)) if m.group(2) else 1
            terms[deg] = terms.get(deg, 0) + coeff
        poly = [(d, ring.from_int(c)) for d, c in sorted(terms.items()) if ring.from_int(c) != ring.zero]
        if poly not in family:
            family.append(poly)
    return family


def eval_poly(ring: Ring, poly: list, y):
    acc = ring.zero
    for deg, c in poly:
        acc = ring.add(acc, ring.mul(c, ring.power(y, deg)))
    return acc


# ---------------------------------------------------------------------------
# The witness rule


class Colored:
    """A window with its coloring, in raw values."""

    def __init__(self, ring: Ring, window_spec: str, colors: tuple):
        self.ring = ring
        self.elements = ring.window(window_spec)
        expect(len(colors) == len(self.elements), "coloring size differs from the window")
        self.colors = colors
        self.pos = {e: k for k, e in enumerate(self.elements)}

    @classmethod
    def seeded(cls, ring: Ring, window_spec: str, r: int, seed: int) -> "Colored":
        size = len(ring.window(window_spec))
        return cls(ring, window_spec, coloring_colors(size, r, seed))


def instance(ring: Ring, x, y, fvals: list) -> list:
    """[x*y] then x + f(y) per family member, first occurrence kept."""
    out = [ring.mul(x, y)]
    for fy in fvals:
        e = ring.add(x, fy)
        if e not in out:
            out.append(e)
    return out


def scan(cw: Colored, family: list, partial: bool = False, ys=None) -> list:
    """Every (x, y, color) with a monochromatic instance, in (y, x) window
    order, under the default constraints: y not in {0, 1}, x != 0,
    single-element instances skipped.  With ``partial`` the instance is
    judged by its elements inside the window (and skipped when none is);
    otherwise every element must lie inside."""
    ring = cw.ring
    zero, one = ring.zero, ring.one
    out = []
    for y in (cw.elements if ys is None else ys):
        if y == zero or y == one:
            continue
        fvals = [eval_poly(ring, f, y) for f in family]
        for x in cw.elements:
            if x == zero:
                continue
            elems = instance(ring, x, y, fvals)
            if len(elems) == 1:
                continue
            seen = set()
            escaped = False
            for e in elems:
                k = cw.pos.get(e)
                if k is None:
                    escaped = True
                else:
                    seen.add(cw.colors[k])
            if (escaped and not partial) or len(seen) != 1:
                continue
            out.append((x, y, seen.pop()))
    return out


def group_by_y(witnesses: list, r: int) -> dict:
    """{y: {color: set of x}} for every y that has a witness."""
    out = {}
    for x, y, c in witnesses:
        out.setdefault(y, {i: set() for i in range(1, r + 1)})[c].add(x)
    return out


# ---------------------------------------------------------------------------
# Avoidance instances over Z {1..N}


def candidates(n: int, family: list) -> list:
    """Position sets of the fully-inside instances of {1..N} under the
    default constraints, deduplicated, in scan order."""
    ring = Ring("Z")
    out = []
    seen = set()
    for y in range(2, n + 1):
        fvals = [eval_poly(ring, f, y) for f in family]
        for x in range(1, n + 1):
            elems = instance(ring, x, y, fvals)
            if len(elems) == 1 or any(not 1 <= e <= n for e in elems):
                continue
            key = frozenset(e - 1 for e in elems)
            if key not in seen:
                seen.add(key)
                out.append(tuple(sorted(key)))
    return out


def avoids(colors, cands: list) -> bool:
    """No candidate is monochromatic (colors indexed by window position)."""
    for idxs in cands:
        c = colors[idxs[0]]
        if all(colors[i] == c for i in idxs[1:]):
            return False
    return True


def exhaustive_avoidable(n: int, r: int, cands: list) -> bool:
    """Whether some r-coloring among all r^n colorings of {1..N} avoids
    every candidate."""
    for colors in itertools.product(range(r), repeat=n):
        if avoids(colors, cands):
            return True
    return False


def cnf_clauses(n: int, r: int, cands: list) -> list:
    """The documented encoding: variable index*r + color + 1; per element
    at-least-one then pairwise at-most-one, then one blocking clause per
    candidate and color."""
    var = lambda i, c: i * r + c + 1  # noqa: E731
    out = [tuple(var(i, c) for c in range(r)) for i in range(n)]
    for i in range(n):
        for c1 in range(r):
            for c2 in range(c1 + 1, r):
                out.append((-var(i, c1), -var(i, c2)))
    for idxs in cands:
        for c in range(r):
            out.append(tuple(-var(i, c) for i in idxs))
    return out


def satisfies(model, clauses) -> bool:
    true_lits = set(model)
    return all(any(lit in true_lits for lit in clause) for clause in clauses)


def model_colors(model, n: int, r: int) -> tuple:
    """1-based colors read from a model: element i has the color c with
    variable i*r + c + 1 true."""
    true_vars = {lit for lit in model if lit > 0}
    out = []
    for i in range(n):
        chosen = [c for c in range(r) if i * r + c + 1 in true_vars]
        expect(len(chosen) == 1, f"model gives element #{i} {len(chosen)} colors")
        out.append(chosen[0] + 1)
    return tuple(out)


def model_text(colors, r: int) -> str:
    """A DIMACS v-line for a 1-based coloring."""
    lits = []
    for i, color in enumerate(colors):
        for c in range(r):
            v = i * r + c + 1
            lits.append(v if c == color - 1 else -v)
    return "v " + " ".join(map(str, lits)) + " 0\n"


# ---------------------------------------------------------------------------
# Hales-Jewett lines and finite products


def hj_lines(t: int, n: int) -> list:
    """Flat cell indices (base t, first letter most significant) of every
    combinatorial line of [t]^n."""
    out = []
    for word in itertools.product(range(t + 1), repeat=n):  # 0 is the wildcard
        if 0 not in word:
            continue
        line = []
        for a in range(1, t + 1):
            cell = 0
            for letter in word:
                cell = cell * t + ((a if letter == 0 else letter) - 1)
            line.append(cell)
        out.append(line)
    return out


def has_mono_line(colors, t: int, n: int) -> bool:
    return any(len({colors[c] for c in line}) == 1 for line in hj_lines(t, n))


def subset_products_distinct(values: list) -> bool:
    """All 2^n - 1 nonempty subset products of integers are distinct."""
    seen = set()
    for mask in range(1, 1 << len(values)):
        p = 1
        for i, v in enumerate(values):
            if mask >> i & 1:
                p *= v
        if p in seen:
            return False
        seen.add(p)
    return True


def finite_sums(values: list) -> set:
    sums = set()
    for v in values:
        sums |= {s + v for s in sums}
        sums.add(v)
    return sums
