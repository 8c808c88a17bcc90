"""Avoidance-coloring search: can an r-coloring of a window keep every
pattern instance non-monochromatic?

The backtracker assigns colors only to elements that occur in at least
one candidate (anything else is unconstrained and gets color 1 in a
found coloring).  It decides the most-constrained element first, least
color first, and propagates: once a candidate has one uncolored member
and all the others share a color, that color leaves the member's
domain, and a member left with one color takes it at once.  Exhausting
the space is reported as Forced, a completed assignment as
AvoidanceFound, and hitting the node budget as Timeout — a first-class
outcome, never a silent truncation.  The search runs over plain index
sets (_avoid), so halesjewett.find_avoiding_coloring runs the same core
with the lines of a cube [t]^n in cell order.

The same instance exports to DIMACS CNF (satisfiable exactly when an
avoidance coloring exists) for external solvers and for the separate
DPLL engine in dpll.py, with a model decoder that rebuilds and validates
the coloring.  The two engines share no search code, so agreement
between them (dual_engine_check) is a real cross-check.  moreira_number
turns the Forced/AvoidanceFound boundary into a least-window-size
threshold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from .colorings import Coloring
from .errors import InternalError
from .patterns import PatternInstance, PolyFamily, ScanConstraints, _instances
from .rings import (
    WHITESPACE, Window, WindowParams, enumerate_window, format_element, integer, integers, tokens,
)


class AvoidanceInstance:
    """A window, a color count and the deduplicated candidate list: every
    pattern instance fully inside the window that passes the constraints,
    in canonical scan order (y outer, x inner), one per element set.  As
    candidates lie inside the window, x runs only over Window.product_run(y)
    (Z {1..N}: x <= N//y; signed Z: |x| <= N//|y|; Zi: N(x) <= 2B^2//N(y);
    GF(q)[x]: deg x < d - deg y; y = 0: all), even in partial mode."""

    __slots__ = ("window", "r", "candidates", "index_sets")

    def __init__(self, window: Window, r: int, candidates: tuple, index_sets: tuple):
        self.window = window
        self.r = r
        self.candidates = candidates
        self.index_sets = index_sets

    def __repr__(self) -> str:
        return (
            f"<avoidance instance |W|={len(self.window)} r={self.r} "
            f"candidates={len(self.candidates)}>"
        )


def build_instance(window: Window, r: int, family: PolyFamily,
                   constraints: Optional[ScanConstraints] = None) -> AvoidanceInstance:
    """Enumerate candidates in scan order, deduplicated by element set.

    Candidates must lie fully inside the window regardless of the
    constraint flags: monochromaticity of a partially visible instance
    is not decidable from window data.
    """
    if r < 1:
        raise ValueError(f"color count must be >= 1, got {r}")
    if window.spec != family.spec:
        raise ValueError("window and family from different rings")
    if constraints is None:
        constraints = ScanConstraints.defaults_for(window.spec)
    seen = set()
    candidates = []
    index_sets = []
    whole = replace(constraints, require_in_window=True)
    elements = window.elements
    for y, x, positions in _instances(window, family, whole):
        key = frozenset(positions)
        if key in seen:
            continue
        seen.add(key)
        candidates.append(PatternInstance(x, y, tuple([elements[p] for p in positions])))
        index_sets.append(tuple(sorted(key)))
    return AvoidanceInstance(window, r, tuple(candidates), tuple(index_sets))


class AvoidanceStatus(Enum):
    FOUND = "avoidance_found"
    FORCED = "forced"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class AvoidanceResult:
    status: AvoidanceStatus
    coloring: Optional[Coloring] = None
    nodes: int = 0
    backtracks: int = 0


def _is_avoiding(colors: Sequence[int], index_sets) -> bool:
    for idxs in index_sets:
        first = colors[idxs[0]]
        if all(colors[i] == first for i in idxs[1:]):
            return False
    return True


def avoidance_backtrack(inst: AvoidanceInstance, budget: Optional[int] = None) -> AvoidanceResult:
    """Search for an avoidance coloring.

    Slots are the candidates' elements in the static order (-weight,
    index), where weight counts the candidates an element lies in; the
    search itself is _avoid.  Each decision costs one node against the
    budget (None = unlimited, negative = ValueError); propagated
    assignments are free.
    """
    weight = Counter(i for idxs in inst.index_sets for i in idxs)
    order = sorted(weight, key=lambda i: (-weight[i], i))
    status, colors, nodes, backtracks = _avoid(inst.index_sets, order, len(inst.window),
                                               inst.r, budget)
    coloring = None if colors is None else Coloring(inst.window, inst.r, colors)
    return AvoidanceResult(status, coloring, nodes, backtracks)


def _avoid(index_sets, order, size: int, r: int, budget: Optional[int]) -> tuple:
    """(status, colors, nodes, backtracks) of the search for an r-coloring
    of positions 0..size-1 that leaves no index set monochromatic; colors
    is the flat tuple (colors 1..r, positions in no index set colored 1)
    when status is FOUND, else None.

    order lists every position that lies in some index set, in decision
    order; a decision gives the first undecided slot its least open
    color.  Each slot keeps a bitmask of open colors and each index set
    an open count and per-color counts, so its shared color (none, c or
    mixed) reads off directly.  When a set is left with one open slot and
    every other member colored c, c leaves that slot's domain; an empty
    domain is a conflict, and a singleton domain is assigned at once
    (cascading).  The pruning is sound and the decision order is fixed,
    so the result is the lexicographically first avoider in that order,
    as without propagation.  Each decision costs one node against the
    budget (None = unlimited); propagated assignments are free.
    backtracks counts dead ends: conflicts and slots whose colors ran out.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    slot_of = {i: k for k, i in enumerate(order)}
    cands = [tuple(slot_of[i] for i in idxs) for idxs in index_sets]
    # per slot: (candidate, its slots, the index of its color-0 counter)
    stride = r + 1
    member_cands = [[] for _ in order]
    for ci, c in enumerate(cands):
        for s in c:
            member_cands[s].append((ci, c, ci * stride))

    total = len(order)
    if total == 0:
        return AvoidanceStatus.FOUND, (1,) * size, 0, 0

    colors = [0] * total
    domain = [(1 << stride) - 2] * total  # bit c set: color c still open
    open_count = [len(c) for c in cands]
    counts = [0] * (len(cands) * stride)  # counts[ci*stride + c]: members of ci colored c
    trail = []  # slots in assignment order
    removed = []  # (slot, bit) domain removals in order
    for c in cands:
        if len(c) == 1:
            domain[c[0]] = 0  # a one-element candidate is monochromatic under every coloring

    def assign(slot: int, color: int) -> bool:
        """Color slot and propagate; False on a conflict."""
        ok = True
        pending = [(slot, color)]
        while pending and ok:
            s, c = pending.pop()
            if colors[s]:
                continue
            colors[s] = c
            trail.append(s)
            bit = 1 << c
            for ci, slots, base in member_cands[s]:
                o = open_count[ci] - 1
                open_count[ci] = o
                m = counts[base + c] + 1
                counts[base + c] = m
                if o == 1 and m == len(slots) - 1 and ok:
                    for t in slots:
                        if not colors[t]:
                            break
                    d = domain[t]
                    if d & bit:
                        d ^= bit
                        domain[t] = d
                        removed.append((t, bit))
                        if not d:
                            ok = False
                        elif not d & (d - 1):
                            pending.append((t, d.bit_length() - 1))
        return ok

    def undo(trail_len: int, removed_len: int) -> None:
        while len(trail) > trail_len:
            s = trail.pop()
            c = colors[s]
            colors[s] = 0
            for ci, _, base in member_cands[s]:
                open_count[ci] += 1
                counts[base + c] -= 1
        while len(removed) > removed_len:
            t, bit = removed.pop()
            domain[t] |= bit

    nodes = 0
    backtracks = 0
    forced = (AvoidanceStatus.FORCED, None, 0, 1)
    for s in range(total):
        d = domain[s]
        if not d:
            return forced
        if not d & (d - 1) and not colors[s] and not assign(s, d.bit_length() - 1):
            return forced

    frames = []  # (slot, color, trail length, removed length) per decision
    k = 0
    tried = 0  # the color last decided at slot k; 0 when k is fresh
    while True:
        if not tried:
            while k < total and colors[k]:
                k += 1
            if k == total:
                break
        d = domain[k] >> (tried + 1) << (tried + 1)
        if not d:
            backtracks += 1
            if not frames:
                return AvoidanceStatus.FORCED, None, nodes, backtracks
            k, tried, trail_len, removed_len = frames.pop()
            undo(trail_len, removed_len)
            continue
        if budget is not None and nodes >= budget:
            return AvoidanceStatus.TIMEOUT, None, nodes, backtracks
        nodes += 1
        tried = (d & -d).bit_length() - 1
        trail_len, removed_len = len(trail), len(removed)
        if assign(k, tried):
            frames.append((k, tried, trail_len, removed_len))
            tried = 0
        else:
            backtracks += 1
            undo(trail_len, removed_len)

    full = [1] * size
    for i, slot in slot_of.items():
        full[i] = colors[slot]
    if not _is_avoiding(full, index_sets):
        raise InternalError("backtracker guard tripped: completed coloring not avoiding")
    return AvoidanceStatus.FOUND, tuple(full), nodes, backtracks


@dataclass(frozen=True)
class MoreiraResult:
    status: str  # "found" | "not_found_within" | "inconclusive"
    n: int  # least forced N; max probed; or the N whose search timed out
    trace: tuple  # (N, AvoidanceStatus) pairs in evaluation order


def moreira_number(r: int, family: PolyFamily, max_n: int,
                   budget: Optional[int] = None,
                   constraints: Optional[ScanConstraints] = None) -> MoreiraResult:
    """Least window size n <= max_n (N=n over Z, B=n over Zi, d=n over
    GF(q)[x]) at which no r-coloring avoids the family's instances.
    Exponential probe then binary search on the monotone Forced boundary
    (every ring's windows nest, so Forced only moves upward)."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    trace = []

    def status_at(n: int) -> AvoidanceStatus:
        window = enumerate_window(family.spec, WindowParams(n))
        res = avoidance_backtrack(build_instance(window, r, family, constraints), budget)
        trace.append((n, res.status))
        return res.status

    lo = 0  # largest N known avoidable
    n = 1
    hi = None  # smallest N known forced
    while True:
        st = status_at(n)
        if st is AvoidanceStatus.TIMEOUT:
            return MoreiraResult("inconclusive", n, tuple(trace))
        if st is AvoidanceStatus.FORCED:
            hi = n
            break
        lo = n
        if n == max_n:
            return MoreiraResult("not_found_within", max_n, tuple(trace))
        n = min(2 * n, max_n)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        st = status_at(mid)
        if st is AvoidanceStatus.TIMEOUT:
            return MoreiraResult("inconclusive", mid, tuple(trace))
        if st is AvoidanceStatus.FORCED:
            hi = mid
        else:
            lo = mid
    return MoreiraResult("found", hi, tuple(trace))


# ---------------------------------------------------------------------------
# CNF export / decode


@dataclass(frozen=True)
class CnfDocument:
    num_vars: int
    clauses: tuple  # tuples of signed ints
    mapping: tuple  # (element literal, window index) pairs, in window order


def cnf_var(index: int, color: int, r: int) -> int:
    """Variable for "element #index has color #color" (both 0-based
    inputs; colors 0..r-1)."""
    return index * r + color + 1


def cnf_export(inst: AvoidanceInstance) -> CnfDocument:
    """Propositional encoding of "some r-coloring avoids every candidate":
    per element one at-least-one clause and pairwise at-most-one clauses,
    then per candidate and color the clause "not all of these that color".
    Satisfiable exactly when an avoidance coloring exists."""
    r = inst.r
    n = len(inst.window)
    clauses = []
    for i in range(n):
        clauses.append(tuple(cnf_var(i, c, r) for c in range(r)))
    for i in range(n):
        for c1 in range(r):
            for c2 in range(c1 + 1, r):
                clauses.append((-cnf_var(i, c1, r), -cnf_var(i, c2, r)))
    for idxs in inst.index_sets:
        for c in range(r):
            clauses.append(tuple(-cnf_var(i, c, r) for i in idxs))
    mapping = tuple((format_element(e), i) for i, e in enumerate(inst.window.elements))
    return CnfDocument(n * r, tuple(clauses), mapping)


def to_dimacs(doc: CnfDocument) -> str:
    """Bit-exact serialization: `c map <element-literal> <index>` lines,
    the `p cnf` header, then one `lits 0` line per clause, LF newlines."""
    lines = [f"c map {lit} {idx}" for lit, idx in doc.mapping]
    lines.append(f"p cnf {doc.num_vars} {len(doc.clauses)}")
    for clause in doc.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfDocument:
    """The document of DIMACS text; lines end at \n only (a \r before it is whitespace)."""
    mapping = []
    num_vars = None
    expected = None
    lits: list = []
    clauses: list = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip(WHITESPACE)
        if not line:
            continue
        if line.startswith("c"):
            parts = tokens(line)
            if len(parts) == 4 and parts[1] == "map":
                mapping.append((parts[2], integer(parts[3])))
            continue
        if line.startswith("p"):
            parts = tokens(line)
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: bad problem line {line!r}")
            num_vars, expected = integer(parts[2]), integer(parts[3])
            continue
        for lit in integers(line):
            if lit == 0:
                clauses.append(tuple(lits))
                lits = []
            else:
                lits.append(lit)
    if lits:
        raise ValueError("unterminated clause at end of input")
    if num_vars is None:
        raise ValueError("missing problem line")
    if expected != len(clauses):
        raise ValueError(f"problem line promises {expected} clauses, found {len(clauses)}")
    return CnfDocument(num_vars, tuple(clauses), tuple(mapping))


def parse_model(text: str) -> list:
    """Signed literals from DIMACS v-lines or one-literal-per-line text;
    zeros are terminators and are dropped.  Lines end at \n only (a \r
    before it is whitespace), as in parse_dimacs."""
    lits = []
    for line in text.split("\n"):
        line = line.strip(WHITESPACE)
        if not line or line[0] in "cs":
            continue
        if line[0] == "v":
            line = line[1:]
        lits += [lit for lit in integers(line) if lit != 0]
    return lits


def coloring_to_model(coloring: Coloring) -> list:
    """The coloring as a total signed assignment over the CNF variables."""
    r = coloring.r
    model = []
    for i, color in enumerate(coloring.colors):
        for c in range(r):
            var = cnf_var(i, c, r)
            model.append(var if c == color - 1 else -var)
    return model


def dual_engine_check(inst: AvoidanceInstance, budget: Optional[int] = None) -> dict:
    """Run the backtracker and the reference DPLL (through the CNF
    encoding) on one instance.  agree is None when the backtracker timed
    out — the CNF side alone cannot adjudicate a timeout."""
    from .dpll import dpll_sat

    res = avoidance_backtrack(inst, budget)
    doc = cnf_export(inst)
    model = dpll_sat(doc.num_vars, doc.clauses)
    sat = model is not None
    if res.status is AvoidanceStatus.TIMEOUT:
        agree = None
    else:
        agree = (res.status is AvoidanceStatus.FOUND) == sat
    return {
        "backtrack": res.status.value,
        "cnf_sat": sat,
        "agree": agree,
        "nodes": res.nodes,
        "vars": doc.num_vars,
        "clauses": len(doc.clauses),
    }


def cnf_model_decode(model: Sequence[int], inst: AvoidanceInstance) -> Coloring:
    """Rebuild the coloring from a satisfying assignment and validate it
    avoids every candidate (failure there means an encode or solver bug)."""
    r = inst.r
    n = len(inst.window)
    true_vars = set()
    for lit in model:
        if lit == 0 or abs(lit) > n * r:
            raise ValueError(f"literal {lit} out of range")
        if lit > 0:
            true_vars.add(lit)
    colors = []
    for i in range(n):
        chosen = [c for c in range(r) if cnf_var(i, c, r) in true_vars]
        if len(chosen) != 1:
            raise ValueError(
                f"element #{i} carries {len(chosen)} colors; model violates the one-color clauses"
            )
        colors.append(chosen[0] + 1)
    if not _is_avoiding(colors, inst.index_sets):
        raise RuntimeError("decoded coloring leaves a candidate monochromatic: encode/solver bug")
    return Coloring(inst.window, r, tuple(colors))
