"""Avoidance-coloring search: can an r-coloring of a window keep every
pattern instance non-monochromatic?

build_instance lists the candidates, the instances that lie wholly in
the window, as window positions: per admitted y, the admitted x of
Window.product_run(y), each pair's x*y first and then its distinct
x + f(y), one candidate per element set.

The backtracker assigns colors only to elements that occur in at least
one candidate (anything else is unconstrained and gets color 1 in a
found coloring).  It decides the most-constrained element first, least
color first, and propagates: once a candidate has one uncolored member
and all the others share a color, that color leaves the member's
domain, and a member left with one color takes it at once.  Exhausting
the space is reported as Forced, a completed assignment as
AvoidanceFound, and hitting the node budget as Timeout — a first-class
outcome, never a silent truncation.  The search runs over plain index
sets and keeps every per-element state by window position (_avoid), so
halesjewett.find_avoiding_coloring runs the same core with the lines of
a cube [t]^n in cell order.

The same instance exports to DIMACS CNF (satisfiable exactly when an
avoidance coloring exists) for external solvers and for the separate
DPLL engine in dpll.py, with a model decoder that rebuilds and validates
the coloring.  The two engines share no search code, so agreement
between them (dual_engine_check) is a real cross-check.  moreira_number
turns the Forced/AvoidanceFound boundary into a least-window-size
threshold.  Its probes reuse the largest instance built so far whenever
a probe's window is a prefix of that instance's window: the probe
searches the prefix slice (AvoidanceInstance.prefix), which equals a
fresh build, instead of rebuilding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, compress
from typing import Callable, Optional, Sequence

from .colorings import Coloring
from .errors import InternalError
from .patterns import PatternInstance, PolyFamily, ScanConstraints, _raw_evaluator
from .rings import (
    WHITESPACE, Window, WindowParams, enumerate_window, format_element, integer, integers, tokens,
)


class AvoidanceInstance:
    """A window, a color count and the deduplicated candidates: every
    pattern instance fully inside the window that passes the constraints,
    in canonical scan order (y outer, x inner), one per element set.  As
    candidates lie inside the window, x runs only over
    Window.product_run(y), even in partial mode.  It holds window
    positions: index_sets (sorted) and picks (x, y and the elements in
    first-occurrence order); candidates, the PatternInstance tuple that
    no search or CNF step reads, is built on first read."""

    def __init__(self, window: Window, r: int, index_sets: tuple, picks: tuple):
        self.window = window
        self.r = r
        self.index_sets = index_sets
        self.picks = picks

    def __repr__(self) -> str:
        return (
            f"<avoidance instance |W|={len(self.window)} r={self.r} "
            f"candidates={len(self.index_sets)}>"
        )

    def candidate(self, k: int) -> PatternInstance:
        """Candidate #k as a PatternInstance."""
        elements = self.window.elements
        x, y, order = self.picks[k]
        return PatternInstance(elements[x], elements[y], tuple([elements[p] for p in order]))

    @cached_property
    def candidates(self) -> tuple:
        return tuple(map(self.candidate, range(len(self.picks))))

    def prefix(self, window: Window) -> "AvoidanceInstance":
        """This instance restricted to window, whose elements must be the
        first len(window) of self.window's (else ValueError): the
        candidates whose positions and y lie in window, in their order,
        which is build_instance(window, ...) without the rebuild.

        A candidate inside window comes from an x and a y inside it (x*y
        bounds both by norm or degree, and y = 0 leaves x + f(0) = x), so
        the first pair making each element set is the same in both scans.
        The one exception is the degenerate {0} from x = 0 and a y at
        which every f vanishes: that y may lie outside window, hence the
        check on y."""
        if not _is_prefix(window, self.window):
            raise ValueError(f"{window!r} is not a prefix of {self.window!r}")
        n = len(window)
        keep = [idxs[-1] < n and pick[1] < n for idxs, pick in zip(self.index_sets, self.picks)]
        return AvoidanceInstance(window, self.r, tuple(compress(self.index_sets, keep)),
                                 tuple(compress(self.picks, keep)))


def _is_prefix(window: Window, of: Window) -> bool:
    """Whether window's elements are the first len(window) of of's: same
    ring, and each element at the same position in both."""
    return window.spec == of.spec and window.raw_index.items() <= of.raw_index.items()


def build_instance(window: Window, r: int, family: PolyFamily,
                   constraints: Optional[ScanConstraints] = None) -> AvoidanceInstance:
    """Enumerate candidates in scan order, deduplicated by element set.

    Candidates must lie fully inside the window regardless of the
    constraint flags: monochromaticity of a partially visible instance
    is not decidable from window data.  So for each admitted y, whose
    f(y) are evaluated once from its raw powers, only the admitted x of
    window.product_run(y) are visited.  Each pair places its elements
    as raw values, x*y first, then each distinct x + f(y) in family
    order, keeps each new position once, and is dropped at its first
    element outside the window; a degenerate pair is dropped unless
    allowed.  No RingElement is built.
    """
    if r < 1:
        raise ValueError(f"color count must be >= 1, got {r}")
    if window.spec != family.spec:
        raise ValueError("window and family from different rings")
    if constraints is None:
        constraints = ScanConstraints.defaults_for(window.spec)
    position = window.raw_index
    get, values = position.get, list(position)
    add, mul, f_values = window.spec.add, window.spec.mul, _raw_evaluator(family)
    skip = {position[x.val] for x in constraints.exclude_x if x in window}
    least = 2 if constraints.forbid_degenerate else 1
    seen = set()
    index_sets = []
    picks = []
    for y_pos, y in enumerate(window.elements):
        if not constraints.admits_y(y):
            continue
        yv = y.val
        fvs = dict.fromkeys(f_values(yv))  # the distinct f(y), in family order
        lo, hi = window.product_run(y)
        for pos, xv in enumerate(values[lo:hi], lo):
            if pos in skip:
                continue
            p = get(mul(xv, yv))
            if p is None:
                continue
            order = [p]
            for fv in fvs:
                p = get(add(xv, fv))
                if p is None:
                    break
                if p not in order:
                    order.append(p)
            else:
                key = frozenset(order)
                if len(order) >= least and key not in seen:
                    seen.add(key)
                    index_sets.append(tuple(sorted(key)))
                    picks.append((pos, y_pos, order))
    return AvoidanceInstance(window, r, tuple(index_sets), tuple(picks))


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


def _first_monochromatic(colors: Sequence[int], index_sets) -> Optional[int]:
    """The position of the first index set that colors gives one color, or None."""
    for k, idxs in enumerate(index_sets):
        if len(set(map(colors.__getitem__, idxs))) == 1:
            return k
    return None


def avoidance_backtrack(inst: AvoidanceInstance, budget: Optional[int] = None) -> AvoidanceResult:
    """Search for an avoidance coloring.

    The candidates' positions are decided in the static order (-weight,
    index), where weight counts the candidates a position lies in; the
    search itself is _avoid.  Each decision costs one node against the
    budget (None = unlimited, negative = ValueError); propagated
    assignments are free.
    """
    weight = Counter(chain.from_iterable(inst.index_sets))
    order = sorted(sorted(weight), key=weight.__getitem__, reverse=True)  # stable: (-weight, index)
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
    order; a decision gives the first uncolored position of order its
    least open color.  All state is kept by position: each position has
    a bitmask of open colors, and each index set an open count and
    per-color counts, so its shared color (none, c or mixed) reads off
    directly.  When a set is left with one open member and every other
    member colored c, c leaves that member's domain; an empty domain is a
    conflict, and a singleton domain is assigned at once (cascading).
    The pruning is sound and the decision order is fixed, so the result
    is the lexicographically first avoider in that order, as without
    propagation.  Each decision costs one node against the budget (None =
    unlimited); propagated assignments are free.  backtracks counts dead
    ends: conflicts and decisions whose colors ran out.  With one color
    and some index set, or with a one-element index set, every coloring
    fails: that is decided up front (FORCED, no node, one backtrack), so
    the search loop's exhaustion is the only other FORCED exit.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if r == 1 and index_sets or any(len(idxs) == 1 for idxs in index_sets):
        return AvoidanceStatus.FORCED, None, 0, 1
    # per position: (index set, its positions, the index of its color-0 counter)
    stride = r + 1
    member_cands = [[] for _ in range(size)]
    for ci, idxs in enumerate(index_sets):
        for i in idxs:
            member_cands[i].append((ci, idxs, ci * stride))

    colors = [0] * size
    domain = [(1 << stride) - 2] * size  # bit c set: color c still open
    open_count = [len(idxs) for idxs in index_sets]
    counts = [0] * (len(index_sets) * stride)  # counts[ci*stride + c]: members of ci colored c
    trail = []  # positions in assignment order
    removed = []  # (position, bit) domain removals in order

    def assign(i: int, color: int) -> bool:
        """Color position i and propagate; False on a conflict."""
        ok = True
        # a position is pushed once, uncolored, when its domain drops to
        # one color; a further removal there empties it and stops the loop
        pending = [(i, color)]
        while pending and ok:
            s, c = pending.pop()
            colors[s] = c
            trail.append(s)
            bit = 1 << c
            for ci, members, base in member_cands[s]:
                o = open_count[ci] - 1
                open_count[ci] = o
                m = counts[base + c] + 1
                counts[base + c] = m
                if o == 1 and m == len(members) - 1 and ok:
                    for t in members:
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
    frames = []  # (k, color, trail length, removed length) per decision
    total = len(order)
    k = 0  # the decision at order[k]
    tried = 0  # the color last decided at order[k]; 0 when k is fresh
    while True:
        if not tried:
            while k < total and colors[order[k]]:
                k += 1
            if k == total:
                break
        pos = order[k]
        d = domain[pos] >> (tried + 1) << (tried + 1)
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
        if assign(pos, tried):
            frames.append((k, tried, trail_len, removed_len))
            tried = 0
        else:
            backtracks += 1
            undo(trail_len, removed_len)

    full = [c or 1 for c in colors]
    if _first_monochromatic(full, index_sets) is not None:
        raise InternalError("backtracker guard tripped: completed coloring not avoiding")
    return AvoidanceStatus.FOUND, tuple(full), nodes, backtracks


@dataclass(frozen=True)
class MoreiraResult:
    status: str  # "found" | "not_found_within" | "inconclusive"
    n: int  # least forced N; max probed; or the N whose search timed out
    trace: tuple  # (N, AvoidanceStatus) pairs in evaluation order
    builds: int  # probes that ran build_instance rather than a prefix slice
    # n -> the instance the search probed at n: sliced from the largest
    # instance it built when that window is a prefix, else built afresh
    instance_at: Callable[[int], AvoidanceInstance] = field(repr=False, compare=False)


def moreira_number(r: int, family: PolyFamily, max_n: int,
                   budget: Optional[int] = None,
                   constraints: Optional[ScanConstraints] = None) -> MoreiraResult:
    """Least window size n <= max_n (N=n over Z, B=n over Zi, d=n over
    GF(q)[x]) at which no r-coloring avoids the family's instances.
    Exponential probe from n = 1, then binary search on the monotone
    Forced boundary (every ring's windows nest, so Forced only moves
    upward) down to the ring's least window: a Zi probe forced at B=1 is
    followed by a probe of B=0.

    The largest instance built so far is kept, and a probe whose window
    is a prefix of its window searches AvoidanceInstance.prefix of it
    instead of a fresh build_instance.  Over Z and GF(q)[x] every smaller
    window is a prefix of a larger one, so every binary-search probe is
    sliced; a Zi box is a prefix of a larger box only for B <= 2, so Zi
    probes build afresh.  builds counts the probes that built, and the
    result's instance_at makes the same choice for any later n."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    trace = []
    kept = None  # the largest instance built so far
    builds = 0

    def instance_at(n: int) -> AvoidanceInstance:
        nonlocal kept, builds
        window = enumerate_window(family.spec, WindowParams(n))
        if kept is not None and _is_prefix(window, kept.window):
            return kept.prefix(window)
        inst = build_instance(window, r, family, constraints)
        builds += 1
        if kept is None or len(window) > len(kept.window):
            kept = inst
        return inst

    def status_at(n: int) -> AvoidanceStatus:
        res = avoidance_backtrack(instance_at(n), budget)
        trace.append((n, res.status))
        return res.status

    lo = family.spec.least - 1  # largest N known avoidable (none yet: below the least window)
    hi = None  # smallest N known forced
    n = 1
    while True:
        st = status_at(n)
        if st is AvoidanceStatus.TIMEOUT:
            return MoreiraResult("inconclusive", n, tuple(trace), builds, instance_at)
        if st is AvoidanceStatus.FORCED:
            hi = n
        else:
            lo = n
        if hi is None and n == max_n:
            return MoreiraResult("not_found_within", max_n, tuple(trace), builds, instance_at)
        if lo + 1 == hi:
            return MoreiraResult("found", hi, tuple(trace), builds, instance_at)
        n = min(2 * n, max_n) if hi is None else (lo + hi) // 2  # doubling, then bisection


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
    firsts = range(1, n * r + 1, r)  # cnf_var(i, 0, r) for i in 0..n-1
    clauses = [tuple(range(v, v + r)) for v in firsts]
    pairs = [(c1, c2) for c1 in range(r) for c2 in range(c1 + 1, r)]
    clauses += [(-v - c1, -v - c2) for v in firsts for c1, c2 in pairs]
    # per color c, position i -> -cnf_var(i, c, r)
    negated = [[-v - c for v in firsts].__getitem__ for c in range(r)]
    clauses += [tuple(map(lit, idxs)) for idxs in inst.index_sets for lit in negated]
    mapping = tuple((format_element(e), i) for i, e in enumerate(inst.window.elements))
    return CnfDocument(n * r, tuple(clauses), mapping)


def to_dimacs(doc: CnfDocument) -> str:
    """Bit-exact serialization: `c map <element-literal> <index>` lines,
    the `p cnf` header, then one `lits 0` line per clause, LF newlines."""
    lines = [f"c map {lit} {idx}" for lit, idx in doc.mapping]
    lines.append(f"p cnf {doc.num_vars} {len(doc.clauses)}")
    lines += [" ".join(map(str, clause)) + " 0" for clause in doc.clauses]
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfDocument:
    """The document of DIMACS text; lines end at \n only (a \r before it is
    whitespace).  The clause lines are read as one run, split at its zeros;
    the first fault in text order is the error."""
    mapping = []
    num_vars = None
    expected = None
    body = []  # the clause lines
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip(WHITESPACE)
        if not line.startswith(("c", "p")):
            body.append(line)
            continue
        try:
            parts = tokens(line)
            if line[0] == "c":
                if len(parts) == 4 and parts[1] == "map":
                    mapping.append((parts[2], integer(parts[3])))
                continue
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: bad problem line {line!r}")
            num_vars, expected = integer(parts[2]), integer(parts[3])
        except ValueError:
            integers(" ".join(body))  # a bad literal above is the first error
            raise
    lits = integers(" ".join(body))
    clauses = []
    start = 0
    for _ in range(lits.count(0)):
        end = lits.index(0, start)
        clauses.append(tuple(lits[start:end]))
        start = end + 1
    if start < len(lits):
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


def dual_engine_check(inst: AvoidanceInstance) -> dict:
    """Run the backtracker, unbudgeted, and the reference DPLL (through
    the CNF encoding) on one instance; agree says whether the
    backtracker's FOUND or FORCED matches the CNF's satisfiability."""
    from .dpll import dpll_sat

    res = avoidance_backtrack(inst)
    doc = cnf_export(inst)
    model = dpll_sat(doc.num_vars, doc.clauses)
    sat = model is not None
    return {
        "backtrack": res.status.value,
        "cnf_sat": sat,
        "agree": (res.status is AvoidanceStatus.FOUND) == sat,
        "nodes": res.nodes,
        "vars": doc.num_vars,
        "clauses": len(doc.clauses),
    }


def cnf_model_decode(model: Sequence[int], inst: AvoidanceInstance) -> Coloring:
    """Rebuild the coloring from a satisfying assignment and validate it:
    a model that leaves a candidate monochromatic is a ValueError naming
    the candidate."""
    r = inst.r
    n = len(inst.window)
    for lit in model:
        if lit == 0 or abs(lit) > n * r:
            raise ValueError(f"literal {lit} out of range")
    true_vars = set(filter((0).__lt__, model))
    colors = []
    for i, v in enumerate(range(1, n * r + 1, r)):  # v = cnf_var(i, 0, r)
        chosen = [c for c in range(r) if v + c in true_vars]
        if len(chosen) != 1:
            raise ValueError(
                f"element #{i} carries {len(chosen)} colors; model violates the one-color clauses"
            )
        colors.append(chosen[0] + 1)
    k = _first_monochromatic(colors, inst.index_sets)
    if k is not None:
        elems = ", ".join(map(format_element, inst.candidate(k).elements))
        raise ValueError(f"model leaves the candidate {{{elems}}} monochromatic")
    return Coloring(inst.window, r, tuple(colors))
