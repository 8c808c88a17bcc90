"""The search engines as they were before propagation, kept verbatim as
differential oracles for the tests: the plain backtracker (most
constrained slot first, ascending colors, no propagation), the
rescanning DPLL (unit propagation by full-clause rescans) and the
Hales-Jewett cube search (a base-r counter over the cells).  Beside
them, plain readers and writers of the instance formats: an eager
candidate build over every (x, y) pair, the DIMACS encoder as cnf_var
loops and a DIMACS parser that reads one line and one token at a time.
Last, distinct-product extension and growth on RingElements: the
product set as elements, and every growth step scanning the whole
window from its first element.
Only tests import this module; the package never does."""

from __future__ import annotations

import re
from typing import Optional, Sequence

from monochrome.colorings import Coloring
from monochrome.halesjewett import DEFAULT_WORK_CAP, _line_cells
from monochrome.patterns import pattern_elements
from monochrome.rings import format_element
from monochrome.search import AvoidanceResult, AvoidanceStatus, CnfDocument, _first_monochromatic, cnf_var
from monochrome.ufp import GROW_CAP, UfpSequence, has_ufp


def reference_backtrack(inst, budget: Optional[int] = None) -> AvoidanceResult:
    """Search for an avoidance coloring; each color assignment costs one
    node against the budget (None = unlimited)."""
    window, r = inst.window, inst.r
    members = sorted({i for idxs in inst.index_sets for i in idxs})
    weight = dict.fromkeys(members, 0)
    for idxs in inst.index_sets:
        for i in idxs:
            weight[i] += 1
    order = sorted(members, key=lambda i: (-weight[i], i))
    slot_of = {i: k for k, i in enumerate(order)}
    cands = [tuple(slot_of[i] for i in idxs) for idxs in inst.index_sets]
    member_cands = [[] for _ in order]
    for ci, c in enumerate(cands):
        for s in c:
            member_cands[s].append(ci)

    total = len(order)
    if total == 0:
        coloring = Coloring(window, r, (1,) * len(window))
        return AvoidanceResult(AvoidanceStatus.FOUND, coloring)

    colors = [0] * total
    nodes = 0
    backtracks = 0

    def blocked(slot: int, c: int) -> bool:
        # would assigning c complete a monochromatic candidate?
        for ci in member_cands[slot]:
            if all(colors[s] == c for s in cands[ci] if s != slot):
                return True
        return False

    k = 0
    trial = [0] * total
    while True:
        c = trial[k] + 1
        while c <= r and blocked(k, c):
            c += 1
        if c > r:
            trial[k] = 0
            colors[k] = 0
            k -= 1
            backtracks += 1
            if k < 0:
                return AvoidanceResult(AvoidanceStatus.FORCED, None, nodes, backtracks)
            continue
        if budget is not None and nodes >= budget:
            return AvoidanceResult(AvoidanceStatus.TIMEOUT, None, nodes, backtracks)
        nodes += 1
        trial[k] = c
        colors[k] = c
        if k == total - 1:
            full = [1] * len(window)
            for i, slot in slot_of.items():
                full[i] = colors[slot]
            if _first_monochromatic(full, inst.index_sets) is not None:
                raise RuntimeError("backtracker guard tripped: completed coloring not avoiding")
            coloring = Coloring(window, r, tuple(full))
            return AvoidanceResult(AvoidanceStatus.FOUND, coloring, nodes, backtracks)
        k += 1


def reference_dpll(num_vars: int, clauses: Sequence[tuple]) -> Optional[list]:
    """A satisfying total assignment as a sorted signed-literal list, or
    None when unsatisfiable."""
    if num_vars < 0:
        raise ValueError("variable count must be >= 0")
    for clause in clauses:
        for lit in clause:
            if lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"literal {lit} out of range for {num_vars} variables")

    assign: dict = {}

    def value(lit: int):
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def propagate() -> Optional[list]:
        """Assign all unit literals to fixpoint; None on conflict, else
        the trail of variables assigned here (for undo)."""
        trail = []
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unit = None
                open_count = 0
                satisfied = False
                for lit in clause:
                    v = value(lit)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        open_count += 1
                        unit = lit
                        if open_count > 1:
                            break
                if satisfied:
                    continue
                if open_count == 0:
                    for var in trail:
                        del assign[var]
                    return None
                if open_count == 1:
                    assign[abs(unit)] = unit > 0
                    trail.append(abs(unit))
                    changed = True
        return trail

    # one frame [trail of the propagation before it, variable, value] per
    # decision, True before False; a stack, so no recursion-depth limit
    frames = []
    trail = propagate()
    while True:
        if trail is None:
            # flip the deepest decision still True, undoing exhausted levels
            while frames and frames[-1][2] is False:
                level_trail, var, _ = frames.pop()
                del assign[var]
                for v in level_trail:
                    del assign[v]
            if not frames:
                return None
            frame = frames[-1]
            frame[2] = assign[frame[1]] = False
        else:
            var = next((v for v in range(1, num_vars + 1) if v not in assign), None)
            if var is None:
                break
            assign[var] = True
            frames.append([trail, var, True])
        trail = propagate()
    return [v if assign.get(v, True) else -v for v in range(1, num_vars + 1)]


def reference_find_avoiding_coloring(r: int, t: int, n: int, work_cap: Optional[int] = None) -> tuple:
    """(status, colors): FOUND with an r-coloring of [t]^n (flat tuple,
    colors 1..r) in which no line is monochromatic, FORCED with None when
    every coloring contains one, TIMEOUT with None past the work cap.

    Walks the coloring space as a base-r counter over the t^n cells,
    pruning a prefix as soon as some fully-colored line goes
    monochromatic; exhaustion therefore covers all r^(t^n) colorings.
    Every color given to a cell counts one unit of work against work_cap
    (default DEFAULT_WORK_CAP).
    """
    if r < 1 or t < 1 or n < 1:
        raise ValueError("colors, alphabet size and length must be >= 1")
    cap = DEFAULT_WORK_CAP if work_cap is None else work_cap
    cells = t**n
    # lines_at[k]: lines whose largest cell index is k — exactly the ones
    # that become fully colored when cell k is assigned.
    lines_at = [[] for _ in range(cells)]
    for line in _line_cells(t, n):
        lines_at[max(line)].append(line)

    colors = [0] * cells

    def ok(k: int) -> bool:
        c = colors[k]
        for line in lines_at[k]:
            if all(colors[p] == c for p in line):
                return False
        return True

    k = 0
    colors[0] = 1
    work = 0
    while True:
        if colors[k] > r:
            colors[k] = 0
            k -= 1
            if k < 0:
                return AvoidanceStatus.FORCED, None
            colors[k] += 1
            continue
        work += 1
        if work > cap:
            return AvoidanceStatus.TIMEOUT, None
        if ok(k):
            if k == cells - 1:
                return AvoidanceStatus.FOUND, tuple(colors)
            k += 1
            colors[k] = 1
        else:
            colors[k] += 1


def reference_candidates(window, family, constraints) -> list:
    """(x, y, elements) of build_instance's candidates, from every (x, y)
    pair of the window in canonical order (y outer, x inner): the
    instances wholly inside the window that pass the constraints, the
    first of each element set."""
    seen, out = set(), []
    for y in window.elements:
        if not constraints.admits_y(y):
            continue
        for x in window.elements:
            if not constraints.admits_x(x):
                continue
            elems = pattern_elements(x, y, family).elements
            if any(e not in window for e in elems):
                continue
            if constraints.forbid_degenerate and len(elems) == 1:
                continue
            if frozenset(elems) not in seen:
                seen.add(frozenset(elems))
                out.append((x, y, elems))
    return out


def reference_dimacs(inst) -> str:
    """DIMACS text of the instance's CNF, one cnf_var call per literal:
    the map lines, the header, the at-least-one clause of each element,
    its pairwise at-most-one clauses, then per candidate and color the
    clause "not all of these that color"."""
    r, n = inst.r, len(inst.window)
    clauses = [[cnf_var(i, c, r) for c in range(r)] for i in range(n)]
    for i in range(n):
        for c1 in range(r):
            for c2 in range(c1 + 1, r):
                clauses.append([-cnf_var(i, c1, r), -cnf_var(i, c2, r)])
    for idxs in inst.index_sets:
        for c in range(r):
            clauses.append([-cnf_var(i, c, r) for i in idxs])
    text = "".join(f"c map {format_element(e)} {i}\n" for i, e in enumerate(inst.window.elements))
    text += f"p cnf {n * r} {len(clauses)}\n"
    for clause in clauses:
        for lit in clause:
            text += f"{lit} "
        text += "0\n"
    return text


_BLANKS = "[ \t\n\r\f\v]+"


def _reference_decimal(word: str) -> int:
    if not re.fullmatch("[+-]?[0-9]+", word):
        raise ValueError(f"bad decimal {word!r}")
    return int(word)


def reference_parse_dimacs(text: str) -> CnfDocument:
    """The document of DIMACS text, read one line and one token at a
    time: lines end at \\n, tokens are separated by ASCII whitespace, a
    number is an optionally signed run of ASCII digits, and the first
    fault in text order is the error."""
    mapping, clauses, lits = [], [], []
    num_vars = expected = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = re.sub(f"^{_BLANKS}|{_BLANKS}$", "", line)
        if not line:
            continue
        words = re.split(_BLANKS, line)
        if line[0] == "c":
            if len(words) == 4 and words[1] == "map":
                mapping.append((words[2], _reference_decimal(words[3])))
        elif line[0] == "p":
            if len(words) != 4 or words[1] != "cnf":
                raise ValueError(f"line {lineno}: bad problem line {line!r}")
            num_vars, expected = _reference_decimal(words[2]), _reference_decimal(words[3])
        else:
            for word in words:
                lit = _reference_decimal(word)
                if lit:
                    lits.append(lit)
                else:
                    clauses.append(tuple(lits))
                    lits = []
    if lits:
        raise ValueError("unterminated clause at end of input")
    if num_vars is None:
        raise ValueError("missing problem line")
    if expected != len(clauses):
        raise ValueError(f"problem line promises {expected} clauses, found {len(clauses)}")
    return CnfDocument(num_vars, tuple(clauses), tuple(mapping))


def reference_extend(seq: UfpSequence, pool) -> Optional[UfpSequence]:
    """The first pool element that is neither 0, 1 nor excluded by the
    product set B, appended, or None when there is none: x is excluded
    when x*alpha lies in B u {1} for some alpha there, all in RingElement
    arithmetic (a pool element of another ring raises its ring-mismatch
    ValueError there)."""
    violation = has_ufp(seq)
    if violation is not None:
        raise ValueError(f"sequence lacks UFP: {violation!r}")
    spec = seq.spec
    zero, one = spec.zero, spec.one
    fp = seq.fp_set()
    if zero in fp or one in fp:
        raise ValueError("product set touches {0, 1}")
    base = set(fp) | {one}
    for x in pool:
        if x == zero or x == one:
            continue
        if any(x * alpha in base for alpha in base):
            continue
        return UfpSequence(seq.elements + (x,))
    return None


def reference_grow(start, pool_window, m: int) -> UfpSequence:
    """m-1 reference_extend steps, each over the whole window in order;
    the sequence stops short at the first step that extends nothing."""
    if not 1 <= m <= GROW_CAP:
        raise ValueError(f"target length must lie in 1..{GROW_CAP}")
    spec = start.spec
    if start == spec.zero or start == spec.one:
        raise ValueError("start element must avoid {0, 1}")
    if pool_window.spec != spec:
        raise ValueError("window and start element from different rings")
    seq = UfpSequence((start,))
    while len(seq) < m:
        child = reference_extend(seq, pool_window.elements)
        if child is None:
            return seq
        seq = child
    return seq
