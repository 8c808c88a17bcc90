"""The search engines as they were before propagation, kept verbatim as
differential oracles for the tests: the plain backtracker (most
constrained slot first, ascending colors, no propagation), the
rescanning DPLL (unit propagation by full-clause rescans) and the
Hales-Jewett cube search (a base-r counter over the cells).  Only tests
import this module; the package never does."""

from __future__ import annotations

from typing import Optional, Sequence

from monochrome.colorings import Coloring
from monochrome.halesjewett import DEFAULT_WORK_CAP, WorkCapExceeded, _line_cells
from monochrome.search import AvoidanceResult, AvoidanceStatus, _is_avoiding


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
            if not _is_avoiding(full, inst.index_sets):
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


def reference_find_avoiding_coloring(r: int, t: int, n: int, work_cap: Optional[int] = None) -> Optional[tuple]:
    """An r-coloring of [t]^n (flat tuple, colors 1..r) in which no line
    is monochromatic, or None when every coloring contains one.

    Walks the coloring space as a base-r counter over the t^n cells,
    pruning a prefix as soon as some fully-colored line goes
    monochromatic; exhaustion therefore covers all r^(t^n) colorings.
    Every color given to a cell counts one unit of work; passing
    work_cap (default DEFAULT_WORK_CAP) raises WorkCapExceeded.
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
                return None
            colors[k] += 1
            continue
        work += 1
        if work > cap:
            raise WorkCapExceeded(
                f"search for t^n={cells}, r={r} passed the work cap {cap} "
                f"after {work} cell assignments"
            )
        if ok(k):
            if k == cells - 1:
                return tuple(colors)
            k += 1
            colors[k] = 1
        else:
            colors[k] += 1
