"""Reference DPLL satisfiability check — the independent engine used to
cross-check the avoidance backtracker through the CNF route.

Unit propagation plus two-way branching on the first unassigned
variable, nothing cleverer.  Correctness and determinism over speed; the
instances it sees in this package are tiny.
"""

from __future__ import annotations

from typing import Optional, Sequence


def dpll_sat(num_vars: int, clauses: Sequence[tuple]) -> Optional[list]:
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


def model_satisfies(model: Sequence[int], clauses: Sequence[tuple]) -> bool:
    """Every clause has a literal set true by the model."""
    true_lits = set(model)
    return all(any(lit in true_lits for lit in clause) for clause in clauses)
