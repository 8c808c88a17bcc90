"""Reference DPLL satisfiability check — the independent engine used to
cross-check the avoidance backtracker through the CNF route.

Unit propagation by two watched literals per clause, a trail of assigned
literals, and an explicit stack of decisions: the lowest unassigned
variable, True before False, chronological backtracking, no learning.
With a fixed decision order and sound propagation the model returned is
the first in that order (variable 1 first, True before False), whatever
the propagation finds on the way.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InternalError


def dpll_sat(num_vars: int, clauses: Sequence[tuple]) -> Optional[list]:
    """A satisfying total assignment as a sorted signed-literal list, or
    None when unsatisfiable."""
    if num_vars < 0:
        raise ValueError("variable count must be >= 0")
    n = num_vars
    value = [0] * (2 * n + 1)  # value[n + lit]: 1 true, -1 false, 0 open
    watches = [[] for _ in range(2 * n + 1)]  # watches[n + lit]: clauses watching lit
    trail = []  # literals made true, in order
    units = []
    empty = False
    for clause in clauses:
        if not clause:
            empty = True
            continue
        if min(clause) < -n or max(clause) > n or 0 in clause:
            lit = next(lit for lit in clause if lit == 0 or abs(lit) > n)
            raise ValueError(f"literal {lit} out of range for {num_vars} variables")
        lits = list(clause)
        if len(set(lits)) < len(lits):
            lits = list(dict.fromkeys(lits))
        if len(lits) == 1:
            units.append(lits[0])
        else:
            # the first two positions of a clause are its watched literals
            watches[n + lits[0]].append(lits)
            watches[n + lits[1]].append(lits)
    if empty:
        return None

    def make_true(lit: int) -> None:
        value[n + lit] = 1
        value[n - lit] = -1
        trail.append(lit)

    def propagate(head: int) -> bool:
        """Visit the clauses watching each literal made false from trail
        position head on; False on a conflict."""
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching = watches[n + false_lit]
            watches[n + false_lit] = kept = []
            for k, cl in enumerate(watching):
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], false_lit
                other = value[n + cl[0]]
                if other == 1:
                    kept.append(cl)
                    continue
                for j in range(2, len(cl)):
                    lit = cl[j]
                    if value[n + lit] != -1:
                        cl[1], cl[j] = lit, false_lit
                        watches[n + lit].append(cl)
                        break
                else:
                    kept.append(cl)
                    if other == -1:
                        kept.extend(watching[k + 1:])
                        return False
                    make_true(cl[0])
        return True

    def undo(length: int) -> None:
        for lit in trail[length:]:
            value[n + lit] = value[n - lit] = 0
        del trail[length:]

    for lit in units:
        if value[n + lit] == -1:
            return None
        if not value[n + lit]:
            make_true(lit)
    if not propagate(0):
        return None

    # one frame [variable, trail length before it, flipped to False?] per
    # decision; a stack, so no recursion-depth limit
    frames = []
    var = 1
    while True:
        while var <= n and value[n + var]:
            var += 1
        if var > n:
            break
        frames.append([var, len(trail), False])
        make_true(var)
        while not propagate(len(trail) - 1):
            # flip the deepest decision still True, dropping exhausted levels
            while frames and frames[-1][2]:
                frames.pop()
            if not frames:
                return None
            frame = frames[-1]
            var = frame[0]
            undo(frame[1])
            frame[2] = True
            make_true(-var)
    model = [v if value[n + v] == 1 else -v for v in range(1, n + 1)]
    if not model_satisfies(model, clauses):
        raise InternalError("dpll guard tripped: the model leaves a clause false")
    return model


def model_satisfies(model: Sequence[int], clauses: Sequence[tuple]) -> bool:
    """Every clause has a literal set true by the model."""
    true_lits = set(model)
    return not any(true_lits.isdisjoint(clause) for clause in clauses)
