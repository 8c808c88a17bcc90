"""Uniqueness of finite products: verification over all nonempty index
subsets, the exclusion set of elements whose adjunction would break it,
and the deterministic extension/growth algorithm built on exact division.

A sequence has UFP when the products over distinct nonempty index sets
are pairwise distinct.  In an integral domain the elements x that would
collide with an existing product set B satisfy x*alpha = beta for some
alpha, beta in B u {1}; cancellation makes x unique per (alpha, beta),
so the exclusion set is finite with at most (|B|+1)^2 members and is
computable by exact division alone — no window scan.

extend_ufp never materializes the exclusion set: it tests candidates
with the equivalent membership predicate "some x*alpha lands in B u {1}"
(O(|B|) multiplications each), which is the same condition read forward.
The exclusion_set op stays available for its own sake and for tests.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

from .errors import InternalError
from .largeness import FS_LENGTH_CAP
from .rings import RingElement, Window, exact_divide

GROW_CAP = 20


class PoolExhaustedError(RuntimeError):
    """Every pool candidate is excluded (or trivial)."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


class UfpSequence:
    """Ordered finite sequence with a lazily built map from index sets
    (frozensets of 1-based positions) to their products."""

    __slots__ = ("elements", "_fp")

    def __init__(self, elements: Sequence[RingElement]):
        elements = tuple(elements)
        if not elements:
            raise ValueError("sequence must be nonempty")
        spec = elements[0].spec
        for e in elements:
            if not isinstance(e, RingElement) or e.spec != spec:
                raise ValueError("mixed rings in sequence")
        self.elements = elements
        self._fp = None

    @property
    def spec(self):
        return self.elements[0].spec

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"<ufp sequence {list(self.elements)!r}>"

    def fp_map(self) -> dict:
        """index set -> product, over all 2^len - 1 nonempty subsets."""
        if self._fp is None:
            if len(self.elements) > FS_LENGTH_CAP:
                raise ValueError(
                    f"sequence length {len(self.elements)} exceeds the enumeration cap {FS_LENGTH_CAP}"
                )
            fp = {}
            for pos, e in enumerate(self.elements, start=1):
                for idx, prod in list(fp.items()):
                    fp[idx | {pos}] = prod * e
                fp[frozenset({pos})] = e
            self._fp = fp
        return self._fp

    def fp_set(self) -> frozenset:
        return frozenset(self.fp_map().values())

    def extended(self, y: RingElement) -> "UfpSequence":
        """The sequence with y appended; reuses this cache when built."""
        child = UfpSequence(self.elements + (y,))
        if self._fp is not None and len(child.elements) <= FS_LENGTH_CAP:
            pos = len(child.elements)
            fp = dict(self._fp)
            for idx, prod in self._fp.items():
                fp[idx | {pos}] = prod * y
            fp[frozenset({pos})] = y
            child._fp = fp
        return child


class UfpViolation(NamedTuple):
    h: frozenset
    k: frozenset
    product: RingElement


def _subset_counter_order(n: int):
    """Nonempty subsets of {1..n} by increasing bitmask — the canonical
    enumeration behind "first violating pair"."""
    for mask in range(1, 1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def has_ufp(seq: Union[UfpSequence, Sequence[RingElement]]) -> Optional[UfpViolation]:
    """None when all subset products are pairwise distinct; otherwise the
    first colliding pair (h earlier than k in bitmask subset order)."""
    if not isinstance(seq, UfpSequence):
        seq = UfpSequence(seq)
    fp = seq.fp_map()
    first = {}
    for idx in _subset_counter_order(len(seq)):
        prod = fp[idx]
        prev = first.get(prod)
        if prev is not None:
            return UfpViolation(prev, idx, prod)
        first[prod] = idx
    return None


def exclusion_set(b) -> frozenset:
    """C = {beta/alpha : alpha, beta in B u {1}, exact division} minus
    {0, 1}: exactly the elements whose adjunction collides with B.
    |C| <= (|B|+1)^2."""
    elems = tuple(b)
    if not elems:
        return frozenset()
    spec = elems[0].spec
    one = spec.one
    zero = spec.zero
    if any(e == zero for e in elems):
        raise ValueError("exclusion set undefined when 0 is a product (x*0 = 0 admits every x)")
    base = set(elems)
    base.add(one)
    out = set()
    for alpha in base:
        for beta in base:
            x = exact_divide(beta, alpha)
            if x is not None and x != zero and x != one:
                out.add(x)
    return frozenset(out)


def _fp_precondition(seq: UfpSequence) -> frozenset:
    """has_ufp holds and no product is 0 or 1; returns the product set."""
    violation = has_ufp(seq)
    if violation is not None:
        raise ValueError(f"sequence lacks UFP: {violation!r}")
    fp = seq.fp_set()
    spec = seq.spec
    if spec.zero in fp or spec.one in fp:
        raise ValueError("product set touches {0, 1}")
    return fp


def extend_ufp(seq: UfpSequence, pool: Sequence[RingElement]) -> UfpSequence:
    """Append the first pool element that is neither 0, 1, nor excluded
    by the current product set; the result provably keeps UFP and a
    {0,1}-free product set, and is re-verified as a guard."""
    fp = _fp_precondition(seq)
    spec = seq.spec
    zero, one = spec.zero, spec.one
    base = set(fp)
    base.add(one)
    for x in pool:
        if x == zero or x == one:
            continue
        # x excluded  <=>  x*alpha in B u {1} for some alpha in B u {1}
        if any(x * alpha in base for alpha in base):
            continue
        child = seq.extended(x)
        if has_ufp(child) is not None:
            raise InternalError("extension guard tripped: UFP lost after an admissible pick")
        child_fp = child.fp_set()
        if zero in child_fp or one in child_fp:
            raise InternalError("extension guard tripped: product set touches {0, 1}")
        return child
    raise PoolExhaustedError("every pool element is excluded or trivial")


def grow_ufp(start: RingElement, pool_window: Window, m: int) -> UfpSequence:
    """Length-m sequence from m-1 extension steps over the window's
    canonical order."""
    if not 1 <= m <= GROW_CAP:
        raise ValueError(f"target length must lie in 1..{GROW_CAP}")
    spec = start.spec
    if start == spec.zero or start == spec.one:
        raise ValueError("start element must avoid {0, 1}")
    if pool_window.spec != spec:
        raise ValueError("window and start element from different rings")
    seq = UfpSequence((start,))
    for step in range(2, m + 1):
        try:
            seq = extend_ufp(seq, pool_window.elements)
        except PoolExhaustedError:
            raise PoolExhaustedError(f"pool exhausted at step {step}", step=step) from None
    return seq
