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
exclusion_set materializes C for callers that want the set itself, such
as the largeness demo.

The extension and growth loops run on raw values: B is the raw product
list of UfpSequence, and grow_ufp makes a RingElement only of the window
values it reaches, each once, since every step resumes after the last
pick.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InternalError
from .largeness import FS_LENGTH_CAP
from .rings import RingElement, Window, exact_divide

GROW_CAP = 20


class UfpSequence:
    """Ordered finite sequence with its subset products, built lazily as
    raw values in bitmask order: entry m-1 is the product over the
    positions of the set bits of m (bit i for position i+1)."""

    __slots__ = ("elements", "_products", "_base")

    def __init__(self, elements: Sequence[RingElement]):
        elements = tuple(elements)
        if not elements:
            raise ValueError("sequence must be nonempty")
        spec = elements[0].spec
        for e in elements:
            if not isinstance(e, RingElement) or e.spec != spec:
                raise ValueError("mixed rings in sequence")
        self.elements = elements
        self._products = None
        self._base = None  # the raw product set, once has_ufp found it collision-free

    @property
    def spec(self):
        return self.elements[0].spec

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"<ufp sequence {list(self.elements)!r}>"

    def _raw_products(self) -> list:
        """The raw products of all 2^len - 1 nonempty subsets, in bitmask order."""
        if self._products is None:
            if len(self.elements) > FS_LENGTH_CAP:
                raise ValueError(
                    f"sequence length {len(self.elements)} exceeds the enumeration cap {FS_LENGTH_CAP}"
                )
            products: list = []
            for e in self.elements:
                products = _doubled(products, e)
            self._products = products
        return self._products

    def fp_set(self) -> frozenset:
        return frozenset(RingElement(self.spec, v) for v in self._raw_products())

    def extended(self, y: RingElement) -> "UfpSequence":
        """The sequence with y appended; continues this cache when built."""
        child = UfpSequence(self.elements + (y,))
        if self._products is not None and len(child.elements) <= FS_LENGTH_CAP:
            child._products = _doubled(self._products, y)
        return child


def _doubled(products: list, e: RingElement) -> list:
    """The products with e appended: the old list, e, each old product times e."""
    v, mul = e.val, e.spec.mul
    return products + [v] + [mul(p, v) for p in products]


def _index_set(mask: int) -> frozenset:
    """The 1-based positions of the set bits of mask."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class UfpViolation(NamedTuple):
    h: frozenset
    k: frozenset
    product: RingElement


def has_ufp(seq: Union[UfpSequence, Sequence[RingElement]]) -> Optional[UfpViolation]:
    """None when all subset products are pairwise distinct; otherwise the
    first colliding pair (h earlier than k in bitmask subset order)."""
    if not isinstance(seq, UfpSequence):
        seq = UfpSequence(seq)
    products = seq._raw_products()
    fp = set(products)
    if len(fp) == len(products):  # no collision to locate
        seq._base = fp  # kept for _fp_precondition and extend_ufp's guard
        return None
    first: dict = {}
    for mask, prod in enumerate(products, start=1):
        prev = first.setdefault(prod, mask)
        if prev != mask:
            return UfpViolation(_index_set(prev), _index_set(mask), RingElement(seq.spec, prod))
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


def _fp_precondition(seq: UfpSequence) -> set:
    """has_ufp holds and no product is 0 or 1; returns the raw product set.
    has_ufp runs once per sequence (extend_ufp's guard runs it on a child),
    leaving the set it verified in seq._base."""
    if seq._base is None:
        violation = has_ufp(seq)
        if violation is not None:
            raise ValueError(f"sequence lacks UFP: {violation!r}")
    fp = seq._base
    if seq.spec.zero.val in fp or seq.spec.one.val in fp:
        raise ValueError("product set touches {0, 1}")
    return fp


def extend_ufp(seq: UfpSequence, pool: Iterable[RingElement]) -> Optional[UfpSequence]:
    """Append the first pool element that is neither 0, 1, nor excluded
    by the current product set; the result provably keeps UFP and a
    {0,1}-free product set, and is re-verified as a guard.  None when
    no pool element is admissible.  The pool is read up to the pick, and
    each candidate is tested on raw values."""
    spec = seq.spec
    one, trivial, mul = spec.one, {spec.zero.val, spec.one.val}, spec.mul
    base = _fp_precondition(seq) | {one.val}
    for x in pool:
        if not (isinstance(x, RingElement) and (x.spec is spec or x.spec == spec)):
            x * one  # the TypeError or ring-mismatch ValueError of any x * alpha
        v = x.val
        if v in trivial:
            continue
        # x excluded  <=>  x*alpha in B u {1} for some alpha in B u {1}
        if any(mul(v, alpha) in base for alpha in base):
            continue
        child = seq.extended(x)
        if has_ufp(child) is not None:
            raise InternalError("extension guard tripped: UFP lost after an admissible pick")
        if not trivial.isdisjoint(child._base):
            raise InternalError("extension guard tripped: product set touches {0, 1}")
        return child
    return None


def grow_ufp(start: RingElement, pool_window: Window, m: int) -> UfpSequence:
    """The sequence of m-1 extension steps over the window's canonical
    order: length m, or shorter when the pool runs out, the first step
    that found no admissible element being its length + 1."""
    if not 1 <= m <= GROW_CAP:
        raise ValueError(f"target length must lie in 1..{GROW_CAP}")
    spec = start.spec
    if start == spec.zero or start == spec.one:
        raise ValueError("start element must avoid {0, 1}")
    if pool_window.spec != spec:
        raise ValueError("window and start element from different rings")
    seq = UfpSequence((start,))
    # One pass over the window for every step: a candidate trivial or
    # excluded at one step stays so (the product set only grows and takes
    # in each pick), so each step resumes after the last pick.
    pool = map(partial(RingElement, pool_window.spec), pool_window.raw_index)
    for _ in range(m - 1):
        child = extend_ufp(seq, pool)
        if child is None:
            break
        seq = child
    return seq
