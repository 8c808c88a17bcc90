"""Witness-based finite checks of syndeticity, piecewise syndeticity and
IP structure, plus exact transport of witnesses under dilation and
division.

Piecewise syndeticity on a finite window is treated witness-relatively:
the package never claims "A is piecewise syndetic", only that A admits a
(gaps G, block B, anchor x) witness, meaning every b in B has some t in G
with t + b + x landing in A.  The witness inclusion is the executable
content; quantifying over all finite blocks is out of reach on finite
data.

Finite-sums and finite-products sets are enumerated exactly over all
nonempty index subsets (capped at length 24).  The IP*-refutation search
is evidence-only: failing to find a finite-sums set disjoint from A
proves nothing, finding one refutes "A meets every IP set" at this scale.
Sums are formed in the ambient ring, never clipped: a sum that escapes A
simply counts as "not in A".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .prng import stream_below
from .rings import RingElement, Window, exact_divide

FS_LENGTH_CAP = 24


@dataclass(frozen=True)
class PSWitness:
    """Certifies B + x is covered by the G-translates of a stated target
    set: for every b in B some t in G has t + b + x in the target."""

    gaps: frozenset
    block: frozenset
    anchor: RingElement


def validate_ps_witness(witness: PSWitness, target: frozenset) -> bool:
    """Independent membership check of the witness inclusion."""
    x = witness.anchor
    gaps = tuple(witness.gaps)
    return all(any(t + b + x in target for t in gaps) for b in witness.block)


def syndetic_check(target, gaps, window: Window) -> Optional[RingElement]:
    """None if the G-translates of the target cover the whole window,
    otherwise the first uncovered window element (a counterexample)."""
    target = frozenset(target)
    gaps = tuple(gaps)
    for w in window.elements:
        if not any(t + w in target for t in gaps):
            return w
    return None


def ps_witness_search(target, gaps, block, window: Window) -> Optional[PSWitness]:
    """The least anchor (in canonical window order) making (gaps, block)
    a valid witness for the target, or None."""
    target = frozenset(target)
    gaps_t = tuple(gaps)
    block_t = tuple(block)
    for x in window.elements:
        if all(any(t + b + x in target for t in gaps_t) for b in block_t):
            return PSWitness(frozenset(gaps), frozenset(block), x)
    return None


@dataclass(frozen=True)
class FSSet:
    """All finite sums of a sequence over nonempty index subsets."""

    generators: tuple
    sums: frozenset


def _ring_of(seq: tuple):
    """The common ring of a nonempty sequence within the length cap."""
    if not seq:
        raise ValueError("sequence must be nonempty")
    if len(seq) > FS_LENGTH_CAP:
        raise ValueError(f"sequence length {len(seq)} exceeds the enumeration cap {FS_LENGTH_CAP}")
    spec = seq[0].spec
    for e in seq:
        if e.spec != spec:
            raise ValueError("mixed rings in sequence")
    return spec


def _subset_folds(seq, op) -> set:
    """Raw values of all nonempty-subset folds of seq under the raw op."""
    acc = set()
    for e in seq:
        v = e.val
        acc |= {op(prev, v) for prev in acc}
        acc.add(v)
    return acc


def finite_sums(seq: Sequence[RingElement]) -> FSSet:
    seq = tuple(seq)
    spec = _ring_of(seq)
    return FSSet(seq, frozenset(RingElement(spec, v) for v in _subset_folds(seq, spec.add)))


def finite_products(seq: Sequence[RingElement]) -> frozenset:
    seq = tuple(seq)
    spec = _ring_of(seq)
    return frozenset(RingElement(spec, v) for v in _subset_folds(seq, spec.mul))


def ipstar_refute(
    target,
    window: Window,
    seq_len: int,
    samples: int,
    seed: int,
) -> Optional[tuple]:
    """Search seeded random window sequences for one whose finite-sums set
    misses the target entirely.

    Entry p of sample s is window element number
    ``stream_below(seed, s*seq_len + p, |window|)``.  Returns the first
    counterexample sequence found, or None (evidence, not proof); a
    negative sample count is a ValueError.
    """
    if seq_len < 1:
        raise ValueError("sequence length must be >= 1")
    if seq_len > FS_LENGTH_CAP:
        raise ValueError(f"sequence length {seq_len} exceeds the enumeration cap {FS_LENGTH_CAP}")
    if samples < 0:
        raise ValueError(f"sample count must be >= 0, got {samples}")
    raw_target = {e.val for e in target}
    size = len(window)
    for s in range(samples):
        seq = tuple(
            window.elements[stream_below(seed, s * seq_len + p, size)]
            for p in range(seq_len)
        )
        if raw_target.isdisjoint(_subset_folds(seq, window.spec.add)):
            return seq
    return None


def dilation_transport(witness: PSWitness, r: RingElement) -> PSWitness:
    """Witness for the dilated target r*A from a witness for A: multiply
    gaps, block and anchor by r.  Exact because r(t+b+x) = rt+rb+rx."""
    if r.is_zero():
        raise ValueError("dilation by zero destroys the witness")
    return PSWitness(
        frozenset(r * t for t in witness.gaps),
        frozenset(r * b for b in witness.block),
        r * witness.anchor,
    )


def division_transport(witness: PSWitness, y: RingElement) -> Optional[PSWitness]:
    """Witness for A/y from a witness for A, by exact division of gaps,
    block and anchor; None when any division fails (the A-in-y*R style
    compatibility hypothesis is violated).  Inverse of dilation by y."""
    if y.is_zero():
        raise ZeroDivisionError("division transport by ring zero")
    gaps = [exact_divide(t, y) for t in witness.gaps]
    block = [exact_divide(b, y) for b in witness.block]
    anchor = exact_divide(witness.anchor, y)
    if anchor is None or any(v is None for v in gaps) or any(v is None for v in block):
        return None
    return PSWitness(frozenset(gaps), frozenset(block), anchor)


def dilate_set(target, r: RingElement) -> frozenset:
    """{r*a : a in target}."""
    if r.is_zero():
        raise ValueError("dilating a set by zero collapses it")
    return frozenset(r * a for a in target)


def divide_set(target, y: RingElement) -> Optional[frozenset]:
    """{a/y : a in target}, or None if some element is not divisible."""
    if y.is_zero():
        raise ZeroDivisionError("dividing a set by ring zero")
    out = []
    for a in target:
        v = exact_divide(a, y)
        if v is None:
            return None
        out.append(v)
    return frozenset(out)
