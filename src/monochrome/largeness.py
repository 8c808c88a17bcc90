"""Witness-based finite checks of syndeticity, piecewise syndeticity and
IP structure, plus exact transport of witnesses under dilation and
division.

Piecewise syndeticity on a finite window is treated witness-relatively:
the package never claims "A is piecewise syndetic", only that A admits a
(gaps G, block B, anchor x) witness, meaning every b in B has some t in G
with t + b + x landing in A.  The witness inclusion is the executable
content; quantifying over all finite blocks is out of reach on finite
data.

Finite-sums sets are enumerated exactly over all nonempty index subsets
(capped at length 24); finite products are ufp.UfpSequence's job.  The
IP*-refutation search is evidence-only: failing to find a finite-sums
set disjoint from A proves nothing, finding one refutes "A meets every
IP set" at this scale.
Sums are formed in the ambient ring, never clipped: a sum that escapes A
simply counts as "not in A".  The walks run on raw values, and an
element of another ring is never a member of A (a gap or block element
of another ring is a ValueError at the call).
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


def _raw_target(target, window: Window) -> frozenset:
    """The raw values of the target's elements of the window's ring: raw
    values collide across rings (Zi i and GF(3)[x] x are both (0, 1))."""
    spec = window.spec
    return frozenset(e.val for e in target
                     if isinstance(e, RingElement) and (e.spec is spec or e.spec == spec))


def _raw_operands(elements, window: Window) -> list:
    """The raw values of gap or block elements, which must all be of the
    window's ring: RingElement's ring-mismatch ValueError otherwise."""
    zero, raw = window.spec.zero, []
    for e in elements:
        e._check(zero)
        raw.append(e.val)
    return raw


def syndetic_check(target, gaps, window: Window) -> Optional[RingElement]:
    """None if the G-translates of the target cover the whole window,
    otherwise the first uncovered window element (a counterexample)."""
    raw_target = _raw_target(target, window)
    gaps_v = _raw_operands(gaps, window)
    add = window.spec.add
    for wv in window.raw_index:
        if not any(add(t, wv) in raw_target for t in gaps_v):
            return RingElement(window.spec, wv)
    return None


def ps_witness_search(target, gaps, block, window: Window) -> Optional[PSWitness]:
    """The least anchor (in canonical window order) making (gaps, block)
    a valid witness for the target, or None."""
    raw_target = _raw_target(target, window)
    gaps_v = _raw_operands(gaps, window)
    add = window.spec.add
    # per b, each t + b formed once
    sums = [[add(t, b) for t in gaps_v] for b in _raw_operands(block, window)]
    for xv in window.raw_index:
        if all(any(add(s, xv) in raw_target for s in row) for row in sums):
            return PSWitness(frozenset(gaps), frozenset(block), RingElement(window.spec, xv))
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


def _subset_sums(values, add) -> set:
    """The sums of the raw values over all nonempty index subsets."""
    acc = set()
    for v in values:
        acc |= {add(prev, v) for prev in acc}
        acc.add(v)
    return acc


def finite_sums(seq: Sequence[RingElement]) -> FSSet:
    seq = tuple(seq)
    spec = _ring_of(seq)
    sums = _subset_sums([e.val for e in seq], spec.add)
    return FSSet(seq, frozenset(RingElement(spec, v) for v in sums))


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
    raw_target = _raw_target(target, window)
    values, add = list(window.raw_index), window.spec.add  # drawn raw; only the answer is built
    for s in range(samples):
        seq = [values[stream_below(seed, s * seq_len + p, len(values))] for p in range(seq_len)]
        if raw_target.isdisjoint(_subset_sums(seq, add)):
            return tuple(RingElement(window.spec, v) for v in seq)
    return None


def dilation_transport(witness: PSWitness, r: RingElement) -> PSWitness:
    """Witness for the dilated target r*A from a witness for A: multiply
    gaps, block and anchor by r.  Exact because r(t+b+x) = rt+rb+rx."""
    if r.is_zero():
        raise ValueError("dilation by zero destroys the witness")
    return PSWitness(dilate_set(witness.gaps, r), dilate_set(witness.block, r), r * witness.anchor)


def division_transport(witness: PSWitness, y: RingElement) -> Optional[PSWitness]:
    """Witness for A/y from a witness for A, by exact division of gaps,
    block and anchor; None when any division fails (the A-in-y*R style
    compatibility hypothesis is violated).  Inverse of dilation by y."""
    if y.is_zero():
        raise ZeroDivisionError("division transport by ring zero")
    gaps = divide_set(witness.gaps, y)
    block = divide_set(witness.block, y)
    anchor = exact_divide(witness.anchor, y)
    if gaps is None or block is None or anchor is None:
        return None
    return PSWitness(gaps, block, anchor)


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
