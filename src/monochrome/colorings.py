"""Finite colorings of windows: data model, seeded randomization, persistence.

A coloring assigns a color in {1..r} to every element of a window, stored
densely in canonical window order.  Colors are 1-based throughout.

Random colorings come from the package's documented counter-based stream
(see :mod:`monochrome.prng`): position k of the window gets color
``1 + stream_value(seed, k) % r``, so a (window, r, seed) triple is
reproducible bit-for-bit anywhere.

File format (UTF-8, LF newlines, no trailing whitespace, exactly one
trailing newline)::

    ring <spec-string>
    window <param-string>
    colors <r>
    <color indices in canonical window order, whitespace separated>

The color rows wrap at 16 values per line.
"""

from __future__ import annotations

from typing import Iterable

from .prng import stream_value
from .rings import (
    Window,
    enumerate_window,
    format_ring_spec,
    format_window_params,
    integer,
    integers,
    parse_ring_spec,
    parse_window_params,
)

_VALUES_PER_LINE = 16


class ColoringFormatError(ValueError):
    """A coloring file violates the documented format."""


class Coloring:
    """An r-coloring of a window; immutable after construction."""

    __slots__ = ("window", "r", "colors")

    def __init__(self, window: Window, r: int, colors: Iterable[int]):
        if r < 1:
            raise ValueError(f"color count must be >= 1, got {r}")
        colors = tuple(colors)
        if len(colors) != len(window):
            raise ValueError(f"window has {len(window)} elements but {len(colors)} colors are given")
        bad = next((c for c in colors if not 1 <= c <= r), None)
        if bad is not None:
            raise ValueError(f"color {bad} out of range 1..{r} (colors are 1-based)")
        self.window = window
        self.r = r
        self.colors = colors

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coloring)
            and self.window == other.window
            and self.r == other.r
            and self.colors == other.colors
        )

    def __hash__(self) -> int:
        return hash((self.window, self.r, self.colors))

    def __repr__(self) -> str:
        return f"<Coloring r={self.r} of {self.window!r}>"


def random_coloring(window: Window, r: int, seed: int) -> Coloring:
    """Deterministic uniform coloring from the documented splitmix stream."""
    return Coloring(window, r, (1 + stream_value(seed, k) % r for k in range(len(window))))


def dumps_coloring(coloring: Coloring) -> str:
    lines = [
        f"ring {format_ring_spec(coloring.window.spec)}",
        f"window {format_window_params(coloring.window.spec, coloring.window.params)}",
        f"colors {coloring.r}",
    ]
    for k in range(0, len(coloring.colors), _VALUES_PER_LINE):
        lines.append(" ".join(str(c) for c in coloring.colors[k : k + _VALUES_PER_LINE]))
    return "\n".join(lines) + "\n"


def loads_coloring(text: str) -> Coloring:
    lines = text.split("\n")
    if len(lines) < 3:
        raise ColoringFormatError("truncated coloring file")
    spec = _header(lines[0], "ring", parse_ring_spec)
    params = _header(lines[1], "window", lambda s: parse_window_params(spec, s))
    r = _header(lines[2], "colors", integer)
    try:
        values = integers(" ".join(lines[3:]))
    except ValueError as exc:
        raise ColoringFormatError(f"bad color entry: {exc}") from None
    try:
        return Coloring(enumerate_window(spec, params), r, values)
    except ValueError as exc:
        raise ColoringFormatError(str(exc)) from None


def _header(line: str, key: str, parse):
    prefix = key + " "
    if not line.startswith(prefix):
        raise ColoringFormatError(f"expected {key!r} header line, got {line!r}")
    try:
        return parse(line[len(prefix):])
    except ValueError as exc:
        raise ColoringFormatError(f"bad {key} header: {exc}") from None


def store_coloring(coloring: Coloring, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_coloring(coloring))


def load_coloring(path) -> Coloring:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_coloring(fh.read())
