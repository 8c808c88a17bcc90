"""Coloring data model, seeded randomization, and the text persistence format."""

import random

import pytest

from monochrome import (
    Coloring,
    ColoringFormatError,
    WindowParams,
    dumps_coloring,
    enumerate_window,
    load_coloring,
    loads_coloring,
    parse_ring_spec,
    random_coloring,
    store_coloring,
)
from monochrome.prng import stream_value

Z = parse_ring_spec("Z")
ZI = parse_ring_spec("Zi")
GF2 = parse_ring_spec("GF(2)[x]")

W10 = enumerate_window(Z, WindowParams(10))


def small_windows():
    return (
        enumerate_window(Z, WindowParams(12)),
        enumerate_window(ZI, WindowParams(1)),
        enumerate_window(GF2, WindowParams(3)),
    )


# ---------------------------------------------------------------------------
# Construction


def test_colors_must_cover_window():
    with pytest.raises(ValueError):
        Coloring(W10, 2, (1, 2))


def test_colors_must_be_in_range():
    with pytest.raises(ValueError):
        Coloring(W10, 2, (1, 2) * 4 + (0, 1))
    with pytest.raises(ValueError):
        Coloring(W10, 2, (1, 2) * 4 + (3, 1))


# ---------------------------------------------------------------------------
# Seeded randomization


def test_random_coloring_deterministic():
    a = random_coloring(W10, 3, 42)
    b = random_coloring(W10, 3, 42)
    assert a == b
    assert a.colors == b.colors


def test_random_coloring_single_color():
    c = random_coloring(W10, 1, 7)
    assert set(c.colors) == {1}


def test_random_coloring_range():
    for seed in range(5):
        c = random_coloring(W10, 4, seed)
        assert all(1 <= v <= 4 for v in c.colors)


def test_random_coloring_documented_update_rule():
    # position k gets 1 + stream_value(seed, k) mod r
    for w in small_windows():
        c = random_coloring(w, 3, 99)
        expected = tuple(1 + stream_value(99, k) % 3 for k in range(len(w)))
        assert c.colors == expected


def test_random_coloring_zero_colors_rejected():
    with pytest.raises(ValueError, match=r"^color count must be >= 1, got 0$"):
        random_coloring(W10, 0, 1)


# ---------------------------------------------------------------------------
# Persistence


def test_dump_golden_format():
    w = enumerate_window(Z, WindowParams(5))
    c = Coloring(w, 2, (1, 2, 1, 2, 1))
    assert dumps_coloring(c) == "ring Z\nwindow N=5\ncolors 2\n1 2 1 2 1\n"


def test_dump_wraps_long_rows():
    w = enumerate_window(Z, WindowParams(20))
    c = random_coloring(w, 3, 5)
    text = dumps_coloring(c)
    lines = text.split("\n")
    assert lines[0] == "ring Z"
    assert lines[1] == "window N=20"
    assert lines[2] == "colors 3"
    assert len(lines[3].split()) == 16  # fixed row width
    assert len(lines[4].split()) == 4
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert all(not line != line.rstrip() for line in lines)


def test_round_trip_in_memory():
    rng = random.Random(8)
    for w in small_windows():
        for _ in range(100):
            c = random_coloring(w, rng.randint(1, 4), rng.getrandbits(32))
            assert loads_coloring(dumps_coloring(c)) == c


def test_round_trip_on_disk(tmp_path):
    for i, w in enumerate(small_windows()):
        c = random_coloring(w, 2, i)
        path = tmp_path / f"c{i}.txt"
        store_coloring(c, path)
        assert load_coloring(path) == c


def test_load_wrong_value_count():
    with pytest.raises(ColoringFormatError):
        loads_coloring("ring Z\nwindow N=5\ncolors 2\n1 2 1\n")
    with pytest.raises(ColoringFormatError):
        loads_coloring("ring Z\nwindow N=5\ncolors 2\n1 2 1 2 1 2\n")


def test_load_color_out_of_range():
    with pytest.raises(ColoringFormatError):
        loads_coloring("ring Z\nwindow N=3\ncolors 2\n0 1 2\n")
    with pytest.raises(ColoringFormatError, match=r"^color 3 out of range 1\.\.2 \(colors are 1-based\)$"):
        loads_coloring("ring Z\nwindow N=3\ncolors 2\n1 2 3\n")


def test_load_checks_the_color_count_as_coloring_does():
    with pytest.raises(ColoringFormatError, match="^color count must be >= 1, got 0$"):
        loads_coloring("ring Z\nwindow N=3\ncolors 0\n1 1 1\n")
    with pytest.raises(ColoringFormatError, match="^window has 5 elements but 3 colors are given$"):
        loads_coloring("ring Z\nwindow N=5\ncolors 2\n1 2 1\n")


def test_load_malformed_headers():
    with pytest.raises(ColoringFormatError):
        loads_coloring("window N=3\nring Z\ncolors 2\n1 2 1\n")
    with pytest.raises(ColoringFormatError):
        loads_coloring("ring Q\nwindow N=3\ncolors 2\n1 2 1\n")
    with pytest.raises(ColoringFormatError):
        loads_coloring("ring Z\nwindow B=3\ncolors 2\n1 2 1\n")
    with pytest.raises(ColoringFormatError):
        loads_coloring("ring Z\nwindow N=3\ncolors two\n1 2 1\n")
    for count in ("２", "0_2", "+２"):
        with pytest.raises(ColoringFormatError, match="bad colors header"):
            loads_coloring(f"ring Z\nwindow N=3\ncolors {count}\n1 2 1\n")
    with pytest.raises(ColoringFormatError):
        loads_coloring("ring Z\n")


def test_load_non_integer_entry():
    with pytest.raises(ColoringFormatError):
        loads_coloring("ring Z\nwindow N=3\ncolors 2\n1 a 1\n")
    # "2\u30001" is one entry: entries are split at ASCII whitespace only
    for entry in ("２", "0_1", "١", "2\u30001"):
        with pytest.raises(ColoringFormatError, match="bad color entry"):
            loads_coloring(f"ring Z\nwindow N=3\ncolors 2\n1 {entry} 1\n")
