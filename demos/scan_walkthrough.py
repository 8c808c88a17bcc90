"""
Scanning a random 2-coloring for product-translate patterns
===========================================================

Colors the window {1..50} with two colors from a seeded stream, then looks
for pairs (x, y) whose pattern {x*y, x + f(y)} lands in a single color.
"""

from monochrome import (
    ScanConstraints,
    WindowParams,
    abundance_profile,
    enumerate_window,
    format_element,
    format_window_params,
    parse_family,
    parse_ring_spec,
    pattern_elements,
    random_coloring,
    witness_scan,
)

# the ambient ring and a finite window inside it
Z = parse_ring_spec("Z")
window = enumerate_window(Z, WindowParams(50))
print(f"window: {format_window_params(Z, window.params)} "
      f"with {len(window)} elements")

# a deterministic 2-coloring; same seed, same colors, every run
coloring = random_coloring(window, 2, 7)
print("first ten colors:", list(coloring.colors[:10]))

# the single-polynomial family f(t) = t gives the classic {xy, x+y} shape;
# the scan constraints, spelled out here as their defaults, skip y in
# {0, 1} and x = 0 (they trivialize the pattern), skip single-element
# (degenerate) instances and keep only instances inside the window
family = parse_family(Z, "t")
defaults = ScanConstraints.defaults_for(Z)
witnesses = list(witness_scan(coloring, family, defaults))
print(f"monochromatic (x, y) pairs found: {len(witnesses)}")

# a limit stops the scan early: here at the first witness
first, = witness_scan(coloring, family, defaults, limit=1)
print(f"first witness: x={format_element(first.x)} "
      f"y={format_element(first.y)} color={first.color}")
inst = pattern_elements(first.x, first.y, family)
print("  pattern elements:", [format_element(e) for e in inst.elements])

# fix y = 2 and split the x side by color: the two "abundance" classes
profile = abundance_profile(coloring, family, Z.integer(2), defaults)
for color, xs in sorted(profile.items()):
    vals = sorted(x.val for x in xs)
    print(f"x values working for y=2 in color {color}: {vals}")

# richer families just add more translates to the pattern
triple = parse_family(Z, "0;t")
count = sum(1 for _ in witness_scan(coloring, triple))
print(f"f in {{0, t}} (pattern {{xy, x, x+y}}): {count} witnesses")
