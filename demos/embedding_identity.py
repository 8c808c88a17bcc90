"""
Cube lines and the layered embedding identity
=============================================

Walks the combinatorial cube [N]^d, finds the side length that forces a
one-color line, then replays the layered embedding that converts a cube
line into a polynomial pattern and checks the defining identity exactly.
"""

from monochrome import (
    SigmaPoint,
    WindowParams,
    enumerate_window,
    find_avoiding_coloring,
    format_element,
    format_poly,
    hj_number_exhaustive,
    line_of,
    multiplicative_assignment,
    parse_family,
    parse_ring_spec,
    sigma_embed,
    sigma_trials,
    variable_words,
    verify_sigma_line_identity,
    wildcard_set,
)

# every variable word over [2]^2 sweeps out a 2-point line
for vw in variable_words(2, 2):
    print("line:", [w.letters for w in line_of(vw)])

# with 2 colors and alphabet {1,2}, side 1 is avoidable but side 2 is not
_, avoider = find_avoiding_coloring(2, 2, 1)
print("side-1 coloring with no one-color line:", avoider)
res = hj_number_exhaustive(2, 2, 3)
print(f"least forcing side length: {res.n} (status {res.status})")

# now the embedding: assign y-products to cube coordinates and push a
# line through f(t) = 2t over the integers
Z = parse_ring_spec("Z")
family = parse_family(Z, "2t")
ys = (Z.integer(3), Z.integer(5))
y_assign = multiplicative_assignment(ys, 1)
print("coordinate products:",
      {i: format_element(v) for i, v in sorted(y_assign.items())})

u = SigmaPoint(Z, 2, ((Z.integer(2), Z.integer(2)),))
value = sigma_embed(u, y_assign, Z.zero)
print(f"sigma at coefficients (2, 2) with base 0: {format_element(value)}")

# the identity: substituting into the wildcard cells adds exactly f(sum of
# the covered y's) to the embedded value
for cells in ({1, 2}, {2}):
    checks = verify_sigma_line_identity(
        family, y_assign, wildcard_set(cells), u, Z.zero)
    for chk in checks:
        print(f"wildcards {sorted(cells)} f={format_poly(chk.poly)}: "
              f"{format_element(chk.lhs)} == {format_element(chk.rhs)} "
              f"-> {chk.ok}")

# randomized confirmation over a small Gaussian-integer window
Zi = parse_ring_spec("Zi")
pool = enumerate_window(Zi, WindowParams(3))
fam_zi = parse_family(Zi, "t; (1+1i)t^2")
ok = all(chk.ok for trial in sigma_trials(fam_zi, pool, 2, None, 25, 0)
         for chk in trial)
print("25 randomized Gaussian trials all exact:", ok)
