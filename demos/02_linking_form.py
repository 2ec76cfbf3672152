"""The torsion linking form, computed exactly as rationals mod 1.

Torsion classes of H_1 are represented by rational vectors theta with
P.theta integral; the linking pairing is Gamma(theta, vartheta) =
<Q.theta, P.vartheta> mod 1.  It is symmetric, bilinear, independent of
the chosen representatives, and nondegenerate on the torsion subgroup.
For the lens space lens(p, q) it reproduces the classical q·a·b/p law.
"""

from fractions import Fraction

from heegaard import (
    connected_sum,
    homology_profile,
    is_nondegenerate,
    lens,
    linking_form,
    linking_matrix,
    torsion_elements,
)

print("== lens(5,2): the classical q.a.b/p law ==")
G = lens(5, 2)
for a in range(1, 5):
    for b in range(1, 5):
        got = linking_form(G, (Fraction(a, 5),), (Fraction(b, 5),))
        law = Fraction(2 * a * b, 5) % 1
        marker = "ok" if got.value == law else "MISMATCH"
        print(f"  Gamma(a={a}/5, b={b}/5) = {got.value}   law 2ab/5 mod 1 = {law}   {marker}")

print()
print("== gram matrix over the torsion generators ==")
for name, G in [("lens(7,2)", lens(7, 2)),
                ("lens(4,1) # lens(6,1)", connected_sum(lens(4, 1), lens(6, 1)))]:
    lm = linking_matrix(G)
    prof = homology_profile(G)
    print(f"  {name}: invariant factors {list(prof.invariant_factors)}")
    for row in lm.gram:
        print("    [" + ", ".join(str(e.value) for e in row) + "]")
    print(f"  nondegenerate: {is_nondegenerate(G)}")

print()
print("== the pairing does not depend on the representative ==")
G = lens(7, 2)
T = torsion_elements(G)
theta = T[3]
shifted = tuple(x + 2 for x in theta)           # add an integer vector
print(f"  theta = {tuple(map(str, theta))}, shifted rep = {tuple(map(str, shifted))}")
print(f"  Gamma(theta, theta)  = {linking_form(G, theta, theta).value}")
print(f"  Gamma(shifted, theta) = {linking_form(G, shifted, theta).value}")

print()
print("== group law carried by the representatives ==")
ia, ib = (2,), (4,)                             # multi-indices of T[2], T[4]
a, b = T.by_index(ia), T.by_index(ib)
s = T.by_index(tuple((x + y) % d for x, y, d in zip(ia, ib, T.dims)))  # T[6]
lhs = linking_form(G, s, T[1])
rhs = linking_form(G, a, T[1]) + linking_form(G, b, T[1])
print(f"  Gamma(a+b, c) = {lhs.value},  Gamma(a,c) + Gamma(b,c) = {rhs.value}")
