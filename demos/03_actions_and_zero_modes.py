"""Field classes, their CS/BF actions, and exact zero-mode invariance.

A finite-dimensional class bundles the curvature lattice point m, the
free flat mode theta_f (in the rational kernel of P), the torsion flat
mode theta_t, the holonomy vector, and the smooth self-pairing scalar.
All actions are rationals mod 1 (PhaseQ), so invariances are checked by
exact equality, never by tolerance.
"""

from fractions import Fraction

from heegaard import (
    FiniteDBClass,
    bf_action,
    cs_action,
    db_pair,
    homology_profile,
    lens,
    torsion_elements,
    zero_mode_shift,
)

print("== torsion-only classes on lens(5,2) ==")
G = lens(5, 2)
T = torsion_elements(G)
A = FiniteDBClass(G, theta_t=T[1])          # theta_t = (1/5,)
print(f"  class A: theta_t = {tuple(map(str, A.theta_t))}")
print(f"  cs_action(A, k=1) = {cs_action(G, A, 1).value}")
print(f"  db_pair(A, A)     = {db_pair(G, A, A).value}")
for k in (2, 3, 4, 5):
    print(f"  cs_action(A, k={k}) = {cs_action(G, A, k).value}")

print()
print("== BF couples two classes through the linking form ==")
G6 = lens(6, 1)
T6 = torsion_elements(G6)
B1 = FiniteDBClass(G6, theta_t=T6[1])
B2 = FiniteDBClass(G6, theta_t=T6[1])
print(f"  bf_action(B1, B2, k=1) = {bf_action(G6, B1, B2, 1).value}")
print(f"  diagonal BF with cross = smooth_self reproduces CS: "
      f"{bf_action(G6, B1, B1, 3, cross=B1.smooth_self) == cs_action(G6, B1, 3)}")

print()
print("== zero modes: S^1 x S^2 has ker P = Z, and shifts cost nothing ==")
H = lens(0, 1)
kernel = homology_profile(H).kernel_columns
print(f"  integer kernel of P: {list(kernel)}")
C = FiniteDBClass(H, m=(2,), holonomy=(Fraction(3, 7),))
k = 2
u = kernel[0]
shifted = zero_mode_shift(H, C, u, k)
print(f"  theta_f before: {tuple(map(str, C.theta_f))}, "
      f"after u/(2k) shift: {tuple(map(str, shifted.theta_f))}")
print(f"  cs_action(C, k={k})       = {cs_action(H, C, k).value}")
print(f"  cs_action(shifted, k={k}) = {cs_action(H, shifted, k).value}")
print(f"  exactly equal: {cs_action(H, C, k) == cs_action(H, shifted, k)}")

print()
print("== sector constraints are enforced at construction ==")
ok = FiniteDBClass(H, theta_f=(Fraction(1, 3),))      # P = (0) annihilates it
print(f"  theta_f = 1/3 on S^1 x S^2 is a free flat mode: {tuple(map(str, ok.theta_f))}")
try:
    FiniteDBClass(G, theta_f=(Fraction(1, 3),))       # P = (5): 5/3 != 0
except ValueError as exc:
    print(f"  rejected on lens(5,2): {exc}")
