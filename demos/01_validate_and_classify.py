"""Build gluing matrices, validate them, and read off first homology.

A closed oriented 3-manifold presented by a genus-g Heegaard splitting is
encoded by the four g x g integer blocks R, P, S, Q of the gluing matrix
M = [[R, P], [S, Q]].  Validity is six block relations, equivalent to M
being anti-symplectic (M† J M = -J); construction of GluingData runs the
full validation, so every live instance is a genuine closed oriented
3-manifold.  The first homology group is the cokernel of P.
"""

from heegaard import (
    ValidationError,
    block_relation_violations,
    connected_sum,
    homology_profile,
    lens,
    random_splitting,
    validate,
)

print("== canonical examples ==")
for name, G in [
    ("S^3            = lens(1,0)", lens(1, 0)),
    ("S^1 x S^2      = lens(0,1)", lens(0, 1)),
    ("lens(7,2)", lens(7, 2)),
    ("lens(5,1) # lens(3,1)", connected_sum(lens(5, 1), lens(3, 1))),
]:
    prof = homology_profile(G)
    print(f"  {name:30s} genus={G.genus}  b1={prof.b1}  "
          f"invariant factors={list(prof.invariant_factors)}  "
          f"|torsion|={prof.torsion_order}")

print()
print("== a seeded random splitting is valid by construction ==")
G = random_splitting(genus=2, seed=11, word_length=9)
prof = homology_profile(G)
print(f"  random(genus=2, seed=11, length=9): b1={prof.b1}, "
      f"factors={list(prof.invariant_factors)}")
print(f"  P block rows: {G.P}")

print()
print("== validate() accepts raw blocks and re-checks all six relations ==")
same = validate(G.R, G.P, G.S, G.Q)
print(f"  revalidated equals original: {same == G}")

print()
print("== breaking one entry is caught, with the violated relation named ==")
rows = [list(r) for r in G.P]
rows[0][0] += 1
violations = block_relation_violations(G.R, rows, G.S, G.Q)
for line in violations:
    print(f"  violated: {line}")
try:
    validate(G.R, rows, G.S, G.Q)
except ValidationError as exc:
    print(f"  validate() raised ValidationError with {len(exc.violations)} line(s)")
