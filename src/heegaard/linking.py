"""Torsion linking form of the glued manifold, directly from the blocks.

Gamma(theta, vartheta) = <Q theta, P vartheta> mod 1 on torsion
representatives.  Symmetry and representative independence follow from the
block relations and are asserted by the test suite rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .exact import Frozen, IntMatrix, PhaseQ, smith_normal_form, vec_dot
from .homology import TorsionRep, homology_profile
from .splitting import GluingData, per_manifold


class LinkingMatrix(Frozen):
    """The torsion linking form of one manifold over its SNF generators.

    dims holds the invariant factors d_1 | ... | d_r and generators the
    canonical representative of each unit multi-index.  The form is kept
    as integers: den is the lcm of the entries' reduced denominators (1
    when r = 0) and num[i][j], with 0 <= num[i][j] < den, is
    den * Gamma(gen_i, gen_j), so sums over the group can run in integer
    arithmetic mod den.  gram holds the same entries as PhaseQ.
    """

    __slots__ = ("dims", "den", "num", "generators", "gram")

    def __init__(self, dims, den: int, num, generators):
        num = tuple(tuple(row) for row in num)
        gram = tuple(tuple(PhaseQ._wrap(Fraction(x, den)) for x in row) for row in num)
        self._init(tuple(dims), den, num, tuple(generators), gram)

    def __repr__(self) -> str:
        rows = [[str(ph) for ph in row] for row in self.gram]
        return f"LinkingMatrix(gram={rows})"


def linking_form(G: GluingData, theta, vartheta) -> PhaseQ:
    """<Q theta, P vartheta> reduced mod 1, on explicit representatives.

    Both arguments must satisfy the torsion constraint P·x integral;
    anything else is rejected, since the form is only defined there.
    """
    vecs = []
    for name, raw in (("theta", theta), ("vartheta", vartheta)):
        vec = tuple(Fraction(x) for x in raw)
        if len(vec) != G.genus:
            raise ValueError(f"{name} has length {len(vec)}, expected {G.genus}")
        image = G.P.apply(vec)
        if any(x.denominator != 1 for x in image):
            raise ValueError(f"{name} is not a torsion representative: P·{name} is not integral")
        vecs.append(vec)
    t, v = vecs
    return PhaseQ(vec_dot(G.Q.apply(t), G.P.apply(v)))


@per_manifold
def linking_matrix(G: GluingData) -> LinkingMatrix:
    """The linking form over the canonical SNF generators, once per manifold.

    gen_i = c_i / d_i, c_i the i-th torsion column of homology_profile(G),
    and P c_j lies in d_j Z^g, so Gamma(gen_i, gen_j) is the integer
    <Q c_i, P c_j / d_j> over d_i, reduced mod 1.  The test suite checks
    every entry against linking_form, which evaluates <Q theta, P vartheta>
    on the generators directly, and every generator against the torsion
    group's canonical representatives.
    """
    profile = homology_profile(G)
    dims, columns = profile.invariant_factors, profile.torsion_columns
    images = [[x // d for x in G.P.apply(c)] for c, d in zip(columns, dims)]
    fracs = []  # reduced (numerator, denominator) of each entry
    for c_i, d_i in zip(columns, dims):
        left = G.Q.apply(c_i)
        row = []
        for image in images:
            a = vec_dot(left, image) % d_i
            h = gcd(a, d_i)
            row.append((a // h, d_i // h))
        fracs.append(row)
    den = lcm(*(d for row in fracs for _, d in row))
    num = [[n * (den // d) for n, d in row] for row in fracs]
    gens = [TorsionRep(Fraction(x, d) for x in c) for c, d in zip(columns, dims)]
    return LinkingMatrix(dims, den, num, gens)


def _radical_order(dims, L: int, g) -> int:
    """Order of the radical {θ : Γ(θ, ·) = 0} of the form g / L on ⊕ ℤ/dᵢ.

    a ∈ ℤ^r lies in the radical lattice iff gᵀa ∈ Lℤ^r.  The image of
    ℤ^r under a ↦ gᵀa in (ℤ/L)^r is the column span of [gᵀ | L·I_r]
    modulo L, which has L^r / Π eᵢ elements, eᵢ the Smith diagonal of that
    r × 2r matrix.  Since dᵢ·g_ij ≡ 0 (mod L), the lattice ⊕ dᵢℤ lies in
    the radical lattice, so the radical has |T| / |image| elements.
    """
    r = len(dims)
    block = IntMatrix.from_rows(
        [g[j][i] for j in range(r)] + [L if c == i else 0 for c in range(r)]
        for i in range(r)
    )
    return prod(dims) * prod(smith_normal_form(block).diagonal) // L**r


def is_nondegenerate(G: GluingData) -> bool:
    """True iff only the identity pairs to zero with every torsion class.

    Counts the radical of linking_matrix(G) from one Smith form of the
    r × 2r matrix [numᵀ | den·I_r] (see _radical_order), in O(r³) integer
    steps; no torsion class is enumerated.  A torsion-free manifold gives
    the empty form, whose radical has order 1.
    """
    lm = linking_matrix(G)
    return _radical_order(lm.dims, lm.den, lm.num) == 1
