"""Torsion linking form of the glued manifold, directly from the blocks.

Gamma(theta, vartheta) = <Q theta, P vartheta> mod 1 on torsion
representatives.  Symmetry and representative independence follow from the
block relations and are asserted by the test suite rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .exact import IntMatrix, PhaseQ, smith_normal_form, vec_dot
from .homology import homology_profile, torsion_elements
from .splitting import GluingData, per_manifold


class LinkingMatrix:
    """Gram matrix of the linking form over the SNF torsion generators."""

    __slots__ = ("generators", "gram")

    def __init__(self, generators, gram):
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "gram", tuple(tuple(row) for row in gram))

    def __setattr__(self, name, value):
        raise AttributeError("LinkingMatrix is immutable")

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


def linking_matrix(G: GluingData) -> LinkingMatrix:
    """Gram matrix over the canonical SNF generators: g_ij / L from gram_integerized."""
    T = torsion_elements(G)
    r = len(T.dims)
    gens = [T.by_index(tuple(1 if i == j else 0 for j in range(r))) for i in range(r)]
    L, g = gram_integerized(G)
    return LinkingMatrix(gens, [[PhaseQ(Fraction(x, L)) for x in row] for row in g])


@per_manifold
def gram_integerized(G: GluingData) -> tuple:
    """The gram matrix scaled onto a common denominator L.

    Returns (L, g) with g[i][j] = L * Gamma(gen_i, gen_j) as plain ints in
    [0, L), L the lcm of the entries' reduced denominators, so downstream
    sums can run in integer arithmetic mod L.

    Computed from the Smith factors P = U D V in integers: gen_i is
    V^-1 e_i / d_i up to an integer vector and P V^-1 = U D, so
    Gamma(gen_i, gen_j) = (Q V^-1)[:, pos_i] . U[:, pos_j] / d_i mod 1.
    The test suite checks it against linking_form, which evaluates
    <Q theta, P vartheta> on the generators directly.
    """
    snf = homology_profile(G).snf_of_P
    torsion = [(pos, d) for pos, d in enumerate(snf.diagonal) if d >= 2]
    qv = G.Q @ snf.v_inverse
    U = snf.U
    fracs = []  # reduced (numerator, denominator) of each entry
    for pos_i, d_i in torsion:
        left = qv.col(pos_i)
        row = []
        for pos_j, _ in torsion:
            a = vec_dot(left, U.col(pos_j)) % d_i
            h = gcd(a, d_i)
            row.append((a // h, d_i // h))
        fracs.append(row)
    L = lcm(*(den for row in fracs for _, den in row))
    g = tuple(tuple(num * (L // den) for num, den in row) for row in fracs)
    return L, g


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

    Counts the radical from one Smith form of the r × 2r matrix
    [gᵀ | L·I_r] built from the integerized gram (see _radical_order), in
    O(r³) integer steps; no torsion class is enumerated.
    """
    dims = homology_profile(G).invariant_factors
    if not dims:
        return True
    L, g = gram_integerized(G)
    return _radical_order(dims, L, g) == 1
