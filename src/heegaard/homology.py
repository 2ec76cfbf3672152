"""First homology of the glued manifold as the cokernel of the P block.

The Smith form P = U D V turns coker P into Z^{b1} + sum of Z_{d_i}.
homology_profile runs the one Smith elimination of P in the pipeline and
keeps the invariant factors, the torsion columns of V^-1 reduced mod d_i
(canonical rational representatives theta = c_i / d_i with P theta
integral) and the kernel columns of V^-1, a saturated integer basis of
ker P; no other column of V^-1 is built.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, prod

from .exact import Frozen, _apply, _rational, _replay_columns, _smith_eliminate, vec_dot
from .splitting import GluingData, per_manifold


class HomologyProfile(Frozen, compared=("b1", "invariant_factors")):
    """Free rank, invariant factors, torsion columns and kernel columns.

    The invariant factors d_1 | ... | d_r sit on the Smith diagonal of P
    just before its b1 zeros.  torsion_columns[i] is the column of V^-1
    at that diagonal position of d_i, reduced mod d_i: an integer vector
    c_i with 0 <= c_i < d_i and P c_i in d_i Z^g, so that c_i / d_i is the
    canonical representative of the i-th torsion generator.
    kernel_columns are the b1 columns of V^-1 past the rank, unreduced: a
    saturated basis of the integer lattice ker P.
    """

    __slots__ = ("b1", "invariant_factors", "torsion_order", "torsion_columns", "kernel_columns")

    def __init__(self, b1: int, invariant_factors: tuple, torsion_columns: tuple, kernel_columns: tuple):
        factors = tuple(invariant_factors)
        set_b1, set_factors, set_order, set_torsion, set_kernel = self._setters
        set_b1(self, b1)
        set_factors(self, factors)
        set_order(self, prod(factors))
        set_torsion(self, tuple(torsion_columns))
        set_kernel(self, tuple(kernel_columns))

    def kernel_count(self, k: int) -> int:
        """|{theta in T : k.theta = 0}| = prod of gcd(k, d_i), the k-torsion count."""
        return prod((gcd(k, d) for d in self.invariant_factors), start=1)

    def __repr__(self) -> str:
        return (
            f"HomologyProfile(b1={self.b1}, invariant_factors="
            f"{list(self.invariant_factors)}, torsion_order={self.torsion_order})"
        )


class TorsionRep(Frozen):
    """A flat representative: rational vector in [0,1)^g, P-image integral."""

    __slots__ = ("theta",)

    def __init__(self, theta):
        vals = tuple(map(_rational, theta))
        for x in vals:
            if not 0 <= x < 1:
                raise ValueError(f"component {x} is outside [0, 1)")
        self._init(vals)

    def __len__(self) -> int:
        return len(self.theta)

    def __iter__(self):
        return iter(self.theta)

    def __repr__(self) -> str:
        return f"TorsionRep(({', '.join(str(x) for x in self.theta)}))"


@per_manifold
def homology_profile(G: GluingData) -> HomologyProfile:
    """H1 of the glued manifold: b1 plus the invariant factors of coker P.

    One Smith elimination of P gives the diagonal; factors equal to 1 are
    dropped and b1 counts its zeros.  Its column operations are replayed
    on the kept columns of V^-1 alone (_replay_columns), once per kind:
    the torsion columns modulo d_r, since every d_i divides d_r, and not
    at all when d_r = 1; the b1 kernel columns exactly, since they must
    be integers.  So no torsion entry grows past d_r, while an exact
    V^-1 would reach tens of thousands of bits at genus 40.
    """
    g = G.genus
    work, log = _smith_eliminate(G.P)
    diag = [row[i] for i, row in enumerate(work)]
    rank = g - diag.count(0)
    factors = tuple([d for d in diag if d > 1])
    torsion = kernel = ()
    if factors:
        cols = zip(*_replay_columns(log, g, rank - len(factors), rank, factors[-1]))
        torsion = tuple([tuple([x % d for x in c]) for c, d in zip(cols, factors)])
    if rank < g:
        kernel = tuple(zip(*_replay_columns(log, g, rank, g)))
    return HomologyProfile(g - rank, factors, torsion, kernel)


class TorsionElements(Sequence):
    """The torsion subgroup of coker P as a random-access sequence.

    A view over the invariant factors and torsion columns of
    homology_profile.  Element number k corresponds to the mixed-radix
    multi-index over the invariant factors (last index fastest), so any
    element can be built from its position alone; multi-indices add
    componentwise mod d_i, which is the group law.  The identity sits at
    k = 0.
    """

    def __init__(self, G: GluingData):
        profile = homology_profile(G)
        self._dims = dims = profile.invariant_factors
        self._order = profile.torsion_order
        # generator i is c_i / d_i (c_i = torsion_columns[i]); over the
        # common denominator den = d_r its numerators are (den/d_i) * c_i,
        # stored here by coordinate c = 0..g-1
        self._den = den = dims[-1] if dims else 1
        columns = profile.torsion_columns
        self._gen_nums = tuple(
            tuple(den // d * col[c] for d, col in zip(dims, columns)) for c in range(G.genus)
        )

    @property
    def dims(self) -> tuple:
        """Invariant factors d_1 | d_2 | ... labelling the multi-index."""
        return self._dims

    def __len__(self) -> int:
        return self._order

    def __getitem__(self, k: int) -> TorsionRep:
        if not isinstance(k, int):
            raise TypeError("indices must be integers")
        if k < 0:
            k += self._order
        if not 0 <= k < self._order:
            raise IndexError(k)
        idx = []
        for d in reversed(self._dims):
            k, a = divmod(k, d)
            idx.append(a)
        return self.by_index(tuple(reversed(idx)))

    def by_index(self, index: tuple) -> TorsionRep:
        """Canonical representative of the multi-index (a_1, ..., a_r)."""
        if len(index) != len(self._dims):
            raise ValueError(f"expected {len(self._dims)} indices, got {len(index)}")
        den = self._den
        return TorsionRep(tuple(Fraction(vec_dot(index, row) % den, den) for row in self._gen_nums))


def torsion_elements(G: GluingData) -> TorsionElements:
    """All torsion classes of coker P, identity included, as canonical reps."""
    return TorsionElements(G)


def curvature_lattice_basis(G: GluingData) -> list:
    """Integer basis of the curvature label lattice ker P† (rank b1).

    By the block relations Q maps the integer lattice ker P one-to-one
    (S†P − R†Q = 1) onto ker P† (m = Q(−R†m) with RP† = PR†), so Q applied
    to the kernel columns of homology_profile is a basis; no second Smith
    form runs.
    """
    return [_apply(G.Q, c) for c in homology_profile(G).kernel_columns]
