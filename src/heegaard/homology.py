"""First homology of the glued manifold as the cokernel of the P block.

The Smith form P = U D V turns coker P into Z^{b1} + sum of Z_{d_i}.
Torsion classes get canonical rational representatives theta in [0,1)^g
with P theta integral, built from the torsion columns of V^-1 over d_r.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm, prod

from .exact import Frozen, IntMatrix, SmithDecomposition, determinant, frac_mod1, smith_normal_form, vec_dot
from .splitting import GluingData, per_manifold


class HomologyProfile(Frozen, compared=("b1", "invariant_factors")):
    """Free rank, invariant factors, torsion columns, and their Smith data.

    The invariant factors d_1 | ... | d_r sit on the Smith diagonal of P
    just before its b1 zeros.  torsion_columns[i] is the column of V^-1
    at that diagonal position of d_i, reduced mod d_i: an integer vector
    c_i with 0 <= c_i < d_i and P c_i in d_i Z^g, so that c_i / d_i is the
    canonical representative of the i-th torsion generator.  snf_of_P
    holds D and V^-1 only; the columns of V^-1 past the rank span ker P.
    """

    __slots__ = ("b1", "invariant_factors", "torsion_order", "torsion_columns", "snf_of_P")

    def __init__(self, b1: int, invariant_factors: tuple, snf_of_P: SmithDecomposition):
        factors = tuple(invariant_factors)
        first = snf_of_P.rank - len(factors)
        vinv = snf_of_P.v_inverse
        columns = tuple(
            tuple(x % d for x in vinv.col(first + i)) for i, d in enumerate(factors)
        )
        self._init(b1, factors, prod(factors, start=1), columns, snf_of_P)

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
        vals = tuple(Fraction(x) for x in theta)
        for x in vals:
            if not 0 <= x < 1:
                raise ValueError(f"component {x} is outside [0, 1)")
        self._init(vals)

    def __len__(self) -> int:
        return len(self.theta)

    def __iter__(self):
        return iter(self.theta)

    def __getitem__(self, i) -> Fraction:
        return self.theta[i]

    def __repr__(self) -> str:
        return f"TorsionRep(({', '.join(str(x) for x in self.theta)}))"


@per_manifold
def homology_profile(G: GluingData) -> HomologyProfile:
    """H1 of the glued manifold: b1 plus the invariant factors of coker P.

    Factors equal to 1 are dropped; b1 counts the zero diagonal entries of
    the Smith form of P.
    """
    snf = smith_normal_form(G.P)
    diag = snf.diagonal
    b1 = sum(1 for d in diag if d == 0)
    factors = tuple(d for d in diag if d >= 2)
    return HomologyProfile(b1, factors, snf)


class TorsionElements(Sequence):
    """The torsion subgroup of coker P as a random-access sequence.

    Element number k corresponds to the mixed-radix multi-index over the
    invariant factors (last index fastest), so any element can be built
    from its position alone.  The identity sits at k = 0.
    """

    def __init__(self, G: GluingData):
        self._profile = profile = homology_profile(G)
        snf = profile.snf_of_P
        self._dims = dims = profile.invariant_factors
        self._positions = range(snf.rank - len(dims), snf.rank)
        self._v_inverse = snf.v_inverse
        self._genus = G.genus
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

    def index_of(self, rep) -> tuple:
        """Multi-index of any torsion representative (not just canonical ones).

        Raises ValueError if the vector carries a free-mode component or
        fails the integrality constraint, i.e. does not represent a torsion
        class of coker P.  It reads phi = V theta mod 1 only, so Cramer's rule
        solves V^-1 phi = theta mod the common denominator of theta (det V^-1 = +-1).
        """
        theta = tuple(Fraction(x) for x in rep)
        if len(theta) != self._genus:
            raise ValueError("representative has wrong length")
        den = lcm(*(x.denominator for x in theta))
        nums = (tuple(int(x * den) % den for x in theta),)
        vt = tuple(tuple(e % den for e in col) for col in self._v_inverse.transpose().to_rows())
        sign = determinant(IntMatrix.from_rows(vt))  # the transpose has the same determinants
        cramer = (determinant(IntMatrix.from_rows(vt[:i] + nums + vt[i + 1 :])) for i in range(len(vt)))
        phi = [Fraction(sign * c % den, den) for c in cramer]
        index = []
        for d, pos in zip(self._dims, self._positions):
            a = frac_mod1(phi[pos]) * d
            if a.denominator != 1:
                raise ValueError(f"coordinate {pos} is not a multiple of 1/{d}")
            index.append(int(a))
        for pos in range(self._genus):
            if pos not in self._positions and frac_mod1(phi[pos]) != 0:
                raise ValueError("vector has a component outside the torsion subgroup")
        return tuple(index)

    def add(self, a: TorsionRep, b: TorsionRep) -> TorsionRep:
        """Group sum with the result re-canonicalized."""
        ia, ib = self.index_of(a), self.index_of(b)
        return self.by_index(tuple((x + y) % d for x, y, d in zip(ia, ib, self._dims)))

    def kernel_count(self, k: int) -> int:
        """|{theta : k.theta = identity}|, the k-torsion count."""
        return self._profile.kernel_count(k)


def torsion_elements(G: GluingData) -> TorsionElements:
    """All torsion classes of coker P, identity included, as canonical reps."""
    return TorsionElements(G)


def _kernel_columns(G: GluingData) -> list:
    # columns rank..g−1 of V⁻¹ in the Smith form of P: a saturated basis of ker P
    snf = homology_profile(G).snf_of_P
    return [snf.v_inverse.col(j) for j in range(snf.rank, G.genus)]


def free_flat_basis(G: GluingData) -> list:
    """Q-basis of the free flat modes {x in Q^g : P x = 0}; dimension b1."""
    return [tuple(map(Fraction, c)) for c in _kernel_columns(G)]


def curvature_lattice_basis(G: GluingData) -> list:
    """Integer basis of the curvature label lattice ker P† (rank b1).

    By the block relations Q maps the integer lattice ker P one-to-one
    (S†P − R†Q = 1) onto ker P† (m = Q(−R†m) with RP† = PR†), so Q applied
    to the kernel columns of P's Smith form is a basis; no second one runs.
    """
    return [G.Q.apply(c) for c in _kernel_columns(G)]
