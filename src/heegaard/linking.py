"""Torsion linking form of the glued manifold, directly from the blocks.

Gamma(theta, vartheta) = <Q theta, P vartheta> mod 1 on torsion
representatives.  Symmetry and representative independence follow from the
block relations and are asserted by the test suite rather than assumed.
The form's orthogonal splitting into p-primary Jordan blocks
(_jordan_blocks) exists exactly when the form is nondegenerate.  It is
run once per manifold (_jordan_splitting), and that one splitting is
both how is_nondegenerate decides and what partition scales by each
level to build Z_CS.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact import Frozen, PhaseQ, _apply, _dot, _rational, vec_dot
from .homology import TorsionRep, homology_profile
from .splitting import _ENUMERATION_LIMIT, GluingData, per_manifold


class LinkingMatrix(Frozen):
    """The torsion linking form of one manifold over its SNF generators.

    dims holds the invariant factors d_1 | ... | d_r and columns the
    torsion columns c_i of homology_profile, so gen_i = c_i / d_i.  The
    form is held once, as integers: den is the lcm of the entries' reduced
    denominators (1 when r = 0) and num[i][j], with 0 <= num[i][j] < den,
    is den * Gamma(gen_i, gen_j), so sums over the group run in integer
    arithmetic mod den.  gram (the entries as PhaseQ) and generators (the
    gen_i as TorsionRep) are views built on each read.
    """

    __slots__ = ("dims", "den", "num", "columns")

    @classmethod
    def _trusted(cls, dims: tuple, den: int, num: tuple, columns: tuple) -> "LinkingMatrix":
        """Trusted constructor: every argument is already a tuple (of tuples)."""
        self = object.__new__(cls)
        set_dims, set_den, set_num, set_columns = cls._setters
        set_dims(self, dims)
        set_den(self, den)
        set_num(self, num)
        set_columns(self, columns)
        return self

    @property
    def gram(self) -> tuple:
        den = self.den
        return tuple(tuple(PhaseQ._wrap(Fraction(x, den)) for x in row) for row in self.num)

    @property
    def generators(self) -> tuple:
        return tuple(TorsionRep(Fraction(x, d) for x in c) for c, d in zip(self.columns, self.dims))

    def __repr__(self) -> str:
        rows = [[str(ph) for ph in row] for row in self.gram]
        return f"LinkingMatrix(gram={rows})"


def linking_form(G: GluingData, theta, vartheta) -> PhaseQ:
    """<Q theta, P vartheta> reduced mod 1, on explicit representatives.

    Both arguments must satisfy the torsion constraint P·x integral;
    anything else is rejected, since the form is only defined there.
    """
    checked = []
    for name, raw in (("theta", theta), ("vartheta", vartheta)):
        vec = tuple(map(_rational, raw))
        if len(vec) != G.genus:
            raise ValueError(f"{name} has length {len(vec)}, expected {G.genus}")
        image = _apply(G.P, vec)
        if any(x.denominator != 1 for x in image):
            raise ValueError(f"{name} is not a torsion representative: P·{name} is not integral")
        checked.append((vec, image))
    (t, _), (_, pv) = checked
    return PhaseQ(vec_dot(_apply(G.Q, t), pv))


@per_manifold
def linking_matrix(G: GluingData) -> LinkingMatrix:
    """The linking form over the canonical SNF generators, once per manifold.

    gen_i = c_i / d_i, c_i the i-th torsion column of homology_profile(G),
    and P c_j lies in d_j Z^g, so Gamma(gen_i, gen_j) = a_ij / d_i with
    a_ij = <Q c_i, P c_j / d_j> mod d_i, and num[i][j] = a_ij * den / d_i.
    The test suite checks every entry against linking_form, which
    evaluates <Q theta, P vartheta> on the generators directly, and every
    generator against the torsion group's canonical representatives.
    """
    profile = homology_profile(G)
    dims, columns = profile.invariant_factors, profile.torsion_columns
    images = [[x // d for x in _apply(G.P, c)] for c, d in zip(columns, dims)]
    rows = [
        (d_i, [_dot(left, image) % d_i for image in images])
        for left, d_i in zip((_apply(G.Q, c) for c in columns), dims)
    ]
    den = lcm(*(d_i // gcd(a, d_i) for d_i, row in rows for a in row))
    num = tuple([tuple([a * den // d_i for a in row]) for d_i, row in rows])
    return LinkingMatrix._trusted(dims, den, num, columns)


class _Degenerate(ValueError):
    """The Jordan splitting found a degenerate linking form."""


def is_nondegenerate(G: GluingData) -> bool:
    """True iff only the identity pairs to zero with every torsion class.

    A finite linking form has a Jordan splitting exactly when it is
    nondegenerate (Wall, 1963; Kawauchi–Kojima, 1980), so this reads the
    manifold's one splitting (_jordan_splitting), which z_cs reads too,
    and answers False only when that reports a degenerate form; no
    torsion class is enumerated.  Its factoring of the denominator can
    refuse past the enumeration limit (_primary_parts), and that
    ValueError propagates.  A torsion-free manifold gives the empty form,
    which is nondegenerate.
    """
    try:
        _jordan_splitting(G)
    except _Degenerate:
        return False
    return True


@per_manifold
def _jordan_splitting(G: GluingData) -> tuple:
    """_jordan_blocks of linking_matrix(G), once per manifold.

    A tuple of (p, r, rows as tuples), hashable, in the order
    _jordan_blocks gives.  partition.z_cs scales these blocks by each
    level and keys its sums on their square classes (_square_class), so
    no unit is rewritten here.  A degenerate or refused form raises each
    time it is asked for, since per_manifold keeps only values.
    """
    lm = linking_matrix(G)
    return tuple([(p, r, tuple(map(tuple, rows))) for p, r, rows in _jordan_blocks(lm.dims, lm.den, lm.num)])


def _square_class(p: int, r: int, u: int) -> int:
    """The square class of the unit u mod r, r a power of p.

    u mod min(8, r) for p = 2, and for odd p the Legendre symbol (u | p)
    by Euler's criterion, as 1 or p − 1.  u and u·s² have one class for
    every unit s, and units of one class give isomorphic blocks ⟨u/r⟩
    (Wall, 1963).
    """
    return u % min(8, r) if p == 2 else pow(u, (p - 1) // 2, p)


def _primary_parts(n: int) -> list:
    """[(p, q)] with q = p^e the largest power of p dividing n, p increasing.

    By trial division, which stops past _ENUMERATION_LIMIT: a cofactor
    with no prime factor up to the limit raises ValueError, since each of
    its primes heads a Jordan block of more classes than the limit.
    """
    out = []
    p = 2
    while p * p <= n:
        if p > _ENUMERATION_LIMIT:
            raise ValueError(f"every prime factor of {n} exceeds the enumeration limit {_ENUMERATION_LIMIT}")
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, n))
    return out


def _split_primary(p: int, q: int, orders: list, A: list) -> list:
    """Orthogonal splitting of the form A/q on ⊕ ℤ/orders[i], q a power of p.

    Returns [(r, rows)]: the Jordan blocks, each the form rows/r on
    (ℤ/r)^n with n = len(rows) and r a power of p; ⟨u/r⟩ for n = 1 and,
    for p = 2 only, a plane with odd off-diagonal and even diagonal for
    n = 2 (Wall, 1963).  Each step pivots on an entry of least p-adic
    valuation, g = gcd(entry, q), a diagonal one if it can:
    - a diagonal pivot xᵢ splits off ⟨u/r⟩, r = q/g, and the complement
      is spanned by the xⱼ − cⱼxᵢ with Γ(xᵢ, xⱼ) = cⱼΓ(xᵢ, xᵢ); as
      Γ(xᵢ, xⱼ) dies at the order of xⱼ, so does cⱼxᵢ, and every xⱼ keeps
      its order;
    - an off-diagonal pivot (a, b) with odd p replaces xₐ by xₐ + x_b,
      whose Γ(x, x) = Γₐₐ + 2Γₐ_b + Γ_bb has the least valuation, and
      pivots on it next;
    - with p = 2 it splits off the plane ⟨xₐ, x_b⟩, whose determinant has
      valuation exactly twice the least, and the complement by the same
      projection.
    The form is nondegenerate iff each pivot's generators have the order
    r of its block, the largest order left, so xₐ + x_b keeps the order
    of xₐ; anything else raises _Degenerate.  A is modified.
    """
    live = list(range(len(orders)))
    blocks = []
    while live:
        # least valuation first, then diagonal before off-diagonal
        g, off, a, b = min((gcd(A[i][j], q), i != j, i, j) for i in live for j in live if i <= j)
        r = q // g
        pivot = (a, b) if off else (a,)
        if any(orders[i] != r for i in pivot):
            raise _Degenerate(
                f"linking form is degenerate: a generator of order {orders[a]} heads a Jordan block of order {r}"
            )
        if off and p != 2:
            for k in live:
                A[a][k] = (A[a][k] + A[b][k]) % q
            for k in live:
                A[k][a] = (A[k][a] + A[k][b]) % q
            continue
        rows = [[A[i][j] // g % r for j in pivot] for i in pivot]
        blocks.append((r, rows))
        live = [k for k in live if k not in pivot]
        if off:
            (m00, m01), (_, m11) = rows
            det = pow(m00 * m11 - m01 * m01, -1, r)
            inv = [[m11 * det, -m01 * det], [-m01 * det, m00 * det]]
        else:
            inv = [[pow(rows[0][0], -1, r)]]
        # xₖ − Σᵢ coef[i][k]·x_pivot[i] is orthogonal to the pivot generators
        coefs = [[sum(x * A[j][k] for x, j in zip(row, pivot)) // g % r for k in live] for row in inv]
        for c, i in zip(coefs, pivot):
            for j in live:
                x = A[j][i]
                if x:
                    row = A[j]
                    for k, ck in zip(live, c):
                        row[k] = (row[k] - ck * x) % q
    return blocks


def _jordan_blocks(dims, den: int, num) -> list:
    """Jordan splitting of the form Γ(genᵢ, genⱼ) = num[i][j]/den on ⊕ ℤ/dᵢ.

    Returns [(p, r, rows)], p increasing: the form rows/r on (ℤ/r)^n,
    n = len(rows), r a power of p (see _split_primary).  Γ splits
    orthogonally into its p-primary parts, since cross terms have coprime
    orders.  The p-part is spanned by xᵢ = cᵢ·genᵢ, cᵢ the prime-to-p part
    of dᵢ, with gram cᵢcⱼ·num[i][j]/den = A[i][j]/q, q the p-part of den;
    m = den/q divides cᵢcⱼ·num[i][j] because Γ(xᵢ, xⱼ) has p-power order.
    A nondegenerate form has den equal to the exponent lcm(dᵢ) of the
    group and, in rank 1, a unit num[0][0]; a form that lacks either
    raises _Degenerate, as _split_primary does on the other degenerate ones.
    """
    if den != lcm(*dims):
        raise _Degenerate("linking form is degenerate: its denominator is below the exponent of the group")
    if len(dims) == 1 and gcd(num[0][0], den) != 1:
        raise _Degenerate(f"linking form is degenerate: {num[0][0]} is not a unit mod {den}")
    if len(dims) == 1:  # num[0][0] is a unit mod den, so each part is ⟨m·num/q⟩
        return [(p, q, [[den // q * num[0][0] % q]]) for p, q in _primary_parts(den)]
    out = []
    for p, q in _primary_parts(den):
        m = den // q
        part = [(i, d // gcd(d, q)) for i, d in enumerate(dims) if d % p == 0]
        A = [[ci * cj * num[i][j] // m % q for j, cj in part] for i, ci in part]
        out += [(p, r, rows) for r, rows in _split_primary(p, q, [dims[i] // c for i, c in part], A)]
    return out
