"""Partition functions as exact phase multisets, with brute-force oracles.

Z_CS,k is the sum of e^{−2πik·Γ(θ,θ)} over the torsion classes of coker P,
Z_BF,k the double sum over pairs.  Both are returned as PhaseSum values,
an exact multiset over Q/Z stored as integer numerators over one common
denominator; turning them into complex numbers is a separate step
(eval_numeric).  A sum whose multiplicity depends only on gcd(n, L), as
every Z_BF sum does, evaluates exactly to an integer by Ramanujan sums;
any other sum adds its terms with math.fsum.  Either way equal sums give
bit-identical floats whatever the order of their bins.

Neither sum enumerates the torsion group.  Z_CS at level k is the
histogram of the form −k·Γ over T, read off the manifold's one
orthogonal splitting of Γ into p-primary Jordan blocks, ⟨u/pᶠ⟩ and, for
p = 2, planes (Wall, 1963; linking._jordan_splitting, which
is_nondegenerate reads too).  Scaled by −k, the blocks split −k·Γ, and
their square classes fix it up to isomorphism; the histogram is the
PhaseSum product of the scaled blocks' histograms, in integer
arithmetic.  One module table (_CS_SUMS), bounded in bins, keeps one
sum per scaled splitting, so every level and every manifold with an
isomorphic form share it.  By nondegeneracy of the linking form, the
Z_BF multiset follows from the invariant factors alone; it is written
over its reduced denominator by one slice per divisor, once per manifold
for each class of levels with the same gcd(k, d_r), and carries its
exact integer value from then on.  Only the oracles loop over T.
"""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from itertools import product
from math import cos, fsum, gcd, lcm, pi, sin
from operator import index, mul

from .exact import Frozen, PhaseQ, frac_mod1, vec_dot
from .homology import curvature_lattice_basis, homology_profile
from .linking import _jordan_splitting, _primary_parts, _square_class, is_nondegenerate
from .splitting import _ENUMERATION_LIMIT, GluingData, _check_enumerable, per_manifold


class PhaseSum(Frozen, compared=("_den", "_counts")):
    """Exact formal sum of unit phases: a map PhaseQ -> multiplicity >= 1.

    Represents sum over terms of multiplicity * e^{2*pi*i*phase}.  Stored
    as one denominator L and a map {numerator n: multiplicity} with
    0 <= n < L, standing for the phases n/L.  L is reduced by the gcd of
    all numerators (it is the lcm of the phases' reduced denominators, 1
    for the empty sum) and zero multiplicities are dropped, so equality of
    PhaseSum values is equality of the formal sums.  PhaseQ and Fraction
    objects are built only at the edges: the constructors, items,
    to_mapping and repr.  The value eval_numeric computes is kept in a
    slot outside equality, hash and pickling.
    """

    __slots__ = ("_den", "_counts", "_numeric")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for ph, mult in items:
            value = ph.value if isinstance(ph, PhaseQ) else frac_mod1(ph)
            mult = index(mult)
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if mult:
                acc[value] = acc.get(value, 0) + mult
        L = lcm(*(v.denominator for v in acc))
        self._init(L, {v.numerator * (L // v.denominator): m for v, m in acc.items()}, None)

    @classmethod
    def _from_counts(cls, den: int, counts: dict) -> "PhaseSum":
        """Trusted constructor: counts maps n in [0, den) to multiplicity >= 1."""
        g = gcd(den, *counts)
        if g > 1:
            den //= g
            counts = {n // g: m for n, m in counts.items()}
        return cls._canonical(den, counts)

    @classmethod
    def _canonical(cls, den: int, counts: dict) -> "PhaseSum":
        """_from_counts for counts already over their reduced denominator."""
        self = object.__new__(cls)
        set_den, set_counts, set_numeric = cls._setters
        set_den(self, den)
        set_counts(self, counts)
        set_numeric(self, None)  # eval_numeric's value, once computed
        return self

    def __reduce__(self):
        return PhaseSum._from_counts, (self._den, self._counts)

    def items(self) -> tuple:
        """Term list sorted by ascending phase; the canonical order."""
        L = self._den
        return tuple(
            (PhaseQ._wrap(Fraction(n, L)), self._counts[n]) for n in sorted(self._counts)
        )

    @property
    def total_terms(self) -> int:
        """Number of summands counted with multiplicity."""
        return sum(self._counts.values())

    def __len__(self) -> int:
        return len(self._counts)

    def __mul__(self, other: "PhaseSum") -> "PhaseSum":
        """The product of the formal sums: one term α + β per pair of terms.

        Its multiset is the convolution of the two, with multiplicities
        multiplied.  For coprime denominators m and n, ℤ/mn ≅ ℤ/m × ℤ/n,
        so distinct pairs land in distinct bins and the phases' reduced
        denominators multiply: the bins are written once, with no merge
        and no reduction.  Cost len(self)·len(other).
        """
        if not isinstance(other, PhaseSum):
            return NotImplemented
        if not (self._counts and other._counts):
            return PhaseSum()
        m, n = self._den, other._den
        if gcd(m, n) == 1:
            L = m * n
            return PhaseSum._canonical(L, {
                (a * n + b * m) % L: x * y
                for a, x in self._counts.items() for b, y in other._counts.items()
            })
        L = lcm(m, n)
        sa, sb = L // m, L // n
        right = [(b * sb, y) for b, y in other._counts.items()]
        acc = {}
        for a, x in self._counts.items():
            a *= sa
            for b, y in right:
                b = (a + b) % L
                acc[b] = acc.get(b, 0) + x * y
        return PhaseSum._from_counts(L, acc)

    def to_mapping(self) -> dict:
        """JSON-ready dict {\"num/den\": multiplicity}."""
        L = self._den
        out = {}
        for n in sorted(self._counts):
            g = gcd(n, L)
            out[f"{n // g}/{L // g}"] = self._counts[n]
        return out

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._counts.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{ph}: {m}" for ph, m in self.items())
        return f"PhaseSum({{{inner}}})"


def eval_numeric(S: PhaseSum) -> complex:
    """Evaluation to a double-precision complex number.

    A dense sum (every numerator 0 ≤ a < L present) whose multiplicity
    f(a) depends only on gcd(a, L) is evaluated exactly: the numerators
    with gcd(a, L) = e add up to the Ramanujan sum c_{L/e}(1) = μ(L/e), so
    the value is the integer Σ_{e | L} f(e)·μ(L/e).  Every Z_BF sum is
    of this kind, and z_bf stores that integer when it builds the sum, so
    its bins are not read here; a pickled copy, which carries no value,
    finds the same integer on this path.  Every other sum adds mult·cos
    and mult·sin of 2π·(n/L) over its bins with math.fsum, which rounds
    the exact sum once and so does not depend on the order of the bins;
    this path is lossy.  Which path is taken depends on (L, bins) alone,
    so equal PhaseSums give bit-identical floats.  The value is computed
    once per PhaseSum instance and kept on it.
    """
    value = S._numeric
    if value is None:
        value = _evaluate(S._den, S._counts)
        PhaseSum._numeric.__set__(S, value)
    return value


def _evaluate(L: int, counts: dict) -> complex:
    """eval_numeric's value of the sum with these bins over L."""
    if len(counts) == L and (exact := _gcd_class_sum(L, counts)) is not None:
        return complex(exact, 0.0)
    re = []
    im = []
    for n, mult in counts.items():
        ang = 2.0 * pi * (n / L)
        re.append(mult * cos(ang))
        im.append(mult * sin(ang))
    return complex(fsum(re), fsum(im))


def _check_level(k: int):
    if type(k) is not int or k < 1:
        raise ValueError(f"level k must be a positive integer, got {k!r}")


def _block_histogram(p: int, r: int, rows) -> PhaseSum:
    """PhaseSum of Γ(x, x) over the r^n classes of one Jordan block.

    The bins of ⟨u/r⟩, r = p^f, are written in closed form.  The a = p^j·b
    with p ∤ b and 2j < f have u·a² = u·p^{2j}·(b² mod k), k = r/p^{2j}.
    For odd p, b ↦ b² is two-to-one on the cyclic units mod k, so each
    unit b < k/2 gives its own bin, hit by 2·p^j of these a.  For p = 2
    the unit squares mod k are the 1 + 8t for k ≥ 8, each hit by 4·2^j,
    and just 1 for k ≤ 4, hit by (k/2)·2^j.  The a ≡ 0 mod p^{⌈f/2⌉}
    give 0.  A 2-adic plane is enumerated.  z_cs checks the r^n classes
    against _ENUMERATION_LIMIT first.
    """
    if len(rows) == 2:
        (s, t), (_, w) = rows
        counts = Counter()
        for a in range(r):
            base, lin = s * a * a, 2 * t * a
            counts.update([(base + lin * b + w * b * b) % r for b in range(r)])
        return PhaseSum._from_counts(r, counts)
    u = rows[0][0]  # a unit, so the bin of u·1² is too and r is already reduced
    counts = {}
    k, hits = r, 1  # hits = p^j
    while k > 1:
        if p != 2:
            # a b divisible by p lands on a bin of a larger j, or on 0, and the
            # later write of that bin sets its count
            counts.update(dict.fromkeys([u * b * b % r for b in range(1, (k + 1) // 2)], 2 * hits))
        elif k >= 8:
            counts.update(dict.fromkeys([u * b % r for b in range(1, k, 8)], 4 * hits))
        else:
            counts[u % r] = k // 2 * hits
        u, k, hits = u * p * p, k // (p * p), hits * p
    counts[0] = r // hits
    return PhaseSum._canonical(r, counts)


def _jordan_histogram(blocks) -> PhaseSum:
    """PhaseSum of Γ(θ,θ) over the group of these Jordan blocks.

    blocks is a Jordan splitting [(p, r, rows)] (linking._jordan_blocks).
    Γ(θ,θ) of an orthogonal sum is the sum of the parts' values, so the
    histogram is the PhaseSum product of the histograms of the blocks.
    The work is the classes of the largest block, which z_cs checks
    against _ENUMERATION_LIMIT, and the bin pairs of each product, both
    at most |T|; each product is checked here before it is spent.
    """
    hist = None
    for p, r, rows in blocks:
        block = _block_histogram(p, r, rows)
        if hist is None:
            hist = block
        else:
            _check_enumerable("block product bin pairs", len(hist) * len(block))
            hist = hist * block
    return hist if hist is not None else PhaseSum._canonical(1, {0: 1})


# z_cs's key, the splitting of −k·Γ by square classes, -> its PhaseSum
_CS_SUMS = {}
_CS_BINS = [0]  # bins held in _CS_SUMS


def z_cs(G: GluingData, k: int) -> PhaseSum:
    """Exact CS partition sum: one term −k·Γ(θ,θ) per torsion class.

    The sum is the histogram of the form −k·Γ over T, read off G's one
    Jordan splitting (linking._jordan_splitting) with no loop over T.
    For a block ⟨u/pᶠ⟩, or a plane, of rank n write −k = pʲ·m with
    p ∤ m and j ≤ f.  On it −k·Γ takes each value of ⟨m·u/q⟩ (of the
    plane m·rows/q), q = p^{f−j}, on p^{j·n} classes; a block with
    q = 1 is 0 on all of its classes.  Units u and u·s² give isomorphic
    blocks, so ⟨m·u/q⟩ is fixed by q and the square class of m·u
    (linking._square_class), and the plane m·rows/q is isomorphic to
    rows/q, since m² ≡ 1 mod 8 keeps the class of its determinant
    (Wall, 1963).  The key of one module table (_CS_SUMS) lists, per
    block, pᶠ, q and that class (a plane's rows, n if q = 1), so it also
    fixes the multiplicity Π p^{j·n}.  On a miss the sum is the product
    of the histograms (_jordan_histogram) of the scaled blocks ⟨m·u/q⟩,
    built from the block's own unit, and of the planes rows/q, each bin
    times the multiplicity; isomorphic blocks have one histogram, so the
    entry does not depend on which manifold or level missed first.  So
    k and k·s² for a unit s, and every manifold with an isomorphic form
    and the same block orders, get one PhaseSum object, which
    eval_numeric evaluates once.  The table holds no
    reference to any manifold and at most _ENUMERATION_LIMIT bins: an
    insert that would pass that empties it first.  The identity class
    contributes phase 0, so the sphere normalizes to {0: 1}.  A Jordan
    block of G past _ENUMERATION_LIMIT classes, at every level, or a
    product of scaled blocks' histograms past it raises ValueError; a
    hit has the block orders of the miss that passed those checks.
    """
    _check_level(k)
    blocks = _jordan_splitting(G)
    key = ()
    for p, r, rows in blocks:
        q, m = r, -k
        while m % p == 0 and q > 1:
            q //= p
            m //= p
        if q == 1:  # the block adds only to the multiplicity
            key += r, 1, len(rows)
        elif len(rows) == 1:
            key += r, q, _square_class(p, q, m * rows[0][0])
        else:
            key += r, q, rows
    S = _CS_SUMS.get(key)
    if S is None:
        mult, scaled = 1, []
        for (p, r, rows), q in zip(blocks, key[1::3]):
            n = len(rows)
            _check_enumerable("Jordan block order" if n == 1 else "Jordan plane order", r**n)
            mult *= (r // q) ** n
            if q > 1:  # m = −k/pʲ with pʲ = r/q, as in the key
                scaled.append((p, q, rows if n == 2 else ((-k // (r // q) * rows[0][0] % q,),)))
        S = _jordan_histogram(scaled)
        if mult > 1:
            S = PhaseSum._canonical(S._den, {x: c * mult for x, c in S._counts.items()})
        if _CS_BINS[0] + len(S) > _ENUMERATION_LIMIT:
            _CS_SUMS.clear()
            _CS_BINS[0] = 0
        _CS_BINS[0] += len(S)
        _CS_SUMS[key] = S
    return S


def _divisors(n: int) -> list:
    """Positive divisors of n in increasing order, from its prime powers."""
    divisors = [1]
    for p, q in _primary_parts(n):
        layer = divisors
        while q > 1:
            layer = [d * p for d in layer]
            divisors += layer
            q //= p
    return sorted(divisors)


def _peel(divisors, f) -> dict:
    """Möbius inversion of f over divisors, the divisors of n in increasing order.

    Returns g with f(m) = Σ_{e | m} g(e) for every listed m: each g(m) is
    f(m) less the g of the proper divisors of m, which come before m, so
    g(m) = Σ_{e | m} μ(m/e)·f(e).  Cost O(#divisors²).
    """
    g = {}
    for m in divisors:
        g[m] = f(m) - sum(c for e, c in g.items() if m % e == 0)
    return g


def _gcd_class_fill(L: int, divisors, value) -> list:
    """The list a ↦ value(gcd(a, L)) over 0 ≤ a < L, by slice writes.

    One write per divisor e, in increasing order, covers the multiples of
    e; each a is written last by the largest divisor it is a multiple of,
    which is gcd(a, L).  Cost σ(L) element writes.
    """
    arr = [0] * L
    for e in divisors:
        arr[::e] = [value(e)] * (L // e)
    return arr


def _gcd_class_sum(L: int, counts: dict):
    """Σ_a counts[a]·e^{2πi·a/L} as an exact integer, or None.

    counts holds every 0 ≤ a < L.  If counts[a] = f(gcd(a, L)), the sum
    is Σ_{m | L} g(m)·Σ_{a ≡ 0 mod m} e^{2πi·a/L} with g = _peel(f), since
    f(gcd(a, L)) = Σ_{m | gcd(a, L)} g(m).  The inner sum is 1 for m = L
    and 0 for every other m, so the total is g(L) = Σ_{e | L} f(e)·μ(L/e),
    which is returned; otherwise None.
    """
    arr = [counts[a] for a in range(L)]
    divisors = _divisors(L)
    f = lambda e: arr[e % L]
    if _gcd_class_fill(L, divisors, f) != arr:
        return None
    return _peel(divisors, f)[L]


def z_bf(G: GluingData, k: int) -> PhaseSum:
    """Exact BF partition sum: one term −k·Γ(θ,ϑ) per ordered torsion pair.

    Depends on k only through g = gcd(k, d_r): writing k = g·u, u is a
    unit modulo d_r/g, so kθ and gθ have the same order for every θ and
    the sums at k and at g are equal.  The level is checked, and d_r
    against the enumeration limit, before anything is looked up; the sum
    of class g is then built once per manifold (_z_bf_class), with its
    exact integer value already in place for eval_numeric, and every
    level of the class returns that same object.  G keeps at most one
    sum per divisor of d_r, σ(d_r) bins in all, and frees them with G.
    """
    _check_level(k)
    dims = homology_profile(G).invariant_factors
    top = dims[-1] if dims else 1
    _check_enumerable("d_r", top)
    return _z_bf_class(G, gcd(k, top))


@per_manifold
def _z_bf_class(G: GluingData, k: int) -> PhaseSum:
    """Z_BF at a level k that divides d_r, from the invariant factors alone.

    Γ is nondegenerate, so for fixed θ the map ϑ ↦ −k·Γ(θ,ϑ) is a
    character of order n = ord(kθ) and hits each phase j/n exactly |T|/n
    times.  Every such n divides L = d_r/k, the exponent of kT, and
    n = L occurs, so the sum is dense over L.  The number of θ with
    ord(kθ) dividing n is Π gcd(nk, d_i); peeling off the counts of
    proper divisors (_peel) leaves by_order[n], the number with
    ord(kθ) = n.  The numerator a over L then has multiplicity
    Σ_{b | n | L} #{ord(kθ) = n}·|T|/n with b = L/gcd(a, L), which
    _gcd_class_fill writes in O(σ(L)) slice writes.  The sum holds the
    numerator 1 (or is {0: |T|²} when L = 1), so it is already over its
    reduced denominator.  Its value is the integer _gcd_class_sum would
    find in these bins, Σ_{e | L} mult(e)·μ(L/e), and it is stored on the
    sum here, so eval_numeric never reads the L bins; a value past the
    range of a float is left for eval_numeric to refuse, as before.  Cost
    O(#divisors(L)² + σ(L)).
    """
    profile = homology_profile(G)
    dims = profile.invariant_factors
    L = (dims[-1] if dims else 1) // k
    divisors = _divisors(L)
    by_order = _peel(divisors, lambda n: profile.kernel_count(n * k))
    size = profile.torsion_order

    mult = {  # multiplicity of the numerators a with gcd(a, L) = e
        e: sum(c * size // n for n, c in by_order.items() if n % (L // e) == 0) for e in divisors
    }
    S = PhaseSum._canonical(L, dict(enumerate(_gcd_class_fill(L, divisors, mult.__getitem__))))
    try:
        PhaseSum._numeric.__set__(S, complex(_peel(divisors, mult.__getitem__)[L], 0.0))
    except OverflowError:
        pass
    return S


def z_bf_closed_form(G: GluingData, k: int) -> int:
    """torsion_order × |{θ : kθ = 0}|, valid because Γ is nondegenerate.

    For each θ the inner sum over ϑ is a full character sum of ϑ ↦
    −k·Γ(θ,ϑ), which vanishes unless kθ pairs trivially with everything,
    i.e. unless kθ = 0 by nondegeneracy.
    """
    _check_level(k)
    if not is_nondegenerate(G):
        raise ValueError("linking form is degenerate; the closed form does not apply")
    profile = homology_profile(G)
    return profile.torsion_order * profile.kernel_count(k)


def gauss_sum_oracle(p: int, q: int, k: int) -> complex:
    """Direct quadratic Gauss sum: sum over a of e^{−2πi·k·q·a²/p}.

    Independent of every exact-arithmetic code path; exponents are reduced
    mod p before hitting floating point so the 1e−9 comparisons are easy.
    p above _ENUMERATION_LIMIT raises ValueError.
    """
    p, q = index(p), index(q)
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_enumerable("p", p)
    _check_level(k)
    if gcd(p, q) != 1:
        raise ValueError(f"gauss_sum_oracle({p}, {q}, ...) requires gcd(p, q) = 1")
    return sum(
        cmath.exp(-2j * pi * ((k * q * a * a) % p) / p) for a in range(p)
    )


def _torsion_factor(G: GluingData, k: int) -> complex:
    """Σ_θ e^{−2πik·Γ(θ,θ)} over T by a literal loop in integers.

    The grid oracle's torsion factor; it reads neither linking_matrix nor
    z_cs.  The class of multi-index a, in TorsionElements order (last
    index fastest), is θ = y/d_r with y = Σ aᵢgᵢ, gᵢ = (d_r/dᵢ)·cᵢ and cᵢ
    the torsion columns of homology_profile.  P·cᵢ ∈ dᵢℤ^g is checked once
    per generator, which makes every θ a torsion representative and
    Γ(θ,θ) = yᵀ(QᵀP)y/d_r² = aᵀBa/d_r² mod 1 with the r × r matrix
    Bᵢⱼ = ⟨Qgᵢ, Pgⱼ⟩ mod d_r², formed once, so a class costs O(r²), not
    O(g²).  Each term is the float of the rational k·Γ(θ,θ) mod 1 that
    linking_form gives, so the terms and the total are bit-identical to
    a loop over linking_form in Fractions.
    """
    profile = homology_profile(G)
    dims, columns = profile.invariant_factors, profile.torsion_columns
    if any(x % d for c, d in zip(columns, dims) for x in G.P.apply(c)):
        raise ValueError("a torsion column c_i has P·c_i outside d_i·Z^g")
    top = dims[-1] if dims else 1
    D2 = top * top
    gens = [[top // d * x for x in c] for c, d in zip(columns, dims)]
    images = [G.P.apply(gen) for gen in gens]
    B = [[sum(map(mul, left, im)) % D2 for im in images] for left in map(G.Q.apply, gens)]
    total = 0j
    for a in product(*map(range, dims)):
        v = sum(map(mul, a, [sum(map(mul, row, a)) for row in B]))
        total += cmath.exp(-2j * pi * ((k * v) % D2 / D2))
    return total


def free_mode_grid_oracle(G: GluingData, k: int, grid_n: int, m_window: int) -> complex:
    """Brute-force check of the free-mode delta reduction.

    Sums curvature labels m over a coefficient window of the ker P†
    lattice and averages the free flat mode over a uniform grid, with
    holonomies pinned to zero.  The free modes are the integer kernel
    columns of homology_profile.  On a grid coprime to 2k·m_window the
    average reproduces the Kronecker delta, only m = 0 survives, and the
    value must land on eval_numeric(z_cs(G, k)).  The torsion factor is
    _torsion_factor's literal loop over T.  The window loop runs in
    integers too and rounds each term's phase once, so its terms are
    bit-identical to the same loop in Fractions.

    A second, sharper guard raises if any nonzero m in the window would
    alias to zero on the chosen grid (including m with B_f†m = 0), so a
    passing run certifies the delta reduction rather than assuming it.
    |T| or (2·m_window + 1)^b1 · grid_n^b1 terms past _ENUMERATION_LIMIT raise ValueError.
    """
    _check_level(k)
    grid_n = index(grid_n)
    m_window = index(m_window)
    if grid_n < 1:
        raise ValueError("grid_n must be at least 1")
    if m_window < 0:
        raise ValueError("m_window must be nonnegative")
    profile = homology_profile(G)
    _check_enumerable("|T|", profile.torsion_order)
    b1 = profile.b1
    pairings = []  # 2k·<f, m> over the free basis, per window label m
    if b1:
        # every refusal comes before the |T| loop, which the CLI's grid ladder repeats
        if gcd(grid_n, 2 * k * m_window) != 1:
            raise ValueError(
                f"grid_n = {grid_n} must be coprime to 2*k*m_window = {2 * k * m_window}"
            )
        _check_enumerable("window labels x grid points", ((2 * m_window + 1) * grid_n) ** b1)
        lattice = curvature_lattice_basis(G)
        free_basis = profile.kernel_columns
        g = G.genus
        for coeffs in product(range(-m_window, m_window + 1), repeat=b1):
            m = tuple(
                sum(c * lattice[j][i] for j, c in enumerate(coeffs)) for i in range(g)
            )
            w = [2 * k * vec_dot(f, m) for f in free_basis]
            if any(coeffs) and all(wc % grid_n == 0 for wc in w):
                raise ValueError(
                    "grid aliasing: a nonzero curvature label survives the grid "
                    "average; enlarge grid_n"
                )
            pairings.append(w)
    torsion_part = _torsion_factor(G, k)
    if b1 == 0:
        return torsion_part
    # each term's phase is the rational ⟨t, w⟩/grid_n mod 1, held as its
    # integer numerator; int / int rounds it once, as float(Fraction) does
    total = 0j
    for w in pairings:
        avg = 0j
        for tvec in product(range(grid_n), repeat=b1):
            avg += cmath.exp(-2j * pi * (sum(map(mul, tvec, w)) % grid_n / grid_n))
        total += (avg / grid_n**b1) * torsion_part
    return total
