"""Independent brute-force oracles used to cross-check the library.

Everything here works on plain lists of ints and was written against the
definitions, not against the library code: no imports from the package, no
shared helpers.  Slow on purpose; only run on small inputs.
"""

import cmath
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import cos, fsum, gcd, lcm, pi, prod, sin


def det_laplace(rows):
    """Determinant by cofactor expansion.  Exponential; fine for n <= 6."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * det_laplace(minor)
    return total


def minor_gcd_diagonal(rows, cols_n=None):
    """Smith diagonal via determinantal divisors: d_k = g_k / g_{k-1}.

    g_k is the gcd of all k x k minors.  This pins the canonical diagonal
    without doing any row reduction, so it cannot share a bug with an
    elimination-based implementation.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    prev = 1
    diag = []
    for k in range(1, min(n, m) + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(det_laplace(sub)))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    diag += [0] * (min(n, m) - len(diag))
    return diag


def assert_smith_certificate(rows, diag, v_inverse):
    """Check that diag and v_inverse come from a Smith form A = U·D·V of rows.

    v_inverse is a list of rows of V⁻¹.  The four checks hold exactly when
    some unimodular U and V give A = U·D·V with D = diag(diag) and V⁻¹ the
    given matrix: (i) diag is the determinantal-divisor diagonal; (ii) V⁻¹
    is unimodular; (iii) column j of A·V⁻¹ is dⱼ·uⱼ for an integer uⱼ when
    j < rank and zero otherwise; (iv) the uⱼ extend to a unimodular U, i.e.
    the matrix of them has Smith diagonal all 1s.
    """
    n = len(rows)
    m = len(rows[0])
    assert list(diag) == minor_gcd_diagonal(rows), "canonical diagonal"
    assert abs(det_laplace([list(r) for r in v_inverse])) == 1, "V⁻¹ unimodular"
    rank = sum(1 for d in diag if d)
    av = [[sum(rows[i][k] * v_inverse[k][j] for k in range(m)) for j in range(m)] for i in range(n)]
    for j in range(m):
        column = [av[i][j] for i in range(n)]
        if j < rank:
            assert all(x % diag[j] == 0 for x in column), f"column {j} of A·V⁻¹ not divisible by d{j}"
        else:
            assert not any(column), f"column {j} of A·V⁻¹ past the rank is nonzero"
    if rank:
        quotients = [[av[i][j] // diag[j] for j in range(rank)] for i in range(n)]
        assert minor_gcd_diagonal(quotients) == [1] * rank, "A·V⁻¹·D⁺ does not extend to unimodular U"


def mixed_radix(i, dims):
    """Multi-index of element number i, last index fastest."""
    index = []
    for d in reversed(dims):
        i, a = divmod(i, d)
        index.append(a)
    return tuple(reversed(index))


def index_sum(dims, *elements):
    """Multi-index of the group sum of the given element numbers."""
    return tuple(sum(xs) % d for *xs, d in zip(*(mixed_radix(i, dims) for i in elements), dims))


def same_torsion_class(p_rows, theta, theta_prime):
    """True when θ and θ′ (P·θ and P·θ′ integral) name one class of coker P.

    The class of θ is P·θ mod P·ℤ^g, so they agree iff v = P·(θ − θ′) lies
    in the column lattice of P.  v lies in the rational span of the
    columns, so appending it keeps the rank r, and the gcd of the r × r
    minors (the product of the nonzero determinantal-divisor diagonal) is
    the index of a column lattice in its saturation: it stays the same
    exactly when the lattice does.
    """
    diff = [Fraction(a) - Fraction(b) for a, b in zip(theta, theta_prime)]
    v = [sum(a * x for a, x in zip(row, diff)) for row in p_rows]
    if any(x.denominator != 1 for x in v):
        raise ValueError("not a torsion representative: P·θ is not integral")
    extended = [list(row) + [int(x)] for row, x in zip(p_rows, v)]
    return prod(d for d in minor_gcd_diagonal(extended) if d) == prod(
        d for d in minor_gcd_diagonal(p_rows) if d
    )


def adjugate(rows):
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            out[j][i] = (-1) ** (i + j) * det_laplace(minor)
    return out


def cokernel_order_multiset(rows):
    """Element orders of Z^n / A Z^n for square A with det != 0.

    Cosets are labeled canonically by adj(A) @ x mod |det| (injective since
    adj(A) A = det I), the label group is closed by breadth-first addition,
    and each element's order is read off componentwise.  Works whenever
    |det| is small enough to enumerate.
    """
    n = len(rows)
    d = abs(det_laplace(rows))
    if d == 0:
        raise ValueError("cokernel enumeration needs det != 0")
    adj = adjugate(rows)
    gens = [tuple(adj[i][j] % d for i in range(n)) for j in range(n)]
    group = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        x = frontier.pop()
        for gvec in gens:
            y = tuple((a + b) % d for a, b in zip(x, gvec))
            if y not in group:
                group.add(y)
                frontier.append(y)
    assert len(group) == d, (len(group), d)
    orders = []
    for x in group:
        orders.append(lcm(*(d // gcd(d, c) for c in x)) if any(x) else 1)
    return sorted(orders)


def abelian_order_multiset(factors):
    """Element orders of the direct sum of Z_{d} over the given factors."""
    dims = [d for d in factors if d > 1]
    orders = []
    for combo in product(*(range(d) for d in dims)) if dims else [()]:
        if not combo or not any(combo):
            orders.append(1)
        else:
            orders.append(lcm(*(d // gcd(d, c) for d, c in zip(dims, combo))))
    return sorted(orders)


def _prime_powers(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n):
    """μ(n) from the trial-division factorization of n: 0 unless squarefree."""
    powers = _prime_powers(n)
    return 0 if any(e > 1 for e in powers.values()) else (-1) ** len(powers)


def merge_invariant_factors(a, b):
    """Invariant factors of the direct sum of two torsion groups.

    Done per prime: collect all exponents, pad, sort, and zip back, which
    is the textbook primary-decomposition route rather than another SNF.
    """
    exps = {}
    for factors in (a, b):
        for d in factors:
            for p, e in _prime_powers(d).items():
                exps.setdefault(p, []).append(e)
    width = max((len(v) for v in exps.values()), default=0)
    merged = [1] * width
    for p, es in exps.items():
        es = sorted(es) + [0] * (width - len(es))
        es = sorted(es)
        for slot, e in enumerate(es):
            merged[slot] *= p**e
    return [d for d in merged if d > 1]


def plain_anti_symplectic(r, p, s, q):
    """M† J M == -J on plain lists, reimplemented from scratch."""
    g = len(r)

    def matmul(a, b):
        return [
            [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))
        ]

    m = [list(r[i]) + list(p[i]) for i in range(g)] + [
        list(s[i]) + list(q[i]) for i in range(g)
    ]
    jm = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        jm[i][g + i] = 1
        jm[g + i][i] = -1
    mt = [[m[j][i] for j in range(2 * g)] for i in range(2 * g)]
    left = matmul(matmul(mt, jm), m)
    return left == [[-x for x in row] for row in jm]


def two_sided_relation_violations(r, p, s, q):
    """The six block relations on plain lists, each side by its own products.

    Twelve products, none shared between the two sides of a relation.  A
    failed relation gives "lhs = <value> ≠ <value> = rhs", or
    "lhs = <value> ≠ 1" against the identity; a 1 × 1 value prints as its
    entry and a larger one as its list of rows.
    """
    g = len(r)

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(g)) for j in range(g)] for i in range(g)]

    def tr(a):
        return [[a[j][i] for j in range(g)] for i in range(g)]

    def minus(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def show(a):
        return str(a[0][0]) if g == 1 else str(a)

    one = [[int(i == j) for j in range(g)] for i in range(g)]
    out = []
    for name, lhs, rhs in (
        ("Q†P = P†Q", mul(tr(q), p), mul(tr(p), q)),
        ("P†S − Q†R = 1", minus(mul(tr(p), s), mul(tr(q), r)), one),
        ("S†R = R†S", mul(tr(s), r), mul(tr(r), s)),
        ("RP† = PR†", mul(r, tr(p)), mul(p, tr(r))),
        ("SP† − QR† = 1", minus(mul(s, tr(p)), mul(q, tr(r))), one),
        ("SQ† = QS†", mul(s, tr(q)), mul(q, tr(s))),
    ):
        a, b = name.split(" = ")
        if lhs != rhs:
            out.append(f"{a} = {show(lhs)} ≠ 1" if b == "1" else f"{a} = {show(lhs)} ≠ {show(rhs)} = {b}")
    return out


@lru_cache(maxsize=None)
def _bf_pair_counts(dims, gram_num, L):
    """#{(a, b) : a·gram·b ≡ n (mod L)} over all ordered pairs of multi-indices."""
    r = len(dims)
    elements = list(product(*(range(d) for d in dims)))
    counts = {}
    for a in elements:
        row = [sum(a[i] * gram_num[i][j] for i in range(r)) for j in range(r)]
        for b in elements:
            n = sum(row[j] * b[j] for j in range(r)) % L
            counts[n] = counts.get(n, 0) + 1
    return counts


def bf_pair_histogram(dims, gram_num, L, k):
    """Brute-force Z_BF multiset {phase: multiplicity} over all ordered pairs.

    dims are the orders of the torsion generators and gram_num[i][j] / L
    their linking numbers.  Every pair (θ, ϑ) contributes the phase
    −k·Γ(θ, ϑ) mod 1, returned as a reduced Fraction in [0, 1).  The
    k-independent pair count is cached so several levels of one group
    share the |T|² loop.
    """
    counts = _bf_pair_counts(tuple(dims), tuple(map(tuple, gram_num)), L)
    hist = {}
    for n, c in counts.items():
        phase = Fraction((-k * n) % L, L)
        hist[phase] = hist.get(phase, 0) + c
    return hist


def diag_quad_counts(dims, gram_num, L):
    """Histogram {n: count} of L·Γ(θ,θ) mod L over every θ = Σ a_i·gen_i.

    dims are the orders of the generators and gram_num[i][j] / L their
    linking numbers.  Enumerates the group with the last index innermost:
    for a fixed prefix the form is base + lin·a + gram_num[r][r]·a², so
    the inner loop is a single comprehension over a.
    """
    *outer, last = dims
    r = len(dims) - 1
    squares = [gram_num[r][r] * a * a for a in range(last)]
    out = Counter()
    for prefix in product(*(range(d) for d in outer)):
        base = 0
        lin = 0
        for i, ai in enumerate(prefix):
            if ai:
                row = gram_num[i]
                base += row[i] * ai * ai
                for j in range(i + 1, r):
                    base += 2 * row[j] * ai * prefix[j]
                lin += 2 * row[r] * ai
        out.update([(base + lin * a + sq) % L for a, sq in enumerate(squares)])
    return out


def radical_order_scan(dims, gram_num, L):
    """#{a : Σ_i a_i·gram_num[i][j] ≡ 0 (mod L) for every j} over all multi-indices.

    The radical of the form gram_num / L on the group of the given dims,
    counted by testing each class against every generator, which by
    bilinearity is the same as testing it against every class.
    """
    r = len(dims)
    return sum(
        1
        for a in product(*(range(d) for d in dims))
        if all(sum(a[i] * gram_num[i][j] for i in range(r)) % L == 0 for j in range(r))
    )


def radical_order_smith(dims, L, gram_num):
    """Order of the radical of the form gram_num / L on ⊕ ℤ/dᵢ, from a Smith form.

    a ∈ ℤ^r lies in the radical lattice iff gᵀa ∈ Lℤ^r, g = gram_num.  With
    the Smith form g = U·E·V, gᵀℤ^r + Lℤ^r = Vᵀ(Eℤ^r + Lℤ^r), so a ↦ gᵀa
    takes Π L / gcd(eᵢ, L) values mod L, eᵢ the diagonal of E (here from
    the determinantal divisors).  Since dᵢ·g_ij ≡ 0 (mod L), the lattice
    ⊕ dᵢℤ lies in the radical lattice, so the radical has
    |T|·Π gcd(eᵢ, L) / L^r elements.
    """
    return prod(dims) * prod(gcd(e, L) for e in minor_gcd_diagonal(gram_num)) // L ** len(dims)


def fsum_phase_value(den, counts):
    """Σ mult·e^{2πi·n/den} over {n: mult}, as the plain cos/sin loop.

    Real and imaginary parts are each added with math.fsum, so the float
    is the correctly rounded sum of the rounded terms, in any bin order.
    """
    re = []
    im = []
    for n, mult in counts.items():
        ang = 2.0 * pi * (n / den)
        re.append(mult * cos(ang))
        im.append(mult * sin(ang))
    return complex(fsum(re), fsum(im))


def fraction_torsion_factor(q_rows, p_rows, reps, k):
    """Σ e^{−2πik·⟨Qθ, Pθ⟩} over the representatives θ, in Fractions.

    The literal loop of the grid oracle's torsion factor: each θ must have
    P·θ integral, ⟨Qθ, Pθ⟩ and k times it are reduced mod 1 as Fractions,
    and only that rational becomes a float, inside cmath.exp.  Terms are
    added in the order of reps.
    """
    total = 0j
    for rep in reps:
        theta = [Fraction(x) for x in rep]
        p_theta = [sum(a * t for a, t in zip(row, theta)) for row in p_rows]
        if any(x.denominator != 1 for x in p_theta):
            raise ValueError("not a torsion representative: P·θ is not integral")
        q_theta = [sum(a * t for a, t in zip(row, theta)) for row in q_rows]
        gamma = sum(a * b for a, b in zip(q_theta, p_theta)) % 1
        total += cmath.exp(-2j * pi * float(k * gamma % 1))
    return total


def g_coordinate_torsion_factor(q_rows, p_rows, dims, columns, k):
    """Σ e^{−2πik·yᵀ(QᵀP)y/d_r²} over the multi-indices a, in g coordinates.

    The grid oracle's torsion factor as a loop over T that works in the
    g coordinates of each class: y = Σ aᵢ·(d_r/dᵢ)·cᵢ mod d_r with cᵢ the
    given torsion columns, then yᵀ(QᵀP)y with QᵀP built once as a g × g
    matrix, O(g²) per class.  Multi-indices run in itertools order (last
    index fastest).  The exponent k·v mod d_r² is an integer over d_r²,
    and only that ratio becomes a float, inside cmath.exp.  Each cᵢ must
    have P·cᵢ in dᵢℤ^g.
    """
    g = len(p_rows)
    for c, d in zip(columns, dims):
        if any(sum(a * x for a, x in zip(row, c)) % d for row in p_rows):
            raise ValueError("a torsion column c_i has P·c_i outside d_i·Z^g")
    top = dims[-1] if dims else 1
    gens = [[top // d * x for x in c] for c, d in zip(columns, dims)]
    form = [[sum(q_rows[m][i] * p_rows[m][j] for m in range(g)) for j in range(g)] for i in range(g)]
    D2 = top * top
    total = 0j
    for a in product(*map(range, dims)):
        y = [sum(ai * gen[c] for ai, gen in zip(a, gens)) % top for c in range(g)]
        v = sum(yi * sum(f * yj for f, yj in zip(row, y)) for yi, row in zip(y, form))
        total += cmath.exp(-2j * pi * ((k * v) % D2 / D2))
    return total


def fraction_grid_window(lattice, free_basis, k, grid_n, m_window, torsion_part):
    """The grid oracle's window loop for b1 > 0, in Fractions.

    For each coefficient vector in [−m_window, m_window]^b1 (itertools
    order), m = Σ cⱼ·latticeⱼ and w = ⟨f, m⟩ per free basis vector f; the
    grid average over t ∈ [0, grid_n)^b1 adds e^{−2πi·(2k·⟨t, w⟩/grid_n
    mod 1)} with that rational reduced as a Fraction and only then made a
    float.  Returns Σ_m (average / grid_n^b1)·torsion_part, summed in the
    same order as the library loop.  No aliasing check.
    """
    b1 = len(lattice)
    g = len(lattice[0]) if lattice else 0
    total = 0j
    for coeffs in product(range(-m_window, m_window + 1), repeat=b1):
        m = [sum(c * lattice[j][i] for j, c in enumerate(coeffs)) for i in range(g)]
        w = [sum(Fraction(a) * b for a, b in zip(f, m)) for f in free_basis]
        avg = 0j
        for tvec in product(range(grid_n), repeat=b1):
            dot = Fraction(sum(tc * wc for tc, wc in zip(tvec, w)), grid_n)
            avg += cmath.exp(-2j * pi * float(2 * k * dot % 1))
        total += (avg / grid_n**b1) * torsion_part
    return total
