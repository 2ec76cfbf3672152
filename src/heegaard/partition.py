"""Partition functions as exact phase multisets, with brute-force oracles.

Z_CS,k is the sum of e^{−2πik·Γ(θ,θ)} over the torsion classes of coker P,
Z_BF,k the double sum over pairs.  Both are returned as PhaseSum values,
an exact multiset over Q/Z; turning them into complex numbers is a
separate, lossy step (eval_numeric).

Z_CS enumerates the torsion classes in integer arithmetic modulo the
common denominator L of the linking gram.  Z_BF needs no enumeration: by
nondegeneracy of the linking form its multiset follows from the invariant
factors alone.
"""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from itertools import product
from math import cos, gcd, pi, sin

from .exact import PhaseQ, frac_mod1, vec_dot
from .homology import curvature_lattice_basis, homology_profile, torsion_elements
from .linking import gram_integerized, is_nondegenerate, linking_form
from .splitting import GluingData


class PhaseSum:
    """Exact formal sum of unit phases: a map PhaseQ -> multiplicity >= 1.

    Represents sum over terms of multiplicity * e^{2*pi*i*phase}.  The
    representation is canonical (phases reduced into [0,1), no zero
    multiplicities), so equality of PhaseSum values is equality of the
    formal sums.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for ph, mult in items:
            if not isinstance(ph, PhaseQ):
                ph = PhaseQ(ph)
            mult = int(mult)
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if mult:
                acc[ph] = acc.get(ph, 0) + mult
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, name, value):
        raise AttributeError("PhaseSum is immutable")

    @classmethod
    def from_phases(cls, phases) -> "PhaseSum":
        return cls(Counter(phases))

    def items(self) -> tuple:
        """Term list sorted by ascending phase; the canonical order."""
        return tuple(sorted(self._terms.items(), key=lambda kv: kv[0].value))

    def multiplicity(self, phase: PhaseQ) -> int:
        return self._terms.get(phase, 0)

    @property
    def total_terms(self) -> int:
        """Number of summands counted with multiplicity."""
        return sum(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, phase) -> bool:
        return phase in self._terms

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        merged = dict(self._terms)
        for ph, mult in other._terms.items():
            merged[ph] = merged.get(ph, 0) + mult
        return PhaseSum(merged)

    def shift(self, phase: PhaseQ) -> "PhaseSum":
        """Multiply the whole sum by e^{2*pi*i*phase}."""
        return PhaseSum({ph + phase: mult for ph, mult in self._terms.items()})

    def conjugate(self) -> "PhaseSum":
        return PhaseSum({-ph: mult for ph, mult in self._terms.items()})

    def to_mapping(self) -> dict:
        """JSON-ready dict {\"num/den\": multiplicity}."""
        return {str(ph): mult for ph, mult in self.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, PhaseSum) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{ph}: {m}" for ph, m in self.items())
        return f"PhaseSum({{{inner}}})"


def eval_numeric(S: PhaseSum) -> complex:
    """Lossy evaluation to a double-precision complex number.

    Terms are added in a fixed order (by denominator, then numerator) so
    the result is reproducible bit for bit.
    """
    re = 0.0
    im = 0.0
    terms = sorted(
        S._terms.items(), key=lambda kv: (kv[0].value.denominator, kv[0].value.numerator)
    )
    for ph, mult in terms:
        ang = 2.0 * pi * (ph.value.numerator / ph.value.denominator)
        re += mult * cos(ang)
        im += mult * sin(ang)
    return complex(re, im)


def _check_level(k: int):
    if type(k) is not int or k < 1:
        raise ValueError(f"level k must be a positive integer, got {k!r}")


_zcs_cache: dict = {}


def _diag_quad_counts(dims, gram, L, mk) -> Counter:
    """Histogram of (mk * Gamma-quadratic-form) mod L over the torsion group."""
    r = len(dims)
    out = Counter()
    for a in product(*(range(d) for d in dims)):
        q = 0
        for i in range(r):
            ai = a[i]
            if ai:
                row = gram[i]
                q += row[i] * ai * ai
                for j in range(i + 1, r):
                    q += 2 * row[j] * ai * a[j]
        out[(mk * q) % L] += 1
    return out


def z_cs(G: GluingData, k: int) -> PhaseSum:
    """Exact CS partition sum: one term −k·Γ(θ,θ) per torsion class.

    The identity class contributes phase 0, so the sphere normalizes to
    {0: 1}.  Results are memoized per (G, k).
    """
    _check_level(k)
    key = (G, k)
    hit = _zcs_cache.get(key)
    if hit is not None:
        return hit
    dims = torsion_elements(G).dims
    if not dims:
        result = PhaseSum({PhaseQ(0): 1})
    else:
        L, gram = gram_integerized(G)
        counts = _diag_quad_counts(dims, gram, L, (-k) % L)
        result = PhaseSum(
            {PhaseQ._wrap(Fraction(n, L)): c for n, c in counts.items()}
        )
    _zcs_cache[key] = result
    return result


def _divisors(n: int) -> list:
    """Positive divisors of n in increasing order, by trial division to √n."""
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def z_bf(G: GluingData, k: int) -> PhaseSum:
    """Exact BF partition sum: one term −k·Γ(θ,ϑ) per ordered torsion pair.

    Computed from the invariant factors d_1 | … | d_r alone.  Γ is
    nondegenerate, so for fixed θ the map ϑ ↦ −k·Γ(θ,ϑ) is a character of
    order n = ord(kθ) and hits each phase j/n exactly |T|/n times.  The
    number of θ with ord(kθ) dividing n is Π gcd(nk, d_i); peeling off the
    counts of proper divisors, in increasing order, leaves the number with
    ord(kθ) = n.  A reduced phase a/b then has multiplicity
    Σ_{b | n | d_r} #{ord(kθ) = n}·|T|/n.  Cost O(#divisors(d_r)² + d_r).
    """
    _check_level(k)
    T = torsion_elements(G)
    divisors = _divisors(T.dims[-1] if T.dims else 1)
    by_order = {}  # n -> #{θ : ord(kθ) = n}
    for n in divisors:
        by_order[n] = T.kernel_count(n * k) - sum(
            c for m, c in by_order.items() if n % m == 0
        )
    terms = {}
    for b in divisors:
        mult = sum(c * (len(T) // n) for n, c in by_order.items() if n % b == 0)
        if mult:
            for a in range(b):
                if gcd(a, b) == 1:
                    terms[PhaseQ._wrap(Fraction(a, b))] = mult
    return PhaseSum(terms)


def z_bf_closed_form(G: GluingData, k: int) -> int:
    """torsion_order × |{θ : kθ = 0}|, valid because Γ is nondegenerate.

    For each θ the inner sum over ϑ is a full character sum of ϑ ↦
    −k·Γ(θ,ϑ), which vanishes unless kθ pairs trivially with everything,
    i.e. unless kθ = 0 by nondegeneracy.
    """
    _check_level(k)
    if not is_nondegenerate(G):
        raise ValueError("linking form is degenerate; the closed form does not apply")
    T = torsion_elements(G)
    return len(T) * T.kernel_count(k)


def gauss_sum_oracle(p: int, q: int, k: int) -> complex:
    """Direct quadratic Gauss sum: sum over a of e^{−2πi·k·q·a²/p}.

    Independent of every exact-arithmetic code path; exponents are reduced
    mod p before hitting floating point so the 1e−9 comparisons are easy.
    """
    p, q, k = int(p), int(q), int(k)
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_level(k)
    if gcd(p, q) != 1:
        raise ValueError(f"gauss_sum_oracle({p}, {q}, ...) requires gcd(p, q) = 1")
    return sum(
        cmath.exp(-2j * pi * ((k * q * a * a) % p) / p) for a in range(p)
    )


def free_mode_grid_oracle(G: GluingData, k: int, grid_n: int, m_window: int) -> complex:
    """Brute-force check of the free-mode delta reduction.

    Sums curvature labels m over a coefficient window of the ker P†
    lattice and averages the free flat mode over a uniform grid, with
    holonomies pinned to zero.  On a grid coprime to 2k·m_window the
    average reproduces the Kronecker delta, only m = 0 survives, and the
    value must land on eval_numeric(z_cs(G, k)).

    A second, sharper guard raises if any nonzero m in the window would
    alias to zero on the chosen grid (including m with B_f†m = 0), so a
    passing run certifies the delta reduction rather than assuming it.
    """
    _check_level(k)
    grid_n = int(grid_n)
    m_window = int(m_window)
    if grid_n < 1:
        raise ValueError("grid_n must be at least 1")
    if m_window < 0:
        raise ValueError("m_window must be nonnegative")
    profile = homology_profile(G)
    # torsion factor by its own literal loop, independent of z_cs internals
    torsion_part = 0j
    for rep in torsion_elements(G):
        gamma = linking_form(G, rep, rep).value
        torsion_part += cmath.exp(-2j * pi * float(frac_mod1(k * gamma)))
    b1 = profile.b1
    if b1 == 0:
        return torsion_part
    if gcd(grid_n, 2 * k * m_window) != 1:
        raise ValueError(
            f"grid_n = {grid_n} must be coprime to 2*k*m_window = {2 * k * m_window}"
        )
    lattice = curvature_lattice_basis(G)
    snf = profile.snf_of_P
    free_basis = [snf.v_inverse.col(j) for j in range(snf.rank, G.genus)]
    g = G.genus
    total = 0j
    for coeffs in product(range(-m_window, m_window + 1), repeat=b1):
        m = tuple(
            sum(c * lattice[j][i] for j, c in enumerate(coeffs)) for i in range(g)
        )
        w = [vec_dot(f, m) for f in free_basis]
        if any(coeffs) and all((2 * k * wc) % grid_n == 0 for wc in w):
            raise ValueError(
                "grid aliasing: a nonzero curvature label survives the grid "
                "average; enlarge grid_n"
            )
        avg = 0j
        for tvec in product(range(grid_n), repeat=b1):
            dot = Fraction(sum(tc * wc for tc, wc in zip(tvec, w)), grid_n)
            avg += cmath.exp(-2j * pi * float(frac_mod1(2 * k * dot)))
        total += (avg / grid_n**b1) * torsion_part
    return total
