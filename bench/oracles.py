"""Independent reference values for the benchmark's output checks.

Nothing here imports the package: the block relations, invariant factors,
lens-space phase multisets and the BF closed form are recomputed from their
definitions on plain lists of ints, so a check cannot share a bug with the
code it measures.
"""

from collections import Counter
from itertools import combinations
from math import gcd, prod

# violation lines printed by the validator start with these left-hand sides
RELATIONS = ("Q†P", "P†S − Q†R", "S†R", "RP†", "SP† − QR†", "SQ†")


def mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def _sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def violated_relations(R, P, S, Q) -> list:
    """Names of the six block relations that the blocks break."""
    g = len(R)
    one = [[int(i == j) for j in range(g)] for i in range(g)]
    checks = (
        (mul(transpose(Q), P), mul(transpose(P), Q)),
        (_sub(mul(transpose(P), S), mul(transpose(Q), R)), one),
        (mul(transpose(S), R), mul(transpose(R), S)),
        (mul(R, transpose(P)), mul(P, transpose(R))),
        (_sub(mul(S, transpose(P)), mul(Q, transpose(R))), one),
        (mul(S, transpose(Q)), mul(Q, transpose(S))),
    )
    return [name for name, (lhs, rhs) in zip(RELATIONS, checks) if lhs != rhs]


def _det(a):
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * _det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
        if a[0][j]
    )


def homology_of(P) -> tuple:
    """(b1, invariant factors >= 2) of coker P from determinantal divisors.

    The k-th determinantal divisor is the gcd of all k x k minors; the
    invariant factors are the ratios of consecutive nonzero divisors.  No
    row reduction, so this cannot share a bug with a Smith-form routine.
    """
    n = len(P)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = gcd(g, _det([[P[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        divisors.append(g)
    factors = tuple(
        d for d in (b // a for a, b in zip(divisors, divisors[1:])) if d >= 2
    )
    return n - (len(divisors) - 1), factors


def torsion_order(P) -> int:
    return prod(homology_of(P)[1])


def reduced(n: int, d: int) -> tuple:
    """The phase n/d mod 1 as a reduced (numerator, denominator) pair."""
    n %= d
    g = gcd(n, d)
    return n // g, d // g


def lens_cs_histogram(p: int, q: int, k: int) -> Counter:
    """Z_CS of L(p, q) at level k: the multiset {−k·q·a²/p mod 1 : a ∈ Z/p}."""
    return Counter(reduced(-k * q * a * a, p) for a in range(p))


def bf_closed_form(factors, k: int) -> int:
    """|T| · Π gcd(k, d_i), the value of Z_BF for a nondegenerate form."""
    return prod(factors) * prod(gcd(k, d) for d in factors)
