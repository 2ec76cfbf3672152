"""Gluing data for Heegaard splittings: validation and constructors.

A genus-g splitting is recorded by four integer g x g blocks R, P, S, Q,
the action of the gluing map on the standard homology basis of the
surface, arranged as the 2g x 2g matrix M = [[R, P], [S, Q]].  Validity
means that M is anti-symplectic for the surface intersection form J,
M†JM = −J.  Written in blocks, that equation is exactly three relations:
Q†P = P†Q, S†R = R†S and P†S − Q†R = 1.  They give (JM†J)·M = 1, so
M⁻¹ = JM†J and MJM† = −J, whose blocks are the other three relations
RP† = PR†, SP† − QR† = 1 and SQ† = QS†.  Validation checks the first
three and names every failed one of all six only when one fails.
"""

from __future__ import annotations

import random
from functools import wraps
from itertools import chain
from math import gcd
from operator import add, index, mul, sub
from typing import Iterable

from .exact import Frozen, IntMatrix

# largest |T|, d_r or p that a sum may enumerate, and (2g)² a random splitting may build
_ENUMERATION_LIMIT = 10**6
# longest transvection word a random splitting may multiply out: its entries
# grow by a bit every few letters, so the cost grows with the square of the length
_WORD_LENGTH_LIMIT = 10**4


def _check_enumerable(what: str, size: int):
    if size > _ENUMERATION_LIMIT:
        raise ValueError(f"{what} = {size} exceeds the enumeration limit {_ENUMERATION_LIMIT}")


class ValidationError(ValueError):
    """Rejected gluing blocks; carries the named violations."""

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


def _as_block(x, name: str) -> IntMatrix:
    if isinstance(x, IntMatrix):
        return x
    try:
        return IntMatrix.from_rows(x)
    except (TypeError, ValueError) as exc:
        raise ValidationError([f"block {name} is not an integer matrix: {exc}"]) from exc


def _coerce_blocks(r, p, s, q) -> tuple:
    blocks = tuple(_as_block(x, n) for x, n in zip((r, p, s, q), "RPSQ"))
    g = blocks[0].rows
    for b, n in zip(blocks, "RPSQ"):
        if b.rows != g or b.cols != g:
            raise ValidationError(
                [f"dimension mismatch: block {n} is {b.rows}x{b.cols}, expected {g}x{g}"]
            )
    if g < 1:
        raise ValidationError(["genus must be at least 1"])
    return blocks


def _fmt(m: list) -> str:
    try:  # str() refuses ints past the interpreter's digit limit
        return str(m[0][0]) if len(m) == 1 else str(m)
    except ValueError:
        return "<entries too long to print>"


def _dot(u, v):
    return sum(map(mul, u, v))


def _anti_symplectic(R: IntMatrix, P: IntMatrix, S: IntMatrix, Q: IntMatrix) -> bool:
    """Q†P = P†Q, S†R = R†S and P†S − Q†R = 1, which together are M†JM = −J.

    Entry (i, j) of A†B is column i of A dotted with column j of B, so the
    four products are read off the columns with no transpose or temporary.
    """
    g = R.rows
    r, p, s, q = ([A.col(j) for j in range(g)] for A in (R, P, S, Q))
    dot = _dot
    return all(
        dot(q[i], p[j]) == dot(q[j], p[i]) and dot(s[i], r[j]) == dot(s[j], r[i])
        for i in range(g) for j in range(i)
    ) and all(dot(p[i], s[j]) - dot(q[i], r[j]) == (i == j) for i in range(g) for j in range(g))


def _product(a, b) -> list:
    """Rows of the matrix whose entry (i, j) is a[i]·b[j]: A†B when a and b
    are the columns of A and B, AB† when they are their rows."""
    return [[_dot(u, v) for v in b] for u in a]


def block_relation_violations(r, p, s, q) -> list:
    """Evaluate the six block relations, returning one line per failure.

    Each line names the relation and prints both sides (or the defect
    against the identity), so a report can show exactly what failed.
    The first three relations are M†JM = −J, which implies the other
    three (see the module docstring), so blocks that satisfy them give []
    from those alone.  Otherwise all six are evaluated from the blocks'
    columns (the A†B products) and rows (the AB† products): a symmetric
    relation X = X† takes the one product X, eight products in all.
    """
    R, P, S, Q = _coerce_blocks(r, p, s, q)
    if _anti_symplectic(R, P, S, Q):
        return []
    g = R.rows
    rc, pc, sc, qc = ([A.col(j) for j in range(g)] for A in (R, P, S, Q))
    rr, pr, sr, qr = (A.to_rows() for A in (R, P, S, Q))
    minus = lambda X, Y: [[x - y for x, y in zip(u, v)] for u, v in zip(X, Y)]
    one = [[int(i == j) for j in range(g)] for i in range(g)]
    out = []
    # (left side, its value X, right side): the name of X†, or None for X = 1
    for a, X, b in (
        ("Q†P", _product(qc, pc), "P†Q"),
        ("P†S − Q†R", minus(_product(pc, sc), _product(qc, rc)), None),
        ("S†R", _product(sc, rc), "R†S"),
        ("RP†", _product(rr, pr), "PR†"),
        ("SP† − QR†", minus(_product(sr, pr), _product(qr, rr)), None),
        ("SQ†", _product(sr, qr), "QS†"),
    ):
        rhs = one if b is None else [list(c) for c in zip(*X)]
        if X != rhs:
            out.append(f"{a} = {_fmt(X)} ≠ " + ("1" if b is None else f"{_fmt(rhs)} = {b}"))
    return out


class GluingData(Frozen, compared=("genus", "R.entries", "P.entries", "S.entries", "Q.entries")):
    """Validated gluing blocks of a genus-g Heegaard splitting.

    Construction checks the block relations (block_relation_violations)
    and raises ValidationError otherwise, so every live instance is
    valid.  Instances are immutable and hashable, for use as dict or set
    keys, and compare the genus and the blocks' entries, whose shape the
    genus fixes; invariants derived from them live on the instance
    (per_manifold), outside its value.
    """

    __slots__ = ("genus", "R", "P", "S", "Q", "_memo")

    def __init__(self, r, p, s, q):
        R, P, S, Q = _coerce_blocks(r, p, s, q)
        bad = block_relation_violations(R, P, S, Q)
        if bad:
            raise ValidationError(bad)
        self._init(R.rows, R, P, S, Q, {})

    @classmethod
    def _trusted(cls, R, P, S, Q) -> "GluingData":
        """Trusted constructor: R, P, S, Q are square IntMatrix blocks already
        known to satisfy the six relations."""
        self = object.__new__(cls)
        set_genus, set_r, set_p, set_s, set_q, set_memo = cls._setters
        set_genus(self, R.rows)
        set_r(self, R)
        set_p(self, P)
        set_s(self, S)
        set_q(self, Q)
        set_memo(self, {})
        return self

    def __reduce__(self):
        # the blocks alone, re-validated on load; _memo does not travel
        return GluingData, (self.R, self.P, self.S, self.Q)

    def __repr__(self) -> str:
        return (
            f"GluingData(genus={self.genus}, R={self.R.to_rows()}, "
            f"P={self.P.to_rows()}, S={self.S.to_rows()}, Q={self.Q.to_rows()})"
        )


def per_manifold(fn):
    """Compute fn(G, *args) once per GluingData instance and keep it on G.

    The value is stored in G._memo under (fn, *args), or under fn alone
    for a function of the manifold alone, which keeps one value; a
    function of, say, a level keeps one per distinct argument tuple.  The
    arguments must be hashable and should hold no reference to G.
    Everything kept is freed with G.
    """
    @wraps(fn)
    def memoized(G: GluingData, *args):
        key = (fn, *args) if args else fn  # a lookup of fn alone builds no tuple
        value = G._memo.get(key, memoized)  # memoized itself marks a miss
        if value is memoized:
            value = G._memo[key] = fn(G, *args)
        return value
    return memoized


def validate(r, p, s, q) -> GluingData:
    """Validate four candidate blocks, returning GluingData on success.

    Raises ValidationError whose .violations lists every failed relation
    by name with both sides printed.
    """
    return GluingData(r, p, s, q)


def lens(p: int, q: int) -> GluingData:
    """Genus-1 splitting of the lens space L(p, q).

    p = 1 gives the 3-sphere, p = 0 (with q = ±1) gives S¹ x S².
    Negative p is normalized to |p| with q negated.  The completion (r, s)
    of the gluing matrix solves p·s − q·r = 1 with |r| minimal, preferring
    s ≥ 0, then |s| minimal, then r ≥ 0; downstream invariants do not
    depend on the choice.  For p ≥ 1 the solutions are r ≡ −q⁻¹ (mod p),
    so the smallest |r| is at r0 = −q⁻¹ mod p in [0, p) or at r0 − p, and
    the key above chooses between those two.
    """
    p, q = index(p), index(q)
    if p < 0:
        p, q = -p, -q
    if gcd(p, q) != 1:
        raise ValueError(f"lens({p}, {q}) requires gcd(p, q) = 1")
    if p == 0:
        # −q·r = 1 forces r = −q; pick the smallest nonnegative s
        r, s = -q, 0
    else:
        r = -pow(q, -1, p) % p
        s = (1 + q * r) // p
        s1 = s - q  # the completion at r − p, whose r < 0 loses a full tie
        if (p - r, s1 < 0, abs(s1)) < (r, s < 0, abs(s)):
            r, s = r - p, s1
    # genus 1: the four symmetry relations hold for any 1×1 blocks, and
    # both unimodularity relations read p·s − q·r = 1
    det = p * s - q * r
    if det != 1:
        raise ValidationError(
            [f"P†S − Q†R = {det} ≠ 1", f"SP† − QR† = {det} ≠ 1"]
        )
    of = IntMatrix._of
    return GluingData._trusted(of(1, 1, (r,)), of(1, 1, (p,)), of(1, 1, (s,)), of(1, 1, (q,)))


def connected_sum(g1: GluingData, g2: GluingData) -> GluingData:
    """Block-diagonal join; the manifold is the connected sum.

    Each of the six relations of the join holds block by block, as it
    holds for g1 and g2, so the result is not validated again.
    """

    def diag(a: IntMatrix, b: IntMatrix) -> IntMatrix:
        n1, n2 = a.rows, b.rows
        rows = [list(a.row(i)) + [0] * n2 for i in range(n1)]
        rows += [[0] * n1 + list(b.row(i)) for i in range(n2)]
        return IntMatrix.from_rows(rows)

    return GluingData._trusted(
        diag(g1.R, g2.R), diag(g1.P, g2.P), diag(g1.S, g2.S), diag(g1.Q, g2.Q)
    )


def stabilize(g: GluingData) -> GluingData:
    """Connected sum with the genus-1 splitting of S³; genus grows by one."""
    return connected_sum(g, lens(1, 0))


def _transvection_vectors(genus: int) -> list:
    """The transvection word alphabet, each vector as the indices of its 1s.

    Standard basis vectors e_i (longitudes, index i), f_i (meridians,
    index g + i), the sums e_i + f_i, and consecutive-handle mixers.
    """
    g = genus
    vecs = []
    for i in range(g):
        vecs += [(i,), (g + i,), (i, g + i)]
    for i in range(g - 1):
        vecs += [(i, i + 1), (g + i, g + i + 1), (i, g + i + 1)]
    return vecs


def random_splitting(genus: int, seed: int, word_length: int) -> GluingData:
    """Seeded random valid splitting: M = M₀ · (word of transvections).

    M₀ is the block swap [[0, I], [I, 0]], the standard genus-g splitting
    of the 3-sphere; right-multiplying by a symplectic word keeps the
    anti-symplectic property, so every output is valid by construction and
    is not validated again.
    The result is a deterministic function of (genus, seed, word_length).
    A genus whose (2g)² matrix entries pass _ENUMERATION_LIMIT, or a
    word_length past _WORD_LENGTH_LIMIT, raises ValueError before anything
    is built.
    """
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if word_length < 0:
        raise ValueError("word_length must be nonnegative")
    if word_length > _WORD_LENGTH_LIMIT:
        raise ValueError(f"word_length = {word_length} exceeds the limit {_WORD_LENGTH_LIMIT}")
    _check_enumerable(f"(2g)² at genus {genus}", (2 * genus) ** 2)
    g = genus
    n = 2 * g
    rng = random.Random(f"heegaard:{genus}:{seed}:{word_length}")
    vecs = _transvection_vectors(g)
    W = []  # the columns of W, from the identity
    for j in range(n):
        W.append([0] * n)
        W[j][j] = 1
    for _ in range(word_length):
        v = vecs[rng.randrange(len(vecs))]
        c = rng.choice((1, -1))
        # T = 1 + c·v·(v†J) is symplectic for every integer c since v†Jv = 0;
        # W·T = W + c·(W·v)(v†J) reads the columns of W at v's 1s and adds
        # c·(W·v) to column j + g, or subtracts it from column j − g, per 1 at j
        wv = W[v[0]] if len(v) == 1 else list(map(add, W[v[0]], W[v[1]]))
        for j in v:
            k, up = (j + g, c > 0) if j < g else (j - g, c < 0)
            W[k] = list(map(add if up else sub, W[k], wv))
    # M₀·W swaps the two row halves of W; zipping a block's columns gives its rows
    block = lambda r0, c0: IntMatrix._of(
        g, g, tuple(chain.from_iterable(zip(*(col[r0 : r0 + g] for col in W[c0 : c0 + g]))))
    )
    return GluingData._trusted(block(g, 0), block(g, g), block(0, 0), block(0, g))
