"""Exact integer and rational kernels: products, Smith normal form, phases.

Everything here is immutable and pure, and no floating point appears
anywhere in this module.  Rationals are `fractions.Fraction`; phases live
in Q/Z with a canonical reduced representative in [0, 1).
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter, index, mul
from typing import Sequence


def _rational(x: int | Fraction) -> Fraction:
    """x as a Fraction: an int (or bool) or a Fraction, else TypeError.

    Fraction(x) alone would also take a float, a Decimal or a string, and
    turn 0.1 into the binary value 3602879701896397/36028797018963968.
    """
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(index(x))
    except TypeError:
        raise TypeError(f"expected an int or a Fraction, not {type(x).__name__}") from None


def frac_mod1(x: int | Fraction) -> Fraction:
    """Canonical representative of a rational modulo 1, in [0, 1)."""
    f = _rational(x)
    # gcd(n mod d, d) == gcd(n, d) == 1, so the result is already reduced
    return Fraction(f.numerator % f.denominator, f.denominator)


def _dot(u, v):
    """<u, v> of two vectors of ints or Fractions, with no length check."""
    return sum(map(mul, u, v))


def vec_dot(u: Sequence, v: Sequence):
    """Exact dot product <u, v> of equal-length numeric vectors."""
    if len(u) != len(v):
        raise ValueError(f"dot product length mismatch: {len(u)} vs {len(v)}")
    return _dot(u, v)


def _apply(rows: Sequence[Sequence[int]], vec: Sequence) -> tuple:
    """The product of the integer matrix with these rows and a vector of
    ints or Fractions as long as a row; the caller checks that length."""
    return tuple([_dot(r, vec) for r in rows])


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in __slots__ and writes them only through
    _setters, the slots' member-descriptor setters in __slots__ order,
    bound once per class: _init zips them with its values, and the hot
    trusted constructors unpack them and call each directly.  Assignment
    and del raise AttributeError.  Equality and hash read the compared
    fields through one operator.attrgetter per class, _key: every slot,
    unless the class statement names fewer with compared= (dotted paths
    allowed).  Values of different types never compare equal.  Pickling
    and copying rebuild an instance from all of its slots without
    running __init__.
    """

    __slots__ = ()

    def __init_subclass__(cls, compared=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(compared or cls.__slots__))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _init(self, *values):
        for set_, value in zip(self._setters, values):
            set_(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuild, (type(self), tuple(getattr(self, n) for n in self.__slots__))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


def _rebuild(cls, values):
    self = object.__new__(cls)
    self._init(*values)
    return self


class PhaseQ(Frozen, compared=("value.numerator", "value.denominator")):
    """A point of Q/Z written as the reduced fraction in [0, 1).

    Represents the unit phase e^{2*pi*i*value}.  Addition is mod 1, every
    element has finite order, and equality/hashing are exact, which is what
    lets phase multisets deduplicate reliably.  Both read the reduced
    numerator and denominator, whose tuple hashes much faster than a
    Fraction.
    """

    __slots__ = ("value",)

    def __init__(self, value: int | Fraction = 0):
        self._init(frac_mod1(value))

    @classmethod
    def _wrap(cls, reduced: Fraction) -> "PhaseQ":
        # fast path for callers that guarantee 0 <= reduced < 1
        self = object.__new__(cls)
        cls._setters[0](self, reduced)
        return self

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def __add__(self, other: "PhaseQ") -> "PhaseQ":
        return PhaseQ(self.value + other.value)

    def __repr__(self) -> str:
        return f"PhaseQ({self.value})"

    def __str__(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


def _smith_eliminate(rows: Sequence[Sequence[int]]) -> tuple:
    """Rows of the Smith form D of the integer matrix with these rows, A,
    and the column operations that made it.

    Stage t moves to (t, t) the smallest nonzero entry of row t and
    column t (of the whole trailing block only when both are zero), then
    reduces the rest of that row and column by the nearest-integer
    quotient, so every remainder is at most |pivot|/2.  It repeats until
    the row and column are clear; if some trailing entry is then not a
    multiple of the pivot, its row is added to row t and the stage goes on.
    Either way the next pivot is a nonzero remainder, so |pivot| at least
    halves on every repeat and stage t ends after at most log2|pivot| + 2
    passes.  Row operations are not kept.  The log lists the column
    operations in order, (t, j) for a swap of columns t and j and
    (j, t, c) for col j += c * col t, so that D = U^-1 @ A @ V^-1 with
    V^-1 the log applied to the identity (_replay_columns).
    """
    work = [list(row) for row in rows]
    m, n = len(work), len(work[0]) if work else 0
    log = []
    for t in range(min(m, n)):
        while True:
            nz = [(i, t) for i in range(t, m) if work[i][t]]
            nz += [(t, j) for j in range(t + 1, n) if work[t][j]]
            if not nz:
                nz = [(i, j) for i in range(t, m) for j in range(t, n) if work[i][j]]
                if not nz:
                    break
            i, j = min(nz, key=lambda ij: abs(work[ij[0]][ij[1]])) if len(nz) > 1 else nz[0]
            if i != t:
                work[t], work[i] = work[i], work[t]
            # rows above t are zero from column t on, so column operations skip them
            if j != t:
                for row in work[t:]:
                    row[t], row[j] = row[j], row[t]
                log.append((t, j))
            top = work[t]
            p = top[t]
            clear = True
            for i in range(t + 1, m):
                row = work[i]
                if row[t]:
                    c = -((2 * row[t] + p) // (2 * p))
                    work[i] = row = [a + c * b for a, b in zip(row, top)]
                    clear = clear and not row[t]
            for j in range(t + 1, n):
                if top[j]:
                    c = -((2 * top[j] + p) // (2 * p))
                    for row in work[t:]:
                        row[j] += c * row[t]
                    log.append((j, t, c))
                    clear = clear and not top[j]
            if not clear:
                continue
            for i in range(t + 1, m):
                if any(e % p for e in work[i][t + 1 :]):
                    work[t] = [a + b for a, b in zip(top, work[i])]
                    break
            else:
                break
        if work[t][t] < 0:
            work[t] = [-e for e in work[t]]
    return work, log


def _replay_columns(log: list, n: int, first: int, stop: int, modulus: int = 0) -> list:
    """Rows of the n x n V^-1 of log, restricted to its columns first..stop-1.

    V^-1 = E_1 @ ... @ E_K for the column operations E_k of the log, so
    those columns are E_1 @ ... @ E_K applied to the same columns of the
    identity: the log is replayed backwards as row operations (a swap of
    columns t and j swaps rows t and j; col j += c * col t becomes
    row t += c * row j) on n rows only stop - first wide, each column on
    its own.  A modulus reduces every entry mod it, which gives those
    columns mod modulus, as integer row operations commute with it.
    """
    rows = [[int(i == j) for j in range(first, stop)] for i in range(n)]
    for op in reversed(log):
        if len(op) == 2:
            t, j = op
            rows[t], rows[j] = rows[j], rows[t]
        elif modulus:
            j, t, c = op
            rows[t] = [(a + c * b) % modulus for a, b in zip(rows[t], rows[j])]
        else:
            j, t, c = op
            rows[t] = [a + c * b for a, b in zip(rows[t], rows[j])]
    return rows
