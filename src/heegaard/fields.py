"""Finite skeletons of U(1) gauge-class representatives and exact actions.

A class is recorded by four independent sectors: an integer curvature
label m in ker P†, a free flat mode theta_f with P theta_f = 0, a torsion
move theta_t, and the smooth-sector data reduced to g rational holonomies
plus one rational self-pairing scalar.  Actions land in Q/Z and are exact.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .exact import Frozen, PhaseQ, _rational, vec_dot
from .homology import TorsionRep
from .linking import linking_form
from .partition import _check_level
from .splitting import GluingData


class FiniteDBClass(Frozen):
    """One gauge class: (m, theta_f, theta_t, holonomy, smooth_self).

    Construction validates every sector constraint against the gluing
    data, so instances are consistent by the time an action sees them.
    """

    __slots__ = ("G", "m", "theta_f", "theta_t", "holonomy", "smooth_self")

    def __init__(
        self,
        G: GluingData,
        m=None,
        theta_f=None,
        theta_t=None,
        holonomy=None,
        smooth_self: int | Fraction = 0,
    ):
        g = G.genus
        m = tuple(map(index, m if m is not None else [0] * g))
        theta_f = tuple(map(_rational, theta_f if theta_f is not None else [0] * g))
        holonomy = tuple(map(_rational, holonomy if holonomy is not None else [0] * g))
        if theta_t is None:
            theta_t = TorsionRep([Fraction(0)] * g)
        elif not isinstance(theta_t, TorsionRep):
            theta_t = TorsionRep(theta_t)
        if len(m) != g or len(theta_f) != g or len(holonomy) != g or len(theta_t) != g:
            raise ValueError(f"sector constraint violation: sectors must have length {g}")
        if any(vec_dot(G.P.col(j), m) for j in range(g)):
            raise ValueError("sector constraint violation: m is not annihilated by P†")
        if any(x != 0 for x in G.P.apply(theta_f)):
            raise ValueError("sector constraint violation: theta_f is not a free flat mode")
        if any(x.denominator != 1 for x in G.P.apply(theta_t.theta)):
            raise ValueError("sector constraint violation: P·theta_t is not integral")
        self._init(G, m, theta_f, theta_t, holonomy, _rational(smooth_self))

    def replace(self, **kwargs) -> "FiniteDBClass":
        """Copy with some sectors replaced (re-validates)."""
        data = {
            "m": self.m,
            "theta_f": self.theta_f,
            "theta_t": self.theta_t,
            "holonomy": self.holonomy,
            "smooth_self": self.smooth_self,
        }
        data.update(kwargs)
        return FiniteDBClass(self.G, **data)

    def __repr__(self) -> str:
        return (
            f"FiniteDBClass(m={self.m}, theta_f={self.theta_f}, theta_t={self.theta_t}, "
            f"holonomy={self.holonomy}, smooth_self={self.smooth_self})"
        )


def _check_consistent(G: GluingData, A: FiniteDBClass, name: str):
    if A.G != G:
        raise ValueError(f"sector constraint violation: class {name} belongs to different gluing data")


def cs_action(G: GluingData, A: FiniteDBClass, k: int) -> PhaseQ:
    """Chern-Simons action mod 1 at level k.

    k·smooth_self + 2k<m, holonomy> − 2k<theta_f, m> − k·Gamma(theta_t, theta_t).
    """
    _check_level(k)
    _check_consistent(G, A, "A")
    gamma = linking_form(G, A.theta_t, A.theta_t).value
    val = (
        k * A.smooth_self
        + 2 * k * vec_dot(A.m, A.holonomy)
        - 2 * k * vec_dot(A.theta_f, A.m)
        - k * gamma
    )
    return PhaseQ(val)


def bf_action(
    G: GluingData,
    A: FiniteDBClass,
    B: FiniteDBClass,
    k: int,
    cross: int | Fraction = 0,
) -> PhaseQ:
    """BF action mod 1 at level k; cross is the smooth-sector cross scalar.

    With B = A and cross = A.smooth_self this reproduces cs_action term by
    term, which the tests assert.
    """
    _check_level(k)
    _check_consistent(G, A, "A")
    _check_consistent(G, B, "B")
    gamma = linking_form(G, A.theta_t, B.theta_t).value
    val = (
        k * _rational(cross)
        + k * vec_dot(B.m, A.holonomy)
        + k * vec_dot(A.m, B.holonomy)
        - k * vec_dot(A.theta_f, B.m)
        - k * vec_dot(B.theta_f, A.m)
        - k * gamma
    )
    return PhaseQ(val)


def db_pair(
    G: GluingData, A: FiniteDBClass, B: FiniteDBClass, cross: int | Fraction | None = None
) -> PhaseQ:
    """The pairing of two classes mod 1, sector by sector.

    Nonzero contributions: curvature against the flat part of the other
    class (−<m, theta_f + theta_t> each way), curvature against smooth
    (+<m, holonomy> each way), torsion against torsion (−Gamma), and the
    smooth-smooth scalar.  The smooth-smooth term comes from the classes'
    own data: A.smooth_self when the two classes are equal, else the
    `cross` argument (default 0, since distinct skeletons carry no shared
    cross integral).
    """
    _check_consistent(G, A, "A")
    _check_consistent(G, B, "B")
    if cross is None:
        cross = A.smooth_self if A == B else Fraction(0)
    flat_a = tuple(f + t for f, t in zip(A.theta_f, A.theta_t))
    flat_b = tuple(f + t for f, t in zip(B.theta_f, B.theta_t))
    gamma = linking_form(G, A.theta_t, B.theta_t).value
    val = (
        -vec_dot(A.m, flat_b)
        - vec_dot(B.m, flat_a)
        + vec_dot(A.m, B.holonomy)
        + vec_dot(B.m, A.holonomy)
        + _rational(cross)
        - gamma
    )
    return PhaseQ(val)


def zero_mode_shift(G: GluingData, A: FiniteDBClass, u, k: int) -> FiniteDBClass:
    """Shift the free flat mode by u/(2k) for u in the integer kernel of P.

    The shifted class is a representative of the same physics: cs_action
    is exactly invariant mod 1, because <u, m> is an integer.  Components
    are re-reduced as fractions, deliberately NOT folded mod 1, which
    would generally break P·theta_f = 0.
    """
    _check_level(k)
    _check_consistent(G, A, "A")
    u = tuple(map(index, u))
    if len(u) != G.genus:
        raise ValueError(f"u has length {len(u)}, expected {G.genus}")
    if any(x != 0 for x in G.P.apply(u)):
        raise ValueError("u is not in the integer kernel of P")
    shifted = tuple(x + Fraction(c, 2 * k) for x, c in zip(A.theta_f, u))
    return A.replace(theta_f=shifted)
