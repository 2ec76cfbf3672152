import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heegaard.exact import PhaseQ
from heegaard.fields import (
    FiniteDBClass,
    bf_action,
    cs_action,
    db_pair,
    zero_mode_shift,
)
from heegaard.homology import (
    curvature_lattice_basis,
    homology_profile,
    torsion_elements,
)
from heegaard.splitting import (
    GluingData,
    connected_sum,
    lens,
    random_splitting,
)
from conftest import blocks_to_matrix, free_flat_basis, gluing_matrix, matmul, matrix_to_blocks

splitting_params = st.tuples(
    st.integers(1, 3), st.integers(0, 120), st.sampled_from([0, 3, 6, 10, 15])
)


def make_class(G, rng):
    """Deterministic random class touching every sector that G admits."""
    g = G.genus
    m = [0] * g
    for v in curvature_lattice_basis(G):
        c = rng.randint(-2, 2)
        m = [a + c * b for a, b in zip(m, v)]
    theta_f = [Fraction(0)] * g
    for v in free_flat_basis(G):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        theta_f = [a + c * b for a, b in zip(theta_f, v)]
    T = torsion_elements(G)
    theta_t = T[rng.randrange(len(T))]
    holonomy = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(g)]
    smooth = Fraction(rng.randint(-6, 6), rng.randint(1, 8))
    return FiniteDBClass(G, m, theta_f, theta_t, holonomy, smooth)


# ------------------------------------------------------------ construction


def test_default_class_is_zero():
    G = lens(5, 2)
    A = FiniteDBClass(G)
    assert A.m == (0,)
    assert A.theta_f == (Fraction(0),)
    assert tuple(A.theta_t) == (Fraction(0),)
    assert A.holonomy == (Fraction(0),)
    assert A.smooth_self == 0


def test_sector_constraints_enforced():
    G = lens(5, 2)
    with pytest.raises(ValueError, match="length"):
        FiniteDBClass(G, m=[1, 0])
    with pytest.raises(ValueError, match="annihilated"):
        FiniteDBClass(G, m=[1])
    with pytest.raises(ValueError, match="free flat"):
        FiniteDBClass(G, theta_f=[Fraction(1, 2)])
    with pytest.raises(ValueError, match="not integral"):
        FiniteDBClass(G, theta_t=[Fraction(1, 3)])


def test_class_immutable_and_comparable():
    G = lens(5, 2)
    A = FiniteDBClass(G, theta_t=[Fraction(1, 5)])
    B = FiniteDBClass(G, theta_t=[Fraction(1, 5)])
    assert A == B and hash(A) == hash(B)
    assert A != FiniteDBClass(G)
    with pytest.raises(AttributeError):
        A.m = (1,)


def test_replace_revalidates():
    G = lens(0, 1)
    A = FiniteDBClass(G, m=[1])
    B = A.replace(theta_f=[Fraction(1, 4)])
    assert B.m == (1,) and B.theta_f == (Fraction(1, 4),)
    assert A.theta_f == (Fraction(0),)


def test_classes_bound_to_their_gluing():
    A = FiniteDBClass(lens(5, 2), theta_t=[Fraction(1, 5)])
    with pytest.raises(ValueError, match="different gluing"):
        cs_action(lens(5, 1), A, 1)


# ---------------------------------------------------------------- actions


def test_cs_action_pinned():
    G = lens(5, 2)
    A = FiniteDBClass(G, theta_t=[Fraction(1, 5)])
    assert cs_action(G, A, 1) == PhaseQ(Fraction(3, 5))
    assert cs_action(G, FiniteDBClass(G), 4) == PhaseQ(0)
    H = lens(0, 1)
    B = FiniteDBClass(H, m=[1], theta_f=[Fraction(1, 4)])
    assert cs_action(H, B, 1) == PhaseQ(Fraction(1, 2))


def test_bf_action_pinned():
    G = lens(6, 1)
    A = FiniteDBClass(G, theta_t=[Fraction(1, 6)])
    assert bf_action(G, A, A, 1) == PhaseQ(Fraction(5, 6))
    assert bf_action(G, FiniteDBClass(G), FiniteDBClass(G), 3) == PhaseQ(0)


@given(splitting_params, st.integers(1, 7), st.integers(0, 10**6))
def test_bf_diagonal_recovers_cs(params, k, salt):
    G = random_splitting(*params)
    A = make_class(G, random.Random(salt))
    assert bf_action(G, A, A, k, cross=A.smooth_self) == cs_action(G, A, k)


def test_level_must_be_positive():
    G = lens(5, 2)
    A = FiniteDBClass(G)
    for bad in (0, -1, Fraction(1, 2), "2", True):
        with pytest.raises(ValueError):
            cs_action(G, A, bad)


@given(splitting_params, st.integers(0, 10**6), st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_torsion_representative_shift_fixes_cs(params, salt, zs):
    """The action is blind to which coset representative carries theta_t.

    TorsionRep always stores the reduced vector, so the unreduced
    representative goes through linking_form directly and the assembled
    value must match what cs_action computes from the reduced one.
    """
    from heegaard.exact import vec_dot
    from heegaard.linking import linking_form

    G = random_splitting(*params)
    A = make_class(G, random.Random(salt))
    z = [zs[i % len(zs)] for i in range(G.genus)]
    raw = [x + n for x, n in zip(A.theta_t, z)]
    for k in (1, 2, 5):
        gamma = linking_form(G, raw, raw).value
        manual = PhaseQ(
            k * A.smooth_self
            + 2 * k * vec_dot(A.m, A.holonomy)
            - 2 * k * vec_dot(A.theta_f, A.m)
            - k * gamma
        )
        assert manual == cs_action(G, A, k)


# ---------------------------------------------------------------- db_pair


def test_db_pair_pinned_torsion_diagonal():
    G = lens(5, 2)
    A = FiniteDBClass(G, theta_t=[Fraction(1, 5)])
    assert db_pair(G, A, A) == PhaseQ(Fraction(3, 5))


def test_db_pair_pinned_curvature_against_torsion():
    # genus-2 gluing whose 3-torsion sits in the first coordinate: take the
    # block sum of lens(3,1) and lens(0,1) and swap the two handles
    base = connected_sum(lens(3, 1), lens(0, 1))
    swap, zero = [[0, 1], [1, 0]], [[0, 0], [0, 0]]
    W = blocks_to_matrix(swap, zero, zero, swap)
    G = GluingData(*matrix_to_blocks(matmul(W, gluing_matrix(base))))
    assert G.P.to_rows() == ((0, 0), (3, 0))
    A = FiniteDBClass(G, m=[1, 0])
    B = FiniteDBClass(G, theta_t=[Fraction(1, 3), Fraction(0)])
    assert db_pair(G, A, B) == PhaseQ(Fraction(2, 3))


def test_db_pair_free_only_vanishes():
    G = lens(0, 1)
    A = FiniteDBClass(G, theta_f=[Fraction(1, 3)])
    B = FiniteDBClass(G, theta_f=[Fraction(2, 7)])
    assert db_pair(G, A, B) == PhaseQ(0)


@given(splitting_params, st.integers(0, 10**6))
def test_db_pair_symmetric_on_torsion(params, salt):
    G = random_splitting(*params)
    rng = random.Random(salt)
    T = torsion_elements(G)
    A = FiniteDBClass(G, theta_t=T[rng.randrange(len(T))])
    B = FiniteDBClass(G, theta_t=T[rng.randrange(len(T))])
    assert db_pair(G, A, B) == db_pair(G, B, A)


def test_db_pair_diagonal_default_uses_smooth_self():
    G = lens(5, 2)
    A = FiniteDBClass(G, theta_t=[Fraction(1, 5)], smooth_self=Fraction(1, 7))
    assert db_pair(G, A, A) == PhaseQ(Fraction(1, 7) - Fraction(2, 5))
    B = A.replace(smooth_self=Fraction(2, 7))
    # distinct classes default to zero cross data
    assert db_pair(G, A, B) == PhaseQ(-Fraction(2, 5))
    assert db_pair(G, A, B, cross=Fraction(1, 7)) == PhaseQ(Fraction(1, 7) - Fraction(2, 5))


# --------------------------------------------------------- zero-mode shifts


def test_zero_mode_shift_pinned():
    G = lens(0, 1)
    A = FiniteDBClass(G, m=[2])
    shifted = zero_mode_shift(G, A, (1,), 2)
    assert shifted.theta_f == (Fraction(1, 4),)
    assert cs_action(G, shifted, 2) == cs_action(G, A, 2)


def test_zero_mode_shift_requires_kernel_vector():
    G = lens(5, 2)
    A = FiniteDBClass(G)
    with pytest.raises(ValueError, match="kernel"):
        zero_mode_shift(G, A, (1,), 1)
    assert zero_mode_shift(G, A, (0,), 1) == A


@given(splitting_params, st.integers(1, 7), st.integers(0, 10**6))
def test_zero_mode_invariance(params, k, salt):
    G = random_splitting(*params)
    rng = random.Random(salt)
    A = make_class(G, rng)
    kern = homology_profile(G).kernel_columns
    u = [0] * G.genus
    for v in kern:
        c = rng.randint(-3, 3)
        u = [a + c * b for a, b in zip(u, v)]
    shifted = zero_mode_shift(G, A, u, k)
    assert cs_action(G, shifted, k) == cs_action(G, A, k)


@given(splitting_params, st.integers(1, 7), st.integers(0, 10**6))
def test_bf_invariant_under_both_k_shifts(params, k, salt):
    G = random_splitting(*params)
    rng = random.Random(salt)
    A = make_class(G, rng)
    B = make_class(G, rng)
    kern = homology_profile(G).kernel_columns
    base = bf_action(G, A, B, k, cross=Fraction(1, 3))
    for target, other in ((A, B), (B, A)):
        u = [0] * G.genus
        for v in kern:
            c = rng.randint(-3, 3)
            u = [a + c * b for a, b in zip(u, v)]
        moved = target.replace(
            theta_f=[x + Fraction(c_, k) for x, c_ in zip(target.theta_f, u)]
        )
        got = (
            bf_action(G, moved, other, k, cross=Fraction(1, 3))
            if target is A
            else bf_action(G, A, moved, k, cross=Fraction(1, 3))
        )
        assert got == base
