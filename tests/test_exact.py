from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heegaard.exact import (
    IntMatrix,
    PhaseQ,
    frac_mod1,
    vec_dot,
)
from heegaard.splitting import random_splitting
from conftest import diagonal, smith_form
from oracle_helpers import (
    abelian_order_multiset,
    assert_smith_certificate,
    cokernel_order_multiset,
    det_laplace,
    minor_gcd_diagonal,
)

entries = st.integers(min_value=-9, max_value=9)


def int_matrices(max_dim=5, entries=entries):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


# ---------------------------------------------------------------- IntMatrix


def test_matrix_construction_and_access():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert (a.rows, a.cols) == (2, 2)
    assert a[0, 1] == 2 and a[1, 0] == 3
    assert a.row(1) == (3, 4)
    assert a.col(0) == (1, 3)
    assert a.to_rows() == ((1, 2), (3, 4))


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


@pytest.mark.parametrize("bad", [2.9, 2.0, Fraction(7, 2), Fraction(4, 1), Decimal("2.5")])
def test_matrix_refuses_non_integer_entries(bad):
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1, bad]])


def test_matrix_takes_int_and_bool_entries_as_int():
    m = IntMatrix.from_rows([[True, False, 10**40]])
    assert m.to_rows() == ((1, 0, 10**40),)
    assert all(type(e) is int for e in m.row(0))


def test_matrix_rows_and_columns_refuse_an_index_past_the_shape():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(IndexError):
        m.row(2)
    with pytest.raises(IndexError):
        m.col(3)
    assert [len(m.row(i)) for i in range(2)] == [3, 3]
    assert [len(m.col(j)) for j in range(3)] == [2, 2, 2]


def test_matrix_is_immutable_and_hashable():
    a = IntMatrix.from_rows([[1, 0], [0, 1]])
    assert a == IntMatrix.from_rows(([1, 0], (0, True)))
    assert hash(a) == hash(IntMatrix.from_rows([[1, 0], [0, 1]]))
    assert a != IntMatrix.from_rows([[1, 0, 0, 1]])
    with pytest.raises(AttributeError):
        a.rows = 3


def test_matrix_shape_mismatch_raises():
    with pytest.raises(ValueError, match="vector length 3 does not match cols 2"):
        IntMatrix.from_rows([[1, 2], [3, 4]]).apply((1, 2, 3))


@given(int_matrices(4))
def test_transpose_involution(rows):
    # the columns of a, read as rows, make its transpose, whose columns are a's rows
    a = IntMatrix.from_rows(rows)
    t = IntMatrix.from_rows(a.col(j) for j in range(a.cols))
    assert (t.rows, t.cols) == (a.cols, a.rows)
    assert IntMatrix.from_rows(t.col(j) for j in range(t.cols)) == a


def test_apply_preserves_exactness():
    a = IntMatrix.from_rows([[2, 1], [0, 3]])
    assert a.apply((1, 1)) == (3, 3)
    out = a.apply((Fraction(1, 2), Fraction(1, 3)))
    assert out == (Fraction(4, 3), Fraction(1, 1))
    assert all(isinstance(x, Fraction) for x in out)


def test_vec_dot():
    assert vec_dot((1, 2, 3), (4, 5, 6)) == 32
    assert vec_dot((Fraction(1, 2),), (3,)) == Fraction(3, 2)


# ------------------------------------------------------------------ PhaseQ


def test_frac_mod1():
    assert frac_mod1(Fraction(7, 5)) == Fraction(2, 5)
    assert frac_mod1(Fraction(-1, 5)) == Fraction(4, 5)
    assert frac_mod1(3) == 0


def test_phase_basics():
    a = PhaseQ(Fraction(3, 5))
    assert (a.numerator, a.denominator) == (3, 5)
    assert str(a) == "3/5"
    assert PhaseQ(Fraction(7, 5)) == PhaseQ(Fraction(2, 5))
    assert PhaseQ(0).denominator == 1


rationals = st.fractions(max_denominator=60)


@given(rationals, rationals, rationals)
def test_phase_group_laws(x, y, z):
    a, b, c = PhaseQ(x), PhaseQ(y), PhaseQ(z)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + PhaseQ(0) == a
    assert a + PhaseQ(-x) == PhaseQ(0)


@given(rationals, st.integers(-20, 20))
def test_phase_scaling(x, n):
    # n-fold sums of a, or of its inverse, are the phase of n·x
    a = PhaseQ(x if n > 0 else -x)
    total = PhaseQ(0)
    for _ in range(abs(n)):
        total = total + a
    assert PhaseQ(n * x) == total


@given(rationals)
def test_phase_order_annihilates(x):
    a = PhaseQ(x)
    total = PhaseQ(0)
    for _ in range(a.denominator):
        total = total + a
    assert total == PhaseQ(0)


@given(rationals, rationals)
def test_phase_hash_consistent_with_eq(x, y):
    a, b = PhaseQ(x), PhaseQ(y)
    if a == b:
        assert hash(a) == hash(b)


def test_phase_immutable():
    a = PhaseQ(Fraction(1, 3))
    with pytest.raises(AttributeError):
        a.value = Fraction(1, 2)


# ------------------------------------------------------- Smith normal form


def test_snf_pinned_example():
    rows = [[2, 4], [4, 8], [6, 18]]
    D, v_inverse = smith_form(rows)
    assert [d for d in diagonal(D) if d] == [2, 6]
    assert_smith_certificate(rows, diagonal(D), v_inverse)


def snf_all_properties(rows):
    D, v_inverse = smith_form(rows)
    diag = diagonal(D)
    assert_smith_certificate(rows, diag, v_inverse)
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz, "zeros trail"
    for d1, d2 in zip(nz, nz[1:]):
        assert d2 % d1 == 0, "divisibility chain"
    # off-diagonal of D is zero
    for i, row in enumerate(D):
        for j, e in enumerate(row):
            if i != j:
                assert e == 0


@given(int_matrices(4))
def test_snf_property_suite(rows):
    snf_all_properties(rows)


def test_snf_edge_shapes():
    snf_all_properties([[0]])
    snf_all_properties([[7]])
    snf_all_properties([[0, 0, 0]])
    snf_all_properties([[3], [6], [9]])


@given(int_matrices(4))
def test_snf_rank_and_v_inverse(rows):
    D, v_inverse = smith_form(rows)
    n = len(rows[0])
    assert [len(row) for row in v_inverse] == [n] * n
    assert_smith_certificate(rows, diagonal(D), v_inverse)


# Inputs on which floor-quotient elimination blew the transforms up to
# millions of bits and ran for minutes; nearest-integer reduction keeps V^-1
# small here.
BLOWUP_INPUTS = [
    [[-19, 14, -23, 21, -9], [23, 7, -19, -26, 15], [-14, 15, 18, -3, 27],
     [-11, -17, -22, 30, -24], [13, -15, 29, 28, 10]],
    random_splitting(5, 5, 48).P.to_rows(),
    random_splitting(6, 31, 48).P.to_rows(),
]


def assert_transforms_small(rows):
    snf_all_properties(rows)
    _, v_inverse = smith_form(rows)
    assert max(abs(e).bit_length() for row in v_inverse for e in row) <= 128


@pytest.mark.parametrize("rows", BLOWUP_INPUTS, ids=["pinned-5x5", "g5-s5-l48", "g6-s31-l48"])
def test_snf_entries_stay_small(rows):
    assert_transforms_small(rows)


@given(int_matrices(5, st.integers(-30, 30)))
def test_snf_wide_entries(rows):
    assert_transforms_small(rows)


# --------------------------------------------------------------- cokernel


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_cokernel_matches_residue_enumeration(rows):
    d = abs(det_laplace(rows))
    if d == 0 or d > 30:
        return
    D, _ = smith_form(rows)
    factors = [x for x in diagonal(D) if x > 1]
    assert cokernel_order_multiset(rows) == abelian_order_multiset(factors)


# --------------------------------------------------------- kernel, det


def kernel_columns(rows):
    """The columns of V⁻¹ past the rank: a basis of the integer kernel."""
    D, v_inverse = smith_form(rows)
    rank = sum(1 for d in diagonal(D) if d)
    return [tuple(row[j] for row in v_inverse) for j in range(rank, len(v_inverse))]


def test_integer_kernel_pinned():
    assert kernel_columns([[2, 4]]) == [(-2, 1)]


@given(int_matrices(4))
def test_integer_kernel_annihilation_and_rank(rows):
    a = IntMatrix.from_rows(rows)
    basis = kernel_columns(rows)
    assert len(basis) == a.cols - sum(1 for d in minor_gcd_diagonal(rows) if d)
    for v in basis:
        assert a.apply(v) == (0,) * a.rows

