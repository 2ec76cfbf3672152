import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heegaard.exact import (
    PhaseQ,
    _apply,
    frac_mod1,
    vec_dot,
)
from heegaard.splitting import GluingData, ValidationError, lens, random_splitting, validate
from conftest import diagonal, matmul, smith_form
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


# ------------------------------------------------------------ gluing blocks


def test_matrix_construction_and_access():
    # any iterable of integer rows goes in; each block is kept as a tuple of row tuples
    G = validate([[0, 0], [0, 0]], ([1, 2], (0, 1)), iter([[1, 0], [-2, 1]]), [[0, 0]] * 2)
    assert G.genus == 2
    assert (G.P, G.S) == (((1, 2), (0, 1)), ((1, 0), (-2, 1)))
    assert all(type(r) is tuple for b in (G.R, G.P, G.S, G.Q) for r in b)
    assert G.P[0][1] == 2 and G.S[1][0] == -2


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValidationError) as exc:
        validate([[0, 0], [0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 0], [0, 0]])
    assert exc.value.violations == ("block R is not an integer matrix: ragged rows",)


@pytest.mark.parametrize("bad", [2.9, 2.0, Fraction(7, 2), Fraction(4, 1), Decimal("2.5")])
def test_matrix_refuses_non_integer_entries(bad):
    # refused, not truncated, even where int() would lose nothing: 2.0 and Fraction(4, 1)
    with pytest.raises(ValidationError) as exc:
        validate([[0]], [[1]], [[1]], [[bad]])
    name = "decimal.Decimal" if isinstance(bad, Decimal) else type(bad).__name__
    assert exc.value.violations == (
        f"block Q is not an integer matrix: '{name}' object cannot be interpreted as an integer",
    )


def test_matrix_takes_int_and_bool_entries_as_int():
    G = GluingData([[0]], [[True]], [[1]], [[10**40]])
    assert (G.R, G.P, G.S, G.Q) == (((0,),), ((1,),), ((1,),), ((10**40,),))
    assert all(type(e) is int for b in (G.R, G.P, G.S, G.Q) for r in b for e in r)


def test_matrix_is_immutable_and_hashable():
    G = lens(7, 3)
    with pytest.raises(AttributeError):
        G.P.x = 1
    assert G.P == ((7,),) and hash(G.P) == hash(((7,),))
    assert G.P.to_rows() is G.P  # the benchmark reads each block through to_rows()
    for H in (pickle.loads(pickle.dumps(G)), copy.copy(G), copy.deepcopy(G)):
        assert H == G and type(H.P) is type(G.P)


def test_apply_preserves_exactness():
    rows = ((2, 1), (0, 3))
    assert _apply(rows, (1, 1)) == (3, 3)
    out = _apply(rows, (Fraction(1, 2), Fraction(1, 3)))
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
    basis = kernel_columns(rows)
    assert len(basis) == len(rows[0]) - sum(1 for d in minor_gcd_diagonal(rows) if d)
    for v in basis:
        assert matmul(rows, [[x] for x in v]) == [[0]] * len(rows)

