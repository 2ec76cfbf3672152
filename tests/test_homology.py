import pickle
from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

import heegaard.exact
import heegaard.homology
from heegaard.homology import (
    HomologyProfile,
    TorsionRep,
    curvature_lattice_basis,
    homology_profile,
    torsion_elements,
)
from heegaard.splitting import connected_sum, lens, random_splitting
from conftest import diagonal, free_flat_basis, matmul, smith_form, transpose
from oracle_helpers import (
    abelian_order_multiset,
    cokernel_order_multiset,
    index_sum,
    merge_invariant_factors,
    minor_gcd_diagonal,
    mixed_radix,
    same_torsion_class,
)

splitting_params = st.tuples(
    st.integers(1, 3), st.integers(0, 200), st.sampled_from([0, 3, 6, 10, 15])
)


def test_profile_pinned_lens():
    p5 = homology_profile(lens(5, 1))
    assert (p5.b1, list(p5.invariant_factors), p5.torsion_order) == (0, [5], 5)
    sphere = homology_profile(lens(1, 0))
    assert (sphere.b1, list(sphere.invariant_factors)) == (0, [])
    handle = homology_profile(lens(0, 1))
    assert (handle.b1, list(handle.invariant_factors)) == (1, [])


def test_profile_takes_factors_from_a_generator():
    built = homology_profile(lens(5, 1))
    profile = HomologyProfile(0, (d for d in [5]), built.torsion_columns, built.kernel_columns)
    assert (profile.invariant_factors, profile.torsion_order) == ((5,), 5)


def test_profile_keeps_columns_not_the_smith_form():
    """A genus-20 profile holds its two column sets, not the full V⁻¹."""
    profile = homology_profile(random_splitting(20, 1, 2000))
    assert len(pickle.dumps(profile)) < 10_000


def test_profile_pinned_connected_sum():
    G = connected_sum(lens(2, 1), lens(3, 1))
    assert list(homology_profile(G).invariant_factors) == [6]


@given(splitting_params, splitting_params)
def test_connected_sum_profile_merges(a, b):
    G1, G2 = random_splitting(*a), random_splitting(*b)
    p1, p2 = homology_profile(G1), homology_profile(G2)
    ps = homology_profile(connected_sum(G1, G2))
    assert ps.b1 == p1.b1 + p2.b1
    assert list(ps.invariant_factors) == merge_invariant_factors(
        p1.invariant_factors, p2.invariant_factors
    )


@given(splitting_params)
def test_group_structure_matches_residue_enumeration(params):
    """H1 torsion really is coker P, element orders and all."""
    G = random_splitting(*params)
    prof = homology_profile(G)
    if prof.b1 != 0 or prof.torsion_order > 30:
        return
    rows = [list(r) for r in G.P.to_rows()]
    assert cokernel_order_multiset(rows) == abelian_order_multiset(
        prof.invariant_factors
    )


def assert_distinct_classes(G, T):
    """T[0], ..., T[|T|−1] are |T| distinct classes of coker P.

    With gⱼ = by_index(eⱼ): dⱼ·gⱼ is in the class of 0, T[i] is in the
    class of Σ aⱼ·gⱼ for a = mixed_radix(i), and only T[0] is in the class
    of 0.  So a ↦ [T[i]] is a homomorphism from ⊕ ℤ/dⱼ with trivial kernel.
    """
    rows = G.P.to_rows()
    zero = (0,) * G.genus
    r = len(T.dims)
    gens = [T.by_index(tuple(int(i == j) for j in range(r))) for i in range(r)]
    for d, gen in zip(T.dims, gens):
        assert same_torsion_class(rows, [d * x for x in gen], zero)
    for i in range(len(T)):
        a = mixed_radix(i, T.dims)
        combo = [sum(ai * gen.theta[c] for ai, gen in zip(a, gens)) for c in range(G.genus)]
        assert same_torsion_class(rows, T[i], combo)
        assert same_torsion_class(rows, T[i], zero) == (i == 0)


@given(splitting_params)
def test_torsion_elements_group_law(params):
    G = random_splitting(*params)
    T = torsion_elements(G)
    prof = homology_profile(G)
    assert len(T) == prof.torsion_order
    if len(T) > 400:
        return
    reps = list(T)
    assert len({rep for rep in reps}) == len(T)
    for i, rep in enumerate(reps):
        assert T[i] == rep
        # every representative is a genuine torsion flat parameter
        assert all(x.denominator == 1 for [x] in matmul(G.P, [[t] for t in rep]))
    assert_distinct_classes(G, T)
    rows = G.P.to_rows()
    for i in range(min(len(T), 8)):
        for j in range(min(len(T), 8)):
            total = T.by_index(index_sum(T.dims, i, j))
            assert same_torsion_class(rows, total, [x + y for x, y in zip(T[i], T[j])])


@given(splitting_params, st.integers(1, 7))
def test_kernel_count_matches_brute_force(params, k):
    G = random_splitting(*params)
    T = torsion_elements(G)
    if len(T) > 500:
        return
    rows = G.P.to_rows()
    zero = (0,) * G.genus
    brute = sum(same_torsion_class(rows, [k * x for x in rep], zero) for rep in T)
    assert homology_profile(G).kernel_count(k) == brute


def test_torsion_rep_pinned_lens5():
    T = torsion_elements(lens(5, 1))
    assert [tuple(rep) for rep in T] == [
        (Fraction(a, 5),) for a in range(5)
    ]


def test_torsion_classes_on_a_manifold_with_a_free_mode():
    G = connected_sum(lens(5, 2), lens(0, 1))
    assert homology_profile(G).b1 == 1
    T = torsion_elements(G)
    assert_distinct_classes(G, T)
    rows = G.P.to_rows()
    for i in range(len(T)):
        shifted = tuple(x + n for x, n in zip(T[i], (3, -7)))
        assert [same_torsion_class(rows, shifted, T[j]) for j in range(len(T))] == [j == i for j in range(len(T))]


def test_torsion_elements_are_distinct_classes(corpus):
    for G in corpus:
        T = torsion_elements(G)
        if len(T) <= 60:
            assert_distinct_classes(G, T)


def test_torsion_rep_behaves_like_sequence():
    rep = TorsionRep((Fraction(1, 2), Fraction(0)))
    assert len(rep) == 2
    assert rep.theta[0] == Fraction(1, 2)
    assert tuple(rep) == (Fraction(1, 2), Fraction(0))
    assert hash(rep) == hash(TorsionRep((Fraction(1, 2), Fraction(0))))


@given(splitting_params)
def test_flat_bases(params):
    G = random_splitting(*params)
    prof = homology_profile(G)
    free = free_flat_basis(G)
    curv = curvature_lattice_basis(G)
    assert len(free) == prof.b1
    assert len(curv) == prof.b1
    zero = (0,) * G.genus
    for v in free:
        assert matmul(G.P, [[x] for x in v]) == [[0]] * G.genus
    for m in curv:
        assert all(isinstance(c, int) for c in m)
        assert matmul([m], G.P.to_rows()) == [list(zero)]


def curvature_cases(corpus):
    """The corpus, S¹×S², and random splittings summed with S¹×S² once or twice."""
    handle = lens(0, 1)
    sums = [connected_sum(random_splitting(1 + i % 3, i, (6, 15)[i % 2]), handle) for i in range(24)]
    return [*corpus, handle, *sums, *(connected_sum(G, handle) for G in sums[:6])]


def test_curvature_lattice_is_saturated_and_spans_ker_P_transpose(corpus):
    for G in curvature_cases(corpus):
        b1 = homology_profile(G).b1
        basis = curvature_lattice_basis(G)
        D, v_inverse = smith_form(transpose(G.P.to_rows()))
        rank = sum(1 for d in diagonal(D) if d)
        kernel = list(zip(*v_inverse))[rank:]
        assert len(basis) == len(kernel) == b1
        if not b1:
            continue
        assert minor_gcd_diagonal(basis) == [1] * b1
        assert minor_gcd_diagonal(kernel) == [1] * b1
        # both saturated of rank b1, and together of rank b1: the same lattice
        stacked = minor_gcd_diagonal(basis + kernel)
        assert stacked[:b1] == [1] * b1 and not any(stacked[b1:])


def test_kernel_columns_are_a_saturated_basis_of_ker_P(corpus):
    for G in [*curvature_cases(corpus), connected_sum(lens(5, 2), lens(0, 1))]:
        profile = homology_profile(G)
        columns = [list(c) for c in profile.kernel_columns]
        assert len(columns) == profile.b1
        for c in columns:
            assert all(isinstance(x, int) for x in c)
            assert matmul(G.P, [[x] for x in c]) == [[0]] * G.genus
        if columns:
            assert minor_gcd_diagonal(columns) == [1] * profile.b1


def test_curvature_lattice_reuses_the_smith_form_of_P(corpus, monkeypatch):
    cases = curvature_cases(corpus)
    for G in cases:
        homology_profile(G)

    def refuse(A):
        raise AssertionError("a second Smith elimination")

    monkeypatch.setattr(heegaard.exact, "_smith_eliminate", refuse)
    monkeypatch.setattr(heegaard.homology, "_smith_eliminate", refuse)
    for G in cases:
        for m in curvature_lattice_basis(G):
            assert matmul([m], G.P.to_rows()) == [[0] * G.genus]


@given(st.integers(2, 12), st.integers(1, 11), st.integers(1, 7))
def test_lens_kernel_count_closed_form(p, q, k):
    if gcd(p, q) != 1:
        return
    G = lens(p, q)
    assert torsion_elements(G).dims == (p,)
    assert homology_profile(G).kernel_count(k) == gcd(k, p)


def assert_columns_are_the_smith_columns(G):
    """The profile's columns equal those of the exact V⁻¹: mod dᵢ, or exact past the rank."""
    profile = homology_profile(G)
    D, v_inverse = smith_form(G.P.to_rows())
    vinv_cols, rank = list(zip(*v_inverse)), sum(1 for d in diagonal(D) if d)
    first = rank - len(profile.invariant_factors)
    assert profile.b1 == G.genus - rank
    assert profile.torsion_columns == tuple(
        tuple(x % d for x in vinv_cols[first + i]) for i, d in enumerate(profile.invariant_factors)
    )
    assert profile.kernel_columns == tuple(vinv_cols[rank:])
    return profile.b1


def test_profile_columns_are_the_smith_columns(corpus):
    randoms = [random_splitting(4 + i % 3, i, (12, 30)[i % 2]) for i in range(12)]
    cases = [*curvature_cases(corpus), *randoms, *(connected_sum(G, lens(0, 1)) for G in randoms)]
    # b1 = 1 beside torsion, with kernel entries outside [0, d_r) that a reduction mod d_r would move
    free = [random_splitting(2, 88, 22), random_splitting(2, 233, 12), random_splitting(3, 26, 12)]
    assert all(
        any(not 0 <= x < p.invariant_factors[-1] for c in p.kernel_columns for x in c)
        for p in map(homology_profile, free)
    )
    cases += free + [connected_sum(G, lens(35, 8)) for G in free]
    assert {0, 1, 2} <= {assert_columns_are_the_smith_columns(G) for G in cases}


@given(st.integers(1, 6), st.integers(0, 10**6), st.integers(0, 40), st.integers(0, 2))
def test_profile_columns_are_the_smith_columns_law(genus, seed, length, handles):
    G = random_splitting(genus, seed, length)
    for _ in range(handles):
        G = connected_sum(G, lens(0, 1))
    assert assert_columns_are_the_smith_columns(G) >= handles
