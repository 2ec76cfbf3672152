from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import heegaard.exact
import heegaard.homology
from heegaard.exact import integer_kernel
from heegaard.homology import (
    HomologyProfile,
    TorsionRep,
    curvature_lattice_basis,
    free_flat_basis,
    homology_profile,
    torsion_elements,
)
from heegaard.splitting import connected_sum, lens, random_splitting
from oracle_helpers import (
    abelian_order_multiset,
    cokernel_order_multiset,
    merge_invariant_factors,
    minor_gcd_diagonal,
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
    snf = homology_profile(lens(5, 1)).snf_of_P
    profile = HomologyProfile(0, (d for d in [5]), snf)
    assert (profile.invariant_factors, profile.torsion_order) == ((5,), 5)


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


def brute_order(T, idx):
    one = idx
    acc = idx
    n = 1
    zero = tuple(0 for _ in T.dims)
    while acc != zero:
        acc = tuple((x + y) % d for x, y, d in zip(acc, one, T.dims))
        n += 1
    return n


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
        assert T.index_of(rep) is not None
        assert T[i] == rep
        # every representative is a genuine torsion flat parameter
        assert all(x.denominator == 1 for x in G.P.apply(tuple(rep)))
    if len(T) > 60:
        reps = reps[:25]
    for a in reps[:8]:
        for b in reps[:8]:
            ia = T.index_of(a)
            ib = T.index_of(b)
            expected = tuple((x + y) % d for x, y, d in zip(ia, ib, T.dims))
            assert T.index_of(T.add(a, b)) == expected


@given(splitting_params, st.integers(1, 7))
def test_kernel_count_matches_brute_force(params, k):
    G = random_splitting(*params)
    T = torsion_elements(G)
    if len(T) > 500:
        return
    zero = tuple(0 for _ in T.dims)
    brute = 0
    for idx_rep in T:
        idx = T.index_of(idx_rep)
        if tuple((k * x) % d for x, d in zip(idx, T.dims)) == zero:
            brute += 1
    assert T.kernel_count(k) == brute


def test_torsion_rep_pinned_lens5():
    T = torsion_elements(lens(5, 1))
    assert [tuple(rep) for rep in T] == [
        (Fraction(a, 5),) for a in range(5)
    ]


def test_index_of_rejects_non_torsion():
    T = torsion_elements(lens(5, 1))
    with pytest.raises(ValueError):
        T.index_of(TorsionRep((Fraction(1, 3),)))


def mixed_radix(i, dims):
    """Multi-index of element number i, last index fastest."""
    index = []
    for d in reversed(dims):
        i, a = divmod(i, d)
        index.append(a)
    return tuple(reversed(index))


def test_index_of_on_a_manifold_with_a_free_mode():
    G = connected_sum(lens(5, 2), lens(0, 1))
    assert homology_profile(G).b1 == 1
    T = torsion_elements(G)
    (f,) = free_flat_basis(G)
    for i in range(len(T)):
        shifted = tuple(x + n for x, n in zip(T[i], (3, -7)))
        assert T.index_of(shifted) == mixed_radix(i, T.dims)
        half_free = tuple(x + c / 2 for x, c in zip(T[i], f))
        with pytest.raises(ValueError, match="outside the torsion subgroup"):
            T.index_of(half_free)


def test_index_of_decodes_every_element(corpus):
    for G in corpus:
        T = torsion_elements(G)
        if len(T) <= 60:
            assert [T.index_of(T[i]) for i in range(len(T))] == [mixed_radix(i, T.dims) for i in range(len(T))]


def test_torsion_rep_behaves_like_sequence():
    rep = TorsionRep((Fraction(1, 2), Fraction(0)))
    assert len(rep) == 2
    assert rep[0] == Fraction(1, 2)
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
        assert tuple(G.P.apply(v)) == zero
    for m in curv:
        assert all(isinstance(c, int) for c in m)
        assert tuple(G.P.transpose().apply(m)) == zero


def curvature_cases(corpus):
    """The corpus, S¹×S², and random splittings summed with S¹×S² once or twice."""
    handle = lens(0, 1)
    sums = [connected_sum(random_splitting(1 + i % 3, i, (6, 15)[i % 2]), handle) for i in range(24)]
    return [*corpus, handle, *sums, *(connected_sum(G, handle) for G in sums[:6])]


def test_curvature_lattice_is_saturated_and_spans_ker_P_transpose(corpus):
    for G in curvature_cases(corpus):
        b1 = homology_profile(G).b1
        basis = curvature_lattice_basis(G)
        kernel = integer_kernel(G.P.transpose())
        assert len(basis) == len(kernel) == b1
        if not b1:
            continue
        assert minor_gcd_diagonal(basis) == [1] * b1
        assert minor_gcd_diagonal(kernel) == [1] * b1
        # both saturated of rank b1, and together of rank b1: the same lattice
        stacked = minor_gcd_diagonal(basis + kernel)
        assert stacked[:b1] == [1] * b1 and not any(stacked[b1:])


def test_curvature_lattice_reuses_the_smith_form_of_P(corpus, monkeypatch):
    cases = curvature_cases(corpus)
    for G in cases:
        homology_profile(G)

    def refuse(A):
        raise AssertionError("a second Smith form")

    monkeypatch.setattr(heegaard.exact, "smith_normal_form", refuse)
    monkeypatch.setattr(heegaard.homology, "smith_normal_form", refuse)
    for G in cases:
        for m in curvature_lattice_basis(G):
            assert G.P.transpose().apply(m) == (0,) * G.genus


@given(st.integers(2, 12), st.integers(1, 11), st.integers(1, 7))
def test_lens_kernel_count_closed_form(p, q, k):
    if gcd(p, q) != 1:
        return
    T = torsion_elements(lens(p, q))
    assert T.dims == (p,)
    assert T.kernel_count(k) == gcd(k, p)
