import time
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from heegaard import cli, linking, partition
from heegaard.exact import PhaseQ
from heegaard.homology import homology_profile, torsion_elements
from heegaard.linking import is_nondegenerate, linking_form, linking_matrix
from heegaard.partition import PhaseSum, z_cs
from heegaard.splitting import GluingData, connected_sum, lens, random_splitting, stabilize
from conftest import free_flat_basis, matmul
from oracle_helpers import diag_quad_counts, index_sum, radical_order_scan, radical_order_smith

splitting_params = st.tuples(
    st.integers(1, 3), st.integers(0, 150), st.sampled_from([0, 3, 6, 10, 15])
)


def test_pinned_lens_values():
    G = lens(5, 2)
    T = torsion_elements(G)
    th1, th2 = T.by_index((1,)), T.by_index((2,))
    assert linking_form(G, th1, th1) == PhaseQ(Fraction(2, 5))
    assert linking_form(G, th1, th2) == PhaseQ(Fraction(4, 5))
    lm = linking_matrix(lens(7, 2))
    assert lm.gram == ((PhaseQ(Fraction(2, 7)),),)


@given(st.integers(2, 15), st.integers(-14, 14), st.integers(0, 14), st.integers(0, 14))
def test_lens_law(p, q, a, b):
    if gcd(p, q) != 1:
        return
    G = lens(p, q)
    T = torsion_elements(G)
    th, vt = T.by_index((a % p,)), T.by_index((b % p,))
    expected = PhaseQ(Fraction((q if p >= 0 else -q) * (a % p) * (b % p), p))
    assert linking_form(G, th, vt) == expected


@given(splitting_params, st.data())
def test_symmetry_and_bilinearity(params, data):
    G = random_splitting(*params)
    T = torsion_elements(G)
    if len(T) == 1:
        return
    n = len(T)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, n - 1))
    a, b, c = T[i], T[j], T[k]
    assert linking_form(G, a, b) == linking_form(G, b, a)
    total = T.by_index(index_sum(T.dims, i, j))
    assert linking_form(G, total, c) == linking_form(G, a, c) + linking_form(G, b, c)


@given(splitting_params, st.data())
def test_representative_independence(params, data):
    G = random_splitting(*params)
    T = torsion_elements(G)
    if len(T) == 1:
        return
    i = data.draw(st.integers(1, len(T) - 1))
    j = data.draw(st.integers(0, len(T) - 1))
    th, vt = T[i], T[j]
    base = linking_form(G, th, vt)
    shift = data.draw(
        st.lists(st.integers(-3, 3), min_size=G.genus, max_size=G.genus)
    )
    moved = tuple(x + z for x, z in zip(th, shift))
    assert linking_form(G, moved, vt) == base
    # shifting by a rational kernel vector of P also fixes the class
    free = free_flat_basis(G)
    if free:
        c = data.draw(st.fractions(max_denominator=8))
        moved2 = tuple(x + c * u for x, u in zip(th, free[0]))
        assert linking_form(G, moved2, vt) == base


@given(splitting_params)
def test_nondegenerate_on_valid_splittings(params):
    assert is_nondegenerate(random_splitting(*params))


@st.composite
def divisor_chains_with_grams(draw):
    """Invariant factors d_1 | … | d_r with Π d_i ≤ 3000, and a symmetric
    integer gram over L = d_r whose entry (i, j) is a multiple of
    L / gcd(d_i, d_j), so that d_i·g_ij ≡ 0 (mod L) as for a linking form;
    degenerate forms are drawn too."""
    dims = [draw(st.integers(2, 30))]
    while len(dims) < 4:
        cap = min(8, 3000 // (prod(dims) * dims[-1]))
        if cap < 1 or not draw(st.booleans()):
            break
        dims.append(dims[-1] * draw(st.integers(1, cap)))
    L = dims[-1]
    r = len(dims)
    g = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            step = L // gcd(dims[i], dims[j])
            g[i][j] = g[j][i] = step * draw(st.integers(0, L // step - 1))
    return dims, L, g


@settings(max_examples=300)
@given(divisor_chains_with_grams())
def test_radical_order_matches_scan(case):
    dims, L, g = case
    assert radical_order_smith(dims, L, g) == radical_order_scan(dims, g, L)


@settings(max_examples=300)
@given(divisor_chains_with_grams())
def test_jordan_splitting_decides_degeneracy_as_the_scan(case):
    dims, L, g = case
    if radical_order_scan(dims, g, L) != 1:
        with pytest.raises(linking._Degenerate, match="degenerate"):
            partition._jordan_histogram(linking._jordan_blocks(dims, L, g))
    else:
        counts = diag_quad_counts(dims, g, L)
        want = PhaseSum({Fraction(n, L): c for n, c in counts.items()})
        assert partition._jordan_histogram(linking._jordan_blocks(dims, L, g)) == want


def assert_nondegenerate_by_scan(G):
    dims = torsion_elements(G).dims
    lm = linking_matrix(G)
    assert radical_order_scan(dims, lm.num, lm.den) == 1
    assert is_nondegenerate(G)


def test_nondegenerate_on_lens_spaces_and_corpus(corpus):
    for p in range(1, 31):
        for q in range(-p + 1, p):
            if gcd(p, q) == 1:
                assert_nondegenerate_by_scan(lens(p, q))
    small = [G for G in corpus if len(torsion_elements(G)) <= 600]
    assert small
    for G in small:
        assert_nondegenerate_by_scan(G)


def test_one_splitting_and_one_factoring_per_manifold(monkeypatch, corpus):
    splits, factorings, bf_factorings = [], [], []
    blocks = linking._jordan_blocks

    def counting_blocks(*args):
        splits.append(args)
        return blocks(*args)

    def counting_parts(calls, parts):
        def counted(n):
            calls.append(n)
            return parts(n)
        return counted

    monkeypatch.setattr(linking, "_jordan_blocks", counting_blocks)
    monkeypatch.setattr(linking, "_primary_parts", counting_parts(factorings, linking._primary_parts))
    # z_bf factors d_r / gcd(k, d_r) for its own divisors, counted apart
    monkeypatch.setattr(partition, "_primary_parts", counting_parts(bf_factorings, partition._primary_parts))
    for G in [connected_sum(lens(45, 7), lens(60, 11)), *corpus]:
        G = GluingData(G.R, G.P, G.S, G.Q)  # a fresh memo
        splits.clear()
        factorings.clear()
        assert is_nondegenerate(G)
        for k in range(1, 13):
            z_cs(G, k)
        assert is_nondegenerate(G)
        assert (len(splits), len(factorings), bf_factorings) == (1, 1, [])
    # every check of `heegaard oracle` at four levels: still one splitting and
    # one factoring of d_r = 180, besides z_bf's one per gcd class
    G = connected_sum(lens(45, 7), lens(60, 11))
    splits.clear()
    factorings.clear()
    for k in (1, 2, 3, 6):
        assert cli._oracle(G, SimpleNamespace(level=k))["all_agree"]
    assert (len(splits), factorings, bf_factorings) == (1, [180], [180, 90, 60, 30])


def test_nondegenerate_enumerates_nothing():
    # |T| = 10^9: any enumeration of the torsion group would not finish
    G = connected_sum(connected_sum(lens(1000, 3), lens(1000, 7)), lens(1000, 11))
    t0 = time.perf_counter()
    assert is_nondegenerate(G)
    assert time.perf_counter() - t0 < 0.1


def test_nondegenerate_factors_a_prime_near_the_square_of_the_limit():
    # 10¹² + 39 is prime, so the Jordan splitting runs trial division to 10⁶
    t0 = time.perf_counter()
    assert is_nondegenerate(lens(10**12 + 39, 1))
    assert time.perf_counter() - t0 < 1.0


def test_nondegenerate_refuses_a_prime_past_the_square_of_the_limit():
    limit = linking._ENUMERATION_LIMIT
    p = (limit + 1) ** 2 + 6
    assert all(p % d for d in range(2, isqrt(p) + 1))
    # the refusal is an error, never a verdict that the form is degenerate
    with pytest.raises(ValueError, match=f"every prime factor of {p} exceeds the enumeration limit {limit}") as exc:
        is_nondegenerate(lens(p, 1))
    assert not isinstance(exc.value, linking._Degenerate)


def test_non_torsion_argument_rejected():
    G = lens(5, 1)
    good = torsion_elements(G).by_index((1,))
    with pytest.raises(ValueError, match="theta is not a torsion"):
        linking_form(G, (Fraction(1, 3),), good)
    with pytest.raises(ValueError, match="vartheta is not a torsion"):
        linking_form(G, good, (Fraction(1, 3),))


@given(splitting_params)
def test_linking_matrix_tabulates_generators(params):
    G = random_splitting(*params)
    lm = linking_matrix(G)
    T = torsion_elements(G)
    r = len(T.dims)
    assert len(lm.generators) == r
    columns = homology_profile(G).torsion_columns
    assert len(columns) == r
    for i, (c, d) in enumerate(zip(columns, lm.dims)):
        assert all(0 <= x < d for x in c)
        assert all(y % d == 0 for [y] in matmul(G.P, [[x] for x in c]))
        assert tuple(Fraction(x, d) for x in c) == tuple(lm.generators[i])
    for i in range(r):
        unit = tuple(1 if t == i else 0 for t in range(r))
        assert lm.generators[i] == T.by_index(unit)
        for j in range(r):
            assert lm.gram[i][j] == linking_form(G, lm.generators[i], lm.generators[j])
            assert lm.gram[i][j] == lm.gram[j][i]


@given(splitting_params)
def test_linking_matrix_integer_form_consistent(params):
    G = random_splitting(*params)
    lm = linking_matrix(G)
    r = len(lm.generators)
    assert lm.dims == torsion_elements(G).dims and len(lm.dims) == r
    assert lm.den == lcm(*(ph.denominator for row in lm.gram for ph in row))
    for i in range(r):
        for j in range(r):
            assert 0 <= lm.num[i][j] < lm.den
            assert Fraction(lm.num[i][j], lm.den) == lm.gram[i][j].value


def test_linking_matrix_built_once_per_instance(monkeypatch):
    built = []
    build = linking.LinkingMatrix._trusted
    monkeypatch.setattr(linking.LinkingMatrix, "_trusted", lambda *args: built.append(args) or build(*args))
    G = random_splitting(2, 3, 12)
    assert torsion_elements(G).dims
    lm = linking_matrix(G)
    assert is_nondegenerate(G)
    for k in range(1, 7):
        z_cs(G, k)
    assert len(built) == 1
    assert linking_matrix(G) is lm
    H = random_splitting(2, 3, 12)
    assert H == G and H is not G
    linking_matrix(H)
    assert len(built) == 2


@pytest.mark.parametrize(
    "G", [lens(1, 0), lens(0, 1), stabilize(lens(0, 1))], ids=["S3", "S1xS2", "stabilized_S1xS2"]
)
def test_torsion_free_form_is_empty(G):
    lm = linking_matrix(G)
    assert lm.dims == () and lm.den == 1
    assert lm.generators == () and lm.num == () and lm.gram == ()
    assert is_nondegenerate(G)
