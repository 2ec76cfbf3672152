import cmath
import copy
import pickle
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, pi, sqrt

import pytest
from hypothesis import assume, given, strategies as st

import heegaard.partition as partition
from heegaard.exact import IntMatrix, PhaseQ, frac_mod1, smith_normal_form
from heegaard.fields import FiniteDBClass
from heegaard.homology import TorsionRep, homology_profile, torsion_elements
from heegaard.linking import is_nondegenerate, linking_matrix
from heegaard.partition import (
    PhaseSum,
    eval_numeric,
    free_mode_grid_oracle,
    gauss_sum_oracle,
    z_bf,
    z_bf_closed_form,
    z_cs,
)
from heegaard.splitting import (
    _ENUMERATION_LIMIT,
    GluingData,
    blocks_to_matrix,
    connected_sum,
    lens,
    matrix_to_blocks,
    random_splitting,
)
from oracle_helpers import bf_pair_histogram, fsum_phase_value, mobius

splitting_params = st.tuples(
    st.integers(1, 3), st.integers(0, 120), st.sampled_from([0, 3, 6, 10])
)


def fresh(G, k, fn):
    return fn(GluingData(G.R, G.P, G.S, G.Q), k)


def assert_z_bf_matches_pair_oracle(G, k):
    gram = linking_matrix(G).gram
    L = lcm(*(ph.denominator for row in gram for ph in row))
    gram_num = [[int(ph.value * L) for ph in row] for row in gram]
    oracle = bf_pair_histogram(torsion_elements(G).dims, gram_num, L, k)
    assert z_bf(G, k) == PhaseSum(oracle)


# --------------------------------------------------------------- PhaseSum


def test_phase_sum_canonical():
    a = PhaseSum({PhaseQ(Fraction(1, 3)): 2, PhaseQ(0): 1})
    b = PhaseSum([(Fraction(1, 3), 1), (Fraction(4, 3), 1), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a.multiplicity(PhaseQ(Fraction(1, 3))) == 2
    assert a.total_terms == 3
    assert len(a) == 2
    assert PhaseQ(0) in a and PhaseQ(Fraction(1, 7)) not in a


def test_phase_sum_drops_zero_and_rejects_negative():
    assert PhaseSum({PhaseQ(0): 0}) == PhaseSum()
    with pytest.raises(ValueError):
        PhaseSum({PhaseQ(0): -1})


def test_phase_sum_items_sorted():
    s = PhaseSum([(Fraction(2, 3), 1), (Fraction(1, 5), 4), (0, 2)])
    phases = [ph.value for ph, _ in s.items()]
    assert phases == sorted(phases)
    assert s.to_mapping() == {"0/1": 2, "1/5": 4, "2/3": 1}


def test_phase_sum_algebra():
    s = PhaseSum([(Fraction(1, 4), 1), (0, 2)])
    t = PhaseSum([(Fraction(1, 4), 3)])
    assert (s + t).multiplicity(PhaseQ(Fraction(1, 4))) == 4
    shifted = s.shift(PhaseQ(Fraction(1, 4)))
    assert shifted == PhaseSum([(Fraction(1, 2), 1), (Fraction(1, 4), 2)])
    conj = s.conjugate()
    assert conj == PhaseSum([(Fraction(3, 4), 1), (0, 2)])
    assert s.conjugate().conjugate() == s


def test_phase_sum_from_phases():
    s = PhaseSum.from_phases([PhaseQ(0), PhaseQ(0), PhaseQ(Fraction(1, 2))])
    assert s.to_mapping() == {"0/1": 2, "1/2": 1}


def test_phase_sum_immutable():
    s = PhaseSum()
    with pytest.raises(AttributeError):
        s._terms = {}


@pytest.mark.parametrize(
    "make",
    [
        lambda: IntMatrix.from_rows([[2, -1], [10**30, 0]]),
        lambda: PhaseQ(Fraction(3, 7)),
        lambda: z_cs(lens(7, 3), 2),
        lambda: random_splitting(2, 5, 12),
        lambda: smith_normal_form(IntMatrix.from_rows([[4, 6], [2, -8]])),
        lambda: homology_profile(random_splitting(2, 5, 12)),
        lambda: TorsionRep([Fraction(1, 3), 0]),
        lambda: linking_matrix(random_splitting(2, 5, 12)),
        lambda: FiniteDBClass(lens(0, 1), m=[3], theta_f=[Fraction(1, 2)], smooth_self=2),
    ],
    ids=[
        "IntMatrix",
        "PhaseQ",
        "PhaseSum",
        "GluingData",
        "SmithDecomposition",
        "HomologyProfile",
        "TorsionRep",
        "LinkingMatrix",
        "FiniteDBClass",
    ],
)
def test_values_pickle_and_copy(make):
    x = make()
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is type(x)
        assert clone == x and hash(clone) == hash(x)
    name = type(x).__slots__[0]
    value = getattr(x, name)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert getattr(x, name) is value


def test_unpickled_manifold_starts_with_empty_memo():
    G = lens(12, 5)
    z_cs(G, 1)
    assert G._memo
    H = pickle.loads(pickle.dumps(G))
    assert H == G and H._memo == {}
    assert z_cs(H, 1) == z_cs(G, 1)


def test_eval_numeric_pinned():
    assert eval_numeric(PhaseSum()) == 0
    assert eval_numeric(PhaseSum({PhaseQ(0): 3})) == 3.0
    s = PhaseSum([(0, 1), (Fraction(1, 5), 2), (Fraction(4, 5), 2)])
    assert abs(eval_numeric(s) - sqrt(5)) < 1e-12
    t = PhaseSum([(0, 2), (Fraction(3, 4), 2)])
    assert abs(eval_numeric(t) - (2 - 2j)) < 1e-12


def test_eval_numeric_reproducible():
    s = z_cs(lens(23, 7), 3)
    assert eval_numeric(s) == eval_numeric(s)


# -------------------------------------------------------------------- z_cs


def test_z_cs_normalizations():
    for k in range(1, 11):
        assert z_cs(lens(1, 0), k) == PhaseSum({PhaseQ(0): 1})
        assert z_cs(lens(0, 1), k) == PhaseSum({PhaseQ(0): 1})


def test_z_cs_pinned_lens():
    s = z_cs(lens(5, 1), 1)
    assert s.to_mapping() == {"0/1": 1, "1/5": 2, "4/5": 2}
    assert abs(eval_numeric(s) - sqrt(5)) < 1e-12
    t = z_cs(lens(4, 1), 1)
    assert abs(eval_numeric(t) - (2 - 2j)) < 1e-12


@given(splitting_params, st.integers(1, 5))
def test_z_cs_term_count_is_torsion_order(params, k):
    G = random_splitting(*params)
    if homology_profile(G).torsion_order > 3000:
        return
    assert z_cs(G, k).total_terms == homology_profile(G).torsion_order


def test_z_cs_term_values_match_literal_loop():
    from heegaard.linking import linking_form

    G = random_splitting(2, 3, 6)
    k = 3
    expected = PhaseSum.from_phases(
        [linking_form(G, t, t) * (-k) for t in torsion_elements(G)]
    )
    assert fresh(G, k, z_cs) == expected


def test_z_cs_enumerates_once_per_manifold(monkeypatch):
    calls = []
    enumerate_classes = partition._diag_quad_counts

    def counting(*args):
        calls.append(args)
        return enumerate_classes(*args)

    monkeypatch.setattr(partition, "_diag_quad_counts", counting)
    G = lens(7, 3)
    for k in range(1, 7):
        z_cs(G, k)
    assert len(calls) == 1
    again = GluingData(G.R, G.P, G.S, G.Q)
    for k in range(1, 7):
        assert z_cs(again, k) == z_cs(G, k)
    assert len(calls) == 2


def test_pipeline_keeps_no_reference_to_the_manifold():
    G = random_splitting(2, 3, 12)
    assert torsion_elements(G).dims
    before = sys.getrefcount(G)
    homology_profile(G)
    torsion_elements(G)
    linking_matrix(G)
    is_nondegenerate(G)
    for k in range(1, 7):
        eval_numeric(z_cs(G, k))
        eval_numeric(z_bf(G, k))
    assert sys.getrefcount(G) == before


def test_enumeration_limit_raises_instead_of_allocating():
    G = lens(10**9, 1)
    limit = _ENUMERATION_LIMIT
    for fn, size in ((z_cs, "|T| = 1000000000"), (z_bf, "d_r = 1000000000")):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(f"{size} exceeds the enumeration limit {limit}")):
            fn(G, 1)
        assert time.perf_counter() - t0 < 0.1
    # past the limit only the paths that enumerate refuse
    cube = connected_sum(connected_sum(lens(1000, 3), lens(1000, 7)), lens(1000, 11))
    assert is_nondegenerate(cube)
    S = z_bf(cube, 1)
    assert S.total_terms == 10**18 and len(S) == 1000


def test_oracles_refuse_past_enumeration_limit():
    limit = _ENUMERATION_LIMIT
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"p = {10**7 + 19} exceeds the enumeration limit {limit}")):
        gauss_sum_oracle(10**7 + 19, 1, 1)
    with pytest.raises(ValueError, match=re.escape(f"|T| = {10**9} exceeds the enumeration limit {limit}")):
        free_mode_grid_oracle(lens(10**9, 1), 1, 1, 0)
    assert time.perf_counter() - t0 < 0.1


def test_level_validation():
    for bad in (0, -2, Fraction(1, 2), True):
        with pytest.raises(ValueError):
            z_cs(lens(5, 1), bad)
        with pytest.raises(ValueError):
            z_bf(lens(5, 1), bad)


# -------------------------------------------------------------------- z_bf


def test_z_bf_pinned():
    s = z_bf(lens(6, 1), 2)
    assert s.total_terms == 36
    assert abs(eval_numeric(s) - 12) < 1e-9
    assert z_bf_closed_form(lens(6, 1), 2) == 12
    # at k = p every pair lands on phase zero and the sum collapses exactly
    t = z_bf(lens(5, 2), 5)
    assert t == PhaseSum({PhaseQ(0): 25})
    assert z_bf_closed_form(lens(5, 2), 5) == 25


@given(splitting_params, st.integers(1, 5))
def test_z_bf_matches_closed_form(params, k):
    G = random_splitting(*params)
    prof = homology_profile(G)
    if prof.torsion_order > 600:
        return
    closed = z_bf_closed_form(G, k)
    T = torsion_elements(G)
    assert closed == len(T) * T.kernel_count(k)
    assert abs(eval_numeric(z_bf(G, k)) - closed) <= 1e-6 * max(1, closed)


def test_z_bf_matches_pair_oracle_on_lens_spaces():
    # one instance per manifold, so later levels of a gcd class are memo hits
    for p in range(1, 31):
        for q in range(-p + 1, p):
            if gcd(p, q) != 1:
                continue
            G = lens(p, q)
            for k in (*range(1, 13), p, p + 1, 2 * p + 3):
                assert_z_bf_matches_pair_oracle(G, k)


def test_z_bf_matches_pair_oracle_on_corpus(corpus):
    small = [G for G in corpus if homology_profile(G).torsion_order <= 600]
    assert small
    for G in small:
        for k in range(1, 13):
            assert_z_bf_matches_pair_oracle(G, k)


@given(splitting_params, st.integers(1, 6))
def test_z_bf_matches_pair_oracle_random(params, k):
    G = random_splitting(*params)
    if homology_profile(G).torsion_order > 300:
        return
    assert_z_bf_matches_pair_oracle(G, k)


def test_z_bf_returns_one_object_per_gcd_class(corpus):
    for G in [lens(60, 7), lens(1, 0), *corpus[:10]]:
        top = max(homology_profile(G).invariant_factors, default=1)
        for k in range(1, 2 * top + 2):
            assert z_bf(G, k) is z_bf(G, gcd(k, top))


def test_z_bf_builds_each_gcd_class_once_per_manifold(monkeypatch):
    calls = []
    fill = partition._gcd_class_fill

    def counting(L, *args):
        calls.append(L)
        return fill(L, *args)

    monkeypatch.setattr(partition, "_gcd_class_fill", counting)
    G = lens(60, 7)
    sums = [z_bf(G, k) for k in range(1, 61)]
    # one build per divisor g of 60, over its reduced denominator 60 / g
    assert sorted(calls) == [d for d in range(1, 61) if 60 % d == 0]
    assert len(calls) == 12
    again = GluingData(G.R, G.P, G.S, G.Q)
    assert [z_bf(again, k) for k in range(1, 61)] == sums
    assert len(calls) == 24


def test_eval_numeric_identical_on_equal_sums_built_apart():
    # one sum on the fsum path, one on the exact gcd-class path
    for make in (lambda: z_cs(lens(23, 7), 3), lambda: z_bf(lens(60, 7), 4)):
        S = make()
        value = repr(eval_numeric(S))
        assert eval_numeric(S) is eval_numeric(S)
        clone = pickle.loads(pickle.dumps(S))
        assert clone._numeric is None
        for other in (make(), clone, copy.copy(S), copy.deepcopy(S)):
            assert other is not S and other == S and hash(other) == hash(S)
            assert repr(eval_numeric(other)) == value


def assert_z_bf_dense_and_exact(G, levels):
    top = max(homology_profile(G).invariant_factors, default=1)
    for k in levels:
        S = z_bf(G, k)
        assert S._den == top // gcd(k, top)
        assert len(S) == S._den
        assert eval_numeric(S) == complex(z_bf_closed_form(G, k), 0)


def test_z_bf_dense_and_exact_on_lens_spaces():
    for p in range(1, 31):
        for q in range(-p + 1, p):
            if gcd(p, q) == 1:
                assert_z_bf_dense_and_exact(lens(p, q), (1, 2, 3, 6))


def test_z_bf_dense_and_exact_on_corpus(corpus):
    small = [G for G in corpus if homology_profile(G).torsion_order <= 600]
    assert small
    for G in small:
        assert_z_bf_dense_and_exact(G, (1, 2, 3, 6))


@given(st.integers(1, 3000), st.data())
def test_eval_numeric_exact_on_gcd_class_sums(L, data):
    f = {e: data.draw(st.integers(1, 5)) for e in range(1, L + 1) if L % e == 0}
    counts = {a: f[gcd(a, L)] for a in range(L)}
    S = PhaseSum({Fraction(a, L): m for a, m in counts.items()})
    value = eval_numeric(S)
    assert value.imag == 0.0 and value.real == int(value.real)
    assert value.real == sum(f[e] * mobius(L // e) for e in f)
    direct = sum(cmath.exp(2j * pi * a / L) for a, m in counts.items() for _ in range(m))
    assert abs(value - direct) <= 1e-12 * max(1, S.total_terms)
    if L >= 3:
        # one more term on a numerator whose gcd class has other members
        a = data.draw(st.sampled_from([a for a in range(L) if L // gcd(a, L) > 2]))
        counts[a] += 1
        broken = PhaseSum({Fraction(n, L): m for n, m in counts.items()})
        assert repr(eval_numeric(broken)) == repr(fsum_phase_value(L, counts))


# ------------------------------------------------------------------ oracles


def handlebody_move(data, g) -> IntMatrix:
    """[[A, 0], [A⁻ᵀΣ, A⁻ᵀ]]: A a word in GL_g(ℤ), Σ symmetric; symplectic."""
    A = [[int(i == j) for j in range(g)] for i in range(g)]
    Ainv = [row[:] for row in A]
    for _ in range(data.draw(st.integers(0, 16))):
        i, j = data.draw(st.integers(0, g - 1)), data.draw(st.integers(0, g - 1))
        if i == j:  # negate row i of A; A⁻¹ negates column i
            A[i] = [-x for x in A[i]]
            for row in Ainv:
                row[i] = -row[i]
        else:  # row i += c·row j of A; A⁻¹ gets column j −= c·column i
            c = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            A[i] = [a + c * b for a, b in zip(A[i], A[j])]
            for row in Ainv:
                row[j] -= c * row[i]
    sym = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            sym[i][j] = sym[j][i] = data.draw(st.integers(-3, 3))
    A, Ainv_t, sym = (IntMatrix.from_rows(m) for m in (A, Ainv, sym))
    Ainv_t = Ainv_t.transpose()
    return blocks_to_matrix(A, IntMatrix.zeros(g, g), Ainv_t @ sym, Ainv_t)


@given(st.tuples(st.integers(1, 3), st.integers(0, 200), st.sampled_from([6, 12, 22])), st.data())
def test_presentation_invariance_law(params, data):
    """X·M·Y is the same manifold for handlebody moves X, Y: all invariants equal."""
    G = random_splitting(*params)
    assume(1 < homology_profile(G).torsion_order <= 2000)
    g = G.genus
    X, Y = handlebody_move(data, g), handlebody_move(data, g)
    H = GluingData(*matrix_to_blocks(X @ G.matrix @ Y))
    assert homology_profile(H) == homology_profile(G)
    assert is_nondegenerate(H) == is_nondegenerate(G)
    for k in (1, 2, 3, 6):
        assert z_cs(H, k) == z_cs(G, k)
        assert z_bf(H, k) == z_bf(G, k)


def test_gauss_sum_pinned():
    assert abs(gauss_sum_oracle(5, 1, 1) - sqrt(5)) < 1e-9
    assert gauss_sum_oracle(1, 0, 4) == 1


def test_gauss_sum_validation():
    with pytest.raises(ValueError):
        gauss_sum_oracle(0, 1, 1)
    with pytest.raises(ValueError):
        gauss_sum_oracle(4, 2, 1)
    with pytest.raises(ValueError):
        gauss_sum_oracle(5, 1, 0)


@given(st.integers(2, 30), st.integers(-29, 29), st.integers(1, 5))
def test_gauss_sum_matches_z_cs(p, q, k):
    if gcd(p, q) != 1:
        return
    z = eval_numeric(z_cs(lens(p, q), k))
    assert abs(z - gauss_sum_oracle(p, q, k)) < 1e-9


def test_grid_oracle_on_torsion_only_manifold():
    G = lens(7, 2)
    val = free_mode_grid_oracle(G, 2, 5, 2)
    assert abs(val - eval_numeric(z_cs(G, 2))) < 1e-9


def test_grid_oracle_pinned_handle():
    G = lens(0, 1)
    for k in (1, 2, 3):
        val = free_mode_grid_oracle(G, k, 5, 2)
        assert abs(val - 1) < 1e-9


def test_grid_oracle_mixed_sectors():
    G = random_splitting(2, 7, 4)  # b1 = 1 with 2-torsion
    for k in (1, 2):
        val = free_mode_grid_oracle(G, k, 5, 2)
        assert abs(val - eval_numeric(z_cs(G, k))) < 1e-6


def test_grid_oracle_validation():
    G = lens(0, 1)
    with pytest.raises(ValueError, match="coprime"):
        free_mode_grid_oracle(G, 1, 4, 2)
    with pytest.raises(ValueError):
        free_mode_grid_oracle(G, 1, 0, 2)
    with pytest.raises(ValueError):
        free_mode_grid_oracle(G, 1, 5, -1)


def test_grid_oracle_refuses_degenerate_free_pairing():
    # the unique free mode of this gluing pairs to zero with the whole
    # curvature window, so no grid can separate m from zero
    G = random_splitting(2, 0, 6)
    assert homology_profile(G).b1 == 1
    with pytest.raises(ValueError, match="alias"):
        free_mode_grid_oracle(G, 1, 5, 2)


# ------------------------------------------- PhaseSum representation laws


def assert_z_cs_matches_literal_loop(G, levels):
    from heegaard.linking import linking_form

    G = GluingData(G.R, G.P, G.S, G.Q)
    gammas = [linking_form(G, t, t) for t in torsion_elements(G)]
    for k in levels:
        assert z_cs(G, k) == PhaseSum.from_phases(g * (-k) for g in gammas)


def test_z_cs_matches_literal_loop_on_lens_spaces():
    for p in range(1, 31):
        for q in range(-p + 1, p):
            if gcd(p, q) == 1:
                assert_z_cs_matches_literal_loop(lens(p, q), (1, 2, 3, 6))


def test_z_cs_matches_literal_loop_on_corpus(corpus):
    small = [G for G in corpus if homology_profile(G).torsion_order <= 600]
    assert small
    for G in small:
        assert_z_cs_matches_literal_loop(G, (1, 2, 3, 6))


rationals = st.builds(Fraction, st.integers(-90, 90), st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 30]))
phase_terms = st.lists(st.tuples(rationals, st.integers(0, 4)), max_size=8)


def counter_model(terms) -> Counter:
    model = Counter()
    for x, mult in terms:
        model[frac_mod1(x)] += mult
    return +model


def assert_matches_model(S, model):
    ordered = sorted(model)
    assert [(ph.value, m) for ph, m in S.items()] == [(v, model[v]) for v in ordered]
    assert S.to_mapping() == {f"{v.numerator}/{v.denominator}": model[v] for v in ordered}
    assert list(S.to_mapping()) == [f"{v.numerator}/{v.denominator}" for v in ordered]
    assert S.total_terms == sum(model.values()) and len(S) == len(model)
    assert S == PhaseSum(dict(model)) and hash(S) == hash(PhaseSum(dict(model)))


@given(phase_terms, phase_terms, rationals, st.lists(rationals, max_size=6))
def test_phase_sum_agrees_with_counter_model(a, b, s, probes):
    A, B = PhaseSum(a), PhaseSum(b)
    ma, mb = counter_model(a), counter_model(b)
    assert_matches_model(A, ma)
    assert_matches_model(A + B, ma + mb)
    assert_matches_model(A.shift(PhaseQ(s)), Counter({frac_mod1(v + s): m for v, m in ma.items()}))
    assert_matches_model(A.conjugate(), Counter({frac_mod1(-v): m for v, m in ma.items()}))
    for x in probes + [v for v, _ in a]:
        assert A.multiplicity(PhaseQ(x)) == ma[frac_mod1(x)]
        assert (PhaseQ(x) in A) == (frac_mod1(x) in ma)


weighted_terms = st.lists(st.tuples(rationals, st.integers(1, 20)), max_size=40)


@given(weighted_terms, st.randoms(use_true_random=False))
def test_eval_numeric_order_free_and_accurate(terms, rng):
    S = PhaseSum(terms)
    value = eval_numeric(S)
    phases = [PhaseQ(x) for x, mult in terms for _ in range(mult)]
    for _ in range(2):
        rng.shuffle(phases)
        shuffled = terms[:]
        rng.shuffle(shuffled)
        singles = PhaseSum()
        for x, mult in shuffled:
            singles = singles + PhaseSum({PhaseQ(x): mult})
        for T in (PhaseSum.from_phases(phases), PhaseSum(dict(Counter(phases))), singles):
            assert T == S
            assert repr(eval_numeric(T)) == repr(value)
    direct = sum(cmath.exp(2j * pi * float(ph.value)) for ph in phases)
    assert abs(value - direct) <= 1e-12 * max(1, S.total_terms)
