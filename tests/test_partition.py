import cmath
import copy
import pickle
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, pi, prod, sqrt
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

import heegaard.partition as partition
from heegaard.exact import PhaseQ, frac_mod1
from heegaard.fields import FiniteDBClass
from heegaard.homology import (
    TorsionRep,
    curvature_lattice_basis,
    homology_profile,
    torsion_elements,
)
from heegaard.linking import _jordan_blocks, _jordan_splitting, is_nondegenerate, linking_matrix
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
    connected_sum,
    lens,
    random_splitting,
    stabilize,
)
from conftest import blocks_to_matrix, free_flat_basis, gluing_matrix, matmul, matrix_to_blocks, transpose
from oracle_helpers import (
    bf_pair_histogram,
    diag_quad_counts,
    fraction_grid_window,
    fraction_torsion_factor,
    fsum_phase_value,
    g_coordinate_torsion_factor,
    mobius,
)

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
    assert a.to_mapping() == {"0/1": 1, "1/3": 2}
    assert a.total_terms == 3
    assert len(a) == 2


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
    # the union of two term lists is one sum: the multiplicities of a phase add
    s = [(Fraction(1, 4), 1), (0, 2)]
    t = [(Fraction(1, 4), 3)]
    assert PhaseSum(s + t) == PhaseSum([(Fraction(1, 4), 4), (0, 2)])


def test_phase_sum_product_pinned():
    s = PhaseSum([(Fraction(1, 2), 1), (0, 1)])
    t = PhaseSum([(Fraction(1, 3), 2), (0, 1)])
    assert s * t == PhaseSum([(0, 1), (Fraction(1, 3), 2), (Fraction(1, 2), 1), (Fraction(5, 6), 2)])
    assert s * s == PhaseSum([(0, 2), (Fraction(1, 2), 2)])
    # a denominator that cancels: 1/4 + 3/4 = 0
    u = PhaseSum([(Fraction(1, 4), 1)])
    assert u * PhaseSum([(Fraction(3, 4), 5)]) == PhaseSum({PhaseQ(0): 5})
    assert s * PhaseSum() == PhaseSum() == PhaseSum() * s


def test_phase_sum_immutable():
    s = PhaseSum()
    with pytest.raises(AttributeError):
        s._terms = {}


@pytest.mark.parametrize(
    "make",
    [
        lambda: PhaseQ(Fraction(3, 7)),
        lambda: z_cs(lens(7, 3), 2),
        lambda: random_splitting(2, 5, 12),
        lambda: homology_profile(random_splitting(2, 5, 12)),
        lambda: TorsionRep([Fraction(1, 3), 0]),
        lambda: linking_matrix(random_splitting(2, 5, 12)),
        lambda: FiniteDBClass(lens(0, 1), m=[3], theta_f=[Fraction(1, 2)], smooth_self=2),
    ],
    ids=[
        "PhaseQ",
        "PhaseSum",
        "GluingData",
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


# every slot of each value type: True if equality and hash read it
COMPARED_SLOTS = {
    "PhaseQ": {"value": True},
    "PhaseSum": {"_den": True, "_counts": True, "_numeric": False},
    "GluingData": {"genus": True, "R": True, "P": True, "S": True, "Q": True, "_memo": False},
    "HomologyProfile": {
        "b1": True,
        "invariant_factors": True,
        "torsion_order": False,
        "torsion_columns": False,
        "kernel_columns": False,
    },
    "TorsionRep": {"theta": True},
    "LinkingMatrix": {"dims": True, "den": True, "num": True, "columns": True},
    "FiniteDBClass": {
        "G": True,
        "m": True,
        "theta_f": True,
        "theta_t": True,
        "holonomy": True,
        "smooth_self": True,
    },
}


def value_samples():
    G = random_splitting(2, 5, 12)
    return [
        PhaseQ(Fraction(3, 7)),
        z_cs(lens(7, 3), 2),
        G,
        homology_profile(G),
        TorsionRep([Fraction(1, 3), 0]),
        linking_matrix(G),
        FiniteDBClass(lens(0, 1), m=[3], theta_f=[Fraction(1, 2)], smooth_self=2),
    ]


def with_slots(x, **slots):
    """A copy of the value x with the named slots overwritten."""
    y = copy.copy(x)
    for name, value in slots.items():
        object.__setattr__(y, name, value)
    return y


@pytest.mark.parametrize("index", range(7), ids=list(COMPARED_SLOTS))
def test_equality_reads_exactly_the_compared_fields(index):
    x = value_samples()[index]
    compared = COMPARED_SLOTS[type(x).__name__]
    assert set(compared) == set(type(x).__slots__)
    for name, is_compared in compared.items():
        value = getattr(x, name)
        if name in ("R", "P", "S", "Q"):  # a block of the same shape, every entry plus 1
            others = [tuple(tuple(e + 1 for e in r) for r in value)]
        elif isinstance(x, PhaseQ):  # 3/7 against 2/7 and 3/8: numerator, denominator
            others = [Fraction(2, 7), Fraction(3, 8)]
        else:
            others = [object()]
        for other in others:
            y = with_slots(x, **{name: other})
            if is_compared:
                assert y != x and x != y
            else:
                assert y == x and hash(y) == hash(x)


def test_values_of_different_types_never_compare_equal():
    values = value_samples()
    for x in values:
        for y in values:
            assert (x == y) == (x is y)
    # equal keys, different types
    phase = PhaseQ(Fraction(3, 7))
    hp = with_slots(homology_profile(lens(5, 2)), b1=3, invariant_factors=7)
    assert hp._key(hp) == phase._key(phase)
    assert hp != phase and phase != hp


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
    expected = PhaseSum(Counter(linking_form(G, t, t).value * -k for t in torsion_elements(G)))
    assert fresh(G, k, z_cs) == expected


def empty_cs_sums(monkeypatch):
    """Give z_cs an empty shared table, with its bin count, for one test."""
    monkeypatch.setattr(partition, "_CS_SUMS", {})
    monkeypatch.setattr(partition, "_CS_BINS", [0])


def test_z_cs_enumerates_once_per_manifold(monkeypatch):
    calls = []
    build = partition._jordan_histogram

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(partition, "_jordan_histogram", counting)
    empty_cs_sums(monkeypatch)
    G = lens(7, 3)
    for k in range(1, 7):
        z_cs(G, k)
    # one build per level class: −3k is a square mod 7 or it is not
    assert len(calls) == 2
    # an equal manifold, and L(7, 5) with an isomorphic form (3 and 5 are
    # both non-residues mod 7), build nothing and return the same sums
    for again in (GluingData(G.R, G.P, G.S, G.Q), lens(7, 5)):
        for k in range(1, 7):
            assert z_cs(again, k) is z_cs(G, k)
    assert len(calls) == 2
    # L(7, 1) at k = 1 is the form −1/7, as L(7, 3) at k = 3 is −9/7 ≡ 5/7
    assert z_cs(lens(7, 1), 1) != z_cs(G, 1)
    assert z_cs(lens(7, 1), 1) is z_cs(G, 3)
    assert len(calls) == 2
    # at k = 7 the one block drops out and only its multiplicity is left
    assert z_cs(G, 7) == PhaseSum({PhaseQ(0): 7})
    assert len(calls) == 3


def symmetric_p(A):
    """The splitting with R = −1, P = A symmetric, S = 0 and Q = 1: Γ = ±A⁻¹ on coker A."""
    return GluingData([[-int(i == j) for j in range(len(A))] for i in range(len(A))], A,
                      [[0] * len(A)] * len(A), [[int(i == j) for j in range(len(A))] for i in range(len(A))])


def test_equal_splittings_have_equal_histograms(monkeypatch, corpus):
    members = [lens(p, q) for p in range(2, 61) for q in range(-p + 1, p) if gcd(p, q) == 1]
    members += [G for G in corpus if 1 < homology_profile(G).torsion_order <= 600]
    # 2-adic planes: 2ᵉ·[[0, 1], [1, 0]] and 2ᵉ·[[2, 1], [1, 2]], the second beside ℤ/3
    members += [symmetric_p([[2**e * x for x in row] for row in M])
                for e in (1, 2, 3) for M in ([[0, 1], [1, 0]], [[2, 1], [1, 2]])]
    assert sum(len(rows) == 2 for G in members for _, _, rows in _jordan_splitting(G)) == 6
    empty_cs_sums(monkeypatch)
    calls = []
    for G in members:
        lm = linking_matrix(G)
        counts = diag_quad_counts(lm.dims, lm.num, lm.den)
        for k in range(1, 7):  # the histogram of −k·Γ, enumerated
            calls.append((z_cs(G, k), PhaseSum([(Fraction(-k * n, lm.den), c) for n, c in counts.items()])))
    # group the (G, k) by the key of the table entry z_cs returned; the
    # table was never emptied, so every returned sum is still in it
    key_of = {id(S): key for key, S in partition._CS_SUMS.items()}
    groups = {}
    for S, want in calls:
        groups.setdefault(key_of[id(S)], set()).add(want)
    assert len(groups) < len(calls) // 20
    for key, hists in groups.items():
        assert hists == {partition._CS_SUMS[key]}


def test_shared_forms_hold_at_most_the_enumeration_limit(monkeypatch):
    empty_cs_sums(monkeypatch)

    def held():
        return sum(map(len, partition._CS_SUMS.values()))

    first = {}
    # at k = 1 and at a non-residue k the two sums of L(p, 3) differ, each
    # with about 5·10⁵ bins
    for p in (999983, 999979):
        G = lens(p, 3)
        for k in (1, next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)):
            S = z_cs(G, k)
            first[p, k] = S, repr(eval_numeric(S))
            assert partition._CS_BINS[0] == held() <= _ENUMERATION_LIMIT
    assert z_cs(G, p) == PhaseSum([(0, p)])
    assert partition._CS_BINS[0] == held() <= _ENUMERATION_LIMIT
    again = lens(999983, 3)
    for (p, k), (S, value) in first.items():
        if p == 999983:
            T = z_cs(again, k)
            assert T is not S and T == S and repr(eval_numeric(T)) == value
            assert partition._CS_BINS[0] == held() <= _ENUMERATION_LIMIT


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
    # ℤ/10⁹ splits into the Jordan blocks ℤ/2⁹ and ℤ/5⁹; the second is past the limit
    for fn, size in ((z_cs, "Jordan block order = 1953125"), (z_bf, "d_r = 1000000000")):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(f"{size} exceeds the enumeration limit {limit}")):
            fn(G, 1)
        assert time.perf_counter() - t0 < 0.1
    # a level that scales the block ℤ/5⁹ down, or drops it, refuses it alike
    for k in (5**9, 10**9):
        with pytest.raises(ValueError, match=re.escape(f"Jordan block order = 1953125 exceeds the enumeration limit {limit}")):
            z_cs(G, k)
    # past the limit only the paths that enumerate refuse
    cube = connected_sum(connected_sum(lens(1000, 3), lens(1000, 7)), lens(1000, 11))
    assert is_nondegenerate(cube)
    S = z_bf(cube, 1)
    assert S.total_terms == 10**18 and len(S) == 1000
    assert z_cs(cube, 1).total_terms == 10**9


def test_z_cs_refuses_block_products_by_their_scaled_blocks():
    # ℤ/(251·241·239): at k = 1 the three block histograms have 126, 121 and
    # 120 bins, and the last product has 15,246 × 120 bin pairs
    p, q, r = 251, 241, 239
    G = lens(p * q * r, 1)
    with pytest.raises(ValueError, match=re.escape(f"block product bin pairs = 1829520 exceeds the enumeration limit {_ENUMERATION_LIMIT}")):
        z_cs(G, 1)
    # at k = r the block ℤ/r drops out: −r·Γ is r copies of a form on ℤ/(p·q)
    lm = linking_matrix(G)
    counts = diag_quad_counts((p * q,), [[-lm.num[0][0] % (p * q)]], p * q)
    S = z_cs(G, r)
    assert S == PhaseSum({Fraction(n, p * q): r * c for n, c in counts.items()})
    assert (len(S), S.total_terms) == (15246, p * q * r)
    assert z_cs(G, p * q * r) == PhaseSum({PhaseQ(0): p * q * r})


def test_z_cs_refuses_a_denominator_with_only_large_primes():
    G = lens(1000003 * 1000033, 1)
    with pytest.raises(ValueError, match=re.escape(f"every prime factor of {1000003 * 1000033} exceeds")):
        z_cs(G, 1)


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


# ------------------------------------------------------- Jordan splitting


def primary_block(p, kind, e, u=1):
    """(orders, gram) of one raw p-primary form, gram entries in Q/Z.

    ⟨u/pᵉ⟩ on ℤ/pᵉ, or on (ℤ/pᵉ)² the plane E₀ᵉ = [[0, 1], [1, 0]]/pᵉ or
    E₁ᵉ = [[2, 1], [1, 2]]/pᵉ.  E₁ᵉ is used for p = 2 only, and for odd p
    E₀ᵉ ≅ ⟨1/pᵉ⟩ ⊕ ⟨−1/pᵉ⟩ has no unit on its diagonal, so it reaches the
    off-diagonal pivot.
    """
    q = p**e
    if kind == "diag":
        return [q], [[Fraction(u, q)]]
    d = 0 if kind == "E0" else 2
    return [q, q], [[Fraction(d, q), Fraction(1, q)], [Fraction(1, q), Fraction(d, q)]]


def in_random_basis(blocks, rng):
    """(dims, den, num) of the orthogonal sum of blocks in a random basis.

    Each new generator is an integer vector over the blocks' generators.
    The moves are automorphisms: x_a += c·x_b with c·ord(x_a) a multiple
    of ord(x_b), x_a *= a unit, a swap, and x_a, x_b ↦ x_a + x_b when the
    two orders are coprime, which drops a generator.
    """
    orders, gram = [], []
    for o, g in blocks:
        n = len(orders)
        gram = [row + [Fraction(0)] * len(o) for row in gram]
        gram += [[Fraction(0)] * n + row for row in g]
        orders += o
    n = len(orders)
    gens = [[int(i == j) for j in range(n)] for i in range(n)]
    dims = orders[:]
    for _ in range(rng.randrange(4 * n + 1)):
        a, b = rng.randrange(len(gens)), rng.randrange(len(gens))
        move = rng.randrange(4)
        if a == b or move == 0:
            u = rng.choice([x for x in range(1, dims[a] + 1) if gcd(x, dims[a]) == 1])
            gens[a] = [u * x for x in gens[a]]
        elif move == 1:
            gens[a], gens[b], dims[a], dims[b] = gens[b], gens[a], dims[b], dims[a]
        elif move == 2 and gcd(dims[a], dims[b]) == 1:
            gens[a] = [x + y for x, y in zip(gens[a], gens[b])]
            dims[a] *= dims[b]
            del gens[b], dims[b]
        else:
            c = rng.randrange(-3, 4) * dims[b] // gcd(dims[a], dims[b])
            gens[a] = [x + c * y for x, y in zip(gens[a], gens[b])]
    for y, d in zip(gens, dims):
        assert lcm(*(o // gcd(o, x) for o, x in zip(orders, y))) == d
    form = [
        [sum(x * gram[s][t] * z for s, x in enumerate(y) for t, z in enumerate(w)) % 1 for w in gens]
        for y in gens
    ]
    den = lcm(*(v.denominator for row in form for v in row))
    return dims, den, [[int(v * den) for v in row] for row in form]


def assert_jordan_matches_scan(dims, den, num):
    """The library histogram equals the test-side enumeration; returns the blocks split off."""
    with mock.patch.object(partition, "_block_histogram", wraps=partition._block_histogram) as spy:
        got = partition._jordan_histogram(_jordan_blocks(dims, den, num))
    counts = diag_quad_counts(dims, num, den)
    assert got == PhaseSum({Fraction(n, den): c for n, c in counts.items()})
    assert got.total_terms == prod(dims)
    return [(call.args[0], call.args[1], len(call.args[2])) for call in spy.call_args_list]


def _unit(p, e):
    return st.integers(1, p**e - 1).filter(lambda u: u % p)


raw_block = st.one_of(
    st.tuples(st.just(2), st.sampled_from(["diag", "E0", "E1"]), st.integers(1, 4)).flatmap(
        lambda t: st.tuples(*map(st.just, t), _unit(2, t[2]))
    ),
    st.tuples(st.sampled_from([3, 5, 7]), st.sampled_from(["diag", "E0"]), st.integers(1, 3)).flatmap(
        lambda t: st.tuples(*map(st.just, t), _unit(t[0], t[2]))
    ),
)


@given(st.lists(raw_block, min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_jordan_splitting_matches_enumeration_on_raw_forms(raw, rng):
    blocks = [primary_block(*b) for b in raw]
    assume(prod(prod(o) for o, _ in blocks) <= 5000)
    dims, den, num = in_random_basis(blocks, rng)
    assert den == lcm(*dims)
    split = assert_jordan_matches_scan(dims, den, num)
    # a 2-part of planes only is even: no element of order 2ᶠ has Γ(x,x) of order 2ᶠ,
    # so it can only split into planes, whatever the basis
    if all(kind != "diag" for p, kind, *_ in raw if p == 2):
        assert all(n == 2 for p, _, n in split if p == 2)


def test_jordan_splitting_reaches_the_plane_branch():
    rng = random.Random(2718)
    planes = 0
    for e in (1, 2, 3, 4):
        for kinds in (["E0"], ["E1"], ["E0", "E1"], ["E1", "E1"]):
            if 4 ** (e * len(kinds)) > 5000:
                continue
            for _ in range(3):
                blocks = [primary_block(2, kind, e) for kind in kinds] + [primary_block(3, "diag", 1, 2)]
                split = assert_jordan_matches_scan(*in_random_basis(blocks, rng))
                assert [(r, n) for p, r, n in split if p == 2] == [(2**e, 2)] * len(kinds)
                planes += len(kinds)
    # mixed scales: E₀¹ ⊕ E₁² ⊕ ⟨3/8⟩
    blocks = [primary_block(2, "E0", 1), primary_block(2, "E1", 2), primary_block(2, "diag", 3, 3)]
    split = assert_jordan_matches_scan(*in_random_basis(blocks, rng))
    assert sorted((r, n) for _, r, n in split) == [(2, 2), (4, 2), (8, 1)]
    assert planes >= 30


def test_jordan_splitting_refuses_degenerate_forms():
    # den below the exponent: ℤ/2 with the zero form
    with pytest.raises(ValueError, match="degenerate"):
        partition._jordan_histogram(_jordan_blocks((2,), 1, ((0,),)))
    # den is the exponent, but ℤ/2 ⊕ ℤ/4 with ⟨1/4⟩ ⊕ 0 pairs the ℤ/2 to zero
    with pytest.raises(ValueError, match="degenerate"):
        partition._jordan_histogram(_jordan_blocks((2, 4), 4, ((0, 0), (0, 1))))
    # an odd prime: ℤ/3 ⊕ ℤ/9 with ⟨1/9⟩ ⊕ 0
    with pytest.raises(ValueError, match="degenerate"):
        partition._jordan_histogram(_jordan_blocks((3, 9), 9, ((0, 0), (0, 1))))
    # rank 1, den the exponent, but the one entry is not a unit
    for case in [((22,), 22, ((6,),)), ((16,), 16, ((8,),)), ((4,), 4, ((0,),))]:
        with pytest.raises(ValueError, match="degenerate"):
            partition._jordan_histogram(_jordan_blocks(*case))


@pytest.mark.parametrize("n, units", [(1000, (3, 7, 11)), (1024, (1, 3, 5))])
def test_z_cs_past_the_old_enumeration_ceiling(n, units):
    """(ℤ/n)³ as L(n, q₁) # L(n, q₂) # L(n, q₃): |T| ~ 10⁹, against three Gauss sums.

    The product of three direct Gauss sums has modulus up to n^{3/2}·2^{3/2};
    each is a sum of n unit terms, so 1e-9 relative to max(1, |Z|) leaves
    a wide margin over their roundoff.  ℤ/1024 goes through the 2-adic
    splitting only.
    """
    t0 = time.perf_counter()
    G = connected_sum(connected_sum(lens(n, units[0]), lens(n, units[1])), lens(n, units[2]))
    assert homology_profile(G).torsion_order == n**3 > _ENUMERATION_LIMIT
    for k in (1, 2, 3):
        S = z_cs(G, k)
        assert S.total_terms == n**3
        want = prod(gauss_sum_oracle(n, q, k) for q in units)
        assert abs(eval_numeric(S) - want) <= 1e-9 * max(1.0, abs(want))
    assert time.perf_counter() - t0 < 1.0


def level_law_members(corpus):
    lenses = [lens(p, q) for p in range(1, 61) for q in range(-p + 1, p) if gcd(p, q) == 1]
    drawn = [random_splitting(1 + i % 3, i, 8 + i % 40) for i in range(120)]
    return lenses + [G for G in corpus + drawn if homology_profile(G).torsion_order <= 20000]


def test_cs_modulus_squared_is_zero_or_the_bf_closed_form(corpus):
    """|Z_CS(k)|² ∈ {0, |T|·|T[2k]|}, the abelian TV = |RT|².

    Put θ = ϑ + x in |Z|² = Σ_{θ,ϑ} e(−kΓ(θ,θ) + kΓ(ϑ,ϑ)): the sum over ϑ
    of e(−2kΓ(ϑ,x)) is |T| when 2kx = 0 and 0 otherwise, by nondegeneracy,
    and on the 2k-torsion x ↦ kΓ(x,x) is a character, since 2kΓ(x,y) = 0,
    so its sum is |T[2k]| or 0.  z_bf_closed_form(G, 2k) is |T|·|T[2k]|.
    """
    zeros = total = 0
    for G in level_law_members(corpus):
        for k in (1, 2, 3, 4, 6):
            bf = z_bf_closed_form(G, 2 * k)
            z2 = abs(eval_numeric(z_cs(G, k))) ** 2
            assert min(z2, abs(z2 - bf)) <= 1e-9 * bf
            zeros += z2 < bf / 2
            total += 1
    assert total > 10000 and 500 < zeros < total // 4


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
    assert closed == len(torsion_elements(G)) * prof.kernel_count(k)
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


def test_divisors_match_a_sieve():
    bound = 5000
    sieve = [[] for _ in range(bound)]
    for d in range(1, bound):
        for n in range(d, bound, d):
            sieve[n].append(d)
    for n in range(1, bound):
        assert partition._divisors(n) == sieve[n]


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


def test_eval_numeric_identical_on_equal_sums_built_apart(monkeypatch):
    def cs():
        empty_cs_sums(monkeypatch)  # apart: each from an empty table
        return z_cs(lens(23, 7), 3)

    # one sum on the fsum path, one on the exact gcd-class path
    for make in (cs, lambda: z_bf(lens(60, 7), 4)):
        S = make()
        value = repr(eval_numeric(S))
        assert eval_numeric(S) is eval_numeric(S)
        clone = pickle.loads(pickle.dumps(S))
        assert clone._numeric is None
        for other in (make(), clone, copy.copy(S), copy.deepcopy(S)):
            assert other is not S and other == S and hash(other) == hash(S)
            assert repr(eval_numeric(other)) == value


def assert_z_bf_value_kept_from_birth(G, levels):
    """The value stored when z_bf builds a sum is the one its bins give."""
    for k in levels:
        S = z_bf(G, k)
        assert S._numeric is not None
        want = repr(partition._evaluate(S._den, S._counts))
        assert repr(eval_numeric(S)) == want
        clone = pickle.loads(pickle.dumps(S))
        assert clone._numeric is None
        assert repr(eval_numeric(clone)) == want


def test_z_bf_value_kept_from_birth_on_lens_spaces():
    for p in range(1, 61):
        for q in range(-p + 1, p):
            if gcd(p, q) == 1:
                assert_z_bf_value_kept_from_birth(lens(p, q), (1, 2, 3, 4, 6, 12))


def test_z_bf_value_kept_from_birth_on_corpus(corpus):
    for G in corpus:
        assert_z_bf_value_kept_from_birth(G, (1, 2, 3, 6))


def test_z_bf_and_its_value_list_divisors_once_per_gcd_class(monkeypatch):
    calls = []
    divisors = partition._divisors

    def counting(n):
        calls.append(n)
        return divisors(n)

    monkeypatch.setattr(partition, "_divisors", counting)
    for G, top in [(lens(60, 7), 60), (connected_sum(lens(45, 7), lens(60, 11)), 180)]:
        calls.clear()
        for k in range(1, top + 1):
            eval_numeric(z_bf(G, k))
        # one build per gcd class g, each listing the divisors of top / g
        assert sorted(calls) == [d for d in range(1, top + 1) if top % d == 0]


def test_z_bf_past_the_float_range_builds_and_refuses_only_its_value():
    G = lens(1000, 1)
    for _ in range(51):
        G = connected_sum(G, lens(1000, 1))
    S = z_bf(G, 1000)  # k = d_r: every pair gives phase 0, |T|² = 10³¹² terms
    assert S.to_mapping() == {"0/1": 10**312}
    with pytest.raises(OverflowError):
        eval_numeric(S)
    assert eval_numeric(z_bf(G, 1)) == complex(10**156, 0.0)


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


def handlebody_move(data, g) -> list:
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
    Ainv_t = transpose(Ainv)
    return blocks_to_matrix(A, [[0] * g for _ in range(g)], matmul(Ainv_t, sym), Ainv_t)


def jordan_scale_ranks(G) -> Counter:
    """{(p, r): summed rank of the Jordan blocks of the linking form at scale r = pᶠ}."""
    lm = linking_matrix(G)
    ranks = Counter()
    for p, r, rows in _jordan_blocks(lm.dims, lm.den, lm.num):
        ranks[p, r] += len(rows)
    return ranks


@given(st.tuples(st.integers(1, 3), st.integers(0, 200), st.sampled_from([6, 12, 22])), st.data())
def test_presentation_invariance_law(params, data):
    """X·M·Y is the same manifold for handlebody moves X, Y: all invariants equal."""
    G = random_splitting(*params)
    assume(1 < homology_profile(G).torsion_order <= 2000)
    g = G.genus
    X, Y = handlebody_move(data, g), handlebody_move(data, g)
    H = GluingData(*matrix_to_blocks(matmul(matmul(X, gluing_matrix(G)), Y)))
    assert homology_profile(H) == homology_profile(G)
    assert is_nondegenerate(H) == is_nondegenerate(G)
    assert jordan_scale_ranks(H) == jordan_scale_ranks(G)
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


def test_grid_oracle_refuses_before_the_torsion_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("the torsion loop ran")

    monkeypatch.setattr(partition, "_torsion_factor", refuse)
    G = random_splitting(3, 115, 15)  # b1 = 1 and |T| = 4; grid 5 aliases
    assert (homology_profile(G).b1, homology_profile(G).torsion_order) == (1, 4)
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="alias"):
            free_mode_grid_oracle(G, k, 5, 2)
    with pytest.raises(ValueError, match="coprime"):
        free_mode_grid_oracle(G, 1, 4, 2)


def test_grid_oracle_refuses_past_the_limit_before_the_window_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("the window loop started")

    monkeypatch.setattr(partition, "curvature_lattice_basis", refuse)
    G = connected_sum(lens(0, 1), lens(0, 1))  # b1 = 2: 3² window labels × 1009² grid points
    terms = 9 * 1009**2
    with pytest.raises(ValueError, match=re.escape(f"= {terms} exceeds the enumeration limit {_ENUMERATION_LIMIT}")):
        free_mode_grid_oracle(G, 1, 1009, 1)


def torsion_factor_in_fractions(G, k):
    return fraction_torsion_factor(G.Q.to_rows(), G.P.to_rows(), torsion_elements(G), k)


def test_grid_torsion_factor_is_bit_identical_to_the_fraction_loop(corpus):
    lenses = [lens(p, q) for p in range(1, 16) for q in range(-p + 1, p + 1) if gcd(p, q) == 1]
    mixed = [random_splitting(2, 7, 4), random_splitting(3, 115, 15), connected_sum(lens(45, 7), lens(60, 11))]
    for G in lenses + mixed + [G for G in corpus if homology_profile(G).torsion_order <= 300]:
        for k in (1, 2, 3):
            want = repr(torsion_factor_in_fractions(G, k))
            assert repr(partition._torsion_factor(G, k)) == want
            if homology_profile(G).b1 == 0:
                assert repr(free_mode_grid_oracle(G, k, 5, 2)) == want


def g_coordinate_loop(G, k):
    profile = homology_profile(G)
    return g_coordinate_torsion_factor(
        G.Q.to_rows(), G.P.to_rows(), profile.invariant_factors, profile.torsion_columns, k
    )


def stabilized(G, genus):
    while G.genus < genus:
        G = stabilize(G)
    return G


def z2_power(n):
    G = lens(2, 1)
    for _ in range(n - 1):
        G = connected_sum(G, lens(2, 1))
    return G


def test_grid_torsion_factor_is_bit_identical_to_the_g_coordinate_loop(corpus):
    small = [G for G in corpus if homology_profile(G).torsion_order <= 300]
    twos = [stabilized(z2_power(n), genus) for n, genus in [(3, 3), (4, 9), (6, 14)]]
    free = [connected_sum(G, lens(0, 1)) for G in small[:10] + twos[:2]]
    free += [connected_sum(lens(12, 5), connected_sum(lens(0, 1), lens(0, -1)))]
    assert {homology_profile(G).b1 for G in free} == {1, 2}
    for G in small + twos + free:
        for k in (1, 2, 3, 5):
            assert repr(partition._torsion_factor(G, k)) == repr(g_coordinate_loop(G, k))


def test_grid_torsion_factor_at_genus_60_within_a_second():
    G = stabilized(z2_power(12), 60)  # (Z/2)^12: 4096 classes at genus 60
    homology_profile(G)
    t0 = time.perf_counter()
    values = [partition._torsion_factor(G, k) for k in (1, 3)]
    assert time.perf_counter() - t0 < 1.0
    assert repr(values[0]) == repr(g_coordinate_loop(G, 1))  # the reference alone takes ~1 s


def test_grid_window_is_bit_identical_to_the_fraction_loop():
    b1_one = [lens(0, 1), random_splitting(2, 7, 4), connected_sum(lens(5, 2), lens(0, 1))]
    b1_two = [connected_sum(lens(0, 1), lens(0, 1)), connected_sum(connected_sum(lens(3, 1), lens(0, 1)), lens(0, -1))]
    assert [homology_profile(G).b1 for G in b1_one + b1_two] == [1, 1, 1, 2, 2]
    for G in b1_one + b1_two:
        lattice, free = curvature_lattice_basis(G), free_flat_basis(G)
        for k, grid_n, m_window in [(1, 5, 2), (2, 7, 1), (3, 11, 2), (5, 13, 1)]:
            torsion_part = torsion_factor_in_fractions(G, k)
            want = fraction_grid_window(lattice, free, k, grid_n, m_window, torsion_part)
            assert repr(free_mode_grid_oracle(G, k, grid_n, m_window)) == repr(want)


def test_grid_oracle_near_the_window_limit_within_three_seconds():
    t0 = time.perf_counter()
    value = free_mode_grid_oracle(lens(0, 1), 1, 200003, 1)  # 3 · 200003 window terms
    assert time.perf_counter() - t0 < 3.0
    assert abs(value - 1) < 1e-9


def test_grid_oracle_answers_on_eight_thousand_classes_within_a_second():
    from heegaard.cli import _grid_oracle_with_retries

    G = connected_sum(random_splitting(3, 115, 15), lens(2003, 3))
    assert (homology_profile(G).b1, homology_profile(G).torsion_order) == (1, 8012)
    t0 = time.perf_counter()
    _, _, value = _grid_oracle_with_retries(G, 1)
    assert time.perf_counter() - t0 < 1.0
    assert abs(value - eval_numeric(z_cs(G, 1))) < 1e-6


# ------------------------------------------- PhaseSum representation laws


def assert_z_cs_matches_literal_loop(G, levels):
    from heegaard.linking import linking_form

    G = GluingData(G.R, G.P, G.S, G.Q)
    gammas = [linking_form(G, t, t).value for t in torsion_elements(G)]
    for k in levels:
        assert z_cs(G, k) == PhaseSum(Counter(g * -k for g in gammas))


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


@given(st.data())
def test_z_cs_matches_literal_loop_at_levels_in_drawn_order(data):
    # levels of one class in any order: the first one asked for builds the sum
    if data.draw(st.booleans()):
        p = data.draw(st.integers(1, 60))
        G = lens(p, data.draw(st.integers(1, p).filter(lambda q: gcd(p, q) == 1)))
    else:
        G = random_splitting(*data.draw(splitting_params))
        assume(homology_profile(G).torsion_order <= 300)
    top = linking_matrix(G).den
    assert_z_cs_matches_literal_loop(G, data.draw(st.lists(st.integers(1, 3 * top), min_size=1, max_size=12)))


def assert_unit_squares_share_the_sum(G, levels):
    top = linking_matrix(G).den
    units = [s for s in range(1, top + 1) if gcd(s, top) == 1]
    for k in levels:
        S = z_cs(G, k)
        assert all(z_cs(G, k * s * s) is S for s in units)


def test_z_cs_returns_one_object_per_level_class(corpus):
    assert_unit_squares_share_the_sum(lens(60, 7), range(1, 61))
    for G in corpus:
        assert_unit_squares_share_the_sum(G, range(1, 13))


@pytest.mark.parametrize("n, units", [(1000, (3, 7, 11)), (1024, (1, 3, 5))])
def test_z_cs_returns_one_object_per_level_class_on_cubes(n, units):
    # at 1024 = 2¹⁰ the unit part counts mod 8 for v ≤ 7, mod 4 at v = 8, mod 2 at v = 9
    G = connected_sum(connected_sum(lens(n, units[0]), lens(n, units[1])), lens(n, units[2]))
    assert_unit_squares_share_the_sum(G, [*range(1, 13), 64, 96, 256, 384, 512, 640, 1000, 1024])


@pytest.mark.parametrize("p, classes", [(60, 4 * 3 * 3), (240, 12 * 3 * 3)])
def test_z_cs_level_classes_of_lens_spaces(p, classes):
    # 3 classes at each odd prime: v = 0 with either Legendre symbol, v = 1.  At 4:
    # v = 0 with u mod 4, v = 1, v = 2.  At 16: v = 0 with u mod 8, v = 1 with u mod 8,
    # v = 2 with u mod 4, v = 3, v = 4.  Distinct classes give distinct sums here.
    G = lens(p, 7)
    sums = [z_cs(G, k) for k in range(1, 4 * p + 1)]
    assert len({id(S) for S in sums}) == classes
    assert len(set(sums)) == classes


def test_z_cs_remaps_and_evaluates_once_per_level_class(monkeypatch):
    G = lens(60, 7)
    builds, evaluations = [], []
    build, evaluate = partition._jordan_histogram, partition._evaluate

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    def counting_evaluate(*args):
        evaluations.append(args)
        return evaluate(*args)

    monkeypatch.setattr(partition, "_jordan_histogram", counting_build)
    monkeypatch.setattr(partition, "_evaluate", counting_evaluate)
    empty_cs_sums(monkeypatch)
    # one build and one evaluation per level class; an equal manifold shares
    # the sums, so it builds and evaluates nothing
    for H, want in ((G, 36), (GluingData(G.R, G.P, G.S, G.Q), 0)):
        builds.clear()
        evaluations.clear()
        for k in range(1, 241):
            eval_numeric(z_cs(H, k))
        assert (len(builds), len(evaluations)) == (want, want)


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


@given(phase_terms, phase_terms)
def test_phase_sum_agrees_with_counter_model(a, b):
    A, B = PhaseSum(a), PhaseSum(b)
    ma, mb = counter_model(a), counter_model(b)
    assert_matches_model(A, ma)
    assert_matches_model(PhaseSum(a + b), ma + mb)
    product_model = Counter()
    for v, m in ma.items():
        for w, n in mb.items():
            product_model[frac_mod1(v + w)] += m * n
    assert_matches_model(A * B, product_model)


@given(phase_terms, phase_terms, phase_terms)
def test_phase_sum_product_laws(a, b, c):
    A, B, C = PhaseSum(a), PhaseSum(b), PhaseSum(c)
    one, empty = PhaseSum({PhaseQ(0): 1}), PhaseSum()
    assert A * B == B * A
    assert (A * B) * C == A * (B * C)
    assert A * one == A == one * A
    assert (A * B).total_terms == A.total_terms * B.total_terms
    assert A * empty == empty == empty * A
    # B + C as one sum, the union of the term lists, and so A·B + A·C
    assert A * PhaseSum(b + c) == PhaseSum((A * B).items() + (A * C).items())


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
        for T in (PhaseSum(Counter(phases)), PhaseSum(shuffled)):
            assert T == S
            assert repr(eval_numeric(T)) == repr(value)
    direct = sum(cmath.exp(2j * pi * float(ph.value)) for ph in phases)
    assert abs(value - direct) <= 1e-12 * max(1, S.total_terms)
