import random
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

import heegaard.splitting as splitting
from heegaard.splitting import (
    GluingData,
    ValidationError,
    block_relation_violations,
    connected_sum,
    lens,
    random_splitting,
    stabilize,
    validate,
)
from conftest import blocks_to_matrix, gluing_matrix, matmul, matrix_to_blocks, transpose
from oracle_helpers import det_laplace, plain_anti_symplectic, two_sided_relation_violations

splitting_params = st.tuples(
    st.integers(1, 3), st.integers(0, 200), st.sampled_from([0, 3, 6, 10, 15])
)


def blocks_of(G):
    return (
        [list(r) for r in G.R.to_rows()],
        [list(r) for r in G.P.to_rows()],
        [list(r) for r in G.S.to_rows()],
        [list(r) for r in G.Q.to_rows()],
    )


# -------------------------------------------------------------- validation


def test_identity_quadruple_violations_pinned():
    v = block_relation_violations([[1]], [[0]], [[0]], [[1]])
    assert list(v) == ["P†S − Q†R = -1 ≠ 1", "SP† − QR† = -1 ≠ 1"]


def test_standard_sphere_splitting_is_valid():
    G = validate([[0]], [[1]], [[1]], [[0]])
    assert isinstance(G, GluingData)
    assert G.genus == 1


def test_validation_error_carries_violations():
    with pytest.raises(ValidationError) as exc:
        validate([[1]], [[0]], [[0]], [[1]])
    assert exc.value.violations
    assert all(isinstance(s, str) for s in exc.value.violations)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        validate([[0, 0]], [[1]], [[1]], [[0]])
    with pytest.raises(ValidationError):
        validate([[0, 0], [0, 0]], [[1]], [[1]], [[0]])


@pytest.mark.parametrize("bad", [2.4, Fraction(7, 2), Decimal("2.5"), 2.0, Fraction(4, 1)])
def test_non_integer_blocks_rejected(bad):
    # truncating 2.4, 5.9, 1.3, 2.99 would give the valid blocks of L(5, 2);
    # an integral value such as 2.0 or Fraction(4, 1) is refused all the same
    assert validate([[2]], [[5]], [[1]], [[2]]) == lens(5, 2)
    with pytest.raises(ValidationError, match="block R is not an integer matrix"):
        validate([[bad]], [[5.9]], [[1.3]], [[2.99]])
    with pytest.raises(ValidationError, match="block P is not an integer matrix"):
        validate([[2]], [[bad]], [[1]], [[3]])


def test_genus_zero_rejected():
    with pytest.raises(ValidationError):
        validate([], [], [], [])


def test_gluing_data_immutable_hashable():
    a = lens(5, 1)
    b = lens(5, 1)
    assert a == b and hash(a) == hash(b)
    assert a != lens(5, 2)
    with pytest.raises(AttributeError):
        a.R = a.P


@given(splitting_params)
def test_equal_splittings_built_separately_hash_equal(params):
    G = random_splitting(*params)
    H = GluingData(*blocks_of(G))
    assert G is not H and G == H and hash(G) == hash(H)
    assert stabilize(G) == connected_sum(H, lens(1, 0))
    assert hash(stabilize(G)) == hash(connected_sum(H, lens(1, 0)))
    L = lens(7, 3)
    assert hash(L) == hash(validate(*blocks_of(L))) == hash(GluingData([[2]], [[7]], [[1]], [[3]]))
    with pytest.raises(AttributeError):
        G._hash = 0


@given(splitting_params)
def test_valid_samples_pass_both_checkers_and_oracle(params):
    G = random_splitting(*params)
    r, p, s, q = blocks_of(G)
    assert not block_relation_violations(r, p, s, q)
    assert not two_sided_relation_violations(r, p, s, q)
    assert plain_anti_symplectic(r, p, s, q)


@given(
    splitting_params,
    st.sampled_from("RPSQ"),
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from([-2, -1, 1, 2]),
)
def test_perturbed_samples_agree_across_checkers(params, block, i, j, delta):
    G = random_splitting(*params)
    r, p, s, q = blocks_of(G)
    target = {"R": r, "P": p, "S": s, "Q": q}[block]
    g = len(target)
    target[i % g][j % g] += delta
    violations = block_relation_violations(r, p, s, q)
    assert violations == two_sided_relation_violations(r, p, s, q)
    assert (violations == []) == plain_anti_symplectic(r, p, s, q)


@st.composite
def candidate_blocks(draw):
    """Blocks to validate: a valid splitting with one entry moved, or blocks
    each drawn from 0, 1 and one random N.  With N ≠ N† the candidates
    (0, 1, 0, N), (1, 0, N, 0), (N, 1, 0, 0) and (0, 0, 1, N) each break one
    symmetric relation alone: Q†P, S†R, RP† and SQ† in turn."""
    if draw(st.booleans()):
        blocks = list(blocks_of(random_splitting(*draw(splitting_params))))
        g = len(blocks[0])
        target = blocks[draw(st.integers(0, 3))]
        target[draw(st.integers(0, g - 1))][draw(st.integers(0, g - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
        return tuple(blocks)
    g = draw(st.integers(1, 3))
    N = draw(st.lists(st.lists(st.integers(-3, 3), min_size=g, max_size=g), min_size=g, max_size=g))
    choices = {
        "0": [[0] * g for _ in range(g)],
        "1": [[int(i == j) for j in range(g)] for i in range(g)],
        "N": N,
    }
    return tuple(choices[draw(st.sampled_from("01N"))] for _ in "RPSQ")


_Z, _I, _N = [[0, 0], [0, 0]], [[1, 0], [0, 1]], [[0, 1], [0, 0]]


@given(candidate_blocks())
@example((_Z, _I, _Z, _N))
@example((_I, _Z, _N, _Z))
@example((_N, _I, _Z, _Z))
@example((_Z, _Z, _I, _N))
def test_violations_match_two_sided_evaluation(blocks):
    assert block_relation_violations(*blocks) == two_sided_relation_violations(*blocks)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit before 3.11")
def test_violation_past_the_digit_limit_is_named_without_its_entries():
    # str() refuses an int past the limit; the line still names the relation
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        lines = block_relation_violations([[1]], [[0]], [[0]], [[10**2000]])
    finally:
        sys.set_int_max_str_digits(limit)
    assert lines == [
        "P†S − Q†R = <entries too long to print> ≠ 1",
        "SP† − QR† = <entries too long to print> ≠ 1",
    ]


@given(candidate_blocks())
@example(([[0, 0], [0, 0]], _I, _I, [[0, 0], [0, 0]]))
def test_first_three_relations_decide_validity(blocks):
    # M†JM = −J is Q†P = P†Q, S†R = R†S and P†S − Q†R = 1; it implies the other three
    violations = two_sided_relation_violations(*blocks)
    first_three = not [v for v in violations if v.startswith(("Q†P", "P†S", "S†R"))]
    assert first_three == plain_anti_symplectic(*blocks) == (violations == [])
    assert splitting._anti_symplectic(*splitting._coerce_blocks(*blocks)) == first_three
    assert block_relation_violations(*blocks) == violations


def products_of_validation(monkeypatch, blocks) -> list:
    """The (left, right) operands of every block product that validating blocks takes,
    each the list of the rows or columns whose dot products make the product."""
    calls = []
    product = splitting._product

    def counted(a, b):
        calls.append((list(a), list(b)))
        return product(a, b)

    monkeypatch.setattr(splitting, "_product", counted)
    try:
        GluingData(*blocks)
    except ValidationError:
        pass
    monkeypatch.undo()
    return calls


def test_valid_splitting_is_accepted_on_the_first_three_relations(monkeypatch):
    G = random_splitting(3, 0, 15)
    assert G.genus == 3 and G.P.to_rows() != ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # no product at all, so in particular not RP†, SP† − QR† or SQ†
    assert products_of_validation(monkeypatch, blocks_of(G)) == []


def test_invalid_splitting_evaluates_all_six_relations(monkeypatch):
    blocks = blocks_of(random_splitting(3, 0, 15))
    blocks[3][1][2] += 1
    # A†B dots the columns of A and B, AB† their rows
    R, P, S, Q = ([tuple(r) for r in b] for b in blocks)
    Rc, Pc, Sc, Qc = ([tuple(c) for c in transpose(b)] for b in blocks)
    calls = products_of_validation(monkeypatch, blocks)
    assert calls == [
        (Qc, Pc),
        (Pc, Sc),
        (Qc, Rc),
        (Sc, Rc),
        (R, P),
        (S, P),
        (Q, R),
        (S, Q),
    ]
    assert block_relation_violations(*blocks) == two_sided_relation_violations(*blocks)


@given(splitting_params)
def test_valid_determinant_sign(params):
    G = random_splitting(*params)
    assert det_laplace(gluing_matrix(G)) == (-1) ** G.genus


@given(splitting_params)
def test_matrix_inverse_closed_form(params):
    G = random_splitting(*params)
    n = 2 * G.genus
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    R, P, S, Q = (transpose(b.to_rows()) for b in (G.R, G.P, G.S, G.Q))
    negative = lambda A: [[-x for x in row] for row in A]
    inverse = blocks_to_matrix(negative(Q), P, S, negative(R))
    M = gluing_matrix(G)
    assert matmul(M, inverse) == ident
    assert matmul(inverse, M) == ident


def test_block_matrix_roundtrip():
    G = random_splitting(2, 5, 6)
    blocks = blocks_of(G)
    assert matrix_to_blocks(blocks_to_matrix(*blocks)) == blocks


# ------------------------------------------------------------------- lens


def test_lens_pinned_completions():
    cases = {
        (1, 0): (0, 1, 1, 0),
        (0, 1): (-1, 0, 0, 1),
        (7, 2): (3, 7, 1, 2),
        (2, 1): (-1, 2, 0, 1),
        (5, 2): (2, 5, 1, 2),
        (10**30 + 7, 10**29 + 3): (
            -173913043478260869565217391306,
            10**30 + 7,
            -17391304347826086956521739131,
            10**29 + 3,
        ),
    }
    for (p, q), (r, pp, s, qq) in cases.items():
        G = lens(p, q)
        assert (G.R[0][0], G.P[0][0], G.S[0][0], G.Q[0][0]) == (r, pp, s, qq)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_lens_completion_law(p, q):
    from math import gcd

    if gcd(p, q) != 1:
        with pytest.raises(ValueError):
            lens(p, q)
        return
    G = lens(p, q)
    r, pp, s, qq = G.R[0][0], G.P[0][0], G.S[0][0], G.Q[0][0]
    assert pp == abs(p)
    assert qq == (q if p >= 0 else -q) or p == 0
    assert pp * s - qq * r == 1
    # the documented choice: |r|, then s >= 0, then |s|, then r >= 0
    if pp:
        rs = range(-pp - 1, pp + 2)
        scan = [(x, (1 + qq * x) // pp) for x in rs if (1 + qq * x) % pp == 0]
    else:
        scan = [(-qq, y) for y in range(-2, 3)]
    assert min(scan, key=lambda xy: (abs(xy[0]), xy[1] < 0, abs(xy[1]), xy[0] < 0)) == (r, s)


def test_lens_blocks_pass_full_validation():
    cases = [(0, 1), (0, -1), (1, 0), (1, 1), (1, -1)]
    cases += [(p, q) for p in range(2, 51) for q in range(-p + 1, p) if gcd(p, q) == 1]
    for p, q in cases:
        assert block_relation_violations(*blocks_of(lens(p, q))) == []


def test_lens_rejects_a_bad_completion(monkeypatch):
    monkeypatch.setattr(splitting, "pow", lambda *a: 0, raising=False)
    with pytest.raises(ValidationError, match="P†S − Q†R = 0 ≠ 1"):
        lens(7, 3)


def test_lens_negative_p_normalizes():
    assert lens(-5, 2) == lens(5, -2)


def test_lens_gcd_error_message():
    with pytest.raises(ValueError, match="gcd"):
        lens(4, 2)


# ------------------------------------------------- composite constructions


def test_connected_sum_blocks():
    G = connected_sum(lens(2, 1), lens(3, 1))
    assert G.genus == 2
    assert G.P.to_rows() == ((2, 0), (0, 3))
    # off-diagonal blocks are zero in every block
    for blk in (G.R, G.P, G.S, G.Q):
        assert blk[0][1] == 0 and blk[1][0] == 0


@given(splitting_params, splitting_params)
def test_connected_sum_valid(a, b):
    G = connected_sum(random_splitting(*a), random_splitting(*b))
    r, p, s, q = blocks_of(G)
    assert not block_relation_violations(r, p, s, q)


def test_connected_sum_of_valid_inputs_passes_validation(corpus):
    lenses = [lens(p, q) for p, q in ((1, 0), (0, 1), (2, 1), (5, 2), (7, -3), (12, 5))]
    parts = corpus[:12] + lenses + [stabilize(G) for G in corpus[:4] + lenses]
    for a, b in zip(parts, parts[1:] + parts[:1]):
        for G in (connected_sum(a, b), connected_sum(a, a), stabilize(a)):
            assert not block_relation_violations(G.R, G.P, G.S, G.Q)


def test_stabilize_adds_trivial_handle():
    G = lens(7, 2)
    S = stabilize(G)
    assert S.genus == 2
    assert S == connected_sum(G, lens(1, 0))


# --------------------------------------------------------- random gluings


def test_random_splitting_deterministic():
    a = random_splitting(2, 11, 8)
    b = random_splitting(2, 11, 8)
    assert a == b


def test_random_splitting_seed_sensitivity():
    assert random_splitting(2, 0, 8) != random_splitting(2, 1, 8)


def test_random_splitting_word_length_zero_is_standard():
    G = random_splitting(3, 0, 0)
    z = [[0] * 3 for _ in range(3)]
    i = [[int(a == b) for b in range(3)] for a in range(3)]
    assert blocks_of(G) == (z, i, i, z)


def literal_word_blocks(genus, seed, word_length):
    """random_splitting's recipe with each transvection as a full 2g × 2g product."""
    n = 2 * genus
    rng = random.Random(f"heegaard:{genus}:{seed}:{word_length}")
    identity = lambda m: [[int(a == b) for b in range(m)] for a in range(m)]
    z, i = [[0] * genus for _ in range(genus)], identity(genus)
    J = blocks_to_matrix(z, i, [[-x for x in row] for row in i], z)
    vecs = splitting._transvection_vectors(genus)
    W = identity(n)
    for _ in range(word_length):
        ones = vecs[rng.randrange(len(vecs))]
        c = rng.choice((1, -1))
        col = [[int(j in ones)] for j in range(n)]
        scaled = [[c * int(j in ones)] for j in range(n)]
        outer = matmul(scaled, matmul(transpose(col), J))
        W = matmul(W, [[a + b for a, b in zip(u, v)] for u, v in zip(identity(n), outer)])
    return matrix_to_blocks(matmul(blocks_to_matrix(z, i, i, z), W))


def test_random_splitting_matches_literal_word_product():
    for genus in range(1, 7):
        for seed in range(21):
            for length in (0, 4, 12, 44):
                G = random_splitting(genus, seed, length)
                assert blocks_of(G) == literal_word_blocks(genus, seed, length)


@given(splitting_params)
def test_random_splitting_genus(params):
    assert random_splitting(*params).genus == params[0]


def test_random_splitting_refuses_past_enumeration_limit():
    # genus 500 is the largest whose (2g)² entries fit the limit
    limit = splitting._ENUMERATION_LIMIT
    t0 = time.perf_counter()
    for genus in (501, 10**6):
        size = (2 * genus) ** 2
        with pytest.raises(ValueError, match=re.escape(f"{size} exceeds the enumeration limit {limit}")):
            random_splitting(genus, 0, 1)
    assert time.perf_counter() - t0 < 0.1


def test_random_splitting_builds_the_largest_genus_quickly():
    # a transvection word is valid by construction, so no g × g product is
    # checked, and each letter reads and rewrites at most two of the 2g columns
    for length in (1, splitting._WORD_LENGTH_LIMIT):
        t0 = time.perf_counter()
        G = random_splitting(500, 0, length)
        assert time.perf_counter() - t0 < 5.0
        assert G.genus == 500


def test_random_splitting_refuses_past_word_length_limit():
    limit = splitting._WORD_LENGTH_LIMIT
    assert limit == 10**4
    assert random_splitting(1, 0, limit).genus == 1
    t0 = time.perf_counter()
    for length in (limit + 1, 10**9):
        with pytest.raises(ValueError, match=re.escape(f"word_length = {length} exceeds the limit {limit}")):
            random_splitting(2, 0, length)
    assert time.perf_counter() - t0 < 0.1
