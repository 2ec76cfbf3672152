"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single "criterion N: PASS ..." line with the measured
tolerance or runtime, so a -s run reads as a checklist.  Budgets are wall
clock on the machine running the suite.
"""

import random
import time
from fractions import Fraction
from itertools import count
from math import gcd

from heegaard.exact import PhaseQ, vec_dot
from heegaard.fields import FiniteDBClass, bf_action, cs_action, zero_mode_shift
from heegaard.homology import (
    curvature_lattice_basis,
    homology_profile,
    torsion_elements,
)
from heegaard.linking import is_nondegenerate, linking_form
from heegaard.partition import (
    PhaseSum,
    eval_numeric,
    free_mode_grid_oracle,
    gauss_sum_oracle,
    z_bf,
    z_cs,
)
from heegaard.splitting import (
    block_relation_violations,
    connected_sum,
    lens,
    random_splitting,
    stabilize,
)
from conftest import diagonal, free_flat_basis, iter_seeded_corpus, smith_form
from oracle_helpers import det_laplace, index_sum, plain_anti_symplectic

LENS_SWEEP = [
    (p, q) for p in range(2, 51) for q in range(-p + 1, p) if gcd(p, q) == 1
]

GRID_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def grid_value(G, k, m_window=2):
    last = None
    for n in GRID_PRIMES:
        if gcd(n, 2 * k * m_window) != 1:
            continue
        try:
            return free_mode_grid_oracle(G, k, n, m_window)
        except ValueError as exc:
            if "aliasing" in str(exc):
                last = exc
                continue
            raise
    raise AssertionError(f"no usable grid size: {last}")


def seeded_class(G, rng):
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
    return FiniteDBClass(G, m, theta_f, theta_t, holonomy, Fraction(rng.randint(-6, 6), 8))


def test_criterion_01_sphere_normalization():
    one = PhaseSum({PhaseQ(0): 1})
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        G = lens(1, 0)
        for k in range(1, 11):
            S = z_cs(G, k)
            assert S == one
            assert eval_numeric(S) == 1
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    print(f"criterion 1: PASS sphere Z_CS = 1 exactly for k = 1..10 in {best * 1e6:.0f} us")


def test_criterion_02_handle_normalization():
    G = lens(0, 1)
    one = PhaseSum({PhaseQ(0): 1})
    for k in range(1, 11):
        assert z_cs(G, k) == one
    print("criterion 2: PASS S1xS2 Z_CS = {0: 1} exactly for k = 1..10")


def test_criterion_03_lens_gauss_sums():
    t0 = time.perf_counter()
    worst = 0.0
    for p, q in LENS_SWEEP:
        G = lens(p, q)
        for k in range(1, 6):
            dev = abs(eval_numeric(z_cs(G, k)) - gauss_sum_oracle(p, q, k))
            worst = max(worst, dev)
    spot = abs(eval_numeric(z_cs(lens(5, 1), 1)) - 5**0.5)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"worst deviation {worst:.3e}"
    assert spot <= 1e-9
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    checks = len(LENS_SWEEP) * 5
    print(
        f"criterion 3: PASS {checks} lens/level Gauss-sum checks, worst "
        f"|dev| = {worst:.2e} <= 1e-9, in {elapsed:.2f} s"
    )


def test_criterion_04_bf_closed_form(corpus):
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for p, q in LENS_SWEEP:
        G = lens(p, q)
        prof = homology_profile(G)
        for k in range(1, 6):
            reference = prof.torsion_order * prof.kernel_count(k)
            dev = abs(eval_numeric(z_bf(G, k)) - reference)
            worst = max(worst, dev / max(1, reference))
            checks += 1
    spot = abs(eval_numeric(z_bf(lens(6, 1), 2)) - 12)
    assert spot <= 1e-6
    for i, G in enumerate(corpus):
        k = 1 + (i % 5)
        prof = homology_profile(G)
        reference = prof.torsion_order * prof.kernel_count(k)
        dev = abs(eval_numeric(z_bf(G, k)) - reference)
        worst = max(worst, dev / max(1, reference))
        checks += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, f"worst relative deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    print(
        f"criterion 4: PASS {checks} BF closed-form checks (lens sweep + 50 "
        f"random, torsion up to 10^4), worst rel dev = {worst:.2e}, in {elapsed:.1f} s"
    )


def test_criterion_05_linking_form_laws():
    manifolds = list(iter_seeded_corpus(200))
    checked = 0
    for idx, G in enumerate(manifolds):
        assert is_nondegenerate(G)
        T = torsion_elements(G)
        if len(T) == 1:
            continue
        rng = random.Random(1000 + idx)
        i, j, m = (rng.randrange(len(T)) for _ in range(3))
        a, b, c = T[i], T[j], T[m]
        assert linking_form(G, a, b) == linking_form(G, b, a)
        total = T.by_index(index_sum(T.dims, i, j))
        assert linking_form(G, total, c) == linking_form(G, a, c) + linking_form(G, b, c)
        shift = [rng.randint(-3, 3) for _ in range(G.genus)]
        moved = tuple(x + z for x, z in zip(a, shift))
        assert linking_form(G, moved, b) == linking_form(G, a, b)
        free = free_flat_basis(G)
        if free:
            moved2 = tuple(
                x + Fraction(rng.randint(-4, 4), 3) * u for x, u in zip(a, free[0])
            )
            assert linking_form(G, moved2, b) == linking_form(G, a, b)
        checked += 1
    assert checked >= 100
    print(
        f"criterion 5: PASS symmetry/bilinearity/representative-independence/"
        f"nondegeneracy exact on 200 splittings ({checked} with torsion)"
    )


def test_criterion_06_zero_mode_invariance():
    picks = []
    for i in count():
        genus = 1 + (i % 3)
        wl = (4, 6, 8, 10, 12, 15)[(i // 3) % 6]
        G = random_splitting(genus, i, wl)
        prof = homology_profile(G)
        if prof.b1 >= 1 and prof.torsion_order <= 1000 and G not in picks:
            picks.append(G)
        if len(picks) == 20:
            break
    checks = 0
    for gi, G in enumerate(picks):
        kern = homology_profile(G).kernel_columns
        rng = random.Random(7000 + gi)
        for _ in range(10):
            k = rng.randint(1, 7)
            A = seeded_class(G, rng)
            u = [0] * G.genus
            for v in kern:
                c = rng.randint(-3, 3)
                u = [a + c * b for a, b in zip(u, v)]
            shifted = zero_mode_shift(G, A, u, k)
            assert cs_action(G, shifted, k) == cs_action(G, A, k)
            B = seeded_class(G, rng)
            base = bf_action(G, A, B, k, cross=Fraction(1, 5))
            for which in (0, 1):
                moved_f = [x + Fraction(c, k) for x, c in zip((A, B)[which].theta_f, u)]
                moved = (A, B)[which].replace(theta_f=moved_f)
                pair = (moved, B) if which == 0 else (A, moved)
                assert bf_action(G, pair[0], pair[1], k, cross=Fraction(1, 5)) == base
            checks += 1
    assert checks == 200
    print(
        "criterion 6: PASS CS invariant under u/(2k) shifts and BF invariant "
        "under both u/k shifts, 200 random (G, A, u, k), all exact"
    )


def test_criterion_07_structural_invariance(corpus):
    partners = (2, 3, 5, 7)
    worst = 0.0
    for i, G in enumerate(corpus):
        k = 1 + (i % 5)
        base = z_cs(G, k)
        assert z_cs(stabilize(G), k) == base, "stabilization must be exact"
        L = lens(partners[i % 4], 1)
        joint = eval_numeric(z_cs(connected_sum(G, L), k))
        split = eval_numeric(base) * eval_numeric(z_cs(L, k))
        worst = max(worst, abs(joint - split))
    assert worst <= 1e-9, f"worst multiplicativity deviation {worst:.3e}"
    print(
        f"criterion 7: PASS stabilization exact and connected-sum "
        f"multiplicativity worst |dev| = {worst:.2e} <= 1e-9 on the corpus"
    )


def test_connected_sum_is_the_exact_product(corpus):
    """Z_CS(G₁ # G₂) = Z_CS(G₁)·Z_CS(G₂) as PhaseSums, not just as numbers.

    Criterion 7 checks the law numerically; here the two sides must be
    equal formal sums, on consecutive corpus pairs and on lens pairs.
    """
    pairs = list(zip(corpus[::2], corpus[1::2]))
    pairs += [(lens(p, q), lens(p2, q2)) for p, q, p2, q2 in
              ((5, 2, 5, 3), (8, 3, 12, 5), (9, 2, 27, 4), (16, 1, 16, 7), (7, 1, 49, 3), (1, 0, 0, 1))]
    checked = 0
    for i, (G1, G2) in enumerate(pairs):
        for k in (1 + i % 5, 6):
            assert z_cs(connected_sum(G1, G2), k) == z_cs(G1, k) * z_cs(G2, k)
            checked += 1
    print(f"connected sum: PASS Z_CS(G1 # G2) == Z_CS(G1) * Z_CS(G2) exactly on {checked} sums")


def test_criterion_08_oracle_triangle(corpus):
    manifolds = [lens(0, 1)]
    manifolds += [G for G in corpus if homology_profile(G).b1 >= 1]
    manifolds += [
        random_splitting(2, 7, 4),   # b1 = 1, torsion Z_2
        random_splitting(2, 42, 4),  # b1 = 1, torsion Z_3
        random_splitting(2, 24, 4),  # b1 = 2
    ]
    # every member must genuinely exercise the free-mode reduction
    assert all(homology_profile(G).b1 >= 1 for G in manifolds)
    assert len(manifolds) >= 6
    worst = 0.0
    for G in manifolds:
        for k in (1, 2, 3):
            dev = abs(grid_value(G, k) - eval_numeric(z_cs(G, k)))
            worst = max(worst, dev)
    assert worst <= 1e-6, f"worst grid deviation {worst:.3e}"
    print(
        f"criterion 8: PASS grid oracle vs Z_CS on {len(manifolds)} manifolds "
        f"with b1 >= 1 (k = 1..3), worst |dev| = {worst:.2e} <= 1e-6"
    )


def test_criterion_09_validator_equivalence():
    rng = random.Random(90)
    agree = 0
    invalid_seen = 0
    samples = []
    for i in range(250):
        genus = 1 + (i % 3)
        G = random_splitting(genus, i, (0, 3, 6, 10, 15)[i % 5])
        samples.append((
            [list(r) for r in G.R.to_rows()],
            [list(r) for r in G.P.to_rows()],
            [list(r) for r in G.S.to_rows()],
            [list(r) for r in G.Q.to_rows()],
        ))
    for base in list(samples):
        blocks = [[row[:] for row in blk] for blk in base]
        which = rng.randrange(4)
        g = len(blocks[which])
        blocks[which][rng.randrange(g)][rng.randrange(g)] += rng.choice((-2, -1, 1, 2))
        samples.append(tuple(blocks))
    assert len(samples) == 500
    for r, p, s, q in samples:
        relations_ok = not block_relation_violations(r, p, s, q)
        assert relations_ok == plain_anti_symplectic(r, p, s, q)
        agree += 1
        if relations_ok:
            g = len(r)
            M = [list(r[i]) + list(p[i]) for i in range(g)] + [list(s[i]) + list(q[i]) for i in range(g)]
            assert det_laplace(M) == (-1) ** g
        else:
            invalid_seen += 1
    assert invalid_seen >= 200, "perturbations should usually break validity"
    print(
        f"criterion 9: PASS both validators agree on {agree} quadruples "
        f"({invalid_seen} invalid), det = (-1)^g on every valid one"
    )


def test_criterion_10_snf_property_suite():
    from oracle_helpers import (
        abelian_order_multiset,
        assert_smith_certificate,
        cokernel_order_multiset,
        det_laplace,
    )

    rng = random.Random(10**6)
    coker_checked = 0
    for _ in range(500):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        D, v_inverse = smith_form(rows)
        diag = diagonal(D)
        assert_smith_certificate(rows, diag, v_inverse)
        nz = [d for d in diag if d]
        assert all(d > 0 for d in nz)
        assert list(diag[: len(nz)]) == nz
        for d1, d2 in zip(nz, nz[1:]):
            assert d2 % d1 == 0
        if n == m:
            det = det_laplace(rows)
            if det != 0 and abs(det) <= 30:
                factors = [d for d in diag if d > 1]
                assert cokernel_order_multiset(rows) == abelian_order_multiset(factors)
                coker_checked += 1
    assert coker_checked >= 20
    print(
        f"criterion 10: PASS 500 SNF property checks "
        f"({coker_checked} cokernels cross-checked by residue enumeration)"
    )
