from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from heegaard import homology_profile, random_splitting
from heegaard.exact import _replay_columns, _smith_eliminate

settings.register_profile(
    "exact",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")

# word lengths chosen so torsion orders range from 1 up to a few thousand
CORPUS_WORD_LENGTHS = (4, 12, 22, 36, 44)


def iter_seeded_corpus(count, torsion_cap=10**4, word_lengths=CORPUS_WORD_LENGTHS):
    """Deterministic stream of distinct valid splittings, genus 1..3."""
    seen = set()
    i = 0
    yielded = 0
    while yielded < count:
        genus = 1 + (i % 3)
        wl = word_lengths[(i // 3) % len(word_lengths)]
        G = random_splitting(genus, i, wl)
        i += 1
        key = (G.R, G.P, G.S, G.Q)
        if key in seen:
            continue
        seen.add(key)
        if homology_profile(G).torsion_order <= torsion_cap:
            yielded += 1
            yield G


@pytest.fixture(scope="session")
def corpus():
    """The 50-splitting corpus shared by the partition and invariance suites."""
    return list(iter_seeded_corpus(50))


def smith_form(rows):
    """Rows of the Smith form D of an integer matrix and of its exact V⁻¹.

    D comes from the package's one elimination; V⁻¹ replays all of its
    column operations with no modulus, where the pipeline replays only
    the columns it keeps.
    """
    D, log = _smith_eliminate(rows)
    n = len(rows[0])
    return D, _replay_columns(log, n, 0, n)


def diagonal(D):
    """The diagonal of a matrix given as a list of rows."""
    return [row[i] for i, row in enumerate(D[: len(D[0])])]


def free_flat_basis(G):
    """A Q-basis of the free flat modes {x in Q^g : P x = 0}: the kernel columns as Fractions."""
    return [tuple(map(Fraction, c)) for c in homology_profile(G).kernel_columns]


def matmul(A, B):
    """The product of two matrices given as lists of rows."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def transpose(A):
    """The transpose of a matrix given as a list of rows."""
    return [list(col) for col in zip(*A)]


def blocks_to_matrix(R, P, S, Q):
    """The rows of the 2g × 2g matrix [[R, P], [S, Q]] of four g × g blocks given as rows."""
    return [list(r) + list(p) for r, p in zip(R, P)] + [list(s) + list(q) for s, q in zip(S, Q)]


def matrix_to_blocks(M):
    """The rows of the four g × g blocks R, P, S, Q of a 2g × 2g matrix given as rows."""
    g = len(M) // 2
    block = lambda r0, c0: [list(row[c0 : c0 + g]) for row in M[r0 : r0 + g]]
    return block(0, 0), block(0, g), block(g, 0), block(g, g)


def gluing_matrix(G):
    """The rows of the 2g × 2g gluing matrix [[R, P], [S, Q]] of a splitting."""
    return blocks_to_matrix(*(b.to_rows() for b in (G.R, G.P, G.S, G.Q)))
