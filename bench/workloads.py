"""Seeded inputs, jobs and output checks of the three benchmark workloads.

Every workload is a list of jobs made from the seed alone.  A job starts
from plain integers (lens parameters or integer blocks), so nothing the
timed region needs has been computed before it starts, and each
(manifold, level) pair occurs once per pass.  Jobs call only names in
``heegaard.__all__`` or the command line.  The checks run after the timed
region and compare every output with a reference from ``oracles`` or with
a brute-force sum that the benchmark builds itself.

The seed changes the inputs but not the amount of work, so that runs on
different seeds can be compared: it permutes the lens sweep, flips the
signs of rows and columns of the corpus blocks (a change of basis that
keeps homology and linking form, and so every partition sum), picks the
units q of the (Z/n)^3 groups, and draws the lens parameters and levels
of the command-line calls.
"""

import cmath
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from collections import Counter
from itertools import product
from math import gcd, lcm, pi, prod

import oracles
from heegaard import (
    connected_sum,
    eval_numeric,
    gauss_sum_oracle,
    homology_profile,
    is_nondegenerate,
    lens,
    linking_matrix,
    random_splitting,
    torsion_elements,
    validate,
    z_bf,
    z_cs,
)

LENS_SWEEP = [(p, q) for p in range(2, 51) for q in range(-p + 1, p) if gcd(p, q) == 1]
LENS_LEVELS = (1, 2, 3, 4, 5)
CORPUS_LEVELS = (1, 2, 3, 6)
# the tier-1 corpus recipe of tests/conftest.py::iter_seeded_corpus
CORPUS_SIZE = 50
CORPUS_TORSION_CAP = 10**4
CORPUS_WORD_LENGTHS = (4, 12, 22, 36, 44)
# orders n of the added (Z/n)^3 groups; fixed so the O(n^6) BF cost is too
CUBE_ORDERS = (10, 13, 16)
CLI_SMALL_TORSION = 500
CLI_TIMEOUT_S = 60


def plain_call(name, fn, *args):
    """Untraced stand-in for Tracer.bind: just makes the call."""
    return fn(*args)


def _rows(m) -> list:
    return [list(r) for r in m.to_rows()]


def _blocks(G) -> tuple:
    return tuple(_rows(b) for b in (G.R, G.P, G.S, G.Q))


def digest(obj) -> str:
    raw = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _phase_counter(S) -> Counter:
    """A PhaseSum as {(numerator, denominator): multiplicity}."""
    return Counter({(ph.numerator, ph.denominator): m for ph, m in S.items()})


def _numeric_of(hist: Counter) -> complex:
    return sum(m * cmath.exp(2j * pi * n / d) for (n, d), m in hist.items())


def _peak_rss_mib(who) -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024


def _same(label, got, want) -> list:
    return [] if got == want else [f"{label}: got {got!r:.120}, expected {want!r:.120}"]


def tier1_corpus() -> list:
    """Blocks of the 50-splitting corpus, exactly as the tier-1 tests build it.

    The torsion filter uses the determinantal divisors of ``oracles`` rather
    than ``homology_profile``, so making the corpus fills no library cache.
    """
    seen = set()
    out = []
    i = 0
    while len(out) < CORPUS_SIZE:
        genus = 1 + (i % 3)
        wl = CORPUS_WORD_LENGTHS[(i // 3) % len(CORPUS_WORD_LENGTHS)]
        blocks = _blocks(random_splitting(genus, i, wl))
        i += 1
        key = json.dumps(blocks)
        if key in seen:
            continue
        seen.add(key)
        if oracles.torsion_order(blocks[1]) <= CORPUS_TORSION_CAP:
            out.append(blocks)
    return out


def _signs(g: int, rng) -> list:
    return [rng.choice((1, -1)) for _ in range(g)]


def resign(blocks, rng) -> tuple:
    """The same manifold in a new basis: M -> diag(V, V) M diag(U, U).

    U and V are seeded diagonal sign matrices.  Both factors are
    symplectic, so the result is again anti-symplectic, and P becomes
    V P U, so coker P and the linking form are unchanged.  The entries keep
    their size, so the work done on the new blocks is the same.
    """
    g = len(blocks[0])
    u, v = _signs(g, rng), _signs(g, rng)
    return tuple([[v[i] * x * u[j] for j, x in enumerate(row)] for i, row in enumerate(b)] for b in blocks)


def seeded_corpus(seed: int) -> list:
    """The tier-1 corpus at seed 0; a re-signed copy of it at any other seed."""
    corpus = tier1_corpus()
    if seed == 0:
        return corpus
    rng = random.Random(f"corpus-signs:{seed}")
    return [resign(b, rng) for b in corpus]


def _unit(n: int, rng) -> int:
    return rng.choice([q for q in range(1, n) if gcd(q, n) == 1])


def cube_groups(seed: int) -> list:
    """Blocks of (Z/n)^3 as lens(n, q1) # lens(n, q2) # lens(n, q3)."""
    rng = random.Random(f"cubes:{seed}")
    out = []
    for n in CUBE_ORDERS:
        a, b, c = (lens(n, _unit(n, rng)) for _ in range(3))
        out.append(_blocks(connected_sum(connected_sum(a, b), c)))
    return out


def _descriptors(jobs, torsion) -> dict:
    """Sizes of the traffic: sum |T|, sum |T|^2, max rank r and max L.

    L, the common denominator of the linking gram, equals the largest
    invariant factor because the form is nondegenerate (checked per job).
    """
    return {
        "jobs": len(jobs),
        "sum_T": sum(prod(f) for f in torsion),
        "sum_T2": sum(prod(f) ** 2 for f in torsion),
        "max_rank": max(len(f) for f in torsion),
        "max_L": max(max(f, default=1) for f in torsion),
    }


def _brute_cs(blocks, T, dims, levels) -> tuple:
    """Histogram of −k·Γ(θ,θ) over every torsion class, and any problems.

    The classes are θ = Σ a_i·gen_i mod 1 for a_i < d_i, from the generators
    of ``torsion_elements``.  Γ(θ,θ) = ⟨Qθ, Pθ⟩ is evaluated on each
    representative straight from the blocks, in integers over a common
    denominator D, so it relies on neither bilinearity nor the gram matrix
    that the partition sums use.
    """
    P, Q = blocks[1], blocks[3]
    r = len(dims)
    gens = [T.by_index(tuple(int(i == j) for j in range(r))) for i in range(r)]
    D = lcm(*(x.denominator for gen in gens for x in gen)) if gens else 1
    num = [[int(x * D) for x in gen] for gen in gens]
    B = oracles.mul(oracles.transpose(Q), P)
    g = len(P)
    bad = []
    if any(sum(P[i][c] * n[c] for c in range(g)) % D for n in num for i in range(g)):
        bad.append("a torsion generator has P·θ not integral")
    seen = set()
    values = Counter()
    for a in product(*(range(d) for d in dims)):
        y = tuple(sum(ai * n[c] for ai, n in zip(a, num)) % D for c in range(g))
        seen.add(y)
        values[sum(y[i] * B[i][j] * y[j] for i in range(g) for j in range(g)) % (D * D)] += 1
    if len(seen) != prod(dims):
        bad.append(f"{len(seen)} distinct torsion representatives, expected {prod(dims)}")
    out = {}
    for k in levels:
        hist = out[k] = Counter()
        for v, m in values.items():
            hist[oracles.reduced(-k * v, D * D)] += m
    return out, bad


class InProcess:
    """A workload whose jobs run inside the measuring process."""

    @staticmethod
    def peak_rss_mib() -> float:
        return _peak_rss_mib(resource.RUSAGE_SELF)

    def close(self):
        pass


class LensSweep(InProcess):
    """Every L(p, q) with 2 <= p <= 50, q a unit, −p < q < p; levels 1..5."""

    tail_pct = 99.0

    def __init__(self, seed, root, traced):
        self.jobs = list(LENS_SWEEP)
        random.Random(f"lens-sweep:{seed}").shuffle(self.jobs)
        self.descriptors = dict(
            _descriptors(self.jobs, [(p,) for p, _ in self.jobs]),
            input_digest=digest(sorted(self.jobs)),
        )

    @staticmethod
    def run(job, call):
        p, q = job
        G = call("splitting.lens", lens, p, q)
        prof = call("homology.homology_profile", homology_profile, G)
        lm = call("linking.linking_matrix", linking_matrix, G)
        levels = []
        for k in LENS_LEVELS:
            S = call("partition.z_cs", z_cs, G, k)
            levels.append((k, S, call("partition.eval_numeric", eval_numeric, S)))
        return prof, lm, levels

    @staticmethod
    def check(job, out, corrupt) -> list:
        p, q = job
        prof, lm, levels = out
        bad = _same("invariant factors", (prof.b1, prof.invariant_factors), (0, (p,)))
        bad += _same("gram denominator", lm.gram[0][0].denominator, p)
        for k, S, z in levels:
            want = oracles.lens_cs_histogram(p, q, k)
            if corrupt:
                want[(0, 1)] += 1
            bad += _same(f"z_cs k={k}", _phase_counter(S), want)
            dev = abs(z - gauss_sum_oracle(p, q, k))
            if not dev <= 1e-9:
                bad.append(f"k={k}: |eval_numeric - gauss_sum_oracle| = {dev:.3e}")
        return bad

    @staticmethod
    def record(job, out) -> dict:
        prof, lm, levels = out
        return {
            "input": list(job),
            "factors": list(prof.invariant_factors),
            "gram": [[str(x) for x in row] for row in lm.gram],
            "levels": [[k, S.to_mapping(), [z.real, z.imag]] for k, S, z in levels],
        }

    @staticmethod
    def counts(outputs) -> dict:
        sums = [S for out in outputs if out for _, S, _ in out[2]]
        return {
            "splitting.construct.calls": sum(1 for out in outputs if out),
            "homology.torsion_order.sum": sum(out[0].torsion_order for out in outputs if out),
            "partition.z_cs.terms": sum(S.total_terms for S in sums),
            "partition.z_cs.bins": sum(len(S) for S in sums),
            "partition.eval_numeric.bins": sum(len(S) for S in sums),
        }



class TorsionCorpus(InProcess):
    """The 50-splitting corpus plus (Z/n)^3 groups; CS and BF at k = 1, 2, 3, 6.

    The jobs run in corpus order, whatever the seed: the package keeps
    every result in its caches, so the peak RSS depends on how late the
    largest BF sum comes.
    """

    tail_pct = 90.0

    def __init__(self, seed, root, traced):
        blocks = seeded_corpus(seed) + cube_groups(seed)
        self.jobs = [(b, oracles.homology_of(b[1])) for b in blocks]
        self.descriptors = dict(
            _descriptors(self.jobs, [h[1] for _, h in self.jobs]),
            input_digest=digest(sorted(json.dumps(b) for b, _ in self.jobs)),
        )

    @staticmethod
    def run(job, call):
        R, P, S, Q = job[0]
        G = call("splitting.validate", validate, R, P, S, Q)
        prof = call("homology.homology_profile", homology_profile, G)
        T = call("homology.torsion_elements", torsion_elements, G)
        lm = call("linking.linking_matrix", linking_matrix, G)
        nondegenerate = call("linking.is_nondegenerate", is_nondegenerate, G)
        levels = []
        for k in CORPUS_LEVELS:
            cs = call("partition.z_cs", z_cs, G, k)
            bf = call("partition.z_bf", z_bf, G, k)
            cs_num = call("partition.eval_numeric", eval_numeric, cs)
            bf_num = call("partition.eval_numeric", eval_numeric, bf)
            levels.append((k, cs, bf, cs_num, bf_num))
        return G, prof, T, lm, nondegenerate, levels

    @staticmethod
    def check(job, out, corrupt) -> list:
        b1, factors = job[1]
        G, prof, T, lm, nondegenerate, levels = out
        order = prod(factors)
        bad = _same("homology", (prof.b1, prof.invariant_factors), (b1, factors))
        bad += _same("|T|", len(T), order)
        bad += _same("nondegenerate", nondegenerate, True)
        dens = [x.denominator for row in lm.gram for x in row]
        bad += _same("gram common denominator", lcm(*dens) if dens else 1, max(factors, default=1))
        brute, problems = _brute_cs(job[0], T, factors, CORPUS_LEVELS)
        bad += problems
        for k, cs, bf, cs_num, bf_num in levels:
            want = brute[k]
            if corrupt:
                want[(0, 1)] += 1
            bad += _same(f"z_cs k={k}", _phase_counter(cs), want)
            if not abs(cs_num - _numeric_of(want)) <= 1e-6 * max(1, order):
                bad.append(f"k={k}: eval_numeric(z_cs) = {cs_num} off the brute-force sum")
            bad += _same(f"z_bf total_terms k={k}", bf.total_terms, order * order)
            closed = oracles.bf_closed_form(factors, k)
            if not abs(bf_num - closed) <= 1e-6 * max(1, closed):
                bad.append(f"k={k}: eval_numeric(z_bf) = {bf_num}, closed form {closed}")
        return bad

    @staticmethod
    def record(job, out) -> dict:
        G, prof, T, lm, nondegenerate, levels = out
        return {
            "input": job[0],
            "b1": prof.b1,
            "factors": list(prof.invariant_factors),
            "gram": [[str(x) for x in row] for row in lm.gram],
            "nondegenerate": nondegenerate,
            "levels": [
                [k, cs.to_mapping(), bf.to_mapping(), [c.real, c.imag], [b.real, b.imag]]
                for k, cs, bf, c, b in levels
            ],
        }

    @staticmethod
    def counts(outputs) -> dict:
        done = [out for out in outputs if out]
        cs = [lv[1] for out in done for lv in out[5]]
        bf = [lv[2] for out in done for lv in out[5]]
        return {
            "splitting.construct.calls": len(done),
            "homology.torsion_order.sum": sum(out[1].torsion_order for out in done),
            "partition.z_cs.terms": sum(S.total_terms for S in cs),
            "partition.z_cs.bins": sum(len(S) for S in cs),
            "partition.z_bf.pairs": sum(S.total_terms for S in bf),
            "partition.z_bf.bins": sum(len(S) for S in bf),
            "partition.eval_numeric.bins": sum(len(S) for S in cs + bf),
        }



class CliPartition:
    """`python -m heegaard partition` calls, one manifold per process.

    Each pass makes the same 20 calls: 8 on lens spaces (4 CS, 4 BF),
    10 on the small end of the corpus (|T| <= 500; CS and BF alternating
    over 10 members spread evenly by torsion order) and 2 on invalid files
    that must exit 2 and name the relations they break.  The composition
    is fixed so that the cost of a pass does not depend on the seed.
    """

    tail_pct = 80.0
    LENS_CALLS = 8
    CORPUS_CALLS = 10
    INVALID_CALLS = 2

    def __init__(self, seed, root, traced):
        rng = random.Random(f"cli-partition:{seed}")
        self.root = root
        self.workdir = os.path.join(root, "bench", "out", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
            ),
        )
        self.timing = ["--timing"] if traced else []
        manifolds = []
        for i in range(self.LENS_CALLS):
            p = rng.randint(2, 50)
            q = rng.choice([q for q in range(-p + 1, p) if gcd(p, q) == 1])
            manifolds.append(("cs" if i % 2 == 0 else "bf", {"lens": [p, q]}, _blocks(lens(p, q))))
        small = sorted(
            (prod(oracles.homology_of(b[1])[1]), i, b)
            for i, b in enumerate(seeded_corpus(seed))
            if oracles.torsion_order(b[1]) <= CLI_SMALL_TORSION
        )
        step = (len(small) - 1) / (self.CORPUS_CALLS - 1)
        for i in range(self.CORPUS_CALLS):
            _, index, b = small[round(i * step)]
            manifolds.append(("cs" if i % 2 == 0 else "bf", {"corpus": index}, b))
        jobs = [
            {"theory": th, "level": rng.randint(1, 6), "source": src, "blocks": b, "expect_exit": 0}
            for th, src, b in manifolds
        ]
        for _ in range(self.INVALID_CALLS):
            base = rng.choice(jobs)
            broken, names = self._break(base["blocks"], rng)
            jobs.append(dict(base, blocks=broken, expect_exit=2, violations=names))
        rng.shuffle(jobs)
        for i, job in enumerate(jobs):
            R, P, S, Q = job["blocks"]
            job["path"] = os.path.join(self.workdir, f"{i:02d}.json")
            with open(job["path"], "w", encoding="utf-8") as fh:
                json.dump({"genus": len(R), "R": R, "P": P, "S": S, "Q": Q}, fh)
        self.jobs = jobs
        valid = [j for j in jobs if j["expect_exit"] == 0]
        self.descriptors = dict(
            _descriptors(valid, [oracles.homology_of(j["blocks"][1])[1] for j in valid]),
            jobs=len(jobs),
            input_digest=digest(
                [[j["theory"], j["level"], j["blocks"], j["expect_exit"]] for j in jobs]
            ),
        )

    @staticmethod
    def _break(blocks, rng) -> tuple:
        """Change one entry by ±1 until at least one relation fails."""
        while True:
            broken = json.loads(json.dumps(blocks))
            m = rng.choice(broken)
            row = rng.choice(m)
            row[rng.randrange(len(row))] += rng.choice((1, -1))
            names = oracles.violated_relations(*broken)
            if names:
                return broken, names

    def run(self, job, call):
        cmd = [sys.executable, "-m", "heegaard", "partition", job["path"], "--theory",
               job["theory"], "--level", str(job["level"]), "--numeric"] + self.timing
        proc = subprocess.run(
            cmd, capture_output=True, cwd=self.root, env=self.env, timeout=CLI_TIMEOUT_S
        )
        return proc.returncode, proc.stdout

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    @staticmethod
    def _report(out) -> dict:
        return json.loads(out[1].decode("utf-8"))

    def check(self, job, out, corrupt) -> list:
        code = out[0]
        if code != job["expect_exit"]:
            return [f"exit code {code}, expected {job['expect_exit']}"]
        report = self._report(out)
        if code == 2:
            lines = report["validation"]["violations"]
            named = [n for n in oracles.RELATIONS if any(x.startswith(n + " = ") for x in lines)]
            bad = _same("valid", report["validation"]["valid"], False)
            return bad + _same("violations", (named, len(lines)), (job["violations"], len(job["violations"])))
        res = report["results"]
        k = job["level"]
        factors = oracles.homology_of(job["blocks"][1])[1]
        order = prod(factors)
        got = Counter({tuple(map(int, key.split("/"))): m for key, m in res["phase_sum"].items()})
        z = complex(*res["numeric"])
        bad = _same("theory/level", (res["theory"], res["level"]), (job["theory"], k))
        if job["theory"] == "bf":
            bad += _same("term_count", (res["term_count"], sum(got.values())), (order * order,) * 2)
            closed = oracles.bf_closed_form(factors, k)
            if corrupt:
                closed += 1
            if not abs(z - closed) <= 1e-6 * max(1, closed):
                bad.append(f"numeric {z}, closed form {closed}")
            return bad
        if "lens" in job["source"]:
            p, q = job["source"]["lens"]
            want = oracles.lens_cs_histogram(p, q, k)
            ref, tol = gauss_sum_oracle(p, q, k), 1e-9
        else:
            brute, problems = _brute_cs(job["blocks"], torsion_elements(validate(*job["blocks"])), factors, (k,))
            want = brute[k]
            bad += problems
            ref, tol = _numeric_of(want), 1e-6 * max(1, order)
        if corrupt:
            want[(0, 1)] += 1
        bad += _same("phase_sum", got, want)
        if not abs(z - ref) <= tol:
            bad.append(f"numeric {z}, reference {ref}")
        return bad

    def record(self, job, out) -> dict:
        report = self._report(out) if out[1] else {}
        report.pop("timing", None)
        report.pop("command", None)
        report.pop("input_digest", None)
        return {"exit": out[0], "report": report}

    def counts(self, outputs) -> dict:
        return {}

    def command_seconds(self, outputs) -> list:
        """The `--timing` seconds of each call's report; None where it has none."""
        return [
            self._report(o).get("timing", {}).get("seconds") if o and o[0] == 0 else None
            for o in outputs
        ]

    @staticmethod
    def peak_rss_mib() -> float:
        return _peak_rss_mib(resource.RUSAGE_CHILDREN)


WORKLOADS = {"lens-sweep": LensSweep, "torsion-corpus": TorsionCorpus, "cli-partition": CliPartition}
