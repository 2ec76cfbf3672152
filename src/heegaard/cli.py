"""Command-line interface: manifold files in, deterministic JSON reports out.

Exit codes: 0 success, 2 validation failure, 1 computation error (with a
structured JSON error on stderr), 64 usage error.  Reports are meant to be
byte-identical across runs for identical input and flags: keys are sorted,
floats are fixed at 12 significant digits, and timing is only attached
under an explicit --timing flag (it is the one deliberately
non-deterministic field).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from math import gcd

from .exact import IntMatrix, determinant, vec_dot
from .homology import (
    curvature_lattice_basis,
    free_flat_basis,
    homology_profile,
    torsion_elements,
)
from .linking import linking_matrix
from .partition import (
    eval_numeric,
    free_mode_grid_oracle,
    gauss_sum_oracle,
    z_bf,
    z_bf_closed_form,
    z_cs,
)
from .splitting import (
    GluingData,
    ValidationError,
    connected_sum,
    lens,
    random_splitting,
    stabilize,
)

_GRID_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class _UsageError(Exception):
    pass


class _Abort(Exception):
    """Stop the command with a code and optional report/error payloads."""

    def __init__(self, code: int, stdout_obj=None, stderr_obj=None):
        super().__init__(f"exit {code}")
        self.code = code
        self.stdout_obj = stdout_obj
        self.stderr_obj = stderr_obj


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sig12(x: float) -> float:
    """Round to 12 significant digits; fixes the report byte format."""
    return float(f"{x:.12g}")


def _complex_pair(z: complex) -> list:
    return [_sig12(z.real), _sig12(z.imag)]


def _rat(x: Fraction) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(obj):
    sys.stdout.write(_dump(obj))


class ManifoldFile:
    """Parsed manifold file: genus, the four blocks, an optional name."""

    __slots__ = ("genus", "R", "P", "S", "Q", "name")

    def __init__(self, genus, R, P, S, Q, name=None):
        if type(genus) is not int or genus < 1:
            raise ValidationError(["genus must be a positive integer"])
        for label, block in (("R", R), ("P", P), ("S", S), ("Q", Q)):
            if (
                not isinstance(block, list)
                or len(block) != genus
                or any(
                    not isinstance(row, list)
                    or len(row) != genus
                    or any(type(e) is not int for e in row)
                    for row in block
                )
            ):
                raise ValidationError(
                    [f"dimension mismatch: block {label} must be a {genus}x{genus} integer array"]
                )
        if name is not None and not isinstance(name, str):
            raise ValidationError(["name must be a string"])
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "R", [list(r) for r in R])
        object.__setattr__(self, "P", [list(r) for r in P])
        object.__setattr__(self, "S", [list(r) for r in S])
        object.__setattr__(self, "Q", [list(r) for r in Q])
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("ManifoldFile is immutable")

    def gluing(self) -> GluingData:
        return GluingData(self.R, self.P, self.S, self.Q)

    def to_obj(self) -> dict:
        obj = {"genus": self.genus, "R": self.R, "P": self.P, "S": self.S, "Q": self.Q}
        if self.name is not None:
            obj["name"] = self.name
        return obj

    @classmethod
    def from_gluing(cls, G: GluingData, name=None) -> "ManifoldFile":
        rows = lambda m: [list(r) for r in m.to_rows()]
        return cls(G.genus, rows(G.R), rows(G.P), rows(G.S), rows(G.Q), name)


def parse_manifold(data: bytes) -> ManifoldFile:
    """Parse and fully validate manifold bytes.

    Raises ValidationError for malformed JSON, wrong structure, dimension
    mismatch, or violated block relations; the violation list is suitable
    for a report.
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # decode errors, int-string limit, depth
        raise ValidationError([f"malformed JSON: {exc}"]) from exc
    if not isinstance(obj, dict):
        raise ValidationError(["top level must be a JSON object"])
    allowed = {"genus", "R", "P", "S", "Q", "name"}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValidationError([f"unknown keys: {', '.join(unknown)}"])
    missing = sorted({"genus", "R", "P", "S", "Q"} - set(obj))
    if missing:
        raise ValidationError([f"missing keys: {', '.join(missing)}"])
    mf = ManifoldFile(obj["genus"], obj["R"], obj["P"], obj["S"], obj["Q"], obj.get("name"))
    mf.gluing()  # relation check; raises ValidationError with named violations
    return mf


def serialize_manifold(mf: ManifoldFile) -> str:
    return _dump(mf.to_obj())


# --------------------------------------------------------------------------
# command plumbing


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _Abort(
            1, stderr_obj={"error": {"type": "io", "message": f"cannot read {path}: {exc}"}}
        ) from exc


def _digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _load_manifold(path: str, base: dict):
    """Read + parse + validate; abort with a violation report on failure."""
    raw = _read_bytes(path)
    base["input_digest"] = _digest(raw)
    try:
        mf = parse_manifold(raw)
    except ValidationError as exc:
        report = dict(base)
        report["validation"] = {"valid": False, "violations": list(exc.violations)}
        report["results"] = {}
        raise _Abort(2, stdout_obj=report) from exc
    base["validation"] = {"valid": True, "violations": []}
    return mf, mf.gluing()


def _finish(report: dict, ns, t0: float) -> None:
    if getattr(ns, "timing", False):
        report["timing"] = {"seconds": _sig12(time.perf_counter() - t0)}


def _write_or_print(ns, text: str, report_extra: dict, argv) -> int:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"command": argv, "results": dict(report_extra, written=ns.out)})
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------------
# subcommands


def _cmd_validate(ns, argv) -> int:
    t0 = time.perf_counter()
    base = {"command": argv}
    try:
        mf, G = _load_manifold(ns.file, base)
    except _Abort as abort:
        if abort.stdout_obj is not None and getattr(ns, "timing", False):
            abort.stdout_obj["timing"] = {"seconds": _sig12(time.perf_counter() - t0)}
        raise
    results = {"genus": G.genus, "determinant": determinant(G.matrix)}
    if mf.name is not None:
        results["name"] = mf.name
    report = dict(base, results=results)
    _finish(report, ns, t0)
    _emit(report)
    return 0


def _cmd_homology(ns, argv) -> int:
    t0 = time.perf_counter()
    base = {"command": argv}
    mf, G = _load_manifold(ns.file, base)
    prof = homology_profile(G)
    results = {
        "b1": prof.b1,
        "invariant_factors": list(prof.invariant_factors),
        "torsion_order": prof.torsion_order,
    }
    if mf.name is not None:
        results["name"] = mf.name
    report = dict(base, results=results)
    _finish(report, ns, t0)
    _emit(report)
    return 0


def _cmd_linking(ns, argv) -> int:
    t0 = time.perf_counter()
    base = {"command": argv}
    mf, G = _load_manifold(ns.file, base)
    lm = linking_matrix(G)
    results = {
        "generator_orders": list(torsion_elements(G).dims),
        "generators": [[_rat(x) for x in gen] for gen in lm.generators],
        "gram": [[str(ph) for ph in row] for row in lm.gram],
    }
    if mf.name is not None:
        results["name"] = mf.name
    report = dict(base, results=results)
    _finish(report, ns, t0)
    _emit(report)
    return 0


def _cmd_partition(ns, argv) -> int:
    t0 = time.perf_counter()
    base = {"command": argv}
    mf, G = _load_manifold(ns.file, base)
    fn = z_cs if ns.theory == "cs" else z_bf
    S = fn(G, ns.level)
    results = {
        "theory": ns.theory,
        "level": ns.level,
        "phase_sum": S.to_mapping(),
        "term_count": S.total_terms,
    }
    if ns.numeric:
        results["numeric"] = _complex_pair(eval_numeric(S))
    if mf.name is not None:
        results["name"] = mf.name
    report = dict(base, results=results)
    _finish(report, ns, t0)
    _emit(report)
    return 0


def _cmd_catalog(ns, argv) -> int:
    kind = ns.kind
    if kind == "lens":
        if len(ns.args) != 2:
            raise _UsageError("catalog lens requires exactly two integers P and Q")
        p, q = ns.args
        G = lens(p, q)
        name = f"lens({p},{q})"
    elif kind == "s3":
        if ns.args:
            raise _UsageError("catalog s3 takes no arguments")
        G = lens(1, 0)
        name = "s3"
    elif kind == "s1xs2":
        if ns.args:
            raise _UsageError("catalog s1xs2 takes no arguments")
        G = lens(0, 1)
        name = "s1xs2"
    else:
        raise _UsageError(f"unknown catalog entry {kind!r} (choose lens, s3, s1xs2)")
    mf = ManifoldFile.from_gluing(G, name)
    return _write_or_print(ns, serialize_manifold(mf), {"manifold": mf.to_obj()}, argv)


def _cmd_sum(ns, argv) -> int:
    base = {"command": argv}
    mf1, G1 = _load_manifold(ns.file1, base)
    digest1 = base["input_digest"]
    mf2, G2 = _load_manifold(ns.file2, base)
    base["input_digest"] = [digest1, base["input_digest"]]
    G = connected_sum(G1, G2)
    name = None
    if mf1.name is not None and mf2.name is not None:
        name = f"{mf1.name}#{mf2.name}"
    mf = ManifoldFile.from_gluing(G, name)
    return _write_or_print(ns, serialize_manifold(mf), {"manifold": mf.to_obj()}, argv)


def _cmd_stabilize(ns, argv) -> int:
    base = {"command": argv}
    mf0, G0 = _load_manifold(ns.file, base)
    mf = ManifoldFile.from_gluing(stabilize(G0), mf0.name)
    return _write_or_print(ns, serialize_manifold(mf), {"manifold": mf.to_obj()}, argv)


def _cmd_random(ns, argv) -> int:
    if ns.length < 0:
        raise _UsageError("--length must be nonnegative")
    if ns.genus < 1:
        raise _UsageError("--genus must be at least 1")
    G = random_splitting(ns.genus, ns.seed, ns.length)
    name = f"random-g{ns.genus}-s{ns.seed}-l{ns.length}"
    mf = ManifoldFile.from_gluing(G, name)
    return _write_or_print(ns, serialize_manifold(mf), {"manifold": mf.to_obj()}, argv)


def _free_pairing_degenerate(G) -> bool:
    """True when some nonzero curvature label pairs to zero with every free mode.

    On such a gluing no grid size can separate that label from zero, so the
    grid oracle's delta reduction is unavailable (its aliasing guard would
    reject every grid).  Both kernels have dimension b1, so the pairing
    matrix is square and degeneracy is just det = 0.
    """
    free = free_flat_basis(G)
    curv = curvature_lattice_basis(G)
    if not free:
        return False
    pairing = IntMatrix.from_rows(
        [[int(vec_dot(f, m)) for m in curv] for f in free]
    )
    return determinant(pairing) == 0


def _grid_oracle_with_retries(G, k):
    """Deterministic parameter ladder for the grid oracle."""
    m_window = 2
    last_exc = None
    for grid_n in _GRID_PRIMES:
        if gcd(grid_n, 2 * k * m_window) != 1:
            continue
        try:
            return grid_n, m_window, free_mode_grid_oracle(G, k, grid_n, m_window)
        except ValueError as exc:
            if "aliasing" in str(exc):
                last_exc = exc
                continue
            raise
    raise ValueError(f"no alias-free grid size found up to {_GRID_PRIMES[-1]}: {last_exc}")


def _cmd_oracle(ns, argv) -> int:
    t0 = time.perf_counter()
    base = {"command": argv}
    mf, G = _load_manifold(ns.file, base)
    k = ns.level
    prof = homology_profile(G)
    checks = []

    cs_num = eval_numeric(z_cs(G, k))

    closed = z_bf_closed_form(G, k)
    bf_num = eval_numeric(z_bf(G, k))
    dev = abs(bf_num - closed)
    tol = 1e-6 * max(1.0, float(closed))
    checks.append(
        {
            "name": "bf_closed_form",
            "reference": _complex_pair(complex(closed)),
            "value": _complex_pair(bf_num),
            "deviation": _sig12(dev),
            "tolerance": _sig12(tol),
            "agrees": dev <= tol,
        }
    )

    if G.genus == 1 and G.P[0, 0] != 0:
        p = abs(G.P[0, 0])
        q = G.Q[0, 0] * (1 if G.P[0, 0] > 0 else -1)
        ref = gauss_sum_oracle(p, q, k)
        dev = abs(cs_num - ref)
        checks.append(
            {
                "name": "gauss_sum",
                "reference": _complex_pair(ref),
                "value": _complex_pair(cs_num),
                "deviation": _sig12(dev),
                "tolerance": 1e-9,
                "agrees": dev <= 1e-9,
            }
        )

    if prof.b1 > 3:
        checks.append({"name": "free_mode_grid", "skipped": f"b1 = {prof.b1} exceeds 3"})
    elif prof.b1 >= 1 and _free_pairing_degenerate(G):
        checks.append(
            {
                "name": "free_mode_grid",
                "skipped": "free-mode/curvature pairing is degenerate; no grid separates the window",
            }
        )
    else:
        grid_n, m_window, grid_val = _grid_oracle_with_retries(G, k)
        dev = abs(grid_val - cs_num)
        checks.append(
            {
                "name": "free_mode_grid",
                "grid_n": grid_n,
                "m_window": m_window,
                "reference": _complex_pair(cs_num),
                "value": _complex_pair(grid_val),
                "deviation": _sig12(dev),
                "tolerance": 1e-6,
                "agrees": dev <= 1e-6,
            }
        )

    agreed = all(c.get("agrees", True) for c in checks)
    results = {
        "level": k,
        "checks": checks,
        "max_abs_deviation": _sig12(max((c.get("deviation", 0.0) for c in checks), default=0.0)),
        "all_agree": agreed,
    }
    if mf.name is not None:
        results["name"] = mf.name
    report = dict(base, results=results)
    _finish(report, ns, t0)
    _emit(report)
    if not agreed:
        sys.stderr.write(
            _dump({"error": {"type": "oracle", "message": "oracle disagreement; see report"}})
        )
        return 1
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="heegaard", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def with_timing(p):
        p.add_argument("--timing", action="store_true", help="attach wall-clock timing (non-deterministic field)")

    p = sub.add_parser("validate", help="check the six block relations of a manifold file")
    p.add_argument("file")
    with_timing(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("homology", help="b1, invariant factors, torsion order")
    p.add_argument("file")
    with_timing(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("linking", help="linking-form gram matrix over the torsion generators")
    p.add_argument("file")
    with_timing(p)
    p.set_defaults(func=_cmd_linking)

    p = sub.add_parser("partition", help="exact CS or BF partition sum")
    p.add_argument("file")
    p.add_argument("--theory", choices=("cs", "bf"), required=True)
    p.add_argument("--level", type=int, required=True, metavar="K")
    p.add_argument("--numeric", action="store_true", help="also evaluate to a complex number")
    with_timing(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("catalog", help="write a canonical manifold file (lens P Q | s3 | s1xs2)")
    p.add_argument("kind")
    p.add_argument("args", nargs="*", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("sum", help="connected sum of two manifold files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("stabilize", help="stabilize a splitting (connected sum with genus-1 S3)")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("random", help="seeded random valid splitting")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--length", type=int, required=True, metavar="L")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("oracle", help="run the brute-force oracles and report deviations")
    p.add_argument("file")
    p.add_argument("--level", type=int, required=True, metavar="K")
    with_timing(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def run(argv) -> int:
    """Dispatch one CLI invocation; returns the exit code."""
    argv = list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 64
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        if getattr(ns, "level", None) is not None and ns.level < 1:
            raise _UsageError("--level must be a positive integer")
        return ns.func(ns, argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 64
    except _Abort as abort:
        if abort.stdout_obj is not None:
            _emit(abort.stdout_obj)
        if abort.stderr_obj is not None:
            sys.stderr.write(_dump(abort.stderr_obj))
        return abort.code
    except ValidationError as exc:
        sys.stderr.write(
            _dump({"error": {"type": "validation", "message": str(exc), "violations": list(exc.violations)}})
        )
        return 2
    except Exception as exc:  # computation error
        sys.stderr.write(_dump({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
