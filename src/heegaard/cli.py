"""Command-line interface: manifold files in, deterministic JSON reports out.

Exit codes: 0 success, 2 validation failure, 1 computation error (with a
structured JSON error on stderr), 64 usage error.  Reports are meant to be
byte-identical across runs for identical input and flags: keys are sorted,
floats are fixed at 12 significant digits, and timing is only attached
under an explicit --timing flag (it is the one deliberately
non-deterministic field).

Two runners carry every subcommand.  A report command reads one file,
validates it once and emits {command, input_digest, validation, results},
plus timing under --timing, on a validation failure too; it is a function
(G, ns) -> results.  A writer builds a manifold, a function
(ns, report) -> (G, name), and prints its file, or writes it to --out and
reports {command, results: {manifold, written}}.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from math import gcd

try:  # CPython's own SHA-256: hashlib would load OpenSSL for one digest
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .exact import _smith_eliminate, vec_dot
from .homology import curvature_lattice_basis, homology_profile
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
    _ENUMERATION_LIMIT,
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


def parse_manifold(data: bytes) -> tuple:
    """Parse and fully validate manifold bytes into (GluingData, name).

    Raises ValidationError for malformed JSON, wrong structure, a genus
    whose (2g)² block entries pass _ENUMERATION_LIMIT (the cap `random`
    applies, checked before any block is read), dimension mismatch, or
    violated block relations; the violation list is suitable for a report.
    name is None when the file has none.
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
    genus, name = obj["genus"], obj.get("name")
    if type(genus) is not int or genus < 1:
        raise ValidationError(["genus must be a positive integer"])
    if (2 * genus) ** 2 > _ENUMERATION_LIMIT:
        raise ValidationError(
            [f"(2g)² at genus {genus} = {(2 * genus) ** 2} exceeds the enumeration limit {_ENUMERATION_LIMIT}"]
        )
    for label in "RPSQ":
        block = obj[label]
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
    # relation check; raises ValidationError with named violations
    return GluingData(obj["R"], obj["P"], obj["S"], obj["Q"]), name


def _manifold_obj(G: GluingData, name=None) -> dict:
    obj = {"genus": G.genus, "R": G.R, "P": G.P, "S": G.S, "Q": G.Q}
    if name is not None:
        obj["name"] = name
    return obj


def serialize_manifold(G: GluingData, name=None) -> str:
    """The manifold file of G, read back by parse_manifold as (G, name)."""
    return _dump(_manifold_obj(G, name))


# --------------------------------------------------------------------------
# runners


def _load_manifold(path: str, report: dict):
    """Read, digest, parse and validate one file into (G, name).

    Records input_digest and validation on report; on a validation failure
    fills report with empty results and aborts with exit 2 to print it.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _Abort(
            1, stderr_obj={"error": {"type": "io", "message": f"cannot read {path}: {exc}"}}
        ) from exc
    report["input_digest"] = "sha256:" + sha256(raw).hexdigest()
    try:
        G, name = parse_manifold(raw)
    except ValidationError as exc:
        report["validation"] = {"valid": False, "violations": list(exc.violations)}
        report["results"] = {}
        raise _Abort(2, stdout_obj=report) from exc
    report["validation"] = {"valid": True, "violations": []}
    return G, name


def _reporter(compute):
    """Report command: compute(G, ns) -> results for the file ns.file."""

    def command(ns, argv) -> int:
        t0 = time.perf_counter()
        report = {"command": argv}
        try:
            G, name = _load_manifold(ns.file, report)
            report["results"] = compute(G, ns)
            if name is not None:
                report["results"]["name"] = name
        finally:  # a validation failure's report is printed by run()
            if ns.timing:
                report["timing"] = {"seconds": _sig12(time.perf_counter() - t0)}
        _emit(report)
        if report["results"].get("all_agree") is False:
            sys.stderr.write(
                _dump({"error": {"type": "oracle", "message": "oracle disagreement; see report"}})
            )
            return 1
        return 0

    return command


def _writer(make):
    """Writer command: make(ns, report) -> (G, name); print its file or write --out."""

    def command(ns, argv) -> int:
        G, name = make(ns, {"command": argv})
        text = serialize_manifold(G, name)
        if not ns.out:
            sys.stdout.write(text)
            return 0
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"command": argv, "results": {"manifold": _manifold_obj(G, name), "written": ns.out}})
        return 0

    return command


# --------------------------------------------------------------------------
# reports


def _validate(G, ns) -> dict:
    # M = M0 (M0^-1 M) with M0 = [[0, I], [I, 0]] and M0^-1 M symplectic
    # (det 1), so every valid splitting has det M = det M0 = (-1)^g
    return {"genus": G.genus, "determinant": (-1) ** G.genus}


def _homology(G, ns) -> dict:
    prof = homology_profile(G)
    return {
        "b1": prof.b1,
        "invariant_factors": list(prof.invariant_factors),
        "torsion_order": prof.torsion_order,
    }


def _linking(G, ns) -> dict:
    lm = linking_matrix(G)
    return {
        "generator_orders": list(lm.dims),
        "generators": [[_rat(x) for x in gen] for gen in lm.generators],
        "gram": [[str(ph) for ph in row] for row in lm.gram],
    }


def _partition(G, ns) -> dict:
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
    return results


def _free_pairing_degenerate(G) -> bool:
    """True when some nonzero curvature label pairs to zero with every free mode.

    On such a gluing no grid size can separate that label from zero, so the
    grid oracle's delta reduction is unavailable (its aliasing guard would
    reject every grid).  Both kernels have dimension b1, so the pairing
    matrix is square, and it is degenerate just when its Smith form has
    a zero on the diagonal.
    """
    free = homology_profile(G).kernel_columns
    if not free:
        return False
    curv = curvature_lattice_basis(G)
    D, _ = _smith_eliminate([[vec_dot(f, m) for m in curv] for f in free])
    return not all(D[t][t] for t in range(len(D)))


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


def _check(name: str, reference, value: complex, tolerance: float, **extra) -> dict:
    """One oracle check: value against reference, within tolerance."""
    dev = abs(value - reference)
    return dict(
        extra,
        name=name,
        reference=_complex_pair(complex(reference)),
        value=_complex_pair(value),
        deviation=_sig12(dev),
        tolerance=_sig12(tolerance),
        agrees=dev <= tolerance,
    )


def _unless_refused(name: str, check) -> dict:
    """check(), or the check name marked skipped if it refused past the enumeration limit."""
    try:
        return check()
    except ValueError as exc:
        if "enumeration limit" not in str(exc):
            raise
        return {"name": name, "skipped": str(exc)}


def _oracle(G, ns) -> dict:
    k = ns.level
    prof = homology_profile(G)
    cs_num = eval_numeric(z_cs(G, k))
    closed = z_bf_closed_form(G, k)
    checks = [_unless_refused("bf_closed_form", lambda: _check(
        "bf_closed_form", closed, eval_numeric(z_bf(G, k)), 1e-6 * max(1.0, float(closed))
    ))]

    if G.genus == 1 and G.P[0][0] != 0:
        p = abs(G.P[0][0])
        q = G.Q[0][0] * (1 if G.P[0][0] > 0 else -1)
        checks.append(_unless_refused(
            "gauss_sum", lambda: _check("gauss_sum", gauss_sum_oracle(p, q, k), cs_num, 1e-9)
        ))

    skip = None
    if prof.b1 > 3:
        skip = f"b1 = {prof.b1} exceeds 3"
    elif prof.b1 >= 1 and _free_pairing_degenerate(G):
        skip = "free-mode/curvature pairing is degenerate; no grid separates the window"
    elif prof.torsion_order > _ENUMERATION_LIMIT:  # the grid oracle loops over T
        skip = f"|T| = {prof.torsion_order} exceeds the enumeration limit {_ENUMERATION_LIMIT}"
    if skip:
        checks.append({"name": "free_mode_grid", "skipped": skip})
    else:
        def grid_check():
            grid_n, m_window, grid_val = _grid_oracle_with_retries(G, k)
            return _check("free_mode_grid", cs_num, grid_val, 1e-6, grid_n=grid_n, m_window=m_window)

        checks.append(_unless_refused("free_mode_grid", grid_check))

    return {
        "level": k,
        "checks": checks,
        "max_abs_deviation": _sig12(max((c.get("deviation", 0.0) for c in checks), default=0.0)),
        "all_agree": all(c.get("agrees", True) for c in checks),
    }


# --------------------------------------------------------------------------
# writers


def _catalog(ns, report):
    kind = ns.kind
    if kind == "lens":
        if len(ns.args) != 2:
            raise _UsageError("catalog lens requires exactly two integers P and Q")
        p, q = ns.args
        return lens(p, q), f"lens({p},{q})"
    if kind in ("s3", "s1xs2"):
        if ns.args:
            raise _UsageError(f"catalog {kind} takes no arguments")
        return (lens(1, 0) if kind == "s3" else lens(0, 1)), kind
    raise _UsageError(f"unknown catalog entry {kind!r} (choose lens, s3, s1xs2)")


def _sum(ns, report):
    G1, name1 = _load_manifold(ns.file1, report)
    G2, name2 = _load_manifold(ns.file2, report)
    name = f"{name1}#{name2}" if name1 is not None and name2 is not None else None
    return connected_sum(G1, G2), name


def _stabilize(ns, report):
    G, name = _load_manifold(ns.file, report)
    return stabilize(G), name


def _random(ns, report):
    if ns.length < 0:
        raise _UsageError("--length must be nonnegative")
    if ns.genus < 1:
        raise _UsageError("--genus must be at least 1")
    G = random_splitting(ns.genus, ns.seed, ns.length)
    return G, f"random-g{ns.genus}-s{ns.seed}-l{ns.length}"


# --------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    # --help shows the docstring up to the notes on the runners
    parser = _Parser(prog="heegaard", description=__doc__ and __doc__.split("\n\nTwo runners")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def arg(*flags, **kw):
        return flags, kw

    def add(name, help, func, *args):
        p = sub.add_parser(name, help=help)
        for flags, kw in args:
            p.add_argument(*flags, **kw)
        p.set_defaults(func=func)

    def report(name, compute, help, *args):
        timing = arg("--timing", action="store_true", help="attach wall-clock timing (non-deterministic field)")
        add(name, help, _reporter(compute), arg("file"), *args, timing)

    def writer(name, make, help, *args):
        add(name, help, _writer(make), *args, arg("--out", default=None))

    report("validate", _validate, "check the six block relations of a manifold file")
    report("homology", _homology, "b1, invariant factors, torsion order")
    report("linking", _linking, "linking-form gram matrix over the torsion generators")
    report(
        "partition", _partition, "exact CS or BF partition sum",
        arg("--theory", choices=("cs", "bf"), required=True),
        arg("--level", type=int, required=True, metavar="K"),
        arg("--numeric", action="store_true", help="also evaluate to a complex number"),
    )
    writer(
        "catalog", _catalog, "write a canonical manifold file (lens P Q | s3 | s1xs2)",
        arg("kind"), arg("args", nargs="*", type=int),
    )
    writer("sum", _sum, "connected sum of two manifold files", arg("file1"), arg("file2"))
    writer("stabilize", _stabilize, "stabilize a splitting (connected sum with genus-1 S3)", arg("file"))
    writer(
        "random", _random, "seeded random valid splitting",
        arg("--genus", type=int, required=True),
        arg("--seed", type=int, required=True),
        arg("--length", type=int, required=True, metavar="L"),
    )
    report(
        "oracle", _oracle, "run the brute-force oracles and report deviations",
        arg("--level", type=int, required=True, metavar="K"),
    )

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
