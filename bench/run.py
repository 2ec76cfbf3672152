"""Benchmark of the exact Heegaard pipeline, end to end and per layer.

    python3 bench/run.py --workload {lens-sweep,torsion-corpus,cli-partition,all}
                         --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from
its ``src/`` directory, so nothing needs installing.  Each pass of a
workload runs in a fresh interpreter (bench/worker.py), so every pass
starts with cold library caches and pays its own set-up.  Passes repeat,
one at a time, until ``--seconds`` have gone by and there are at least
four, then the metrics named in BENCHMARK.json are printed with their
units, followed by one JSON line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced pass and reports the per-layer metrics: time in
each package layer per pass, work counts, and the tracing overhead.  The
layers are the package modules, timed around each public call a job
makes; ``exact`` is reached through ``homology_profile`` (Smith form).
Which end-to-end figure each layer should move, and where:

  splitting.construct.*        jobs_per_s on lens-sweep; ~0 on torsion-corpus
  homology.*                   jobs_per_s on lens-sweep
  linking.linking_matrix.s     jobs_per_s on lens-sweep
  linking.is_nondegenerate.s   job_ms.tail on torsion-corpus
  partition.z_cs.*             jobs_per_s on lens-sweep; tail on torsion-corpus
  partition.z_bf.*             jobs_per_s, job_ms.tail on torsion-corpus only
  partition.eval_numeric.*     jobs_per_s on lens-sweep
  cli.startup_s.p50            job_ms.p50 on cli-partition; setup_s everywhere
  cli.command_s.p50            job_ms.tail on cli-partition
  trace.overhead_frac          nothing: the cost of the spans
  trace.unattributed_frac      nothing: pass time outside every layer span

The outputs of every pass are hashed after the timed region.  Those of
the first pass are checked against independent oracles, and every later
pass must hash the same.  A mismatch, a job that raised, or a call that
exited with an unexpected code counts as a failed job (a pass whose hash
differs counts all its jobs), and any failure makes the command exit 1.  A record of each run (machine, versions, source digest,
input descriptors, per-pass figures) is written to bench/out/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("lens-sweep", "torsion-corpus", "cli-partition")
MIN_PASSES = 4
# no new pass starts after this; one run must end within 180 s
START_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, pct):
    """Linear-interpolated percentile of a non-empty sample."""
    s = sorted(xs)
    pos = pct / 100 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_samples(n, pct):
    """Samples beyond the pct-th percentile of n."""
    return int(n * (100 - pct) / 100)


def run_pass(workload, seed, traced, check, corrupt, deadline):
    """One worker process; returns its result dict, or None if it failed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--check", str(int(check))]
    if corrupt:
        cmd.append("--corrupt-oracle")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        return None
    result = json.loads(out.decode("utf-8").strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def environment() -> dict:
    """What was measured where: machine, interpreter, numpy, source."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heegaard").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_digest": "sha256:" + src.hexdigest(),
    }


def measure(workload, seed, seconds, trace, corrupt):
    """Run passes of one workload; returns (summary, record)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain, traced, broken = [], [], 0
    while True:
        # the first pass is checked against the oracles; the others must
        # hash to the same outputs
        round_ = [run_pass(workload, seed, False, not plain, corrupt, deadline)]
        if trace:
            round_.append(run_pass(workload, seed, True, False, corrupt, deadline))
        if None in round_:
            broken += 1
            break
        plain.append(round_[0])
        traced += round_[1:]
        elapsed = time.monotonic() - start
        samples = sum(len(r["latencies"]) for r in plain)
        enough = (
            elapsed >= seconds
            and (trace or len(plain) >= MIN_PASSES)
            and tail_samples(samples, plain[0]["tail_pct"]) >= 10
        )
        if enough or elapsed + elapsed / len(plain) > START_LIMIT_S:
            break
    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    problems = [p for r in passes for p in r["problems"]]
    if broken:
        # a pass that crashed or timed out counts all of its jobs as failed
        lost = passes[0]["attempted"] if passes else 1
        attempted += lost
        failed += lost
        problems.append("a worker process crashed or timed out")
    digests = {r["output_digest"] for r in passes}
    for r in passes[1:]:
        if r["output_digest"] != passes[0]["output_digest"]:
            failed += r["attempted"] - r["failed"]
            problems.append(f"a pass hashed {r['output_digest']}, the checked pass {passes[0]['output_digest']}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "descriptors": passes[0]["descriptors"] if passes else None,
        "output_digest": sorted(digests),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": [
            {k: r[k] for k in ("setup_s", "pass_s", "peak_rss_mib", "attempted", "failed")}
            | {"traced": r in traced}
            for r in passes
        ],
    }
    if not plain:
        return {"attempted": attempted, "failed": failed, "metrics": {}}, record
    metrics = layer_metrics(plain, traced) if trace else end_to_end(plain, record)
    record["metrics"] = metrics
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, record


def end_to_end(plain, record) -> dict:
    latencies = [x for r in plain for x in r["latencies"]]
    pct = plain[0]["tail_pct"]
    record["tail"] = {
        "percentile": pct,
        "samples": len(latencies),
        "beyond": tail_samples(len(latencies), pct),
    }
    return {
        "setup_s": _median([r["setup_s"] for r in plain]),
        "jobs_per_s": _median([(r["attempted"] - r["failed"]) / r["pass_s"] for r in plain]),
        "job_ms.p50": 1e3 * percentile(latencies, 50),
        "job_ms.tail": 1e3 * percentile(latencies, pct),
        "peak_rss_mb": _median([r["peak_rss_mib"] for r in plain]),
    }


def layer_metrics(plain, traced) -> dict:
    def layer(name):
        return _median([r["layers"].get(name, 0.0) for r in traced])

    def rate(work, secs):
        return work / secs if secs else 0.0

    counts = traced[0]["counts"]
    m = {
        "splitting.construct.s": layer("splitting.construct.s"),
        "splitting.construct.calls": counts.get("splitting.construct.calls", 0),
        "homology.homology_profile.s": layer("homology.homology_profile.s"),
        "homology.torsion_elements.s": layer("homology.torsion_elements.s"),
        "homology.torsion_order.sum": counts.get("homology.torsion_order.sum", 0),
        "linking.linking_matrix.s": layer("linking.linking_matrix.s"),
        "linking.is_nondegenerate.s": layer("linking.is_nondegenerate.s"),
        "partition.z_cs.s": layer("partition.z_cs.s"),
        "partition.z_cs.terms": counts.get("partition.z_cs.terms", 0),
        "partition.z_cs.bins": counts.get("partition.z_cs.bins", 0),
        "partition.z_bf.s": layer("partition.z_bf.s"),
        "partition.z_bf.pairs": counts.get("partition.z_bf.pairs", 0),
        "partition.z_bf.bins": counts.get("partition.z_bf.bins", 0),
        "partition.eval_numeric.s": layer("partition.eval_numeric.s"),
        "partition.eval_numeric.bins": counts.get("partition.eval_numeric.bins", 0),
        "cli.startup_s.p50": _median([x for r in traced for x in r.get("cli_startup_s", [])]),
        "cli.command_s.p50": _median([x for r in traced for x in r.get("cli_command_s", [])]),
    }
    m["partition.z_cs.terms_per_s"] = rate(m["partition.z_cs.terms"], m["partition.z_cs.s"])
    m["partition.z_bf.pairs_per_s"] = rate(m["partition.z_bf.pairs"], m["partition.z_bf.s"])
    untraced_s = _median([r["pass_s"] for r in plain])
    traced_s = _median([r["pass_s"] for r in traced])
    m["trace.pass_s"] = untraced_s
    # share of a traced pass spent outside every layer span: the harness
    m["trace.unattributed_frac"] = _median(
        [1 - sum(r["layers"].values()) / r["pass_s"] for r in traced]
    )
    m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return m


def report(workload, summary, record, units):
    n, failed = summary["attempted"], summary["failed"]
    passes = len(record["passes"])
    print(f"{workload}: seed {record['seed']}, {passes} passes, {n} jobs, {failed} failed")
    for name, unit in units.items():
        if name in summary["metrics"]:
            print(f"  {name:<30} {summary['metrics'][name]:>14.6g} {unit}")
    print(f"  {'fail_frac':<30} {failed / n if n else 1.0:>14.6g} ratio")
    if "tail" in record:
        t = record["tail"]
        print(f"  tail = p{t['percentile']:g} of {t['samples']} samples, {t['beyond']} beyond it")
    for p in record["problems"]:
        print(f"  FAIL {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="self-test: add one to every expected value, so every check fails")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running pass is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "heegaard" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"bench: no heegaard source tree under {ROOT}\n")
        return 2
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        summary, record = measure(workload, args.seed, args.seconds, bool(args.trace), args.corrupt_oracle)
        report(workload, summary, record, units)
        path = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = "" if len(names) == 1 else workload + "/"
        for name, unit in units.items():
            if name in summary["metrics"]:
                metrics[prefix + name] = {"value": summary["metrics"][name], "unit": unit}
    ok = failed == 0 and attempted > 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
