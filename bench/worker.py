"""One pass of one workload in a fresh interpreter; prints one JSON line.

Run by run.py, never on its own.  The pass sets up (imports the package
from ``src/`` and makes the seeded inputs), records when set-up ended on
the monotonic clock shared by all processes, times every job of the
workload in order, reads the peak RSS, and only then hashes the outputs
and, with ``--check 1``, checks each output against its oracle.  With
``--trace 1`` a span is kept in memory around each call into the package,
with the job as its parent; the spans are written to ``bench/out/`` after
the pass.
"""

import argparse
import json
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the package on sys.path)


class Tracer:
    """In-memory spans: one per job, one per package call inside it."""

    def __init__(self):
        self.jobs = []

    def bind(self, job_id):
        spans = []
        self.jobs.append({"id": job_id, "spans": spans})

        def call(name, fn, *args):
            t0 = perf_counter()
            out = fn(*args)
            spans.append((name, t0, perf_counter()))
            return out

        return call

    def end_job(self, t0, t1):
        self.jobs[-1]["start"], self.jobs[-1]["end"] = t0, t1

    def layer_seconds(self) -> dict:
        out = defaultdict(float)
        for job in self.jobs:
            for name, t0, t1 in job["spans"]:
                # lens and validate both build GluingData, six-relation check included
                layer = "splitting.construct" if name.startswith("splitting.") else name
                out[layer + ".s"] += t1 - t0
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"jobs": self.jobs}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--corrupt-oracle", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wl = workloads.WORKLOADS[args.workload](args.seed, str(ROOT), bool(args.trace))
    t_ready = time.monotonic()
    try:
        result = measure(wl, args)
    finally:
        wl.close()
    result["t_ready"] = t_ready
    if args.trace:
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        result.pop("tracer").write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def measure(wl, args) -> dict:
    """Time every job, then hash (and maybe check) the outputs."""
    tracer = Tracer() if args.trace else None

    outputs, latencies, errors = [], [], {}
    t_pass = perf_counter()
    for i, job in enumerate(wl.jobs):
        call = tracer.bind(i) if tracer else workloads.plain_call
        t0 = perf_counter()
        try:
            out = wl.run(job, call)
        except Exception as exc:  # a failing job is counted, not fatal
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer:
            tracer.end_job(t0, t1)
        outputs.append(out)
        latencies.append(t1 - t0)
    pass_s = perf_counter() - t_pass
    peak_rss_mib = wl.peak_rss_mib()

    problems = {}
    records = []
    for i, (job, out) in enumerate(zip(wl.jobs, outputs)):
        if out is None:
            problems[i] = [errors[i]]
            records.append({"error": errors[i]})
            continue
        try:
            bad = wl.check(job, out, args.corrupt_oracle) if args.check else []
            records.append(wl.record(job, out))
        except Exception as exc:  # a malformed output is a failed job
            bad = [f"check raised {type(exc).__name__}: {exc}"]
            records.append({"error": bad[0]})
        if bad:
            problems[i] = bad
    records.sort(key=lambda r: json.dumps(r, sort_keys=True))

    result = {
        "pass_s": pass_s,
        "latencies": latencies,
        "attempted": len(wl.jobs),
        "failed": len(problems),
        "problems": [f"job {i}: {'; '.join(p)}" for i, p in sorted(problems.items())][:5],
        "peak_rss_mib": peak_rss_mib,
        "tail_pct": wl.tail_pct,
        "output_digest": workloads.digest(records),
        "descriptors": wl.descriptors,
        "counts": wl.counts(outputs),
    }
    if tracer:
        result["layers"] = tracer.layer_seconds()
        result["tracer"] = tracer
    if hasattr(wl, "command_seconds"):
        cmd = wl.command_seconds(outputs)
        result["cli_command_s"] = [c for c in cmd if c is not None]
        result["cli_startup_s"] = [lat - c for lat, c in zip(latencies, cmd) if c is not None]
        if tracer:
            # each call is one span of the cli layer, timed from outside
            result["layers"]["cli.calls.s"] = sum(latencies)
    return result


if __name__ == "__main__":
    sys.exit(main())
