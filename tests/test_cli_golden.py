"""Replay recorded CLI calls and compare stdout, stderr and exit code byte for byte.

`cli_golden.json` holds the input files and, for every call, its argv and
what it printed, with the directory holding the files written as $DIR.
It pins every subcommand on valid, invalid, malformed and past-limit files
and on a missing path, plus usage errors and --out.  Regenerate it only
when a report is meant to change:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os

from heegaard.cli import run
from heegaard.splitting import lens, random_splitting

GOLDEN = os.path.join(os.path.dirname(__file__), "cli_golden.json")
DIR = "$DIR"


def _manifold_text(G, name=None) -> str:
    obj = {"genus": G.genus, "R": G.R.to_rows(), "P": G.P.to_rows(), "S": G.S.to_rows(), "Q": G.Q.to_rows()}
    if name is not None:
        obj["name"] = name
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _inputs() -> dict:
    return {
        "s3.json": _manifold_text(lens(1, 0), "s3"),
        "s1xs2.json": _manifold_text(lens(0, 1), "s1xs2"),
        "lens_7_2.json": _manifold_text(lens(7, 2), "lens(7,2)"),
        "random_g2.json": _manifold_text(random_splitting(2, 13, 12), "random-g2-s13-l12"),
        "random_g2_b1.json": _manifold_text(random_splitting(2, 18, 12), "random-g2-s18-l12"),
        "degenerate.json": _manifold_text(random_splitting(2, 0, 6)),
        "huge_lens.json": _manifold_text(lens(10**9, 1), "lens(1000000000,1)"),
        "bad_relation.json": '{"genus":1,"R":[[1]],"P":[[0]],"S":[[0]],"Q":[[1]]}\n',
        "malformed.json": '{"genus": 1, "R": [[0]\n',
        "wrong_dims.json": '{"genus":2,"R":[[0]],"P":[[1]],"S":[[1]],"Q":[[0]]}\n',
    }


def _calls() -> list:
    f = lambda name: f"{DIR}/{name}"
    paths = [f(n) for n in _inputs()] + [f("missing.json")]
    calls = []
    for p in paths:
        calls += [
            ["validate", p],
            ["homology", p],
            ["linking", p],
            ["partition", p, "--theory", "cs", "--level", "2", "--numeric"],
            ["partition", p, "--theory", "bf", "--level", "3"],
            ["oracle", p, "--level", "2"],
        ]
    calls += [
        ["catalog", "lens", "7", "2"],
        ["catalog", "lens", "-7", "3"],
        ["catalog", "s3"],
        ["catalog", "s1xs2"],
        ["catalog", "s3", "1"],
        ["catalog", "lens", "7"],
        ["catalog", "lens", "4", "2"],
        ["catalog", "klein"],
        ["catalog", "lens", "7", "2", "--out", f("out_catalog.json")],
        ["sum", f("s3.json"), f("lens_7_2.json")],
        ["sum", f("lens_7_2.json"), f("random_g2.json")],
        ["sum", f("lens_7_2.json"), f("degenerate.json")],
        ["sum", f("bad_relation.json"), f("lens_7_2.json")],
        ["sum", f("lens_7_2.json"), f("malformed.json")],
        ["sum", f("lens_7_2.json"), f("missing.json")],
        ["sum", f("lens_7_2.json"), f("s1xs2.json"), "--out", f("out_sum.json")],
        ["stabilize", f("lens_7_2.json")],
        ["stabilize", f("degenerate.json")],
        ["stabilize", f("wrong_dims.json")],
        ["stabilize", f("missing.json")],
        ["stabilize", f("random_g2.json"), "--out", f("out_stab.json")],
        ["random", "--genus", "2", "--seed", "5", "--length", "8"],
        ["random", "--genus", "1", "--seed", "0", "--length", "0"],
        ["random", "--genus", "0", "--seed", "0", "--length", "3"],
        ["random", "--genus", "2", "--seed", "0", "--length", "-1"],
        ["random", "--genus", "3", "--seed", "1", "--length", "5", "--out", f("out_random.json")],
        [],
        ["frobnicate"],
        ["validate"],
        ["partition", f("lens_7_2.json"), "--theory", "cs"],
        ["partition", f("lens_7_2.json"), "--theory", "xx", "--level", "1"],
        ["partition", f("lens_7_2.json"), "--theory", "cs", "--level", "0"],
        ["partition", f("lens_7_2.json"), "--theory", "cs", "--level", "1", "--threads", "4"],
        ["oracle", f("lens_7_2.json"), "--level", "-1"],
        ["random", "--genus", "2", "--seed", "x", "--length", "3"],
    ]
    return calls


def replay(tmp_dir: str, argv: list) -> dict:
    """Run one call in process; return its outputs with tmp_dir written as $DIR."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([a.replace(DIR, tmp_dir) for a in argv])
    norm = lambda s: s.replace(tmp_dir, DIR)
    return {"argv": argv, "code": code, "stdout": norm(out.getvalue()), "stderr": norm(err.getvalue())}


def _write_inputs(tmp_dir: str, files: dict) -> None:
    for name, text in files.items():
        with open(os.path.join(tmp_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def test_cli_reports_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    _write_inputs(str(tmp_path), golden["files"])
    mismatches = [
        (want["argv"], got)
        for want in golden["calls"]
        if (got := replay(str(tmp_path), want["argv"])) != want
    ]
    assert not mismatches, f"{len(mismatches)} calls differ; first: {mismatches[0]}"


if __name__ == "__main__":
    import tempfile

    files = _inputs()
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(tmp, files)
        calls = [replay(tmp, argv) for argv in _calls()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"files": files, "calls": calls}, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
