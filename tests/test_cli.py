import json
import os
import subprocess
import sys
import time
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

import heegaard
import heegaard.splitting as splitting
from heegaard.cli import _free_pairing_degenerate, parse_manifold, run, serialize_manifold
from heegaard.exact import vec_dot
from heegaard.homology import curvature_lattice_basis, homology_profile
from heegaard.splitting import GluingData, ValidationError, connected_sum, lens, random_splitting
from conftest import gluing_matrix
from oracle_helpers import det_laplace, minor_gcd_diagonal


@pytest.fixture()
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return invoke


@pytest.fixture()
def lens_file(tmp_path):
    def write(p, q, name=None):
        path = tmp_path / f"lens_{p}_{q}.json"
        path.write_text(serialize_manifold(lens(p, q), name or f"lens({p},{q})"))
        return str(path)

    return write


# ------------------------------------------------------------ file format


def test_manifold_roundtrip():
    G = random_splitting(2, 3, 6)
    text = serialize_manifold(G, "probe")
    again = parse_manifold(text.encode())
    assert serialize_manifold(*again) == text
    assert again == (G, "probe")


def test_parse_rejects_malformed():
    with pytest.raises(ValidationError):
        parse_manifold(b"not json")
    with pytest.raises(ValidationError):
        parse_manifold(b'{"genus": 1}')
    with pytest.raises(ValidationError):
        parse_manifold(
            b'{"genus":1,"R":[[0]],"P":[[1]],"S":[[1]],"Q":[[0]],"extra":1}'
        )
    # bool is not an int here
    with pytest.raises(ValidationError):
        parse_manifold(b'{"genus":true,"R":[[0]],"P":[[1]],"S":[[1]],"Q":[[0]]}')


# JSON text fragments: ordinary and huge integers (past the 4300-digit
# int-string limit), floats, bools, nulls, strings, and deep or unbalanced
# bracket runs
entries = st.one_of(
    st.integers(-(10**40), 10**40).map(str),
    st.integers(1, 6000).map(lambda n: "9" * n),
    st.floats(allow_nan=True, allow_infinity=True).map(json.dumps),
    st.sampled_from(["true", "false", "null", '"1"', "{}"]),
    st.integers(1, 10**5).map(lambda n: "[" * n + "]" * n),
    st.integers(1, 10**5).map(lambda n: "[" * n),
)
rows = st.lists(entries, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]")
blocks = st.one_of(entries, st.lists(rows, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]"))
documents = st.fixed_dictionaries(
    {"genus": st.one_of(st.sampled_from(["0", "1", "2", "3", "-1"]), entries)},
    optional={b: blocks for b in ("R", "P", "S", "Q", "name", "extra")},
).map(lambda d: "{" + ",".join(f'"{k}":{v}' for k, v in d.items()) + "}")


@example(b"[" * 10**5)
@example(b'{"genus":1,"R":[[' + b"7" * 5000 + b']],"P":[[1]],"S":[[1]],"Q":[[0]]}')
@example(
    # relations fail on a product of two 4000-digit entries
    ('{"genus":2,"R":[[%d,0],[0,1]],"P":[[%d,1],[0,1]],"S":[[1,0],[0,1]],'
     '"Q":[[0,0],[0,0]]}' % (10**4000, 10**4000)).encode()
)
@given(st.one_of(documents.map(str.encode), st.binary(max_size=64)))
def test_parse_manifold_fuzz_only_raises_validation_error(data):
    try:
        G, name = parse_manifold(data)
    except ValidationError as exc:
        assert exc.violations
    else:
        assert isinstance(G, GluingData)
        assert name is None or isinstance(name, str)


def run_cli(*argv):
    src = os.path.dirname(os.path.dirname(heegaard.__file__))
    return subprocess.run(
        [sys.executable, "-m", "heegaard", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )


@pytest.mark.parametrize(
    "raw",
    [
        b'{"genus":1,"R":[[' + b"7" * 5000 + b']],"P":[[1]],"S":[[1]],"Q":[[0]]}',
        b"[" * 10**5,
    ],
    ids=["5000-digit-int", "nested-1e5"],
)
def test_malformed_file_exits_2_in_subprocess(tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    proc = run_cli("validate", str(path))
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stdout)
    assert report["validation"]["valid"] is False
    assert report["validation"]["violations"][0].startswith("malformed JSON")


def test_partition_past_enumeration_limit_exits_1(lens_file):
    path = lens_file(10**9, 1)
    for theory in ("cs", "bf"):
        proc = run_cli("partition", path, "--theory", theory, "--level", "1")
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"]["type"] == "ValueError"
        assert "enumeration limit" in proc.stderr


def test_random_past_enumeration_limit_exits_1(capture):
    # (2g)² = 4·10¹² matrix entries: refused before any is built
    t0 = time.perf_counter()
    code, out, err = capture("random", "--genus", "1000000", "--seed", "0", "--length", "1")
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "exceeds the enumeration limit" in error["message"]


def test_random_past_word_length_limit_exits_1(capture):
    t0 = time.perf_counter()
    code, out, err = capture("random", "--genus", "2", "--seed", "0", "--length", "1000000000")
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert f"exceeds the limit {splitting._WORD_LENGTH_LIMIT}" in error["message"]


def test_homology_of_random_genus5_file_finishes(capture, tmp_path):
    # this splitting's P stalled floor-quotient Smith elimination for minutes
    code, text, _ = capture("random", "--genus", "5", "--seed", "5", "--length", "48")
    assert code == 0
    path = tmp_path / "g5.json"
    path.write_text(text)
    proc = run_cli("homology", str(path))
    assert proc.returncode == 0, proc.stderr
    factors = json.loads(proc.stdout)["results"]["invariant_factors"]
    assert factors == [1848772]
    P = parse_manifold(text.encode())[0].P
    assert [d for d in minor_gcd_diagonal(P.to_rows()) if d > 1] == factors


def test_parse_rejects_invalid_relations():
    with pytest.raises(ValidationError):
        parse_manifold(b'{"genus":1,"R":[[1]],"P":[[0]],"S":[[0]],"Q":[[1]]}')


# ------------------------------------------------------------- subcommands


def test_validate_ok(capture, lens_file):
    code, out, err = capture("validate", lens_file(7, 2))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["validation"] == {"valid": True, "violations": []}
    assert report["results"]["genus"] == 1
    assert report["results"]["determinant"] == -1
    assert report["input_digest"].startswith("sha256:")


def test_valid_splittings_have_determinant_minus_one_to_the_genus(corpus):
    # the identity the validate report rests on, pinned by cofactor expansion
    lenses = [lens(p, q) for p in range(0, 12) for q in range(-p, p + 1) if gcd(p, q) == 1]
    for G in corpus + lenses:
        assert det_laplace(gluing_matrix(G)) == (-1) ** G.genus


def test_validate_at_genus_120_within_two_seconds(capture, tmp_path):
    path = tmp_path / "g120.json"
    path.write_text(serialize_manifold(random_splitting(120, 1, 2000)))
    t0 = time.perf_counter()
    code, out, err = capture("validate", str(path))
    assert time.perf_counter() - t0 < 2.0
    assert code == 0, err
    assert json.loads(out)["results"] == {"determinant": 1, "genus": 120}


def test_homology_at_genus_60_within_three_seconds(capture, tmp_path):
    """V⁻¹ is replayed mod d_r, not carried exactly at ~80k bits."""
    path = tmp_path / "g60.json"
    path.write_text(serialize_manifold(random_splitting(60, 1, 2000)))
    t0 = time.perf_counter()
    code, out, err = capture("homology", str(path))
    assert time.perf_counter() - t0 < 3.0
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["b1"] == 0 and len(results["invariant_factors"]) == 2
    assert results["invariant_factors"][0] == 2
    assert results["torsion_order"] == 2 * results["invariant_factors"][1]


def test_validate_bad_relations_exit_2(capture, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"genus":1,"R":[[1]],"P":[[0]],"S":[[0]],"Q":[[1]]}')
    code, out, err = capture("validate", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["validation"]["valid"] is False
    assert report["validation"]["violations"]
    assert report["results"] == {}


def test_genus_past_the_enumeration_limit_exits_2_before_any_block_is_read(capture, tmp_path):
    path = tmp_path / "big.json"
    # empty blocks: the genus alone is refused, before the blocks are looked at
    path.write_text('{"genus":501,"R":[],"P":[],"S":[],"Q":[]}')
    code, out, err = capture("validate", str(path))
    assert code == 2, err
    report = json.loads(out)
    assert report["validation"]["violations"] == [
        f"(2g)² at genus 501 = 1004004 exceeds the enumeration limit {splitting._ENUMERATION_LIMIT}"
    ]
    # genus 500 is accepted, so its bad blocks are reported as before
    path.write_text('{"genus":500,"R":[],"P":[],"S":[],"Q":[]}')
    code, out, err = capture("validate", str(path))
    assert code == 2, err
    assert json.loads(out)["validation"]["violations"] == [
        "dimension mismatch: block R must be a 500x500 integer array"
    ]


def test_missing_file_exit_1(capture):
    code, out, err = capture("validate", "/nonexistent/thing.json")
    assert code == 1
    assert "error" in json.loads(err)


def test_usage_errors_exit_64(capture, lens_file):
    assert capture("frobnicate")[0] == 64
    assert capture("partition", lens_file(5, 1), "--theory", "cs")[0] == 64
    assert capture("partition", lens_file(5, 1), "--theory", "xx", "--level", "1")[0] == 64
    # level below 1 is a usage error, not a computation error
    assert capture("partition", lens_file(5, 1), "--theory", "cs", "--level", "0")[0] == 64
    assert capture("partition", lens_file(5, 1), "--theory", "cs", "--level", "1", "--threads", "4")[0] == 64


def test_homology_report(capture, lens_file):
    code, out, _ = capture("homology", lens_file(12, 5))
    assert code == 0
    res = json.loads(out)["results"]
    assert res == {
        "b1": 0,
        "invariant_factors": [12],
        "name": "lens(12,5)",
        "torsion_order": 12,
    }


def test_linking_report(capture, lens_file):
    code, out, _ = capture("linking", lens_file(7, 2))
    assert code == 0
    res = json.loads(out)["results"]
    assert res["generator_orders"] == [7]
    assert res["gram"] == [["2/7"]]


def test_partition_cs_report(capture, lens_file):
    code, out, _ = capture(
        "partition", lens_file(5, 1), "--theory", "cs", "--level", "1", "--numeric"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["phase_sum"] == {"0/1": 1, "1/5": 2, "4/5": 2}
    assert res["term_count"] == 5
    assert abs(res["numeric"][0] - 5**0.5) < 1e-9


def test_partition_bf_report(capture, lens_file):
    code, out, _ = capture(
        "partition", lens_file(6, 1), "--theory", "bf", "--level", "2", "--numeric"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["term_count"] == 36
    assert abs(res["numeric"][0] - 12) < 1e-6


def test_reports_byte_identical(capture, lens_file):
    path = lens_file(9, 2)
    first = capture("partition", path, "--theory", "cs", "--level", "3", "--numeric")
    second = capture("partition", path, "--theory", "cs", "--level", "3", "--numeric")
    assert first == second
    # and timing is the one sanctioned exception
    timed = capture("partition", path, "--theory", "cs", "--level", "3", "--timing")
    assert "timing" in json.loads(timed[1])


REPORT_ARGS = {
    "validate": [],
    "homology": [],
    "linking": [],
    "partition": ["--theory", "cs", "--level", "1"],
    "oracle": ["--level", "1"],
}


def test_reports_validate_each_input_once(capture, monkeypatch, tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(serialize_manifold(random_splitting(2, 13, 12)))
    count = []
    check = splitting._anti_symplectic
    monkeypatch.setattr(splitting, "_anti_symplectic", lambda *blocks: count.append(1) or check(*blocks))
    for cmd, extra in REPORT_ARGS.items():
        count.clear()
        code, _, err = capture(cmd, str(path), *extra)
        assert code == 0, err
        assert len(count) == 1, cmd


def test_writers_validate_each_input_once(capture, monkeypatch, tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(serialize_manifold(random_splitting(2, 13, 12)))
    count = []
    check = splitting._anti_symplectic
    monkeypatch.setattr(splitting, "_anti_symplectic", lambda *blocks: count.append(1) or check(*blocks))
    for argv, validations in ((("sum", str(path), str(path)), 2), (("stabilize", str(path)), 1)):
        count.clear()
        code, _, err = capture(*argv)
        assert code == 0, err
        assert len(count) == validations, argv


def test_timing_only_under_flag_on_every_report(capture, lens_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"genus":1,"R":[[1]],"P":[[0]],"S":[[0]],"Q":[[1]]}')
    for cmd, extra in REPORT_ARGS.items():
        for path, want in ((lens_file(5, 1), 0), (str(bad), 2)):
            code, out, _ = capture(cmd, path, *extra)
            assert code == want and "timing" not in json.loads(out), cmd
            code, out, _ = capture(cmd, path, *extra, "--timing")
            assert code == want and json.loads(out)["timing"]["seconds"] >= 0, cmd


def test_catalog_lens_and_named_spaces(capture, tmp_path):
    out_path = tmp_path / "m.json"
    code, out, _ = capture("catalog", "lens", "7", "2", "--out", str(out_path))
    assert code == 0
    _, name = parse_manifold(out_path.read_bytes())
    assert name == "lens(7,2)"
    code, out, _ = capture("catalog", "s3")
    assert code == 0 and json.loads(out)["name"] == "s3"
    code, out, _ = capture("catalog", "s1xs2")
    assert code == 0 and json.loads(out)["name"] == "s1xs2"
    assert capture("catalog", "klein")[0] == 64
    assert capture("catalog", "lens", "7")[0] == 64


def test_sum_and_stabilize(capture, lens_file, tmp_path):
    a, b = lens_file(2, 1), lens_file(3, 1)
    out_path = tmp_path / "sum.json"
    code, _, _ = capture("sum", a, b, "--out", str(out_path))
    assert code == 0
    G, name = parse_manifold(out_path.read_bytes())
    assert G.genus == 2
    assert name == "lens(2,1)#lens(3,1)"
    stab_path = tmp_path / "stab.json"
    code, _, _ = capture("stabilize", str(out_path), "--out", str(stab_path))
    assert code == 0
    assert parse_manifold(stab_path.read_bytes())[0].genus == 3


def test_random_subcommand_deterministic(capture):
    a = capture("random", "--genus", "2", "--seed", "5", "--length", "8")
    b = capture("random", "--genus", "2", "--seed", "5", "--length", "8")
    assert a == b and a[0] == 0
    G, name = parse_manifold(a[1].encode())
    assert G.genus == 2
    assert name == "random-g2-s5-l8"


def test_oracle_subcommand_agreement(capture, lens_file):
    code, out, err = capture("oracle", lens_file(5, 1), "--level", "1")
    assert code == 0, err
    res = json.loads(out)["results"]
    assert res["all_agree"] is True
    names = {c["name"] for c in res["checks"]}
    assert {"bf_closed_form", "gauss_sum", "free_mode_grid"} <= names


def test_oracle_disagreement_exits_1_with_report(capture, lens_file, monkeypatch):
    monkeypatch.setattr("heegaard.cli.gauss_sum_oracle", lambda p, q, k: 0j)
    code, out, err = capture("oracle", lens_file(5, 1), "--level", "1")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["results"]["checks"]}
    assert checks["gauss_sum"]["agrees"] is False
    assert json.loads(err)["error"] == {"type": "oracle", "message": "oracle disagreement; see report"}


def test_oracle_subcommand_on_degenerate_pairing(capture, tmp_path):
    path = tmp_path / "deg.json"
    path.write_text(serialize_manifold(random_splitting(2, 0, 6), "degenerate"))
    code, out, _ = capture("oracle", str(path), "--level", "2")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["results"]["checks"]}
    assert "skipped" in checks["free_mode_grid"]


def test_free_pairing_degeneracy_matches_cofactor_expansion():
    # a zero on the Smith diagonal of the free-mode/curvature pairing against
    # det = 0 by cofactor expansion, on b1 <= 3 so the matrices stay 3 x 3
    verdicts = []
    for genus in range(1, 5):
        for seed in range(100):
            for word_length in (0, 3, 6, 10, 15):
                G = random_splitting(genus, seed, word_length)
                for H in (G, connected_sum(G, lens(0, 1))):
                    profile = homology_profile(H)
                    if not 1 <= profile.b1 <= 3:
                        continue
                    curv = curvature_lattice_basis(H)
                    pairing = [[vec_dot(f, m) for m in curv] for f in profile.kernel_columns]
                    verdicts.append(det_laplace(pairing) == 0)
                    assert _free_pairing_degenerate(H) == verdicts[-1], (genus, seed, word_length)
    assert any(verdicts) and not all(verdicts)


def test_oracle_skips_the_grid_past_the_enumeration_limit(capture, tmp_path):
    # (ℤ/1000)³: Z_CS and Z_BF answer, the grid oracle's loop over T would not
    cube = connected_sum(connected_sum(lens(1000, 3), lens(1000, 7)), lens(1000, 11))
    path = tmp_path / "cube.json"
    path.write_text(serialize_manifold(cube, "cube"))
    code, out, err = capture("oracle", str(path), "--level", "1")
    assert code == 0, err
    res = json.loads(out)["results"]
    checks = {c["name"]: c for c in res["checks"]}
    assert checks["bf_closed_form"]["agrees"] is True
    assert checks["free_mode_grid"] == {
        "name": "free_mode_grid",
        "skipped": "|T| = 1000000000 exceeds the enumeration limit 1000000",
    }
    assert res["all_agree"] is True


def test_oracle_skips_a_grid_rung_past_the_enumeration_limit(capture, tmp_path):
    # b1 = 3 at a level divisible by every ladder prime below 23: the first
    # coprime grid has (5 · 23)³ terms, refused at once instead of summed
    G = connected_sum(connected_sum(lens(0, 1), lens(0, 1)), lens(0, 1))
    path = tmp_path / "s1xs2_3.json"
    path.write_text(serialize_manifold(G, "s1xs2^3"))
    t0 = time.perf_counter()
    code, out, err = capture("oracle", str(path), "--level", str(5 * 7 * 11 * 13 * 17 * 19))
    assert time.perf_counter() - t0 < 1.0
    assert code == 0, err
    checks = {c["name"]: c for c in json.loads(out)["results"]["checks"]}
    assert checks["free_mode_grid"] == {
        "name": "free_mode_grid",
        "skipped": f"window labels x grid points = {115**3} exceeds the enumeration limit 1000000",
    }


def test_oracle_skips_refused_checks_on_a_large_lens(capture, lens_file):
    # Z_CS answers at 1,531,530 classes; the BF pair sum and the Gauss sum refuse
    t0 = time.perf_counter()
    code, out, err = capture("oracle", lens_file(1531530, 23), "--level", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0, err
    res = json.loads(out)["results"]
    limit = "exceeds the enumeration limit 1000000"
    assert res["checks"] == [
        {"name": "bf_closed_form", "skipped": f"d_r = 1531530 {limit}"},
        {"name": "gauss_sum", "skipped": f"p = 1531530 {limit}"},
        {"name": "free_mode_grid", "skipped": f"|T| = 1531530 {limit}"},
    ]
    assert res["all_agree"] is True


def test_help_exits_zero(capture):
    code, out, _ = capture("--help")
    assert code == 0
    assert "validate" in out
