import ast
import importlib
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import heegaard
from heegaard.cli import serialize_manifold
from heegaard.exact import PhaseQ, frac_mod1
from heegaard.fields import FiniteDBClass, bf_action, db_pair, zero_mode_shift
from heegaard.homology import TorsionRep
from heegaard.linking import linking_form
from heegaard.partition import PhaseSum, free_mode_grid_oracle, gauss_sum_oracle, z_cs
from heegaard.splitting import connected_sum, lens


def test_public_names():
    assert heegaard.__all__ == [
        "PhaseQ",
        "frac_mod1",
        "vec_dot",
        "FiniteDBClass",
        "bf_action",
        "cs_action",
        "db_pair",
        "zero_mode_shift",
        "HomologyProfile",
        "TorsionElements",
        "TorsionRep",
        "curvature_lattice_basis",
        "homology_profile",
        "torsion_elements",
        "LinkingMatrix",
        "is_nondegenerate",
        "linking_form",
        "linking_matrix",
        "PhaseSum",
        "eval_numeric",
        "free_mode_grid_oracle",
        "gauss_sum_oracle",
        "z_bf",
        "z_bf_closed_form",
        "z_cs",
        "GluingData",
        "ValidationError",
        "block_relation_violations",
        "connected_sum",
        "lens",
        "random_splitting",
        "stabilize",
        "validate",
    ]
    assert all(hasattr(heegaard, name) for name in heegaard.__all__)


def code_references(path):
    """(name, owners, attribute) for each name that code in the file reads:
    owners are the names of the defs and classes around the read, and
    attribute is True for an attribute read, False for a variable."""
    refs = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((node.id, owners, False))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add((node.attr, owners, True))
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return refs


ROOT = Path(__file__).resolve().parents[1]
LIBRARY = [p for p in (ROOT / "src" / "heegaard").glob("*.py") if p.name != "__init__.py"]
# the code whose reads count: docstrings are not code, and tests do not count
READERS = [*LIBRARY, *(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]


def test_no_public_name_is_test_only():
    # every exported name is read outside its own definition
    used = {name for path in READERS for name, owners, _ in code_references(path) if name not in owners}
    assert [name for name in heegaard.__all__ if name not in used] == []


def test_no_public_method_is_test_only():
    # every public method or property of an exported class is read as an
    # attribute outside its own definition
    methods = [
        (cls.name, node.name)
        for path in LIBRARY
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef) and cls.name in heegaard.__all__
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(methods) > 10
    read = {
        name for path in READERS for name, owners, attribute in code_references(path)
        if attribute and name not in owners
    }
    assert [f"{cls}.{name}" for cls, name in methods if name not in read] == []


# the operator dunders the exported classes define, each with a caller outside
# tests; an operator only tests call does not belong in the library
OPERATORS = [
    "PhaseQ.__add__",  # demos/02_linking_form.py adds two values of the form
    "PhaseSum.__len__",  # partition: z_cs's bin budget and _jordan_histogram's product check
    "PhaseSum.__mul__",  # partition._jordan_histogram multiplies the blocks' histograms
    "TorsionElements.__len__",  # bench/workloads.py checks |T|
    "TorsionElements.__getitem__",  # demos 02 and 03 take classes by position
    "TorsionRep.__len__",  # fields.FiniteDBClass checks the sector lengths
    "TorsionRep.__iter__",  # cli._linking prints each generator; linking_form reads it
]
# dunders that make a value, print it or pickle it, not operators
NOT_OPERATORS = {"__init__", "__repr__", "__str__", "__reduce__", "__hash__"}


def test_exported_classes_define_only_the_operators_code_calls():
    defined = [
        f"{name}.{attr}"
        for name in heegaard.__all__
        if isinstance(cls := getattr(heegaard, name), type)
        for attr, value in vars(cls).items()
        if attr.startswith("__") and attr.endswith("__") and callable(value) and attr not in NOT_OPERATORS
    ]
    assert sorted(defined) == sorted(OPERATORS)


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(heegaard.__file__))
    code = "import sys, heegaard; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


def test_cli_import_does_not_load_dataclasses_or_inspect():
    # `heegaard partition` is dominated by import time; `import dataclasses`
    # pulls in inspect, about 14 ms on each call
    src = os.path.dirname(os.path.dirname(heegaard.__file__))
    code = "import sys, heegaard.cli; assert not {'dataclasses', 'inspect'} & set(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


def test_cli_import_does_not_load_openssl():
    # the input digest uses CPython's built-in SHA-256; hashlib's _hashlib
    # maps OpenSSL's libcrypto, a few ms and MiB on each call
    src = os.path.dirname(os.path.dirname(heegaard.__file__))
    code = "import sys, heegaard.cli; assert '_hashlib' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


def test_console_script_runs_the_cli(monkeypatch, capsys):
    # tomllib needs Python 3.11; the [project.scripts] table is read by regex
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    scripts = dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]+)"', table, re.M))
    assert scripts == {"heegaard": "heegaard.cli:main"}
    module, attr = scripts["heegaard"].split(":")
    main = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["heegaard", "catalog", "s3"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == serialize_manifold(lens(1, 0), "s3")


S1xS2 = lens(0, 1)

# each entry point with one integer argument replaced by x, and an int it takes
INTEGER_ARGUMENTS = {
    "lens-p": (lambda x: lens(x, 2), 5),
    "lens-q": (lambda x: lens(5, x), 2),
    "gauss_sum_oracle-p": (lambda x: gauss_sum_oracle(x, 2, 1), 5),
    "gauss_sum_oracle-q": (lambda x: gauss_sum_oracle(5, x, 1), 2),
    "free_mode_grid_oracle-grid_n": (lambda x: free_mode_grid_oracle(lens(5, 2), 1, x, 2), 7),
    "free_mode_grid_oracle-m_window": (lambda x: free_mode_grid_oracle(S1xS2, 1, 7, x), 2),
    "PhaseSum-multiplicity": (lambda x: PhaseSum({PhaseQ(0): x}), 2),
    "FiniteDBClass-m": (lambda x: FiniteDBClass(S1xS2, m=[x]), 3),
    "zero_mode_shift-u": (lambda x: zero_mode_shift(S1xS2, FiniteDBClass(S1xS2), [x], 1), 1),
}


@pytest.mark.parametrize("bad", [5.9, 2.0, Fraction(5, 2)], ids=["5.9", "2.0", "Fraction5_2"])
@pytest.mark.parametrize("site", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_non_integers(site, bad):
    call, good = INTEGER_ARGUMENTS[site]
    with pytest.raises(TypeError):
        call(bad)
    call(good)
    assert call(True) == call(1)


GENUS2 = connected_sum(lens(5, 2), lens(0, 1))
LENGTH_MESSAGE = "sector constraint violation: sectors must have length 2"

# each entry point with one vector argument replaced by v, and the message
# that refuses a v of length n != 2 before anything multiplies it
VECTOR_ARGUMENTS = {
    "linking_form-theta": (
        lambda v: linking_form(GENUS2, v, [0, 0]), "theta has length {n}, expected 2"
    ),
    "linking_form-vartheta": (
        lambda v: linking_form(GENUS2, [0, 0], v), "vartheta has length {n}, expected 2"
    ),
    "FiniteDBClass-m": (lambda v: FiniteDBClass(GENUS2, m=v), LENGTH_MESSAGE),
    "FiniteDBClass-theta_f": (lambda v: FiniteDBClass(GENUS2, theta_f=v), LENGTH_MESSAGE),
    "FiniteDBClass-theta_t": (lambda v: FiniteDBClass(GENUS2, theta_t=v), LENGTH_MESSAGE),
    "FiniteDBClass-holonomy": (lambda v: FiniteDBClass(GENUS2, holonomy=v), LENGTH_MESSAGE),
    "zero_mode_shift-u": (
        lambda v: zero_mode_shift(GENUS2, FiniteDBClass(GENUS2), v, 1), "u has length {n}, expected 2"
    ),
}


@pytest.mark.parametrize("n", [1, 3], ids=["short", "long"])
@pytest.mark.parametrize("site", VECTOR_ARGUMENTS)
def test_vector_arguments_refuse_a_wrong_length(site, n):
    call, message = VECTOR_ARGUMENTS[site]
    with pytest.raises(ValueError) as exc:
        call([0] * n)
    assert str(exc.value) == message.format(n=n)
    call([0, 0])


EMPTY_CLASS = FiniteDBClass(S1xS2)

# each entry point with one rational argument replaced by x
RATIONAL_ARGUMENTS = {
    "PhaseQ": lambda x: PhaseQ(x),
    "frac_mod1": frac_mod1,
    "PhaseSum-phase": lambda x: PhaseSum({x: 2}),
    "TorsionRep": lambda x: TorsionRep([x]),
    "linking_form": lambda x: linking_form(lens(2, 1), [x], [x]),
    "FiniteDBClass-theta_f": lambda x: FiniteDBClass(S1xS2, theta_f=[x]),
    "FiniteDBClass-holonomy": lambda x: FiniteDBClass(S1xS2, holonomy=[x]),
    "FiniteDBClass-smooth_self": lambda x: FiniteDBClass(S1xS2, smooth_self=x),
    "bf_action-cross": lambda x: bf_action(S1xS2, EMPTY_CLASS, EMPTY_CLASS, 1, cross=x),
    "db_pair-cross": lambda x: db_pair(S1xS2, EMPTY_CLASS, EMPTY_CLASS, cross=x),
}


def outcome(call, x):
    """call(x), or the type and message of what it raised."""
    try:
        return call(x)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), "1/2"], ids=["0.5", "Decimal0.5", "str1_2"])
@pytest.mark.parametrize("site", RATIONAL_ARGUMENTS)
def test_rational_arguments_refuse_floats_decimals_and_strings(site, bad):
    call = RATIONAL_ARGUMENTS[site]
    with pytest.raises(TypeError):
        call(bad)
    call(Fraction(1, 2))
    assert outcome(call, True) == outcome(call, 1)


@pytest.mark.parametrize("bad", [1.7, Fraction(5, 2), True], ids=["1.7", "Fraction5_2", "True"])
def test_gauss_sum_oracle_checks_its_level_as_z_cs_does(bad):
    with pytest.raises(ValueError, match="level k must be a positive integer"):
        z_cs(lens(5, 2), bad)
    with pytest.raises(ValueError, match="level k must be a positive integer"):
        gauss_sum_oracle(5, 2, bad)
