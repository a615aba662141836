import ast
import dataclasses
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

import hadpoly
from hadpoly import cli, decomp, ehrhart, generators, harness, operators
from hadpoly.generators import TrialConfig
from hadpoly.poly import Poly
from hadpoly.rng import SplitMix64


def test_every_export_resolves():
    missing = [name for name in hadpoly.__all__ if not hasattr(hadpoly, name)]
    assert missing == []


# -- the public API -----------------------------------------------------------------
#
# ``hadpoly.__all__`` is derived from the names ``hadpoly/__init__.py`` imports;
# a derivation that let a submodule, ``types`` or a private name through would
# change this set.

EXPORTS = [
    "Poly", "PropertyReport", "ReeveData", "SymDecomp", "SymmetryCertificate", "TaggedPoly",
    "TrialConfig", "check_functional_eq", "counterexample_report",
    "decomposition_is_gamma_positive", "decomposition_is_interlacing",
    "decomposition_is_nonnegative", "defect1_ell", "diamond", "diamond_power", "f_from_h",
    "gamma_contract", "gamma_expand", "gcd", "h_from_f", "hadamard", "has_internal_zeros",
    "i_decompose", "interlaces", "is_gamma_positive", "is_log_concave", "is_nonnegative",
    "is_real_rooted", "is_ulc", "is_unimodal", "isolate_roots", "msupp", "newton_violation",
    "product_f", "r_decompose", "reeve", "reflect", "reverse", "subdivision",
    "symmetry_certificate", "w_inverse", "w_transform",
]


def test_exported_names_are_fixed():
    assert sorted(hadpoly.__all__) == EXPORTS


def test_no_export_is_a_module_or_private():
    for name in hadpoly.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(hadpoly, name), types.ModuleType), name


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert hadpoly.__version__ == tomllib.load(f)["project"]["version"]


def test_exported_value_classes_are_frozen_dataclasses():
    # a value checked at construction must not change afterwards; Poly guards its own fields
    exported = [getattr(hadpoly, name) for name in hadpoly.__all__]
    classes = [c for c in exported if inspect.isclass(c) and c is not Poly]
    loose = [
        c.__name__
        for c in classes
        if not (dataclasses.is_dataclass(c) and c.__dataclass_params__.frozen)
    ]
    assert hadpoly.TaggedPoly in classes and loose == []


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from hadpoly import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_reeve_is_one_constant():
    data = hadpoly.reeve()
    assert data is hadpoly.reeve()
    assert data == hadpoly.ReeveData(
        hadpoly.Poly([1, 0, 7]),
        3,
        hadpoly.Poly([1, 3, 10, 8]),
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 7, 8)),
    )


# -- static guards ------------------------------------------------------------------
#
# Every verdict is exact and sympy is a test-only oracle: no module of the
# package may hold a float constant, name ``float``, import sympy or numpy, or
# use a ``math`` function outside the integer ones below.

SOURCES = sorted((Path(hadpoly.__file__).parent).glob("*.py"))
EXACT_MATH = {"comb", "gcd", "factorial", "isqrt", "lcm"}
ORACLES = {"sympy", "numpy"}


def _inexact_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        uses = []
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            uses = [f"float constant {node.value!r}"]
        elif isinstance(node, ast.Name) and node.id == "float":
            uses = ["name float"]
        elif isinstance(node, ast.Import):
            uses = [f"import {a.name}" for a in node.names if a.name.split(".")[0] in ORACLES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            uses = [
                f"from {node.module} import {a.name}"
                for a in node.names
                if top in ORACLES or (top == "math" and a.name not in EXACT_MATH)
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in EXACT_MATH
        ):
            uses = [f"math.{node.attr}"]
        found += [f"line {node.lineno}: {use}" for use in uses]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_and_no_oracle_in_the_package(path):
    assert _inexact_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_static_guard_flags_each_rule():
    source = (
        "import numpy\nfrom sympy import Poly\nfrom math import sqrt, comb\n"
        "x = 0.5\ny = float(1)\nz = math.log(2)\nw = math.gcd(4, 6)\n"
    )
    assert _inexact_uses(ast.parse(source)) == [
        "line 1: import numpy",
        "line 2: from sympy import Poly",
        "line 3: from math import sqrt",
        "line 4: float constant 0.5",
        "line 5: name float",
        "line 6: math.log",
    ]


# ``Fraction`` is the coefficient type of ``poly``, the interval end of ``roots``
# and the parsed number of ``cli``; every other module works on integer numerators.

FRACTION_MODULES = {"poly", "roots", "cli"}


def _imports_fractions(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "fractions"
        for node in ast.walk(tree)
    )


def test_only_poly_roots_and_cli_import_fractions():
    found = {p.stem for p in SOURCES if _imports_fractions(ast.parse(p.read_text("utf-8")))}
    assert found - FRACTION_MODULES == set()


def test_fractions_guard_flags_each_import_form():
    for source in ("import fractions\n", "from fractions import Fraction\n"):
        assert _imports_fractions(ast.parse(source))
    assert not _imports_fractions(ast.parse("from .poly import Fraction\n"))


# -- private names across modules ------------------------------------------------
#
# A ``_``-prefixed name belongs to its module.  Only the integer kernel of
# ``poly`` (used by ``roots``, and its ``_strip`` by ``ehrhart``), its int and tag
# checks, the series values of ``operators`` (used by ``ehrhart``) and
# Newton's inequality of ``analysis`` (used by ``ehrhart``) cross a module boundary.

PRIVATE_IMPORTS = {
    ("roots", "poly"): {
        "_horner", "_int_derivative", "_int_exact_div", "_int_gcd", "_int_mul", "_int_sub",
        "_prem", "_primitive", "_rational",
    },
    ("operators", "poly"): {"_check_int", "_check_tag", "_horner"},
    ("decomp", "poly"): {"_check_int", "_check_tag", "_is_palindrome"},
    ("analysis", "poly"): {"_check_int", "_check_tag", "_is_palindrome"},
    ("ehrhart", "poly"): {"_check_int", "_check_tag", "_strip"},
    ("ehrhart", "operators"): {"_series_values"},
    ("generators", "poly"): {"_check_int"},
    ("ehrhart", "analysis"): {
        "_log_concave_index", "_newton_index", "_printed", "_require_nonnegative",
    },
}


def _private_imports(module: str, tree: ast.AST) -> list[str]:
    """Each ``_``-prefixed name ``module`` imports from another package module
    and the allowlist does not hold."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            allowed = PRIVATE_IMPORTS.get((module, node.module), set())
            found += [
                f"{module} imports {node.module}.{a.name}"
                for a in node.names
                if a.name.startswith("_") and a.name not in allowed
            ]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_names_stay_in_their_module(path):
    assert _private_imports(path.stem, ast.parse(path.read_text(encoding="utf-8"))) == []


def test_private_import_guard_flags_a_borrowed_helper():
    source = (
        "from .analysis import (\n    PropertyReport,\n    _real_rooted_interlace,\n)\n"
        "from .poly import _primitive\n"
    )
    assert _private_imports("decomp", ast.parse(source)) == [
        "decomp imports analysis._real_rooted_interlace",
        "decomp imports poly._primitive",
    ]
    assert _private_imports("roots", ast.parse("from .poly import _primitive\n")) == []


# -- one tag rule -------------------------------------------------------------------
#
# A numerator tagged d needs d >= 0 and a degree of at most d.  That rule is
# written once, in ``poly._check_tag``: no other module may spell out its
# messages in a string constant or an f-string part.

TAG_MESSAGES = ("reference degree must be nonnegative", "degree overflow")


def _tag_messages(tree: ast.AST) -> list[str]:
    """Each tag message in a string constant or f-string part of ``tree``."""
    return [
        f"line {node.lineno}: {message}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for message in TAG_MESSAGES
        if message in node.value
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_tag_messages_are_written_once_in_poly(path):
    found = [use.partition(": ")[2] for use in _tag_messages(ast.parse(path.read_text("utf-8")))]
    assert sorted(found) == (sorted(TAG_MESSAGES) if path.name == "poly.py" else [])


def test_tag_message_guard_flags_a_copy():
    source = (
        'def check(p, d):\n'
        '    if d < 0:\n'
        '        raise ValueError("reference degree must be nonnegative")\n'
        '    raise ValueError(f"degree overflow: deg p = {p} > d = {d}")\n'
    )
    assert _tag_messages(ast.parse(source)) == [
        "line 3: reference degree must be nonnegative",
        "line 4: degree overflow",
    ]


# -- one bounded int check -----------------------------------------------------------
#
# Every order, axis, power and trial count is an ``int`` with a lower bound, checked
# and worded by ``poly._check_int``: no other module may spell out its type or
# lower-bound message in a string constant or an f-string part.

ONE = Poly([1])

BOUNDED_COUNTS = {
    "is_ulc order": (lambda: hadpoly.is_ulc(ONE, -1), ValueError, "order must be nonnegative"),
    "gamma_expand axis": (
        lambda: hadpoly.gamma_expand(ONE, -1), ValueError, "axis must be nonnegative"
    ),
    "gamma_contract axis": (
        lambda: hadpoly.gamma_contract(ONE, -1), ValueError, "axis must be nonnegative"
    ),
    "defect1_ell d1": (
        lambda: decomp.defect1_ell(ONE, 0, ONE, 1), ValueError, "d1 must be at least 1"
    ),
    "defect1_ell d2": (
        lambda: decomp.defect1_ell(ONE, 1, ONE, 0), ValueError, "d2 must be at least 1"
    ),
    "powers k_max": (lambda: list(ehrhart.powers(0)), ValueError, "k_max must be at least 1"),
    "low_coefficients k_max": (
        lambda: list(ehrhart.low_coefficients(0)), ValueError, "k_max must be at least 1"
    ),
    "counterexample_report k_max": (
        lambda: ehrhart.counterexample_report(0), ValueError, "k_max must be at least 1"
    ),
    "diamond_power k": (
        lambda: operators.diamond_power(ONE, 0), ValueError, "k must be at least 1"
    ),
    "product_f k": (lambda: ehrhart.product_f(0), ValueError, "k must be at least 1"),
    "gen_symmetric axis": (
        lambda: generators.gen_symmetric(SplitMix64(1), -1, 0, 9),
        ValueError,
        "axis must be nonnegative",
    ),
    "gen_symmetric axis type": (
        lambda: generators.gen_symmetric(SplitMix64(1), 1.5, 0, 9),
        TypeError,
        "axis 1.5 is not an int",
    ),
    "gen_symmetric defect": (
        lambda: generators.gen_symmetric(SplitMix64(1), 2, -1, 9),
        ValueError,
        "defect must be nonnegative",
    ),
    "TrialConfig trials": (lambda: TrialConfig(trials=0), ValueError, "trials must be at least 1"),
    "TrialConfig trials type": (
        lambda: TrialConfig(trials=True), TypeError, "trials True is not an int"
    ),
    "TrialConfig max_degree": (
        lambda: TrialConfig(max_degree=0), ValueError, "max_degree must be at least 1"
    ),
    "TrialConfig max_coefficient": (
        lambda: TrialConfig(max_coefficient=-3), ValueError, "max_coefficient must be at least 1"
    ),
    "verify reeve --kmax": (
        lambda: cli.main(["verify", "reeve", "--kmax", "0"]), 2, "k_max must be at least 1"
    ),
    "check ulc --order": (
        lambda: cli.main(["check", "ulc", "--poly", "1", "--order", "-1"]),
        2,
        "order must be nonnegative",
    ),
}


@pytest.mark.parametrize("call, error, message", BOUNDED_COUNTS.values(), ids=BOUNDED_COUNTS)
def test_a_count_out_of_range_is_refused_in_one_wording(call, error, message, capsys):
    if isinstance(error, int):  # a console command: its exit code, and the message on stderr
        assert (call(), *capsys.readouterr()) == (error, "", f"error: {message}\n")
        return
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


COUNT_MESSAGES = ("is not an int", "must be at least", "must be nonnegative")


def _count_messages(tree: ast.AST) -> list[str]:
    """The count messages found in the string constants or f-string parts of ``tree``."""
    return sorted({
        message
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for message in COUNT_MESSAGES
        if message in node.value
    })


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_count_messages_are_written_only_in_poly(path):
    found = _count_messages(ast.parse(path.read_text("utf-8")))
    assert found == (sorted(COUNT_MESSAGES) if path.name == "poly.py" else [])


def test_count_message_guard_flags_a_copy():
    source = (
        'def check(k):\n'
        '    if type(k) is not int:\n'
        '        raise TypeError(f"k {k!r} is not an int")\n'
        '    if k < 1:\n'
        '        raise ValueError(f"k must be at least 1, got {k}")\n'
    )
    assert _count_messages(ast.parse(source)) == ["is not an int", "must be at least"]


# -- traced entry points ------------------------------------------------------------
#
# The benchmark counts calls under ``module:qualname`` keys of the function's
# defining module; a renamed or deleted target would silently read 0 calls.

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _call_metric_targets() -> list[str]:
    for node in ast.parse(BENCH_RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CALL_METRICS" for t in node.targets
        ):
            return sorted(ast.literal_eval(node.value).values())
    raise AssertionError(f"no CALL_METRICS in {BENCH_RUN}")


@pytest.mark.parametrize("target", _call_metric_targets())
def test_bench_call_metric_resolves_to_a_function(target):
    module, _, qualname = target.partition(":")
    obj = importlib.import_module(f"hadpoly.{module}")
    for name in qualname.split("."):
        obj = getattr(obj, name)
    assert inspect.isfunction(obj)
    assert (obj.__module__, obj.__qualname__) == (f"hadpoly.{module}", qualname)


# -- no ring arithmetic on a package path --------------------------------------------
#
# Every operator, check and suite works on integer numerators and value sequences;
# the ring dunders of ``Poly`` serve tests and callers only.

RING_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__divmod__")


@pytest.fixture
def no_ring_arithmetic(monkeypatch):
    def refuse(name):
        def dunder(*args):
            raise AssertionError(f"Poly.{name} called on a package path")
        return dunder

    for name in RING_DUNDERS:
        monkeypatch.setattr(Poly, name, refuse(name))


def test_ring_guard_refuses_each_dunder(no_ring_arithmetic):
    p = Poly([1, 2])
    for call in (lambda: p + p, lambda: p - p, lambda: -p, lambda: p * p,
                 lambda: p ** 2, lambda: divmod(p, p)):
        with pytest.raises(AssertionError, match="called on a package path"):
            call()


def test_package_paths_use_no_ring_arithmetic(no_ring_arithmetic, capsys):
    config = TrialConfig(seed=3, trials=30)
    assert all(run(config).ok for run in harness.SUITES.values())
    harness.scan_logconcave_pair(config)
    assert harness.verify_reeve(12).ok
    f = Poly([1, 3, 9, 1])
    decomp.r_decompose(f, 3)
    decomp.r_decompose(Poly([5]), 0)
    b = operators.f_from_h(Poly([1, 1]), 1)
    decomp.defect1_ell(b, 2, Poly([1]), 1)
    decomp.defect1_ell(Poly(), 1, b, 2)
    operators.diamond_power(f, 3)
    ehrhart.product_f(4)
    commands = [
        ("w", "--poly", "1,2"),
        ("invw", "--poly", "1,0,7", "--degree", "3"),
        ("f", "--poly", "1,0,7", "--degree", "3"),
        ("h", "--poly", "1,3,10,8", "--degree", "3"),
        ("subdiv", "--poly", "1,2,1"),
        ("hadamard", "--a", "1,0,0,1", "--da", "6", "--b", "1,1/2", "--db", "3"),
        ("diamond", "--a", "1,1", "--b", "1,-1/3"),
        ("gamma", "--poly", "1,8,24,36,24,8,1", "--center", "6"),
        ("symdec", "--poly", "1,3,9,1", "--degree", "3"),
        ("check", "realrooted", "--poly", "1,0,7"),
        ("check", "interlacing", "--a", "1,3,3,1", "--b", "0,6"),
    ]
    assert {argv[0] for argv in commands} == set(cli._OPERATORS) | {"symdec", "check"}
    codes = [cli.main(list(argv)) for argv in commands]
    capsys.readouterr()
    assert codes == [0] * 9 + [1, 1]
