"""The public names: every ``__all__`` entry resolves, and the package's list is fixed.

perfbench's tracer picks what it wraps from each module's ``__all__`` and
skips a name that does not resolve, so a stale entry would go unseen.
It also fetches ``OracleSession``'s ORACLE_METHODS by name, with no
default; the round-trip test installs it over one traced CLI run.  The
source test parses the package: chi(g(x)) has one evaluator, the
kernels' table, so only ``_kernels._chi2`` calls ``chi_table`` and
``poly`` holds no array code.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import hiddenpoly
from hiddenpoly import cli
from hiddenpoly.oracle import OracleSession

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SOURCES = sorted(Path(hiddenpoly.__file__).parent.glob("*.py"))

PUBLIC = [
    "AlgorithmParams",
    "BudgetExceeded",
    "DEFAULT_OP_BUDGET",
    "MonicPoly",
    "OracleSession",
    "PrimeModulus",
    "RecoveryReport",
    "brute_force_recover",
    "chi_table",
    "format_poly",
    "is_prime_u64",
    "is_squarefree",
    "parse_poly",
    "poly_from_index",
    "poly_index",
    "query_lower_bound",
    "random_squarefree",
    "short_window_recover",
    "squarefree_count",
    "two_stage_recover",
]


def test_every_all_entry_resolves():
    modules = [hiddenpoly] + [
        importlib.import_module(f"hiddenpoly.{info.name}")
        for info in pkgutil.iter_modules(hiddenpoly.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
    assert hiddenpoly.__all__ == PUBLIC


def test_perfbench_tracer_round_trip():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    owners = [getattr(hiddenpoly, layer) for layer in tracer_module.LAYERS] + [OracleSession]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_module.Tracer()
    tracer.install(hiddenpoly)
    try:
        for method in tracer_module.ORACLE_METHODS:
            assert getattr(OracleSession, method).__wrapped__ is before[-1][method]
        argv = ["recover", "--p", "1009", "--d", "1", "--gamma", "0.9", "--reps", "5"]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "cli.cmd_recover", "reconstruct.two_stage_recover"} <= names
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[name] is value for name, value in saved.items()), owner


def _calls(node, name: str, scope: str):
    # the dotted scope of every call of `name`, by a bare name or as an attribute
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, name, scope)


def test_one_evaluator_of_the_character():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert {"_kernels", "oracle", "charsum", "poly"} <= trees.keys()
    callers = [scope for stem, tree in trees.items() for scope in _calls(tree, "chi_table", stem)]
    assert callers == ["_kernels._chi2"]
    imported = {alias.name for node in ast.walk(trees["poly"]) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(trees["poly"])
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not {name for name in imported if name.split(".")[0] == "numpy"}, imported
