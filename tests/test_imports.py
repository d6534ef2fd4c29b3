"""Every name a poislin module imports is used in that module, only polyalg
knows how a jet is stored, and only algebroid how an algebroid jet is.

Deleting code tends to strand the imports it needed; this test reads each
module's syntax tree with the standard `ast` module and names the strays.
The package `__init__` re-exports by design and is left out.  The same
trees show every read of a jet's private attributes outside polyalg: an
attribute access by one of `Jet`'s leading-underscore names, or by a name
the jet state had before it was made one.  Likewise no module but algebroid
reads `AlgebroidJet`'s private names: its dual, its view cache and its
trusted constructor, and no module but cohomology reads `GModule`'s: its
nonzero rows, its trusted constructor and its representation check.  No
module but polyalg names its power table `_Powers`, its first-order
pushforward `_first_order_pushforward`, its readers of the first-order
regime `_tail_degree` and `_change_tail`, or its first-order transport
`_near_identity`: the others transport through `pushforward`,
`compose_jets` and `solve_composed`.  And
the engines' per-degree steps solve on integers:
normalform and algebroid call no rational `LinearSolver` solve.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from poislin.algebroid import AlgebroidJet
from poislin.cohomology import GModule
from poislin.polyalg import Jet

SRC = Path(__file__).resolve().parents[1] / "src" / "poislin"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1)\n") == [
        "line 1: os", "line 2: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_what_they_use(path):
    assert unused_imports(path.read_text()) == []


# the private names of Jet, and those of the jet state it replaced
JET_PRIVATE = {name for name in vars(Jet) if name.startswith("_") and not name.endswith("__")}
JET_PRIVATE |= {"_c", "_fast", "_fast_form", "_raw"}


def jet_internals(source: str, private=JET_PRIVATE) -> list[str]:
    found = sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in private)
    return [f"line {line}: .{attr}" for line, attr in found]


def test_the_check_sees_jet_internals():
    assert {"_num", "_from_state"} <= JET_PRIVATE
    assert jet_internals("jet.terms()\nJet._raw(2, 3, {})\nn = f._num\n") == [
        "line 2: ._raw", "line 3: ._num"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "polyalg.py"],
                         ids=lambda p: p.name)
def test_only_polyalg_reads_jet_internals(path):
    assert jet_internals(path.read_text()) == []


TRANSPORT_PRIVATE = {"_Powers", "_first_order_pushforward", "_tail_degree", "_change_tail",
                     "_near_identity"}


def transport_internals(source: str) -> list[str]:
    """Every line of a source that names polyalg's power table `_Powers`,
    its `_first_order_pushforward`, its readers of the first-order regime
    `_tail_degree` and `_change_tail`, or its `_near_identity`: in an
    import, as a bare name or as an attribute."""
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    found = sorted({(node.lineno, name) for node in ast.walk(ast.parse(source))
                    if (name := getattr(node, field.get(type(node), ""), None))
                    in TRANSPORT_PRIVATE})
    return [f"line {line}: {name}" for line, name in found]


def test_the_check_sees_transport_internals():
    source = ("from .polyalg import (\n    Jet,\n    _Powers,\n)\n"
              "t = polyalg._Powers(args)\npowers = _Powers(phi.components)\n"
              "from .polyalg import _first_order_pushforward as first\n"
              "upper = polyalg._first_order_pushforward(pi, phi, 4)\n"
              "from .polyalg import _tail_degree\nl = polyalg._tail_degree(args, 3, 5)\n"
              "from .polyalg import _change_tail, _near_identity\n"
              "out = polyalg._near_identity(jets, phi, polyalg._change_tail(jets, phi), True)\n")
    assert transport_internals(source) == [
        "line 3: _Powers", "line 5: _Powers", "line 6: _Powers",
        "line 7: _first_order_pushforward", "line 8: _first_order_pushforward",
        "line 9: _tail_degree", "line 10: _tail_degree",
        "line 11: _change_tail", "line 11: _near_identity",
        "line 12: _change_tail", "line 12: _near_identity"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "polyalg.py"],
                         ids=lambda p: p.name)
def test_only_polyalg_names_its_power_table(path):
    assert transport_internals(path.read_text()) == []


ALGEBROID_PRIVATE = {name for name in vars(AlgebroidJet)
                     if name.startswith("_") and not name.endswith("__")}


def test_the_check_sees_algebroid_jet_internals():
    assert {"_dual", "_views", "_from_dual"} <= ALGEBROID_PRIVATE
    source = "A.structure\nAlgebroidJet._from_dual(pi, 3)\nA._views = None\npi = A._dual\n"
    assert jet_internals(source, ALGEBROID_PRIVATE) == [
        "line 2: ._from_dual", "line 3: ._views", "line 4: ._dual"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "algebroid.py"],
                         ids=lambda p: p.name)
def test_only_algebroid_reads_algebroid_jet_internals(path):
    assert jet_internals(path.read_text(), ALGEBROID_PRIVATE) == []


GMODULE_PRIVATE = {name for name in vars(GModule)
                   if name.startswith("_") and not name.endswith("__")}


def gmodule_internals(source: str) -> list[str]:
    """Reads of GModule's private names.  LieAlgebra, the jets and ActionJet
    have a `_trusted` of their own, so that name counts only read off
    `GModule` itself."""
    def of_gmodule(node):
        return node.attr != "_trusted" or (isinstance(node.value, ast.Name)
                                           and node.value.id == "GModule")

    found = sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in GMODULE_PRIVATE
                   and of_gmodule(node))
    return [f"line {line}: .{attr}" for line, attr in found]


def test_the_check_sees_gmodule_internals():
    assert {"_nonzero_rows", "_trusted", "_install", "_check_representation"} <= GMODULE_PRIVATE
    source = ("module.dim\nLieAlgebra._trusted(c)\nGModule._trusted(L, rows, 1, labels)\n"
              "rows = base._nonzero_rows\nmodule._check_representation()\n")
    assert gmodule_internals(source) == [
        "line 3: ._trusted", "line 4: ._nonzero_rows", "line 5: ._check_representation"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cohomology.py"],
                         ids=lambda p: p.name)
def test_only_cohomology_reads_gmodule_internals(path):
    assert gmodule_internals(path.read_text()) == []


RATIONAL_SOLVES = {"solve", "solve_partial", "null_functional", "is_consistent"}


def rational_solves(source: str) -> list[str]:
    found = sorted((node.lineno, node.func.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in RATIONAL_SOLVES)
    return [f"line {line}: .{attr}()" for line, attr in found]


def test_the_check_sees_a_rational_solve():
    source = ("x = solver.solve(b)\ny = solver.solve_numerators(nums, den)\n"
              "lam = cx.coboundary_solver(2).null_functional(b)\nsolve(b)\n")
    assert rational_solves(source) == ["line 1: .solve()", "line 3: .null_functional()"]


@pytest.mark.parametrize("name", ["normalform.py", "algebroid.py"])
def test_the_engines_call_no_rational_solve(name):
    assert rational_solves((SRC / name).read_text()) == []


# -- a lean start-up ----------------------------------------------------------
#
# `import poislin` loads no submodule, and the CLI imports the algebroid
# engine and the corpus only on the paths that run them, so a cold process
# compiles only what its command needs.  Both hold by construction: a
# module-level import would undo them without failing any other test.

LAZY_IN_CLI = {"algebroid", "corpus"}


def eager_imports(source: str, modules=None) -> list[str]:
    """Every module-level relative import of a source, or only those that
    bring in one of `modules` (as `from .m import ...` or `from . import m`)."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        named = {node.module} if node.module else {alias.name for alias in node.names}
        if modules is None or named & modules:
            found.append(f"line {node.lineno}: {', '.join(sorted(named))}")
    return found


def test_the_check_sees_an_eager_import():
    source = ("import json\nfrom .polyalg import Jet\nfrom . import corpus as c\n"
              "def run():\n    from .algebroid import levi_algebroid\n"
              "from .algebroid import AlgebroidJet\n")
    assert eager_imports(source) == ["line 2: polyalg", "line 3: corpus", "line 6: algebroid"]
    assert eager_imports(source, LAZY_IN_CLI) == ["line 3: corpus", "line 6: algebroid"]


def test_the_package_imports_no_submodule_eagerly():
    assert eager_imports((SRC / "__init__.py").read_text()) == []


def test_the_cli_imports_the_algebroid_engine_and_the_corpus_lazily():
    assert eager_imports((SRC / "cli.py").read_text(), LAZY_IN_CLI) == []


def _fresh(code: str):
    """Run `code` in a fresh interpreter that imports poislin from this
    checkout; return what it leaves in the variable `out`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", f"{code}\nprint(repr(out))"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('poislin.'))"


def test_importing_the_package_loads_no_submodule():
    out = _fresh(f"import sys, poislin\nbefore = {LOADED}\npoislin.clear_caches()\n"
                 f"out = before, {LOADED}, poislin.__version__")
    assert out == ([], [], "0.1.0")


def test_every_public_name_resolves_to_its_submodule_attribute():
    out = _fresh(
        "import sys, poislin\n"
        "out = [(name, type(obj).__name__) for name in poislin.__all__\n"
        "       if (obj := getattr(poislin, name)) is not getattr(\n"
        "           sys.modules[getattr(obj, '__module__', 'poislin')], name)]\n"
        "from poislin import *\n"
        "missing = [name for name in poislin.__all__ if name not in globals()]\n"
        "unlisted = sorted(set(poislin.__all__) - set(dir(poislin)))\n"
        "try:\n    poislin.no_such_name\nexcept AttributeError:\n    pass\n"
        "else:\n    missing.append('no_such_name resolved')\n"
        "from poislin import cli, linalg\n"
        "out = out, missing, unlisted, cli.main is poislin.cli.main, poislin.linalg is linalg")
    assert out == ([], [], [], True, True)


def test_the_cli_compiles_polyalg_before_the_other_engines():
    """polyalg, the largest module, is the first the CLI imports, so its
    compilation comes before the rest are loaded and sets a lower peak:
    the first imports to complete, as sys.modules orders them, are polyalg's
    one dependency and polyalg."""
    assert _fresh("import sys, poislin.cli\n"
                  "out = [m for m in sys.modules if m.startswith('poislin.')][:2]") == [
        "poislin.linalg", "poislin.polyalg"]


@pytest.mark.parametrize("name, loads_algebroid", [
    ("so3-linear", False), ("gl2-levi", False), ("guillemin-sternberg-action", False),
    ("so3-coadjoint-algebroid", True)])
def test_a_command_loads_only_the_engines_it_runs(tmp_path, name, loads_algebroid):
    """`python -m poislin COMMAND FILE`, run to its end: the Poisson and
    action files never load the algebroid engine or the corpus."""
    from poislin import corpus

    entry = corpus.get(name)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(entry.problem(3)))
    argv = ["poislin", entry.command, str(path), "--out", str(tmp_path / "report.json")]
    loaded = _fresh(f"import runpy, sys\nsys.argv = {argv!r}\n"
                    "try:\n    runpy.run_module('poislin', run_name='__main__', alter_sys=True)\n"
                    "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
                    f"out = {LOADED}")
    assert json.loads((tmp_path / "report.json").read_text())["verified"] is True
    assert "poislin.corpus" not in loaded
    assert ("poislin.algebroid" in loaded) is loads_algebroid
