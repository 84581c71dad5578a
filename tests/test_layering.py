"""The package's import structure, read from the source with `ast`: no
module imports another module's private name, the graph of imports
between the package's modules has no cycle, every name a module imports
is read in it, the exact layers `quintic` and `structure` import no float
conversion (`orbits` evaluates what they certify), the Lyapunov stage loop
is reached from `lyapunov` alone, caller text is read by `qpoly` alone, and
no module imports scipy.  Imports inside functions count too.  Code is
generated and run by `orbits.compile_rhs` alone.  Every module and test
parses with the grammar of the `requires-python` floor, and no test helper
is defined in two files under tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isoquintic"


def imports(path):
    """(imported sibling module, imported names) for each import in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:  # from .m import name
                yield node.module, [alias.name for alias in node.names]
            else:  # from . import m
                yield from ((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] == PACKAGE.name and len(parts) > 1:
                yield parts[1], [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE.name and len(parts) > 1:
                    yield parts[1], []


def graph(package):
    """Module -> (sibling it imports -> names it imports from there)."""
    out = {}
    for path in sorted(package.glob("*.py")):
        edges = out[path.stem] = {}
        for target, names in imports(path):
            if target != path.stem:
                edges.setdefault(target, []).extend(names)
    return out


def private_imports(package):
    return [(module, target, name)
            for module, edges in graph(package).items()
            for target, names in edges.items()
            for name in names if name.startswith("_")]


def find_cycle(package):
    """One import cycle as a list of modules, or None."""
    edges = graph(package)
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for target in sorted(edges.get(module, {})):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    return next(filter(None, map(visit, sorted(edges))), None)


def unused_imports(package):
    """(module, name) for each name an import binds that nothing in the
    module reads; the strings of a module's __all__ count as reads."""
    out = []
    for path in sorted(package.glob("*.py")):
        bound, read = set(), set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    bound.update(alias.asname or alias.name.split(".")[0]
                                 for alias in node.names)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                read.update(c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant))
        out.extend((path.stem, name) for name in sorted(bound - read))
    return out


def absolute_imports(path):
    """The top-level module of each absolute import in a file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
    return out


def definers(package, name):
    """The modules that define `name`: a function, a class or an assigned
    name, at any depth."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name == name
                    or isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Store)):
                out.append(path.stem)
                break
    return out


def float_imports(path):
    """The float conversions a module imports: `math`, and
    `qpoly.to_float`."""
    out = [m for m in absolute_imports(path) if m == "math"]
    out.extend(f"qpoly.{name}" for target, names in imports(path)
               if target == "qpoly" for name in names if name == "to_float")
    return out


def stage_loop_uses(path):
    """How a module reaches `lyapunov.stage_constants`: by importing the
    name, or by reading it as an attribute."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            out.extend(f"import {alias.name}" for alias in node.names
                       if alias.name == "stage_constants")
        elif isinstance(node, ast.Attribute) and node.attr == "stage_constants":
            out.append(f"attribute {node.attr}")
    return out


def code_runners(package):
    """(module, top-level definition or None) for each use of the builtins
    exec, eval and compile: by name, or as an attribute of `builtins`."""
    runners = {"exec", "eval", "compile"}
    out = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id in runners
                        or isinstance(node, ast.Attribute)
                        and node.attr in runners
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "builtins"):
                    out.append((path.stem, owner))
    return out


def floor_version(pyproject):
    """(major, minor) of `requires-python = ">=major.minor"`, read without
    tomllib, which Python 3.10 lacks."""
    text = pyproject.read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    return int(found[1]), int(found[2])


def newer_grammar(paths, version):
    """The names of the files among `paths` that do not parse with the
    grammar of Python `version`."""
    out = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), feature_version=version)
        except SyntaxError:
            out.append(path.name)
    return out


def shared_helpers(directory):
    """Each top-level function or class name, other than pytest's test*
    and Test*, that two or more files in `directory` define, with the
    files."""
    files = {}
    for path in sorted(directory.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith(("test", "Test"))):
                files.setdefault(node.name, []).append(path.name)
    return {name: found for name, found in files.items() if len(found) > 1}


def test_reads_the_package():
    edges = graph(PACKAGE)
    assert {"qpoly", "lyapunov", "quintic", "structure", "orbits", "cli"} <= set(edges)
    assert set(edges["structure"]) == {"qpoly"}
    assert set(edges["qpoly"]) == set()


def test_no_private_name_crosses_modules():
    assert private_imports(PACKAGE) == []


def test_import_graph_is_acyclic():
    assert find_cycle(PACKAGE) is None


def test_every_import_is_read():
    assert unused_imports(PACKAGE) == []


def test_exact_modules_import_no_floats():
    for module in ("quintic", "structure"):
        assert float_imports(PACKAGE / f"{module}.py") == [], module


def test_no_module_imports_scipy():
    """scipy is a test extra: `orbits` steps and locates its events on
    numpy alone."""
    for path in sorted(PACKAGE.glob("*.py")):
        assert "scipy" not in absolute_imports(path), path.stem


def test_float_check_catches_math_and_to_float(tmp_path):
    path = tmp_path / "quintic.py"
    path.write_text("import math\nfrom math import atan\n"
                    "def f():\n    from .qpoly import Poly, to_float\n")
    assert float_imports(path) == ["math", "math", "qpoly.to_float"]


def test_one_reader_of_caller_text():
    """`qpoly` alone turns a caller's text into a number: the CLI has no
    `Fraction` to call, and no second `parse_rational`."""
    assert "fractions" not in absolute_imports(PACKAGE / "cli.py")
    assert definers(PACKAGE, "parse_rational") == ["qpoly"]


def test_reader_check_catches_a_second_reader(tmp_path):
    pkg = tmp_path / PACKAGE.name
    pkg.mkdir()
    (pkg / "qpoly.py").write_text("def parse_rational(text):\n    pass\n")
    (pkg / "cli.py").write_text(
        "import fractions.x\n"
        "def f():\n    from fractions import Fraction\n"
        "    def parse_rational(text):\n        return Fraction(text)\n")
    (pkg / "quintic.py").write_text("parse_rational = float\n")
    assert absolute_imports(pkg / "cli.py") == ["fractions", "fractions"]
    assert definers(pkg, "parse_rational") == ["cli", "qpoly", "quintic"]


def test_one_code_generator():
    """The generated right-hand side is the package's one `exec`: its
    source holds generated names and int exponents, never caller text."""
    assert code_runners(PACKAGE) == [("orbits", "compile_rhs")]


def test_code_check_catches_a_second_runner(tmp_path):
    """Module level, methods and aliases count; `re.compile` does not."""
    pkg = tmp_path / PACKAGE.name
    pkg.mkdir()
    (pkg / "orbits.py").write_text(
        "def compile_rhs(sys):\n    exec('x = 1', {})\n")
    (pkg / "qpoly.py").write_text(
        "import builtins, re\nWORD = re.compile('[a-z]+')\n"
        "value = eval('1')\n"
        "class Parser:\n    def run(self, text):\n"
        "        return builtins.compile(text, '<text>', 'eval')\n"
        "def parse(text, run=exec):\n    pass\n")
    assert code_runners(pkg) == [("orbits", "compile_rhs"), ("qpoly", None),
                                 ("qpoly", "Parser"), ("qpoly", "parse")]


def test_quintic_runs_no_stage_loop():
    """classify reads R; the stage loop belongs to `pl_constants`."""
    assert stage_loop_uses(PACKAGE / "quintic.py") == []


def test_stage_loop_check_catches_an_import(tmp_path):
    path = tmp_path / "quintic.py"
    path.write_text("from .lyapunov import check_count, stage_constants\n"
                    "def f():\n    from . import lyapunov\n"
                    "    return lyapunov.stage_constants\n")
    assert stage_loop_uses(path) == ["import stage_constants",
                                     "attribute stage_constants"]


def test_check_catches_an_unused_import(tmp_path):
    pkg = tmp_path / PACKAGE.name
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport math as m\n"
        "from decimal import Context, Decimal\n"
        "from .b import f, g\n"
        "__all__ = ['g']\n"
        "def h(x: Decimal):\n    from . import c\n    return f(m.pi)\n")
    assert unused_imports(pkg) == [("a", "Context"), ("a", "c"), ("a", "os")]


def test_checks_catch_a_cycle_and_a_private_import(tmp_path):
    """Both checks on a package that breaks both rules, the cycle closed by
    a function-level import."""
    pkg = tmp_path / PACKAGE.name
    pkg.mkdir()
    (pkg / "a.py").write_text("from .b import _helper\n")
    (pkg / "b.py").write_text("def f():\n    from . import c\n")
    (pkg / "c.py").write_text(f"import {PACKAGE.name}.a\n")
    assert private_imports(pkg) == [("a", "b", "_helper")]
    assert find_cycle(pkg) == ["a", "b", "c", "a"]


def test_sources_parse_at_the_floor():
    """Checked under any newer interpreter, so that a construct the floor
    cannot parse fails before it reaches a floor run."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 10
    assert newer_grammar(paths, floor_version(ROOT / "pyproject.toml")) == []


def test_grammar_check_catches_a_newer_construct(tmp_path):
    (tmp_path / "pyproject.toml").write_text('requires-python = ">=3.10"\n')
    (tmp_path / "a.py").write_text("try:\n    pass\n"
                                   "except* ValueError:\n    pass\n")
    (tmp_path / "b.py").write_text("match 1:\n    case _:\n        pass\n")
    assert floor_version(tmp_path / "pyproject.toml") == (3, 10)
    assert newer_grammar(sorted(tmp_path.glob("*.py")), (3, 10)) == ["a.py"]


def test_each_test_helper_has_one_home():
    """A helper two test files need lives in tests/conftest.py."""
    assert shared_helpers(ROOT / "tests") == {}


def test_helper_check_catches_a_duplicate(tmp_path):
    """Methods, nested functions and pytest's own names do not count."""
    (tmp_path / "conftest.py").write_text(
        "def numeric(**kw):\n    pass\nclass Box:\n    pass\n"
        "def helper():\n    pass\ndef test_x():\n    pass\n")
    (tmp_path / "test_a.py").write_text(
        "def numeric(**kw):\n    pass\nclass Box:\n    pass\n"
        "class TestA:\n    def helper(self):\n        pass\n"
        "def test_x():\n    def helper():\n        pass\n")
    assert shared_helpers(tmp_path) == {"numeric": ["conftest.py", "test_a.py"],
                                        "Box": ["conftest.py", "test_a.py"]}
