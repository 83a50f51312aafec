"""The package's public names (what the README, the demos and the CLI use)
and the layering of its modules."""

import ast
import importlib
import re
import sys
import types
from pathlib import Path

import ds2aw
import ds2aw.errors
import ds2aw.theta

ROOT = Path(__file__).resolve().parents[1]


def test_theta_is_the_module():
    mod = importlib.import_module("ds2aw.theta")
    assert mod is ds2aw.theta
    assert isinstance(ds2aw.theta, types.ModuleType)


def test_all_names_resolve():
    for name in ds2aw.__all__:
        assert getattr(ds2aw, name) is not None, name


def _demo_imports(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ds2aw":
            yield from (alias.name for alias in node.names)


def test_user_imports_are_public():
    used = {}
    for path in sorted((ROOT / "demos").glob("*.py")):
        for name in _demo_imports(path):
            used[name] = path.name
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        for match in re.finditer(r"from ds2aw import \(?([\w\s,]+)\)?", block):
            for name in re.findall(r"\w+", match.group(1)):
                used[name] = "README.md"
        for name in re.findall(r"\bds2aw\.(\w+)\(", block):
            used[name] = "README.md"
    assert used, "no ds2aw imports found"
    missing = {name: where for name, where in used.items() if name not in ds2aw.__all__}
    assert not missing


def test_export_list():
    # the truncation is certified inside the theta module, with no radius to
    # export; quasi-periodicity (against a direct lattice sum) and the
    # reality condition are checked in the tests, not by package functions
    assert sorted(ds2aw.__all__) == [
        "ConfigError", "DS2Error", "DegenerateSpectrumError", "Field",
        "GenericityError", "NumericError", "OutputError", "SpectralData",
        "ThetaParams", "build_spectral_data", "check_genericity",
        "enumerate_modes", "evaluate_grid", "evolve", "first_appearance_estimate",
        "regime",
    ]


# The split-step oracle and the field files must not lean on the finite-gap
# formula they check.
FORMULA_MODULES = {"fieldgen", "curve", "theta", "modes"}


def test_oracle_does_not_import_the_formula():
    for module in ("refsolver", "fieldio"):
        tree = ast.parse((ROOT / "src" / "ds2aw" / f"{module}.py").read_text())
        for node in ast.walk(tree):  # function-level imports too
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            parts = {part for name in names for part in name.split(".")}
            assert not parts & FORMULA_MODULES, (module, ast.unparse(node))


def test_runtime_is_numpy_only():
    # the package needs numpy and the standard library, nothing else
    allowed = {"numpy", "ds2aw"} | set(sys.stdlib_module_names)
    for path in sorted((ROOT / "src" / "ds2aw").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):  # function-level imports too
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue  # a relative import stays inside ds2aw
            assert set(tops) <= allowed, (path.name, ast.unparse(node))


def _coded_errors():
    """(exit code, error code) of every ``*Error("code", ...)`` in src/."""
    for path in sorted((ROOT / "src" / "ds2aw").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args
                    and isinstance(node.args[0], ast.Constant)):
                continue
            cls = getattr(ds2aw.errors, node.func.id, None)
            if isinstance(cls, type) and issubclass(cls, ds2aw.DS2Error):
                yield cls.exit_code, node.args[0].value


def test_readme_exit_codes_match_the_raised_codes():
    # each code raised in src/ is listed under its class's exit code, and
    # each listed code is raised
    readme = (ROOT / "README.md").read_text()
    table = {(int(exit_code), code)
             for exit_code, codes in re.findall(r"^\| (\d) \| (.+) \|$", readme, re.M)
             for code in re.findall(r"`([^`]+)`", codes)}
    assert table and set(_coded_errors()) == table
