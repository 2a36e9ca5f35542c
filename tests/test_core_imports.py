"""The sampling and scoring core depends on nothing but itself.

``crbm.model`` (the RBM, its sampler and its free energy) imports no other
crbm module, and ``crbm.dynamics`` (history windows and dynamic biases)
imports ``crbm.model`` alone. Each core entry point takes one type, so no
core function tests an argument's type. No other crbm module imports
``crbm.exact``, the enumeration oracles. The modules are parsed, not
imported.
"""

import ast
from pathlib import Path

import pytest

import crbm

PACKAGE = Path(crbm.__file__).resolve().parent


def parsed(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def crbm_imports(module):
    """The crbm modules that ``crbm.<module>`` imports, anywhere in its body."""
    found = set()
    for node in ast.walk(parsed(module)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name.startswith("crbm"))
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add(f"crbm.{node.module}")
            elif node.level:
                found.update(f"crbm.{alias.name}" for alias in node.names)
            elif node.module.startswith("crbm"):
                found.add(node.module)
    return found


def test_model_imports_no_other_crbm_module():
    assert crbm_imports("model") == set()


def test_dynamics_imports_only_model():
    assert crbm_imports("dynamics") == {"crbm.model"}


def test_no_module_but_exact_imports_the_oracles():
    # crbm.exact holds the enumeration oracles over the core; no command,
    # and not crbm/__init__, loads them
    assert crbm_imports("exact") == {"crbm.model"}
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "exact")
    assert "__init__" in modules
    assert [m for m in modules if "crbm.exact" in crbm_imports(m)] == []


@pytest.mark.parametrize("module", ["model", "dynamics"])
def test_no_core_function_tests_an_argument_type(module):
    tested = []
    for func in ast.walk(parsed(module)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
        for call in ast.walk(func):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "isinstance" and call.args
                    and isinstance(call.args[0], ast.Name) and call.args[0].id in names):
                tested.append(f"{func.name}({call.args[0].id})")
    assert not tested, f"crbm.{module} tests argument types: {tested}"
