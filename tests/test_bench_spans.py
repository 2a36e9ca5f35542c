"""Every span the benchmark's tracer installs names a function crbm has.

``bench/tracing.py`` finds its spans by function name, so renaming a traced
function would silently zero a per-layer metric. The tracer is parsed, not
imported or run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import crbm

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def span_function_names():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no SPANS table in {TRACING}")


def crbm_function_names():
    """__name__ of every crbm callable bound to a crbm module attribute, as
    the tracer's install sees them."""
    modules = [crbm] + [importlib.import_module(f"crbm.{info.name}")
                        for info in pkgutil.iter_modules(crbm.__path__)]
    return {getattr(value, "__name__", None)
            for mod in modules for value in vars(mod).values()
            if callable(value) and getattr(value, "__module__", "").startswith("crbm")}


def test_every_span_names_a_crbm_function():
    names = span_function_names()
    assert len(names) >= 30
    missing = sorted(set(names) - crbm_function_names())
    assert not missing, f"bench/tracing.py SPANS names no crbm function: {missing}"
