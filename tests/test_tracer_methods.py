"""The benchmark tracer patches a few methods on their classes by name
(`METHODS` in benchmark/tracer.py); a traced run stops with AttributeError
when one of them has left the package.  The list is read from the tracer's
source, so nothing of the benchmark is imported."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def traced_methods():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["METHODS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("benchmark/tracer.py defines no METHODS")


def test_traced_methods_exist_in_the_package():
    methods = traced_methods()
    assert methods
    for module, cls, meth in methods:
        owner = getattr(importlib.import_module(f"koszuldg.{module}"), cls, None)
        # the tracer reads the method from the class's own namespace
        assert owner is not None and meth in vars(owner), f"{module}.{cls}.{meth}"
