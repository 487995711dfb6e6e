"""The benchmark tracer patches a few methods on their classes by name
(`METHODS` in benchmark/tracer.py); a traced run stops with AttributeError
when one of them has left the package.  A traced run also fails its
coverage self-check when a layer that its workload must reach
(`REQUIRED_LAYERS` in benchmark/run.py) records no call, as when a layer's
work moves into private helpers that the tracer does not wrap.  Both lists
are read from the benchmark's source, so nothing of the benchmark is
imported but the tracer itself, loaded by path."""
import ast
import contextlib
import importlib
import importlib.util
import io
import random
from pathlib import Path

import koszuldg.cli
from koszuldg import adams as ad
from koszuldg import algebra as alg
from koszuldg import duality as du
from koszuldg import resolve as rs
from koszuldg import samples as sm

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACER = BENCHMARK / "tracer.py"


def benchmark_constant(path, name):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"benchmark/{path.name} defines no {name}")


def traced_methods():
    return benchmark_constant(TRACER, "METHODS")


def test_traced_methods_exist_in_the_package():
    methods = traced_methods()
    assert methods
    for module, cls, meth in methods:
        owner = getattr(importlib.import_module(f"koszuldg.{module}"), cls, None)
        # the tracer reads the method from the class's own namespace
        assert owner is not None and meth in vars(owner), f"{module}.{cls}.{meth}"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_required_layer_records_calls_under_the_tracer(tmp_path):
    # each workload's layers must be reached by that workload's own kind of
    # operation: a traced roundtrip run reaches grlin through homology_at alone
    required = benchmark_constant(BENCHMARK / "run.py", "REQUIRED_LAYERS")
    tracer_module = load_tracer()
    R = alg.poly_algebra(alg.GroupData((2,)))
    X = sm.random_torsion_dg_module(R, random.Random(5), max_total=4)
    k = alg.residue_field(R)
    f = tmp_path / "m.kdg"
    f.write_text("algebra poly 2\nwindow -2 0\ncomplete both\n"
                 "component -2 v\ncomponent 0 u\nx1 u = v\n")

    def groups_cli():
        with contextlib.redirect_stdout(io.StringIO()):
            return koszuldg.cli.main(["groups", "shift-check", "--pair", "T<SU(2)",
                                      "--module", str(f), "--format", "json"])

    operations = {
        "roundtrip": lambda: du.roundtrip_check(X).agrees,
        "ext_adams": lambda: (rs.ext_bigraded(k, k, "via_free").total_dim()
                              and ad.e2_page(k, k).degenerate),
        "cli_files": lambda: groups_cli() == 0,
    }
    assert set(required) == set(operations)
    for workload, operation in operations.items():
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            assert operation()
        finally:
            tracer.remove()
        calls = dict(zip(tracer_module.LAYERS, tracer.calls))
        for layer in required[workload]:
            assert calls[layer], f"{workload}: no calls recorded in {layer}"
