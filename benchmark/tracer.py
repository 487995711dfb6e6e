"""Outside-in tracer for the koszuldg layers.

The tracer wraps the public functions of each ``koszuldg`` module from
outside the package, so nothing under ``src/`` has to know about it.  A
``from .x import f`` binds ``f`` again in every consumer module, so each
binding of the same function object in every ``koszuldg.*`` namespace is
replaced; function-local imports read the module attribute at call time and
are covered by patching that attribute.  A handful of methods are patched on
their classes.

Every wrapped call records one span (id, parent id, function, start, end,
operation index) in memory.  Self time is the span's duration minus the part
of it covered by child spans, so the layer self times plus the unattributed
time add up to the traced wall time.  Counters are taken at the same
boundaries; elimination counters only on the outermost elimination call, so
that ``kernel_basis`` calling ``rref`` is not counted twice.
"""
from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = (
    "grlin",
    "algebra.invariants",
    "algebra.homology",
    "algebra.build",
    "duality",
    "resolve",
    "adams",
    "groups",
    "modfile",
    "report",
    "cli",
)

MODULES = ("grlin", "algebra", "duality", "resolve", "adams", "groups",
           "modfile", "report", "cli")

# algebra is split by role; every other public algebra function builds
# modules (constructors, sums, cones, Hom, tensors, duals, gamma_m).
ALGEBRA_ROLES = {
    "check_dg_invariants": "algebra.invariants",
    "ChainMap.commutes_with_diff": "algebra.invariants",
    "ChainMap.is_module_map": "algebra.invariants",
    "homology": "algebra.homology",
    "homology_dims": "algebra.homology",
    "homology_module": "algebra.homology",
    "express_in_homology": "algebra.homology",
    "homology_map_rank": "algebra.homology",
    "is_acyclic": "algebra.homology",
    "cone_les_dimension_check": "algebra.homology",
}

# Allocation helpers and predicates: called per entry or per block, they
# would multiply the span count; their time stays with the caller.
GRLIN_HELPERS = {
    "frac", "make_matrix", "zeros", "identity", "copy_matrix", "unit_vector",
    "is_zero_matrix", "is_zero_vector", "vec_add", "vec_sub", "vec_scale",
}

METHODS = (
    ("grlin", "Subspace", "add"),
    ("grlin", "Subspace", "contains"),
    ("grlin", "LinearSystem", "solve"),
    ("grlin", "LinearSystem", "kernel"),
    ("algebra", "ChainMap", "commutes_with_diff"),
    ("algebra", "ChainMap", "is_module_map"),
    ("report", "RunReport", "to_json"),
    ("report", "RunReport", "to_text"),
)

ELIMINATIONS = {"rank", "rref", "kernel_basis", "solve",
                "LinearSystem.solve", "LinearSystem.kernel"}


def _layer_of(module: str, name: str) -> str:
    if module == "algebra":
        return ALGEBRA_ROLES.get(name, "algebra.build")
    return module


def _matrix_size(m, cols=None):
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if m else 0
    nnz = sum(1 for row in m for x in row if x)
    return rows * cols, nnz


class Tracer:
    """Spans and counters for one traced run; install() patches, remove()
    restores every binding it replaced."""

    def __init__(self):
        self.names: list = []        # function index -> "module.qualname"
        self.layer_of: list = []     # function index -> layer index
        # spans, one entry per array: id, parent id, function, start, end, op
        self.spans = tuple(array(t) for t in "qqlddl")
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.counters = {
            "grlin.elim_calls": 0,
            "grlin.elim_entries": 0,
            "grlin.elim_nnz": 0,
            "grlin.elim_max_entries": 0,
            "grlin.matmul_madds": 0,
            "algebra.invariants.checked_dim": 0,
            "algebra.homology.express_calls": 0,
            "algebra.homology.computations": 0,
            "algebra.homology.repeats": 0,
        }
        self.op = -1
        self._seen_homology: dict = {}
        self._stack: list = []
        self._next_id = 0
        self._elim_depth = 0
        self._patched: list = []     # (owner, attribute, original)

    # -- operations --------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self._seen_homology = {}

    def end_op(self):
        self.op = -1
        self._seen_homology = {}

    # -- installation ------------------------------------------------------

    def install(self):
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "koszuldg"
                                            or name.startswith("koszuldg."))]
        for short in MODULES:
            mod = sys.modules[f"koszuldg.{short}"]
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if short == "grlin" and name in GRLIN_HELPERS:
                    continue
                wrapper = self._wrap(obj, short, name)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            self._patched.append((ns, attr, obj))
                            setattr(ns, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"koszuldg.{short}"], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, short, f"{cls_name}.{meth}"))

    def remove(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def _wrap(self, fn, module: str, name: str):
        index = len(self.names)
        self.names.append(f"{module}.{name}")
        layer = LAYERS.index(_layer_of(module, name))
        self.layer_of.append(layer)
        pre = self._counter_hook(name)
        is_elim = name in ELIMINATIONS
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            t_pre = perf_counter()
            if is_elim:
                if tracer._elim_depth == 0:
                    tracer._count_elimination(name, args, kwargs)
                tracer._elim_depth += 1
            elif pre is not None:
                pre(args)
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_elim:
                    tracer._elim_depth -= 1
                duration = end - start
                tracer.self_s[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                if parent is not None:
                    # counter bookkeeping is tracer cost, not the parent's
                    parent[1] += end - t_pre
                for column, value in zip(tracer.spans, (
                        frame[0], parent[0] if parent else -1,
                        index, start, end, tracer.op)):
                    column.append(value)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- counters ----------------------------------------------------------

    def _counter_hook(self, name: str):
        c = self.counters
        if name == "mat_mul":
            def hook(args):
                a, b = args[0], args[1]
                c["grlin.matmul_madds"] += len(a) * len(b) * (len(b[0]) if b else 0)
            return hook
        if name == "check_dg_invariants":
            def hook(args):
                c["algebra.invariants.checked_dim"] += args[0].total_dim()
            return hook
        if name == "express_in_homology":
            def hook(args):
                c["algebra.homology.express_calls"] += 1
            return hook
        if name == "homology":
            def hook(args):
                M = args[0]
                c["algebra.homology.computations"] += 1
                if id(M) in self._seen_homology:
                    c["algebra.homology.repeats"] += 1
                else:
                    # holding M keeps its id from being reused in this op
                    self._seen_homology[id(M)] = M
            return hook
        return None

    def _count_elimination(self, name, args, kwargs):
        if name.startswith("LinearSystem."):
            system = args[0]
            nnz = sum(len(row) for row in system.rows)
            cols = system.num_vars
            if name == "LinearSystem.solve":
                cols += 1
                nnz += sum(1 for x in system.rhs if x)
            entries = len(system.rows) * cols
        elif name == "solve":
            a, b = args[0], args[1]
            entries, nnz = _matrix_size(a)
            entries += len(b)
            nnz += sum(1 for x in b if x)
        elif name == "kernel_basis":
            cols = args[1] if len(args) > 1 else kwargs.get("cols")
            entries, nnz = _matrix_size(args[0], cols)
        else:
            entries, nnz = _matrix_size(args[0])
        c = self.counters
        c["grlin.elim_calls"] += 1
        c["grlin.elim_entries"] += entries
        c["grlin.elim_nnz"] += nnz
        if entries > c["grlin.elim_max_entries"]:
            c["grlin.elim_max_entries"] = entries

    # -- results -----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """calls, self_s and share per layer plus the derived counters."""
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (self.calls[i], "count")
            out[f"{layer}.self_s"] = (self.self_s[i], "s")
            out[f"{layer}.share"] = (self.self_s[i] / wall_s, "ratio")
        c = self.counters
        out["grlin.elim_entries"] = (c["grlin.elim_entries"], "count")
        out["grlin.elim_nnz"] = (c["grlin.elim_nnz"], "count")
        out["grlin.elim_density"] = (
            c["grlin.elim_nnz"] / c["grlin.elim_entries"]
            if c["grlin.elim_entries"] else 0.0, "ratio")
        out["grlin.elim_max_entries"] = (c["grlin.elim_max_entries"], "count")
        out["grlin.matmul_madds"] = (c["grlin.matmul_madds"], "count")
        out["algebra.invariants.checked_dim"] = (
            c["algebra.invariants.checked_dim"], "count")
        out["algebra.homology.express_calls"] = (
            c["algebra.homology.express_calls"], "count")
        out["algebra.homology.repeat_ratio"] = (
            c["algebra.homology.repeats"] / c["algebra.homology.computations"]
            if c["algebra.homology.computations"] else 0.0, "ratio")
        return out

    def unattributed_s(self, wall_s: float) -> float:
        return wall_s - sum(self.self_s)

    def write_spans(self, path, op_names: list):
        """All spans as gzip'd tab-separated text, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tfunction\tlayer\tstart_s\tend_s\top\n")
            for sid, parent, fn, start, end, op in zip(*self.spans):
                fh.write(f"{sid}\t{parent}\t{self.names[fn]}\t"
                         f"{LAYERS[self.layer_of[fn]]}\t{start:.9f}\t{end:.9f}\t"
                         f"{op_names[op] if op >= 0 else '-'}\n")
