"""Dense Fraction matrices stay at the API edges.

The package computes on integer block forms.  This test parses every module
of the package and fails on a call to `.block(`, `mat_mul`, `transpose`,
`zeros(` or `action_poly_block` outside the edges listed in ALLOWED: the
dense views of GradedMap and ChainMap, and the dense polynomial action.
Module files are parsed into and printed from integer forms.  A new dense
read is then a visible edit of this list, not a second representation
growing back unnoticed.  A second test
keeps the summing of placed integer forms (`_assemble`) in the summed-module
builder and a listed few readers, a third keeps the construction of
linear systems in the one writer of the equations of module maps and the
one system of another shape, and a fourth lists the rank takers of
`resolve`, so both resolutions keep one exactness certificate, and a fifth
lists the one reader that back-substitutes an elimination.  Two more
keep the writing of equations in map_system and the sites that add their
side conditions to its system, and keep the Hom spaces of the injective Ext
route, the solutions of linear systems and class coordinates on integer
columns: no Fraction is made on those paths.  The last guard
keeps vectors on integer columns: a dense vector is made or read only at
the edges listed in VECTOR_EDGES.  The dense wrappers that only the tests
call live in tests/dense.py, and a guard checks that they left grlin."""
import ast
from pathlib import Path

from koszuldg import algebra as alg
from koszuldg import grlin

SRC = Path(__file__).resolve().parents[1] / "src" / "koszuldg"
GUARDED = {"block", "mat_mul", "transpose", "zeros", "action_poly_block"}
# (module, enclosing function, name called)
ALLOWED = {
    ("grlin", "GradedMap.block", "zeros"),
    ("grlin", "GradedMap.blocks", "block"),
    ("algebra", "DGModule.action_poly_block", "zeros"),
    ("algebra", "ChainMap.block", "block"),
}


def dense_calls(node, module, scope, found, guarded=GUARDED):
    """Append (module, enclosing function, name, line) for every call of a
    name in guarded under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + [child.name]
        elif isinstance(child, ast.Call):
            f = child.func
            name = (f.attr if isinstance(f, ast.Attribute)
                    else f.id if isinstance(f, ast.Name) else None)
            if name in guarded:
                found.append((module, ".".join(scope), name, child.lineno))
        dense_calls(child, module, inner, found, guarded)
    return found


def test_dense_blocks_only_at_the_api_edges():
    found = []
    for path in sorted(SRC.glob("*.py")):
        dense_calls(ast.parse(path.read_text(), filename=str(path)), path.stem, [], found)
    outside = [c for c in found if c[:3] not in ALLOWED]
    assert not outside, f"dense calls outside the API edges: {outside}"
    # every edge listed is still one, so the list shrinks with the code
    assert {c[:3] for c in found} == ALLOWED


def test_guard_sees_calls_in_nested_scopes():
    src = ("def f(M):\n    def g():\n        return M.diff.block(0)\n"
           "    return zeros(1, 1), transpose([])\n")
    found = dense_calls(ast.parse(src), "m", [], [])
    assert [c[1:3] for c in found] == [("f.g", "block"), ("f", "zeros"), ("f", "transpose")]


def test_dense_helpers_left_the_package():
    for name in ("mat_mul", "transpose", "identity", "is_zero_matrix", "rank", "rref",
                 "kernel_basis", "solve", "coordinates", "unit_vector", "_int_column",
                 "_block_names"):
        assert not hasattr(grlin, name), name
    for name in ("representatives", "cycle_basis", "boundary_basis"):
        assert not hasattr(grlin.HomologyPiece, name), name
    assert not hasattr(grlin.MapBasis, "entries")


# Sums, cones, Hom, twisted tensors, totalizations and r'_! are built by
# algebra._summed alone; the other blocks summed from placed forms are read
# in two degrees, per internal degree or one column at a time.
SUMMED = {
    ("algebra", "_summed"),
    ("algebra", "express_in_homology"),
    ("resolve", "_cone_classes"),
    ("resolve", "tor_betti"),
    ("resolve", "_ext_connecting_free"),
    ("groups", "_commuting_lifts"),
}


def test_modules_are_summed_by_one_builder():
    found = []
    for module in ("algebra", "resolve", "groups"):
        path = SRC / f"{module}.py"
        dense_calls(ast.parse(path.read_text(), filename=str(path)), module, [], found,
                    {"_assemble"})
    outside = [c for c in found if c[:2] not in SUMMED]
    assert not outside, f"blocks assembled outside the summed-module builder: {outside}"
    # every site listed still assembles, so the list shrinks with the code
    assert {c[:2] for c in found} == SUMMED


# The equations of every space of module maps (chain maps, module maps, the
# injective hull, the Adams lift, coextension, the commuting lifts of the
# derived dual) are written by algebra.map_system; recognize_k builds a
# system of another shape.
SYSTEMS = {
    ("algebra", "map_system"),
    ("duality", "recognize_k"),
}


def test_module_map_equations_have_one_writer():
    found = []
    for path in sorted(SRC.glob("*.py")):
        dense_calls(ast.parse(path.read_text(), filename=str(path)), path.stem, [], found,
                    {"LinearSystem"})
    outside = [c for c in found if c[:2] not in SYSTEMS]
    assert not outside, f"linear systems built outside map_system: {outside}"
    # one construction per listed site, and every site listed still builds one
    assert sorted(c[:2] for c in found) == sorted(SYSTEMS)


# Ranks in resolve are taken by the Betti oracle, by the one exactness
# certificate of the free and the injective resolution, and by the two Ext
# routes; a certifier counting ranks of its own shows up here.
RANKED = [
    ("resolve", "_certify_exact"),
    ("resolve", "_ext_via_free"),
    ("resolve", "_ext_via_free"),
    ("resolve", "_ext_via_injective"),
    ("resolve", "_ext_via_injective"),
    ("resolve", "tor_betti"),
]


def test_resolutions_share_one_exactness_certificate():
    path = SRC / "resolve.py"
    found = dense_calls(ast.parse(path.read_text(), filename=str(path)), "resolve", [], [],
                        {"_form_rank"})
    assert sorted(c[:2] for c in found) == RANKED


# An elimination is read from its forward echelon (_echelon), null vectors,
# solutions and coordinates being back-solved from it (_cycle); only the
# reader of every reduced row back-substitutes: the class-coordinate solver.
# A second back-substituted reader shows up here.
REDUCED = [
    ("grlin", "HomologyPiece.class_coordinates"),
]


def test_only_the_readers_of_every_row_back_substitute():
    found = []
    for path in sorted(SRC.glob("*.py")):
        dense_calls(ast.parse(path.read_text(), filename=str(path)), path.stem, [], found,
                    {"_reduced"})
    assert sorted(c[:2] for c in found) == REDUCED


# Equations are written into a LinearSystem (LinearSystem.equate) by
# map_system, which writes those of every space of module maps, by the sites
# that add a side condition to map_system's system (the injective hull's
# socle pairing, the Adams lift's representatives, the commuting lifts'
# augmentation and commutation), and by recognize_k; nothing in the package
# writes equations one coefficient at a time (add_equation).
EQUATIONS = [
    ("adams", "injective_hull_embedding"),
    ("adams", "lift_through_homology"),
    ("algebra", "map_system"),
    ("duality", "recognize_k"),
    ("groups", "_commuting_lifts"),
    ("groups", "_commuting_lifts"),
]


def test_map_system_writes_the_equations_of_module_maps():
    found = []
    for path in sorted(SRC.glob("*.py")):
        dense_calls(ast.parse(path.read_text(), filename=str(path)), path.stem, [], found,
                    {"equate", "add_equation"})
    assert sorted(c[:2] for c in found) == EQUATIONS
    assert {c[2] for c in found} == {"equate"}


# The Hom spaces of the injective Ext route, their equations and their
# composites, the solutions of linear systems, the chain maps cut from them
# and class coordinates stay on integer columns and forms.
INTEGER_ONLY = [
    ("algebra", "map_system"),
    ("resolve", "module_hom_space"),
    ("algebra", "_express_composites"),
    ("resolve", "_ext_via_injective"),
    ("resolve", "_ext_connecting_inj"),
    ("grlin", "LinearSystem.solve"),
    ("algebra", "chain_map_from_blocks"),
    ("grlin", "HomologyPiece.class_coordinates"),
]


def definition(tree, dotted):
    """The function or method of a module's tree named by its dotted path."""
    node = tree
    for name in dotted.split("."):
        node = next(child for child in ast.iter_child_nodes(node)
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name)
    return node


def test_the_injective_route_makes_no_fraction():
    trees = {m: ast.parse((SRC / f"{m}.py").read_text()) for m, _ in INTEGER_ONLY}
    for module, name in INTEGER_ONLY:
        fn = definition(trees[module], name)
        found = dense_calls(fn, module, [name], [], {"Fraction", "_entry", "frac"})
        assert not found, f"rational entries made in {module}.{name}: {found}"


def test_linear_systems_keep_what_the_benchmark_tracer_reads():
    # benchmark/tracer.py counts the entries of each system it sees solved
    # from rows, rhs and num_vars
    R = alg.poly_algebra(alg.GroupData((2,)))
    M = alg.direct_sum(alg.residue_field(R), alg.basic_injective(R, grlin.Window(0, 2)))
    sys, missing = alg.map_system(M, M, 0, range(1))
    assert not missing and sys.num_vars == 5 and len(sys.rows) == len(sys.rhs) == 2
    assert all(0 <= i < sys.num_vars for row in sys.rows for i in row)
    for name in ("kernel", "solve"):
        assert name in vars(grlin.LinearSystem)


# Vectors are integer columns (den, {index: int}) from elimination to every
# reader, solutions, class coordinates and spans included; dense vectors
# are made or read only at these edges: the dense blocks of GradedMap
# (_dense) and Subspace, which has no caller in the package.
VECTOR_NAMES = {"_column_vector", "_dense_vector", "_int_column", "unit_vector",
                "is_zero_vector", "representatives", "cycle_basis", "boundary_basis",
                "Subspace", "_block_names"}
VECTOR_EDGES = {
    ("grlin", "_dense", "_column_vector"),
    ("grlin", "Subspace.residue", "_column_vector"),
}


def vector_reads(node, module, scope, found):
    """Append (module, enclosing function, name, line) for every read of a
    name in VECTOR_NAMES under node: a call, a function handed on, or an
    attribute such as a piece's `.representatives`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + [child.name]
        elif isinstance(child, (ast.Name, ast.Attribute)):
            name = child.id if isinstance(child, ast.Name) else child.attr
            if name in VECTOR_NAMES and isinstance(child.ctx, ast.Load):
                found.append((module, ".".join(scope), name, child.lineno))
        vector_reads(child, module, inner, found)
    return found


def test_vectors_stay_integer_columns_but_at_the_edges():
    found = []
    for path in sorted(SRC.glob("*.py")):
        vector_reads(ast.parse(path.read_text(), filename=str(path)), path.stem, [], found)
    outside = [c for c in found if c[:3] not in VECTOR_EDGES]
    assert not outside, f"dense vectors outside the edges: {outside}"
    # every edge listed still reads one, so the list shrinks with the code
    assert {c[:3] for c in found} == VECTOR_EDGES
    src = ("def socle(M):\n    vecs = [_column_vector(1, c, 2) for c in cols]\n"
           "    span = grlin.Subspace(2, vecs)\n"
           "    return map(unit_vector, H.representatives)\n")
    assert [c[1:3] for c in vector_reads(ast.parse(src), "adams", [], [])] == [
        ("socle", "_column_vector"), ("socle", "Subspace"), ("socle", "unit_vector"),
        ("socle", "representatives")]
