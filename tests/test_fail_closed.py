"""The rejection paths of the invariant checks and of the integer product
under `python -O`, which strips every `assert`: they must still reject.  A
coextension runs there too, since its solution-space test was an assert, and
so do forced failures of the closure tests of homology_module and gamma_m,
a free DG module whose differential has the wrong shape, and the shape
checks of the tests' dense solve (tests/dense.py), of Subspace.add and
.contains, of the contraction basis of hom_from_free and of the image
count of a ring map, which were asserts
as well, and the length check of the images a free map is evaluated on.  So
do the last checks that were asserts: variable names against the rank, the
factor removed from an exterior monomial, the algebra and homogeneity of a
polynomial action, the algebra of the torsion part, the Koszul stage index,
and the exponents and invertibility checks of the sample modules.  The index
checks of class coordinates run there too."""
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = r"""
import json, sys
from fractions import Fraction as F
import dense
from koszuldg import algebra as alg, grlin, groups as gr, samples as sm
from koszuldg.modfile import parse_module

out = {"optimize": sys.flags.optimize}
try:
    assert False
    out["asserts"] = "stripped"
except AssertionError:
    out["asserts"] = "kept"

L = alg.ext_algebra(alg.GroupData((2,)))
R2 = alg.poly_algebra(alg.GroupData((2, 2)))
R1 = alg.poly_algebra(alg.GroupData((2,)))


def odd(s, square=0):
    return alg.dg_module(L, {0: 1, 1: 2, 2: 1},
                         {1: [[F(1), F(0)]], 2: [[F(0)], [F(s)]]},
                         [{0: [[F(0)], [F(1)]], 1: [[F(1), F(square)]]}],
                         0, 2, complete_below=True, complete_above=True)

# a module whose coextension along id-T has composites that cancel to
# explicit zeros
M = parse_module("algebra poly 2\nwindow -2 1\ncomplete both\n"
                 "component -2 b\ncomponent -1 s0 s1\ncomponent 1 u\n"
                 "d s0 = -b\nd s1 = -b\nx1 u = -s0 + s1\n")
ID_T = gr.catalog_ring_maps()["id-T"]


def coextend_escaped():
    # the first system solved is the lowest degree, -2; without its one
    # solution the differential out of degree -1 has nowhere to land
    kernel, calls = grlin.LinearSystem.kernel, []

    def dropping(self):
        calls.append(self)
        return [] if len(calls) == 1 else kernel(self)

    grlin.LinearSystem.kernel = dropping
    try:
        gr.coextend_scalars(ID_T, M)
    finally:
        grlin.LinearSystem.kernel = kernel


# x1 sends degree 0 onto degree -2, zero differential
X = alg.dg_module(R1, {0: 1, -2: 1}, {}, [{0: [[F(1)]]}], -2, 0,
                  complete_below=True, complete_above=True)


def forced(name, build):
    # the closure test inside build sees None from alg.<name>
    def run():
        kept = getattr(alg, name)
        setattr(alg, name, lambda *args: None)
        try:
            build()
        finally:
            setattr(alg, name, kept)
    return run


cases = {
    "valid": lambda: odd(-1),
    "leibniz": lambda: odd(1),
    "square_zero": lambda: odd(-1, square=1),
    "d_squared": lambda: alg.dg_module(
        R1, {0: 1, -1: 1, -2: 1}, {0: [[F(1)]], -1: [[F(1, 2)]]}, [{}, ],
        -2, 0, complete_below=True, complete_above=True),
    "commutation": lambda: alg.dg_module(
        R2, {0: 1, -2: 2, -4: 1}, {},
        [{0: [[F(1)], [F(0)]], -2: [[F(0), F(1)]]},
         {0: [[F(0)], [F(1)]], -2: [[F(0), F(2)]]}],
        -4, 0, complete_below=True, complete_above=True),
    "not_chain_map": lambda: alg.ChainMap(
        odd(-1), odd(-1), 0, {0: [[F(1)]]}),
    "not_module_map": lambda: alg.ChainMap(
        alg.lambda_as_module(L), alg.lambda_as_module(L), 0, {1: [[F(1)]]}),
    "product_shape": lambda: grlin._int_product(grlin._int_form([[F(1), F(2)]]),
                                                grlin._int_form([[F(1)]])),
    "solve_shape": lambda: dense.solve([[F(1)]], [F(1), F(5)]),
    "subspace_add_shape": lambda: grlin.Subspace(2).add([F(1), F(0), F(0)]),
    "subspace_contains_shape": lambda: grlin.Subspace(2).contains([F(1)]),
    "homology_d_squared": lambda: grlin.homology_at(*[grlin.GradedMap(
        grlin.GradedVS({0: 1, 1: 1, 2: 1}), grlin.GradedVS({0: 1, 1: 1, 2: 1}),
        -1, {1: [[F(1)]], 2: [[F(1)]]})] * 2, 1),
    "coextend_escaped": coextend_escaped,
    "homology_not_closed": forced("express_in_homology",
                                  lambda: alg.homology_module(X)),
    "gamma_not_closed": forced("_coordinates_form", lambda: alg.gamma_m(X)),
    "free_shape": lambda: alg.FreeDGModule(
        R1, (("a", 0), ("b", -1)), ((R1.zero(), R1.zero()),)),
    "contraction_basis": lambda: alg.hom_from_free(
        alg.free_module(R1, [("a", 0), ("b", 0), ("c", 0)]), alg.residue_field(R1),
        contractions=True),
    "ring_map_images": lambda: gr.ring_map(R2, R1, [R1.gen(0)]),
    # generator of degree 0 on X, an image with index 1 where X has
    # dimension 1: read as it is (degree 0) and acted on (degree -2)
    "evaluate_length": lambda: alg._evaluate(
        alg.free_module(R1, [("g", 0)]), X, [dense.int_column([F(1), F(2)])], 0),
    "evaluate_length_acted": lambda: alg._evaluate(
        alg.free_module(R1, [("g", 0)]), X, [dense.int_column([F(1), F(2)])], -2),
    "apply_length": lambda: X.diff.apply(0, dense.int_column([F(1), F(2)])),
    # class coordinates of a column with an index past the chain space: at
    # a stored piece, and at degree -1, where nothing is stored
    "coordinates_index": lambda: alg.homology(X).pieces[0].class_coordinates((1, {1: 1})),
    "express_index": lambda: alg.express_in_homology(X, alg.homology(X), -1, (1, {0: 1})),
    "poly_varnames": lambda: alg.PolyAlgebra(alg.GroupData((2,)), varnames=("a", "b")),
    "remove_sign": lambda: L.remove_sign(0, ()),
    "action_not_poly": lambda: alg.lambda_as_module(L)._action_poly_form(R1.gen(0), 0),
    "action_inhomogeneous": lambda: X._action_poly_form(R1.gen(0) + R1.one(), 0),
    "gamma_not_poly": lambda: alg.gamma_m(alg.lambda_as_module(L)),
    "koszul_stage_range": lambda: alg.koszul_stage(R1, 2),
    "cyclic_powers": lambda: sm.cyclic_quotient(R1, [0]),
    "inverse_singular": lambda: sm.mat_inverse([[F(1), F(2)], [F(2), F(4)]]),
}
for name, build in cases.items():
    try:
        build()
        out[name] = None
    except Exception as exc:
        out[name] = [type(exc).__name__, isinstance(exc, ValueError), str(exc)]
C = gr.coextend_scalars(ID_T, M)
out["coextend"] = [sorted(C.space.dims.items()),
                   sorted(alg.homology_dims(C).items()),
                   [sorted(a.blocks) for a in C.actions]]
print(json.dumps(out))
"""


def test_rejections_hold_without_asserts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS), env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out.pop("optimize") == 1 and out.pop("asserts") == "stripped"
    assert out.pop("valid") is None
    # the coextension of M along id-T is M again
    assert out.pop("coextend") == [[[-2, 1], [-1, 2], [1, 1]], [[-1, 1], [1, 1]],
                                   [[1]]]
    want = {
        "leibniz": ("InvariantViolation", "d fails Leibniz against generator 0 at degree 1"),
        "square_zero": ("InvariantViolation", "odd generator 0 fails square-zero"),
        "d_squared": ("InvariantViolation", "d.d != 0 at degree 0"),
        "commutation": ("InvariantViolation",
                        "generators 0,1 fail graded commutation at degree 0"),
        "not_chain_map": ("NotChainMap", "map does not commute with differentials"),
        "not_module_map": ("NotChainMap", "map is not linear over the algebra"),
        "product_shape": ("ValueError", "matrix dimensions do not compose: 1x2 times 1x1"),
        "solve_shape": ("ValueError", "right side of length 2 for 1 equations"),
        "subspace_add_shape": ("ValueError", "vector of length 3 in QQ^2"),
        "subspace_contains_shape": ("ValueError", "vector of length 1 in QQ^2"),
        "homology_d_squared": ("CompositionNotZero", "d.d != 0 entering degree 1"),
        "coextend_escaped": ("InvariantViolation", "composite escaped the solution space"),
        "homology_not_closed": ("InvariantViolation", "action image is not a cycle class"),
        "gamma_not_closed": ("InvariantViolation", "torsion part is not closed"),
        "free_shape": ("InvariantViolation",
                       "free differential is not a 2x2 matrix on the basis"),
        "contraction_basis": ("InvariantViolation",
                              "contraction actions need the Koszul basis"),
        "ring_map_images": ("InvariantViolation", "1 images for 2 source generators"),
        "evaluate_length": ("ValueError", "column index 1 for a map from dimension 1"),
        "evaluate_length_acted": ("ValueError",
                                  "column index 1 for a map from dimension 1"),
        "apply_length": ("ValueError", "column index 1 for a map from dimension 1"),
        "coordinates_index": ("ValueError", "column index 1 for a map from dimension 1"),
        "express_index": ("ValueError", "column index 0 for a map from dimension 0"),
        "poly_varnames": ("ValueError", "2 variable names for rank 1"),
        "remove_sign": ("ValueError", "generator 0 is not a factor of ()"),
        "action_not_poly": ("AlgebraMismatch",
                            "polynomial action needs a polynomial algebra"),
        "action_inhomogeneous": ("ValueError", "polynomial action needs homogeneous p"),
        "gamma_not_poly": ("AlgebraMismatch", "the torsion part needs a polynomial algebra"),
        "koszul_stage_range": ("ValueError", "Koszul stage 2 of a rank-1 ring"),
        "cyclic_powers": ("ValueError", "cyclic_quotient needs 1 powers >= 1, not [0]"),
        "inverse_singular": ("ValueError", "matrix not invertible"),
    }
    assert {k: (v[0], v[2]) for k, v in out.items()} == want
    assert all(v[1] for v in out.values()), "every rejection is a ValueError"
