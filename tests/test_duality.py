import copy
import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from dense import int_column
from koszuldg.grlin import GradedMap, Window, _column_sum, _column_vector
from koszuldg import algebra as alg
from koszuldg import duality as du
from koszuldg import samples as sm


T = alg.GroupData((2,))
T2 = alg.GroupData((2, 2))
SU2 = alg.GroupData((4,))
R1 = alg.poly_algebra(T)
R2 = alg.poly_algebra(T2)
L1 = alg.ext_algebra(T)
L2 = alg.ext_algebra(T2)


def test_functor_T_of_injective():
    I = alg.basic_injective(R1, Window(0, 10))
    TI = du.functor_T(I)
    H = alg.homology(TI)
    assert H.dims() == {0: 1}
    # trivial exterior action on the single class
    HM = alg.homology_module(TI)
    assert all(not blk for blk in (a.blocks for a in HM.actions))


def test_functor_T_of_residue_field():
    Tk = du.functor_T(alg.residue_field(R2))
    assert {n: Tk.dim(n) for n in Tk.degrees()} == {0: 1, 1: 2, 2: 1}
    assert alg.homology(Tk).dims() == {0: 1, 1: 2, 2: 1}


def test_functor_T_of_zero():
    assert du.functor_T(alg.zero_module(R1)).total_dim() == 0


def test_functor_T_rejects_untorsion():
    Rm = alg.poly_as_module(R1, Window(-6, 0))
    with pytest.raises(alg.NotTorsion):
        du.functor_T(Rm)


def test_functor_S_of_trivial_is_injective():
    iso = du.s_of_trivial_iso(R1, Window(0, 10))  # validates as a chain map
    for n in iso.source.degrees():
        assert iso.source.dim(n) == iso.target.dim(n)
    iso2 = du.s_of_trivial_iso(R2, Window(0, 8))


def test_functor_S_of_algebra_has_residue_homology():
    S = du.functor_S(alg.lambda_as_module(L1), R1, Window(0, 10))
    assert alg.homology(S).dims() == {0: 1}


def test_functor_S_shift_compatible():
    N = alg.trivial_lambda_module(L1)
    S0 = du.functor_S(N, R1, Window(0, 8))
    S1 = du.functor_S(N.shift(2), R1, Window(0, 10))
    assert {n + 2: S0.dim(n) for n in range(0, 7)} == \
        {n: S1.dim(n) for n in range(2, 9)}


def test_k_lambda_invariant():
    kl = du.k_lambda(L2, R2, Window(0, 10))
    assert kl.check()


@pytest.mark.parametrize("g", [T, T2])
def test_roundtrip_trivial_and_free(g):
    L = alg.ext_algebra(g)
    assert du.roundtrip_check(alg.trivial_lambda_module(L)).agrees
    assert du.roundtrip_check(alg.lambda_as_module(L)).agrees


@pytest.mark.parametrize("g", [T, T2])
def test_roundtrip_torsion_side(g):
    R = alg.poly_algebra(g)
    assert du.roundtrip_check(alg.residue_field(R)).agrees


def test_roundtrip_zero():
    rep = du.roundtrip_check(alg.zero_module(L1))
    assert rep.agrees and not rep.left_dims and not rep.right_dims


def _windowed_class(n):
    """One exterior class in degree n, known only on the window n-1..n+1."""
    return alg.dg_module(L1, {n: 1}, {}, [{}], n - 1, n + 1)


@pytest.mark.parametrize("left_deg,right_deg,agrees", [(20, 30, False),
                                                       (20, 20, True)])
def test_roundtrip_fails_closed_on_empty_comparison(monkeypatch, left_deg,
                                                    right_deg, agrees):
    # the two homologies are known on disjoint windows: no degree is
    # compared, which must not count as agreement
    sides = iter([_windowed_class(left_deg), _windowed_class(right_deg)])
    monkeypatch.setattr(du, "homology_module", lambda M, name="": next(sides))
    rep = du.roundtrip_check(alg.residue_field(R1))
    assert rep.agrees is agrees


def test_roundtrip_rejects_a_torsion_module_of_infinite_length():
    # the windowed basic injective is torsion, complete below but not above:
    # the torsion side's own guard rejects it before functor_T is reached
    I = alg.basic_injective(R1, Window(0, 10))
    assert I.is_torsion() and not I.is_finite()
    with pytest.raises(alg.NotTorsion,
                       match="^torsion-side roundtrip needs a finite-length module$"):
        du.roundtrip_check(I)


def test_roundtrip_random_exterior_modules():
    rng = random.Random(43)
    for g in (T, T2):
        L = alg.ext_algebra(g)
        for _ in range(4):
            N = sm.random_lambda_module(L, rng, max_total=6)
            assert du.roundtrip_check(N).agrees


def test_end_dga_circle_structure():
    e = du.end_dga(R1)
    # the generators f[T<-S] are the keys with a constant coefficient
    degs = sorted(n for n in range(-3, 4) for _, alpha in e.keys(n) if not any(alpha))
    assert degs == [-1, 0, 0, 1]
    H = alg.homology(e.module)
    assert H.dims() == {0: 1, 1: 1}


def test_end_dga_composition_unit_and_leibniz():
    e = du.end_dga(R1)
    ident = e.unit
    d, sq = e.product(0, ident, 0, ident)
    assert sq == ident
    # differential is a derivation for composition on sampled elements
    rng = random.Random(3)
    real = e.module
    for n1 in range(-2, 2):
        for n2 in range(-2, 2):
            if real.dim(n1) == 0 or real.dim(n2) == 0:
                continue
            # sampled dense, handed over and read back as integer columns
            u = int_column([F(rng.randint(-2, 2)) for _ in range(real.dim(n1))])
            v = int_column([F(rng.randint(-2, 2)) for _ in range(real.dim(n2))])
            _, uv = e.product(n1, u, n2, v)
            duv = real.diff.apply(n1 + n2, uv)
            du_ = real.diff.apply(n1, u)
            dv = real.diff.apply(n2, v)
            _, t1 = e.product(n1 - 1, du_, n2, v)
            _, t2 = e.product(n1, u, n2 - 1, dv)
            sgn = -1 if n1 % 2 else 1
            m = real.dim(n1 + n2 - 1)
            want = [a + sgn * b for a, b in zip(_column_vector(*t1, m), _column_vector(*t2, m))]
            assert _column_vector(*duv, m) == want


@pytest.mark.parametrize("g,expected", [
    (T, {0: 1, 1: 1}),
    (SU2, {0: 1, 3: 1}),
    (T2, {0: 1, 1: 2, 2: 1}),
])
def test_double_centralizer(g, expected):
    rep = du.double_centralizer_check(g)
    assert rep.passed
    assert rep.homology_dims == expected
    # one relation per square and per pair of contractions, all in homology
    r = g.rank
    assert rep.relations_ok and rep.relations_checked == r * (r + 1) // 2


# the child caps its own address space at 1 GiB before importing anything
RANK_FOUR = r"""
import json, resource
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from koszuldg import algebra as alg, duality as du
rep = du.double_centralizer_check(alg.named_group("T^4"))
print(json.dumps({"passed": rep.passed, "dims": sorted(rep.homology_dims.items())}))
"""


def test_double_centralizer_for_rank_four_fits_in_one_gib():
    # End(kbar) over T^4 is realized on the window -13..6, 63,241 dimensions
    # with 13,192 in one degree; its homology is the exterior algebra on four
    # classes of degree 1.  Kept as dense Fraction cycles, its homology ran
    # out of the 1 GiB cap
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", RANK_FOUR], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    out = json.loads(run.stdout)
    assert out["passed"]
    assert out["dims"] == [[0, 1], [1, 4], [2, 6], [3, 4], [4, 1]]


@pytest.mark.parametrize("forced", [(1, {0: 1}), None])
def test_double_centralizer_relations_fail_closed(monkeypatch, forced):
    # over T the only relation is iota.iota, in degree 2; a nonzero class
    # there, or no class at all, fails the report
    real = du.express_in_homology
    monkeypatch.setattr(du, "express_in_homology",
                        lambda M, H, n, v: forced if n == 2 else real(M, H, n, v))
    rep = du.double_centralizer_check(T)
    assert rep.dims_match and rep.products_independent
    assert not rep.relations_ok and rep.relations_checked == 1 and not rep.passed


@pytest.mark.parametrize("forced", [(1, {}), None])
def test_double_centralizer_products_fail_closed(monkeypatch, forced):
    # over T the contraction class is the one product in degree 1: a zero
    # class there is dependent, and no class at all fails the report too,
    # though the degree then has no class left to compare
    real = du.express_in_homology
    monkeypatch.setattr(du, "express_in_homology",
                        lambda M, H, n, v: forced if n == 1 else real(M, H, n, v))
    rep = du.double_centralizer_check(T)
    assert rep.dims_match and rep.relations_ok
    assert not rep.products_independent and not rep.passed


def test_double_centralizer_rejects_dependent_products(monkeypatch):
    # End(kbar) over T^2 with the products of the two contractions set to
    # zero, in both orders: the exterior relations still hold, and the
    # homology is still the exterior algebra, but the product of the two
    # contraction classes is zero
    real = du.end_dga

    def tampered(R, window=None):
        e = real(R, window)
        iota0, iota1 = contraction_keys(e, 0), contraction_keys(e, 1)

        def rule(a, b):
            mixed = (a in iota0 and b in iota1) or (a in iota1 and b in iota0)
            return None if mixed else e.rule(a, b)

        return dataclasses.replace(e, rule=rule)

    monkeypatch.setattr(du, "end_dga", tampered)
    rep = du.double_centralizer_check(T2)
    assert rep.dims_match and rep.relations_ok and rep.relations_checked == 3
    assert not rep.products_independent and not rep.passed


def test_hom_to_k_algebra_structure():
    h = du.hom_to_k(R2)  # associativity, unit, commutativity asserted inside
    assert {n: h.module.dim(n) for n in h.module.degrees()} == {0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("g", [T, SU2, T2])
def test_cartan_map(g):
    R = alg.poly_algebra(g)
    rep = du.cartan_map(du.end_dga(R))
    assert rep.passed


def test_cartan_map_fails_on_dependent_images_of_the_classes(monkeypatch):
    # a stand-in comparison that sends every column onto a multiple of the
    # first basis vector: the homology dimensions still match, but the two
    # classes of degree 1 over T^2 have dependent images
    e = du.end_dga(R2)
    real = du.cartan_theta

    def collapsed(e, h, deg, v):
        den, col = real(e, h, deg, v)
        return _column_sum((den, {0: sum(col.values())}))
    monkeypatch.setattr(du, "cartan_theta", collapsed)
    rep = du.cartan_map(e)
    assert rep.homology_dims == {0: 1, 1: 2, 2: 1} and not rep.homology_iso


def test_cartan_map_in_a_window_below_the_top_products():
    # over SU(3) the classes of degrees 3 and 5 multiply into degree 8, above
    # the stored window: that product is not compared, the others are
    SU3 = alg.poly_algebra(alg.named_group("SU(3)"))
    rep = du.cartan_map(du.end_dga(SU3, Window(-25, 6)))
    assert rep.passed and rep.homology_dims == {0: 1, 3: 1, 5: 1}


def test_double_centralizer_fails_closed_on_a_window_below_the_contractions():
    # the contraction over T has degree 1, above the window: its vector is
    # empty, as every vector outside the window is, and nothing matches
    rep = du.double_centralizer_check(T, Window(-3, 0))
    assert not rep.dims_match and not rep.products_independent and not rep.passed


def test_formality_on_polynomial_ring_itself():
    out = du.formality_map(du.poly_dga(R2, Window(-8, 0)), R2)
    assert out.passed


def test_formality_koszul_model_to_trivial_ring():
    R0 = alg.poly_algebra(alg.GroupData(()))
    out = du.formality_map(du.koszul_dga(R1, Window(-9, 1)), R0)
    assert out.passed


def test_formality_acyclic_extension():
    A = du.acyclic_extension_dga(R1, Window(-10, 2), -3)
    out = du.formality_map(A, R1)
    assert out.passed
    # the certified degrees run from -9 to 3, one past the module's top: the
    # map is checked on those inside the module's window
    assert list(alg.homology(A.module).certified_range()) == list(range(-9, 4))
    assert out.window == Window(-9, 2)


def test_formality_checks_from_the_floor_of_a_complete_module():
    # over the trivial group R is k, complete below: the certified degrees
    # start one below the window, and the check starts at its floor
    R0 = alg.poly_algebra(alg.GroupData(()))
    A = du.poly_dga(R0, Window(-3, 0))
    assert list(alg.homology(A.module).certified_range()) == list(range(-4, 2))
    out = du.formality_map(A, R0)
    assert out.passed and (out.window.lo, out.window.hi) == (-3, 0)


def test_formality_fails_closed_when_no_degree_is_certified():
    # the Koszul DGA over T in degree 0 alone certifies no homology, so no
    # degree is checked against the trivial group's ring
    A = du.koszul_dga(R1, Window(0, 0))
    assert alg.homology(A.module).certified is None
    out = du.formality_map(A, alg.poly_algebra(alg.GroupData(())))
    assert not out.homology_iso and not out.passed


def test_formality_rejects_wrong_homology():
    with pytest.raises(du.NotPolynomialHomology):
        du.formality_map(du.poly_dga(R1, Window(-8, 0)), R2)


def formality_message(A, R):
    with pytest.raises(du.NotPolynomialHomology) as exc:
        du.formality_map(A, R)
    return str(exc.value)


def test_formality_rejects_exterior_homology():
    # End(kbar) over T has the homology of an exterior algebra: nothing at
    # its lowest certified degree, -6, where R has x^3
    assert formality_message(du.end_dga(R1), R1) == \
        "homology dimension 0 at degree -6, polynomial ring has 1"


def test_formality_rejects_a_window_that_misses_a_generator():
    assert formality_message(du.poly_dga(R1, Window(-1, 0)), R1) == \
        "window misses generator degree -2"


def test_formality_rejects_extra_classes_at_a_generator_degree():
    # over codegrees 2 and 4 with x0.x0 set to zero: every dimension matches
    # R, but x0^2 spans nothing at degree -4, so both classes there are new
    # where one generator is expected
    R = alg.poly_algebra(alg.GroupData((2, 4)))
    A = du.poly_dga(R, Window(-8, 0))

    def rule(a, b):
        return None if a == b == ("1", (1, 0)) else A.rule(a, b)

    assert formality_message(dataclasses.replace(A, rule=rule), R) == \
        "found 2 new generator classes at degree -4, expected 1"


def test_recognize_k_strict():
    out = du.recognize_k(alg.residue_field(R1))
    assert out.passed


def test_recognize_k_with_acyclic_summand():
    for R in (R1, R2):
        k = alg.residue_field(R)
        acyclic = alg.mapping_cone(alg.identity_map(k.shift(-1)))
        out = du.recognize_k(alg.direct_sum(k, acyclic))
        assert out.passed


def test_recognize_k_koszul_shaped_input():
    # a mapping cone presentation of the residue field with extra cells
    R = R1
    k = alg.residue_field(R)
    acyclic = alg.mapping_cone(alg.identity_map(sm.cyclic_quotient(R, [2]).shift(-2)))
    M = alg.direct_sum(k, acyclic)
    out = du.recognize_k(M)
    assert out.passed
    assert alg.homology(alg.mapping_cone(out.comparison)).is_zero()


def test_recognize_k_rejects_wrong_homology():
    with pytest.raises(du.HomologyNotK):
        du.recognize_k(sm.cyclic_quotient(R1, [2]))


def test_contraction_relations():
    # cycles, square zero, anticommutation: asserted by end_dga construction
    for g in (T, T2, SU2):
        du.end_dga(alg.poly_algebra(g))


# ---------------------------------------------------------------------------
# the verdicts of the DGA constructions and of recognition, reached on
# hand-built DGAs and tampered inputs; each tamper touches a rule, a
# differential block or an action block, never a vector, so that the test
# reads the same whatever representation the vectors have


def with_diff_block(M, n, block):
    """A copy of M, unchecked, whose differential has the dense block at n."""
    blocks = M.diff.blocks
    blocks[n] = block
    out = copy.copy(M)
    out.diff = GradedMap(M.space, M.space, -1, blocks)
    return out


def ones(M, n, degree):
    return [[F(1)] * M.dim(n) for _ in range(M.dim(n + degree))]


def contraction_keys(e, i):
    """The basis keys in the support of contraction i of End(kbar)."""
    return {key for key in e.keys(e.module.algebra.codegrees[i] - 1)
            if not any(key[1]) and i in key[0][1]
            and key[0][0] == tuple(j for j in key[0][1] if j != i)}


def invariant_message(check, *args):
    with pytest.raises(alg.InvariantViolation) as exc:
        check(*args)
    return str(exc.value)


def test_end_dga_contraction_checks_reject_tampered_dgas():
    e = du.end_dga(R1)
    du._assert_contractions(e)
    # a differential that moves the unit, then one that moves the contraction
    broken = dataclasses.replace(e, module=with_diff_block(e.module, 0, ones(e.module, 0, -1)))
    assert invariant_message(du._assert_contractions, broken) == \
        "identity of End(kbar) is not a cycle"
    broken = dataclasses.replace(e, module=with_diff_block(e.module, 1, ones(e.module, 1, -1)))
    assert invariant_message(du._assert_contractions, broken) == "contraction 0 is not a cycle"
    e2 = du.end_dga(R2)
    iota0, iota1 = contraction_keys(e2, 0), contraction_keys(e2, 1)
    top = (((), (0, 1)), (0, 0))  # f[0<-12], of degree 2
    assert top in e2.keys(2)

    def squares(a, b):
        return (top, 1) if a == b == (((), (0,)), (0, 0)) else e2.rule(a, b)

    def commutes(a, b):
        hit = e2.rule(a, b)
        return (hit[0], -hit[1]) if hit and a in iota1 and b in iota0 else hit

    assert invariant_message(du._assert_contractions, dataclasses.replace(e2, rule=squares)) \
        == "contraction 0 fails square-zero"
    assert invariant_message(du._assert_contractions, dataclasses.replace(e2, rule=commutes)) \
        == "contractions 0,1 fail anticommutation"


def test_hom_to_k_algebra_checks_reject_tampered_products():
    h2, h3 = du.hom_to_k(R2), du.hom_to_k(alg.poly_algebra(alg.GroupData((2, 2, 2))))

    def negated(h, pairs):
        def rule(a, b):
            hit = h.rule(a, b)
            return (hit[0], -hit[1]) if hit and (a, b) in pairs else hit
        return dataclasses.replace(h, rule=rule)

    unit = negated(h2, {((), s) for s in [(), (0,), (1,), (0, 1)]})
    assert invariant_message(du._assert_homk_algebra, unit) == "unit fails in Hom(kbar,k)"
    # e1.e2 = e2.e1 breaks graded commutativity of two odd classes
    assert invariant_message(du._assert_homk_algebra, negated(h2, {((0,), (1,))})) == \
        "Hom(kbar,k) fails graded commutativity"
    # e1.e23 and e23.e1 negated together commute, but e1.(e2.e3) != (e1.e2).e3
    assert invariant_message(du._assert_homk_algebra,
                             negated(h3, {((0,), (1, 2)), ((1, 2), (0,))})) == \
        "Hom(kbar,k) fails associativity"


def test_formality_rejects_noncommuting_representatives():
    A = du.poly_dga(R2, Window(-8, 0))

    def rule(a, b):
        hit = A.rule(a, b)
        return (hit[0], -hit[1]) if a[1] == (0, 1) and b[1] == (1, 0) else hit

    with pytest.raises(du.NotGradedCommutative) as exc:
        du.formality_map(dataclasses.replace(A, rule=rule), R2)
    assert str(exc.value) == "representatives for generators 0 and 1 do not commute"


def test_formality_rejects_products_that_vanish_in_homology():
    # R over T with x.x set to zero: the homology still has one class in
    # every even certified degree, so the dimensions match, but x^2 goes to
    # zero
    A = du.poly_dga(R1, Window(-8, 0))

    def rule(a, b):
        return None if a == b == ("1", (1,)) else A.rule(a, b)

    out = du.formality_map(dataclasses.replace(A, rule=rule), R1)
    assert alg.homology(A.module).dims() == {0: 1, -2: 1, -4: 1, -6: 1}
    assert not out.homology_iso and not out.passed


def test_formality_rejects_a_monomial_image_off_the_cycles():
    # x.x sent to v, whose differential is u: the image of x^2 is no cycle
    A = du.acyclic_extension_dga(R1, Window(-8, 0), -5)
    assert du.formality_map(A, R1).passed

    def rule(a, b):
        return (("v", (0,)), 1) if a == b == ("1", (1,)) else A.rule(a, b)

    assert invariant_message(du.formality_map, dataclasses.replace(A, rule=rule), R1) == \
        "monomial image is not a cycle"


def test_recognize_k_rejects_a_stage_without_extension():
    # k plus the acyclic cone on R/(x^2) shifted to degrees -3 and -5: the
    # cone's source copies sit in degrees -2 and -4, and the one in degree
    # -2 is no cycle.  x sent from the class of k onto it leaves d(f(e_1))
    # = x.f(e_0) without a solution.
    P = sm.cyclic_quotient(R1, [2]).shift(-3)
    M = alg.direct_sum(alg.residue_field(R1), alg.mapping_cone(alg.identity_map(P)))
    assert du.recognize_k(M).passed
    assert M.dim(0) == M.dim(-2) == 1 and M.diff.block(-2) != [[0]]
    blocks = M.actions[0].blocks
    blocks[0] = [[F(1)]]
    tampered = copy.copy(M)
    tampered.actions = (GradedMap(M.space, M.space, -2, blocks),)
    with pytest.raises(du.LinearSolveFailed) as exc:
        du.recognize_k(tampered)
    assert str(exc.value) == "no extension over the stage-1 cone"
