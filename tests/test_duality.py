import random
from fractions import Fraction as F

import pytest

from koszuldg.grlin import Window
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


def test_roundtrip_random_exterior_modules():
    rng = random.Random(43)
    for g in (T, T2):
        L = alg.ext_algebra(g)
        for _ in range(4):
            N = sm.random_lambda_module(L, rng, max_total=6)
            assert du.roundtrip_check(N).agrees


def test_end_dga_circle_structure():
    e = du.end_dga(R1)
    degs = sorted(b for _, b in e.free.basis)
    assert degs == [-1, 0, 0, 1]
    H = alg.homology(e.realized)
    assert H.dims() == {0: 1, 1: 1}


def test_end_dga_composition_unit_and_leibniz():
    e = du.end_dga(R1)
    ident = e.identity_vector()
    d, sq = e.compose(0, ident, 0, ident)
    assert sq == ident
    # differential is a derivation for composition on sampled elements
    rng = random.Random(3)
    real = e.realized
    for n1 in range(-2, 2):
        for n2 in range(-2, 2):
            if real.dim(n1) == 0 or real.dim(n2) == 0:
                continue
            u = [F(rng.randint(-2, 2)) for _ in range(real.dim(n1))]
            v = [F(rng.randint(-2, 2)) for _ in range(real.dim(n2))]
            _, uv = e.compose(n1, u, n2, v)
            duv = real.diff.apply(n1 + n2, uv)
            du_ = real.diff.apply(n1, u)
            dv = real.diff.apply(n2, v)
            _, t1 = e.compose(n1 - 1, du_, n2, v)
            _, t2 = e.compose(n1, u, n2 - 1, dv)
            sgn = -1 if n1 % 2 else 1
            want = [a + sgn * b for a, b in zip(t1, t2)]
            assert duv == want


@pytest.mark.parametrize("g,expected", [
    (T, {0: 1, 1: 1}),
    (SU2, {0: 1, 3: 1}),
    (T2, {0: 1, 1: 2, 2: 1}),
])
def test_double_centralizer(g, expected):
    rep = du.double_centralizer_check(g)
    assert rep.passed
    assert rep.homology_dims == expected


def test_hom_to_k_algebra_structure():
    h = du.hom_to_k(R2)  # associativity, unit, commutativity asserted inside
    assert {n: h.module.dim(n) for n in h.module.degrees()} == {0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("g", [T, SU2, T2])
def test_cartan_map(g):
    R = alg.poly_algebra(g)
    rep = du.cartan_map(du.end_dga(R))
    assert rep.passed


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


def test_formality_rejects_wrong_homology():
    with pytest.raises(du.NotPolynomialHomology):
        du.formality_map(du.poly_dga(R1, Window(-8, 0)), R2)


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
