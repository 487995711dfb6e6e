import random
from fractions import Fraction as F

import pytest

from koszuldg.grlin import Window, is_zero_matrix
from koszuldg import algebra as alg
from koszuldg import samples as sm


T = alg.GroupData((2,))
T2 = alg.GroupData((2, 2))
SU2 = alg.GroupData((4,))
G46 = alg.GroupData((4, 6))
R1 = alg.poly_algebra(T)
R2 = alg.poly_algebra(T2)
R46 = alg.poly_algebra(G46)


def test_group_data_validation():
    with pytest.raises(alg.OddCodegree):
        alg.GroupData((3,))
    with pytest.raises(alg.OddCodegree):
        alg.GroupData((0,))
    assert alg.GroupData(()).dim_g == 0
    assert SU2.dim_g == 3
    assert G46.dim_g == 8


def test_named_groups():
    assert alg.named_group("SU(3)").codegrees == (4, 6)
    assert alg.named_group("Sp(2)").codegrees == (4, 8)
    assert alg.named_group("T^3").codegrees == (2, 2, 2)
    with pytest.raises(ValueError):
        alg.named_group("E8")


def test_poly_algebra_dimensions():
    assert [R1.dim(-2 * k) for k in range(4)] == [1, 1, 1, 1]
    assert R1.dim(-1) == 0
    assert R46.dim(-12) == 2  # x1^3 and x2^2
    R0 = alg.poly_algebra(alg.GroupData(()))
    assert R0.dim(0) == 1 and R0.dim(-2) == 0


def test_ext_algebra_dimensions():
    L = alg.ext_algebra(T)
    assert L.generator_degrees() == (1,) and L.total_dim() == 2
    assert alg.ext_algebra(SU2).generator_degrees() == (3,)
    L2 = alg.ext_algebra(T2)
    assert [L2.dim(d) for d in (0, 1, 2)] == [1, 2, 1]


def test_koszul_model_circle():
    kb = alg.koszul_model(R1)
    assert kb.basis == (("e0", 0), ("e1", -1))
    assert str(kb.diff[0][1]) == "x1"


def test_koszul_model_rank_and_signs():
    kb = alg.koszul_model(R2)
    assert kb.rank == 4
    # d(e12) = x1 e2 - x2 e1 under the fixed sign rule
    labels = [lab for lab, _ in kb.basis]
    i12 = labels.index("e12")
    i1, i2 = labels.index("e1"), labels.index("e2")
    assert str(kb.diff[i2][i12]) == "x1"
    assert str(kb.diff[i1][i12]) == "-x2"


def test_koszul_model_trivial_group():
    kb = alg.koszul_model(alg.poly_algebra(alg.GroupData(())))
    assert kb.rank == 1 and kb.diff[0][0].is_zero()


@pytest.mark.parametrize("codegrees,window_lo", [
    ((2,), -12), ((2, 2), -14), ((4, 6), -26), ((2, 2, 2), -16)])
def test_koszul_homology_is_residue_field(codegrees, window_lo):
    # regular-sequence acyclicity, checked up to rank three
    R = alg.poly_algebra(alg.GroupData(codegrees))
    M = alg.to_degreewise(alg.koszul_model(R), Window(window_lo, 2))
    assert alg.homology(M).dims() == {0: 1}


def test_intermediate_koszul_stages():
    # H(K(x_1..x_i)) matches the iterated quotient's dimensions
    R = R2
    for i in (0, 1, 2):
        K = alg.koszul_stage(R, i)
        M = alg.to_degreewise(K, Window(-10, 1))
        H = alg.homology(M)
        for n in range(-6, 1):
            # quotient ring dims: monomials avoiding the first i variables
            mons = [a for a in R.monomials(-n) if all(a[j] == 0 for j in range(i))]
            assert H.dim(n) == len(mons)


def test_basic_injective_circle():
    I = alg.basic_injective(R1, Window(0, 8))
    assert [I.dim(n) for n in range(0, 9)] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    # x kills the socle and shifts everything else down
    assert is_zero_matrix(I.actions[0].block(0))
    assert I.actions[0].block(2) == [[F(1)]]


def test_basic_injective_trivial_group():
    I = alg.basic_injective(alg.poly_algebra(alg.GroupData(())), Window(0, 5))
    assert {n: I.dim(n) for n in I.degrees()} == {0: 1}


def test_to_degreewise_shapes():
    # one basis vector per degree: the e0 tower at even degrees, e1 at odd
    kb = alg.koszul_model(R1)
    M = kb.to_degreewise(Window(-6, 0))
    assert [M.dim(n) for n in range(-6, 1)] == [1, 1, 1, 1, 1, 1, 1]
    free = alg.free_module(R1, [("g", 0)])
    N = free.to_degreewise(Window(-4, 0))
    assert all(N.dim(-2 * k) == 1 for k in range(3))
    empty = kb.to_degreewise(Window(3, 5))
    assert empty.total_dim() == 0


def test_hom_R_free_rank_one_is_identity():
    I = alg.basic_injective(R1, Window(0, 8))
    H = alg.hom_R(alg.free_module(R1, [("g", 0)]), I)
    assert all(H.dim(n) == I.dim(n) for n in range(0, 9))


def test_hom_R_shift_adjunction():
    kb = alg.koszul_model(R1)
    M = sm.cyclic_quotient(R1, [3])
    plain = alg.hom_R(kb, M)
    shifted = alg.hom_R(kb.shift(2), M)
    assert {n: shifted.dim(n) for n in shifted.degrees()} == \
        {n - 2: plain.dim(n) for n in plain.degrees()}
    assert alg.homology_dims(shifted) == \
        {n - 2: d for n, d in alg.homology_dims(plain).items()}


def test_hom_R_koszul_into_injective():
    I = alg.basic_injective(R1, Window(0, 10))
    H = alg.hom_R(alg.koszul_model(R1), I)
    assert alg.homology(H).dims() == {0: 1}


def test_mapping_cone_identity_acyclic():
    M = sm.cyclic_quotient(R1, [2])
    cone = alg.mapping_cone(alg.identity_map(M))
    assert alg.homology(cone).is_zero()


def test_mapping_cone_of_multiplication_is_koszul():
    Rm = alg.poly_as_module(R1, Window(-10, 0))
    Rs = Rm.shift(-2)
    blocks = {n: Rm.actions[0].block(n + 2) for n in Rs.degrees()}
    c = alg.ChainMap(Rs, Rm, 0, {n: b for n, b in blocks.items()})
    cone = alg.mapping_cone(c)
    kbar = alg.to_degreewise(alg.koszul_model(R1), Window(cone.lo, cone.hi))
    assert {n: cone.dim(n) for n in cone.degrees()} == \
        {n: kbar.dim(n) for n in kbar.degrees()}
    assert alg.homology(cone).dims() == {0: 1}


def test_cone_of_zero_map_is_sum():
    A = sm.cyclic_quotient(R1, [2])
    B = sm.cyclic_quotient(R1, [1])
    cone = alg.mapping_cone(alg.zero_map(A, B))
    expected = alg.direct_sum(B, A.shift(1))
    assert {n: cone.dim(n) for n in cone.degrees()} == \
        {n: expected.dim(n) for n in expected.degrees()}


def test_cone_les_dimension_check():
    rng = random.Random(3)
    for _ in range(6):
        A = sm.random_zero_diff_module(R1, rng)
        B = sm.random_zero_diff_module(R1, rng)
        f = sm.random_chain_map(A, B, rng)
        assert alg.cone_les_dimension_check(f)


def test_gamma_of_injective_is_everything():
    I = alg.basic_injective(R1, Window(0, 8))
    G = alg.gamma_m(I)
    assert all(G.dim(n) == I.dim(n) for n in I.degrees())


def test_gamma_of_free_is_zero():
    Rm = alg.poly_as_module(R1, Window(-8, 0))
    assert alg.gamma_m(Rm).total_dim() == 0
    Rm2 = alg.poly_as_module(R2, Window(-6, 0))
    assert alg.gamma_m(Rm2).total_dim() == 0


def test_gamma_splits_free_plus_finite():
    M = sm.cyclic_quotient(R1, [2])
    Rm = alg.poly_as_module(R1, Window(-8, 0))
    both = alg.direct_sum(Rm, M)
    G = alg.gamma_m(both)
    assert {n: G.dim(n) for n in G.degrees()} == \
        {n: M.dim(n) for n in M.degrees()}


def test_gamma_adjunction_dimensions():
    # chain maps into the torsion part biject with chain maps into the module
    rng = random.Random(11)
    Rm = alg.poly_as_module(R1, Window(-10, 0))
    for _ in range(5):
        M = sm.random_torsion_dg_module(R1, rng, max_total=6)
        N = alg.direct_sum(Rm, sm.random_zero_diff_module(R1, rng))
        gamma = alg.gamma_m(N)
        assert len(alg.chain_map_space(M, gamma)) == len(alg.chain_map_space(M, N))


def test_matlis_dual_basics():
    k = alg.residue_field(R1)
    assert {n: alg.matlis_dual(k).dim(n) for n in alg.matlis_dual(k).degrees()} == {0: 1}
    I = alg.basic_injective(R1, Window(0, 8))
    D = alg.matlis_dual(I)
    Rm = alg.poly_as_module(R1, Window(-8, 0))
    assert {n: D.dim(n) for n in D.degrees()} == {n: Rm.dim(n) for n in Rm.degrees()}


def test_double_dual_is_canonically_isomorphic():
    rng = random.Random(7)
    for _ in range(5):
        M = sm.random_torsion_dg_module(R1, rng, max_total=6)
        iso = alg.double_dual_comparison(M)  # validates chain + module map
        for n in M.degrees():
            assert not is_zero_matrix(iso.block(n))


def test_dual_reverses_support():
    M = sm.cyclic_quotient(R1, [3]).shift(-1)
    D = alg.matlis_dual(M)
    assert D.support_min() == -M.support_max()
    assert D.support_max() == -M.support_min()


def test_tensor_over_ext_trivial_module_gives_injective():
    L = alg.ext_algebra(T)
    S = alg.tensor_over_ext(alg.trivial_lambda_module(L), R1, Window(0, 9))
    I = alg.basic_injective(R1, Window(0, 9))
    assert all(S.dim(n) == I.dim(n) for n in range(0, 10))
    assert S.is_torsion()


@pytest.mark.parametrize("g", [T, T2])
def test_tensor_over_ext_of_algebra_resolves_k(g):
    L = alg.ext_algebra(g)
    R = alg.poly_algebra(g)
    S = alg.tensor_over_ext(alg.lambda_as_module(L), R, Window(0, 10))
    assert alg.homology(S).dims() == {0: 1}


def test_tensor_over_ext_zero():
    L = alg.ext_algebra(T)
    assert alg.tensor_over_ext(alg.zero_module(L), R1, Window(0, 5)).total_dim() == 0


def test_tensor_over_ext_rejects_unbounded():
    L = alg.ext_algebra(T)
    bad = alg.trivial_lambda_module(L)
    bad.complete_above = False
    with pytest.raises(alg.UnboundedInput):
        alg.tensor_over_ext(bad, R1, Window(0, 5))


def test_quasi_iso_preserved_by_hom_from_koszul():
    # cones of homology isomorphisms go to acyclics
    rng = random.Random(19)
    kb = alg.koszul_model(R1)
    for _ in range(6):
        M = sm.random_torsion_dg_module(R1, rng, max_total=6)
        acyclic = alg.mapping_cone(alg.identity_map(
            sm.random_zero_diff_module(R1, rng)))
        bigger = alg.direct_sum(M, acyclic)
        proj_blocks = {}
        for n in bigger.degrees():
            m = [[F(0)] * bigger.dim(n) for _ in range(M.dim(n))]
            for i in range(M.dim(n)):
                m[i][i] = F(1)
            proj_blocks[n] = m
        proj = alg.ChainMap(bigger, M, 0, proj_blocks)
        cone = alg.mapping_cone(proj)
        assert alg.homology(cone).is_zero()
        assert alg.homology(alg.hom_R(kb, cone)).is_zero()


def test_torsion_detection_matches_hom_vanishing():
    # for torsion M: H(M) = 0 iff H(Hom(kbar, M)) = 0
    rng = random.Random(23)
    kb = alg.koszul_model(R1)
    for _ in range(8):
        M = sm.random_torsion_dg_module(R1, rng, max_total=6)
        a = alg.homology(M).is_zero()
        b = alg.homology(alg.hom_R(kb, M)).is_zero()
        assert a == b


def test_shift_signs_stay_valid():
    rng = random.Random(2)
    M = sm.random_torsion_dg_module(R1, rng, max_total=6)
    for a in (-2, -1, 1, 2, 3):
        s = M.shift(a)  # constructor re-checks every invariant
        assert s.total_dim() == M.total_dim()
    L = alg.ext_algebra(T2)
    N = alg.lambda_as_module(L)
    N.shift(1)
    N.shift(-3)


def test_action_operators_commute_even_anticommute_odd():
    # exercised implicitly by every constructor; spot check the exterior side
    L = alg.ext_algebra(T2)
    lam = alg.lambda_as_module(L)
    a0 = lam.actions[0]
    a1 = lam.actions[1]
    from koszuldg.grlin import mat_mul, mat_add
    ij = mat_mul(a0.block(1), a1.block(0))
    ji = mat_mul(a1.block(1), a0.block(0))
    assert is_zero_matrix(mat_add(ij, ji))


def test_invariant_checks_see_odd_signs():
    # x (deg 1) with d x = y, a x = x', a y = y': Leibniz for the odd
    # generator forces d x' = -y'; +y' must be rejected, and so must an odd
    # generator that fails to square to zero
    L = alg.ext_algebra(T)

    def build(s, square=0):
        return alg.dg_module(L, {0: 1, 1: 2, 2: 1},
                             {1: [[F(1), F(0)]], 2: [[F(0)], [F(s)]]},
                             [{0: [[F(0)], [F(1)]], 1: [[F(1), F(square)]]}],
                             0, 2, complete_below=True, complete_above=True)

    build(-1)
    with pytest.raises(alg.InvariantViolation):
        build(1)
    with pytest.raises(alg.InvariantViolation):
        build(-1, square=1)
