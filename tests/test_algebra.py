import copy
import random
from fractions import Fraction as F

import pytest

from dense import action_block, block, blocks, form, forms
from koszuldg.grlin import GradedMap, Window
from koszuldg import algebra as alg
from koszuldg import samples as sm


def is_zero_matrix(a):
    return not any(x for row in a for x in row)


def mat_mul(a, b):
    """The dense product of two dense matrices."""
    return [[sum((x * b[k][j] for k, x in enumerate(row)), F(0))
             for j in range(len(b[0]) if b else 0)] for row in a]


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


def test_koszul_model_is_built_once_per_ring_and_names():
    kb = alg.koszul_model(R2)
    assert alg.koszul_model(alg.poly_algebra(T2)) is kb
    # equal rings whose variables print differently get their own model
    Y2 = alg.PolyAlgebra(T2, varnames=("y1", "y2"))
    assert Y2 == R2
    ky = alg.koszul_model(Y2)
    assert ky is not kb and alg.koszul_model(Y2) is ky
    w = Window(-4, 0)
    x_labels = alg.to_degreewise(kb, w).labels_at(-2)
    y_labels = alg.to_degreewise(ky, w).labels_at(-2)
    assert x_labels != y_labels
    assert "x1*e0" in x_labels and "y1*e0" in y_labels


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


def test_koszul_stage_range_is_checked():
    for upto in (-1, 3):
        with pytest.raises(ValueError, match="Koszul stage"):
            alg.koszul_stage(R2, upto)


def test_basic_injective_circle():
    I = alg.basic_injective(R1, Window(0, 8))
    assert [I.dim(n) for n in range(0, 9)] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    # x kills the socle and shifts everything else down
    assert is_zero_matrix(block(I.actions[0], 0))
    assert block(I.actions[0], 2) == [[F(1)]]


def test_basic_injective_trivial_group():
    I = alg.basic_injective(alg.poly_algebra(alg.GroupData(())), Window(0, 5))
    assert {n: I.dim(n) for n in I.degrees()} == {0: 1}


def test_to_degreewise_shapes():
    # one basis vector per degree: the e0 tower at even degrees, e1 at odd
    kb = alg.koszul_model(R1)
    M = alg.to_degreewise(kb, Window(-6, 0))
    assert [M.dim(n) for n in range(-6, 1)] == [1, 1, 1, 1, 1, 1, 1]
    free = alg.free_module(R1, [("g", 0)])
    N = alg.to_degreewise(free, Window(-4, 0))
    assert all(N.dim(-2 * k) == 1 for k in range(3))
    empty = alg.to_degreewise(kb, Window(3, 5))
    assert empty.total_dim() == 0


def test_hom_R_free_rank_one_is_identity():
    I = alg.basic_injective(R1, Window(0, 8))
    H = alg.hom_from_free(alg.free_module(R1, [("g", 0)]), I)
    assert all(H.dim(n) == I.dim(n) for n in range(0, 9))


def test_hom_R_shift_adjunction():
    kb = alg.koszul_model(R1)
    M = sm.cyclic_quotient(R1, [3])
    plain = alg.hom_from_free(kb, M)
    shifted = alg.hom_from_free(kb.shift(2), M)
    assert {n: shifted.dim(n) for n in shifted.degrees()} == \
        {n - 2: plain.dim(n) for n in plain.degrees()}
    assert alg.homology_dims(shifted) == \
        {n - 2: d for n, d in alg.homology_dims(plain).items()}


def test_hom_R_koszul_into_injective():
    I = alg.basic_injective(R1, Window(0, 10))
    H = alg.hom_from_free(alg.koszul_model(R1), I)
    assert alg.homology(H).dims() == {0: 1}


def test_mapping_cone_identity_acyclic():
    M = sm.cyclic_quotient(R1, [2])
    cone = alg.mapping_cone(alg.identity_map(M))
    assert alg.homology(cone).is_zero()


def test_mapping_cone_of_multiplication_is_koszul():
    Rm = alg.poly_as_module(R1, Window(-10, 0))
    Rs = Rm.shift(-2)
    c = alg.ChainMap(Rs, Rm, 0, {n: Rm.actions[0].form(n + 2) for n in Rs.degrees()})
    cone = alg.mapping_cone(c)
    kbar = alg.to_degreewise(alg.koszul_model(R1), Window(cone.lo, cone.hi))
    assert {n: cone.dim(n) for n in cone.degrees()} == \
        {n: kbar.dim(n) for n in kbar.degrees()}
    assert alg.homology(cone).dims() == {0: 1}


def test_cone_of_zero_map_is_sum():
    A = sm.cyclic_quotient(R1, [2])
    B = sm.cyclic_quotient(R1, [1])
    cone = alg.mapping_cone(alg.ChainMap(A, B, 0, {}))
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


def test_cone_les_dimension_check_fails_closed_when_nothing_compares():
    # no certified degree: a window of R without its bottom, and one class
    # without completeness on either side
    one = alg.dg_module(R1, {0: 1}, {}, [{}], 0, 0)
    for M in (alg.poly_as_module(R1, Window(0, 0)), one):
        assert not alg.cone_les_dimension_check(alg.identity_map(M))
    # the same class, complete on both sides, compares and agrees
    k = alg.residue_field(R1)
    assert alg.cone_les_dimension_check(alg.identity_map(k))


def test_cone_les_dimension_check_fails_on_a_rank_off_by_one(monkeypatch):
    # a stand-in homology_map_rank one too high in a single degree breaks
    # the count there, so the check must find the mismatch
    rng = random.Random(3)
    A, B = sm.random_zero_diff_module(R1, rng), sm.random_zero_diff_module(R1, rng)
    f = sm.random_chain_map(A, B, rng)
    rank, asked = alg.homology_map_rank, []
    monkeypatch.setattr(alg, "homology_map_rank",
                        lambda f, HA, HB, n: asked.append(n) or rank(f, HA, HB, n))
    assert alg.cone_les_dimension_check(f)
    degrees = sorted({n for n in asked if rank(f, alg.homology(A), alg.homology(B), n)
                      is not None})
    assert len(degrees) >= 3, degrees
    for off in degrees:
        def stand_in(f, HA, HB, n, off=off):
            r = rank(f, HA, HB, n)
            return r + 1 if n == off and r is not None else r
        monkeypatch.setattr(alg, "homology_map_rank", stand_in)
        assert not alg.cone_les_dimension_check(f), off


def test_homology_map_rank_fails_closed_on_an_image_off_the_cycles():
    # k into k plus the acyclic cone on R/(x^2) shifted to degrees -1 and
    # -3, whose source copy in degree 0 is no cycle: the class of k sent to
    # the class of k has rank 1; sent onto that non-cycle too, the image has
    # no class, and the rank is unknown rather than that of no images
    k = alg.residue_field(R1)
    P = sm.cyclic_quotient(R1, [2]).shift(-1)
    B = alg.direct_sum(k, alg.mapping_cone(alg.identity_map(P)))
    HA, HB = alg.homology(k), alg.homology(B)
    assert B.dim(0) == 2 and HB.dims() == {0: 1} and block(B.diff, 0) == [[0, 1]]
    good = alg.ChainMap(k, B, 0, forms({0: [[F(1)], [F(0)]]}))
    assert alg.homology_map_rank(good, HA, HB, 0) == 1
    bad = alg.ChainMap(k, B, 0, forms({0: [[F(1)], [F(1)]]}), check=False)
    assert not bad.commutes_with_diff()
    assert alg.homology_map_rank(bad, HA, HB, 0) is None


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
        iso = alg.double_dual_comparison(M, alg.matlis_dual(M))  # validates chain + module map
        for n in M.degrees():
            assert not is_zero_matrix(block(iso.map, n))


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
            proj_blocks[n] = form(m)
        proj = alg.ChainMap(bigger, M, 0, proj_blocks)
        cone = alg.mapping_cone(proj)
        assert alg.homology(cone).is_zero()
        assert alg.homology(alg.hom_from_free(kb, cone)).is_zero()


def test_torsion_detection_matches_hom_vanishing():
    # for torsion M: H(M) = 0 iff H(Hom(kbar, M)) = 0
    rng = random.Random(23)
    kb = alg.koszul_model(R1)
    for _ in range(8):
        M = sm.random_torsion_dg_module(R1, rng, max_total=6)
        a = alg.homology(M).is_zero()
        b = alg.homology(alg.hom_from_free(kb, M)).is_zero()
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


def mat_add(a, b):
    """The entrywise sum of two dense matrices."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def test_action_operators_commute_even_anticommute_odd():
    # exercised implicitly by every constructor; spot check the exterior side
    L = alg.ext_algebra(T2)
    lam = alg.lambda_as_module(L)
    a0 = lam.actions[0]
    a1 = lam.actions[1]
    ij = mat_mul(block(a0, 1), block(a1, 0))
    ji = mat_mul(block(a1, 1), block(a0, 0))
    assert is_zero_matrix(mat_add(ij, ji))


def test_invariant_checks_see_odd_signs():
    # x (deg 1) with d x = y, a x = x', a y = y': Leibniz for the odd
    # generator forces d x' = -y'; +y' must be rejected, and so must an odd
    # generator that fails to square to zero
    L = alg.ext_algebra(T)

    def build(s, square=0):
        return alg.dg_module(L, {0: 1, 1: 2, 2: 1},
                             forms({1: [[F(1), F(0)]], 2: [[F(0)], [F(s)]]}),
                             [forms({0: [[F(0)], [F(1)]], 1: [[F(1), F(square)]]})],
                             0, 2, complete_below=True, complete_above=True)

    build(-1)
    with pytest.raises(alg.InvariantViolation):
        build(1)
    with pytest.raises(alg.InvariantViolation):
        build(-1, square=1)


def test_invariant_checks_reach_the_lowest_degree_of_an_open_window():
    # not complete below: degrees 0..2 are known, so d.d out of degree 2
    # lands in the lowest one and is checked there
    def build(s):
        return alg.dg_module(R1, {0: 1, 1: 1, 2: 1}, forms({1: [[F(1)]], 2: [[F(s)]]}),
                             [{}], 0, 2, complete_above=True)

    with pytest.raises(alg.InvariantViolation, match="d.d != 0 at degree 2"):
        build(1)
    M = build(0)
    assert alg.check_dg_invariants(M)["d.d"] == 1
    assert M.diff._zero_products == {(1, 2)}


def test_invariant_checks_refuse_a_wrong_action_count_and_stray_degrees():
    M = alg.dg_module(R1, {0: 1, 1: 1}, forms({1: [[F(1)]]}), [{}], 0, 1)
    for actions in ((), M.actions * 2):
        with pytest.raises(alg.InvariantViolation,
                           match="one action operator per generator required"):
            alg.DGModule(R1, M.space, M.diff, actions, 0, 1)
    for lo, hi, stray in ((0, 0, 1), (1, 1, 0)):
        with pytest.raises(alg.InvariantViolation,
                           match=f"stored degree {stray} outside window"):
            alg.DGModule(R1, M.space, M.diff, M.actions, lo, hi)


def test_express_in_homology_at_an_uncertified_edge_degree():
    # degree 0 is the lowest of a window open below: no piece is stored
    # there, and a vector has a (zero) class exactly when it is a boundary
    M = alg.dg_module(R1, {0: 2, 1: 1, 2: 1}, forms({1: [[F(2)], [F(0)]]}), [{}], 0, 2)
    H = alg.homology(M)
    assert 0 not in H.pieces and 1 in H.pieces
    assert alg.express_in_homology(M, H, 0, (1, {0: 1})) == (1, {})
    assert alg.express_in_homology(M, H, 0, (3, {0: 5})) == (1, {})
    assert alg.express_in_homology(M, H, 0, (1, {})) == (1, {})
    assert alg.express_in_homology(M, H, 0, (1, {1: 1})) is None
    assert alg.express_in_homology(M, H, 0, (2, {0: 1, 1: -6})) is None
    with pytest.raises(ValueError, match="column index 2 for a map from dimension 2"):
        alg.express_in_homology(M, H, 0, (1, {2: 1}))


# ---------------------------------------------------------------------------
# reference: the dense checkers the sparse integer ones replaced.  Products
# are plain Fraction triple loops over GradedMap.block, whose absent blocks
# are dense zero matrices, compared entrywise over the true shape.


def _dense_mul(a, b):
    cols = len(b[0]) if b else 0
    if a and b:
        assert len(a[0]) == len(b)
    return [[sum((row[k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(cols)] for row in a]


def _maps_agree(a, b, rows, cols, sgn=1):
    for i in range(rows):
        ra = a[i] if i < len(a) else ()
        rb = b[i] if i < len(b) else ()
        for j in range(cols):
            x = ra[j] if j < len(ra) else 0
            y = rb[j] if j < len(rb) else 0
            if x != sgn * y:
                return False
    return True


def _reference_invariants(M):
    gens = M.generator_degrees()

    def known(n):
        return M.known_dim(n) is not None

    for n in range(M.lo, M.hi + 1):
        if M.dim(n) == 0:
            continue
        if known(n - 1) and known(n - 2):
            dd = _dense_mul(block(M.diff, n - 1), block(M.diff, n))
            if not is_zero_matrix(dd):
                raise alg.InvariantViolation(f"d.d != 0 at degree {n}")
        for i, gi in enumerate(gens):
            if known(n + gi) and known(n + gi - 1) and known(n - 1):
                lhs = _dense_mul(block(M.diff, n + gi), block(M.actions[i], n))
                rhs = _dense_mul(block(M.actions[i], n - 1), block(M.diff, n))
                sgn = -1 if gi % 2 else 1
                if not _maps_agree(lhs, rhs, M.dim(n + gi - 1), M.dim(n), sgn):
                    raise alg.InvariantViolation(
                        f"d fails Leibniz against generator {i} at degree {n}")
            for j in range(i, len(gens)):
                gj = gens[j]
                if not (known(n + gi) and known(n + gj) and known(n + gi + gj)):
                    continue
                ij = _dense_mul(block(M.actions[i], n + gj), block(M.actions[j], n))
                if i == j:
                    if gi % 2 and not _maps_agree(ij, [], M.dim(n + 2 * gi), M.dim(n)):
                        raise alg.InvariantViolation(f"odd generator {i} fails square-zero")
                    continue
                ji = _dense_mul(block(M.actions[j], n + gi), block(M.actions[i], n))
                sgn = -1 if (gi % 2 and gj % 2) else 1
                if not _maps_agree(ij, ji, M.dim(n + gi + gj), M.dim(n), sgn):
                    raise alg.InvariantViolation(
                        f"generators {i},{j} fail graded commutation at degree {n}")


def _reference_commutes_with_diff(f):
    sgn = -1 if f.degree % 2 else 1
    for n in range(f.source.lo, f.source.hi + 1):
        if f.source.dim(n) == 0:
            continue
        tn = n + f.degree
        if (f.target.known_dim(tn) is None or f.target.known_dim(tn - 1) is None
                or f.source.known_dim(n - 1) is None):
            continue
        lhs = _dense_mul(block(f.target.diff, tn), block(f.map, n))
        rhs = _dense_mul(block(f.map, n - 1), block(f.source.diff, n))
        if not _maps_agree(lhs, rhs, f.target.known_dim(tn - 1),
                           f.source.dim(n), sgn):
            return False
    return True


def _reference_is_module_map(f):
    for i, g in enumerate(f.source.generator_degrees()):
        sgn = -1 if (f.degree % 2 and g % 2) else 1
        for n in range(f.source.lo, f.source.hi + 1):
            if f.source.dim(n) == 0:
                continue
            tn = n + f.degree
            if (f.target.known_dim(tn) is None or f.target.known_dim(tn + g) is None
                    or f.source.known_dim(n + g) is None):
                continue
            lhs = _dense_mul(block(f.target.actions[i], tn), block(f.map, n))
            rhs = _dense_mul(block(f.map, n + g), block(f.source.actions[i], n))
            if not _maps_agree(lhs, rhs, f.target.known_dim(tn + g),
                               f.source.dim(n), sgn):
                return False
    return True


def _verdict(check, *args):
    try:
        return ("returned", check(*args))
    except alg.InvariantViolation as exc:
        return ("raised", str(exc))


def _perturbations(gm, rng, count):
    """Copies of gm's blocks as integer forms, each with one entry changed
    by an integer or a fraction, in a stored block or in one that is
    absent."""
    spots = [n for n in gm.source.dims
             if gm.source.dim(n) and gm.target.dim(n + gm.degree)]
    out = []
    for _ in range(count if spots else 0):
        n = rng.choice(spots)
        dense = blocks(gm)
        blk = dense.setdefault(n, block(gm, n))
        r, c = rng.randrange(len(blk)), rng.randrange(len(blk[0]))
        blk[r][c] += rng.choice([F(1), F(-2), F(1, 3), F(-5, 2)])
        out.append((n, forms(dense)))
    return out


def _with_blocks(M, which, blocks):
    """M with the differential (which = -1) or action `which` replaced by a
    graded map carrying `blocks`, built without running the checks."""
    N = copy.copy(M)
    old = M.diff if which < 0 else M.actions[which]
    gm = GradedMap(old.source, old.target, old.degree, blocks)
    if which < 0:
        N.diff = gm
    else:
        N.actions = M.actions[:which] + (gm,) + M.actions[which + 1:]
    return N


def _sample_modules(rng):
    L1, L2 = alg.ext_algebra(T), alg.ext_algebra(T2)
    mods = [alg.lambda_as_module(L1), alg.lambda_as_module(L2),
            alg.basic_injective(R1, Window(0, 6)),
            alg.to_degreewise(alg.koszul_model(R2), Window(-6, 2))]
    # windowed: incomplete below, incomplete above, and cut on both sides, so
    # that identities reaching past the known range are skipped alike
    windowed = [alg.poly_as_module(R2, Window(-6, 0)),
                alg.basic_injective(R2, Window(0, 5)),
                alg.to_degreewise(alg.koszul_model(R2), Window(-4, -1))]
    assert [(W.complete_below, W.complete_above) for W in windowed] == [
        (False, True), (True, False), (False, False)]
    mods += windowed
    for _ in range(3):
        mods.append(sm.random_torsion_dg_module(R1, rng, max_total=6))
        mods.append(sm.random_torsion_dg_module(R2, rng, max_total=6))
        mods.append(sm.random_lambda_module(L1, rng, max_total=5))
        mods.append(sm.random_lambda_module(L2, rng, max_total=6))
    return mods


def _checks(M):
    """check_dg_invariants with its identity counts dropped, so that its
    verdict reads as the reference's does."""
    alg.check_dg_invariants(M)


def _monomial_breaks(gm, rng, count):
    """Copies of gm's blocks as integer forms, each with one monomial block
    made not monomial: a second entry put in a row, or a row's entry moved to a
    column another row has."""
    spots = [n for n in gm.forms if gm.monomial(n)
             and len([r for r in gm.forms[n][1] if r]) >= 2]
    out = []
    for k in range(count if spots else 0):
        n = rng.choice(spots)
        dense = blocks(gm)
        blk = dense[n]
        full = [i for i, row in enumerate(blk) if any(row)]
        r1, r2 = rng.sample(full, 2)
        c1 = next(j for j, x in enumerate(blk[r1]) if x)
        c2 = next(j for j, x in enumerate(blk[r2]) if x)
        value = rng.choice([F(1), F(-1), F(-2), F(1, 3)])
        if k % 2:
            blk[r2][c2] = F(0)  # one entry per row, but a column shared
        else:
            r2 = r1  # a second entry in one row
        blk[r2][c1 if r2 != r1 else c2] = value
        out.append((n, forms(dense)))
    return out


def test_invariant_checks_match_dense_reference():
    rng = random.Random(20)
    seen, broken = {}, {}
    for M in _sample_modules(rng):
        assert _verdict(_checks, M) == ("returned", None)
        assert _verdict(_reference_invariants, M) == ("returned", None)
        assert alg.check_dg_invariants(M) == _parent_invariant_counts(M)
        for which in range(-1, len(M.actions)):
            gm = M.diff if which < 0 else M.actions[which]
            for _, blocks in _perturbations(gm, rng, 4):
                N = _with_blocks(M, which, blocks)
                want = _verdict(_reference_invariants, N)
                assert _verdict(_checks, N) == want
                kind = want[1].split(" at ")[0] if want[0] == "raised" else "ok"
                seen[kind] = seen.get(kind, 0) + 1
            if which < 0:
                continue
            for _, blocks in _monomial_breaks(gm, rng, 4):
                N = _with_blocks(M, which, blocks)
                assert not all(N.actions[which].monomial(n) for n in N.actions[which].forms)
                want = _verdict(_reference_invariants, N)
                assert _verdict(_checks, N) == want
                broken[want[0]] = broken.get(want[0], 0) + 1
    # the perturbations reach every identity, and some leave them all intact
    kinds = " | ".join(sorted(seen))
    for part in ("d.d != 0", "Leibniz", "square-zero", "graded commutation", "ok"):
        assert part in kinds, (part, seen)
    # action blocks that stop being monomial are caught, or pass, as the
    # dense reference says
    assert broken.get("raised", 0) >= 20, broken


# reference: the loop of check_dg_invariants before it counted, with a
# counter after each identity it verifies


def _parent_block_product(f, m, g, n):
    a = f.form(m)
    if a is None:
        return None
    b = g.form(n)
    return None if b is None else alg._int_product(a, b)


def _parent_invariant_counts(M):
    counts = {"d.d": 0, "Leibniz": 0, "commutation": 0, "square-zero": 0}
    gens = M.generator_degrees()
    klo, khi = M.known_lo(), M.known_hi()
    d, acts = M.diff, M.actions
    for n in range(M.lo, M.hi + 1):
        if M.dim(n) == 0:
            continue
        if klo <= n - 2 and n - 1 <= khi:
            assert alg._int_agree(_parent_block_product(d, n - 1, d, n), None)
            counts["d.d"] += 1
        for i, gi in enumerate(gens):
            if (klo <= n + gi <= khi and klo <= n + gi - 1 <= khi
                    and klo <= n - 1 <= khi):
                lhs = _parent_block_product(d, n + gi, acts[i], n)
                rhs = _parent_block_product(acts[i], n - 1, d, n)
                sgn = -1 if gi % 2 else 1
                assert alg._int_agree(lhs, rhs, sgn)
                counts["Leibniz"] += 1
            for j in range(i, len(gens)):
                gj = gens[j]
                if not (klo <= n + gi <= khi and klo <= n + gj <= khi
                        and klo <= n + gi + gj <= khi):
                    continue
                if i == j:
                    if gi % 2:
                        assert alg._int_agree(
                            _parent_block_product(acts[i], n + gi, acts[i], n), None)
                        counts["square-zero"] += 1
                    continue
                ij = _parent_block_product(acts[i], n + gj, acts[j], n)
                ji = _parent_block_product(acts[j], n + gi, acts[i], n)
                sgn = -1 if (gi % 2 and gj % 2) else 1
                assert alg._int_agree(ij, ji, sgn)
                counts["commutation"] += 1
    return counts


def _counted_modules():
    """The fixed set: sample modules over T, T^2 and SU(3), the windowed
    Koszul model over T^2, T(M), S(T(M)) and T(S(T(M))) of one T^2 torsion
    module, and End(kbar) for T^2."""
    from koszuldg import duality as du
    rng = random.Random(24)
    R3 = alg.poly_algebra(alg.named_group("SU(3)"))
    mods = []
    for R in (R1, R2, R3):
        L = alg.ext_algebra(R.group)
        mods += [sm.random_torsion_dg_module(R, rng, max_total=5),
                 sm.random_zero_diff_module(R, rng),
                 sm.random_lambda_module(L, rng, max_total=5),
                 alg.lambda_as_module(L)]
    mods.append(alg.to_degreewise(alg.koszul_model(R2), Window(-16, 2)))
    M = sm.random_torsion_dg_module(R2, random.Random(5), max_total=5)
    TM = du.functor_T(M)
    STM = du.functor_S(TM, R2, Window(0, (TM.support_max() or 0) + 3))
    mods += [TM, STM, du.functor_T(STM), du.end_dga(R2).module]
    return mods


def test_identity_counts_match_parent_loop():
    total = {}
    for M in _counted_modules():
        got = alg.check_dg_invariants(M)
        assert got == _parent_invariant_counts(M), M.name
        for kind, c in got.items():
            total[kind] = total.get(kind, 0) + c
    # every kind of identity is verified somewhere in the set
    assert all(total.values()), total


def test_odd_square_zero_perturbation_matches_reference():
    # a single entry that makes a1.a1 nonzero on Lambda[a1, a2]
    M = alg.lambda_as_module(alg.ext_algebra(T2))
    a = M.actions[0]
    dense = blocks(a)
    # basis (one; a, b; ab): a1 . a is 0, make it ab / 2, so a1 . a1 . one != 0
    dense[1][0][0] += F(1, 2)
    N = _with_blocks(M, 0, forms(dense))
    want = _verdict(_reference_invariants, N)
    assert want[0] == "raised" and "square-zero" in want[1]
    assert _verdict(_checks, N) == want


def test_chain_map_checks_match_dense_reference():
    rng = random.Random(21)
    pairs = []
    mods = _sample_modules(rng)
    for A in mods:
        for B in mods:
            if A.algebra == B.algebra and A.total_dim() + B.total_dim() <= 10:
                pairs.append((A, B))
    rng.shuffle(pairs)
    verdicts = set()
    checked = 0
    for A, B in pairs[:24]:
        for degree in (0, 1):
            if not alg.chain_map_space(A, B, degree):
                continue
            f = sm.random_chain_map(A, B, rng, degree)
            assert f.commutes_with_diff() and f.is_module_map()
            assert _reference_commutes_with_diff(f) and _reference_is_module_map(f)
            for _, blocks in _perturbations(f.map, rng, 3):
                g = alg.ChainMap(A, B, degree, blocks, check=False)
                want = (_reference_commutes_with_diff(g), _reference_is_module_map(g))
                assert (g.commutes_with_diff(), g.is_module_map()) == want
                verdicts.add(want)
                checked += 1
    assert checked >= 40
    # every combination of the two verdicts occurs
    assert verdicts == {(True, True), (False, True), (True, False), (False, False)}


def _reference_action_poly_block(M, p, n):
    """Dense monomial products from an identity matrix, summed per entry."""
    deg = p.degree()
    rows, cols = M.dim(n + deg), M.dim(n)
    out = [[F(0)] * cols for _ in range(rows)]
    gens = M.generator_degrees()
    for alpha, c in p.terms.items():
        m = [[F(int(i == j)) for j in range(cols)] for i in range(cols)]
        at = n
        for i, a in enumerate(alpha):
            for _ in range(a):
                m = _dense_mul(block(M.actions[i], at), m)
                at += gens[i]
        if rows == 0 or not m or not m[0]:
            continue  # through a zero-dimensional degree
        for rr in range(rows):
            for cc in range(cols):
                out[rr][cc] += c * m[rr][cc]
    return out


def test_action_poly_block_matches_dense_reference():
    rng = random.Random(22)
    checked = 0
    for M in _sample_modules(rng):
        R = M.algebra
        if not isinstance(R, alg.PolyAlgebra):
            continue
        for codeg in range(0, 7, 2):
            mons = R.monomials(codeg)
            if not mons:
                continue
            for _ in range(2):
                p = R.poly({a: rng.choice([F(1), F(-3), F(2, 3), F(0)]) for a in mons})
                if p.is_zero():
                    continue
                for n in M.degrees():
                    got = action_block(M, p, n)
                    assert got == _reference_action_poly_block(M, p, n)
                    checked += 1
    assert checked >= 100
