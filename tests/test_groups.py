import dataclasses
import random

import pytest

from dense import int_column, rank, representatives
from koszuldg.grlin import Window, _column_vector, _insert
from koszuldg import algebra as alg
from koszuldg import groups as gr
from koszuldg import samples as sm


def is_zero_matrix(a):
    return not any(x for row in a for x in row)


MAPS = gr.catalog_ring_maps()
RM = MAPS["T<SU(2)"]
S, T = RM.source, RM.target


def test_catalog_maps_validate():
    for name, rm in MAPS.items():
        assert rm.relative_dimension >= 0
        assert rm.certificate.generator_count >= 1


def test_relative_dimensions():
    assert RM.relative_dimension == 2
    assert MAPS["T<T^2-diag"].relative_dimension == 1
    assert MAPS["id-T"].relative_dimension == 0
    assert MAPS["T^2<SU(3)"].relative_dimension == 6


def test_finiteness_rejects_zero_map():
    t1 = alg.PolyAlgebra(alg.named_group("T"))
    with pytest.raises(gr.NotFinite):
        gr.RingMap(t1, t1, (t1.zero(),))


def test_finiteness_accepts_power_maps():
    t1 = alg.PolyAlgebra(alg.named_group("T"))
    for n in (1, 2, 3):
        img = t1.one()
        for _ in range(n):
            img = img * t1.gen(0)
        src = alg.PolyAlgebra(alg.GroupData((2 * n,)))
        rm = gr.RingMap(src, t1, (img,))
        assert rm.certificate.generator_count == n


def test_ring_map_rejects_inhomogeneous():
    t1 = alg.PolyAlgebra(alg.named_group("T"))
    su2 = alg.PolyAlgebra(alg.named_group("SU(2)"))
    with pytest.raises(alg.InvariantViolation):
        gr.RingMap(su2, t1, (t1.gen(0),))  # degree -2 image for a -4 generator


def test_restrict_identity_is_identity():
    k = alg.residue_field(MAPS["id-T"].target)
    out = gr.restrict_scalars(MAPS["id-T"], k)
    assert {n: out.dim(n) for n in out.degrees()} == {0: 1}


def test_restrict_squares_the_action():
    I_T = alg.basic_injective(T, Window(0, 8))
    out = gr.restrict_scalars(RM, I_T)
    # x acts as y^2: shifts four degrees down, kills the bottom two classes
    assert is_zero_matrix(out.actions[0].block(0))
    assert is_zero_matrix(out.actions[0].block(2))
    assert not is_zero_matrix(out.actions[0].block(4))


def test_extend_scalars_residue_field():
    out = gr.extend_scalars(RM, alg.residue_field(S))
    assert {n: out.dim(n) for n in out.degrees()} == {0: 1, -2: 1}
    assert out.complete_below and out.is_torsion()


def test_extend_scalars_zero_and_identity():
    assert gr.extend_scalars(RM, alg.zero_module(S)).total_dim() == 0
    k = alg.residue_field(MAPS["id-T"].source)
    out = gr.extend_scalars(MAPS["id-T"], k)
    assert {n: out.dim(n) for n in out.degrees()} == {0: 1}


def test_extend_scalars_right_exact_on_cyclics():
    # extension of a cyclic quotient surjects onto the extension of its
    # further quotient (right exactness, checked through dimensions)
    M2 = sm.cyclic_quotient(S, [2])
    M1 = sm.cyclic_quotient(S, [1])
    e2 = gr.extend_scalars(RM, M2)
    e1 = gr.extend_scalars(RM, M1)
    assert all(e1.dim(n) <= e2.dim(n) for n in e1.degrees())


def test_coextend_scalars_injective_goes_to_injective():
    I_G = alg.basic_injective(S, Window(0, 16), name="I_G")
    out = gr.coextend_scalars(RM, I_G, w=Window(0, 8))
    I_H = alg.basic_injective(T, Window(0, 8))
    for n in range(0, 9):
        assert out.dim(n) == I_H.dim(n), n


def test_coextend_identity_and_zero():
    k = alg.residue_field(MAPS["id-T"].source)
    out = gr.coextend_scalars(MAPS["id-T"], k)
    assert alg.homology_dims(out) == {0: 1}
    assert gr.coextend_scalars(RM, alg.zero_module(S)).total_dim() == 0


def test_coextend_along_a_zero_image():
    # T < T^2 sends x2 to zero; x2 acts by zero on M, so coextension along
    # the first-factor inclusion is M again, now over T
    from koszuldg.modfile import parse_module
    M = parse_module("algebra poly 2,2\nwindow -2 0\ncomplete both\n"
                     "component -2 v\ncomponent 0 u\nx1 u = v\n")
    rm = MAPS["T<T^2-first"]
    assert rm.images[1].is_zero()
    out = gr.coextend_scalars(rm, M)
    assert out.algebra == rm.target
    assert alg.homology_dims(out) == {-2: 1, 0: 1}
    assert not is_zero_matrix(out.actions[0].block(0))


ID_T_MODULE = ("algebra poly 2\nwindow -2 1\ncomplete both\n"
               "component -2 b\ncomponent -1 s0 s1\ncomponent 1 u\n"
               "d s0 = -b\nd s1 = -b\nx1 u = -s0 + s1\n")


def test_coextend_identity_with_cancelling_composites():
    # d(-s0 + s1) = 0: the composite's entries cancel to explicit zeros in a
    # degree with no solutions, which is not an escape
    from koszuldg.modfile import parse_module
    M = parse_module(ID_T_MODULE)
    out = gr.coextend_scalars(MAPS["id-T"], M)
    assert out.space.dims == {-2: 1, -1: 2, 1: 1}
    assert alg.homology_dims(out) == alg.homology_dims(M) == {-1: 1, 1: 1}


@pytest.mark.parametrize("name,length,gamma", [
    ("T<SU(2)", 0, 2),
    ("id-T", 0, 0),
    ("T<T^2-diag", 1, 1),
    ("T<T^2-first", 1, 1),
    ("id-T^2", 0, 0),
])
def test_derived_dual_catalog(name, length, gamma):
    dd = gr.derived_dual(MAPS[name])
    assert dd.resolution.length == length
    assert dd.free_rank_one
    assert dd.generator_degree == gamma == MAPS[name].relative_dimension


def exhaustive_certificate(rm, dual, realized, H, dual_lifts, win):
    """The freeness certificate as it was before pruning: every monomial
    image of the top class is followed and expressed in homology.  Images
    reached along several words are followed once each, which leaves the
    set of images, and so the verdict, as it was."""
    T = rm.target
    certified = list(H.certified_range())
    support = sorted(H.dims())
    if not support:
        return None, False
    gamma = support[-1]
    if H.dims().get(gamma) != 1:
        return gamma, False
    for n in certified:
        if H.dim(n) is not None and H.dim(n) != T.dim(n - gamma):
            return gamma, False
    maps = [gr.realize_poly_map(dual, realized, dual_lifts[j], -T.codegrees[j])
            for j in range(T.r)]
    top = representatives(H.pieces[gamma])[0]
    frontier, reach = [(gamma, top)], {gamma: [top]}
    for _ in range(2 * (win.hi - win.lo)):
        new_frontier = []
        for n, vec in frontier:
            for j in range(T.r):
                t = n - T.codegrees[j]
                if t < min(certified, default=0):
                    continue
                # the maps take and give integer columns
                img = _column_vector(*maps[j].apply(n, int_column(vec)), realized.dim(t))
                if any(img) and img not in reach.setdefault(t, []):
                    reach[t].append(img)
                    new_frontier.append((t, img))
        if not new_frontier:
            break
        frontier = new_frontier
    for n in certified:
        if not H.dim(n):
            continue
        vecs = []
        for v in reach.get(n, []):
            # class coordinates are integer columns too
            coords = alg.express_in_homology(realized, H, n, int_column(v))
            if coords is None:
                return gamma, False
            vecs.append(_column_vector(*coords, H.dim(n)))
        if not vecs or rank(vecs) < H.dim(n):
            return gamma, False
    return gamma, True


def certificate_inputs(rm, lifts=None):
    dd = gr.derived_dual(rm)
    lifts = dd.dual_lifts if lifts is None else lifts(dd)
    H = alg.homology(dd.realized)
    return (rm, dd.dual, dd.realized, H, lifts,
            Window(dd.realized.lo, dd.realized.hi)), dd


@pytest.mark.parametrize("name", sorted(MAPS))
def test_pruned_freeness_certificate_matches_exhaustive(name):
    args, dd = certificate_inputs(MAPS[name])
    got = gr._freeness_certificate(*args[:-1])
    assert got == exhaustive_certificate(*args) == (dd.generator_degree, True)


def test_pruned_freeness_certificate_fails_where_exhaustive_fails():
    rm = MAPS["T<SU(2)"]

    def zero(dd):  # lifts acting by zero reach nothing below the top class
        return [[[rm.source.zero() for _ in row] for row in Y] for Y in dd.dual_lifts]

    args, dd = certificate_inputs(rm, zero)
    got = gr._freeness_certificate(*args[:-1])
    assert got == exhaustive_certificate(*args) == (dd.generator_degree, False)


def test_derived_dual_t_in_su2_generator_degrees():
    dd = gr.derived_dual(RM)
    assert sorted(deg for _, deg in dd.dual.basis) == [0, 2]
    # as a module over the target the homology is one shifted free copy
    want = {n: T.dim(n - 2) for n in dd.homology_dims}
    assert dd.homology_dims == {n: d for n, d in want.items() if d}


def test_shriek_left_matches_coextension():
    dd = gr.derived_dual(RM)
    rng = random.Random(7)
    k = alg.residue_field(S)
    assert alg.homology_dims(gr.r_shriek_left(RM, k, dd=dd)) == \
        alg.homology_dims(gr.coextend_scalars(RM, k))
    for _ in range(4):
        M = sm.random_zero_diff_module(S, rng)
        assert alg.homology_dims(gr.r_shriek_left(RM, M, dd=dd)) == \
            alg.homology_dims(gr.coextend_scalars(RM, M))


def test_shriek_left_diagonal_pair():
    # positive projective dimension: the left model computes the derived
    # coextension, so the honest comparison resolves injectively first
    rm = MAPS["T<T^2-diag"]
    dd = gr.derived_dual(rm)
    rng = random.Random(9)
    for _ in range(3):
        M = sm.random_zero_diff_module(rm.source, rng, max_power=2)
        assert alg.homology_dims(gr.r_shriek_left(rm, M, dd=dd)) == \
            gr.derived_coextension_dims(rm, M)


def test_upper_shriek_is_certified_shift():
    dd = gr.derived_dual(RM)
    N = sm.cyclic_quotient(T, [3])
    out = gr.r_upper_shriek(RM, N, dd=dd)
    assert {n: out.dim(n) for n in out.degrees()} == \
        {n - 2: N.dim(n) for n in N.degrees()}


def test_shift_law_on_injective_and_randoms():
    dd = gr.derived_dual(RM)
    I_T = alg.basic_injective(T, Window(0, 12), name="I_T")
    rep = gr.shift_law_check(RM, I_T, dd=dd)
    assert rep.passed and rep.expected_shift == 2 and rep.computed_shift == 2
    rng = random.Random(21)
    for _ in range(4):
        N = sm.random_zero_diff_module(T, rng)
        assert gr.shift_law_check(RM, N, dd=dd).passed


def test_shift_law_identity_and_diagonal():
    assert gr.shift_law_check(MAPS["id-T"], alg.residue_field(T)).passed
    rep = gr.shift_law_check(MAPS["T<T^2-diag"], sm.cyclic_quotient(T, [2]))
    assert rep.passed and rep.expected_shift == 1


def test_adjunction_identity_trivial():
    k = alg.residue_field(T)
    assert gr.adjunction_check(MAPS["id-T"], k, k).passed


def test_adjunction_t_in_su2():
    kS = alg.residue_field(S)
    kT = alg.residue_field(T)
    rep = gr.adjunction_check(RM, kS, kT)
    assert rep.passed
    assert rep.extension_pair[0] == (1, 1)


def test_adjunction_random_instances():
    rng = random.Random(33)
    for _ in range(3):
        M = sm.random_zero_diff_module(S, rng, max_power=2, max_shift=1)
        N = sm.random_zero_diff_module(T, rng, max_power=2, max_shift=1)
        assert gr.adjunction_check(RM, M, N).passed


def test_adjunction_zero_modules():
    rep = gr.adjunction_check(RM, alg.zero_module(S), alg.zero_module(T))
    assert rep.passed
    assert all(v == (0, 0) for v in rep.extension_pair.values())


def test_catalog_is_built_once_and_read_only(capsys):
    from koszuldg.cli import main
    maps = gr.catalog_ring_maps()
    assert maps is not gr.catalog_ring_maps()  # a fresh dict every call
    for name in maps:
        for action in ("dual", "shift-check", "restrict", "extend", "coextend", "shriek"):
            argv = ["groups", action, "--pair", name, "--format", "json"]
            argv += [] if action == "dual" else ["--module", "k"]
            assert main(argv) == 0, (name, action, capsys.readouterr().out)
    capsys.readouterr()
    again, fresh = gr.catalog_ring_maps(), gr._catalog.__wrapped__()
    assert all(again[name] is rm for name, rm in maps.items())
    assert list(again) == list(fresh)
    assert all(vars(again[name]) == vars(fresh[name]) for name in fresh)


def test_finiteness_certificate_stops_where_the_vanishing_run_closes():
    # the quotient by the image ideal is recorded up to the codegree where
    # it has vanished on a run as long as the largest target codegree, and
    # its generators are unit columns over the monomials of their codegree
    cert = MAPS["T<SU(2)"].certificate
    assert cert.top_codegree == 2 and cert.coker_dims == {0: 1, 1: 0, 2: 1, 3: 0, 4: 0}
    assert cert.generator_basis == [(0, (1, {0: 1})), (2, (1, {0: 1}))]
    cert = MAPS["T^2<SU(3)"].certificate
    assert cert.top_codegree == 6 and max(cert.coker_dims) == 8
    assert [n for n, _ in cert.generator_basis] == [0, 2, 2, 4, 4, 6]
    assert MAPS["id-T"].certificate.coker_dims == {0: 1, 1: 0, 2: 0}


def test_freeness_certificate_fails_on_an_image_off_the_cycles(monkeypatch):
    # over T^2 the certificate follows some images whose classes are reached
    # already in their degree; the first of them reported as no cycle class
    # fails it, though the other images still span every degree
    rm = MAPS["id-T^2"]
    args, dd = certificate_inputs(rm)
    assert gr._freeness_certificate(*args[:-1]) == (0, True)
    real, spans, forced = alg.express_in_homology, {}, []

    def express(M, H, t, img):
        coords = real(M, H, t, img)
        if not forced and not _insert(spans.setdefault(t, {}), dict(coords[1])):
            forced.append(t)
            return None
        return coords

    monkeypatch.setattr(gr, "express_in_homology", express)
    assert gr._freeness_certificate(*args[:-1]) == (0, False)
    assert forced == [-4]


def test_freeness_certificate_reads_a_tampered_homology():
    rm = MAPS["T<SU(2)"]
    dd = gr.derived_dual(rm)
    H = alg.homology(dd.realized)
    args = (rm, dd.dual, dd.realized)
    assert gr._freeness_certificate(*args, H, dd.dual_lifts) == (2, True)
    # the lowest class dropped: the dimension pattern fails there, while every
    # class left is still reached from the top one
    low = min(H.dims())
    assert low == -12 and min(H.certified_range()) == low - 1
    dropped = dataclasses.replace(H, pieces={n: p for n, p in H.pieces.items() if n != low})
    assert dropped.dim(low) == 0 != rm.target.dim(low - 2)
    assert gr._freeness_certificate(*args, dropped, dd.dual_lifts) == (2, False)
    # a certified range that ends at the lowest class: it is reached too
    ending = dataclasses.replace(H, certified=(low, H.certified[1]))
    assert min(ending.certified_range()) == low
    assert gr._freeness_certificate(*args, ending, dd.dual_lifts) == (2, True)
