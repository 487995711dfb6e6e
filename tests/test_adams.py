import random

import pytest

from dense import rank
from koszuldg.grlin import Window
from koszuldg import algebra as alg
from koszuldg import adams as ad
from koszuldg import resolve as rs
from koszuldg import samples as sm


T = alg.GroupData((2,))
T2 = alg.GroupData((2, 2))
R1 = alg.poly_algebra(T)
R2 = alg.poly_algebra(T2)
k1 = alg.residue_field(R1)
k2 = alg.residue_field(R2)


def test_realize_injective_catalog():
    assert ad.realize_injective(T).support_min() == 1
    assert ad.realize_injective(alg.GroupData((4,))).support_min() == 3
    triv = ad.realize_injective(alg.GroupData(()))
    assert {n: triv.dim(n) for n in triv.degrees()} == {0: 1}


def test_adams_tower_circle():
    tower = ad.adams_tower(k1)
    assert tower.syzygy_check
    assert tower.length == 1
    # first stage homology follows the desuspended quotient-by-socle pattern
    stage1 = tower.stages[1]
    assert stage1.hull_shifts == [1]
    assert all(n % 2 == 1 for n in stage1.homology_dims)
    # final stage is acyclic
    assert tower.stages[-1].homology_dims == {}


def test_adams_tower_rank_two_length():
    tower = ad.adams_tower(k2)
    assert tower.length == 2 and tower.syzygy_check


def test_adams_tower_injective_input_is_short():
    # the windowed basic injective is its own hull: the tower stops at once
    I = alg.basic_injective(R1, Window(0, 12))
    tower = ad.adams_tower(I)
    assert tower.length == 0
    assert tower.stages[0].hull_shifts == [0]
    # a truncated injective is not injective and needs one more step
    J = alg.matlis_dual(sm.cyclic_quotient(R1, [3]))
    assert ad.adams_tower(J).length == 1


def test_e2_page_k_k_circle():
    page = ad.e2_page(k1, k1)
    assert page.e2.entries == {(0, 0): 1, (1, 2): 1}
    assert page.abutment[0] == 1 and page.abutment[1] == 1
    assert page.degenerate and page.euler_ok and page.row_bound_ok


def test_e2_page_acyclic_input():
    acyclic = alg.mapping_cone(alg.identity_map(k1))
    page = ad.e2_page(acyclic, k1)
    assert page.e2.total_dim() == 0
    assert all(a == 0 for a in page.abutment.values())


def test_e2_degeneration_random_circle_pairs():
    rng = random.Random(17)
    for _ in range(15):
        X = sm.random_torsion_dg_module(R1, rng, max_total=8)
        Y = sm.random_torsion_dg_module(R1, rng, max_total=8)
        page = ad.e2_page(X, Y)
        assert page.row_bound_ok and page.euler_ok
        assert page.degenerate, page.comparisons


def test_row_vanishing_rank_two():
    rng = random.Random(19)
    for _ in range(5):
        X = sm.random_zero_diff_module(R2, rng)
        Y = sm.random_zero_diff_module(R2, rng)
        table = rs.ext_bigraded(X, Y, "via_free")
        assert table.max_row() <= 2


def test_e2_page_rank_two_full_pipeline():
    # the page machinery against the derived-Hom abutment at rank two; any
    # non-degenerate instance would be reported, not asserted away
    page = ad.e2_page(k2, k2)
    assert page.e2.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert page.euler_ok and page.row_bound_ok and page.degenerate
    rng = random.Random(51)
    for _ in range(2):
        X = sm.random_torsion_dg_module(R2, rng, max_total=5)
        Y = sm.random_torsion_dg_module(R2, rng, max_total=5)
        page = ad.e2_page(X, Y)
        assert page.euler_ok and page.row_bound_ok


def test_injective_case_check():
    J = ad.realize_injective(T, Window(0, 14))
    assert ad.injective_case_check(sm.cyclic_quotient(R1, [2]), J).agrees
    assert ad.injective_case_check(k1, alg.basic_injective(R1, Window(0, 12))).agrees
    z = alg.zero_module(R1)
    assert ad.injective_case_check(k1, alg.direct_sum(
        alg.basic_injective(R1, Window(0, 12)),
        alg.basic_injective(R1, Window(0, 12)).shift(2))).agrees


def test_injective_case_zero_target():
    rep = ad.injective_case_check(k1, alg.zero_module(R1))
    assert rep.agrees
    assert all(v == 0 for v in rep.dims_rhom.values())


def test_whitehead_injective_nonzero():
    I = alg.basic_injective(R1, Window(0, 10))
    rep = ad.whitehead_detect(I)
    assert rep.agrees and rep.homology_nonzero and rep.dual_nonzero


def test_whitehead_acyclic():
    cone = alg.mapping_cone(alg.identity_map(sm.cyclic_quotient(R1, [2])))
    rep = ad.whitehead_detect(cone)
    assert rep.agrees and not rep.homology_nonzero and not rep.dual_nonzero
    # the staged certificate carries the action-isomorphism trail
    assert all(x in (True, None) for x in rep.stage_action_iso)


def test_whitehead_random_agreement():
    rng = random.Random(23)
    for R in (R1, R2):
        for _ in range(6):
            M = sm.random_torsion_dg_module(R, rng, max_total=6)
            assert ad.whitehead_detect(M).agrees


def test_whitehead_stages_are_built_once(monkeypatch):
    stages = []
    kept = ad.hom_R
    monkeypatch.setattr(ad, "hom_R", lambda K, M: stages.append(K) or kept(K, M))
    M = sm.cyclic_quotient(R2, [2, 1])
    assert ad.whitehead_detect(M).agrees and ad.whitehead_detect(M).agrees
    first, second = stages[:3], stages[3:]
    assert [K.rank for K in first] == [1, 2, 4] and len(second) == 3
    assert all(a is b for a, b in zip(first, second))
    assert first[-1] is alg.koszul_model(R2) and first[1] is alg.koszul_stage(R2, 1)


def test_whitehead_computes_each_stage_homology_once(monkeypatch):
    # the certificate reads the stage dimensions alone: an acyclic stage
    # over one with homology, which no torsion module gives, is False, and
    # the report fails closed; stand-in stages reach it
    k = alg.residue_field(R2)
    stages = iter([k, k, alg.zero_module(R2)])
    monkeypatch.setattr(ad, "hom_R", lambda K, M: next(stages))
    calls, modules = [], []
    kept = alg.homology

    def counted(*args, **kwargs):
        calls.append(args[0])
        return kept(*args, **kwargs)
    monkeypatch.setattr(ad, "homology", counted)
    monkeypatch.setattr(alg, "homology", counted)
    monkeypatch.setattr(ad, "homology_module", lambda *args, **kwargs: modules.append(args))
    rep = ad.whitehead_detect(k)
    assert rep.stage_dims == [{0: 1}, {0: 1}, {}] and rep.stage_action_iso == [None, False]
    assert rep.passed is False and not modules
    # once for the input, once per stage
    assert len(calls) == 4


def test_whitehead_fails_closed_on_an_acyclic_stage_over_homology(monkeypatch):
    # stand-in stages k, 0, k: both sides see homology, so they agree, but
    # stage 1 is acyclic over a stage 0 that is not
    k = alg.residue_field(R2)
    stages = iter([k, alg.zero_module(R2), k])
    monkeypatch.setattr(ad, "hom_R", lambda K, M: next(stages))
    rep = ad.whitehead_detect(k)
    assert rep.stage_action_iso == [False, None]
    assert rep.agrees and rep.passed is False
    monkeypatch.undo()
    assert ad.whitehead_detect(k).passed


def test_whitehead_rejects_untorsion():
    Rm = alg.poly_as_module(R1, Window(-6, 0))
    with pytest.raises(alg.NotTorsion):
        ad.whitehead_detect(Rm)


def test_socle_and_hull():
    M = sm.cyclic_quotient(R1, [3])
    soc = ad.socle(M)
    assert list(soc) == [-4] and len(soc[-4]) == 1
    W, emb = ad.injective_hull_embedding(M)
    assert sorted(n for n in soc for _ in soc[n]) == [-4]
    for n in M.degrees():
        assert rank(emb.block(n)) == M.dim(n)


def test_hull_rejects_a_nonzero_differential_before_solving(monkeypatch):
    M = sm.random_torsion_dg_module(R1, random.Random(7), max_total=6)
    assert M.diff.forms and M.is_torsion()
    calls = []
    monkeypatch.setattr(ad, "socle", lambda N: calls.append(N))
    with pytest.raises(rs.NotFiniteLength, match="zero-differential") as exc:
        ad.injective_hull_embedding(M)
    assert isinstance(exc.value, ValueError) and not calls


def test_adams_tower_computes_homology_and_socle_once_per_stage(monkeypatch):
    calls = {"homology": 0, "socle": 0}

    def counted(module, name):
        kept = getattr(module, name)

        def run(*args, **kwargs):
            calls[name] += 1
            return kept(*args, **kwargs)
        monkeypatch.setattr(module, name, run)

    # homology_module computes its own homology through algebra.homology
    for module, name in ((ad, "homology"), (alg, "homology"), (ad, "socle")):
        counted(module, name)
    rng = random.Random(3)
    stages = hulls = 0
    for _ in range(5):
        tower = ad.adams_tower(sm.random_torsion_dg_module(R1, rng, max_total=6))
        stages += len(tower.stages)
        hulls += sum(st.map_to_injective is not None for st in tower.stages)
    assert stages == 15 and hulls == 10
    assert calls == {"homology": stages, "socle": hulls}
