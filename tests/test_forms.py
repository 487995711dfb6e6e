"""The integer block forms that graded maps keep, against the dense code
they replaced: degreewise homology from a transposed block and a dense
kernel basis, the dense matrix-vector product, and Hom from a free complex,
direct sums and mapping cones assembled entry by entry from dense blocks.
Pieces, vectors and blocks must be equal, and rejections must carry the
same message."""
import copy
import random
from fractions import Fraction as F

import pytest

from koszuldg import algebra as alg
from koszuldg import samples as sm
from koszuldg.grlin import (
    CompositionNotZero,
    GradedMap,
    GradedVS,
    HomologyPiece,
    Window,
    _echelon,
    _int_form,
    _int_product,
    _primitive,
    homology_at,
    is_zero_matrix,
    kernel_basis,
    transpose,
    zeros,
)

T, T2 = alg.GroupData((2,)), alg.GroupData((2, 2))
R1, R2 = alg.poly_algebra(T), alg.poly_algebra(T2)
L1, L2 = alg.ext_algebra(T), alg.ext_algebra(T2)


# ---------------------------------------------------------------------------
# the dense versions


def dense_homology_at(d_in, d_out, n):
    """homology_at as it was before maps kept their forms."""
    stored_in = d_in.blocks.get(n - d_in.degree)
    stored_out = d_out.blocks.get(n)
    if stored_in is not None and stored_out is not None and any(
            _int_product(_int_form(stored_out), _int_form(stored_in))[1]):
        raise CompositionNotZero(f"d.d != 0 entering degree {n}")
    into = d_in.block(n - d_in.degree)
    out = d_out.block(n)
    amb = len(out[0]) if out else (len(into) if into else 0)
    cycles = kernel_basis(out, cols=amb)
    cols = transpose(into)
    k = len(cols)
    rows = []
    for i in range(amb):
        row = {j: col[i] for j, col in enumerate(cols) if col[i]}
        row.update((k + j, z[i]) for j, z in enumerate(cycles) if z[i])
        rows.append(_primitive(row))
    pivots = sorted(_echelon(rows))
    boundaries = [cols[j] for j in pivots if j < k]
    reps = [cycles[j - k][:] for j in pivots if j >= k]
    return HomologyPiece(n, len(reps), reps, cycles, boundaries)


def dense_mat_vec(a, v):
    assert not a or len(a[0]) == len(v)
    return [sum((c * x for c, x in zip(row, v) if c), F(0)) for row in a]


def dense_mul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), F(0))
             for j in range(len(b[0]) if b else 0)] for row in a]


def dense_action(M, p, n):
    """The action of p on degree n from dense monomial products."""
    rows, cols = M.dim(n + p.degree()), M.dim(n)
    out = zeros(rows, cols)
    gens = M.generator_degrees()
    for alpha, c in p.terms.items():
        m = [[F(int(i == j)) for j in range(cols)] for i in range(cols)]
        at = n
        for i, a in enumerate(alpha):
            for _ in range(a):
                m = dense_mul(M.actions[i].block(at), m)
                at += gens[i]
        if rows and m and m[0]:
            for rr in range(rows):
                for cc in range(cols):
                    out[rr][cc] += c * m[rr][cc]
    return out


def dense_hom_blocks(Fr, M, H, contractions):
    """The differential and action blocks of H = hom_from_free(Fr, M),
    assembled entry by entry from dense blocks on H's degrees."""
    R = Fr.algebra
    bdegs = Fr.basis_degrees()
    dims = H.space.dims
    offsets = {}
    for n in dims:
        offs, total = [], 0
        for b in bdegs:
            offs.append(total)
            total += M.known_dim(n + b)
        offsets[n] = offs
    diff_blocks = {}
    for n in dims:
        t = n - 1
        if t not in dims:
            continue
        m = zeros(dims[t], dims[n])
        sgn = -1 if n % 2 else 1
        for j, bj in enumerate(bdegs):
            src_dim, tgt_rows = M.known_dim(n + bj), M.known_dim(t + bj)
            if src_dim and tgt_rows:
                blk = M.diff.block(n + bj)
                for rr in range(tgt_rows):
                    for cc in range(src_dim):
                        if blk[rr][cc]:
                            m[offsets[t][j] + rr][offsets[n][j] + cc] += blk[rr][cc]
            if not tgt_rows:
                continue
            for i, bi in enumerate(bdegs):
                p = Fr.diff[i][j]
                if p.is_zero() or not M.known_dim(n + bi):
                    continue
                act = dense_action(M, p, n + bi)
                for rr in range(tgt_rows):
                    for cc in range(M.known_dim(n + bi)):
                        if act[rr][cc]:
                            m[offsets[t][j] + rr][offsets[n][i] + cc] -= sgn * act[rr][cc]
        if not is_zero_matrix(m):
            diff_blocks[n] = m
    act_blocks = []
    if contractions:
        L = H.algebra
        subs = L.subsets()
        for i, g in enumerate(L.generator_degrees()):
            blocks = {}
            for n in dims:
                t = n + g
                if t not in dims:
                    continue
                m = zeros(dims[t], dims[n])
                for k, s in enumerate(subs):
                    if i not in s:
                        continue
                    k2 = subs.index(tuple(j for j in s if j != i))
                    sgn = L.remove_sign(i, s) * (-1 if n % 2 else 1)
                    for idx in range(M.known_dim(n + bdegs[k2])):
                        m[offsets[t][k] + idx][offsets[n][k2] + idx] += sgn
                if not is_zero_matrix(m):
                    blocks[n] = m
            act_blocks.append(blocks)
        return diff_blocks, act_blocks
    for i in range(R.r):
        blocks = {}
        for n in dims:
            t = n - R.codegrees[i]
            if t not in dims:
                continue
            m = zeros(dims[t], dims[n])
            for j, bj in enumerate(bdegs):
                blk = M.actions[i].block(n + bj)
                for rr in range(M.known_dim(t + bj)):
                    for cc in range(M.known_dim(n + bj)):
                        if blk[rr][cc]:
                            m[offsets[t][j] + rr][offsets[n][j] + cc] = blk[rr][cc]
            if not is_zero_matrix(m):
                blocks[n] = m
        act_blocks.append(blocks)
    return diff_blocks, act_blocks


def dense_sum_blocks(A, B, S):
    """The blocks of S = direct_sum(A, B), copied entry by entry."""
    dims = S.space.dims
    out = []
    for gm_a, gm_b, deg in [(A.diff, B.diff, -1)] + [
            (a, b, g) for a, b, g in zip(A.actions, B.actions, A.generator_degrees())]:
        blocks = {}
        for n in dims:
            t = n + deg
            if t not in dims:
                continue
            da, db = A.known_dim(n), B.known_dim(n)
            ta, tb = A.known_dim(t), B.known_dim(t)
            m = zeros(ta + tb, da + db)
            ba, bb = gm_a.block(n), gm_b.block(n)
            for i in range(ta):
                for j in range(da):
                    m[i][j] = ba[i][j]
            for i in range(tb):
                for j in range(db):
                    m[ta + i][da + j] = bb[i][j]
            if not is_zero_matrix(m):
                blocks[n] = m
        out.append(blocks)
    return out


def dense_cone_blocks(f, C):
    """The blocks of C = mapping_cone(f), copied entry by entry."""
    A, B = f.source, f.target
    dims = C.space.dims
    diff, acts = {}, [{} for _ in A.actions]
    for n in dims:
        db, da = B.known_dim(n), A.known_dim(n - 1)
        if (n - 1) in dims:
            tb, ta = B.known_dim(n - 1), A.known_dim(n - 2)
            m = zeros(tb + ta, db + da)
            bb, fb, ab = B.diff.block(n), f.block(n - 1), A.diff.block(n - 1)
            for i in range(tb):
                for j in range(db):
                    m[i][j] = bb[i][j]
                for j in range(da):
                    m[i][db + j] = fb[i][j]
            for i in range(ta):
                for j in range(da):
                    m[tb + i][db + j] = -ab[i][j]
            if not is_zero_matrix(m):
                diff[n] = m
        for t, g in enumerate(A.generator_degrees()):
            if n + g not in dims:
                continue
            tb, ta = B.known_dim(n + g), A.known_dim(n + g - 1)
            m = zeros(tb + ta, db + da)
            bb, ab = B.actions[t].block(n), A.actions[t].block(n - 1)
            for i in range(tb):
                for j in range(db):
                    m[i][j] = bb[i][j]
            for i in range(ta):
                for j in range(da):
                    m[tb + i][db + j] = (-1 if g % 2 else 1) * ab[i][j]
            if not is_zero_matrix(m):
                acts[t][n] = m
    return [diff] + acts


# ---------------------------------------------------------------------------
# inputs


def sample_modules(rng, poly_only=False):
    mods = [alg.basic_injective(R1, Window(0, 6)),
            alg.to_degreewise(alg.koszul_model(R2), Window(-6, 2)),
            sm.cyclic_quotient(R2, [2, 3])]
    if not poly_only:
        mods += [alg.lambda_as_module(L1), alg.lambda_as_module(L2)]
    for _ in range(3):
        mods.append(sm.random_torsion_dg_module(R1, rng, max_total=6))
        mods.append(sm.random_torsion_dg_module(R2, rng, max_total=6))
        if not poly_only:
            mods.append(sm.random_lambda_module(L1, rng, max_total=5))
            mods.append(sm.random_lambda_module(L2, rng, max_total=6))
    return mods


def fresh(gm):
    """The same blocks in a map that has converted none of them yet."""
    return GradedMap(gm.source, gm.target, gm.degree, gm.blocks)


def with_fresh_maps(M):
    N = copy.copy(M)
    N.diff = fresh(M.diff)
    N.actions = tuple(fresh(a) for a in M.actions)
    return N


def random_vector(rng, n):
    return [rng.choice([F(0), F(0), F(1), F(-2), F(3, 4), F(-5, 3)])
            for _ in range(n)]


def random_matrix(rng, rows, cols, density):
    return [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
             if rng.random() < density else F(0) for _ in range(cols)]
            for _ in range(rows)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except CompositionNotZero as exc:
        return ("CompositionNotZero", str(exc))


# ---------------------------------------------------------------------------
# homology


def test_homology_at_matches_dense_version_on_samples():
    rng = random.Random(41)
    checked = 0
    for M in sample_modules(rng):
        # the module's own check has converted the differential already
        assert M.total_dim() == 0 or M.diff._forms or not M.diff.blocks
        for d in (M.diff, fresh(M.diff)):
            for n in range(M.lo - 1, M.hi + 2):
                want = dense_homology_at(d, d, n)
                assert homology_at(d, d, n) == want
                checked += want.dim
    assert checked >= 40


def complexes(rng):
    """(label, d_in, d_out) on dims c -> b -> a over degrees 2, 1, 0, with
    fractional entries, absent and stored zero blocks, and d.d != 0."""
    for _ in range(60):
        a, b, c = (rng.randint(0, 6) for _ in range(3))
        d_out = random_matrix(rng, a, b, rng.choice((0.2, 0.5, 0.9)))
        ker = kernel_basis(d_out, cols=b)
        d_in = zeros(b, c)
        for j in range(c):
            for v in ker:
                s = F(rng.randint(-2, 2), rng.choice((1, 2, 5)))
                for i in range(b):
                    d_in[i][j] += s * v[i]
        vs = GradedVS({0: a, 1: b, 2: c})
        variants = {"stored": ({2: d_in}, {1: d_out}),
                    "in absent": ({}, {1: d_out}),
                    "out absent": ({2: d_in}, {}),
                    "in zero": ({2: zeros(b, c)}, {1: d_out}),
                    "out zero": ({2: d_in}, {1: zeros(a, b)})}
        if a and b and c:
            bad = [row[:] for row in d_in]
            i, j = rng.randrange(b), rng.randrange(c)
            bad[i][j] += F(1, rng.choice((1, 3)))
            variants["d.d != 0"] = ({2: bad}, {1: d_out})
        for label, (bin_, bout) in variants.items():
            if not b or (not a and bout) or (not c and bin_):
                continue
            yield label, GradedMap(vs, vs, -1, bin_), GradedMap(vs, vs, -1, bout)


def test_homology_at_matches_dense_version_on_edge_cases():
    rng = random.Random(42)
    labels = set()
    for label, d_in, d_out in complexes(rng):
        want = outcome(dense_homology_at, d_in, d_out, 1)
        assert outcome(homology_at, d_in, d_out, 1) == want
        # again with every form already computed
        assert outcome(homology_at, d_in, d_out, 1) == want
        labels.add((label, isinstance(want, tuple)))
    assert ("d.d != 0", True) in labels
    assert {label for label, _ in labels} == {
        "stored", "in absent", "out absent", "in zero", "out zero", "d.d != 0"}


# ---------------------------------------------------------------------------
# apply


def test_apply_matches_dense_product():
    rng = random.Random(43)
    checked = 0
    for M in sample_modules(rng):
        for gm in (M.diff, *M.actions):
            for g in (gm, fresh(gm)):
                for n in range(M.lo - 1, M.hi + 2):
                    v = random_vector(rng, M.dim(n))
                    got = g.apply(n, v)
                    assert got == dense_mat_vec(g.block(n), v)
                    assert all(isinstance(x, F) for x in got)
                    checked += 1
    vs = GradedVS({0: 2, 1: 3})
    zero = GradedMap(vs, vs, -1, {1: zeros(2, 3)})
    assert zero.apply(1, [F(1), F(2, 3), F(0)]) == [F(0), F(0)]
    with pytest.raises(ValueError):
        zero.apply(1, [F(1)])
    assert checked >= 200


# ---------------------------------------------------------------------------
# Hom from a free complex


@pytest.mark.parametrize("contractions", [False, True])
def test_hom_from_free_matches_dense_assembly(contractions):
    rng = random.Random(44)
    checked = 0
    for M in sample_modules(rng, poly_only=True):
        R = M.algebra
        frees = [alg.koszul_model(R)]
        if not contractions:
            frees.append(alg.koszul_stage(R, 1).shift(1))
        for Fr in frees:
            for N in (M, with_fresh_maps(M)):
                H = alg.hom_from_free(Fr, N, contractions=contractions)
                diff, acts = dense_hom_blocks(Fr, M, H, contractions)
                assert H.diff.blocks == diff
                assert [a.blocks for a in H.actions] == acts
                checked += len(diff)
    assert checked >= 20


# ---------------------------------------------------------------------------
# direct sums and mapping cones


def test_sums_and_cones_match_dense_assembly():
    rng = random.Random(45)
    mods = sample_modules(rng)
    sums = cones = 0
    for A in mods:
        for B in mods:
            if A.algebra != B.algebra or rng.random() < 0.6:
                continue
            for X, Y in ((A, B), (with_fresh_maps(A), with_fresh_maps(B))):
                S = alg.direct_sum(X, Y)
                assert [S.diff.blocks] + [a.blocks for a in S.actions] == \
                    dense_sum_blocks(A, B, S)
                sums += 1
            f = sm.random_chain_map(A, B, rng)
            C = alg.mapping_cone(f)
            assert [C.diff.blocks] + [a.blocks for a in C.actions] == \
                dense_cone_blocks(f, C)
            cones += bool(f.blocks)
    assert sums >= 20 and cones >= 10
