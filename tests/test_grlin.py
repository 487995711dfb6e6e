import random
from fractions import Fraction as F

import pytest

from dense import (
    DenseSubspace,
    block,
    boundary_basis,
    column_vector,
    cycle_basis,
    form,
    int_column,
    kernel_basis,
    matrix,
    rank,
    representatives,
    rref,
    solve,
)
from koszuldg.grlin import (
    CompositionNotZero,
    GradedMap,
    GradedVS,
    LinearSystem,
    Subspace,
    Window,
    _coordinates_form,
    homology_at,
)


def M(rows):
    return [[F(x) for x in row] for row in rows]


def test_rank_identity():
    assert rank(M([[1, 0], [0, 1]])) == 2


def test_rank_zero_matrix():
    assert rank(M([[0, 0, 0, 0]] * 3)) == 0


def test_rank_dependent_rows():
    assert rank(M([[1, 2], [2, 4]])) == 1


def test_rank_fractions():
    # det of [[1/2, 1/3], [3/2, 1]] vanishes; bump one entry for full rank
    assert rank(M([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]])) == 1
    assert rank(M([[F(1, 2), F(1, 3)], [F(3, 2), F(2)]])) == 2


def test_kernel_identity_empty():
    assert kernel_basis(M([[1, 0], [0, 1]])) == []


def test_kernel_zero_standard_basis():
    assert kernel_basis(M([[0, 0], [0, 0]])) == [[F(1), F(0)], [F(0), F(1)]]


def test_kernel_single_relation():
    assert kernel_basis(M([[1, 1]])) == [[F(1), F(-1)]]


def test_rank_nullity_random():
    rng = random.Random(1)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        assert rank(m) + len(kernel_basis(m)) == cols


def test_solve_consistent_and_not():
    a = M([[1, 2], [2, 4]])
    assert solve(a, [F(1), F(2)]) is not None
    assert solve(a, [F(1), F(3)]) is None


def test_solve_free_vars_zero():
    sol = solve(M([[1, 1]]), [F(2)])
    assert sol == [F(2), F(0)]


def test_subspace_membership():
    s = Subspace(3, [[F(1), F(0), F(1)]])
    assert s.contains([F(2), F(0), F(2)])
    assert not s.contains([F(1), F(1), F(0)])
    assert s.add([F(0), F(1), F(0)]) and not s.add([F(1), F(1), F(1)]) and s.dim == 2


def _three_term(dims, d1, d2):
    vs = GradedVS(dims)
    maps = {}
    if d1 is not None:
        maps[1] = d1
    out = GradedMap(vs, vs, -1, {})
    into = GradedMap(vs, vs, -1, {1: form(d1)} if d1 else {})
    outof = GradedMap(vs, vs, -1, {0: form(d2)} if d2 else {})
    return into, outof


def test_homology_at_zero_maps():
    vs = GradedVS({-1: 3, 0: 3, 1: 3})
    zero = GradedMap(vs, vs, -1, {})
    piece = homology_at(zero, zero, 0)
    assert piece.dim == 3


def test_homology_at_acyclic():
    vs = GradedVS({0: 1, 1: 1})
    d = GradedMap(vs, vs, -1, {1: form(M([[1]]))})
    piece = homology_at(d, d, 0)
    assert piece.dim == 0
    piece = homology_at(d, d, 1)
    assert piece.dim == 0


def test_homology_at_composition_check():
    vs = GradedVS({0: 1, 1: 1, 2: 1})
    d = GradedMap(vs, vs, -1, {1: form(M([[1]])), 2: form(M([[1]]))})
    with pytest.raises(CompositionNotZero):
        homology_at(d, d, 1)


def test_homology_conjugation_invariance():
    # change of basis in the middle degree does not change the dimension
    rng = random.Random(5)
    for _ in range(20):
        a, b, c = (rng.randint(1, 3) for _ in range(3))
        d2 = [[F(rng.randint(-2, 2)) for _ in range(c)] for _ in range(b)]
        # build d1 into the kernel of d2 so the composite vanishes
        ker = kernel_basis(d2)
        d1 = [[F(0)] * a for _ in range(c)]
        for j in range(a):
            if ker:
                v = ker[rng.randrange(len(ker))]
                scale = rng.randint(-2, 2)
                for i in range(c):
                    d1[i][j] = v[i] * scale
        vs = GradedVS({0: b, 1: c, 2: a})
        din = GradedMap(vs, vs, -1, {2: form(d1)})
        dout = GradedMap(vs, vs, -1, {1: form(d2)})
        base = homology_at(din, dout, 1).dim
        # conjugate the middle degree
        while True:
            p = [[F(rng.randint(-2, 2)) for _ in range(c)] for _ in range(c)]
            if rank(p) == c:
                break
        from koszuldg.samples import mat_inverse
        pinv = matrix(*mat_inverse(form(p)))
        din2 = GradedMap(vs, vs, -1, {2: form(mat_mul(p, d1))})
        dout2 = GradedMap(vs, vs, -1, {1: form(mat_mul(d2, pinv))})
        assert homology_at(din2, dout2, 1).dim == base


def test_graded_map_rejects_blocks_of_the_wrong_shape():
    # degree 0 -> degree 1 wants a 2x1 block
    vs = GradedVS({0: 1, 1: 2})
    with pytest.raises(ValueError) as err:
        GradedMap(vs, vs, 1, {0: (1, [{0: 1}], 1)})
    assert str(err.value) == "block at 0 is 1x1 want 2x1"
    with pytest.raises(ValueError) as err:
        GradedMap(vs, vs, 1, {0: (1, [{0: 1}, {1: 1}], 2)})
    assert str(err.value) == "block at 0 is 2x2 want 2x1"


def test_window_validation():
    w = Window(-3, 5)
    assert w.guaranteed_lo == -3 and w.guaranteed_hi == 5
    with pytest.raises(ValueError):
        Window(2, 1)
    with pytest.raises(ValueError):
        Window(0, 4, -1, 2)


def test_linear_system_roundtrip():
    # a + b = 3, a - b = 1 on the unknown column (a, b)
    sys = LinearSystem()
    sys.unknowns("v", 2, 1)
    sys.equate(2, 1, left=[(1, (1, [{0: 1, 1: 1}, {0: 1, 1: -1}], 2), "v")],
               rhs=(1, [{0: 3}, {0: 1}], 1))
    assert sys.rows == [{0: 1, 1: 1}, {0: 1, 1: -1}] and sys.rhs == [3, 1]
    # the solution is an integer column over the variables
    assert sys.solve() == (1, {0: 2, 1: 1})
    # 2a + 2b = 3, a - b = 0: a = b = 3/4, over the least denominator
    sys = LinearSystem()
    sys.unknowns("v", 2, 1)
    sys.equate(2, 1, left=[(1, (1, [{0: 2, 1: 2}, {0: 1, 1: -1}], 2), "v")],
               rhs=(1, [{0: 3}, {}], 1))
    assert sys.solve() == (4, {0: 3, 1: 3})


def test_linear_system_kernel_deterministic():
    # x + y + z = 0, the unknown row (x, y, z) declared after an empty block
    def kernel():
        sys = LinearSystem()
        sys.unknowns("e", 0, 4)
        sys.unknowns("v", 1, 3)
        sys.equate(1, 1, left=[(1, None, "v")])  # a zero term adds nothing
        sys.equate(1, 1, right=[(1, "v", (1, [{0: 1}, {0: 1}, {0: 1}], 1))])
        assert sys.rows == [{0: 1, 1: 1, 2: 1}]
        return sys.kernel()

    # one column per free variable, its first entry 1
    assert kernel() == kernel() == [(1, {0: 1, 1: -1}), (1, {0: 1, 2: -1})]


def test_rref_canonical():
    red, piv = rref(M([[0, 2, 4], [1, 1, 1]]))
    assert piv == [0, 1]
    assert red == M([[1, 0, -1], [0, 1, 2]])


def test_determinism_bit_for_bit():
    rng = random.Random(9)
    mats = [[[F(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
            for _ in range(10)]
    first = [(rank(m), kernel_basis(m)) for m in mats]
    second = [(rank(m), kernel_basis(m)) for m in mats]
    assert first == second


# ---------------------------------------------------------------------------
# the sparse integer elimination against dense Fraction Gauss-Jordan


def reference_rref(m):
    """Dense Gauss-Jordan over QQ: first nonzero row as pivot, columns left
    to right, pivot scaled to 1 and cleared from every other row."""
    a = [row[:] for row in m]
    if not a or not a[0]:
        return a, []
    n_rows, n_cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a, pivots


def reference_kernel(m, cols):
    if cols == 0:
        return []
    if not m:
        return [[F(int(i == j)) for i in range(cols)] for j in range(cols)]
    red, pivots = reference_rref(m)
    basis = []
    for j in (j for j in range(cols) if j not in pivots):
        v = [F(0)] * cols
        v[j] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][j]
        lead = next(x for x in v if x != 0)
        basis.append([y / lead for y in v])
    return basis


def reference_solve(a, b):
    n_cols = len(a[0]) if a else 0
    if not a:
        return [F(0)] * n_cols
    red, pivots = reference_rref([row + [y] for row, y in zip(a, b)])
    if n_cols in pivots:
        return None
    x = [F(0)] * n_cols
    for r, p in enumerate(pivots):
        x[p] = red[r][n_cols]
    return x


def random_matrix(rng, rows, cols, density):
    return [[F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 5)))
             if rng.random() < density else F(0) for _ in range(cols)]
            for _ in range(rows)]


def seeded_matrices():
    rng = random.Random(11)
    shapes = [(0, 0), (0, 4), (3, 0), (1, 1), (1, 9), (9, 1), (4, 4),
              (25, 6), (6, 25), (30, 40), (40, 30), (36, 36)]
    out = [[], [[]], [[F(0)] * 5 for _ in range(4)]]
    for rows, cols in shapes:
        for density in (0.0, 0.02, 0.05, 0.1):
            out.append(random_matrix(rng, rows, cols, density))
    out.append(random_matrix(rng, 7, 8, 0.6))
    # dependent rows: a low-rank product
    for _ in range(5):
        k = rng.randint(1, 4)
        left = random_matrix(rng, 12, k, 0.6)
        right = random_matrix(rng, k, 15, 0.6)
        out.append(mat_mul(left, right))
    return out


def test_rref_matches_dense_reference():
    for m in seeded_matrices():
        assert rref(m) == reference_rref(m)


def test_rank_kernel_solve_match_dense_reference():
    rng = random.Random(12)
    for m in seeded_matrices():
        cols = len(m[0]) if m else 0
        _, pivots = reference_rref(m)
        assert rank(m) == len(pivots)
        assert kernel_basis(m, cols=cols) == reference_kernel(m, cols)
        x = [F(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(cols)]
        image = [sum((a * b for a, b in zip(row, x)), F(0)) for row in m]
        other = [F(rng.randint(-1, 1)) for _ in m]
        for b in (image, other):
            assert solve(m, b) == reference_solve(m, b)
        assert solve(m, image) is not None


def mat_mul(a, b):
    """The dense product of two dense matrices."""
    return [[sum((x * b[k][j] for k, x in enumerate(row)), F(0))
             for j in range(len(b[0]) if b else 0)] for row in a]


def random_vectors(rng, n, count):
    """Integer, fractional and zero vectors, and combinations of the ones
    drawn before them."""
    out = []
    for _ in range(count):
        kind = rng.choice(("int", "frac", "zero", "dependent", "dependent"))
        if kind == "zero" or n == 0:
            v = [F(0)] * n
        elif kind == "dependent" and out:
            v = [F(0)] * n
            for w in rng.sample(out, min(len(out), rng.randint(1, 3))):
                c = F(rng.randint(-3, 3), rng.choice((1, 2, 7)))
                v = [x + c * y for x, y in zip(v, w)]
        else:
            den = (1,) if kind == "int" else (1, 2, 3, 10)
            v = [F(rng.randint(-4, 4), rng.choice(den)) if rng.random() < 0.4 else F(0)
                 for _ in range(n)]
        out.append(v)
    return out


def test_subspace_matches_dense_gauss_jordan():
    rng = random.Random(15)
    grew = kept = 0
    for _ in range(150):
        n = rng.randint(0, 12)
        vectors = random_vectors(rng, n, rng.randint(0, 2 * n + 2))
        probes = random_vectors(rng, n, 6) + vectors[:3]
        sparse, dense = Subspace(n), DenseSubspace(n)
        for v in vectors:
            assert sparse.add(v) == dense.add(v)
            assert sparse.dim == dense.dim
            grew += dense.dim
        for v in probes:
            assert sparse.contains(v) == dense.contains(v)
            kept += dense.contains(v)
        assert Subspace(n, vectors).dim == dense.dim
    assert grew >= 500 and kept >= 100


def test_coordinates_form_matches_dense_solve():
    rng = random.Random(16)
    outside = found = 0
    for _ in range(150):
        n = rng.randint(0, 9)
        span = DenseSubspace(n)
        basis = [v for v in random_vectors(rng, n, rng.randint(0, n)) if span.add(v)]
        vectors = random_vectors(rng, n, 4)
        for _ in range(3):
            c = [F(rng.randint(-3, 3), rng.choice((1, 4))) for _ in basis]
            vectors.append([sum((x * b[i] for x, b in zip(c, basis)), F(0)) for i in range(n)])
        cols = [solve([[b[i] for b in basis] for i in range(n)], v) if basis
                else ([] if not any(v) else None) for v in vectors]
        got = _coordinates_form([int_column(b) for b in basis],
                                [int_column(v) for v in vectors])
        if any(c is None for c in cols):
            assert got is None
            outside += 1
        else:
            assert matrix(*got) == [list(row) for row in zip(*cols)]
            found += 1
    assert outside >= 30 and found >= 30


def reference_homology_at(d_in, d_out, n):
    """The greedy Subspace construction: boundaries are the columns of d_in
    that enlarge the span so far, representatives the cycle-basis vectors
    that enlarge span(boundaries) so far."""
    into, out = block(d_in, n - d_in.degree), block(d_out, n)
    amb = len(out[0]) if out else (len(into) if into else 0)
    cycles = kernel_basis(out, cols=amb)
    span, boundaries = DenseSubspace(amb), []
    for col in ([into[i][j] for i in range(len(into))]
                for j in range(len(into[0]) if into else 0)):
        if span.add(col):
            boundaries.append(col)
    return cycles, boundaries, span.complement_in(cycles)


def random_complex(rng):
    a, b, c = (rng.randint(0, 7) for _ in range(3))
    d_out = random_matrix(rng, a, b, rng.choice((0.1, 0.3, 0.7)))
    ker = kernel_basis(d_out, cols=b)
    d_in = [[F(0)] * c for _ in range(b)]
    for j in range(c):
        for v in ker:
            s = F(rng.randint(-2, 2), rng.choice((1, 2)))
            for i in range(b):
                d_in[i][j] += s * v[i]
    vs = GradedVS({0: a, 1: b, 2: c})
    return (GradedMap(vs, vs, -1, {2: form(d_in)} if c and b else {}),
            GradedMap(vs, vs, -1, {1: form(d_out)} if a and b else {}))


def test_homology_at_matches_greedy_subspace():
    rng = random.Random(13)
    for _ in range(80):
        d_in, d_out = random_complex(rng)
        piece = homology_at(d_in, d_out, 1)
        cycles, boundaries, reps = reference_homology_at(d_in, d_out, 1)
        assert cycle_basis(piece) == cycles
        assert boundary_basis(piece) == boundaries
        assert representatives(piece) == reps
        assert piece.dim == len(reps) == len(cycles) - len(boundaries)


def reference_express(M, H, n, v):
    """One dense solve per vector: v = sum c_k rep_k + d(w)."""
    piece = H.pieces.get(n)
    reps = representatives(piece) if piece else []
    dim_up = M.known_dim(n + 1) or 0
    dn1 = block(M.diff, n + 1)
    sol = solve([[rep[row] for rep in reps] + [dn1[row][j] for j in range(dim_up)]
                 for row in range(M.dim(n))], v)
    return None if sol is None else sol[:len(reps)]


def test_express_in_homology_matches_linear_system():
    from koszuldg import algebra as alg
    from koszuldg import duality as du
    from koszuldg import samples as sm

    rng = random.Random(14)
    R2 = alg.poly_algebra(alg.GroupData((2, 2)))
    modules = [du.functor_T(alg.residue_field(R2)),
               du.functor_T(sm.cyclic_quotient(R2, (2, 1)))]
    modules += [sm.conjugate(du.functor_T(sm.random_torsion_dg_module(
        R2, rng, max_total=5)), rng) for _ in range(3)]
    non_cycles = 0

    def express(M, H, n, v):
        # class coordinates take and give integer columns
        coords = alg.express_in_homology(M, H, n, int_column(v))
        return None if coords is None else column_vector(*coords, H.dim(n))

    for M in modules:
        H = alg.homology(M)
        for n in range(M.lo - 1, M.hi + 2):
            piece = H.pieces.get(n)
            dim = M.dim(n)
            vectors = [[F(rng.randint(-2, 2)) for _ in range(dim)]
                       for _ in range(3)]
            if piece:
                def combo(vs):
                    cs = [F(rng.randint(-3, 3)) for _ in vs]
                    return [sum((c * z[i] for c, z in zip(cs, vs)), F(0))
                            for i in range(dim)]
                vectors.append(combo(cycle_basis(piece)))
                boundary = combo(boundary_basis(piece))
                assert express(M, H, n, boundary) == [F(0)] * piece.dim
                vectors.append(boundary)
                out = block(M.diff, n)
                for j in range(dim):
                    if any(row[j] for row in out):
                        unit = [F(int(i == j)) for i in range(dim)]
                        assert express(M, H, n, unit) is None
                        non_cycles += 1
            for v in vectors:
                assert express(M, H, n, v) == reference_express(M, H, n, v)
    assert non_cycles
