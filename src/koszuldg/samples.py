"""Canonical and randomized sample modules for tests and demonstrations.

Random torsion DG modules are built from ingredients that cannot violate
the module axioms: shifted monomial-quotient cyclics, degreewise basis
conjugation, and mapping cones over randomly chosen chain maps.  Everything
is driven by a caller-supplied random.Random, so sample streams are
reproducible from their seeds.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .grlin import (_column_sum, _coordinates_form, _echelon, _int_form, _int_product,
                    _sparse_rows)
from .algebra import (
    ChainMap,
    DGModule,
    ExtAlgebra,
    PolyAlgebra,
    chain_map_from_blocks,
    chain_map_space,
    dg_module,
    direct_sum,
    lambda_as_module,
    mapping_cone,
    residue_field,
    trivial_lambda_module,
)


def cyclic_quotient(R: PolyAlgebra, powers, name: str = "") -> DGModule:
    """R modulo the monomial ideal (x_i^powers[i]): finite length, zero
    differential, monomial basis."""
    if len(powers) != R.r or any(p < 1 for p in powers):
        raise ValueError(f"cyclic_quotient needs {R.r} powers >= 1, not {list(powers)}")
    mons = [()]
    if R.r:
        mons = []
        def rec(prefix):
            if len(prefix) == R.r:
                mons.append(tuple(prefix))
                return
            for a in range(powers[len(prefix)]):
                rec(prefix + [a])
        rec([])
    by_degree = {}
    for m in mons:
        d = R.monomial_degree(m)
        by_degree.setdefault(d, []).append(m)
    for d in by_degree:
        by_degree[d].sort()
    dims = {d: len(ms) for d, ms in by_degree.items()}
    labels = {d: [R.monomial_label(m) for m in ms] for d, ms in by_degree.items()}
    act_blocks = [dict() for _ in range(R.r)]
    for d, ms in by_degree.items():
        for i in range(R.r):
            t = d - R.codegrees[i]
            if t not in by_degree:
                continue
            idx = {m: k for k, m in enumerate(by_degree[t])}
            rows = [{} for _ in by_degree[t]]
            for col, m in enumerate(ms):
                m2 = list(m)
                m2[i] += 1
                if tuple(m2) in idx:
                    rows[idx[tuple(m2)]][col] = 1
            act_blocks[i][d] = (1, rows, len(ms))
    lo, hi = min(dims), max(dims)
    return dg_module(R, dims, {}, act_blocks, lo, hi,
                     complete_below=True, complete_above=True,
                     labels=labels, name=name or f"R/{powers}")


def random_invertible(n: int, rng: random.Random):
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if len(_echelon(_sparse_rows(m))) == n:
            return m


def mat_inverse(m):
    """The integer form of the inverse of the square matrix m: its column j
    holds the coordinates of the j-th unit vector on the columns of m."""
    den, rows, _ = _int_form(m)
    n = len(rows)
    columns = [(den, {i: row[j] for i, row in enumerate(rows) if j in row}) for j in range(n)]
    inverse = _coordinates_form(columns, [(1, {j: 1}) for j in range(n)])
    if inverse is None:
        raise ValueError("matrix not invertible")
    return inverse


def conjugate(M: DGModule, rng: random.Random, name: str = "") -> DGModule:
    """Change basis degreewise by random invertible matrices."""
    ps = {n: random_invertible(M.dim(n), rng) for n in M.degrees()}
    inv = {n: mat_inverse(p) for n, p in ps.items()}
    ps = {n: _int_form(p) for n, p in ps.items()}

    def transform(gm, deg):
        return {n: _int_product(ps[n + deg], _int_product(f, inv[n]))
                for n, f in sorted(gm.forms.items())}

    dims = dict(M.space.dims)
    return dg_module(M.algebra, dims, transform(M.diff, -1),
                     [transform(act, g) for act, g in
                      zip(M.actions, M.generator_degrees())],
                     M.lo, M.hi, M.complete_below, M.complete_above,
                     name=name or f"conj({M.name})")


def random_chain_map(A: DGModule, B: DGModule, rng: random.Random,
                     degree: int = 0) -> ChainMap:
    """A random small-integer combination of a chain-map-space basis."""
    basis = chain_map_space(A, B, degree)
    terms = [(lead, {i: c * x for i, x in col.items()})
             for c, (lead, col) in zip([rng.randint(-2, 2) for _ in basis], basis) if c]
    return chain_map_from_blocks(A, B, degree, _column_sum(*terms), basis.blocks)


def random_zero_diff_module(R: PolyAlgebra, rng: random.Random,
                            max_pieces: int = 2, max_power: int = 2,
                            max_shift: int = 2) -> DGModule:
    """Random finite-length module with zero differential: a conjugated sum
    of shifted monomial-quotient cyclics."""
    pieces = rng.randint(1, max_pieces)
    out = None
    for _ in range(pieces):
        powers = [rng.randint(1, max_power) for _ in range(R.r)]
        shift = -rng.randint(0, max_shift)
        piece = cyclic_quotient(R, powers).shift(2 * shift)
        out = piece if out is None else direct_sum(out, piece)
    out = conjugate(out, rng)
    out.name = "random"
    return out


def random_torsion_dg_module(R: PolyAlgebra, rng: random.Random,
                             max_total: int = 8) -> DGModule:
    """Random finite torsion DG module: cone over a random chain map
    between random zero-differential modules, trimmed by total dimension."""
    for _ in range(40):
        a = random_zero_diff_module(R, rng)
        b = random_zero_diff_module(R, rng)
        if a.total_dim() + b.total_dim() > max_total:
            continue
        f = random_chain_map(a.shift(rng.randint(-1, 1)), b, rng)
        M = mapping_cone(f, name="random-dg")
        if 0 < M.total_dim() <= max_total:
            return M
    return residue_field(R, name="random-dg")


def random_lambda_module(L: ExtAlgebra, rng: random.Random,
                         max_total: int = 8) -> DGModule:
    """Random finite exterior DG module, by cones between sums of shifted
    copies of the algebra and the trivial module."""
    def base():
        picks = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(["triv", "free"])
            shift = rng.randint(0, 2)
            piece = (trivial_lambda_module(L) if kind == "triv"
                     else lambda_as_module(L)).shift(shift)
            picks.append(piece)
        out = picks[0]
        for p in picks[1:]:
            out = direct_sum(out, p)
        return out

    for _ in range(40):
        a, b = base(), base()
        if a.total_dim() + b.total_dim() > max_total:
            continue
        f = random_chain_map(a, b, rng)
        M = mapping_cone(f, name="random-ext")
        if 0 < M.total_dim() <= max_total:
            return conjugate(M, rng, name="random-ext")
    return trivial_lambda_module(L, name="random-ext")
