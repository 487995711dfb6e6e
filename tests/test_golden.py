"""Golden outputs of the exact linear-algebra core and the layers on it.

Every echelon choice in koszuldg is pinned, so kernel bases, reduced row
echelon forms, homology representatives, class coordinates, chain-map-space
bases and Ext tables are the same bit for bit on every run.  The files in
tests/golden/ hold those outputs for fixed seeds; this test recomputes them
and compares the canonical JSON text byte for byte.

Regenerate only for an intended change of output, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""
from __future__ import annotations

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from koszuldg import algebra as alg
from koszuldg import duality as du
from koszuldg import resolve as rs
from koszuldg import samples as sm
from koszuldg.grlin import _column_vector, _int_column, kernel_basis, rank, rref, solve

GOLDEN = Path(__file__).parent / "golden"

T = alg.named_group("T")
T2 = alg.named_group("T^2")
SU3 = alg.named_group("SU(3)")


def _enc(x):
    """Exact values as strings; containers recursively; None stays null."""
    if isinstance(x, (list, tuple)):
        return [_enc(y) for y in x]
    if isinstance(x, dict):
        return {str(k): _enc(v) for k, v in x.items()}
    if x is None or isinstance(x, (bool, str)):
        return x
    return str(x)


def _random_matrix(rng, rows, cols, density, rational):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < density:
                num = rng.choice((-3, -2, -1, 1, 2, 3))
                den = rng.choice((1, 2, 3)) if rational else 1
                row.append(F(num, den))
            else:
                row.append(F(0))
        out.append(row)
    return out


# rows, cols, density, rational entries
SHAPES = (
    (1, 7, 0.6, False), (7, 1, 0.6, True), (3, 3, 1.0, True),
    (12, 5, 0.3, True), (5, 12, 0.3, False), (20, 24, 0.1, False),
    (24, 20, 0.1, True), (30, 30, 0.05, False), (10, 10, 0.0, False),
    (16, 16, 0.02, True), (40, 36, 0.08, False),
)


def grlin_payload() -> dict:
    rng = random.Random(2024)
    cases = []
    for rows, cols, density, rational in SHAPES:
        for _ in range(2):
            m = _random_matrix(rng, rows, cols, density, rational)
            red, pivots = rref(m)
            x = [F(rng.randint(-2, 2)) for _ in range(cols)]
            b_in = [sum((c * y for c, y in zip(row, x) if c), F(0)) for row in m]
            b_out = [F(rng.randint(-1, 1)) for _ in range(rows)]
            cases.append({
                "shape": [rows, cols], "matrix": m,
                "rref": red, "pivots": pivots, "rank": rank(m),
                "kernel": kernel_basis(m, cols=cols),
                "solve_image": solve(m, b_in), "solve_random": solve(m, b_out),
            })
    cases.append({"shape": [0, 0], "rref": rref([])[0],
                  "kernel": kernel_basis([], cols=3), "rank": rank([])})
    return {"cases": cases}


def _combination(rng, vectors, length):
    v = [F(0)] * length
    for z in vectors:
        c = rng.randint(-2, 2)
        v = [a + c * b for a, b in zip(v, z)]
    return v


def _coordinates(M, H, n, v):
    """Class coordinates of a dense probe as a dense list: they take and
    give integer columns, so the probe and the result convert here."""
    coords = alg.express_in_homology(M, H, n, _int_column(v))
    return None if coords is None else _column_vector(*coords, H.dim(n))


def _piece_payload(M, H, rng) -> dict:
    out = {}
    for n, piece in sorted(H.pieces.items()):
        probes = [_combination(rng, piece.cycle_basis, M.dim(n))
                  for _ in range(2)]
        probes.append(_combination(rng, piece.boundary_basis, M.dim(n)))
        probes.append([F(rng.randint(-1, 1)) for _ in range(M.dim(n))])
        out[n] = {
            "dim": piece.dim,
            "representatives": piece.representatives,
            "cycle_basis": piece.cycle_basis,
            "boundary_basis": piece.boundary_basis,
            "coordinates": [_coordinates(M, H, n, v) for v in probes],
        }
    return out


def _module_payload(M) -> dict:
    return {"dims": {n: M.dim(n) for n in M.degrees()},
            "diff": dict(sorted(M.diff.blocks.items())),
            "actions": [dict(sorted(a.blocks.items())) for a in M.actions]}


def homology_payload() -> dict:
    rng = random.Random(77)
    R1, R2 = alg.poly_algebra(T), alg.poly_algebra(T2)
    modules = [sm.random_torsion_dg_module(R, rng, max_total=7)
               for R in (R1, R2)]
    modules.append(du.functor_T(alg.residue_field(R2)))
    modules.append(du.functor_T(sm.cyclic_quotient(R2, (2, 1))))
    modules.append(sm.conjugate(du.functor_T(sm.cyclic_quotient(R2, (2, 2))),
                                rng))
    modules.append(du.functor_T(sm.random_torsion_dg_module(R2, rng,
                                                            max_total=5)))
    out = []
    for M in modules:
        H = alg.homology(M)
        HM = alg.homology_module(M)
        out.append({
            "module": _module_payload(M),
            "pieces": _piece_payload(M, H, rng),
            "homology_actions": [dict(sorted(a.blocks.items()))
                                 for a in HM.actions],
        })
    return {"modules": out}


def chain_maps_payload() -> dict:
    rng = random.Random(31)
    R1, R2 = alg.poly_algebra(T), alg.poly_algebra(T2)
    D = alg.direct_sum(sm.cyclic_quotient(R2, (2, 2)),
                       sm.cyclic_quotient(R2, (2, 1)).shift(-2))
    pairs = [
        (sm.cyclic_quotient(R1, (3,)), sm.cyclic_quotient(R1, (3,)), 0),
        (alg.residue_field(R1), sm.cyclic_quotient(R1, (3,)), -4),
        (sm.conjugate(D, rng), D, 0),
        (sm.conjugate(D, rng), D, -2),
        (sm.random_zero_diff_module(R2, rng),
         sm.random_torsion_dg_module(R2, rng, max_total=6), 0),
        (du.functor_T(alg.residue_field(R2)),
         du.functor_T(sm.cyclic_quotient(R2, (2, 1))), 0),
    ]
    out = []
    for A, B, degree in pairs:
        basis = alg.chain_map_space(A, B, degree)
        out.append({
            "degree": degree,
            "basis": [sorted([list(k), v] for k, v in h.items())
                      for h in basis.entries()],
        })
    return {"spaces": out}


def ext_payload() -> dict:
    rng = random.Random(5)
    out = {}
    for name, g in (("T", T), ("T^2", T2), ("SU(3)", SU3)):
        R = alg.poly_algebra(g)
        k = alg.residue_field(R)
        pairs = [("k", k, "k", k)]
        if g.rank <= 2:
            Q = sm.random_zero_diff_module(R, rng, max_pieces=1)
            pairs.append(("Q", Q, "k", k))
        tables = []
        for mname, M, nname, N in pairs:
            for route in ("via_free", "via_injective"):
                table = rs.ext_bigraded(M, N, route)
                tables.append({
                    "M": mname, "N": nname, "route": route,
                    "entries": [[s, t, d] for (s, t), d
                                in sorted(table.entries.items())]})
        out[name] = tables
    return out


PAYLOADS = {
    "grlin": grlin_payload,
    "homology": homology_payload,
    "chain_maps": chain_maps_payload,
    "ext": ext_payload,
}


def render(name: str) -> str:
    return json.dumps(_enc(PAYLOADS[name]()), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_golden(name):
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert render(name) == want, f"tests/golden/{name}.json differs"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for key in sorted(PAYLOADS):
        (GOLDEN / f"{key}.json").write_text(render(key), encoding="utf-8")
        print(f"wrote tests/golden/{key}.json")
