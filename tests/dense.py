"""Dense Fraction views of the package's integer elimination, for the tests.

The package computes on integer columns (den, {index: int}) and integer
forms, read off one forward echelon (grlin._echelon) and its back-solved
null vectors (_cycle, _kernel, _particular) or, for every reduced row,
_reduced.  The tests state many expectations as dense Fraction matrices and
vectors; these helpers give them from the same readers, converted to dense
here, so that no dense entry point is left in the package.
"""
from fractions import Fraction
from math import lcm

from koszuldg.grlin import (
    ZERO,
    _column_vector,
    _echelon,
    _entry,
    _kernel,
    _particular,
    _reduced,
    _sparse_rows,
)


def rank(m):
    """Exact rank: the pivot count of the forward elimination pass."""
    return len(_echelon(_sparse_rows(m)))


def rref(m):
    """The canonical reduced row echelon form and its pivot columns: pivot
    rows in increasing pivot column, each scaled to a leading 1, then the
    zero rows."""
    if not m or not m[0]:
        return [row[:] for row in m], []
    n_cols = len(m[0])
    reduced = _reduced(_sparse_rows(m))
    out = [_column_vector(row[p], row, n_cols) for p, row in reduced]
    out.extend([ZERO] * n_cols for _ in range(len(m) - len(reduced)))
    return out, [p for p, _ in reduced]


def kernel_basis(m, cols=None):
    """The right null space: one vector per free column, free columns in
    increasing order, each vector's first nonzero entry +1."""
    if cols is None:
        cols = len(m[0]) if m else 0
    return [_column_vector(lead, col, cols)
            for lead, col in _kernel(_echelon(_sparse_rows(m)), cols)]


def solve(a, b):
    """One exact solution of a x = b with free variables set to 0, or None."""
    n_cols = len(a[0]) if a else 0
    if len(b) != len(a):
        raise ValueError(f"right side of length {len(b)} for {len(a)} equations")
    x = _particular(_echelon(_sparse_rows([row + [y] for row, y in zip(a, b)])), n_cols)
    return None if x is None else _column_vector(*x, n_cols)


def coordinates(basis, v):
    """Coordinates of v in the given independent list, or None."""
    if not basis:
        return [] if not any(v) else None
    return solve([[b[i] for b in basis] for i in range(len(v))], v)


def int_column(v):
    """A dense vector as the integer column (den, {index: int}) over its
    least denominator."""
    den = lcm(*[x.denominator for x in v if x])
    return den, {i: x.numerator * (den // x.denominator) for i, x in enumerate(v) if x}


def unit_vector(n, j):
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
    return v


def representatives(piece):
    """The dense vectors of a homology piece's classes."""
    return [_column_vector(den, col, piece.ambient) for den, col in piece.classes]


def cycle_basis(piece):
    return [_column_vector(den, col, piece.ambient) for den, col in piece.cycles]


def boundary_basis(piece):
    return [_column_vector(den, col, piece.ambient) for den, col in piece.boundaries]


def block_names(blocks):
    """{index: (key, row, col)} over the entries of a linear system's block
    layout {key: (offset, rows, cols)}."""
    return {off + r * cols + c: (key, r, c) for key, (off, rows, cols) in blocks.items()
            for r in range(rows) for c in range(cols)}


def basis_entries(basis):
    """A MapBasis as one {(key, row, col): Fraction} per map."""
    names = block_names(basis.blocks)
    return [{names[i]: _entry(x, lead) for i, x in col.items()} for lead, col in basis]
