"""Dense Fraction views of the package's integer forms and elimination, for
the tests.

The package stores blocks as integer forms (den, rows, cols) and computes
on integer columns (den, {index: int}), read off one forward echelon
(grlin._echelon) and its back-solved null vectors (_cycle, _kernel,
_particular) or, for every reduced row, _reduced; it makes no dense matrix.
The tests state many expectations as dense Fraction matrices and vectors:
`form` turns one into the integer form a graded map takes, `block`,
`blocks` and `action_block` read dense blocks off a map or a module, and
the other helpers give dense answers from the package's readers, converted
here.  DenseSubspace is a plain Gauss-Jordan reference of its own.
"""
from fractions import Fraction
from math import lcm

from koszuldg.grlin import _echelon, _kernel, _particular, _primitive, _reduced


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def column_vector(den, col, length):
    """The dense vector col / den of an integer column."""
    v = [Fraction(0)] * length
    for i, x in col.items():
        v[i] = Fraction(x, den)
    return v


def matrix(den, rows, cols):
    """The dense matrix of the integer form (den, rows, cols)."""
    return [column_vector(den, row, cols) for row in rows]


def form(m):
    """The integer form of a dense matrix: its nonzeros as {col: int} rows
    over the lcm of their denominators; cols is None without rows."""
    den = lcm(*[x.denominator for row in m for x in row if x])
    rows = [{j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
            for row in m]
    return den, rows, (len(m[0]) if m else None)


def forms(dense_blocks):
    """{n: form(m)} of a dict of dense blocks, as a graded map takes them."""
    return {n: form(m) for n, m in dense_blocks.items()}


def block(gm, n):
    """The dense block at n of a GradedMap, zero where none is stored."""
    cols, f = gm.source.dim(n), gm.form(n)
    if f is None:
        return zeros(gm.target.dim(n + gm.degree), cols)
    return matrix(f[0], f[1], cols)


def blocks(gm):
    """The dense blocks of a GradedMap's stored, nonzero blocks."""
    return {n: block(gm, n) for n in gm.forms}


def action_block(M, p, n):
    """The dense matrix of the action of the homogeneous polynomial p on
    degree n of M, (dim at n + deg p) x (dim at n); a zero p gives a matrix
    without rows."""
    f = M._action_poly_form(p, n)
    if f is not None:
        return matrix(f[0], f[1], M.dim(n))
    return zeros(0 if p.is_zero() else M.space.dim(n + p.degree()), M.dim(n))


def sparse_rows(m):
    """Primitive integer rows of a dense matrix."""
    return [_primitive({j: x for j, x in enumerate(row) if x}) for row in m]


def rank(m):
    """Exact rank: the pivot count of the forward elimination pass."""
    return len(_echelon(sparse_rows(m)))


def rref(m):
    """The canonical reduced row echelon form and its pivot columns: pivot
    rows in increasing pivot column, each scaled to a leading 1, then the
    zero rows."""
    if not m or not m[0]:
        return [row[:] for row in m], []
    n_cols = len(m[0])
    reduced = _reduced(sparse_rows(m))
    out = [column_vector(row[p], row, n_cols) for p, row in reduced]
    out.extend(zeros(len(m) - len(reduced), n_cols))
    return out, [p for p, _ in reduced]


def kernel_basis(m, cols=None):
    """The right null space: one vector per free column, free columns in
    increasing order, each vector's first nonzero entry +1."""
    if cols is None:
        cols = len(m[0]) if m else 0
    return [column_vector(lead, col, cols)
            for lead, col in _kernel(_echelon(sparse_rows(m)), cols)]


def solve(a, b):
    """One exact solution of a x = b with free variables set to 0, or None."""
    n_cols = len(a[0]) if a else 0
    if len(b) != len(a):
        raise ValueError(f"right side of length {len(b)} for {len(a)} equations")
    x = _particular(_echelon(sparse_rows([row + [y] for row, y in zip(a, b)])), n_cols)
    return None if x is None else column_vector(*x, n_cols)


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
    return [column_vector(den, col, piece.ambient) for den, col in piece.classes]


def cycle_basis(piece):
    return [column_vector(den, col, piece.ambient) for den, col in piece.cycles]


def boundary_basis(piece):
    return [column_vector(den, col, piece.ambient) for den, col in piece.boundaries]


def block_names(blocks):
    """{index: (key, row, col)} over the entries of a linear system's block
    layout {key: (offset, rows, cols)}."""
    return {off + r * cols + c: (key, r, c) for key, (off, rows, cols) in blocks.items()
            for r in range(rows) for c in range(cols)}


def basis_entries(basis):
    """A MapBasis as one {(key, row, col): Fraction} per map."""
    names = block_names(basis.blocks)
    return [{names[i]: Fraction(x, lead) for i, x in col.items()} for lead, col in basis]


class DenseSubspace:
    """A subspace of QQ^n as dense Fraction rows kept in reduced row echelon
    form by Gauss-Jordan steps, each new pivot cleared from the rows before:
    the reference that grlin.Subspace is checked against, whose pivots and
    reduce (a vector cleared at the pivots) old bodies of the package read.
    Each row's nonzero positions are kept beside it, so a step touches only
    those."""

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        self.rows = []
        self.pivots = []
        self._support = []
        for v in vectors:
            self.add(v)

    def reduce(self, v):
        """v cleared at every pivot, in increasing pivot order."""
        v = v[:]
        for row, p, support in zip(self.rows, self.pivots, self._support):
            if v[p]:
                f = v[p]
                for j in support:
                    v[j] -= f * row[j]
        return v

    def add(self, v):
        assert len(v) == self.ambient
        v = self.reduce(v)
        support = [j for j, x in enumerate(v) if x]
        if not support:
            return False
        piv = support[0]
        inv = 1 / v[piv]
        for j in support:
            v[j] *= inv
        for at, row in enumerate(self.rows):
            if row[piv]:
                f = row[piv]
                for j in support:
                    row[j] -= f * v[j]
                self._support[at] = [j for j, x in enumerate(row) if x]
        at = 0
        while at < len(self.pivots) and self.pivots[at] < piv:
            at += 1
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        self._support.insert(at, support)
        return True

    def contains(self, v):
        assert len(v) == self.ambient
        return not any(self.reduce(v))

    @property
    def dim(self):
        return len(self.rows)

    def complement_in(self, vectors):
        probe = DenseSubspace(self.ambient, [row[:] for row in self.rows])
        return [v[:] for v in vectors if probe.add(v)]
