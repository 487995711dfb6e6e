"""Exact graded linear algebra over the rationals.

Everything downstream computes through this module: matrices of
`fractions.Fraction` at the API edge, one fraction-free elimination on
sparse integer rows behind every echelon form, graded vector spaces keyed by
integer degree, graded maps, and degreewise homology.  No floats, no
rounding, ever.  All echelon choices (pivot columns, free-variable order,
normalisation) are those of the canonical reduced row echelon form, so every
derived basis is reproducible bit-for-bit across runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import is_not

Vector = list  # list[Fraction]
Matrix = list  # list[list[Fraction]], rows x cols

# shared small integers, ZERO among them: entries are immutable, and equal
# entries that are the same object compare without arithmetic
_INTS = {v: Fraction(v) for v in range(-64, 65)}
ZERO, _ONE = _INTS[0], _INTS[1]


class CompositionNotZero(Exception):
    """Two maps expected to compose to zero do not."""


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, m: Matrix) -> Matrix:
    c = frac(c)
    return [[c * x for x in row] for row in m]


def _unshared(row):
    """Indices of the entries that are not the shared ZERO, found without
    arithmetic."""
    return compress(range(len(row)), map(is_not, row, repeat(ZERO)))


def _nonzeros(row) -> list:
    """[(index, entry)] of the nonzero entries."""
    return [(j, row[j]) for j in _unshared(row) if row[j]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # rows(a) x cols(b); cols(a) must equal rows(b)
    if a and b:
        assert len(a[0]) == len(b), "matrix dimensions do not compose"
    cols = len(b[0]) if b else 0
    # integer products over common denominators, nonzeros only
    a_nz = [_nonzeros(ai) for ai in a]
    b_nz = [_nonzeros(bk) for bk in b]
    da = lcm(*[c.denominator for ai in a_nz for _, c in ai])
    db = lcm(*[x.denominator for bk in b_nz for _, x in bk])
    b_int = [[(j, x.numerator * (db // x.denominator)) for j, x in bk]
             for bk in b_nz]
    den = da * db
    out = []
    for ai in a_nz:
        acc = [0] * cols
        for k, c in ai:
            c = c.numerator * (da // c.denominator)
            for j, x in b_int[k]:
                acc[j] += c * x
        if den == 1:
            out.append([_INTS[v] if v in _INTS else Fraction(v) for v in acc])
        else:
            out.append([Fraction(v, den) if v else ZERO for v in acc])
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    assert not a or len(a[0]) == len(v)
    return [sum((c * x for c, x in zip(row, v) if c), Fraction(0)) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def is_zero_matrix(a: Matrix) -> bool:
    return not any(row[j] for row in a for j in _unshared(row))


def is_zero_vector(v: Vector) -> bool:
    return not any(v)


# ---------------------------------------------------------------------------
# the elimination: sparse primitive integer rows
#
# A row is a {column: int} dict without zero entries, scaled by the lcm of
# its denominators and divided by the gcd of its entries.  Scaling a row
# changes neither its row space nor the reduced echelon form, so all the
# routines below return exactly what Gauss-Jordan elimination over QQ
# returns, while the arithmetic stays in small Python ints (fraction-free
# elimination, Bareiss 1968) and touches only nonzeros (structured sparse
# elimination, LaMacchia & Odlyzko 1990).


def _primitive(row: dict) -> dict:
    """Integer multiple of a {col: rational} dict with coprime entries."""
    if not row:
        return row
    den = lcm(*[x.denominator for x in row.values()])
    if den != 1:
        row = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    else:
        row = {j: x.numerator for j, x in row.items()}
    g = gcd(*row.values())
    if g != 1:
        row = {j: x // g for j, x in row.items()}
    return row


def _sparse_rows(m: Matrix, extra=None) -> list:
    """Primitive integer rows of a dense matrix; extra[i], when given, is
    appended to row i as one more column."""
    rows = []
    for i, row in enumerate(m):
        if extra is not None:
            row = row + [extra[i]]
        rows.append(_primitive(dict(_nonzeros(row))))
    return rows


def _eliminate(row: dict, prow: dict, c: int) -> dict:
    """row with its entry at c cleared by prow, which leads at c."""
    a, b = prow[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, y in prow.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values()) if out else 1
    if g != 1:
        out = {j: x // g for j, x in out.items()}
    return out


def _echelon(rows: list) -> dict:
    """Forward pass: {pivot column: row leading there}.

    The pivot columns are those of the canonical RREF whatever the row
    order, so the sparsest rows are taken as pivots first to limit fill.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            row = _eliminate(row, prow, c)
    return pivots


def _reduced(rows: list) -> list:
    """Back-substituted echelon form as [(pivot column, row)], pivots
    increasing; row / row[pivot] is the corresponding canonical RREF row."""
    pivots = _echelon(rows)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        for j in sorted(j for j in row if j != c and j in pivots):
            row = _eliminate(row, pivots[j], j)
        pivots[c] = row
    return [(c, pivots[c]) for c in order]


def _kernel(reduced: list, cols: int) -> list:
    """Right null space of a reduced form as sparse {col: value} vectors:
    one per free column, in increasing order, first nonzero entry 1."""
    above = {}  # free column -> [(pivot column, pivot row)] touching it
    for p, row in reduced:
        for j in row:
            if j != p:
                above.setdefault(j, []).append((p, row))
    pivot_set = {p for p, _ in reduced}
    basis = []
    for j in range(cols):
        if j in pivot_set:
            continue
        v = {p: Fraction(-row[j], row[p]) for p, row in above.get(j, ())}
        v[j] = _ONE
        lead = v[min(v)]
        if lead != 1:
            v = {i: x / lead for i, x in v.items()}
        basis.append(v)
    return basis


def _particular(reduced: list, n_cols: int) -> Vector | None:
    """The solution with free variables 0 of a reduced augmented system
    whose right-hand side is column n_cols, or None."""
    if reduced and reduced[-1][0] == n_cols:
        return None
    x = [ZERO] * n_cols
    for p, row in reduced:
        if n_cols in row:
            x[p] = Fraction(row[n_cols], row[p])
    return x


def rank(m: Matrix) -> int:
    """Exact rank: the pivot count of the forward elimination pass."""
    return len(_echelon(_sparse_rows(m)))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns.

    The canonical RREF: pivot rows in increasing pivot column, each scaled
    to a leading 1, then the zero rows.
    """
    if not m or not m[0]:
        return [row[:] for row in m], []
    n_cols = len(m[0])
    reduced = _reduced(_sparse_rows(m))
    out = []
    for p, row in reduced:
        d = row[p]
        dense = [ZERO] * n_cols
        for j, x in row.items():
            dense[j] = Fraction(x, d)
        out.append(dense)
    out.extend([ZERO] * n_cols for _ in range(len(m) - len(reduced)))
    return out, [p for p, _ in reduced]


def kernel_basis(m: Matrix, cols: int | None = None) -> list[Vector]:
    """Deterministic basis of the right null space.

    One vector per free column, free columns in increasing order, each
    vector scaled so its first nonzero entry is +1.
    """
    if cols is None:
        cols = len(m[0]) if m else 0
    basis = []
    for entries in _kernel(_reduced(_sparse_rows(m)), cols):
        v = [ZERO] * cols
        for i, x in entries.items():
            v[i] = x
        basis.append(v)
    return basis


def unit_vector(n: int, j: int) -> Vector:
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
    return v


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b with free variables set to 0, or None."""
    n_cols = len(a[0]) if a else 0
    assert len(b) == len(a)
    return _particular(_reduced(_sparse_rows(a, b)), n_cols)


class Subspace:
    """A subspace of QQ^n kept in reduced row-echelon form.

    Insertion order does not affect the stored basis (RREF is canonical),
    which is what makes downstream complement choices reproducible.
    """

    def __init__(self, ambient: int, vectors=()):
        self.ambient = ambient
        self.rows: list[Vector] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    def add(self, v: Vector) -> bool:
        """Insert a vector; return True if the dimension grew."""
        assert len(v) == self.ambient
        v = v[:]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        piv = None
        for j, x in enumerate(v):
            if x != 0:
                piv = j
                break
        if piv is None:
            return False
        inv = 1 / v[piv]
        v = [x * inv for x in v]
        for row in self.rows:
            if row[piv] != 0:
                f = row[piv]
                row[:] = [x - f * y for x, y in zip(row, v)]
        at = 0
        while at < len(self.pivots) and self.pivots[at] < piv:
            at += 1
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def contains(self, v: Vector) -> bool:
        assert len(v) == self.ambient
        v = v[:]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return is_zero_vector(v)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> list[Vector]:
        return [row[:] for row in self.rows]

    def complement_in(self, vectors: list[Vector]) -> list[Vector]:
        """Vectors from the list extending this subspace, greedily in order."""
        probe = Subspace(self.ambient, self.basis())
        out = []
        for v in vectors:
            if probe.add(v):
                out.append(v[:])
        return out


def coordinates(basis: list[Vector], v: Vector) -> Vector | None:
    """Coordinates of v in the given (independent) list, or None."""
    if not basis:
        return [] if is_zero_vector(v) else None
    cols = [[b[i] for b in basis] for i in range(len(v))]
    return solve(cols, v)


@dataclass(frozen=True)
class Window:
    """An inclusive degree range with a certified sub-range.

    Stored data covers [lo, hi]; results are promised exact only on
    [guaranteed_lo, guaranteed_hi].
    """

    lo: int
    hi: int
    guaranteed_lo: int | None = None
    guaranteed_hi: int | None = None

    def __post_init__(self):
        glo = self.lo if self.guaranteed_lo is None else self.guaranteed_lo
        ghi = self.hi if self.guaranteed_hi is None else self.guaranteed_hi
        object.__setattr__(self, "guaranteed_lo", glo)
        object.__setattr__(self, "guaranteed_hi", ghi)
        if not (self.lo <= glo <= ghi <= self.hi):
            raise ValueError(f"bad window {self.lo}..{self.hi} guaranteed {glo}..{ghi}")

    def shift(self, a: int) -> "Window":
        return Window(self.lo + a, self.hi + a,
                      self.guaranteed_lo + a, self.guaranteed_hi + a)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def guaranteed(self):
        return range(self.guaranteed_lo, self.guaranteed_hi + 1)

    def __str__(self):
        return f"[{self.lo}..{self.hi}] guaranteed [{self.guaranteed_lo}..{self.guaranteed_hi}]"


@dataclass
class GradedVS:
    """Graded vector space: degree -> finite dimension, optional labels."""

    dims: dict
    labels: dict | None = None

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def degrees(self) -> list[int]:
        return sorted(n for n, d in self.dims.items() if d)

    def total_dim(self) -> int:
        return sum(d for d in self.dims.values())

    def label(self, n: int, i: int) -> str:
        if self.labels and n in self.labels:
            return self.labels[n][i]
        return f"e{n}_{i}"


@dataclass
class GradedMap:
    """Degree-homogeneous linear map between graded vector spaces.

    The block at n sends the source piece in degree n to the target piece in
    degree n + degree; absent blocks are zero.
    """

    source: GradedVS
    target: GradedVS
    degree: int
    blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        for n, m in self.blocks.items():
            r, c = self.target.dim(n + self.degree), self.source.dim(n)
            if len(m) != r or (m and len(m[0]) != c) or (not m and r):
                raise ValueError(f"block at {n} is {len(m)}x? want {r}x{c}")

    def block(self, n: int) -> Matrix:
        if n in self.blocks:
            return self.blocks[n]
        return zeros(self.target.dim(n + self.degree), self.source.dim(n))

    def block_into(self, n: int) -> Matrix:
        return self.block(n - self.degree)

    def apply(self, n: int, v: Vector) -> Vector:
        return mat_vec(self.block(n), v)


@dataclass
class HomologyPiece:
    """Homology at one degree: dimension plus representative cycles."""

    degree: int
    dim: int
    representatives: list
    cycle_basis: list
    boundary_basis: list
    _solver: tuple | None = field(default=None, repr=False, compare=False)

    def class_coordinates(self, v: Vector) -> Vector | None:
        """Coordinates of v's class on the representatives, or None when v
        is not in the span of cycles (representatives plus boundaries).

        [representatives | boundaries] has independent columns; one
        reduction of [that | identity] gives rows that read off each
        coordinate and rows that span its left null space.  It is made on
        the first call and kept with the piece.
        """
        if self._solver is None:
            vecs = self.representatives + self.boundary_basis
            k, length = len(vecs), len(v)
            rows = []
            for i in range(length):
                row = {j: z[i] for j, z in enumerate(vecs) if z[i]}
                row[k + i] = 1
                rows.append(_primitive(row))
            coord, null = [], []
            for p, row in _reduced(rows):
                tail = {j - k: x for j, x in row.items() if j >= k}
                if p < self.dim:
                    coord.append((row[p], tail))
                elif p >= k:
                    null.append(tail)
            self._solver = (coord, null)
        coord, null = self._solver
        den = lcm(*[x.denominator for x in v])
        w = {i: x.numerator * (den // x.denominator)
             for i, x in enumerate(v) if x}

        def dot(tail):
            return sum(x * w[i] for i, x in tail.items() if i in w)

        if any(dot(tail) for tail in null):
            return None
        return [Fraction(dot(tail), d * den) for d, tail in coord]


def homology_at(d_in: GradedMap, d_out: GradedMap, n: int) -> HomologyPiece:
    """Homology of (d_in into degree n, d_out out of degree n).

    Raises CompositionNotZero unless d_out . d_in = 0 at n.  Boundaries are
    the columns of d_in independent of the ones before them; representatives
    are the kernel-basis vectors independent of the boundaries and of the
    ones before them.  Both are the pivot columns of one elimination of
    [d_in | cycle basis], so the answer is deterministic.
    """
    into = d_in.block_into(n)
    out = d_out.block(n)
    if into and out and not is_zero_matrix(mat_mul(out, into)):
        raise CompositionNotZero(f"d.d != 0 entering degree {n}")
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


class LinearSystem:
    """Sparse exact linear system over QQ keyed by hashable variable names.

    Variables are created on first use; their order is insertion order,
    which keeps kernel bases deterministic.
    """

    def __init__(self):
        self._vars: dict = {}
        self._names: list = []
        self.rows: list[dict] = []
        self.rhs: list[Fraction] = []

    def var(self, key) -> int:
        if key not in self._vars:
            self._vars[key] = len(self._names)
            self._names.append(key)
        return self._vars[key]

    @property
    def num_vars(self) -> int:
        return len(self._names)

    def add_equation(self, coeffs: dict, rhs=0):
        row = {}
        for key, c in coeffs.items():
            c = frac(c)
            if c:
                row[self.var(key)] = row.get(self.var(key), Fraction(0)) + c
        self.rows.append(row)
        self.rhs.append(frac(rhs))

    def solve(self) -> dict | None:
        """A particular solution as {key: value}, or None."""
        if not self.rows:
            return {name: Fraction(0) for name in self._names}
        n = self.num_vars
        rows = [_primitive({**row, n: y} if y else row)
                for row, y in zip(self.rows, self.rhs)]
        sol = _particular(_reduced(rows), n)
        if sol is None:
            return None
        return {name: sol[i] for i, name in enumerate(self._names)}

    def kernel(self) -> list[dict]:
        """Basis of the homogeneous solution space as dicts."""
        names = self._names
        return [{names[i]: x for i, x in sorted(v.items())}
                for v in _kernel(_reduced([_primitive(row) for row in self.rows]),
                                 self.num_vars)]
