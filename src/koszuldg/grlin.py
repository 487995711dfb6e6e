"""Exact graded linear algebra over the rationals.

Everything downstream computes through this module: one fraction-free
elimination on sparse integer rows behind every echelon form, every span
and every solution, graded vector spaces keyed by integer degree, graded
maps that store integer block forms, and degreewise homology.  A vector is
an integer column (den, {index: int}), the vector column / den over its
least denominator, from the elimination to every reader: kernels,
solutions, homology classes and their coordinates, `GradedMap.apply`;
homology reads its cycles and classes off the outgoing differential's
forward echelon.  Blocks go in and come out as integer forms only; the
package makes no dense `Fraction` matrix or vector.  `Subspace` alone
takes dense vectors in, and answers only `add`, `contains` and `dim`;
nothing in the package calls it, and it stays for the benchmark tracer,
which patches `add` and `contains`.  No floats, no rounding, ever.  All
echelon choices (pivot columns, free-variable order, normalisation) are
those of the canonical reduced row echelon form, so every derived basis is
reproducible bit-for-bit.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, lcm


class CompositionNotZero(ValueError):
    """Two maps expected to compose to zero do not."""


# ---------------------------------------------------------------------------
# integer forms: a matrix as (den, rows, cols), rows being {col: int} dicts of
# its nonzeros over the one denominator den; cols may be None for a matrix
# without rows, such as a product whose left factor has none


def _is_monomial(rows: list) -> bool:
    """Whether every row has at most one entry and no two rows share a
    column: a monomial matrix, such as a generator's action on a realized
    free module."""
    if any(len(row) > 1 for row in rows):
        return False
    cols = [j for row in rows for j in row]
    return len(set(cols)) == len(cols)


def _int_product(a: tuple, b: tuple, monomial: bool = False) -> tuple:
    """The integer form of the product of two integer forms.

    Gustavson's row-wise product: row i of the product is the sum of the
    rows k of b scaled by the entries (k, c) of row i of a.  A row of a with
    one entry gives row k of b itself when c is 1, scaled otherwise; an
    empty row gives {}.  monomial says that b is a monomial matrix
    (_is_monomial): its rows have disjoint columns, so the scaled rows are
    merged without a sum and nothing cancels.  Rows of the product may be
    rows of b, so they are read-only, as the forms a GradedMap stores are.
    """
    da, ra, ca = a
    db, rb, cb = b
    if ca is not None and ca != len(rb):
        raise ValueError(f"matrix dimensions do not compose: "
                         f"{len(ra)}x{ca} times {len(rb)}x{cb}")
    out = []
    for row in ra:
        if len(row) == 1:
            (k, c), = row.items()
            r = rb[k]
            out.append(r if c == 1 else {j: c * x for j, x in r.items()})
        elif not row:
            out.append({})
        elif monomial:
            out.append({j: c * x for k, c in row.items() for j, x in rb[k].items()})
        else:
            acc = {}
            for k, c in row.items():
                for j, x in rb[k].items():
                    acc[j] = acc.get(j, 0) + c * x
            out.append({j: v for j, v in acc.items() if v})
    return da * db, out, (cb if ra else None)


def _int_agree(p: tuple | None, q: tuple | None, sgn: int = 1) -> bool:
    """p == sgn * q exactly, None standing for a zero matrix of the right
    shape: rows are compared over the longer of the two, the rows past the
    shorter one's being zero there.  Over equal denominators the rows are
    compared as they are, or entry by entry against the negated ones for
    sgn = -1; over different ones by cross-multiplying the denominators."""
    if p is None:
        p, q = q, p  # sgn is +-1, so the relation is symmetric
    if p is None:
        return True
    dp, rp, _ = p
    if q is None:
        return not any(rp)
    dq, rq, _ = q
    if len(rp) < len(rq):
        (dp, rp), (dq, rq) = (dq, rq), (dp, rp)
    if len(rp) > len(rq):
        # the rows past the shorter form's are zero there
        if any(rp[len(rq):]):
            return False
        rp = rp[:len(rq)]
    if dp == dq and sgn == 1:
        return rp == rq
    sp, sq = sgn * dp, dq
    for x, y in zip(rp, rq):
        if len(x) != len(y):
            return False
        if dp != dq:
            for j, v in x.items():
                if v * sq != sp * y.get(j, 0):
                    return False
        else:
            for j, v in x.items():
                if y.get(j) != -v:
                    return False
    return True


def _identity_form(n: int, scale: int = 1) -> tuple:
    """The integer form of scale times the n x n identity."""
    return 1, [{j: scale} for j in range(n)], n


def _scaled(f: tuple, scale: int) -> tuple:
    """The integer form of scale times the form f."""
    den, rows, cols = f
    return den, [{j: scale * v for j, v in row.items()} for row in rows], cols


def _transposed(f: tuple, scale: int = 1) -> tuple:
    """The integer form of scale times the transpose of the form f."""
    den, rows, cols = f
    out = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = scale * v
    return den, out, len(rows)


def _lowest_terms(f: tuple) -> tuple:
    """The form f over its least denominator, so that equal matrices have
    equal forms."""
    den, rows, cols = f
    if den != 1:
        g = gcd(den, *[v for row in rows for v in row.values()])
        if g != 1:
            return den // g, [{j: v // g for j, v in row.items()} for row in rows], cols
    return f


def _columns_form(cols, rows: int, width: int) -> tuple | None:
    """The integer form of the rows x width matrix whose column j is the
    integer column c for each (j, c) in cols, the other columns zero; None
    when it is zero."""
    cols = list(cols)
    den = lcm(*[d for _, (d, _) in cols])
    out = [{} for _ in range(rows)]
    for j, (d, col) in cols:
        s = den // d
        for i, x in col.items():
            out[i][j] = x * s
    return (den, out, width) if any(out) else None


def _column_sum(*cols) -> tuple:
    """The sum of integer columns (den, {index: int}) as one, its zero
    entries dropped, over its least denominator: the one column of its
    vector, (1, {}) for zero."""
    den, out = lcm(*[d for d, _ in cols]), {}
    for d, col in cols:
        for i, x in col.items():
            out[i] = out.get(i, 0) + x * (den // d)
    out = {i: x for i, x in out.items() if x}
    g = gcd(den, *out.values())
    return (den // g, {i: x // g for i, x in out.items()}) if g != 1 else (den, out)


def _form_rank(f: tuple | None) -> int:
    """The rank of the matrix of an integer form, None standing for zero."""
    return 0 if f is None else len(_echelon(f[1]))


def _assemble(rows: int, cols: int, pieces) -> tuple | None:
    """The integer form of a rows x cols block summed from integer forms
    placed at offsets.

    pieces yields (form, row offset, column offset, integer scale); a None
    form adds nothing.  The sum is taken in integers over one common
    denominator; None when it is zero.  A piece's row written into an empty
    row is copied there whole; zero entries can only come from a sum into
    a row already written, so only then are they filtered out.
    """
    pieces = [p for p in pieces if p[0] is not None]
    den = lcm(*[form[0] for form, *_ in pieces])
    acc = [{} for _ in range(rows)]
    summed = False
    for (fden, frows, _), r0, c0, scale in pieces:
        s = scale * (den // fden)
        for i, row in enumerate(frows if s else (), r0):
            if not row:
                continue
            out = acc[i]
            if not out:
                acc[i] = {c0 + j: s * v for j, v in row.items()}
                continue
            summed = True
            for j, v in row.items():
                out[c0 + j] = out.get(c0 + j, 0) + s * v
    if summed:
        acc = [{j: x for j, x in row.items() if x} for row in acc]
    return (den, acc, cols) if any(acc) else None


# ---------------------------------------------------------------------------
# the elimination: sparse primitive integer rows
#
# A row is a {column: int} dict without zero entries, scaled by the lcm of
# its denominators and divided by the gcd of its entries.  Scaling a row
# changes neither its row space nor the reduced echelon form, so all the
# routines below return exactly what Gauss-Jordan elimination over QQ
# returns, while the arithmetic stays in small Python ints (fraction-free
# elimination, Bareiss 1968) and touches only nonzeros (structured sparse
# elimination, LaMacchia & Odlyzko 1990).  An elimination is read one way:
# null vectors, solutions and coordinates are back-solved (_cycle) from the
# forward echelon (_echelon); only class coordinates, which read every
# reduced row, back-substitute (_reduced).


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


def _reduce(pivots: dict, row: dict) -> dict:
    """row, cleared by the pivot rows until it leads at a column without
    one; empty exactly when row lies in their span."""
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            break
        row = _eliminate(row, prow, c)
    return row


def _insert(pivots: dict, row: dict) -> bool:
    """Reduce row against {pivot column: row leading there} and insert what
    is left, if nonzero, at its leading column; True when it was inserted."""
    row = _reduce(pivots, row)
    if row:
        pivots[min(row)] = row
    return bool(row)


def _echelon(rows: list) -> dict:
    """Forward pass: {pivot column: row leading there}, no row with entries
    left of its pivot; null vectors are back-solved from it (_cycle).

    The pivot columns are those of the canonical RREF whatever the row
    order, so the sparsest rows are taken as pivots first to limit fill.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        _insert(pivots, row)
    return pivots


def _reduced(rows: list) -> list:
    """Back-substituted echelon form as [(pivot column, row)], pivots
    increasing; row / row[pivot] is the corresponding canonical RREF row.
    Only class coordinates read every reduced row, and call it."""
    pivots = _echelon(rows)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        for j in sorted(j for j in row if j != c and j in pivots):
            row = _eliminate(row, pivots[j], j)
        pivots[c] = row
    return [(c, pivots[c]) for c in order]


def _cycle(pivots: dict, order: list, j: int) -> tuple:
    """The null vector of a forward echelon {pivot column: row} that is 1 at
    its free column j and 0 at the other free ones, as (lead, primitive
    integer column), lead its first nonzero entry, made positive: column /
    lead is the vector with a leading 1.  Only pivots p < j are nonzero;
    they are solved from the last one down, the column scaled in integers
    to keep entries whole.  order is sorted(pivots), sorted once by the
    caller for all its back-solves."""
    col = {j: 1}
    for p in reversed(order[:bisect_left(order, j)]):
        row = pivots[p]
        t = -sum(x * col[i] for i, x in row.items() if i in col)
        if t:
            g = gcd(row[p], t)
            if row[p] != g:
                col = {i: x * (row[p] // g) for i, x in col.items()}
            col[p] = t // g
    lead = col[min(col)]
    g = gcd(*col.values()) if lead > 0 else -gcd(*col.values())
    return (lead // g, {i: x // g for i, x in col.items()} if g != 1 else col)


def _kernel(pivots: dict, cols: int) -> list:
    """Right null space of a forward echelon over cols columns: the _cycle
    of each free column, in increasing order."""
    order = sorted(pivots)
    return [_cycle(pivots, order, j) for j in range(cols) if j not in pivots]


def _particular(pivots: dict, n_cols: int) -> tuple | None:
    """The solution with free variables 0 of an augmented system, from its
    forward echelon, the right-hand side being column n_cols: minus the
    null vector that is 1 there (_cycle), as an integer column over its
    least denominator, or None when column n_cols is a pivot."""
    if n_cols in pivots:
        return None
    _, col = _cycle(pivots, sorted(pivots), n_cols)
    d = col.pop(n_cols)
    return (d, {i: -x for i, x in col.items()}) if d > 0 else (-d, col)


def _check_indices(col: dict, dim: int):
    """Raise ValueError unless every index of the column is below dim."""
    if col and (min(col) < 0 or max(col) >= dim):
        raise ValueError(f"column index {max(col)} for a map from dimension {dim}")


def _block_column(v: tuple, block: tuple, c: int) -> tuple:
    """Column c of the unknown block laid out as block = (offset, rows,
    cols) in the variables of the integer column v, as an integer column
    over its least denominator."""
    den, col = v
    off, rows, cols = block
    at = range(off + c, off + rows * cols, cols)  # entry (r, c) is variable off + r * cols + c
    return _column_sum((den, {r: col[i] for r, i in enumerate(at) if i in col}))


class Subspace:
    """A subspace of QQ^n, kept as primitive integer rows in echelon form by
    the one elimination (_insert), grown by add and probed by contains and
    dim; vectors go in as dense lists of rationals of length n, the one
    dense input left in the package.  Nothing in the package calls it: it
    stays only because the benchmark tracer patches its add and contains.
    """

    def __init__(self, ambient: int, vectors=()):
        self.ambient = ambient
        self._rows: dict = {}  # pivot column -> the row leading there
        for v in vectors:
            self.add(v)

    def _row(self, v: list) -> dict:
        """v as a primitive integer row."""
        if len(v) != self.ambient:
            raise ValueError(f"vector of length {len(v)} in QQ^{self.ambient}")
        return _primitive({j: x for j, x in enumerate(v) if x})

    def add(self, v: list) -> bool:
        """Insert a vector; return True if the dimension grew."""
        return _insert(self._rows, self._row(v))

    def contains(self, v: list) -> bool:
        return not _reduce(self._rows, self._row(v))

    @property
    def dim(self) -> int:
        return len(self._rows)


def _coordinates_form(basis: list, vectors: list) -> tuple | None:
    """The integer form of the len(basis) x len(vectors) matrix whose column
    j holds the coordinates of vectors[j] in basis, or None when a vector
    lies outside the span of basis.

    The basis is independent; all are integer columns (den, {key: int}),
    each the vector column / den, over the same hashable keys.  One forward
    elimination of [basis | vectors], a row per key, answers for every
    vector at once: a pivot in the vector part is a vector outside the span;
    otherwise the null vector at a vector's column c (_cycle) gives it as
    -col[p] / col[c] times basis column p, up to the dens.
    """
    k = len(basis)
    rows = {}
    for j, (_, v) in enumerate(basis + vectors):
        for key, x in v.items():
            if x:
                rows.setdefault(key, {})[j] = x
    pivots = _echelon([_primitive(row) for row in rows.values()])
    if any(p >= k for p in pivots):
        return None
    order = sorted(pivots)
    nulls = [(c, d, _cycle(pivots, order, c)[1]) for c, (d, _) in enumerate(vectors, k)]
    den = lcm(*[d * col[c] for c, d, col in nulls])
    out = [{} for _ in range(k)]
    for j, (c, d, col) in enumerate(nulls):
        s = -(den // (d * col[c]))
        for p, x in col.items():
            if p < k:
                out[p][j] = s * x * basis[p][0]
    return den, out, len(vectors)


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


class GradedMap:
    """Degree-homogeneous linear map between graded vector spaces.

    The block at n sends the source piece in degree n to the target piece in
    degree n + degree; absent blocks are zero.  Each nonzero block is stored
    as its integer form (den, rows, cols) in `forms`, over its least
    denominator; zero blocks are not stored.  The blocks handed over are
    integer forms, stored as they are; any other block raises TypeError.
    Stored forms are read-only: maps share them, so neither the code that
    handed a form over nor any reader may change it afterwards.  `form(n)`
    is the one reader.  `monomial(n)` says
    whether the block at n is a monomial matrix (_is_monomial), worked out
    on its first use and kept as one flag per block, so that products with
    it as the right factor reindex its rows (_int_product).  `_zero_products`
    holds the pairs (a, b) at which a check (algebra.check_dg_invariants)
    found form(a) . form(b) zero, so that homology_at need not form it again.
    """

    __slots__ = ("source", "target", "degree", "forms", "_monomial", "_zero_products")

    def __init__(self, source: GradedVS, target: GradedVS, degree: int,
                 blocks: dict | None = None):
        self.source, self.target, self.degree = source, target, degree
        self.forms = {}
        self._monomial, self._zero_products = {}, set()
        for n, m in (blocks or {}).items():
            if m is None:
                continue
            if not isinstance(m, tuple):
                raise TypeError(f"block at {n} is a {type(m).__name__}, not an integer form")
            r, c = target.dim(n + degree), source.dim(n)
            if len(m[1]) != r or (r and m[2] != c):
                raise ValueError(f"block at {n} is {len(m[1])}x{m[2]} want {r}x{c}")
            if any(m[1]):
                self.forms[n] = _lowest_terms(m)

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.degree == other.degree
                and self.source == other.source and self.target == other.target
                and self.forms == other.forms)

    def form(self, n: int) -> tuple | None:
        """The integer form of the block at n, or None when it is zero."""
        return self.forms.get(n)

    def monomial(self, n: int) -> bool:
        """Whether the stored block at n is a monomial matrix."""
        flag = self._monomial.get(n)
        if flag is None:
            flag = self._monomial[n] = _is_monomial(self.forms[n][1])
        return flag

    def apply(self, n: int, v: tuple) -> tuple:
        """The block at n times the integer column v, as an integer column
        over its least denominator; raises ValueError on an index outside
        the source dimension."""
        vden, w = v
        _check_indices(w, self.source.dim(n))
        f = self.form(n)
        if f is None:
            return 1, {}
        den, rows, _ = f
        return _column_sum((den * vden, {i: sum(c * w[j] for j, c in row.items() if j in w)
                                         for i, row in enumerate(rows)}))


class HomologyPiece:
    """Homology at one degree, kept as integer columns (den, {index: int}),
    each the vector column / den over its least denominator, which readers
    take as they are; class coordinates are integer columns too.

    cycles is the kernel basis of the outgoing differential, one canonical
    cycle per free column (free) of its forward echelon {pivot column: row},
    which is handed over and read (_kernel) when cycles is first read;
    boundaries are the independent columns of the incoming differential,
    and classes the cycles chosen as representatives, back-solved from the
    same echelon (_cycle); ambient is the dimension of the chain space.  A
    vector has one such column, so pieces are equal exactly when their
    vectors are.  d_out is the integer form of the outgoing differential,
    shared with its map and None when it is zero; like the solver, it takes
    no part in equality.
    """

    def __init__(self, degree: int, ambient: int, pivots: dict, boundaries: list,
                 classes: list, d_out: tuple | None, free: list):
        self.degree, self.ambient, self.d_out = degree, ambient, d_out
        self.boundaries, self.classes, self.dim = boundaries, classes, len(classes)
        self.free, self._pivots, self._cycles, self._solver = free, pivots, None, None

    @property
    def cycles(self) -> list:
        if self._cycles is None:
            self._cycles, self._pivots = _kernel(self._pivots, self.ambient), None
        return self._cycles

    def __eq__(self, other):
        return isinstance(other, HomologyPiece) and all(
            getattr(self, a) == getattr(other, a)
            for a in ("degree", "ambient", "classes", "boundaries", "cycles"))

    def class_coordinates(self, v: tuple) -> tuple | None:
        """Coordinates of the class of the integer column v on the classes,
        as an integer column over the class indices and its least
        denominator, or None when v is not in the span of cycles (classes
        plus boundaries); raises ValueError on an index outside the chain
        space.

        The span of the cycles is ker d_out, so v lies in it exactly when
        d_out . v = 0.  A vector of that kernel is fixed by its entries at
        the free columns, where the cycle for the j-th free column has its
        one nonzero; so [classes | boundaries] restricted to them is square
        and invertible, and one reduction of [that | identity] gives a row
        that reads off each coordinate from v's free entries.  Those rows,
        over one denominator, are made on the first call and kept with the
        piece.  A class column scaled by s has the coordinate on its vector
        times s; the boundary columns' scales do not matter.
        """
        den, w = v
        _check_indices(w, self.ambient)
        if self._solver is None:
            cols = self.classes + self.boundaries
            k, free = len(cols), self.free
            at = {i: r for r, i in enumerate(free)}
            rows = [{k + r: 1} for r in range(len(free))]  # primitive rows
            for j, (_, col) in enumerate(cols):
                for i, x in col.items():
                    if i in at:
                        rows[at[i]][j] = x
            solver = [(self.classes[p][0], row[p],
                       {free[j - k]: x for j, x in row.items() if j >= k})
                      for p, row in _reduced(rows) if p < self.dim]
            lead = lcm(*[d for _, d, _ in solver])
            self._solver = lead, [(s * (lead // d), tail) for s, d, tail in solver]
        lead, solver = self._solver

        def dot(tail):
            return sum(x * w[i] for i, x in tail.items() if i in w)

        if self.d_out is not None and any(map(dot, self.d_out[1])):
            return None
        return _column_sum((lead * den, {p: s * dot(tail) for p, (s, tail) in enumerate(solver)}))


def homology_at(d_in: GradedMap, d_out: GradedMap, n: int) -> HomologyPiece:
    """Homology of (d_in into degree n, d_out out of degree n).

    Raises CompositionNotZero unless d_out . d_in = 0 at n, a product not
    formed again when d_in is d_out and a check found it zero on that map
    (GradedMap._zero_products).  Boundaries are the columns of d_in
    independent of the ones before them; classes are the kernel-basis
    vectors independent of the boundaries and of the ones
    before them.  Both are the pivot columns of one elimination of
    [d_in | cycle basis], so the answer is deterministic.  Every column lies
    in ker d_out, which restriction to the free columns of d_out's echelon
    form maps injectively, so the elimination runs on those rows alone: the
    row of d_in at the j-th free column, with 1 for the j-th cycle, its only
    nonzero there.  d_out's forward echelon has the free columns of its
    canonical RREF, so it is not back-substituted; only the chosen classes'
    cycles are back-solved (_cycle).  Everything stays in integer columns.
    """
    m = n - d_in.degree
    f_in, f_out = d_in.form(m), d_out.form(n)
    if (f_in is not None and f_out is not None
            and not (d_in is d_out and (n, m) in d_out._zero_products)
            and any(_int_product(f_out, f_in)[1])):
        raise CompositionNotZero(f"d.d != 0 entering degree {n}")
    amb = d_out.source.dim(n)
    pivots = _echelon([] if f_out is None else f_out[1])
    free = [j for j in range(amb) if j not in pivots]
    k = d_in.source.dim(m)
    rows = [{k + r: 1} for r in range(len(free))]
    if f_in is not None:
        for row, j in zip(rows, free):
            row.update(f_in[1][j])
    chosen = sorted(_echelon(rows))
    boundaries = []
    if f_in is not None:
        den, columns, _ = _transposed(f_in)
        for j in chosen:
            if j >= k:
                break
            col = columns[j]
            g = gcd(den, *col.values())
            boundaries.append((den // g, {i: x // g for i, x in col.items()} if g != 1 else col))
    order = sorted(pivots)
    return HomologyPiece(n, amb, pivots, boundaries,
                         [_cycle(pivots, order, free[j - k]) for j in chosen if j >= k],
                         f_out, free)


class MapBasis(list):
    """A basis of a space of block maps: _kernel's integer columns (lead,
    {index: int}), each the map column / lead, over the variables of a
    LinearSystem, whose layout it keeps as `blocks`."""

    def __init__(self, columns, blocks: dict):
        super().__init__(columns)
        self.blocks = blocks


class LinearSystem:
    """Sparse exact linear system over QQ in unknown blocks Y_key.

    `unknowns` declares a block as one contiguous range of variable
    indices, row-major from its offset, so that `blocks`, the layout {key:
    (offset, rows, cols)}, follows the order of declaration, which keeps
    kernel bases deterministic.  `equate`, the one place where equations
    are written, adds

        sum of the terms  sign * P . Y_key  and  sign * Y_key . Q  =  rhs

    entry by entry, P, Q and rhs being integer forms: each equation is an
    integer row {variable index: coefficient} in `rows`, its right side in
    `rhs`.  `kernel` and `solve` give integer columns over the indices,
    which readers cut into blocks by the layout (_block_column).
    """

    def __init__(self):
        self.blocks, self.num_vars, self.rows, self.rhs = {}, 0, [], []

    def unknowns(self, key, rows: int, cols: int):
        """Declare the rows x cols unknown block Y_key."""
        if key not in self.blocks:
            self.blocks[key] = (self.num_vars, rows, cols)
            self.num_vars += rows * cols

    def equate(self, rows: int, cols: int, left=(), right=(), rhs=None):
        """Add the equations sum of terms = rhs, entry by entry over
        rows x cols.

        A left term (sign, P, key) stands for sign * P . Y_key and a right
        term (sign, key, Q) for sign * Y_key . Q, Y_key a declared block.
        P, Q and rhs are integer forms, None standing for zero: a None term
        adds nothing.  All are brought to one denominator in integers.
        Coefficients of a variable that several terms reach are summed, and
        an equation without terms is added only when its right side is
        nonzero.
        """
        if not (rows and cols):
            return
        terms = [(P, s, key, True) for s, P, key in left if P is not None]
        terms += [(Q, s, key, False) for s, key, Q in right if Q is not None]
        if not (terms or rhs):
            return
        for f, _, _, is_left in terms + [(rhs, 1, None, True)]:
            if f is not None and is_left and len(f[1]) != rows:
                raise ValueError(f"{len(f[1])}-row form in a {rows}-row equation")
            if not is_left and f[1] and f[2] != cols:
                raise ValueError(f"{f[2]}-column form in a {cols}-column equation")
        den = lcm(*[f[0] for f, *_ in terms], 1 if rhs is None else rhs[0])
        # only terms in one block reach a variable twice, and may cancel
        shared = len({key for _, _, key, _ in terms}) < len(terms)
        eqs = [[{} for _ in range(cols)] for _ in range(rows)]
        for (fden, frows, _), s, key, is_left in terms:
            off, _, w = self.blocks[key]  # entry (k, c) of Y_key: variable off + k * w + c
            s *= den // fden
            for k, frow in enumerate(frows):
                for j, v in frow.items():
                    # P[k][j] Y[j][c] is in the equations (k, c), Y[r][k] Q[k][j] in (r, j)
                    x, i, step = (s * v, off + j * w, 1) if is_left else (s * v, off + k, w)
                    for eq in eqs[k] if is_left else [eq_row[j] for eq_row in eqs]:
                        eq[i] = eq.get(i, 0) + x if shared else x
                        i += step
        rscale = 0 if rhs is None else den // rhs[0]
        for rr, eq_row in enumerate(eqs):
            y_row = {} if rhs is None else rhs[1][rr]
            for cc, row in enumerate(eq_row):
                if shared:
                    row = {i: x for i, x in row.items() if x}
                y = rscale * y_row.get(cc, 0)
                if row or y:
                    self.rows.append(row)
                    self.rhs.append(y)

    def solve(self) -> tuple | None:
        """A particular solution, free variables 0, as an integer column
        over the variable indices and its least denominator, or None."""
        n = self.num_vars
        rows = [_primitive({**row, n: y} if y else row) for row, y in zip(self.rows, self.rhs)]
        return _particular(_echelon(rows), n)

    def kernel(self) -> list:
        """The homogeneous solutions as _kernel's integer columns over the
        variable indices, primitive whatever the scale of the rows."""
        return _kernel(_echelon(self.rows), self.num_vars)
