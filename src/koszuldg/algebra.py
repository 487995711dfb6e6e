"""Graded algebras attached to a connected compact Lie group, and DG modules.

A group enters only through the codegrees of the polynomial generators of
its Borel cohomology.  From that list we build the polynomial ring (in
negative even degrees, one generator per codegree), the exterior algebra on
odd-degree generators, and the canonical DG constructions: the Koszul model
of the residue field, the basic injective, cones, Hom from a finite free
complex, the torsion-part functor, the graded (Matlis) dual, and the twisted
tensor against an exterior module.

Degree conventions: homological lower degrees everywhere, differentials of
degree -1, codegree n <-> degree -n.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .grlin import (
    GradedMap,
    GradedVS,
    Matrix,
    Window,
    ZERO,
    coordinates,
    frac,
    identity,
    is_zero_matrix,
    kernel_basis,
    mat_mul,
    mat_scale,
    solve,
    transpose,
    unit_vector,
    zeros,
)

_NEG = -(10 ** 9)
_POS = 10 ** 9


class OddCodegree(ValueError):
    """Codegree list contains an odd or too-small entry."""


class AlgebraMismatch(ValueError):
    """Operands live over different algebras."""


class NotChainMap(ValueError):
    """A map fails to commute with the differentials."""


class NotTorsion(ValueError):
    """Module cannot be certified torsion (support not bounded below)."""


class UnboundedInput(ValueError):
    """Operation needs a module of finite total dimension."""


class InvariantViolation(ValueError):
    """A construction-time invariant of a DG module failed."""


# ---------------------------------------------------------------------------
# group data and the two graded algebras


@dataclass(frozen=True)
class GroupData:
    """A connected compact Lie group, presented by the even codegrees of the
    polynomial generators of its Borel cohomology."""

    codegrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "codegrees", tuple(int(d) for d in self.codegrees))
        for d in self.codegrees:
            if d < 2 or d % 2:
                raise OddCodegree(f"codegree {d} is not an even integer >= 2")

    @property
    def rank(self) -> int:
        return len(self.codegrees)

    @property
    def dim_g(self) -> int:
        return sum(d - 1 for d in self.codegrees)

    def __str__(self):
        return "[" + ",".join(str(d) for d in self.codegrees) + "]"


def named_group(name: str) -> GroupData:
    """Group catalog: T^r, SU(n) (codegrees 4,6,...,2n), Sp(n) (4,8,...,4n)."""
    s = name.strip()
    if s in ("1", "triv", "trivial"):
        return GroupData(())
    if s == "T":
        return GroupData((2,))
    if s.startswith("T^"):
        return GroupData(tuple([2] * int(s[2:])))
    if s.startswith("SU(") and s.endswith(")"):
        n = int(s[3:-1])
        if n < 2:
            raise ValueError("SU(n) needs n >= 2")
        return GroupData(tuple(range(4, 2 * n + 1, 2)))
    if s.startswith("Sp(") and s.endswith(")"):
        n = int(s[3:-1])
        if n < 1:
            raise ValueError("Sp(n) needs n >= 1")
        return GroupData(tuple(range(4, 4 * n + 1, 4)))
    raise ValueError(f"unknown group name: {name!r}")


def catalog() -> list:
    names = ["1", "T", "T^2", "T^3", "SU(2)", "SU(3)", "SU(4)", "Sp(1)", "Sp(2)"]
    return [(n, named_group(n)) for n in names]


@functools.lru_cache(maxsize=None)
def _monomials(codegrees: tuple, codeg: int) -> tuple:
    """All exponent tuples of the given codegree, lexicographically sorted."""
    if codeg < 0:
        return ()
    if not codegrees:
        return ((),) if codeg == 0 else ()
    d = codegrees[0]
    out = []
    for a in range(codeg // d + 1):
        for rest in _monomials(codegrees[1:], codeg - a * d):
            out.append((a,) + rest)
    return tuple(sorted(out))


@dataclass(frozen=True, eq=False)
class PolyAlgebra:
    """QQ[x_1,...,x_r] with |x_i| = -d_i; the Borel cohomology ring.

    Variable names are cosmetic; equality and hashing see only the group.
    """

    group: GroupData
    varnames: tuple = None

    def __eq__(self, other):
        return isinstance(other, PolyAlgebra) and self.group == other.group

    def __hash__(self):
        return hash(("poly", self.group))

    def __post_init__(self):
        if self.varnames is None:
            object.__setattr__(
                self, "varnames",
                tuple(f"x{i+1}" for i in range(self.group.rank)))
        assert len(self.varnames) == self.group.rank

    @property
    def r(self) -> int:
        return self.group.rank

    @property
    def codegrees(self) -> tuple:
        return self.group.codegrees

    def generator_degrees(self) -> tuple:
        return tuple(-d for d in self.codegrees)

    def monomials(self, codeg: int) -> tuple:
        return _monomials(self.codegrees, codeg)

    def dim(self, degree: int) -> int:
        return len(self.monomials(-degree))

    def monomial_degree(self, alpha) -> int:
        return -sum(a * d for a, d in zip(alpha, self.codegrees))

    def monomial_label(self, alpha) -> str:
        parts = []
        for name, a in zip(self.varnames, alpha):
            if a == 1:
                parts.append(name)
            elif a > 1:
                parts.append(f"{name}^{a}")
        return "*".join(parts) if parts else "1"

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.r: Fraction(1)})

    def gen(self, i: int) -> "Poly":
        e = [0] * self.r
        e[i] = 1
        return Poly(self, {tuple(e): Fraction(1)})

    def poly(self, terms: dict) -> "Poly":
        return Poly(self, {tuple(a): frac(c) for a, c in terms.items() if c})

    def __str__(self):
        return f"Q[{','.join(self.varnames)}] codegrees {self.group}"


@dataclass(frozen=True)
class Poly:
    """Element of a PolyAlgebra: exponent tuple -> rational coefficient."""

    algebra: PolyAlgebra
    terms: object  # dict alpha -> Fraction; treated immutably

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {a: c for a, c in self.terms.items() if c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        t = dict(self.terms)
        for a, c in other.terms.items():
            t[a] = t.get(a, Fraction(0)) + c
        return Poly(self.algebra, t)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        c = frac(c)
        return Poly(self.algebra, {a: c * x for a, x in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        t = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                ab = tuple(x + y for x, y in zip(a, b))
                t[ab] = t.get(ab, Fraction(0)) + ca * cb
        return Poly(self.algebra, t)

    def degree(self) -> int | None:
        """Degree if homogeneous and nonzero, else None."""
        degs = {self.algebra.monomial_degree(a) for a in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, degree: int) -> bool:
        return all(self.algebra.monomial_degree(a) == degree for a in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.algebra.r, Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for a in sorted(self.terms):
            c = self.terms[a]
            lab = self.algebra.monomial_label(a)
            if lab == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(lab)
            elif c == -1:
                parts.append(f"-{lab}")
            else:
                parts.append(f"{c}*{lab}")
        return " + ".join(parts).replace("+ -", "- ")


def poly_algebra(g: GroupData) -> PolyAlgebra:
    """The polynomial ring on generators in degrees -d_i."""
    return PolyAlgebra(g)


@functools.lru_cache(maxsize=None)
def _subsets(r: int) -> tuple:
    """Subsets of {0..r-1} sorted by (size, lexicographic)."""
    out = []
    for k in range(r + 1):
        out.extend(itertools.combinations(range(r), k))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ExtAlgebra:
    """Exterior algebra on generators a_i of odd degree d_i - 1.

    Variable names are cosmetic; equality and hashing see only the group.
    """

    group: GroupData
    varnames: tuple = None

    def __eq__(self, other):
        return isinstance(other, ExtAlgebra) and self.group == other.group

    def __hash__(self):
        return hash(("ext", self.group))

    def __post_init__(self):
        if self.varnames is None:
            object.__setattr__(
                self, "varnames",
                tuple(f"a{i+1}" for i in range(self.group.rank)))

    @property
    def r(self) -> int:
        return self.group.rank

    def generator_degrees(self) -> tuple:
        return tuple(d - 1 for d in self.group.codegrees)

    def subsets(self) -> tuple:
        return _subsets(self.r)

    def subset_degree(self, s) -> int:
        return sum(self.group.codegrees[i] - 1 for i in s)

    def subset_label(self, s) -> str:
        return "*".join(self.varnames[i] for i in s) if s else "1"

    def dim(self, degree: int) -> int:
        return sum(1 for s in self.subsets() if self.subset_degree(s) == degree)

    def dims(self) -> dict:
        out = {}
        for s in self.subsets():
            d = self.subset_degree(s)
            out[d] = out.get(d, 0) + 1
        return out

    def total_dim(self) -> int:
        return 2 ** self.r

    def merge_sign(self, a, b) -> int:
        """Sign of e_A * e_B = sign * e_(A u B); 0 if they overlap."""
        if set(a) & set(b):
            return 0
        sign = 1
        for i in a:
            if sum(1 for j in b if j < i) % 2:
                sign = -sign
        return sign

    def left_mult_sign(self, i: int, s) -> int:
        """Sign of a_i * e_S = sign * e_(S u i); 0 when i is already in S."""
        return self.merge_sign((i,), s)

    def remove_sign(self, i: int, s) -> int:
        """Sign picked up extracting a_i from e_S (count of earlier indices)."""
        assert i in s
        return -1 if sum(1 for j in s if j < i) % 2 else 1

    def __str__(self):
        return f"Lambda[{','.join(self.varnames)}] degrees {self.generator_degrees()}"


def ext_algebra(g: GroupData) -> ExtAlgebra:
    """The exterior algebra modelling the homology of the group."""
    return ExtAlgebra(g)


# ---------------------------------------------------------------------------
# DG modules


@dataclass
class DGModule:
    """A degreewise finite DG module over a PolyAlgebra or ExtAlgebra.

    Stored data covers degrees lo..hi and is exact there.  complete_below /
    complete_above assert that the module vanishes outside the stored range
    on that side, which is what lets windowed operations certify results.
    """

    algebra: object
    space: GradedVS
    diff: GradedMap
    actions: tuple
    lo: int
    hi: int
    complete_below: bool = False
    complete_above: bool = False
    name: str = ""

    def __post_init__(self):
        check_dg_invariants(self)

    def dim(self, n: int) -> int:
        return self.space.dim(n)

    def known_dim(self, n: int) -> int | None:
        """Dimension at n, or None when the window cannot certify it."""
        if self.lo <= n <= self.hi:
            return self.space.dim(n)
        if n < self.lo:
            return 0 if self.complete_below else None
        return 0 if self.complete_above else None

    def known_lo(self) -> int:
        return _NEG if self.complete_below else self.lo

    def known_hi(self) -> int:
        return _POS if self.complete_above else self.hi

    def degrees(self) -> list:
        return self.space.degrees()

    def total_dim(self) -> int:
        return self.space.total_dim()

    def support_min(self) -> int | None:
        degs = self.degrees()
        return degs[0] if degs else None

    def support_max(self) -> int | None:
        degs = self.degrees()
        return degs[-1] if degs else None

    def is_finite(self) -> bool:
        return self.complete_below and self.complete_above

    def is_torsion(self) -> bool:
        """Locally nilpotent generator actions.

        The polynomial generators act by strictly negative degrees, so
        bounded-below support certifies torsion; r = 0 is vacuously torsion.
        """
        if isinstance(self.algebra, PolyAlgebra) and self.algebra.r == 0:
            return True
        return self.complete_below

    def window(self) -> Window:
        return Window(self.lo, self.hi)

    def generator_degrees(self) -> tuple:
        return self.algebra.generator_degrees()

    def labels_at(self, n: int) -> list:
        return [self.space.label(n, i) for i in range(self.dim(n))]

    def action_poly_block(self, p: "Poly", n: int) -> Matrix:
        """Matrix of the action of a homogeneous polynomial on degree n.

        Monomials that pass through a zero-dimensional intermediate degree
        act by zero; shapes stay (dim at n+deg) x (dim at n) throughout.
        """
        assert isinstance(self.algebra, PolyAlgebra)
        if p.is_zero():
            return zeros(0, self.dim(n))
        deg = p.degree()
        assert deg is not None, "polynomial action needs homogeneous p"
        rows, cols = self.space.dim(n + deg), self.dim(n)
        out = zeros(rows, cols)
        if rows == 0 or cols == 0:
            return out
        gens = self.generator_degrees()
        for alpha, c in p.terms.items():
            m = identity(cols)
            at = n
            dead = False
            for i, a in enumerate(alpha):
                for _ in range(a):
                    if self.space.dim(at + gens[i]) == 0:
                        dead = True
                        break
                    m = mat_mul(self.actions[i].block(at), m)
                    at += gens[i]
                if dead:
                    break
            if dead:
                continue
            for rr in range(rows):
                for cc in range(cols):
                    if m[rr][cc]:
                        out[rr][cc] += c * m[rr][cc]
        return out

    def shift(self, a: int) -> "DGModule":
        """Suspension by a: degrees move up by a, odd operators pick up signs."""
        if a == 0:
            return self
        dims = {n + a: d for n, d in self.space.dims.items()}
        labels = None
        if self.space.labels is not None:
            labels = {n + a: list(ls) for n, ls in self.space.labels.items()}
        sp = GradedVS(dims, labels)
        sgn_d = -1 if a % 2 else 1
        diff = GradedMap(sp, sp, -1,
                         {n + a: mat_scale(sgn_d, b) for n, b in self.diff.blocks.items()})
        acts = []
        for g, act in zip(self.generator_degrees(), self.actions):
            sgn = -1 if (a % 2 and g % 2) else 1
            acts.append(GradedMap(sp, sp, g,
                                  {n + a: mat_scale(sgn, b) for n, b in act.blocks.items()}))
        return DGModule(self.algebra, sp, diff, tuple(acts),
                        self.lo + a, self.hi + a,
                        self.complete_below, self.complete_above,
                        name=f"S^{a}({self.name})" if self.name else "")


def dg_module(algebra, dims: dict, diff_blocks: dict, action_blocks: list,
              lo: int, hi: int, complete_below=False, complete_above=False,
              labels: dict | None = None, name: str = "") -> DGModule:
    """Assemble and validate a DGModule from raw block data."""
    dims = {n: d for n, d in dims.items() if d and lo <= n <= hi}
    if labels is not None:
        labels = {n: labels[n] for n in dims if n in labels}
    sp = GradedVS(dims, labels)
    diff = GradedMap(sp, sp, -1, {n: b for n, b in diff_blocks.items()
                                  if not is_zero_matrix(b)})
    gens = algebra.generator_degrees()
    acts = []
    for g, blocks in zip(gens, action_blocks):
        acts.append(GradedMap(sp, sp, g, {n: b for n, b in blocks.items()
                                          if not is_zero_matrix(b)}))
    return DGModule(algebra, sp, diff, tuple(acts), lo, hi,
                    complete_below, complete_above, name=name)


def _maps_agree(a, b, rows, cols, sgn=1) -> bool:
    """a == sgn * b compared entrywise over an explicit shape.

    Composites through a zero-dimensional degree lose their shape in the
    dense representation; comparing over the true shape with zero fallback
    keeps a silent truncation from masking a violation.  Equal entries that
    are the same object (the shared ZERO of untouched entries, shared small
    integers) agree without arithmetic.
    """
    for i in range(rows):
        ra = a[i] if i < len(a) else ()
        rb = b[i] if i < len(b) else ()
        if len(ra) != cols or len(rb) != cols:
            ra = [ra[j] if j < len(ra) else ZERO for j in range(cols)]
            rb = [rb[j] if j < len(rb) else ZERO for j in range(cols)]
        if sgn == 1:
            if ra != rb:
                return False
        elif any(x != -y for x, y in zip(ra, rb)
                 if x is not ZERO or y is not ZERO):
            return False
    return True


def check_dg_invariants(M: DGModule):
    """d.d = 0, Koszul-signed Leibniz, and operator (anti)commutation.

    Compositions are checked wherever every degree involved is known, which
    is every place they are meaningful for a windowed module.
    """
    gens = M.generator_degrees()
    if len(M.actions) != len(gens):
        raise InvariantViolation("one action operator per generator required")
    for n in M.space.dims:
        if not (M.lo <= n <= M.hi):
            raise InvariantViolation(f"stored degree {n} outside window")

    def known(n):
        return M.known_dim(n) is not None

    zero = []
    for n in range(M.lo, M.hi + 1):
        if M.dim(n) == 0:
            continue
        if known(n - 1) and known(n - 2):
            dd = mat_mul(M.diff.block(n - 1), M.diff.block(n))
            if not is_zero_matrix(dd):
                raise InvariantViolation(f"d.d != 0 at degree {n}")
        for i, gi in enumerate(gens):
            if known(n + gi) and known(n + gi - 1) and known(n - 1):
                lhs = mat_mul(M.diff.block(n + gi), M.actions[i].block(n))
                rhs = mat_mul(M.actions[i].block(n - 1), M.diff.block(n))
                sgn = -1 if gi % 2 else 1
                if not _maps_agree(lhs, rhs, M.dim(n + gi - 1), M.dim(n), sgn):
                    raise InvariantViolation(
                        f"d fails Leibniz against generator {i} at degree {n}")
            for j in range(i, len(gens)):
                gj = gens[j]
                if not (known(n + gi) and known(n + gj) and known(n + gi + gj)):
                    continue
                ij = mat_mul(M.actions[i].block(n + gj), M.actions[j].block(n))
                if i == j:
                    if gi % 2 and not _maps_agree(ij, zero, M.dim(n + 2 * gi), M.dim(n)):
                        raise InvariantViolation(f"odd generator {i} fails square-zero")
                    continue
                ji = mat_mul(M.actions[j].block(n + gi), M.actions[i].block(n))
                sgn = -1 if (gi % 2 and gj % 2) else 1
                if not _maps_agree(ij, ji, M.dim(n + gi + gj), M.dim(n), sgn):
                    raise InvariantViolation(
                        f"generators {i},{j} fail graded commutation at degree {n}")


# ---------------------------------------------------------------------------
# free DG modules over the polynomial ring


@dataclass
class FreeDGModule:
    """Finite free DG module over a PolyAlgebra, given by a matrix over R.

    diff[i][j] is the coefficient of basis element i in d(basis element j);
    entries are homogeneous and the matrix squares to zero over R.
    """

    algebra: PolyAlgebra
    basis: tuple  # tuple of (label, degree)
    diff: tuple   # rows x cols of Poly

    def __post_init__(self):
        n = len(self.basis)
        assert len(self.diff) == n and all(len(row) == n for row in self.diff)
        for i, (_, bi) in enumerate(self.basis):
            for j, (_, bj) in enumerate(self.basis):
                p = self.diff[i][j]
                want = bj - 1 - bi
                if not p.is_zero() and not p.is_homogeneous(want):
                    raise InvariantViolation(
                        f"differential entry ({i},{j}) not homogeneous of degree {want}")
        for i in range(n):
            for j in range(n):
                acc = self.algebra.zero()
                for k in range(n):
                    acc = acc + self.diff[i][k] * self.diff[k][j]
                if not acc.is_zero():
                    raise InvariantViolation("free differential does not square to zero")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_degrees(self) -> list:
        return [b for _, b in self.basis]

    def shift(self, a: int) -> "FreeDGModule":
        sgn = -1 if a % 2 else 1
        basis = tuple((lab, deg + a) for lab, deg in self.basis)
        diff = tuple(tuple(p.scale(sgn) for p in row) for row in self.diff)
        return FreeDGModule(self.algebra, basis, diff)

    def to_degreewise(self, w: Window, name: str = "") -> DGModule:
        return to_degreewise(self, w, name=name)


def free_module(R: PolyAlgebra, gens: list) -> FreeDGModule:
    """Free module with zero differential on generators [(label, degree)]."""
    n = len(gens)
    z = R.zero()
    return FreeDGModule(R, tuple(gens),
                        tuple(tuple(z for _ in range(n)) for _ in range(n)))


def _koszul_on(R: PolyAlgebra, indices: tuple) -> FreeDGModule:
    subs = []
    for k in range(len(indices) + 1):
        subs.extend(itertools.combinations(indices, k))
    subs.sort(key=lambda s: (len(s), s))
    index = {s: k for k, s in enumerate(subs)}
    n = len(subs)
    diff = [[R.zero() for _ in range(n)] for _ in range(n)]
    for s in subs:
        for pos, i in enumerate(s):
            t = tuple(j for j in s if j != i)
            sgn = -1 if pos % 2 else 1
            diff[index[t]][index[s]] = diff[index[t]][index[s]] + R.gen(i).scale(sgn)
    basis = tuple(("e" + "".join(str(i + 1) for i in s) if s else "e0",
                   sum(1 - R.codegrees[i] for i in s)) for s in subs)
    return FreeDGModule(R, basis, tuple(tuple(row) for row in diff))


def koszul_model(R: PolyAlgebra) -> FreeDGModule:
    """The Koszul model of the residue field: free on the 2^r subset basis.

    d(e_S) = sum over i in S of (-1)^(number of earlier indices) x_i e_(S-i).
    The sign convention is fixed here once; d^2 = 0 is asserted by the
    FreeDGModule constructor.
    """
    return _koszul_on(R, tuple(range(R.r)))


def koszul_stage(R: PolyAlgebra, upto: int) -> FreeDGModule:
    """Partial Koszul complex on the first `upto` generators (over all of R)."""
    assert 0 <= upto <= R.r
    return _koszul_on(R, tuple(range(upto)))


def to_degreewise(F: FreeDGModule, w: Window, name: str = "") -> DGModule:
    """Expand a free DG module into degreewise matrices inside a window.

    The degree-n basis is pairs (generator j, monomial alpha) ordered by
    (j, lex alpha).  Dimensions and blocks are intrinsic per degree, so the
    stored range is exact; the module is complete above once the window
    clears the top generator.
    """
    R = F.algebra
    degs = F.basis_degrees()
    top = max(degs, default=0)
    bottom = min(degs, default=0)
    lo, hi = w.lo, w.hi
    basis, dims, labels = {}, {}, {}
    for n in range(lo, hi + 1):
        bs = []
        for j, (lab, bj) in enumerate(F.basis):
            for alpha in R.monomials(bj - n):
                bs.append((j, alpha))
        if bs:
            basis[n] = bs
            dims[n] = len(bs)
            labels[n] = [f"{R.monomial_label(a)}*{F.basis[j][0]}"
                         if a != (0,) * R.r else F.basis[j][0]
                         for j, a in bs]
    index = {n: {ba: k for k, ba in enumerate(bs)} for n, bs in basis.items()}
    diff_blocks = {}
    for n in basis:
        if (n - 1) not in basis:
            continue
        m = zeros(len(basis[n - 1]), len(basis[n]))
        for col, (j, alpha) in enumerate(basis[n]):
            for i in range(F.rank):
                p = F.diff[i][j]
                for beta, c in p.terms.items():
                    tgt = (i, tuple(x + y for x, y in zip(alpha, beta)))
                    m[index[n - 1][tgt]][col] += c
        if not is_zero_matrix(m):
            diff_blocks[n] = m
    action_blocks = [dict() for _ in range(R.r)]
    for n in basis:
        for i in range(R.r):
            t = n - R.codegrees[i]
            if t not in basis:
                continue
            m = zeros(len(basis[t]), len(basis[n]))
            for col, (j, alpha) in enumerate(basis[n]):
                a2 = list(alpha)
                a2[i] += 1
                m[index[t][(j, tuple(a2))]][col] = Fraction(1)
            action_blocks[i][n] = m
    return dg_module(R, dims, diff_blocks, action_blocks, lo, hi,
                     complete_below=(R.r == 0 and lo <= bottom),
                     complete_above=hi >= top,
                     labels=labels, name=name or "free")


def residue_field(R: PolyAlgebra, name: str = "k") -> DGModule:
    """The residue field: one dimension in degree 0, trivial action."""
    return dg_module(R, {0: 1}, {}, [dict() for _ in range(R.r)], 0, 0,
                     complete_below=True, complete_above=True,
                     labels={0: ["1"]}, name=name)


def basic_injective(R: PolyAlgebra, w: Window, name: str = "I") -> DGModule:
    """The graded dual of R: the injective hull of the residue field.

    Degree-n piece (n >= 0) is dual to the codegree-n monomials; each x_i
    acts by deleting itself from a dual monomial and kills the socle.
    """
    lo, hi = max(w.lo, 0), w.hi
    dims, labels = {}, {}
    for n in range(lo, hi + 1):
        ms = R.monomials(n)
        if ms:
            dims[n] = len(ms)
            labels[n] = [f"({R.monomial_label(a)})^" for a in ms]
    action_blocks = [dict() for _ in range(R.r)]
    for n in dims:
        for i in range(R.r):
            t = n - R.codegrees[i]
            if t < 0 or t not in dims:
                continue
            src = R.monomials(n)
            tgt = {a: k for k, a in enumerate(R.monomials(t))}
            m = zeros(len(tgt), len(src))
            for col, a in enumerate(src):
                if a[i] >= 1:
                    a2 = list(a)
                    a2[i] -= 1
                    m[tgt[tuple(a2)]][col] = Fraction(1)
            action_blocks[i][n] = m
    return dg_module(R, dims, {}, action_blocks, lo, hi,
                     complete_below=True, complete_above=False,
                     labels=labels, name=name)


def poly_as_module(R: PolyAlgebra, w: Window, name: str = "R") -> DGModule:
    """R as a module over itself, windowed (support in degrees <= 0)."""
    lo, hi = w.lo, min(w.hi, 0)
    dims, labels = {}, {}
    for n in range(lo, hi + 1):
        ms = R.monomials(-n)
        if ms:
            dims[n] = len(ms)
            labels[n] = [R.monomial_label(a) for a in ms]
    action_blocks = [dict() for _ in range(R.r)]
    for n in dims:
        for i in range(R.r):
            t = n - R.codegrees[i]
            if t not in dims:
                continue
            src = R.monomials(-n)
            tgt = {a: k for k, a in enumerate(R.monomials(-t))}
            m = zeros(len(tgt), len(src))
            for col, a in enumerate(src):
                a2 = list(a)
                a2[i] += 1
                m[tgt[tuple(a2)]][col] = Fraction(1)
            action_blocks[i][n] = m
    return dg_module(R, dims, {}, action_blocks, lo, hi,
                     complete_below=False, complete_above=True,
                     labels=labels, name=name)


def lambda_as_module(L: ExtAlgebra, name: str = "L") -> DGModule:
    """The exterior algebra as a left module over itself."""
    subs = L.subsets()
    dims, labels, index = {}, {}, {}
    for s in subs:
        d = L.subset_degree(s)
        index[s] = (d, dims.get(d, 0))
        dims[d] = dims.get(d, 0) + 1
        labels.setdefault(d, []).append(L.subset_label(s))
    gens = L.generator_degrees()
    action_blocks = [dict() for _ in range(L.r)]
    for i in range(L.r):
        gi = gens[i]
        for n in dims:
            if n + gi not in dims:
                continue
            m = zeros(dims[n + gi], dims[n])
            for s in subs:
                d, k = index[s]
                if d != n:
                    continue
                sgn = L.left_mult_sign(i, s)
                if sgn:
                    t = tuple(sorted(s + (i,)))
                    _, k2 = index[t]
                    m[k2][k] = Fraction(sgn)
            if not is_zero_matrix(m):
                action_blocks[i][n] = m
    top = max(dims)
    return dg_module(L, dims, {}, action_blocks, 0, top,
                     complete_below=True, complete_above=True,
                     labels=labels, name=name)


def trivial_lambda_module(L: ExtAlgebra, name: str = "Q") -> DGModule:
    """QQ in degree 0 with all exterior generators acting by zero."""
    return dg_module(L, {0: 1}, {}, [dict() for _ in range(L.r)], 0, 0,
                     complete_below=True, complete_above=True,
                     labels={0: ["1"]}, name=name)


def zero_module(algebra, name: str = "0") -> DGModule:
    r = len(algebra.generator_degrees())
    return dg_module(algebra, {}, {}, [dict() for _ in range(r)], 0, 0,
                     complete_below=True, complete_above=True, name=name)


def direct_sum(A: DGModule, B: DGModule, name: str = "") -> DGModule:
    """Degreewise direct sum, on the window where both summands are known."""
    if A.algebra != B.algebra:
        raise AlgebraMismatch("direct sum needs a common algebra")
    klo = max(A.known_lo(), B.known_lo())
    khi = min(A.known_hi(), B.known_hi())
    lo = max(klo, min(A.lo, B.lo))
    hi = min(khi, max(A.hi, B.hi))
    if lo > hi:
        return zero_module(A.algebra, name=name)
    dims, labels = {}, {}
    for n in range(lo, hi + 1):
        da, db = A.known_dim(n), B.known_dim(n)
        if da + db:
            dims[n] = da + db
            labels[n] = (list(A.labels_at(n)) + list(B.labels_at(n)))
    gens = A.generator_degrees()
    diff_blocks = {}
    act_blocks = [dict() for _ in gens]
    for n in dims:
        for store, gm_a, gm_b, deg in (
                [(diff_blocks, A.diff, B.diff, -1)]
                + [(act_blocks[i], A.actions[i], B.actions[i], g)
                   for i, g in enumerate(gens)]):
            t = n + deg
            if t not in dims:
                continue
            da, db = A.known_dim(n), B.known_dim(n)
            ta, tb = A.known_dim(t), B.known_dim(t)
            m = zeros(ta + tb, da + db)
            ba = gm_a.block(n)
            for i in range(ta):
                for j in range(da):
                    m[i][j] = ba[i][j]
            bb = gm_b.block(n)
            for i in range(tb):
                for j in range(db):
                    m[ta + i][da + j] = bb[i][j]
            if not is_zero_matrix(m):
                store[n] = m
    return dg_module(A.algebra, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=(klo == _NEG),
                     complete_above=(khi == _POS),
                     labels=labels, name=name or f"{A.name}+{B.name}")


# ---------------------------------------------------------------------------
# chain maps, cones, fibres


@dataclass
class ChainMap:
    """A degree-homogeneous module map commuting with the differentials."""

    source: DGModule
    target: DGModule
    degree: int
    blocks: dict
    check: bool = True

    def __post_init__(self):
        if self.source.algebra != self.target.algebra:
            raise AlgebraMismatch("chain map needs a common algebra")
        self.map = GradedMap(self.source.space, self.target.space,
                             self.degree, self.blocks)
        if self.check:
            if not self.commutes_with_diff():
                raise NotChainMap("map does not commute with differentials")
            if not self.is_module_map():
                raise NotChainMap("map is not linear over the algebra")

    def block(self, n: int) -> Matrix:
        return self.map.block(n)

    def commutes_with_diff(self) -> bool:
        sgn = -1 if self.degree % 2 else 1
        for n in range(self.source.lo, self.source.hi + 1):
            if self.source.dim(n) == 0:
                continue
            tn = n + self.degree
            if (self.target.known_dim(tn) is None
                    or self.target.known_dim(tn - 1) is None
                    or self.source.known_dim(n - 1) is None):
                continue
            lhs = mat_mul(self.target.diff.block(tn), self.map.block(n))
            rhs = mat_mul(self.map.block(n - 1), self.source.diff.block(n))
            if not _maps_agree(lhs, rhs, self.target.known_dim(tn - 1),
                               self.source.dim(n), sgn):
                return False
        return True

    def is_module_map(self) -> bool:
        gens = self.source.generator_degrees()
        for i, g in enumerate(gens):
            sgn = -1 if (self.degree % 2 and g % 2) else 1
            for n in range(self.source.lo, self.source.hi + 1):
                if self.source.dim(n) == 0:
                    continue
                tn = n + self.degree
                if (self.target.known_dim(tn) is None
                        or self.target.known_dim(tn + g) is None
                        or self.source.known_dim(n + g) is None):
                    continue
                lhs = mat_mul(self.target.actions[i].block(tn), self.map.block(n))
                rhs = mat_mul(self.map.block(n + g), self.source.actions[i].block(n))
                if not _maps_agree(lhs, rhs, self.target.known_dim(tn + g),
                                   self.source.dim(n), sgn):
                    return False
        return True


def identity_map(M: DGModule) -> ChainMap:
    return ChainMap(M, M, 0, {n: identity(M.dim(n)) for n in M.degrees()})


def chain_map_space(A: DGModule, B: DGModule, degree: int = 0) -> list:
    """Basis of the space of degree-homogeneous chain module maps A -> B.

    Unknown blocks live wherever both source and target are stored; every
    Koszul-signed compatibility with the differentials and actions that can
    be formed inside the windows becomes a linear equation.  Returns a list
    of {(n, row, col): value} dicts; wrap with chain_map_from_blocks.
    """
    from .grlin import LinearSystem
    sys = LinearSystem()
    for n in A.degrees():
        tb = B.known_dim(n + degree)
        if tb is None:
            continue
        for rr in range(tb):
            for cc in range(A.dim(n)):
                sys.var((n, rr, cc))

    def blockvar(n):
        tb = B.known_dim(n + degree)
        if tb is None or A.known_dim(n) is None:
            return None
        return tb, A.known_dim(n)

    sgn_d = -1 if degree % 2 else 1
    gens = A.generator_degrees()
    for n in A.degrees():
        here = blockvar(n)
        if here is None:
            continue
        constraints = [(B.diff, A.diff, -1, sgn_d)]
        for i, g in enumerate(gens):
            sgn = -1 if (degree % 2 and g % 2) else 1
            constraints.append((B.actions[i], A.actions[i], g, sgn))
        for gm_b, gm_a, d, sgn in constraints:
            below = blockvar(n + d)
            if below is None:
                continue
            tb2 = B.known_dim(n + d + degree)
            if tb2 is None:
                continue
            bblk = gm_b.block(n + degree)
            ablk = gm_a.block(n)
            # B-op . f_n - sgn * f_(n+d) . A-op = 0
            for rr in range(tb2):
                for cc in range(A.dim(n)):
                    coeffs = {}
                    for kk in range(here[0]):
                        if bblk[rr][kk]:
                            coeffs[(n, kk, cc)] = coeffs.get((n, kk, cc), Fraction(0)) + bblk[rr][kk]
                    for kk in range(A.dim(n + d)):
                        if ablk[kk][cc]:
                            key = (n + d, rr, kk)
                            coeffs[key] = coeffs.get(key, Fraction(0)) - sgn * ablk[kk][cc]
                    if coeffs:
                        sys.add_equation(coeffs)
    return sys.kernel()


def chain_map_from_blocks(A: DGModule, B: DGModule, degree: int,
                          entries: dict, check: bool = True) -> ChainMap:
    """Assemble a ChainMap from {(n, row, col): value} entries."""
    blocks = {}
    for (n, rr, cc), v in entries.items():
        if not v:
            continue
        if n not in blocks:
            blocks[n] = zeros(B.known_dim(n + degree), A.dim(n))
        blocks[n][rr][cc] = frac(v)
    return ChainMap(A, B, degree, blocks, check=check)


def zero_map(A: DGModule, B: DGModule, degree: int = 0) -> ChainMap:
    return ChainMap(A, B, degree, {})


def mapping_cone(f: ChainMap, name: str = "") -> DGModule:
    """Standard mapping cone: target plus shifted source, twisted
    differential d(b, a) = (db + f(a), -da)."""
    if f.degree != 0:
        raise NotChainMap("cone is defined for degree-0 chain maps")
    A, B = f.source, f.target

    def sk(v, a):
        return v if v <= _NEG or v >= _POS else v + a

    klo = max(B.known_lo(), sk(A.known_lo(), 1))
    khi = min(B.known_hi(), sk(A.known_hi(), 1))
    lo = max(klo, min(B.lo, A.lo + 1))
    hi = min(khi, max(B.hi, A.hi + 1))
    if lo > hi:
        return zero_module(A.algebra, name=name)
    dims, labels = {}, {}
    for n in range(lo, hi + 1):
        db, da = B.known_dim(n), A.known_dim(n - 1)
        if db + da:
            dims[n] = db + da
            labels[n] = ([f"b.{l}" for l in B.labels_at(n)]
                         + [f"sa.{l}" for l in A.labels_at(n - 1)])
    gens = A.generator_degrees()
    diff_blocks = {}
    act_blocks = [dict() for _ in gens]
    for n in dims:
        db, da = B.known_dim(n), A.known_dim(n - 1)
        if (n - 1) in dims:
            tb, ta = B.known_dim(n - 1), A.known_dim(n - 2)
            m = zeros(tb + ta, db + da)
            bb = B.diff.block(n)
            for i in range(tb):
                for j in range(db):
                    m[i][j] = bb[i][j]
            fb = f.block(n - 1)
            for i in range(tb):
                for j in range(da):
                    m[i][db + j] = fb[i][j]
            ab = A.diff.block(n - 1)
            for i in range(ta):
                for j in range(da):
                    m[tb + i][db + j] = -ab[i][j]
            if not is_zero_matrix(m):
                diff_blocks[n] = m
        for t, g in enumerate(gens):
            tgt = n + g
            if tgt not in dims:
                continue
            tb, ta = B.known_dim(tgt), A.known_dim(tgt - 1)
            m = zeros(tb + ta, db + da)
            bb = B.actions[t].block(n)
            for i in range(tb):
                for j in range(db):
                    m[i][j] = bb[i][j]
            sgn = -1 if g % 2 else 1
            ab = A.actions[t].block(n - 1)
            for i in range(ta):
                for j in range(da):
                    m[tb + i][db + j] = sgn * ab[i][j]
            if not is_zero_matrix(m):
                act_blocks[t][n] = m
    return dg_module(A.algebra, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=(klo == _NEG),
                     complete_above=(khi == _POS),
                     labels=labels,
                     name=name or f"cone({f.source.name}->{f.target.name})")


def fibre(f: ChainMap, name: str = "") -> DGModule:
    """Fibre of a chain map: the desuspended mapping cone."""
    out = mapping_cone(f).shift(-1)
    if name:
        out.name = name
    return out


def cone_les_dimension_check(f: ChainMap) -> bool:
    """Long-exact-sequence check: dim H_n(cone) = dim coker(H_n f) +
    dim ker(H_(n-1) f) wherever all three are certified."""
    cone = mapping_cone(f)
    HA, HB = homology(f.source), homology(f.target)
    HC = homology(cone)
    ok = True
    for n in HC.certified_range():
        da, db = HA.dim(n - 1), HB.dim(n)
        if None in (da, db, HA.dim(n), HC.dim(n)):
            continue
        r_here = homology_map_rank(f, HA, HB, n)
        r_below = homology_map_rank(f, HA, HB, n - 1)
        if r_below is None or r_here is None:
            continue
        want = (db - r_here) + (da - r_below)
        if HC.dim(n) != want:
            ok = False
    return ok


def homology_map_rank(f: ChainMap, HA, HB, n) -> int | None:
    reps = HA.representatives(n)
    if HA.dim(n) is None or HB.dim(n) is None:
        return None
    if not reps:
        return 0
    vecs = []
    for rep in reps:
        img = f.map.apply(n, rep)
        coords = express_in_homology(f.target, HB, n, img)
        if coords is None:
            return None
        vecs.append(coords)
    if not vecs or not vecs[0]:
        return 0
    from .grlin import rank as _rank
    return _rank(vecs)


# ---------------------------------------------------------------------------
# homology


@dataclass
class Homology:
    """Degreewise homology of a DG module with a certified range."""

    module: DGModule
    pieces: dict
    certified: tuple | None  # (lo, hi) or None

    def certified_range(self):
        """Certified degrees clamped to where homology can be nonzero."""
        if self.certified is None:
            return range(0)
        lo = max(self.certified[0], self.module.lo - 1)
        hi = min(self.certified[1], self.module.hi + 1)
        return range(lo, hi + 1)

    def dim(self, n: int) -> int | None:
        if self.certified and self.certified[0] <= n <= self.certified[1]:
            return self.pieces[n].dim if n in self.pieces else 0
        if self.module.known_dim(n) == 0:
            return 0
        return None

    def dims(self) -> dict:
        return {n: p.dim for n, p in self.pieces.items() if p.dim}

    def total_dim(self) -> int:
        return sum(p.dim for p in self.pieces.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def representatives(self, n: int) -> list:
        return self.pieces[n].representatives if n in self.pieces else []

    def window(self) -> Window | None:
        if self.certified is None:
            return None
        return Window(self.module.lo, self.module.hi,
                      max(self.certified[0], self.module.lo),
                      min(self.certified[1], self.module.hi))


def homology(M: DGModule) -> Homology:
    """Homology on every degree where degrees n-1, n, n+1 are all known."""
    from .grlin import homology_at
    pieces = {}
    certified = []
    for n in range(M.lo, M.hi + 1):
        if (M.known_dim(n) is None or M.known_dim(n - 1) is None
                or M.known_dim(n + 1) is None):
            continue
        certified.append(n)
        if M.dim(n) == 0:
            continue
        pieces[n] = homology_at(M.diff, M.diff, n)
    cert = (min(certified), max(certified)) if certified else None
    if cert and M.complete_below:
        cert = (_NEG, cert[1])
    if cert and M.complete_above:
        cert = (cert[0], _POS)
    return Homology(M, pieces, cert)


def homology_dims(M: DGModule) -> dict:
    return homology(M).dims()


def express_in_homology(M: DGModule, H: Homology, n: int, v) -> list | None:
    """Coordinates of a cycle's class in the homology basis at degree n.

    Returns None when v is not a cycle class at n (up to boundaries).  H is
    the homology of M; each piece factors its basis once for all queries.
    """
    piece = H.pieces.get(n)
    if piece is not None:
        return piece.class_coordinates(v)
    # nothing stored at n: only boundaries have a (zero) class there
    return [] if solve(M.diff.block(n + 1), v) is not None else None


def homology_module(M: DGModule, name: str = "") -> DGModule:
    """Homology as a module with zero differential and induced actions,
    on the certified homology range."""
    H = homology(M)
    if H.certified is None:
        raise InvariantViolation("window too small to certify any homology")
    lo = max(H.certified[0], M.lo)
    hi = min(H.certified[1], M.hi)
    gens = M.generator_degrees()
    dims, labels = {}, {}
    for n in range(lo, hi + 1):
        d = H.pieces[n].dim if n in H.pieces else 0
        if d:
            dims[n] = d
            labels[n] = [f"h{n}_{i}" for i in range(d)]
    act_blocks = [dict() for _ in gens]
    for n in dims:
        for i, g in enumerate(gens):
            t = n + g
            if t not in dims:
                continue
            m = zeros(dims[t], dims[n])
            for col, rep in enumerate(H.pieces[n].representatives):
                img = M.actions[i].apply(n, rep)
                coords = express_in_homology(M, H, t, img)
                assert coords is not None, "action image is not a cycle class"
                for row, c in enumerate(coords):
                    m[row][col] = c
            if not is_zero_matrix(m):
                act_blocks[i][n] = m
    return dg_module(M.algebra, dims, {}, act_blocks, lo, hi,
                     complete_below=M.complete_below,
                     complete_above=M.complete_above,
                     labels=labels, name=name or f"H({M.name})")


# ---------------------------------------------------------------------------
# Hom from a finite free complex


def hom_from_free(F: FreeDGModule, M: DGModule, name: str = "",
                  contractions: bool = False) -> DGModule:
    """Hom over R from a finite free DG module into M, as a DG module.

    The degree-n piece is the tuple of values on the free basis; the
    differential is the usual graded commutator and R acts through M.  With
    contractions=True the result is instead a module over the exterior
    algebra, acting by Koszul-signed precomposition with the contraction
    cycles e_S -> e_(S-i); that is the duality functor's strict action.
    """
    R = F.algebra
    if not isinstance(M.algebra, PolyAlgebra) or M.algebra != R:
        raise AlgebraMismatch("hom_from_free needs matching polynomial algebras")
    out_algebra = ExtAlgebra(R.group) if contractions else R
    bdegs = F.basis_degrees()
    if not bdegs or M.total_dim() == 0:
        return zero_module(out_algebra, name=name)
    bmin, bmax = min(bdegs), max(bdegs)
    klo = M.known_lo() - bmin if M.known_lo() != _NEG else _NEG
    khi = M.known_hi() - bmax if M.known_hi() != _POS else _POS
    lo = max(klo, M.lo - bmax)
    hi = min(khi, M.hi - bmin)
    if lo > hi:
        return zero_module(out_algebra, name=name)
    cb = klo == _NEG
    ca = khi == _POS

    dims, labels, offsets = {}, {}, {}
    for n in range(lo, hi + 1):
        offs = []
        total = 0
        for j, b in enumerate(bdegs):
            offs.append(total)
            total += M.known_dim(n + b)
        offsets[n] = offs
        if total:
            dims[n] = total
            labels[n] = [f"{F.basis[j][0]}->{lab}"
                         for j, b in enumerate(bdegs)
                         for lab in M.labels_at(n + b)]
    diff_blocks = {}
    for n in dims:
        t = n - 1
        if t not in dims:
            continue
        m = zeros(dims[t], dims[n])
        sgn = -1 if n % 2 else 1
        for j, bj in enumerate(bdegs):
            src_dim = M.known_dim(n + bj)
            tgt_rows = M.known_dim(t + bj)
            if src_dim and tgt_rows:
                blk = M.diff.block(n + bj)
                for rr in range(tgt_rows):
                    for cc in range(src_dim):
                        if blk[rr][cc]:
                            m[offsets[t][j] + rr][offsets[n][j] + cc] += blk[rr][cc]
            if not tgt_rows:
                continue
            for i, bi in enumerate(bdegs):
                p = F.diff[i][j]
                if p.is_zero():
                    continue
                src_i = M.known_dim(n + bi)
                if not src_i:
                    continue
                act = M.action_poly_block(p, n + bi)
                for rr in range(tgt_rows):
                    for cc in range(src_i):
                        if act[rr][cc]:
                            m[offsets[t][j] + rr][offsets[n][i] + cc] -= sgn * act[rr][cc]
        if not is_zero_matrix(m):
            diff_blocks[n] = m

    if contractions:
        L = out_algebra
        subs = _subsets(R.r)
        assert F.rank == len(subs), "contraction actions need the Koszul basis"
        gens = L.generator_degrees()
        act_blocks = [dict() for _ in range(L.r)]
        for n in dims:
            sgn_f = -1 if n % 2 else 1
            for i in range(L.r):
                t = n + gens[i]
                if t not in dims:
                    continue
                m = zeros(dims[t], dims[n])
                for k, s in enumerate(subs):
                    if i not in s:
                        continue
                    s2 = tuple(j for j in s if j != i)
                    k2 = subs.index(s2)
                    sgn = L.remove_sign(i, s) * sgn_f
                    # (a_i f)(e_S) = (-1)^{|f|} tau f(e_{S-i});
                    # internal degrees match: t + b_S = n + b_{S-i}
                    for idx in range(M.known_dim(n + bdegs[k2])):
                        m[offsets[t][k] + idx][offsets[n][k2] + idx] += sgn
                if not is_zero_matrix(m):
                    act_blocks[i][n] = m
        return dg_module(L, dims, diff_blocks, act_blocks, lo, hi, cb, ca,
                         labels=labels, name=name or f"T({M.name})")

    act_blocks = [dict() for _ in range(R.r)]
    for n in dims:
        for i in range(R.r):
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
                act_blocks[i][n] = m
    return dg_module(R, dims, diff_blocks, act_blocks, lo, hi, cb, ca,
                     labels=labels, name=name or f"Hom({M.name})")


def hom_R(F: FreeDGModule, M: DGModule, name: str = "") -> DGModule:
    """Hom over the polynomial ring from a finite free complex into M."""
    return hom_from_free(F, M, name=name, contractions=False)


# ---------------------------------------------------------------------------
# torsion part and graded dual


def gamma_m(M: DGModule, name: str = "") -> DGModule:
    """Largest sub-DG-module on which the augmentation ideal acts
    locally nilpotently.

    Computed degreewise, ascending: a vector is torsion exactly when every
    generator pushes it into the already-computed torsion part below.  An
    image escaping an incomplete window bottom cannot be certified, so such
    vectors are excluded; for complete-below modules the sweep keeps all
    of M.
    """
    R = M.algebra
    assert isinstance(R, PolyAlgebra)
    sub_bases = {}
    for n in range(M.lo, M.hi + 1):
        dn = M.dim(n)
        if dn == 0:
            sub_bases[n] = []
            continue
        escaped = False
        rows = []
        for i in range(R.r):
            t = n - R.codegrees[i]
            if t < M.lo:
                if M.complete_below:
                    continue
                escaped = True
                break
            blk = M.actions[i].block(n)
            tb = sub_bases.get(t, [])
            if len(tb) == M.dim(t):
                continue
            # rows whose kernel is exactly the span of tb
            proj = kernel_basis(tb, cols=M.dim(t))
            for row in mat_mul(proj, blk):
                rows.append(row)
        if escaped:
            sub_bases[n] = []
            continue
        if rows:
            sub_bases[n] = kernel_basis(rows, cols=dn)
        else:
            sub_bases[n] = [unit_vector(dn, j) for j in range(dn)]
    dims, labels = {}, {}
    for n, vecs in sub_bases.items():
        if vecs:
            dims[n] = len(vecs)
            labels[n] = [f"g{n}_{i}" for i in range(len(vecs))]
    diff_blocks = {}
    act_blocks = [dict() for _ in range(R.r)]
    for n, vecs in sub_bases.items():
        if not vecs:
            continue
        for store, gm, deg in ([(diff_blocks, M.diff, -1)]
                               + [(act_blocks[i], M.actions[i], -R.codegrees[i])
                                  for i in range(R.r)]):
            t = n + deg
            if t not in dims:
                continue
            m = zeros(dims[t], dims[n])
            for col, v in enumerate(vecs):
                img = gm.apply(n, v)
                coords = coordinates(sub_bases[t], img)
                assert coords is not None, "torsion part is not closed"
                for row, c in enumerate(coords):
                    m[row][col] = c
            if not is_zero_matrix(m):
                store[n] = m
    return dg_module(R, dims, diff_blocks, act_blocks, M.lo, M.hi,
                     M.complete_below, M.complete_above,
                     labels=labels, name=name or f"Gamma({M.name})")


def matlis_dual(M: DGModule, name: str = "") -> DGModule:
    """Graded dual with transposed actions and Koszul-signed differential."""
    dims, labels = {}, {}
    for n, d in M.space.dims.items():
        dims[-n] = d
        labels[-n] = [f"({l})^" for l in M.labels_at(n)]
    lo, hi = -M.hi, -M.lo
    diff_blocks = {}
    for n in range(lo, hi + 1):
        if dims.get(n, 0) == 0 or dims.get(n - 1, 0) == 0:
            continue
        # (df)(m) = -(-1)^{|f|} f(dm)
        blk = M.diff.block(1 - n)
        m = mat_scale(-1 if n % 2 == 0 else 1, transpose(blk))
        if not is_zero_matrix(m):
            diff_blocks[n] = m
    gens = M.generator_degrees()
    act_blocks = [dict() for _ in gens]
    for n in range(lo, hi + 1):
        for i, g in enumerate(gens):
            t = n + g
            if dims.get(n, 0) == 0 or dims.get(t, 0) == 0:
                continue
            m = transpose(M.actions[i].block(-t))
            if g % 2:
                m = mat_scale(-1 if n % 2 else 1, m)
            if not is_zero_matrix(m):
                act_blocks[i][n] = m
    return dg_module(M.algebra, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=M.complete_above,
                     complete_above=M.complete_below,
                     labels=labels, name=name or f"D({M.name})")


def double_dual_comparison(M: DGModule) -> ChainMap:
    """The canonical chain isomorphism M -> D(D(M)) (sign (-1)^n per degree)."""
    dd = matlis_dual(matlis_dual(M))
    blocks = {}
    for n in M.degrees():
        blocks[n] = mat_scale(-1 if n % 2 else 1, identity(M.dim(n)))
    return ChainMap(M, dd, 0, blocks)


# ---------------------------------------------------------------------------
# the twisted tensor from exterior modules to torsion modules


def tensor_over_ext(N: DGModule, R: PolyAlgebra, w: Window,
                    name: str = "") -> DGModule:
    """Twisted tensor of a finite exterior module with the dual polynomial
    coalgebra: the Koszul duality functor into torsion modules.

    Underlying space N (x) QQ[y_1..y_r] with |y_i| = d_i; the differential is
    d_N (x) 1 plus the sum of (a_i .)(x) d/dy_i, and x_i acts as 1 (x) d/dy_i.
    The output is complete below, hence certified torsion.
    """
    L = N.algebra
    if not isinstance(L, ExtAlgebra) or L.group != R.group:
        raise AlgebraMismatch("tensor_over_ext needs matching group data")
    if not N.is_finite():
        raise UnboundedInput("tensor_over_ext needs a finite exterior module")
    if N.total_dim() == 0:
        return zero_module(R, name=name or "0")
    nmin, nmax = N.support_min(), N.support_max()
    lo, hi = nmin, max(w.hi, nmin)
    basis, dims, labels = {}, {}, {}
    for n in range(lo, hi + 1):
        bs = []
        for md in range(nmin, min(n, nmax) + 1):
            if N.dim(md) == 0:
                continue
            for alpha in R.monomials(n - md):
                for u in range(N.dim(md)):
                    bs.append((md, u, alpha))
        if bs:
            basis[n] = bs
            dims[n] = len(bs)
            labels[n] = [f"{N.space.label(md, u)}(x){_y_label(R, alpha)}"
                         for md, u, alpha in bs]
    index = {n: {b: k for k, b in enumerate(bs)} for n, bs in basis.items()}
    gens = L.generator_degrees()
    diff_blocks = {}
    for n in basis:
        t = n - 1
        if t not in basis:
            continue
        m = zeros(dims[t], dims[n])
        for col, (md, u, alpha) in enumerate(basis[n]):
            dblk = N.diff.block(md)
            for rr in range(N.dim(md - 1)):
                if dblk[rr][u]:
                    tgt = (md - 1, rr, alpha)
                    if tgt in index[t]:
                        m[index[t][tgt]][col] += dblk[rr][u]
            for i, g in enumerate(gens):
                if alpha[i] == 0:
                    continue
                ablk = N.actions[i].block(md)
                a2 = list(alpha)
                a2[i] -= 1
                for rr in range(N.dim(md + g)):
                    if ablk[rr][u]:
                        tgt = (md + g, rr, tuple(a2))
                        if tgt in index[t]:
                            m[index[t][tgt]][col] += alpha[i] * ablk[rr][u]
        if not is_zero_matrix(m):
            diff_blocks[n] = m
    act_blocks = [dict() for _ in range(R.r)]
    for n in basis:
        for i in range(R.r):
            t = n - R.codegrees[i]
            if t not in basis:
                continue
            m = zeros(dims[t], dims[n])
            for col, (md, u, alpha) in enumerate(basis[n]):
                if alpha[i] == 0:
                    continue
                a2 = list(alpha)
                a2[i] -= 1
                m[index[t][(md, u, tuple(a2))]][col] = Fraction(alpha[i])
            if not is_zero_matrix(m):
                act_blocks[i][n] = m
    return dg_module(R, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=True, complete_above=False,
                     labels=labels, name=name or f"S({N.name})")


def _y_label(R: PolyAlgebra, alpha) -> str:
    parts = []
    for i, a in enumerate(alpha):
        if a == 1:
            parts.append(f"y{i+1}")
        elif a > 1:
            parts.append(f"y{i+1}^{a}")
    return "*".join(parts) if parts else "1"
