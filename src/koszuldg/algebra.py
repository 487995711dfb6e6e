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

Sums, cones, Hom, twisted tensors, totalizations and r'_! are built by one
assembler, `_summed`: each degree is a sum of keyed summands, and each block
of operator k (`DGModule.op`) is a sum of integer forms placed from one
summand onto another.
"""
from __future__ import annotations

import functools
import itertools
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .grlin import (
    GradedMap,
    GradedVS,
    LinearSystem,
    MapBasis,
    Matrix,
    Window,
    _assemble,
    _block_column,
    _check_indices,
    _column_sum,
    _columns_form,
    _coordinates_form,
    _dense,
    _echelon,
    _form_rank,
    _identity_form,
    _insert,
    _int_agree,
    _int_product,
    _kernel,
    _scaled,
    _transposed,
    frac,
    homology_at,
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
    m = re.fullmatch(r"T\^([0-9]+)|(SU|Sp)\(([0-9]+)\)", s)
    if m is None:
        raise ValueError(f"unknown group name: {name!r}")
    if m.group(1) is not None:
        return GroupData((2,) * int(m.group(1)))
    n = int(m.group(3))
    if m.group(2) == "SU":
        if n < 2:
            raise ValueError("SU(n) needs n >= 2")
        return GroupData(tuple(range(4, 2 * n + 1, 2)))
    if n < 1:
        raise ValueError("Sp(n) needs n >= 1")
    return GroupData(tuple(range(4, 4 * n + 1, 4)))


def parse_group(spec: str) -> GroupData:
    """A codegree list (``2`` or ``4,6``) or a catalog name (``SU(3)``)."""
    if re.fullmatch(r"[0-9][0-9,]*", spec):
        return GroupData(tuple(int(x) for x in spec.split(",") if x))
    return named_group(spec)


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
        if len(self.varnames) != self.group.rank:
            raise ValueError(f"{len(self.varnames)} variable names for rank {self.r}")

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
        if i not in s:
            raise ValueError(f"generator {i} is not a factor of {s}")
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

    def op(self, k: int) -> GradedMap:
        """The differential for k = -1, the action of generator k otherwise."""
        return self.diff if k == -1 else self.actions[k]

    def action_poly_block(self, p: "Poly", n: int) -> Matrix:
        """Matrix of the action of a homogeneous polynomial on degree n.

        Monomials that pass through a zero-dimensional intermediate degree
        act by zero; shapes stay (dim at n+deg) x (dim at n) throughout.
        """
        f = self._action_poly_form(p, n)
        if f is not None:
            return _dense(f[0], f[1], self.dim(n))
        rows = 0 if p.is_zero() else self.space.dim(n + p.degree())
        return zeros(rows, self.dim(n))

    def _action_poly_form(self, p: "Poly", n: int) -> tuple | None:
        """The integer form of action_poly_block(p, n), or None when the
        action is zero.  For p a single monomial with coefficient 1 this is
        the product of the action forms, whose rows may be the stored
        blocks' rows (read-only, as GradedMap's forms are)."""
        if not isinstance(self.algebra, PolyAlgebra):
            raise AlgebraMismatch("polynomial action needs a polynomial algebra")
        if p.is_zero():
            return None
        deg = p.degree()
        if deg is None:
            raise ValueError("polynomial action needs homogeneous p")
        rows, cols = self.space.dim(n + deg), self.dim(n)
        if rows == 0 or cols == 0:
            return None
        gens = self.generator_degrees()

        def monomial(alpha):
            """Integer form of alpha acting on degree n; None when it passes
            through an absent or zero block and so acts by zero.  mono says
            that every factor so far, and so m, is a monomial matrix."""
            m, mono = None, True
            at = n
            for i, a in enumerate(alpha):
                for _ in range(a):
                    f = self.actions[i].form(at)
                    if f is None:
                        return None
                    m = f if m is None else _int_product(f, m, mono)
                    mono = mono and self.actions[i].monomial(at)
                    at += gens[i]
            return m if m is not None else (1, [{j: 1} for j in range(cols)], cols)

        if len(p.terms) == 1:
            (alpha, c), = p.terms.items()
            if c == 1:
                # one unit term: the monomial's form, its rows shared
                m = monomial(alpha)
                return m if m is not None and any(m[1]) else None
        terms = []
        for alpha, c in p.terms.items():
            m = monomial(alpha)
            if m is not None:
                terms.append((c, m))
        # one common denominator: every term's contribution is an integer
        den = lcm(*[c.denominator * m[0] for c, m in terms])
        acc = [{} for _ in range(rows)]
        for c, (d, mrows, _) in terms:
            s = c.numerator * (den // (c.denominator * d))
            for out, row in zip(acc, mrows):
                for j, v in row.items():
                    out[j] = out.get(j, 0) + s * v
        acc = [{j: x for j, x in row.items() if x} for row in acc]
        return (den, acc, cols) if any(acc) else None

    def shift(self, a: int) -> "DGModule":
        """Suspension by a: degrees move up by a, odd operators pick up signs."""
        if a == 0:
            return self
        dims = {n + a: d for n, d in self.space.dims.items()}
        labels = None
        if self.space.labels is not None:
            labels = {n + a: list(ls) for n, ls in self.space.labels.items()}
        sp = GradedVS(dims, labels)
        maps = []
        for g, gm in [(-1, self.diff)] + list(zip(self.generator_degrees(), self.actions)):
            sgn = -1 if (a % 2 and g % 2) else 1
            maps.append(GradedMap(sp, sp, g, {n + a: f if sgn == 1 else _scaled(f, sgn)
                                              for n, f in gm.forms.items()}))
        diff, *acts = maps
        return DGModule(self.algebra, sp, diff, tuple(acts),
                        self.lo + a, self.hi + a,
                        self.complete_below, self.complete_above,
                        name=f"S^{a}({self.name})" if self.name else "")


def dg_module(algebra, dims: dict, diff_blocks: dict, action_blocks: list,
              lo: int, hi: int, complete_below=False, complete_above=False,
              labels: dict | None = None, name: str = "") -> DGModule:
    """Assemble and validate a DGModule from block data: integer forms, or
    dense matrices at the API edge, as GradedMap takes them; None and zero
    blocks are dropped there."""
    dims = {n: d for n, d in dims.items() if d and lo <= n <= hi}
    if labels is not None:
        labels = {n: labels[n] for n in dims if n in labels}
    sp = GradedVS(dims, labels)
    diff = GradedMap(sp, sp, -1, diff_blocks)
    acts = [GradedMap(sp, sp, g, blocks)
            for g, blocks in zip(algebra.generator_degrees(), action_blocks)]
    return DGModule(algebra, sp, diff, tuple(acts), lo, hi,
                    complete_below, complete_above, name=name)


def _summed(algebra, lo: int, hi: int, summands, pieces,
            complete_below: bool, complete_above: bool, name: str) -> DGModule:
    """Assemble and validate a DG module whose every degree is a direct sum
    of keyed summands.

    summands(n) yields (key, labels) in order: the degree-n basis is the
    concatenation of the label lists, and a key with no labels is an empty
    summand.  pieces(k, g, n) yields (form, target key, source key, scale)
    for the block of operator k (DGModule.op), of degree g, out of degree n:
    the integer form, times scale, maps that source summand at n into that
    target summand at n + g.  A None form adds nothing, and its keys are not
    looked up.
    """
    offsets, dims, labels = {}, {}, {}
    for n in range(lo, hi + 1):
        offs, labs = {}, []
        for key, ls in summands(n):
            offs[key] = len(labs)
            labs += ls
        if labs:
            offsets[n], dims[n], labels[n] = offs, len(labs), labs
    ops = [(-1, -1)] + list(enumerate(algebra.generator_degrees()))
    blocks = [{n: _assemble(dims[n + g], dims[n],
                            [(f, offsets[n + g][tk], offsets[n][sk], c)
                             for f, tk, sk, c in pieces(k, g, n) if f is not None])
               for n in dims if n + g in dims} for k, g in ops]
    return dg_module(algebra, dims, blocks[0], blocks[1:], lo, hi,
                     complete_below, complete_above, labels=labels, name=name)


def _block_product(f: GradedMap, m: int, g: GradedMap, n: int) -> tuple | None:
    """The integer form of f.block(m) . g.block(n), or None, standing for
    zero, when either block is absent or zero.  The factors are the forms
    the maps store (GradedMap.form); no dense block is built, and a right
    factor that is a monomial matrix (GradedMap.monomial) is multiplied by
    reindexing.  Rows of the product may be rows of g's block.
    """
    a = f.form(m)
    if a is None:
        return None
    b = g.form(n)
    return None if b is None else _int_product(a, b, g.monomial(n))


def check_dg_invariants(M: DGModule) -> dict:
    """d.d = 0, Koszul-signed Leibniz, and operator (anti)commutation.

    Compositions are checked wherever every degree involved is known, which
    is every place they are meaningful for a windowed module.  They are
    formed as sparse integer products, and a composite through an absent
    block is zero without being formed.  Returns how many identities of
    each kind were verified: {"d.d", "Leibniz", "commutation",
    "square-zero"}, the last counting odd generators only.
    """
    counts = {"d.d": 0, "Leibniz": 0, "commutation": 0, "square-zero": 0}
    gens = M.generator_degrees()
    if len(M.actions) != len(gens):
        raise InvariantViolation("one action operator per generator required")
    for n in M.space.dims:
        if not (M.lo <= n <= M.hi):
            raise InvariantViolation(f"stored degree {n} outside window")

    klo, khi = M.known_lo(), M.known_hi()
    d, acts = M.diff, M.actions
    for n in range(M.lo, M.hi + 1):
        if M.dim(n) == 0:
            continue
        if klo <= n - 2 and n - 1 <= khi:
            if not _int_agree(_block_product(d, n - 1, d, n), None):
                raise InvariantViolation(f"d.d != 0 at degree {n}")
            counts["d.d"] += 1
            d._zero_products.add((n - 1, n))  # homology_at need not form it again
        for i, gi in enumerate(gens):
            if (klo <= n + gi <= khi and klo <= n + gi - 1 <= khi
                    and klo <= n - 1 <= khi):
                lhs = _block_product(d, n + gi, acts[i], n)
                rhs = _block_product(acts[i], n - 1, d, n)
                sgn = -1 if gi % 2 else 1
                if not _int_agree(lhs, rhs, sgn):
                    raise InvariantViolation(
                        f"d fails Leibniz against generator {i} at degree {n}")
                counts["Leibniz"] += 1
            for j in range(i, len(gens)):
                gj = gens[j]
                if not (klo <= n + gi <= khi and klo <= n + gj <= khi
                        and klo <= n + gi + gj <= khi):
                    continue
                if i == j:
                    # even generators commute with themselves: nothing to form
                    if gi % 2:
                        if not _int_agree(_block_product(acts[i], n + gi, acts[i], n), None):
                            raise InvariantViolation(f"odd generator {i} fails square-zero")
                        counts["square-zero"] += 1
                    continue
                ij = _block_product(acts[i], n + gj, acts[j], n)
                ji = _block_product(acts[j], n + gi, acts[i], n)
                sgn = -1 if (gi % 2 and gj % 2) else 1
                if not _int_agree(ij, ji, sgn):
                    raise InvariantViolation(
                        f"generators {i},{j} fail graded commutation at degree {n}")
                counts["commutation"] += 1
    return counts


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
        if len(self.diff) != n or any(len(row) != n for row in self.diff):
            raise InvariantViolation(
                f"free differential is not a {n}x{n} matrix on the basis")
        nonzero = [[(j, p) for j, p in enumerate(row) if not p.is_zero()]
                   for row in self.diff]
        for i, row in enumerate(nonzero):
            bi = self.basis[i][1]
            for j, p in row:
                want = self.basis[j][1] - 1 - bi
                if not p.is_homogeneous(want):
                    raise InvariantViolation(
                        f"differential entry ({i},{j}) not homogeneous of degree {want}")
        # d.d = 0 over the ring, forming only the products of nonzero entries
        for row in nonzero:
            acc = {}
            for k, p in row:
                for j, q in nonzero[k]:
                    acc[j] = acc[j] + p * q if j in acc else p * q
            if any(not x.is_zero() for x in acc.values()):
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


def free_module(R: PolyAlgebra, gens: list) -> FreeDGModule:
    """Free module with zero differential on generators [(label, degree)]."""
    n = len(gens)
    z = R.zero()
    return FreeDGModule(R, tuple(gens),
                        tuple(tuple(z for _ in range(n)) for _ in range(n)))


def koszul_model(R: PolyAlgebra) -> FreeDGModule:
    """The Koszul model of the residue field: free on the 2^r subset basis.

    d(e_S) = sum over i in S of (-1)^(number of earlier indices) x_i e_(S-i).
    The sign convention is fixed here once; d^2 = 0 is asserted by the
    FreeDGModule constructor.  It is the last stage of koszul_stage.
    """
    return koszul_stage(R, R.r)


def koszul_stage(R: PolyAlgebra, upto: int) -> FreeDGModule:
    """Partial Koszul complex on the first `upto` generators (over all of R),
    built once per ring, variable names and upto, and shared read-only: ring
    equality ignores the names, but labels print them."""
    if not 0 <= upto <= R.r:
        raise ValueError(f"Koszul stage {upto} of a rank-{R.r} ring")
    return _koszul_on(R, R.varnames, upto)


@functools.cache
def _koszul_on(R: PolyAlgebra, varnames: tuple, upto: int) -> FreeDGModule:
    subs = _subsets(upto)
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


def free_basis(F: FreeDGModule, n: int) -> list:
    """Degree-n basis of a realized free module: (j, alpha), (j, lex) order."""
    R = F.algebra
    out = []
    for j, (_, bj) in enumerate(F.basis):
        for alpha in R.monomials(bj - n):
            out.append((j, alpha))
    return out


def _vector_to_poly_column(F: FreeDGModule, n: int, v: tuple) -> list:
    """Decode a realized degree-n integer column into one Poly per generator."""
    R = F.algebra
    cols = [R.zero() for _ in F.basis]
    basis, (den, col) = free_basis(F, n), v
    for i, c in col.items():
        j, alpha = basis[i]
        cols[j] = cols[j] + Poly(R, {alpha: Fraction(c, den)})
    return cols


def _generator_actions(F: FreeDGModule) -> list:
    """The action of each generator x_i on F, as the polynomial matrix
    diag(x_i) of degree -d_i."""
    R = F.algebra
    zero = R.zero()
    return [[[R.gen(i) if j == k else zero for k in range(F.rank)]
             for j in range(F.rank)] for i in range(R.r)]


def _poly_terms(polymat) -> list:
    """The terms of a polynomial matrix grouped by column, read in one pass
    over it: entry i is (den, [(j, beta, v)]), each term c x^beta of entry
    [j][i] written as the integer v = c * den over the least common
    denominator den of column i."""
    cols = [[] for _ in (polymat[0] if polymat else ())]
    for j, row in enumerate(polymat):
        for col, p in zip(cols, row):
            if p.terms:
                col.extend((j, beta, c) for beta, c in p.terms.items())
    out = []
    for col in cols:
        den = lcm(*[c.denominator for _, _, c in col])
        out.append((den, [(j, beta, c.numerator * (den // c.denominator))
                          for j, beta, c in col]))
    return out


def _generator_terms(F: FreeDGModule) -> list:
    """The _poly_terms of each of _generator_actions(F), written down
    without the matrices: column j of diag(x_i) is the one term x_i e_j."""
    R = F.algebra
    units = [tuple(int(k == i) for k in range(R.r)) for i in range(R.r)]
    return [[(1, [(j, e, 1)]) for j in range(F.rank)] for e in units]


def _positions(basis: list) -> dict:
    """The index of a free basis: {(j, alpha): position}."""
    return {ba: k for k, ba in enumerate(basis)}


def _realize(terms: list, bs: list, ts: list, at: dict | None = None) -> tuple | None:
    """The integer form of one block of a map of realized free modules, or
    None when it is zero.

    terms are the _poly_terms of a polynomial matrix whose entry [j][i]
    multiplies generator i of the source into generator j of the target;
    bs and ts are the free bases (free_basis) of the source degree and of
    the target degree, and at, when given, the _positions of ts.  The
    denominator is the least common one of the columns of the generators in
    bs.  A term outside ts is an entry of the wrong degree and raises
    InvariantViolation.  Distinct terms of a column land in distinct rows,
    so no entry is a sum.
    """
    if not bs or not ts:
        return None
    if at is None:
        at = _positions(ts)
    gens = {i for i, _ in bs}
    den = lcm(*[terms[i][0] for i in gens])
    rows = [{} for _ in ts]
    for col, (i, alpha) in enumerate(bs):
        d, column = terms[i]
        s = den // d
        for j, beta, v in column:
            k = at.get((j, tuple(map(add, alpha, beta))))
            if k is None:
                raise InvariantViolation(
                    f"entry ({j},{i}) of a polynomial matrix has the wrong degree")
            rows[k][col] = v * s
    return (den, rows, len(bs)) if any(rows) else None


def _evaluate(F: FreeDGModule, M: DGModule, images, n: int, table: dict) -> tuple | None:
    """The integer form of the degree-n block of the map from realized F to
    M sending generator j to the integer column images[j] (None for zero),
    or None when that block is zero.

    Column (j, alpha) is x^alpha applied to images[j], the generators acting
    in index order as in action_poly_block: x_l applied to column
    (j, alpha - e_l), l the last index with alpha_l > 0, computed once as a
    sparse {row: int} vector over its least denominator from the rows of the
    action's integer form.  table keeps, across the degrees one caller
    evaluates for one F, M and images, the columns under their keys
    (j, alpha) and the free basis of each degree under the degree; a caller
    holding a basis already may put it there.  The block is None at once
    where M is zero, before any basis is built.  An image with an index at
    or above M's dimension at its degree raises ValueError."""
    if not M.dim(n):
        return None
    bs = table.get(n)
    if bs is None:
        bs = table[n] = free_basis(F, n)
    if not bs:
        return None
    cols = [(k, c) for k, (j, alpha) in enumerate(bs)
            if (c := _column(M, images, j, alpha, n, table)) is not None]
    den = lcm(*[d for _, (d, _) in cols])
    rows = [{} for _ in range(M.dim(n))]
    for k, (d, vec) in cols:
        for r, v in vec.items():
            rows[r][k] = v * (den // d)
    return (den, rows, len(bs)) if cols else None


def _column(M: DGModule, images, j: int, alpha: tuple, n: int, table: dict):
    """Column (j, alpha), of degree n, of _evaluate: (den, {row: int}) in
    lowest terms, or None when it is zero."""
    if (j, alpha) in table:
        return table[j, alpha]
    if not any(alpha):
        den, vec = (1, {}) if images[j] is None else _column_sum(images[j])
        _check_indices(vec, M.dim(n))
    else:
        last = max(i for i, a in enumerate(alpha) if a)
        deg = n + M.algebra.codegrees[last]  # x_last has degree -codegree
        prev = _column(M, images, j, alpha[:last] + (alpha[last] - 1,) + alpha[last + 1:],
                       deg, table)
        f = None if prev is None else M.actions[last].form(deg)
        vec, pv = {}, prev and prev[1]
        for r, row in enumerate(() if f is None else f[1]):
            s = 0
            for c, x in row.items():
                if c in pv:
                    s += x * pv[c]
            if s:
                vec[r] = s
        if vec and (den := prev[0] * f[0]) != 1 and (g := gcd(den, *vec.values())) != 1:
            den, vec = den // g, {r: v // g for r, v in vec.items()}
    table[j, alpha] = col = (den, vec) if vec else None
    return col


def to_degreewise(F: FreeDGModule, w: Window, name: str = "",
                  bases: dict | None = None) -> DGModule:
    """Expand a free DG module into degreewise matrices inside a window.

    The degree-n basis is pairs (generator j, monomial alpha) ordered by
    (j, lex alpha), labelled "monomial*generator": the generator alone for
    alpha = 0, the monomial alone for a generator labelled "1".  Dimensions
    and blocks are intrinsic per degree, so the stored range is exact; the
    module is complete above once the window clears the top generator.
    bases, from a caller that holds them, are the free bases free_basis(F, n)
    of every degree of the window.  The differential and each x_i are
    realized from terms read once per matrix (_poly_terms) and one index per
    target degree.
    """
    R = F.algebra
    degs = F.basis_degrees()
    top = max(degs, default=0)
    bottom = min(degs, default=0)
    lo, hi = w.lo, w.hi
    gens = [lab for lab, _ in F.basis]
    basis, labels = {}, {}
    for n in range(lo, hi + 1):
        bs = free_basis(F, n) if bases is None else bases[n]
        if bs:
            basis[n] = bs
            labels[n] = [gens[j] if not any(a)
                         else R.monomial_label(a) if gens[j] == "1"
                         else f"{R.monomial_label(a)}*{gens[j]}" for j, a in bs]
    diff_blocks = {}
    action_blocks = [dict() for _ in range(R.r)]
    maps = [(diff_blocks, _poly_terms(F.diff), -1)] + [
        (action_blocks[i], x, -R.codegrees[i]) for i, x in enumerate(_generator_terms(F))]
    index = {n: _positions(bs) for n, bs in basis.items()}
    for n, bs in basis.items():
        for store, terms, deg in maps:
            store[n] = _realize(terms, bs, basis.get(n + deg), index.get(n + deg))
    dims = {n: len(bs) for n, bs in basis.items()}
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
    """The graded dual of R: the injective hull of the residue field, as the
    Matlis dual of R windowed to the mirror image of w.

    Degree-n piece (n >= 0) is dual to the codegree-n monomials; each x_i
    acts by deleting itself from a dual monomial and kills the socle.
    """
    return matlis_dual(poly_as_module(R, Window(-w.hi, -max(w.lo, 0))), name=name)


def poly_as_module(R: PolyAlgebra, w: Window, name: str = "R") -> DGModule:
    """R as a module over itself, windowed (support in degrees <= 0)."""
    return to_degreewise(free_module(R, [("1", 0)]), Window(w.lo, min(w.hi, 0)), name=name)


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
            rows = [{} for _ in range(dims[n + gi])]
            for s in subs:
                d, k = index[s]
                if d != n:
                    continue
                sgn = L.left_mult_sign(i, s)
                if sgn:
                    t = tuple(sorted(s + (i,)))
                    _, k2 = index[t]
                    rows[k2][k] = sgn
            action_blocks[i][n] = (1, rows, dims[n])
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
    return _summed(A.algebra, lo, hi,
                   lambda n: ((0, A.labels_at(n)), (1, B.labels_at(n))),
                   lambda k, g, n: ((A.op(k).form(n), 0, 0, 1), (B.op(k).form(n), 1, 1, 1)),
                   klo == _NEG, khi == _POS, name or f"{A.name}+{B.name}")


# ---------------------------------------------------------------------------
# chain maps, cones, fibres


class ChainMap:
    """A degree-homogeneous module map commuting with the differentials.

    Its blocks are handed to the GradedMap `map` as GradedMap takes them;
    `blocks` and `block(n)` are that map's dense views."""

    def __init__(self, source: DGModule, target: DGModule, degree: int,
                 blocks: dict, check: bool = True):
        if source.algebra != target.algebra:
            raise AlgebraMismatch("chain map needs a common algebra")
        self.source, self.target, self.degree = source, target, degree
        self.map = GradedMap(source.space, target.space, degree, blocks)
        if check:
            if not self.commutes_with_diff():
                raise NotChainMap("map does not commute with differentials")
            if not self.is_module_map():
                raise NotChainMap("map is not linear over the algebra")

    @property
    def blocks(self) -> dict:
        return self.map.blocks

    def block(self, n: int) -> Matrix:
        return self.map.block(n)

    def commutes_with_diff(self) -> bool:
        return self._commutes(-1)

    def is_module_map(self) -> bool:
        return all(self._commutes(k) for k in range(len(self.source.actions)))

    def _commutes(self, k: int) -> bool:
        """Operator k (DGModule.op) of degree g on both sides: the target's
        after the map equals the map after the source's, Koszul-signed,
        wherever every degree involved is known."""
        f, a_src, a_tgt = self.map, self.source.op(k), self.target.op(k)
        g = a_src.degree
        sgn = -1 if (self.degree % 2 and g % 2) else 1
        for n in range(self.source.lo, self.source.hi + 1):
            if self.source.dim(n) == 0:
                continue
            tn = n + self.degree
            if (self.target.known_dim(tn) is None
                    or self.target.known_dim(tn + g) is None
                    or self.source.known_dim(n + g) is None):
                continue
            if not _int_agree(_block_product(a_tgt, tn, f, n),
                              _block_product(f, n + g, a_src, n), sgn):
                return False
        return True


def identity_map(M: DGModule) -> ChainMap:
    return ChainMap(M, M, 0, {n: _identity_form(M.dim(n)) for n in M.degrees()})


def map_system(A: DGModule, B: DGModule, degree: int, ops) -> tuple:
    """The equations of the degree-homogeneous maps A -> B commuting with
    the operators k in ops (DGModule.op): range(-1, r) for chain module
    maps, range(r) for module maps.

    Unknown blocks f_n live wherever both source and target are stored,
    each a range of variable indices in the order of A's degrees
    (LinearSystem.unknowns).  Each operator of degree g gives the block
    equation B-op . f_n - sgn * f_(n+g) . A-op = 0, sgn = -1 when degree and
    g are both odd, written by LinearSystem.equate from the stored integer
    forms wherever both windows certify every degree it reaches; without an
    unknown entry only the windows are read.  Returns the LinearSystem and
    the degrees of B, in the order met, where an unknown block or an
    equation was left out for want of B's window.
    """
    # B.known_dim(n + degree) is None exactly when n lies outside [klo, khi]
    sys, missing, cols = LinearSystem(), [], []
    klo, khi = B.known_lo() - degree, B.known_hi() - degree
    for n in A.degrees():
        if klo <= n <= khi:
            c = A.dim(n)
            sys.unknowns(n, B.dim(n + degree), c)
            cols.append((n, c))
        else:
            missing.append(n + degree)
    ops = [(A.op(k), B.op(k)) for k in ops]
    lo, hi = A.known_lo(), A.known_hi()
    for n, c in cols:
        for a, b in ops:
            m = n + a.degree
            if not lo <= m <= hi:
                continue
            if not klo <= m <= khi:
                missing.append(m + degree)
            elif sys.num_vars and B.dim(m + degree):
                sgn = -1 if (degree % 2 and a.degree % 2) else 1
                sys.equate(B.dim(m + degree), c, left=[(1, b.form(n + degree), n)],
                           right=[(-sgn, m, a.form(n))])
    return sys, missing


def chain_map_space(A: DGModule, B: DGModule, degree: int = 0) -> MapBasis:
    """Basis of the space of degree-homogeneous chain module maps A -> B,
    as integer columns over map_system's layout."""
    sys, _ = map_system(A, B, degree, range(-1, len(A.actions)))
    return MapBasis(sys.kernel(), sys.blocks)


def _express_composites(basis: MapBasis, form, shift: int, target: MapBasis,
                         after: bool = True) -> tuple:
    """The coordinates in target of every map of basis composed with the
    blocks of one graded map, as the columns of an integer form.

    A map of basis is an integer column over basis.blocks, with block h_n
    at key n.  The block form(n + shift), an integer form or None for zero,
    comes after h_n when after is set, and the composite sits at n;
    otherwise it comes before h_n, and the composite sits at n + shift.
    Composites are integer columns over target's indices, all forms over
    one denominator; an entry in a block that target lacks keeps its name
    (key, row, col).  One outside the span of target raises
    InvariantViolation.
    """
    offs, lines = [], []  # where each nonempty block of basis starts, what meets it
    for n, (off, rows, cols) in basis.blocks.items():
        if rows * cols:
            f, m = form(n + shift), n if after else n + shift
            offs.append(off)
            lines.append(f and (off, cols, f[0], _transposed(f)[1] if after else f[1],
                                m, target.blocks.get(m)))
    den = lcm(*[line[2] for line in lines if line])
    comps = []
    for lead, col in basis:
        comp = {}
        for i, v in col.items():
            line = lines[bisect_right(offs, i) - 1]
            if line:
                off, w, fden, fl, m, at = line
                rr, cc = divmod(i - off, w)
                v *= den // fden
                # F[r][rr] h[rr][cc] is entry (r, cc) of F . h, h[rr][cc] F[cc][r]
                # entry (rr, r) of h . F
                for r, x in fl[rr if after else cc].items():
                    a, b = (r, cc) if after else (rr, r)
                    key = at[0] + a * at[2] + b if at else (m, a, b)
                    comp[key] = comp.get(key, 0) + x * v
        comps.append((lead * den, comp))
    out = _coordinates_form(target, comps)
    if out is None:
        raise InvariantViolation("composite escaped the solution space")
    return out


def chain_map_from_blocks(A: DGModule, B: DGModule, degree: int,
                          column: tuple, blocks: dict) -> ChainMap:
    """The ChainMap whose block at n is the unknown block n of a map
    system's solution: column is an integer column over the variables of
    the layout blocks, {n: (offset, rows, cols)} (LinearSystem.blocks)."""
    return ChainMap(A, B, degree, {
        n: _columns_form([(c, _block_column(column, b, c)) for c in range(b[2])], b[1], b[2])
        for n, b in blocks.items()})


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

    def pieces(k, g, n):
        fa = f.map.form(n - 1) if k == -1 else None
        return ((B.op(k).form(n), 0, 0, 1), (fa, 0, 1, 1),
                (A.op(k).form(n - 1), 1, 1, -1 if g % 2 else 1))

    return _summed(A.algebra, lo, hi,
                   lambda n: ((0, [f"b.{l}" for l in B.labels_at(n)]),
                              (1, [f"sa.{l}" for l in A.labels_at(n - 1)])),
                   pieces, klo == _NEG, khi == _POS,
                   name or f"cone({f.source.name}->{f.target.name})")


def fibre(f: ChainMap, name: str = "") -> DGModule:
    """Fibre of a chain map: the desuspended mapping cone."""
    out = mapping_cone(f).shift(-1)
    if name:
        out.name = name
    return out


def cone_les_dimension_check(f: ChainMap) -> bool:
    """Long-exact-sequence check: dim H_n(cone) = dim coker(H_n f) +
    dim ker(H_(n-1) f) wherever all three are certified.  False when no
    degree could be compared."""
    cone = mapping_cone(f)
    HA, HB = homology(f.source), homology(f.target)
    HC = homology(cone)
    compared = 0
    for n in HC.certified_range():
        da, db = HA.dim(n - 1), HB.dim(n)
        if None in (da, db, HA.dim(n), HC.dim(n)):
            continue
        r_here = homology_map_rank(f, HA, HB, n)
        r_below = homology_map_rank(f, HA, HB, n - 1)
        if r_below is None or r_here is None:
            continue
        if HC.dim(n) != (db - r_here) + (da - r_below):
            return False
        compared += 1
    return compared > 0


def homology_map_rank(f: ChainMap, HA, HB, n) -> int | None:
    if HA.dim(n) is None or HB.dim(n) is None:
        return None
    span = {}
    for c in HA.classes(n):
        coords = express_in_homology(f.target, HB, n, f.map.apply(n, c))
        if coords is None:
            return None
        _insert(span, coords[1])
    return len(span)


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

    def classes(self, n: int) -> list:
        """The integer columns of the classes at n (HomologyPiece.classes)."""
        return self.pieces[n].classes if n in self.pieces else []

    def window(self) -> Window | None:
        if self.certified is None:
            return None
        return Window(self.module.lo, self.module.hi,
                      max(self.certified[0], self.module.lo),
                      min(self.certified[1], self.module.hi))


def homology(M: DGModule) -> Homology:
    """Homology on every degree where degrees n-1, n, n+1 are all known."""
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


def express_in_homology(M: DGModule, H: Homology, n: int, v: tuple) -> tuple | None:
    """Coordinates of the class of the integer column v in the homology
    basis at degree n, as an integer column over the class indices
    (HomologyPiece.class_coordinates).

    Returns None when v is not a cycle class at n (up to boundaries), and
    raises ValueError on an index outside M at n.  H is the homology of M;
    each piece factors its basis once for all queries.
    """
    piece = H.pieces.get(n)
    if piece is not None:
        return piece.class_coordinates(v)
    dim = M.dim(n)
    _check_indices(v[1], dim)
    # nothing stored at n: only boundaries have a (zero) class there, and v
    # is one when appending it to the boundary map leaves the rank as it is
    f, cols = M.diff.form(n + 1), M.dim(n + 1)
    aug = _assemble(dim, cols + 1, [(f, 0, 0, 1), (_columns_form([(0, v)], dim, 1), 0, cols, 1)])
    return (1, {}) if _form_rank(aug) == _form_rank(f) else None


def homology_module(M: DGModule, name: str = "", H: Homology | None = None) -> DGModule:
    """Homology as a module with zero differential and induced actions,
    on the certified homology range; H is homology(M) when already computed."""
    H = H or homology(M)
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
        classes = H.pieces[n].classes
        # the classes' integer columns side by side, each times its den
        rows = _columns_form(enumerate((1, col) for _, col in classes), M.dim(n), dims[n])
        for i, g in enumerate(gens):
            t = n + g
            f = M.actions[i].form(n)
            if t not in dims or f is None:
                continue
            # column j of the product is the image of class j times its den
            fden, images, _ = _transposed(_int_product(f, rows))
            cols = []
            for (s, _), image in zip(classes, images):
                coords = express_in_homology(M, H, t, (fden * s, image))
                if coords is None:
                    raise InvariantViolation("action image is not a cycle class")
                cols.append(coords)
            act_blocks[i][n] = _columns_form(enumerate(cols), dims[t], dims[n])
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
    L = ExtAlgebra(R.group)
    out_algebra = L if contractions else R
    subs = _subsets(R.r)
    if contractions and F.rank != len(subs):
        raise InvariantViolation("contraction actions need the Koszul basis")
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
    # the nonzero entries F.diff[i][j] of each column j
    columns = [[(i, p) for i, p in enumerate(col) if not p.is_zero()] for col in zip(*F.diff)]
    # (a_i f)(e_S) = (-1)^{|f|} tau f(e_{S-i}): the summand of e_(S-i) goes
    # to that of e_S, whose internal degrees match: t + b_S = n + b_{S-i}
    contract = [[(k, subs.index(tuple(j for j in s if j != i)), L.remove_sign(i, s))
                 for k, s in enumerate(subs) if i in s] for i in range(R.r)]

    def pieces(k, g, n):
        sgn = -1 if n % 2 else 1
        if k == -1:
            for j, bj in enumerate(bdegs):
                yield M.diff.form(n + bj), j, j, 1
                for i, p in columns[j]:
                    yield M._action_poly_form(p, n + bdegs[i]), j, i, -sgn
        elif contractions:
            for s, s2, c in contract[k]:
                yield _identity_form(M.known_dim(n + bdegs[s2])), s, s2, c * sgn
        else:
            for j, bj in enumerate(bdegs):
                yield M.actions[k].form(n + bj), j, j, 1

    return _summed(out_algebra, lo, hi,
                   lambda n: [(j, [f"{F.basis[j][0]}->{lab}" for lab in M.labels_at(n + b)])
                              for j, b in enumerate(bdegs)],
                   pieces, klo == _NEG, khi == _POS,
                   name or (f"T({M.name})" if contractions else f"Hom({M.name})"))


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
    if not isinstance(R, PolyAlgebra):
        raise AlgebraMismatch("the torsion part needs a polynomial algebra")
    sub_bases = {}  # degree -> basis of the torsion part, as _kernel's columns
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
            tb = sub_bases.get(t, [])
            f = M.actions[i].form(n)
            if len(tb) == M.dim(t) or f is None:
                continue
            # rows whose kernel is exactly the span of tb, times the action
            proj = [col for _, col in _kernel(_echelon([col for _, col in tb]), M.dim(t))]
            rows += _int_product((1, proj, M.dim(t)), f)[1]
        if escaped:
            sub_bases[n] = []
            continue
        sub_bases[n] = _kernel(_echelon(rows), dn)
    dims, labels = {}, {}
    for n, vecs in sub_bases.items():
        if vecs:
            dims[n] = len(vecs)
            labels[n] = [f"g{n}_{i}" for i in range(len(vecs))]
    blocks = [{} for _ in range(R.r + 1)]
    for n in dims:
        for k in range(-1, R.r):
            gm = M.op(k)
            t = n + gm.degree
            if t not in dims:
                continue
            coords = _coordinates_form(sub_bases[t], [gm.apply(n, v) for v in sub_bases[n]])
            if coords is None:
                raise InvariantViolation("torsion part is not closed")
            blocks[k + 1][n] = coords
    return dg_module(R, dims, blocks[0], blocks[1:], M.lo, M.hi,
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
        f = M.diff.form(1 - n)
        if f is not None:
            diff_blocks[n] = _transposed(f, -1 if n % 2 == 0 else 1)
    gens = M.generator_degrees()
    act_blocks = [dict() for _ in gens]
    for n in range(lo, hi + 1):
        for i, g in enumerate(gens):
            t = n + g
            if dims.get(n, 0) == 0 or dims.get(t, 0) == 0:
                continue
            f = M.actions[i].form(-t)
            if f is not None:
                act_blocks[i][n] = _transposed(f, -1 if g % 2 and n % 2 else 1)
    return dg_module(M.algebra, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=M.complete_above,
                     complete_above=M.complete_below,
                     labels=labels, name=name or f"D({M.name})")


def double_dual_comparison(M: DGModule) -> ChainMap:
    """The canonical chain isomorphism M -> D(D(M)) (sign (-1)^n per degree)."""
    dd = matlis_dual(matlis_dual(M))
    return ChainMap(M, dd, 0, {n: _identity_form(M.dim(n), -1 if n % 2 else 1)
                               for n in M.degrees()})


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
    gens = L.generator_degrees()
    # the degree-n summands: N's basis at md tensor y^alpha, by (md, alpha)
    keys = {n: [(md, alpha) for md in range(nmin, min(n, nmax) + 1) if N.dim(md)
                for alpha in R.monomials(n - md)] for n in range(lo, hi + 1)}

    def lower(alpha, i):
        return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]

    def pieces(k, g, n):
        for md, alpha in keys[n]:
            if k == -1:
                yield N.diff.form(md), (md - 1, alpha), (md, alpha), 1
                for i in range(R.r):
                    if alpha[i]:
                        yield (N.actions[i].form(md), (md + gens[i], lower(alpha, i)),
                               (md, alpha), alpha[i])
            elif alpha[k]:
                yield _identity_form(N.dim(md)), (md, lower(alpha, k)), (md, alpha), alpha[k]

    return _summed(R, lo, hi,
                   lambda n: [((md, alpha), [f"{N.space.label(md, u)}(x){_y_label(R, alpha)}"
                                             for u in range(N.dim(md))])
                              for md, alpha in keys[n]],
                   pieces, True, False, name or f"S({N.name})")


def _y_label(R: PolyAlgebra, alpha) -> str:
    parts = []
    for i, a in enumerate(alpha):
        if a == 1:
            parts.append(f"y{i+1}")
        elif a > 1:
            parts.append(f"y{i+1}^{a}")
    return "*".join(parts) if parts else "1"
