"""Koszul duality between exterior modules and torsion polynomial modules.

The two functors are strict: Hom from the Koszul model carries an exterior
action through the contraction cycles, and the twisted tensor carries the
polynomial action through differentiation.  On top of them sit the
endomorphism DGA of the Koszul model, the commutative model Hom(kbar, k)
with its coalgebra product, the evaluation comparison between the two, the
double-centralizer check, intrinsic formality of polynomial homology, and
the recognition algorithm for modules with one-dimensional homology.  Every
DGA here is a DegreewiseDGA, multiplied by one product read off a rule on
basis keys.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .grlin import (
    LinearSystem,
    Window,
    _assemble,
    _block_column,
    _column_sum,
    _columns_form,
    _echelon,
    _form_rank,
    _insert,
    _int_product,
    _transposed,
)
from .algebra import (
    ChainMap,
    DGModule,
    ExtAlgebra,
    FreeDGModule,
    GroupData,
    InvariantViolation,
    NotTorsion,
    PolyAlgebra,
    _evaluate,
    _subsets,
    basic_injective,
    dg_module,
    express_in_homology,
    ext_algebra,
    free_basis,
    free_module,
    hom_from_free,
    homology,
    homology_module,
    koszul_model,
    lambda_as_module,
    mapping_cone,
    poly_as_module,
    tensor_over_ext,
    to_degreewise,
    trivial_lambda_module,
)


class NotPolynomialHomology(ValueError):
    """Homology does not match the expected polynomial dimensions."""


class NotGradedCommutative(ValueError):
    """Chosen cycle representatives fail to commute strictly."""


class HomologyNotK(ValueError):
    """Module homology is not one-dimensional in degree zero."""


class LinearSolveFailed(ValueError):
    """A nullhomotopy / extension system had no solution in the window."""


# ---------------------------------------------------------------------------
# the two duality functors


def functor_T(M: DGModule, name: str = "") -> DGModule:
    """Hom from the Koszul model, with its strict exterior action.

    The contraction operators e_S -> +/- e_(S-i) are cycles in the
    endomorphism DGA and satisfy the exterior relations on the nose, so the
    result is an honest DG module over the exterior algebra.
    """
    R = M.algebra
    if not isinstance(R, PolyAlgebra):
        raise NotTorsion("functor_T expects a module over the polynomial ring")
    if not M.is_torsion():
        raise NotTorsion("functor_T needs a torsion module")
    return hom_from_free(koszul_model(R), M, contractions=True,
                         name=name or f"T({M.name})")


def functor_S(N: DGModule, R: PolyAlgebra, w: Window, name: str = "") -> DGModule:
    """Twisted tensor against the dual polynomial coalgebra; lands in
    torsion modules, the polynomial generators acting by differentiation."""
    return tensor_over_ext(N, R, w, name=name or f"S({N.name})")


@dataclass
class KLambda:
    """The standard semifree exterior resolution of the trivial module,
    realized in a window: the exterior algebra twisted against polynomial
    divided powers, with one-dimensional homology in degree zero."""

    ext: ExtAlgebra
    ring: PolyAlgebra
    window: Window
    module: DGModule

    def check(self) -> bool:
        H = homology(self.module)
        return H.dims() == {0: 1}


def k_lambda(L: ExtAlgebra, R: PolyAlgebra, w: Window) -> KLambda:
    mod = tensor_over_ext(lambda_as_module(L), R, w, name="k_lambda")
    out = KLambda(L, R, w, mod)
    if not out.check():
        raise InvariantViolation("exterior resolution is not acyclic over degree 0")
    return out


def s_of_trivial_iso(R: PolyAlgebra, w: Window) -> ChainMap:
    """The explicit isomorphism from S(trivial module) to the basic
    injective: y^alpha -> alpha! (x^alpha)^dual, degreewise diagonal."""
    L = ext_algebra(R.group)
    S = tensor_over_ext(trivial_lambda_module(L), R, w, name="S(Q)")
    I = basic_injective(R, Window(0, S.hi))
    blocks = {}
    for n in S.degrees():
        mons = R.monomials(n)
        rows = [{} for _ in range(I.dim(n))]
        for col, alpha in enumerate(mons):
            fact = 1
            for a in alpha:
                for t in range(2, a + 1):
                    fact *= t
            rows[col][col] = fact
        blocks[n] = (1, rows, S.dim(n))
    return ChainMap(S, I, 0, blocks)


@dataclass
class RoundTripReport:
    """Homology comparison for one duality round trip."""

    side: str
    left_dims: dict
    right_dims: dict
    left_action_ranks: dict
    right_action_ranks: dict
    agrees: bool

    def __str__(self):
        verdict = "agree" if self.agrees else "DISAGREE"
        return (f"roundtrip[{self.side}]: {verdict}; "
                f"H-dims {self.left_dims} vs {self.right_dims}")


def _action_ranks(M: DGModule) -> dict:
    out = {}
    for i, act in enumerate(M.actions):
        for n in M.degrees():
            r = _form_rank(act.form(n))
            if r:
                out[(i, n)] = r
    return out


def _dims_agree(left: DGModule, right: DGModule, lo: int, hi: int) -> bool:
    """Equal dimensions in every degree of [lo, hi] known on both sides.

    Fails closed: with no degree known on both sides nothing was compared,
    which is not agreement.
    """
    compared = [n for n in range(lo, hi + 1)
                if left.known_dim(n) is not None and right.known_dim(n) is not None]
    return bool(compared) and all(left.known_dim(n) == right.known_dim(n)
                                  for n in compared)


def roundtrip_check(X: DGModule) -> RoundTripReport:
    """Round-trip homology comparison through the duality functors.

    Exterior input N: compare homology of T(S(N)) with homology of N.
    Torsion input M: the same comparison for N = T(M), that is homology of
    T(S(T(M))) with that of T(M), both as graded spaces with exterior action
    ranks.

    The twisted-tensor window only needs to clear the homology support by
    the certification margin: Hom from the Koszul model reads degrees at or
    below its argument, so nothing above the support plus a pad of 3 can
    contribute to a certified comparison degree.
    """
    side = "exterior"
    if isinstance(X.algebra, ExtAlgebra):
        R = PolyAlgebra(X.algebra.group)
    elif not X.is_finite():
        raise NotTorsion("torsion-side roundtrip needs a finite-length module")
    else:
        side, R, X = "torsion", X.algebra, functor_T(X)
    S = functor_S(X, R, Window(0, (X.support_max() or 0) + 3))
    left = homology_module(functor_T(S))
    right = homology_module(X)
    agree = _dims_agree(left, right, min(X.lo, left.lo), max(X.hi, left.hi))
    la, ra = _action_ranks(left), _action_ranks(right)
    agree = agree and la == ra
    return RoundTripReport(side, dict_dims(left), dict_dims(right), la, ra, agree)


def dict_dims(M: DGModule) -> dict:
    return {n: M.dim(n) for n in M.degrees()}


# ---------------------------------------------------------------------------
# degreewise DGAs: one product, read off a rule on basis keys


def _key_column(keys: list, coeff) -> tuple:
    """The integer column with the integer coeff(key) at each basis key."""
    return 1, {k: int(c) for k, key in enumerate(keys) if (c := coeff(key))}


@dataclass
class DegreewiseDGA:
    """A DGA presented degreewise: a windowed complex whose basis elements
    carry keys, with the product of two basis elements given by a rule.

    keys(n) lists the degree-n basis keys in the module's basis order; it is
    read only at degrees the module stores, where its length is
    module.dim(n).  rule(a, b) is the product of the basis elements keyed a
    and b: (key, sign) with sign +1 or -1 and key a basis key of the sum
    degree, or None for zero.  Elements, unit (in degree zero) included, are
    integer columns over their least denominators, as homology classes are,
    so two are equal exactly when their columns are.
    """

    module: DGModule
    keys: object         # callable n -> list of basis keys
    rule: object         # callable (key, key) -> (key, sign) | None
    unit: tuple
    name: str = ""

    def product(self, d1: int, v1: tuple, d2: int, v2: tuple) -> tuple:
        """(d1 + d2, v1.v2), the rule extended bilinearly: a product landing
        outside the stored window is zero."""
        n = d1 + d2
        (den1, c1), (den2, c2) = v1, v2
        if not (c1 and c2 and self.module.dim(n)):
            return n, (1, {})
        at = {key: k for k, key in enumerate(self.keys(n))}
        keys1, keys2 = self.keys(d1), self.keys(d2)
        right = [(keys2[k], c) for k, c in c2.items()]
        out = {}
        for k1, x1 in c1.items():
            for b, x2 in right:
                hit = self.rule(keys1[k1], b)
                if hit is not None:
                    i = at[hit[0]]
                    out[i] = out.get(i, 0) + hit[1] * x1 * x2
        return n, _column_sum((den1 * den2, out))


def _free_dga(F: FreeDGModule, module: DGModule, gens: list, gen_rule,
              unit_gens, name: str) -> DegreewiseDGA:
    """An R-bilinear DGA on the realization `module` of the free module F.

    The key of x^alpha times generator j is (gens[j], alpha); gen_rule
    multiplies two generator keys to (key, sign) or None, and monomials
    multiply by adding exponents.  The unit is the sum of the generators in
    unit_gens.
    """
    def keys(n):
        return [(gens[j], alpha) for j, alpha in free_basis(F, n)]

    def rule(a, b):
        hit = gen_rule(a[0], b[0])
        return None if hit is None else ((hit[0], tuple(map(add, a[1], b[1]))), hit[1])

    unit = _key_column(keys(0), lambda key: key[0] in unit_gens and not any(key[1]))
    return DegreewiseDGA(module, keys, rule, unit, name)


# ---------------------------------------------------------------------------
# the endomorphism DGA of the Koszul model


def end_dga(R: PolyAlgebra, window: Window | None = None) -> DegreewiseDGA:
    """End(kbar) with composition (first factor after second): a rank-4^r
    free DG module over R on the maps f[T<-S] between Koszul generators, keyed
    by the subset pair (T, S).  Asserts the contraction operators are cycles
    satisfying the exterior relations."""
    kb = koszul_model(R)
    subs = _subsets(R.r)
    bdeg = {s: sum(1 - R.codegrees[i] for i in s) for s in subs}
    pairs = [(T, S) for T in subs for S in subs]
    n = len(pairs)
    pidx = {p: k for k, p in enumerate(pairs)}
    kidx = {s: k for k, s in enumerate(subs)}
    D = kb.diff
    diff = [[R.zero() for _ in range(n)] for _ in range(n)]
    for (T, S) in pairs:
        col = pidx[(T, S)]
        deg = bdeg[T] - bdeg[S]
        sgn = -1 if deg % 2 else 1
        for U in subs:
            p = D[kidx[U]][kidx[T]]
            if not p.is_zero():
                row = pidx[(U, S)]
                diff[row][col] = diff[row][col] + p
        for V in subs:
            p = D[kidx[S]][kidx[V]]
            if not p.is_zero():
                row = pidx[(T, V)]
                diff[row][col] = diff[row][col] + p.scale(-sgn)
    basis = tuple((f"f[{_sub_lab(T)}<-{_sub_lab(S)}]", bdeg[T] - bdeg[S])
                  for (T, S) in pairs)
    free = FreeDGModule(R, basis, tuple(tuple(row) for row in diff))
    dim_g = R.group.dim_g
    maxd = max(R.codegrees) if R.r else 1
    if window is None:
        window = Window(-(2 * dim_g + maxd + 3), dim_g + 2)
    out = _free_dga(free, to_degreewise(free, window, name="End(kbar)"), pairs,
                    lambda a, b: ((a[0], b[1]), 1) if a[1] == b[0] else None,
                    {(S, S) for S in subs}, "End(kbar)")
    _assert_contractions(out)
    return out


def _sub_lab(s) -> str:
    return "".join(str(i + 1) for i in s) if s else "0"


def _contraction(e: DegreewiseDGA, i: int) -> tuple:
    """The contraction cycle e_S -> +/- e_(S-i) of End(kbar), with its degree."""
    R = e.module.algebra
    L = ext_algebra(R.group)
    deg = R.codegrees[i] - 1

    def coeff(key):
        (T, S), alpha = key
        hit = not any(alpha) and i in S and T == tuple(j for j in S if j != i)
        return L.remove_sign(i, S) if hit else 0

    return deg, _key_column(e.keys(deg) if e.module.dim(deg) else [], coeff)


def _assert_contractions(e: DegreewiseDGA):
    """Contractions are cycles; squares vanish; they anticommute; the
    identity is a cycle."""
    R = e.module.algebra
    if e.module.diff.apply(0, e.unit)[1]:
        raise InvariantViolation("identity of End(kbar) is not a cycle")
    iotas = [_contraction(e, i) for i in range(R.r)]
    for i, (di, vi) in enumerate(iotas):
        if e.module.diff.apply(di, vi)[1]:
            raise InvariantViolation(f"contraction {i} is not a cycle")
        if e.product(di, vi, di, vi)[1][1]:
            raise InvariantViolation(f"contraction {i} fails square-zero")
        for j in range(i + 1, R.r):
            dj, vj = iotas[j]
            if _column_sum(e.product(di, vi, dj, vj)[1], e.product(dj, vj, di, vi)[1])[1]:
                raise InvariantViolation(f"contractions {i},{j} fail anticommutation")


# ---------------------------------------------------------------------------
# the commutative model Hom(kbar, k) with the coalgebra product


def hom_to_k(R: PolyAlgebra) -> DegreewiseDGA:
    """The commutative DGA Hom(kbar, k): exterior-pattern dimensions in
    non-negative degrees, zero differential, one basis element per subset
    (keyed by it), product from the coalgebra diagonal."""
    L = ext_algebra(R.group)
    subs = list(_subsets(R.r))
    degree = {s: sum(R.codegrees[i] - 1 for i in s) for s in subs}
    dims, labels = {}, {}
    for s in subs:
        dims[degree[s]] = dims.get(degree[s], 0) + 1
        labels.setdefault(degree[s], []).append(f"(e{_sub_lab(s)})^")
    mod = dg_module(R, dims, {}, [dict() for _ in range(R.r)], 0, max(dims),
                    complete_below=True, complete_above=True,
                    labels=labels, name="Hom(kbar,k)")

    def keys(n):
        return [s for s in subs if degree[s] == n]

    def rule(A, B):
        sgn = L.merge_sign(A, B)
        # Koszul sign from moving the factor of B's degree past e_A
        if degree[B] % 2 and len(A) % 2:
            sgn = -sgn
        return (tuple(sorted(A + B)), sgn) if sgn else None

    out = DegreewiseDGA(mod, keys, rule, _key_column(keys(0), lambda s: s == ()),
                        name="Hom(kbar,k)")
    _assert_homk_algebra(out)
    return out


def _assert_homk_algebra(h: DegreewiseDGA):
    """Unit, associativity, graded commutativity on the subset basis."""
    basis = [(n, _key_column(h.keys(n), lambda t: t == s))
             for n in h.module.degrees() for s in h.keys(n)]
    for d, v in basis:
        if h.product(0, h.unit, d, v)[1] != v:
            raise InvariantViolation("unit fails in Hom(kbar,k)")
    for d1, v1 in basis:
        for d2, v2 in basis:
            da, va = h.product(d1, v1, d2, v2)
            db, vb = h.product(d2, v2, d1, v1)
            sgn = -1 if (d1 % 2 and d2 % 2) else 1
            if va != (vb[0], {i: sgn * x for i, x in vb[1].items()}):
                raise InvariantViolation("Hom(kbar,k) fails graded commutativity")
            for d3, v3 in basis:
                dl, vl = h.product(da, va, d3, v3)
                dr_inner, vr_inner = h.product(d2, v2, d3, v3)
                dr, vr = h.product(d1, v1, dr_inner, vr_inner)
                if vl != vr:
                    raise InvariantViolation("Hom(kbar,k) fails associativity")


# ---------------------------------------------------------------------------
# the Cartan comparison map


@dataclass
class CartanReport:
    chain_map_ok: bool
    identity_to_unit: bool
    iota_to_dual_basis: bool
    homology_iso: bool
    multiplicative_on_homology: bool
    homology_dims: dict

    @property
    def passed(self) -> bool:
        return (self.chain_map_ok and self.identity_to_unit
                and self.iota_to_dual_basis and self.homology_iso
                and self.multiplicative_on_homology)


def cartan_theta(e: DegreewiseDGA, h: DegreewiseDGA, deg: int, v: tuple) -> tuple:
    """Evaluate the comparison from End(kbar) to Hom(kbar, k) on an integer
    column: postcompose with the augmentation of the Koszul model (keep the
    constant coefficient of the empty-subset row)."""
    keys = e.keys(deg)
    outs = h.keys(deg)
    den, col = v
    out = {}
    for k, c in col.items():
        (T, S), alpha = keys[k]
        if T == () and not any(alpha):
            i = outs.index(S)
            out[i] = out.get(i, 0) + c
    return _column_sum((den, out))


def cartan_map(e: DegreewiseDGA) -> CartanReport:
    """The evaluation comparison from End(kbar) to Hom(kbar, k): a chain
    map, multiplicative and bijective on homology."""
    R = e.module.algebra
    h = hom_to_k(R)
    # chain map: theta kills boundaries (target differential is zero)
    chain_ok = True
    for n in range(e.module.lo + 1, e.module.hi + 1):
        f = e.module.diff.form(n)
        # the columns of the block, scaled to integers: zero or not alike
        for col in ([] if f is None else _transposed(f)[1]):
            if cartan_theta(e, h, n - 1, (1, col))[1]:
                chain_ok = False
    id_ok = cartan_theta(e, h, 0, e.unit) == h.unit
    iota_ok = True
    for i in range(R.r):
        di, vi = _contraction(e, i)
        if cartan_theta(e, h, di, vi) != _key_column(h.keys(di), lambda s: s == (i,)):
            iota_ok = False
    H = homology(e.module)
    # bijectivity on homology within the certified window
    iso = True
    hdims = {}
    for n in H.certified_range():
        hd = H.dim(n)
        td = h.module.dim(n)
        if hd is None:
            continue
        if hd:
            hdims[n] = hd
        if hd != td:
            iso = False
            continue
        if hd == 0:
            continue
        imgs = [cartan_theta(e, h, n, c)[1] for c in H.classes(n)]
        if len(_echelon(imgs)) != hd:
            iso = False
    # multiplicativity on homology classes, for the products that land in
    # the stored window
    mult, products = True, 0
    reps = [(n, c) for n in H.certified_range() if H.dim(n) for c in H.classes(n)]
    for (n1, u) in reps:
        for (n2, v) in reps:
            if not e.module.lo <= n1 + n2 <= e.module.hi:
                continue
            products += 1
            dc, uv = e.product(n1, u, n2, v)
            left = cartan_theta(e, h, dc, uv)
            _, right = h.product(n1, cartan_theta(e, h, n1, u),
                                 n2, cartan_theta(e, h, n2, v))
            if left != right:
                mult = False
    # both homology verdicts fail closed when no class was compared
    return CartanReport(chain_ok, id_ok, iota_ok, iso and bool(hdims),
                        mult and products > 0, hdims)


@dataclass
class DoubleCentralizerReport:
    homology_dims: dict
    exterior_dims: dict
    dims_match: bool
    relations_ok: bool
    products_independent: bool
    relations_checked: int
    dga: DegreewiseDGA = field(repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.dims_match and self.relations_ok and self.products_independent


def double_centralizer_check(g: GroupData, window: Window | None = None) -> DoubleCentralizerReport:
    """Homology of End(kbar) matches the exterior algebra, with the
    contraction classes as exterior generators (products checked in
    homology)."""
    R = PolyAlgebra(g)
    L = ext_algebra(g)
    e = end_dga(R, window)
    H = homology(e.module)
    hdims = {}
    for n in H.certified_range():
        d = H.dim(n)
        if d:
            hdims[n] = d
    ldims = L.dims()
    ldims = {n: d for n, d in ldims.items() if d}
    dims_match = hdims == ldims
    # the exterior relations in homology: the classes of i.i and, for i < j,
    # of i.j + j.i are zero; a vector with no class fails
    iotas = [_contraction(e, i) for i in range(R.r)]
    relations = []
    for i, (di, vi) in enumerate(iotas):
        for j, (dj, vj) in enumerate(iotas[i:], i):
            n, v = e.product(di, vi, dj, vj)
            if j > i:
                v = _column_sum(v, e.product(dj, vj, di, vi)[1])
            relations.append(express_in_homology(e.module, H, n, v))
    relations_ok = all(c is not None and not c[1] for c in relations)
    # products of contraction classes: all 2^r of them, graded-independent
    prods = {}
    for S in L.subsets():
        deg, vec = 0, e.unit
        for i in S:
            deg, vec = e.product(*iotas[i], deg, vec)
        prods[S] = (deg, vec)
    independent = True
    for n in sorted({d for d, _ in prods.values()}):
        classes = []
        for S, (d, v) in prods.items():
            if d != n:
                continue
            coords = express_in_homology(e.module, H, n, v)
            if coords is None:
                independent = False
                continue
            classes.append(coords[1])
        if len(_echelon(classes)) != len(classes):
            independent = False
    return DoubleCentralizerReport(hdims, ldims, dims_match, relations_ok,
                                   independent, len(relations), e)


# ---------------------------------------------------------------------------
# intrinsic formality


def poly_dga(R: PolyAlgebra, w: Window) -> DegreewiseDGA:
    """R itself as a degreewise DGA (monomial basis, zero differential)."""
    return _free_dga(free_module(R, [("1", 0)]), poly_as_module(R, w), ["1"],
                     lambda a, b: ("1", 1), {"1"}, "R")


def koszul_dga(R: PolyAlgebra, w: Window) -> DegreewiseDGA:
    """The Koszul model as a DGA: exterior product over R, with the
    contraction differential acting as a derivation."""
    kb = koszul_model(R)
    L = ext_algebra(R.group)

    def gen_rule(S1, S2):
        sgn = L.merge_sign(S1, S2)
        return (tuple(sorted(S1 + S2)), sgn) if sgn else None

    return _free_dga(kb, to_degreewise(kb, w, name="kbar"), _subsets(R.r),
                     gen_rule, {()}, "kbar-dga")


def acyclic_extension_dga(R: PolyAlgebra, w: Window, cell_degree: int) -> DegreewiseDGA:
    """R with an adjoined acyclic square-zero ideal: R-free on u in degree
    cell_degree and v one above, with d v = u and u, v multiplying to zero."""
    z = R.zero()
    F = FreeDGModule(R, (("1", 0), ("u", cell_degree), ("v", cell_degree + 1)),
                     ((z, z, z), (z, z, R.one()), (z, z, z)))
    return _free_dga(F, to_degreewise(F, w, name="R+acyclic"), ["1", "u", "v"],
                     lambda a, b: (b, 1) if a == "1" else (a, 1) if b == "1" else None,
                     {"1"}, "R+acyclic")


@dataclass
class FormalityResult:
    generator_cycles: list   # (index, degree, integer column)
    homology_iso: bool
    window: Window | None    # the degrees checked; None when there are none

    @property
    def passed(self) -> bool:
        return self.homology_iso


def formality_map(A: DegreewiseDGA, R: PolyAlgebra) -> FormalityResult:
    """A quasi-isomorphism from the polynomial ring into a commutative DGA
    with polynomial homology.

    Representative cycles for the generators are located degreewise (first
    Homology-basis vectors completing the decomposable span, ties broken by
    basis order); the map extends multiplicatively and is verified to be a
    homology isomorphism on the certified window.  Failure modes are loud:
    NotPolynomialHomology when the dimensions do not match, and
    NotGradedCommutative when the chosen representatives do not strictly
    commute.
    """
    M = A.module
    H = homology(M)
    check_range = [n for n in H.certified_range() if M.lo <= n <= M.hi]
    for n in check_range:
        hd = H.dim(n)
        if hd is not None and hd != R.dim(n):
            raise NotPolynomialHomology(
                f"homology dimension {hd} at degree {n}, polynomial ring has {R.dim(n)}")
    # locate generator representatives, ascending codegree
    chosen = [None] * R.r
    by_codeg = {}
    for i, d in enumerate(R.codegrees):
        by_codeg.setdefault(d, []).append(i)
    for d in sorted(by_codeg):
        n = -d
        if n not in check_range:
            raise NotPolynomialHomology(f"window misses generator degree {n}")
        span = {}
        for alpha in R.monomials(d):
            if sum(alpha) >= 2:
                _insert(span, _monomial_image(A, R, chosen, alpha)[1])
        # also boundaries: classes live modulo boundaries
        f = M.diff.form(n + 1)
        for col in [] if f is None else _transposed(f)[1]:
            _insert(span, col)
        new = [c for c in H.classes(n) if _insert(span, c[1])]
        if len(new) != len(by_codeg[d]):
            raise NotPolynomialHomology(
                f"found {len(new)} new generator classes at degree {n}, "
                f"expected {len(by_codeg[d])}")
        for i, vec in zip(by_codeg[d], new):
            chosen[i] = vec
    # strict commutativity of the representatives
    for i in range(R.r):
        for j in range(i + 1, R.r):
            di, dj = -R.codegrees[i], -R.codegrees[j]
            _, ij = A.product(di, chosen[i], dj, chosen[j])
            _, ji = A.product(dj, chosen[j], di, chosen[i])
            if ij != ji:
                raise NotGradedCommutative(
                    f"representatives for generators {i} and {j} do not commute")
    # verify the homology isomorphism of the multiplicative extension
    iso = True
    for n in check_range:
        mons = R.monomials(-n)
        span = {}
        for alpha in mons:
            coords = express_in_homology(M, H, n, _monomial_image(A, R, chosen, alpha))
            if coords is None:
                raise InvariantViolation("monomial image is not a cycle")
            _insert(span, coords[1])
        if len(span) != len(mons) or H.dim(n) != len(mons):
            iso = False
    # fails closed when no degree was checked
    return FormalityResult(
        [(i, -R.codegrees[i], chosen[i]) for i in range(R.r)], iso and bool(check_range),
        Window(min(check_range), max(check_range)) if check_range else None)


def _monomial_image(A: DegreewiseDGA, R: PolyAlgebra, chosen, alpha):
    deg, vec = 0, A.unit
    for i, a in enumerate(alpha):
        for _ in range(a):
            if chosen[i] is None:
                raise NotPolynomialHomology("generator representative missing")
            deg, vec = A.product(deg, vec, -R.codegrees[i], chosen[i])
    return vec


# ---------------------------------------------------------------------------
# recognition of the residue field


@dataclass
class RecognizeResult:
    comparison: ChainMap
    images: list            # (degree, integer column) per Koszul basis element
    cone_acyclic: bool
    nonzero_in_degree_zero: bool

    @property
    def passed(self) -> bool:
        return self.cone_acyclic and self.nonzero_in_degree_zero


def recognize_k(M: DGModule) -> RecognizeResult:
    """A verified quasi-isomorphism from the Koszul model onto any module
    with one-dimensional homology in degree zero.

    Stage by stage: send the empty generator to a homology generator, then
    extend over each cone attachment by solving the nullhomotopy system for
    the next generator's images; the final comparison is certified by cone
    acyclicity on the guaranteed window.  Windowed inputs (for example the
    realized Koszul model itself) are recognized on their certified range.
    """
    R = M.algebra
    H = homology(M)
    if H.certified is None or H.dims() != {0: 1}:
        raise HomologyNotK(f"homology is {H.dims()}, not one class in degree 0")
    kb = koszul_model(R)
    subs = _subsets(R.r)
    bdeg = dict(zip(subs, kb.basis_degrees()))
    images = {(): (0, H.classes(0)[0])}
    for i in range(R.r):
        olds = [s for s in subs if all(j < i for j in s)]
        news = [tuple(sorted(s + (i,))) for s in olds]
        sys = LinearSystem()
        for T in news:
            sys.unknowns(T, M.dim(bdeg[T]), 1)
        kidx = {s: k for k, s in enumerate(subs)}
        for T in news:
            n = bdeg[T]
            # d(f(e_T)) = f(d e_T), unknowns on both sides: the images
            # already found make the known right side
            left, known = [(1, M.diff.form(n), T)], []
            for U in subs:
                p = kb.diff[kidx[U]][kidx[T]]
                if p.is_zero():
                    continue
                if U in images:
                    du, vu = images[U]
                    act, v = M._action_poly_form(p, du), _columns_form([(0, vu)], M.dim(du), 1)
                    if act is not None and v is not None:
                        known.append((_int_product(act, v), 0, 0, 1))
                else:
                    left.append((-1, M._action_poly_form(p, bdeg[U]), U))
            sys.equate(M.dim(n - 1), 1, left=left, rhs=_assemble(M.dim(n - 1), 1, known))
        sol = sys.solve()
        if sol is None:
            raise LinearSolveFailed(f"no extension over the stage-{i+1} cone")
        for T in news:
            images[T] = (bdeg[T], _block_column(sol, sys.blocks[T], 0))
    # realize the comparison, 4 degrees below both supports, and verify
    lo = min((M.support_min() or 0) - 1, min(kb.basis_degrees()) - 1) - 4
    hi = max((M.support_max() or 0), 0) + 2
    realized = to_degreewise(kb, Window(lo, hi), name="kbar")
    vectors, table = [images[s][1] for s in subs], {}
    f = ChainMap(realized, M, 0, {n: _evaluate(kb, M, vectors, n, table)
                                  for n in range(lo, hi + 1)})
    acyclic = homology(mapping_cone(f)).is_zero()
    nz = f.map.form(0) is not None
    return RecognizeResult(f, [images[s] for s in subs], acyclic, nz)
