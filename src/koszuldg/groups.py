"""Change of groups: the six functors along a cohomology ring map.

A map of groups enters as the induced map of polynomial rings, one
homogeneous image per source generator, validated by the finiteness
condition (the target must be a finitely generated module over the image
subring; the certificate records the cokernel of the image ideal
degreewise).  Restriction, extension and coextension of scalars are
degreewise exact linear algebra, coextension being the module maps from the
restricted target ring (resolve.module_hom_space); the derived dual is the dualized minimal
free resolution of the target over the source, and the upper shriek and
shift law ride on the computed certificate that the derived dual is a
shifted free rank-one target module.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .grlin import (
    GradedMap,
    MapBasis,
    Window,
    _assemble,
    _block_column,
    _columns_form,
    _cycle,
    _echelon,
    _insert,
    _int_agree,
    _int_product,
    _primitive,
)
from .algebra import (
    DGModule,
    FreeDGModule,
    InvariantViolation,
    NotTorsion,
    Poly,
    PolyAlgebra,
    _evaluate,
    _express_composites,
    _poly_terms,
    _realize,
    _summed,
    _vector_to_poly_column,
    chain_map_space,
    dg_module,
    express_in_homology,
    free_basis,
    homology,
    homology_dims,
    map_system,
    named_group,
    poly_as_module,
    to_degreewise,
    zero_module,
)
from .resolve import (
    ResolutionData,
    injective_resolution,
    is_zero_diff,
    minimal_free_resolution_fg,
    module_hom_space,
    totalize_injective_resolution,
)
from .duality import LinearSolveFailed


class NotFinite(ValueError):
    """The target is not finite over the image subring (no Venkov bound)."""


class NotFreeRankOne(ValueError):
    """The derived dual is not a shifted free rank-one target module."""


@dataclass
class FinitenessCertificate:
    """Degreewise cokernel of the image ideal inside the target ring, up to
    the codegree where it has vanished on a run as long as the largest
    target codegree.  Its basis is of target monomials: unit integer
    columns (1, {j: 1}) over the monomials of their codegree, chosen
    greedily outside the span of the ideal."""

    top_codegree: int
    coker_dims: dict          # codegree -> dimension of T/(images)
    generator_basis: list     # (codegree, unit integer column)

    @property
    def generator_count(self) -> int:
        return len(self.generator_basis)


@dataclass
class RingMap:
    """A map of Borel cohomology rings given on polynomial generators.

    images[i] is a homogeneous target polynomial of the source generator's
    codegree; the relative dimension c = dim G - dim H must be non-negative
    and the finiteness certificate is computed on construction.  A map is
    read-only after construction: catalog_ring_maps shares its maps across
    every caller in a process.
    """

    source: PolyAlgebra
    target: PolyAlgebra
    images: tuple
    name: str = ""

    def __post_init__(self):
        if len(self.images) != self.source.r:
            raise InvariantViolation(f"{len(self.images)} images for "
                                     f"{self.source.r} source generators")
        for i, p in enumerate(self.images):
            want = -self.source.codegrees[i]
            if not p.is_zero() and not p.is_homogeneous(want):
                raise InvariantViolation(
                    f"image of generator {i} is not homogeneous of degree {want}")
        if self.relative_dimension < 0:
            raise InvariantViolation("relative dimension c must be >= 0")
        self.certificate = finiteness_check(self)

    @property
    def relative_dimension(self) -> int:
        return self.source.group.dim_g - self.target.group.dim_g

    def __str__(self):
        ims = ", ".join(f"{x}->{p}" for x, p in zip(self.source.varnames, self.images))
        return self.name or f"[{ims}]"


def ring_map(source: PolyAlgebra, target: PolyAlgebra, images, name="") -> RingMap:
    return RingMap(source, target, tuple(images), name=name)


def finiteness_check(rm: RingMap) -> FinitenessCertificate:
    """Degreewise quotient by the image ideal, with a vanishing-run bound.

    The quotient algebra is generated by the target generators, so once it
    vanishes on a codegree run of length max(target codegrees) it vanishes
    above; if no such run appears inside the probe range the map is
    rejected as not finite.
    """
    S, T = rm.source, rm.target
    if T.r == 0:
        return FinitenessCertificate(0, {0: 1}, [(0, (1, {0: 1}))])
    max_e = max(T.codegrees)
    probe = sum(S.codegrees) + sum(T.codegrees) + max_e + 2
    coker_dims = {}
    gens = []
    run = 0
    top = 0
    for n in range(probe + 1):
        mons = T.monomials(n)
        # the span of the image ideal at n: mu . p as a row over the monomials
        span = {}
        idx = {m: k for k, m in enumerate(mons)}
        for i, p in enumerate(rm.images):
            for mu in T.monomials(n - S.codegrees[i]):
                _insert(span, _primitive({idx[tuple(x + y for x, y in zip(mu, a))]: c
                                          for a, c in p.terms.items()}))
        coker = len(mons) - len(span)
        coker_dims[n] = coker
        if coker:
            top = n
            run = 0
            gens += [(n, (1, {j: 1})) for j in range(len(mons)) if _insert(span, {j: 1})]
        else:
            run += 1
            if run >= max_e and n >= max_e:
                return FinitenessCertificate(top, coker_dims, gens)
    raise NotFinite(
        f"quotient by the image ideal has not vanished by codegree {probe}")


# ---------------------------------------------------------------------------
# the three underived functors


def restrict_scalars(rm: RingMap, N: DGModule, name: str = "") -> DGModule:
    """Same underlying complex, source generators acting through their
    polynomial images."""
    if N.algebra != rm.target:
        raise InvariantViolation("restrict_scalars input must live over the target")
    S = rm.source
    act_blocks = [dict() for _ in range(S.r)]
    for n in N.degrees():
        for i, p in enumerate(rm.images):
            t = n - S.codegrees[i]
            if N.known_dim(t) is None or p.is_zero():
                continue
            act_blocks[i][n] = N._action_poly_form(p, n)
    return dg_module(S, dict(N.space.dims), N.diff.forms, act_blocks,
                     N.lo, N.hi, N.complete_below, N.complete_above,
                     labels=None if N.space.labels is None else dict(N.space.labels),
                     name=name or f"res({N.name})")


def extend_scalars(rm: RingMap, M: DGModule, name: str = "") -> DGModule:
    """Target tensor source M: degreewise quotient of pairs (target
    monomial, M basis vector) by the mixed relations.

    Right exactness and completeness at the bottom are certified by a
    vanishing run of length max(target codegrees), the quotient being
    generated in the degrees of M.
    """
    if M.algebra != rm.source:
        raise InvariantViolation("extend_scalars input must live over the source")
    if not M.is_finite():
        raise NotTorsion("extend_scalars needs a finite-length module")
    S, T = rm.source, rm.target
    if M.total_dim() == 0:
        return zero_module(T, name=name)
    top = M.support_max()
    max_e = max(T.codegrees) if T.r else 1
    lo = M.support_min() - sum(S.codegrees) - 2 * max_e - 2
    hi = top
    pair_basis, index = {}, {}
    for n in range(lo, hi + 1):
        bs = []
        for md in M.degrees():
            for mu in T.monomials(md - n):
                for u in range(M.dim(md)):
                    bs.append((mu, md, u))
        pair_basis[n] = bs
        index[n] = {b: k for k, b in enumerate(bs)}
    # degree n of the quotient: the pairs outside the pivot columns of the
    # relations, and the form P_n projecting every pair onto them
    projections, complements = {}, {}
    for n in range(lo, hi + 1):
        idx = index[n]
        rows = []
        for i, p in enumerate(rm.images):
            di = S.codegrees[i]
            for md in M.degrees():
                f = M.actions[i].form(md)
                for mu in T.monomials(md - di - n):
                    prod = (Poly(T, {mu: Fraction(1)}) * p).terms
                    for u in range(M.dim(md)):
                        # (mu p) (x) m - mu (x) (x_i m)
                        row = {idx[(a, md, u)]: c for a, c in prod.items()}
                        for kk, frow in enumerate(f[1] if f else ()):
                            if u in frow:
                                row[idx[(mu, md - di, kk)]] = -Fraction(frow[u], f[0])
                        rows.append(_primitive(row))
        pivots = _echelon(rows)
        complements[n] = [j for j in range(len(idx)) if j not in pivots]
        # P_n: row j the relations' null vector that is 1 at the free pair j
        order = sorted(pivots)
        nulls = [(j, _cycle(pivots, order, j)[1]) for j in complements[n]]
        den = lcm(*[col[j] for j, col in nulls])
        projections[n] = (den, [{i: x * (den // col[j]) for i, x in col.items()}
                                for j, col in nulls], len(idx))

    dims = {n: len(complements[n]) for n in complements if complements[n]}
    labels = {n: [f"{T.monomial_label(pair_basis[n][j][0])}(x)"
                  f"{M.space.label(pair_basis[n][j][1], pair_basis[n][j][2])}"
                  for j in complements[n]] for n in dims}
    diff_blocks = {}
    act_blocks = [dict() for _ in range(T.r)]
    dden = lcm(*[f[0] for f in M.diff.forms.values()])
    for n in dims:
        free = [pair_basis[n][j] for j in complements[n]]
        # differential 1 (x) d_M, over the one denominator of d_M
        if (n - 1) in dims:
            rows = [{} for _ in index[n - 1]]
            for col, (mu, md, u) in enumerate(free):
                fden, frows, _ = M.diff.form(md) or (1, (), 0)
                for kk, frow in enumerate(frows):
                    if u in frow:
                        rows[index[n - 1][(mu, md - 1, kk)]][col] = frow[u] * (dden // fden)
            diff_blocks[n] = _int_product(projections[n - 1], (dden, rows, len(free)))
        # y_j: the monomial shift, then the projection
        for jgen in range(T.r):
            t = n - T.codegrees[jgen]
            if t not in dims:
                continue
            rows = [{} for _ in index[t]]
            for col, (mu, md, u) in enumerate(free):
                shifted = tuple(a + (k == jgen) for k, a in enumerate(mu))
                rows[index[t][(shifted, md, u)]][col] = 1
            act_blocks[jgen][n] = _int_product(projections[t], (1, rows, len(free)), True)
    # completeness at the bottom: the quotient is generated in the degrees
    # of M, so a vanishing run of length max(target codegrees) strictly
    # below the support forces vanishing below the run too
    run = 0
    complete_below = False
    floor = lo
    for n in range(lo, hi + 1):
        if dims.get(n, 0) == 0:
            run += 1
            if run >= max_e and n < (M.support_min() or 0):
                complete_below = True
                floor = n + 1
        else:
            run = 0
    if complete_below:
        for m in range(lo, floor):
            if dims.get(m, 0):
                raise InvariantViolation(
                    "extension has support below a certified vanishing run")
    return dg_module(T, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=complete_below, complete_above=True,
                     labels=labels, name=name or f"ext({M.name})")


def coextend_scalars(rm: RingMap, M: DGModule, w: Window | None = None,
                     name: str = "") -> DGModule:
    """Module maps from the target ring into M, degreewise.

    Degree t is module_hom_space(restrict_scalars(rm, Tmod), M, t) for a
    windowed copy Tmod of the target ring, whose depth makes the equations
    left out below its floor vacuous.  The differential postcomposes with
    d_M and the target generators precompose, both expressed by
    _express_composites; the support bounds from the finiteness certificate
    make the result complete on both sides for finite M.
    """
    if M.algebra != rm.source:
        raise InvariantViolation("coextend_scalars input must live over the source")
    if not M.is_torsion():
        raise NotTorsion("coextend_scalars needs a torsion module")
    S, T = rm.source, rm.target
    if M.total_dim() == 0:
        return zero_module(T, name=name)
    n_top = rm.certificate.top_codegree
    m_lo = M.support_min()
    if M.complete_above:
        t_hi = M.support_max() + n_top
    else:
        t_hi = (w.hi if w else M.hi + n_top)
    t_lo = m_lo
    if w:
        t_lo = min(t_lo, w.lo)
        t_hi = max(t_hi, w.hi) if not M.complete_above else t_hi
    maxd = max(S.codegrees) if S.r else 1
    depth = m_lo - t_hi - maxd - n_top - 4
    Tmod = poly_as_module(T, Window(depth, 0))
    res = restrict_scalars(rm, Tmod)
    solutions = {t: module_hom_space(res, M, t) for t in range(t_lo, t_hi + 1)}
    dims = {t: len(sols) for t, sols in solutions.items() if sols}
    labels = {t: [f"h{t}_{i}" for i in range(d)] for t, d in dims.items()}
    diff_blocks = {}
    act_blocks = [dict() for _ in range(T.r)]
    for t in dims:
        # differential: postcompose with d_M
        coords = _express_composites(solutions[t], M.diff.form, t,
                                      solutions.get(t - 1, MapBasis([], {})))
        if dims.get(t - 1):
            diff_blocks[t] = coords
        # target action: (y f)(tau) = f(y tau), precomposition with y_j
        for j, e in enumerate(T.codegrees):
            if t - e in dims:
                act_blocks[j][t] = _express_composites(
                    solutions[t], Tmod.actions[j].form, e, solutions[t - e], after=False)
    lo = min(dims, default=0)
    hi = max(dims, default=0)
    lo = min(lo, t_lo)
    hi = max(hi, t_hi)
    return dg_module(T, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=True, complete_above=M.complete_above,
                     labels=labels, name=name or f"coext({M.name})")


# ---------------------------------------------------------------------------
# the derived dual and the shrieks


def dual_free(F: FreeDGModule) -> FreeDGModule:
    """Dual of a finite free DG module: degrees negated, differential the
    Koszul-signed transpose."""
    R = F.algebra
    n = F.rank
    basis = tuple((f"{lab}^", -deg) for lab, deg in F.basis)
    diff = [[R.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        sgn = -1 if F.basis[i][1] % 2 else 1
        for j in range(n):
            p = F.diff[i][j]
            if not p.is_zero():
                # d(e_i^) = -(-1)^{|e_i|} sum_j D[i][j] e_j^
                diff[j][i] = diff[j][i] + p.scale(-sgn)
    return FreeDGModule(R, basis, tuple(tuple(row) for row in diff))


def total_free_module(res: ResolutionData) -> FreeDGModule:
    """The resolution as one free DG module: stage-s generators at their
    internal degree plus s, with the stage maps as the differential."""
    R = res.ring
    basis = []
    index = {}
    for s, gens in enumerate(res.terms):
        for i, (lab, b) in enumerate(gens):
            index[(s, i)] = len(basis)
            basis.append((lab, b + s))
    n = len(basis)
    diff = [[R.zero() for _ in range(n)] for _ in range(n)]
    for s, mat in enumerate(res.maps, start=1):
        for i in range(len(res.terms[s - 1])):
            for j in range(len(res.terms[s])):
                p = mat[i][j]
                if not p.is_zero():
                    diff[index[(s - 1, i)]][index[(s, j)]] = p
    return FreeDGModule(R, tuple(basis), tuple(tuple(row) for row in diff))


def realize_poly_map(F: FreeDGModule, realized: DGModule, polymat,
                     degree: int) -> GradedMap:
    """Realize a matrix over the ring as a degreewise endomorphism of
    realized = to_degreewise(F, w); entry (j, i) multiplies generator i
    into generator j, with an overall degree shift."""
    terms = _poly_terms(polymat)
    blocks = {}
    for n in range(realized.lo, realized.hi + 1):
        if realized.lo <= n + degree <= realized.hi:
            blocks[n] = _realize(terms, free_basis(F, n), free_basis(F, n + degree))
    return GradedMap(realized.space, realized.space, degree, blocks)


@dataclass
class DerivedDual:
    """The derived dual of the target ring, with its target-action lifts
    and the freeness certificate."""

    ring_map: RingMap
    resolution: ResolutionData
    total: FreeDGModule
    dual: FreeDGModule
    lifts: list              # poly matrices on total, one per target generator
    dual_lifts: list         # transposed lifts acting on the dual
    realized: DGModule
    homology_dims: dict
    generator_degree: int | None   # gamma with H(dual) ~ S^gamma(target), if certified
    free_rank_one: bool

    @property
    def shift_certificate(self) -> int:
        if not self.free_rank_one:
            raise NotFreeRankOne("derived dual is not shifted free rank one")
        return self.generator_degree


def derived_dual(rm: RingMap) -> DerivedDual:
    """Dualized minimal free resolution of the target over the source.

    Returns the dual as a free DG module over the source whose homology is
    the derived dual, together with commuting chain lifts of the target
    generators and the certificate that the homology is a shifted free
    rank-one target module (relative duality), which powers the upper
    shriek and the shift law.
    """
    S, T = rm.source, rm.target
    cert = rm.certificate
    depth_pad = 6  # degrees of slack below the resolution and the dual's homology
    depth = -(cert.top_codegree + sum(S.codegrees) + (max(S.codegrees) if S.r else 1)
              + depth_pad)
    Tmod = poly_as_module(T, Window(depth, 0), name="T")
    restricted = restrict_scalars(rm, Tmod, name="res(T)")
    res = minimal_free_resolution_fg(restricted)
    total = total_free_module(res)
    dual = dual_free(total)
    lifts = _commuting_lifts(rm, res, total, Tmod)
    dual_lifts = []
    for Y in lifts:
        n = total.rank
        Yd = [[Y[i][j] for i in range(n)] for j in range(n)]  # transpose
        dual_lifts.append(Yd)
    dim_g = rm.relative_dimension
    span = sum(S.codegrees) + sum(T.codegrees) + dim_g + depth_pad
    win = Window(-span, max(b for _, b in dual.basis) + 1)
    realized = to_degreewise(dual, win, name="D(T)")
    H = homology(realized)
    hdims = {n: d for n, d in H.dims().items()}
    gamma, free_one = _freeness_certificate(rm, dual, realized, H, dual_lifts)
    return DerivedDual(rm, res, total, dual, lifts, dual_lifts, realized,
                       hdims, gamma, free_one)


def _commuting_lifts(rm: RingMap, res: ResolutionData, total: FreeDGModule,
                     Tmod: DGModule) -> list:
    """Chain lifts of multiplication by each target generator.

    Solved one generator at a time as a linear system on the realized
    resolution: the chain and source-linearity equations of map_system,
    whose unknown blocks stop at the window floor, plus compatibility with
    the augmentation and strict commutation with the lifts already found.
    The polynomial matrices are then read off the generator columns, and
    the chain identity, the augmentation and their pairwise commutation are
    re-verified exactly.
    """
    S, T = rm.source, rm.target
    if T.r == 0:
        return []
    win = res.window
    stage0 = len(res.terms[0])
    restricted = restrict_scalars(rm, Tmod)
    bases = {n: free_basis(total, n) for n in win.degrees()}
    realized = to_degreewise(total, win, bases=bases)
    images, table = [v for _, v in res.aug_vectors] + [None] * (total.rank - stage0), dict(bases)
    aug_columns = [(n, _columns_form([(0, v)], restricted.dim(n), 1)) for n, v in res.aug_vectors]
    aug = {n: _evaluate(total, restricted, images, n, table)
           for n in win.degrees() if bases[n] and restricted.known_dim(n) is not None}
    lifts, realized_lifts = [], []
    for jgen in range(T.r):
        e = T.codegrees[jgen]
        sys, _ = map_system(realized, realized, -e, range(-1, S.r))
        # augmentation compatibility: aug_(n-e) . Y_n = (mult by y_j) . aug_n
        for n in win.degrees():
            if n in aug and n - e in aug:
                y = Tmod.actions[jgen].form(n)
                sys.equate(restricted.dim(n - e), realized.dim(n), left=[(1, aug[n - e], n)],
                           rhs=None if y is None or aug[n] is None
                           else _int_product(y, aug[n]))
        # strict commutation with the lifts already found, as map_system
        # writes its equations: where both unknown blocks are in the window
        for Z in realized_lifts:
            for n in win.degrees():
                if n - e + Z.degree >= win.lo:
                    sys.equate(realized.dim(n - e + Z.degree), realized.dim(n),
                               left=[(1, Z.form(n - e), n)],
                               right=[(-1, n + Z.degree, Z.form(n))])
        sol = sys.solve()
        if sol is None:
            raise LinearSolveFailed("no chain lift of target multiplication")
        # decode to a polynomial matrix via generator columns
        Y = [[S.zero() for _ in range(total.rank)] for _ in range(total.rank)]
        for i, (_, b) in enumerate(total.basis):
            gen_col = free_basis(total, b).index((i, (0,) * S.r))
            # no unknown block where b - e is below the window: a zero column,
            # which the exact checks below judge
            col_vec = _block_column(sol, sys.blocks[b], gen_col) if b in sys.blocks else (1, {})
            for jj, p in enumerate(_vector_to_poly_column(total, b - e, col_vec)):
                Y[jj][i] = p
        # exact verification: the decoded matrix is a chain map over the ring
        if not _poly_commute(S, total.diff, Y):
            raise LinearSolveFailed("decoded target lift fails the chain identity")
        # exact verification on the augmentation: on each stage-0 generator
        for i in range(stage0):
            gdeg, gvec = res.aug_vectors[i]
            terms = []
            for jj, (g2deg, v) in enumerate(aug_columns):
                act = restricted._action_poly_form(Y[jj][i], g2deg)
                if act is not None and v is not None:
                    terms.append((_int_product(act, v), 0, 0, 1))
            rows = restricted.dim(gdeg - e)
            lhs = _assemble(rows, 1, terms)
            rhs = _columns_form([(0, Tmod.actions[jgen].apply(gdeg, gvec))], rows, 1)
            if not _int_agree(lhs, rhs):
                raise LinearSolveFailed(
                    "decoded target lift fails augmentation compatibility")
        lifts.append(Y)
        realized_lifts.append(realize_poly_map(total, realized, Y, -e))
    for a in range(len(lifts)):
        for b in range(a + 1, len(lifts)):
            if not _poly_commute(S, lifts[a], lifts[b]):
                raise LinearSolveFailed("target generator lifts do not strictly commute")
    return lifts


def _poly_commute(S: PolyAlgebra, A, B) -> bool:
    """Whether the square polynomial matrices A and B commute, exactly."""
    n = range(len(A))
    return all(sum((A[i][k] * B[k][j] - B[i][k] * A[k][j] for k in n), S.zero()).is_zero()
               for i in n for j in n)


def _freeness_certificate(rm: RingMap, dual: FreeDGModule, realized: DGModule,
                          H, dual_lifts):
    """Certify that the homology of the derived dual is a shifted free
    rank-one target module, returning the generator degree."""
    T = rm.target
    certified = [n for n in H.certified_range()]
    support = sorted(n for n in H.dims())
    if not support:
        return None, False
    gamma = support[-1]
    if H.dims().get(gamma) != 1:
        return gamma, False
    # dimension pattern of a shifted copy of the target ring
    for n in certified:
        want = T.dim(n - gamma)
        have = H.dim(n)
        if have is None:
            continue
        if have != want:
            return gamma, False
    # cyclic generation: monomials in the lifted generators, applied to the
    # top class, span every certified degree.  Degrees are visited from the
    # top down, and only the images that raise the rank of the classes
    # reached in their degree are followed: the lifts are chain maps, so the
    # image of a class spanned by those reached is spanned by their images.
    maps = [realize_poly_map(dual, realized, dual_lifts[jgen], -T.codegrees[jgen])
            for jgen in range(T.r)]
    floor = min(certified, default=0)
    # the classes reached at each degree, as echelon rows of their coordinates
    kept = {gamma: [H.classes(gamma)[0]]}
    spans = {gamma: {0: {0: 1}}}
    for n in range(gamma, floor - 1, -1):
        for vec in kept.get(n, ()):
            for jgen in range(T.r):
                t = n - T.codegrees[jgen]
                if t < floor or not H.dim(t) or len(spans.get(t, ())) == H.dim(t):
                    continue
                img = maps[jgen].apply(n, vec)
                if not img[1]:
                    continue
                coords = express_in_homology(realized, H, t, img)
                if coords is None:
                    return gamma, False
                if _insert(spans.setdefault(t, {}), coords[1]):
                    kept.setdefault(t, []).append(img)
    for n in certified:
        if H.dim(n) and len(spans.get(n, ())) < H.dim(n):
            return gamma, False
    return gamma, True


def r_shriek_left(rm: RingMap, M: DGModule, name: str = "",
                  dd: DerivedDual | None = None) -> DGModule:
    """Derived dual tensored with M over the source: the left model of
    coextension, an honest target module via the commuting lifts."""
    if M.algebra != rm.source:
        raise InvariantViolation("r_shriek_left input must live over the source")
    if not M.is_finite():
        raise NotTorsion("r_shriek_left needs a finite-length module")
    T = rm.target
    dd = dd or derived_dual(rm)
    F = dd.dual
    if M.total_dim() == 0:
        return zero_module(T, name=name)
    degs = [b for _, b in F.basis]

    def pieces(k, g, n):
        if k != -1:
            # the lift Y_k acts on F (x) M through its entries on M
            return [(M._action_poly_form(dd.dual_lifts[k][j][i], n - bi), j, i, 1)
                    for i, bi in enumerate(degs) for j in range(len(degs))]
        out = []
        for i, bi in enumerate(degs):
            # (-1)^{b_i} e_i (x) dm, then de_i (x) m
            out.append((M.diff.form(n - bi), i, i, -1 if bi % 2 else 1))
            out += [(M._action_poly_form(F.diff[j][i], n - bi), j, i, 1)
                    for j in range(len(degs))]
        return out

    return _summed(T, M.support_min() + min(degs), M.support_max() + max(degs),
                   lambda n: [(i, [f"{F.basis[i][0]}(x){lab}" for lab in M.labels_at(n - b)])
                              for i, b in enumerate(degs)],
                   pieces, True, True, name or f"r'_!({M.name})")


def derived_coextension_dims(rm: RingMap, M: DGModule) -> dict:
    """Homology of the derived coextension: coextend the totalized injective
    resolution of a zero-differential finite-length module.

    For a target that is free over the source the underived coextension
    already computes this; in positive projective dimension the higher
    terms only appear on the resolved side, which is the form in which the
    left and right models of coextension agree.
    """
    if M.total_dim() == 0:
        return {}
    if not (M.is_finite() and is_zero_diff(M)):
        raise NotTorsion("derived coextension needs finite length, zero differential")
    pad = 4  # degrees of slack below the resolution window
    span = rm.certificate.top_codegree + sum(rm.source.codegrees) + pad
    ires = injective_resolution(M, window=Window(-(M.support_max() - M.support_min()
                                                  + span + pad), 0))
    total = totalize_injective_resolution(ires)
    stages = len(ires.stages)
    t_hi = (M.support_max() + rm.certificate.top_codegree
            + rm.relative_dimension + stages + 2)
    out = coextend_scalars(rm, total, w=Window(M.support_min() - stages - 1, t_hi))
    return homology_dims(out)


def r_upper_shriek(rm: RingMap, N: DGModule, name: str = "",
                   dd: DerivedDual | None = None) -> DGModule:
    """Maps from the derived dual into N, through the freeness certificate.

    When the derived dual is certified shifted free rank one over the
    target, maps from it are a desuspension; otherwise the computation is
    refused loudly rather than silently approximated.
    """
    if N.algebra != rm.target:
        raise InvariantViolation("r_upper_shriek input must live over the target")
    dd = dd or derived_dual(rm)
    gamma = dd.shift_certificate
    out = N.shift(-gamma)
    out.name = name or f"r^!({N.name})"
    return out


@dataclass
class ShiftLawReport:
    expected_shift: int      # c = dim G - dim H
    computed_shift: int | None
    dims_left: dict          # H(r^! N) on the window
    dims_right: dict         # H(r^* N) shifted down by c
    agrees: bool

    @property
    def passed(self) -> bool:
        return self.agrees


def shift_law_check(rm: RingMap, N: DGModule,
                    dd: DerivedDual | None = None) -> ShiftLawReport:
    """The upper shriek is the restriction desuspended by the relative
    dimension: the computed generator degree of the derived dual must equal
    dim G - dim H, and the homology dimensions must match accordingly."""
    c = rm.relative_dimension
    dd = dd or derived_dual(rm)
    gamma = dd.generator_degree if dd.free_rank_one else None
    if gamma is None:
        return ShiftLawReport(c, None, {}, {}, False)
    upper = r_upper_shriek(rm, N, dd=dd)
    restricted = restrict_scalars(rm, N)
    H_left = homology(upper)
    H_right = homology(restricted)
    dims_left, dims_right = {}, {}
    agrees = gamma == c
    for n in H_left.certified_range():
        a = H_left.dim(n)
        b = H_right.dim(n + c)
        if a is None or b is None:
            continue
        if a:
            dims_left[n] = a
        if b:
            dims_right[n] = b
        if a != b:
            agrees = False
    return ShiftLawReport(c, gamma, dims_left, dims_right, agrees)


@dataclass
class AdjunctionReport:
    extension_pair: dict     # degree -> (dim Hom_T(r_* M, N), dim Hom_S(M, r^* N))
    coextension_pair: dict   # degree -> (dim Hom_S(r^* M', N'), dim Hom_T(M', r_! N'))
    agrees: bool

    @property
    def passed(self) -> bool:
        return self.agrees


def adjunction_check(rm: RingMap, M: DGModule, N: DGModule) -> AdjunctionReport:
    """Chain-map-set dimensions for the two adjunctions, in degrees -2..2.

    M lives over the source and N over the target; the first pair compares
    maps out of the extension with maps into the restriction, the second
    compares maps out of the restriction with maps into the coextension.
    """
    degrees = range(-2, 3)
    ext = extend_scalars(rm, M)
    resN = restrict_scalars(rm, N)
    first = {}
    ok = True
    for n in degrees:
        a = len(chain_map_space(ext, N, n))
        b = len(chain_map_space(M, resN, n))
        first[n] = (a, b)
        if a != b:
            ok = False
    coext = coextend_scalars(rm, M)
    second = {}
    for n in degrees:
        a = len(chain_map_space(resN, M, n))
        b = len(chain_map_space(N, coext, n))
        second[n] = (a, b)
        if a != b:
            ok = False
    return AdjunctionReport(first, second, ok)


# ---------------------------------------------------------------------------
# the catalog of subgroup inclusions


def catalog_ring_maps() -> dict:
    """Named ring maps for the shipped subgroup pairs: a fresh dict over
    maps built once per process."""
    return dict(_catalog())


@functools.cache
def _catalog() -> dict:
    out = {}
    su2 = PolyAlgebra(named_group("SU(2)"))
    t1 = PolyAlgebra(named_group("T"), varnames=("y1",))
    out["T<SU(2)"] = RingMap(su2, t1, (t1.gen(0) * t1.gen(0),), name="T<SU(2)")
    t2 = PolyAlgebra(named_group("T^2"), varnames=("y1", "y2"))
    out["T<T^2-diag"] = RingMap(t2, t1, (t1.gen(0), t1.gen(0)), name="T<T^2-diag")
    out["T<T^2-first"] = RingMap(t2, t1, (t1.gen(0), t1.zero()), name="T<T^2-first")
    out["id-T"] = RingMap(t1, t1, (t1.gen(0),), name="id-T")
    out["id-T^2"] = RingMap(t2, t2, (t2.gen(0), t2.gen(1)), name="id-T^2")
    su3 = PolyAlgebra(named_group("SU(3)"))
    y1, y2 = t2.gen(0), t2.gen(1)
    sigma2 = (y1 * y1 + y1 * y2 + y2 * y2).scale(-1)
    sigma3 = (y1 * y1 * y2 + y1 * y2 * y2).scale(-1)
    out["T^2<SU(3)"] = RingMap(su3, t2, (sigma2, sigma3), name="T^2<SU(3)")
    return out
