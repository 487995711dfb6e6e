"""Change of groups: the six functors along a cohomology ring map.

A map of groups enters as the induced map of polynomial rings, one
homogeneous image per source generator, validated by the finiteness
condition (the target must be a finitely generated module over the image
subring; the certificate records the cokernel of the image ideal
degreewise).  Restriction, extension and coextension of scalars are
degreewise exact linear algebra; the derived dual is the dualized minimal
free resolution of the target over the source, and the upper shriek and
shift law ride on the computed certificate that the derived dual is a
shifted free rank-one target module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grlin import (
    GradedMap,
    LinearSystem,
    Subspace,
    Window,
    is_zero_matrix,
    rank,
    unit_vector,
    zeros,
)
from .algebra import (
    DGModule,
    FreeDGModule,
    InvariantViolation,
    NotTorsion,
    Poly,
    PolyAlgebra,
    chain_map_space,
    dg_module,
    homology,
    poly_as_module,
    to_degreewise,
    zero_module,
)
from .resolve import (
    ResolutionData,
    WindowTooSmall,
    free_basis,
    minimal_free_resolution_fg,
)
from .duality import LinearSolveFailed


class NotFinite(ValueError):
    """The target is not finite over the image subring (no Venkov bound)."""


class NotFreeRankOne(ValueError):
    """The derived dual is not a shifted free rank-one target module."""


@dataclass
class FinitenessCertificate:
    """Degreewise cokernel of the image ideal inside the target ring."""

    top_codegree: int
    coker_dims: dict          # codegree -> dimension of T/(images)
    generator_basis: list     # (codegree, monomial-coefficient vector)

    @property
    def generator_count(self) -> int:
        return len(self.generator_basis)


@dataclass
class RingMap:
    """A map of Borel cohomology rings given on polynomial generators.

    images[i] is a homogeneous target polynomial of the source generator's
    codegree; the relative dimension c = dim G - dim H must be non-negative
    and the finiteness certificate is computed on construction.
    """

    source: PolyAlgebra
    target: PolyAlgebra
    images: tuple
    name: str = ""

    def __post_init__(self):
        assert len(self.images) == self.source.r
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


def finiteness_check(rm: RingMap, probe: int | None = None) -> FinitenessCertificate:
    """Degreewise quotient by the image ideal, with a vanishing-run bound.

    The quotient algebra is generated by the target generators, so once it
    vanishes on a codegree run of length max(target codegrees) it vanishes
    above; if no such run appears inside the probe range the map is
    rejected as not finite.
    """
    S, T = rm.source, rm.target
    if T.r == 0:
        return FinitenessCertificate(0, {0: 1}, [(0, [Fraction(1)])])
    max_e = max(T.codegrees)
    if probe is None:
        probe = sum(S.codegrees) + sum(T.codegrees) + max_e + 2
    coker_dims = {}
    gens = []
    run = 0
    top = 0
    for n in range(probe + 1):
        mons = T.monomials(n)
        span = Subspace(len(mons))
        idx = {m: k for k, m in enumerate(mons)}
        for i, p in enumerate(rm.images):
            if p.is_zero():
                continue
            d = S.codegrees[i]
            for mu in T.monomials(n - d):
                prod = Poly(T, {mu: Fraction(1)}) * p
                vec = [Fraction(0)] * len(mons)
                for a, c in prod.terms.items():
                    vec[idx[a]] += c
                span.add(vec)
        coker = len(mons) - span.dim
        coker_dims[n] = coker
        if coker:
            top = n
            run = 0
            for v in span.complement_in([unit_vector(len(mons), j)
                                         for j in range(len(mons))]):
                gens.append((n, v))
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
            blk = N.action_poly_block(p, n)
            if not is_zero_matrix(blk):
                act_blocks[i][n] = blk
    return dg_module(S, dict(N.space.dims), dict(N.diff.blocks), act_blocks,
                     N.lo, N.hi, N.complete_below, N.complete_above,
                     labels=None if N.space.labels is None else dict(N.space.labels),
                     name=name or f"res({N.name})")


def extend_scalars(rm: RingMap, M: DGModule, w: Window | None = None,
                   name: str = "") -> DGModule:
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
    lo = w.lo if w else M.support_min() - sum(S.codegrees) - 2 * max_e - 2
    hi = top
    pair_basis = {}
    for n in range(lo, hi + 1):
        bs = []
        for md in M.degrees():
            for mu in T.monomials(md - n):
                for u in range(M.dim(md)):
                    bs.append((mu, md, u))
        pair_basis[n] = bs
    relations = {}
    complements = {}
    for n in range(lo, hi + 1):
        bs = pair_basis[n]
        idx = {b: k for k, b in enumerate(bs)}
        span = Subspace(len(bs))
        for i, p in enumerate(rm.images):
            di = S.codegrees[i]
            for md in M.degrees():
                blk = M.actions[i].block(md)
                tdeg = md - di
                for mu in T.monomials(md - di - n):
                    prod = Poly(T, {mu: Fraction(1)}) * p
                    for u in range(M.dim(md)):
                        vec = [Fraction(0)] * len(bs)
                        for a, c in prod.terms.items():
                            vec[idx[(a, md, u)]] += c
                        for kk in range(M.dim(tdeg)):
                            if blk[kk][u]:
                                vec[idx[(mu, tdeg, kk)]] -= blk[kk][u]
                        span.add(vec)
        relations[n] = span
        pivots = set(span.pivots)
        complements[n] = [j for j in range(len(bs)) if j not in pivots]

    def project(n, vec):
        span = relations[n]
        v = vec[:]
        for row, piv in zip(span.rows, span.pivots):
            if v[piv]:
                f = v[piv]
                v = [x - f * y for x, y in zip(v, row)]
        return [v[j] for j in complements[n]]

    dims = {n: len(complements[n]) for n in complements if complements[n]}
    labels = {n: [f"{T.monomial_label(pair_basis[n][j][0])}(x)"
                  f"{M.space.label(pair_basis[n][j][1], pair_basis[n][j][2])}"
                  for j in complements[n]] for n in dims}
    diff_blocks = {}
    act_blocks = [dict() for _ in range(T.r)]
    for n in dims:
        bs = pair_basis[n]
        # differential 1 (x) d_M
        if (n - 1) in dims:
            cols = []
            for j in complements[n]:
                mu, md, u = bs[j]
                dblk = M.diff.block(md)
                vec = [Fraction(0)] * len(pair_basis[n - 1])
                idx2 = {b: k for k, b in enumerate(pair_basis[n - 1])}
                for kk in range(M.dim(md - 1)):
                    if dblk[kk][u]:
                        vec[idx2[(mu, md - 1, kk)]] += dblk[kk][u]
                cols.append(project(n - 1, vec))
            m = [[cols[j][i] for j in range(len(cols))]
                 for i in range(len(complements[n - 1]))]
            if not is_zero_matrix(m):
                diff_blocks[n] = m
        for jgen in range(T.r):
            t = n - T.codegrees[jgen]
            if t not in dims:
                continue
            cols = []
            idx2 = {b: k for k, b in enumerate(pair_basis[t])}
            for j in complements[n]:
                mu, md, u = bs[j]
                mu2 = list(mu)
                mu2[jgen] += 1
                vec = [Fraction(0)] * len(pair_basis[t])
                vec[idx2[(tuple(mu2), md, u)]] = Fraction(1)
                cols.append(project(t, vec))
            m = [[cols[j][i] for j in range(len(cols))]
                 for i in range(len(complements[t]))]
            if not is_zero_matrix(m):
                act_blocks[jgen][n] = m
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

    Solved per internal degree as a linear system over a windowed copy of
    the target ring; degrees whose constraints would cross the window floor
    are never reported, and the support bounds from the finiteness
    certificate make the result complete on both sides for finite M.
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
        complete_above = True
    else:
        t_hi = (w.hi if w else M.hi + n_top)
        complete_above = False
    t_lo = m_lo
    if w:
        t_lo = min(t_lo, w.lo)
        t_hi = max(t_hi, w.hi) if not M.complete_above else t_hi
    maxd = max(S.codegrees) if S.r else 1
    depth = m_lo - t_hi - maxd - n_top - 4
    Tmod = poly_as_module(T, Window(depth, 0))
    solutions = {}
    for t in range(t_lo, t_hi + 1):
        sys = LinearSystem()
        for n in Tmod.degrees():
            md = M.known_dim(n + t)
            if md is None:
                raise WindowTooSmall(f"coextension target unknown at {n + t}")
            for rr in range(md):
                for cc in range(Tmod.dim(n)):
                    sys.var((n, rr, cc))
        for n in Tmod.degrees():
            for i, p in enumerate(rm.images):
                di = S.codegrees[i]
                if n - di < Tmod.lo:
                    # constraints below the window floor are dropped; the
                    # depth choice makes the dropped ones vacuous
                    continue
                tblk = Tmod.action_poly_block(p, n)
                mblk = M.actions[i].block(n + t)
                md2 = M.known_dim(n + t - di) or 0
                for rr in range(md2):
                    for cc in range(Tmod.dim(n)):
                        coeffs = {}
                        for kk in range(Tmod.dim(n - di)):
                            if tblk[kk][cc]:
                                key = (n - di, rr, kk)
                                coeffs[key] = coeffs.get(key, Fraction(0)) + tblk[kk][cc]
                        for kk in range(M.known_dim(n + t) or 0):
                            if mblk[rr][kk]:
                                key = (n, kk, cc)
                                coeffs[key] = coeffs.get(key, Fraction(0)) - mblk[rr][kk]
                        if coeffs:
                            sys.add_equation(coeffs)
        solutions[t] = sys.kernel()
    dims = {t: len(sols) for t, sols in solutions.items() if sols}
    labels = {t: [f"h{t}_{i}" for i in range(d)] for t, d in dims.items()}

    def express(t, comp):
        basis = solutions.get(t, [])
        if not basis:
            assert not comp, "composite escaped the solution space"
            return []
        keys = sorted({k for h in basis for k in h} | set(comp))
        mat = [[h.get(k, Fraction(0)) for h in basis] for k in keys]
        rhs = [comp.get(k, Fraction(0)) for k in keys]
        from .grlin import solve
        sol = solve(mat, rhs)
        assert sol is not None, "composite escaped the solution space"
        return sol

    diff_blocks = {}
    act_blocks = [dict() for _ in range(T.r)]
    for t in dims:
        # differential: postcompose with d_M
        if (t - 1) in dims or True:
            cols = []
            for h in solutions[t]:
                comp = {}
                for (n, rr, cc), v in h.items():
                    dblk = M.diff.block(n + t)
                    for r2 in range(M.known_dim(n + t - 1) or 0):
                        if dblk[r2][rr]:
                            key = (n, r2, cc)
                            comp[key] = comp.get(key, Fraction(0)) + dblk[r2][rr] * v
                cols.append(express(t - 1, comp))
            if dims.get(t - 1):
                m = [[cols[j][i] for j in range(len(cols))]
                     for i in range(dims[t - 1])]
                if not is_zero_matrix(m):
                    diff_blocks[t] = m
        # target action: precompose with multiplication by y_j
        for jgen in range(T.r):
            e = T.codegrees[jgen]
            if (t - e) not in dims:
                continue
            cols = []
            for h in solutions[t]:
                comp = {}
                # (y f)(tau') = f(y tau'): sum over arguments one generator up
                for (n2, rr, cc), v in h.items():
                    # n2 is the T-degree of f's argument; y*tau' lands there
                    src = n2 + e
                    if src > 0 or src < Tmod.lo:
                        continue
                    blk = Tmod.actions[jgen].block(src)
                    for c2 in range(Tmod.dim(src)):
                        if blk[cc][c2]:
                            key = (src, rr, c2)
                            comp[key] = comp.get(key, Fraction(0)) + blk[cc][c2] * v
                cols.append(express(t - e, comp))
            m = [[cols[j][i] for j in range(len(cols))]
                 for i in range(dims[t - e])]
            if not is_zero_matrix(m):
                act_blocks[jgen][t] = m
    lo = min(dims, default=0)
    hi = max(dims, default=0)
    lo = min(lo, t_lo)
    hi = max(hi, t_hi)
    return dg_module(T, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=True, complete_above=complete_above,
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


def realize_poly_map(Fsrc: FreeDGModule, Ftgt: FreeDGModule, polymat,
                     degree: int, w: Window) -> GradedMap:
    """Realize a matrix over the ring as a degreewise map of realized free
    modules; entry (j, i) multiplies generator i of the source into
    generator j of the target, with an overall degree shift."""
    src = to_degreewise(Fsrc, w)
    tgt = to_degreewise(Ftgt, w)
    blocks = {}
    for n in range(w.lo, w.hi + 1):
        if not (w.lo <= n + degree <= w.hi):
            continue
        bs = free_basis(Fsrc, n)
        ts = free_basis(Ftgt, n + degree)
        if not bs or not ts:
            continue
        idx = {ba: k for k, ba in enumerate(ts)}
        m = zeros(len(ts), len(bs))
        for col, (i, alpha) in enumerate(bs):
            for j in range(Ftgt.rank):
                p = polymat[j][i]
                for beta, c in p.terms.items():
                    key = (j, tuple(x + y for x, y in zip(alpha, beta)))
                    if key in idx:
                        m[idx[key]][col] += c
        if not is_zero_matrix(m):
            blocks[n] = m
    return GradedMap(src.space, tgt.space, degree, blocks), src, tgt


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


def derived_dual(rm: RingMap, depth_pad: int = 6) -> DerivedDual:
    """Dualized minimal free resolution of the target over the source.

    Returns the dual as a free DG module over the source whose homology is
    the derived dual, together with commuting chain lifts of the target
    generators and the certificate that the homology is a shifted free
    rank-one target module (relative duality), which powers the upper
    shriek and the shift law.
    """
    S, T = rm.source, rm.target
    cert = rm.certificate
    depth = -(cert.top_codegree + sum(S.codegrees) + (max(S.codegrees) if S.r else 1)
              + depth_pad)
    Tmod = poly_as_module(T, Window(depth, 0), name="T")
    restricted = restrict_scalars(rm, Tmod, name="res(T)")
    res = minimal_free_resolution_fg(restricted, S,
                                     margin=(max(S.codegrees) if S.r else 1))
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
    gamma, free_one = _freeness_certificate(rm, dual, realized, H, dual_lifts, win)
    return DerivedDual(rm, res, total, dual, lifts, dual_lifts, realized,
                       hdims, gamma, free_one)


def _commuting_lifts(rm: RingMap, res: ResolutionData, total: FreeDGModule,
                     Tmod: DGModule) -> list:
    """Chain lifts of multiplication by each target generator.

    Solved one generator at a time as a linear system on the realized
    resolution (chain condition, source-linearity, compatibility with the
    augmentation, and strict commutation with the lifts already found); the
    polynomial matrices are then read off the generator columns and their
    pairwise commutation re-verified exactly.
    """
    S, T = rm.source, rm.target
    if T.r == 0:
        return []
    win = res.window
    stage0 = len(res.terms[0])
    restricted = restrict_scalars(rm, Tmod)
    aug_blocks = {}
    for n in range(win.lo, win.hi + 1):
        bs = free_basis(total, n)
        if not bs or restricted.known_dim(n) is None:
            continue
        m = zeros(restricted.dim(n), len(bs))
        for col, (j, alpha) in enumerate(bs):
            if j >= stage0:
                continue
            gdeg, gvec = res.aug_vectors[j]
            blk = restricted.action_poly_block(Poly(S, {alpha: Fraction(1)}), gdeg)
            for rr in range(restricted.dim(n)):
                m[rr][col] = sum(blk[rr][kk] * gvec[kk] for kk in range(len(gvec)))
        aug_blocks[n] = m
    d_blocks = {n: _free_diff_block(total, n) for n in range(win.lo, win.hi + 1)}
    lifts = []
    for jgen in range(T.r):
        e = T.codegrees[jgen]
        sys = LinearSystem()
        for n in range(win.lo, win.hi + 1):
            src = free_basis(total, n)
            tgt = free_basis(total, n - e)
            for rr in range(len(tgt)):
                for cc in range(len(src)):
                    sys.var((n, rr, cc))
        # chain condition: d_(n-e) . Y_n = Y_(n-1) . d_n
        # (equations whose variable tiers would cross the window floor are
        # dropped; the decoded polynomial matrix is re-verified exactly)
        for n in range(win.lo + 1, win.hi + 1):
            src = free_basis(total, n)
            tgt = free_basis(total, n - e - 1)
            if not src or not tgt:
                continue
            mid1 = free_basis(total, n - 1)
            dn = d_blocks[n]
            dne = d_blocks.get(n - e, [])
            for rr in range(len(tgt)):
                for cc in range(len(src)):
                    coeffs = {}
                    for kk in range(len(free_basis(total, n - e))):
                        if dne and dne[rr][kk]:
                            key = (n, kk, cc)
                            coeffs[key] = coeffs.get(key, Fraction(0)) + dne[rr][kk]
                    for kk in range(len(mid1)):
                        if dn and dn[kk][cc]:
                            key = (n - 1, rr, kk)
                            coeffs[key] = coeffs.get(key, Fraction(0)) - dn[kk][cc]
                    if coeffs:
                        sys.add_equation(coeffs)
        # source-linearity: x_i . Y_n = Y_(n-d_i) . x_i
        for n in range(win.lo, win.hi + 1):
            src = free_basis(total, n)
            if not src:
                continue
            for i in range(S.r):
                di = S.codegrees[i]
                if n - di < win.lo:
                    continue
                tgt = free_basis(total, n - di - e)
                if not tgt:
                    continue
                xn = _free_action_block(total, i, n)
                xne = _free_action_block(total, i, n - e)
                for rr in range(len(tgt)):
                    for cc in range(len(src)):
                        coeffs = {}
                        for kk in range(len(free_basis(total, n - e))):
                            if xne[rr][kk]:
                                key = (n, kk, cc)
                                coeffs[key] = coeffs.get(key, Fraction(0)) + xne[rr][kk]
                        for kk in range(len(free_basis(total, n - di))):
                            if xn[kk][cc]:
                                key = (n - di, rr, kk)
                                coeffs[key] = coeffs.get(key, Fraction(0)) - xn[kk][cc]
                        if coeffs:
                            sys.add_equation(coeffs)
        # augmentation compatibility: aug_(n-e) . Y_n = (mult by y_j) . aug_n
        for n in range(win.lo, win.hi + 1):
            src = free_basis(total, n)
            if (not src or restricted.known_dim(n - e) is None
                    or n not in aug_blocks or (n - e) not in aug_blocks):
                continue
            aug_n = aug_blocks[n]
            aug_ne = aug_blocks[n - e]
            yblk = Tmod.actions[jgen].block(n)
            for rr in range(restricted.dim(n - e)):
                for cc in range(len(src)):
                    coeffs = {}
                    for kk in range(len(free_basis(total, n - e))):
                        if aug_ne and aug_ne[rr][kk]:
                            key = (n, kk, cc)
                            coeffs[key] = coeffs.get(key, Fraction(0)) + aug_ne[rr][kk]
                    rhs = Fraction(0)
                    for kk in range(restricted.dim(n)):
                        if yblk[rr][kk] and aug_n[kk][cc]:
                            rhs += yblk[rr][kk] * aug_n[kk][cc]
                    if coeffs or rhs:
                        sys.add_equation(coeffs, rhs=rhs)
        # strict commutation with the lifts already found
        for pidx, prev in enumerate(lifts):
            eprev = T.codegrees[pidx]
            for n in range(win.lo, win.hi + 1):
                if n - eprev < win.lo:
                    continue
                src = free_basis(total, n)
                tgt = free_basis(total, n - e - eprev)
                if not src or not tgt:
                    continue
                pn = _poly_map_block(total, total, prev, -eprev, n)
                pne = _poly_map_block(total, total, prev, -eprev, n - e)
                for rr in range(len(tgt)):
                    for cc in range(len(src)):
                        coeffs = {}
                        for kk in range(len(free_basis(total, n - eprev))):
                            if pn[kk][cc]:
                                key = (n - eprev, rr, kk)
                                coeffs[key] = coeffs.get(key, Fraction(0)) + pn[kk][cc]
                        for kk in range(len(free_basis(total, n - e))):
                            if pne[rr][kk]:
                                key = (n, kk, cc)
                                coeffs[key] = coeffs.get(key, Fraction(0)) - pne[rr][kk]
                        if coeffs:
                            sys.add_equation(coeffs)
        sol = sys.solve()
        if sol is None:
            raise LinearSolveFailed("no chain lift of target multiplication")
        # decode to a polynomial matrix via generator columns
        from .resolve import _vector_to_poly_column
        Y = [[S.zero() for _ in range(total.rank)] for _ in range(total.rank)]
        for i, (_, b) in enumerate(total.basis):
            bs = free_basis(total, b)
            gen_col = bs.index((i, (0,) * S.r))
            tgt = free_basis(total, b - e)
            col_vec = [sol.get((b, rr, gen_col), Fraction(0)) for rr in range(len(tgt))]
            for jj, p in enumerate(_vector_to_poly_column(total, b - e, col_vec)):
                Y[jj][i] = p
        # exact verification: the decoded matrix is a chain map over the ring
        D = [list(row) for row in total.diff]
        DY = _poly_mat_mul(S, D, Y)
        YD = _poly_mat_mul(S, Y, D)
        for ii in range(total.rank):
            for jj in range(total.rank):
                if not (DY[ii][jj] - YD[ii][jj]).is_zero():
                    raise LinearSolveFailed(
                        "decoded target lift fails the chain identity")
        # exact verification on the augmentation: on each stage-0 generator
        for i in range(stage0):
            gdeg, gvec = res.aug_vectors[i]
            lhs = [Fraction(0)] * restricted.dim(gdeg - e)
            for jj in range(stage0):
                p = Y[jj][i]
                if p.is_zero():
                    continue
                g2deg, g2vec = res.aug_vectors[jj]
                blk = restricted.action_poly_block(p, g2deg)
                for rr in range(len(lhs)):
                    lhs[rr] += sum(blk[rr][kk] * g2vec[kk] for kk in range(len(g2vec)))
            yblk = Tmod.actions[jgen].block(gdeg)
            rhs = [sum(yblk[rr][kk] * gvec[kk] for kk in range(len(gvec)))
                   for rr in range(restricted.dim(gdeg - e))]
            if lhs != rhs:
                raise LinearSolveFailed(
                    "decoded target lift fails augmentation compatibility")
        lifts.append(Y)
    for a in range(len(lifts)):
        for b in range(a + 1, len(lifts)):
            ab = _poly_mat_mul(S, lifts[a], lifts[b])
            ba = _poly_mat_mul(S, lifts[b], lifts[a])
            for i in range(total.rank):
                for j in range(total.rank):
                    if not (ab[i][j] - ba[i][j]).is_zero():
                        raise LinearSolveFailed(
                            "target generator lifts do not strictly commute")
    return lifts


def _free_action_block(F: FreeDGModule, i: int, n: int):
    """Intrinsic block of the generator action on a free module's basis."""
    R = F.algebra
    bs = free_basis(F, n)
    ts = free_basis(F, n - R.codegrees[i])
    idx = {ba: k for k, ba in enumerate(ts)}
    m = zeros(len(ts), len(bs))
    for col, (j, alpha) in enumerate(bs):
        a2 = list(alpha)
        a2[i] += 1
        m[idx[(j, tuple(a2))]][col] = Fraction(1)
    return m


def _poly_map_block(Fsrc: FreeDGModule, Ftgt: FreeDGModule, polymat,
                    degree: int, n: int):
    """Intrinsic degree-n block of a polynomial matrix map of free modules."""
    bs = free_basis(Fsrc, n)
    ts = free_basis(Ftgt, n + degree)
    idx = {ba: k for k, ba in enumerate(ts)}
    m = zeros(len(ts), len(bs))
    for col, (i, alpha) in enumerate(bs):
        for j in range(Ftgt.rank):
            p = polymat[j][i]
            for beta, c in p.terms.items():
                key = (j, tuple(x + y for x, y in zip(alpha, beta)))
                if key in idx:
                    m[idx[key]][col] += c
    return m


def _free_diff_block(F: FreeDGModule, n: int):
    bs = free_basis(F, n)
    ts = free_basis(F, n - 1)
    if not bs or not ts:
        return []
    idx = {ba: k for k, ba in enumerate(ts)}
    m = zeros(len(ts), len(bs))
    for col, (j, alpha) in enumerate(bs):
        for i in range(F.rank):
            p = F.diff[i][j]
            for beta, c in p.terms.items():
                key = (i, tuple(x + y for x, y in zip(alpha, beta)))
                if key in idx:
                    m[idx[key]][col] += c
    return m


def _poly_mat_mul(S: PolyAlgebra, A, B):
    n = len(A)
    out = [[S.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = S.zero()
            for k in range(n):
                acc = acc + A[i][k] * B[k][j]
            out[i][j] = acc
    return out


def _freeness_certificate(rm: RingMap, dual: FreeDGModule, realized: DGModule,
                          H, dual_lifts, win: Window):
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
    # top class, span every certified degree
    from .algebra import express_in_homology
    maps = []
    for jgen in range(T.r):
        gm, src, tgt = realize_poly_map(dual, dual, dual_lifts[jgen],
                                        -T.codegrees[jgen], win)
        maps.append(gm)
    top_rep = H.representatives(gamma)[0]
    spanned = {gamma: [ [Fraction(1)] ]}
    frontier = [(gamma, top_rep)]
    reach = {gamma: [top_rep]}
    for _ in range(2 * (win.hi - win.lo)):
        new_frontier = []
        for (n, vec) in frontier:
            for jgen in range(T.r):
                t = n - T.codegrees[jgen]
                if t < min(certified, default=0):
                    continue
                img = maps[jgen].apply(n, vec)
                if not img or all(x == 0 for x in img):
                    continue
                reach.setdefault(t, []).append(img)
                new_frontier.append((t, img))
        if not new_frontier:
            break
        frontier = new_frontier
    for n in certified:
        want = H.dim(n)
        if not want:
            continue
        vecs = []
        for v in reach.get(n, []):
            coords = express_in_homology(realized, H, n, v)
            if coords is None:
                return gamma, False
            vecs.append(coords)
        if not vecs or rank(vecs) < want:
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
    S, T = rm.source, rm.target
    dd = dd or derived_dual(rm)
    F = dd.dual
    if M.total_dim() == 0:
        return zero_module(T, name=name)
    degs = [b for _, b in F.basis]
    lo = M.support_min() + min(degs)
    hi = M.support_max() + max(degs)
    dims, labels, offsets = {}, {}, {}
    for n in range(lo, hi + 1):
        offs, total = [], 0
        for i, b in enumerate(degs):
            offs.append(total)
            total += M.dim(n - b)
        offsets[n] = offs
        if total:
            dims[n] = total
            labels[n] = [f"{F.basis[i][0]}(x){lab}"
                         for i, b in enumerate(degs)
                         for lab in M.labels_at(n - b)]
    diff_blocks = {}
    for n in dims:
        if (n - 1) not in dims:
            continue
        m = zeros(dims[n - 1], dims[n])
        for i, bi in enumerate(degs):
            # (-1)^{b_i} e_i (x) dm
            sgn = -1 if bi % 2 else 1
            dblk = M.diff.block(n - bi)
            for rr in range(M.dim(n - 1 - bi)):
                for cc in range(M.dim(n - bi)):
                    if dblk[rr][cc]:
                        m[offsets[n - 1][i] + rr][offsets[n][i] + cc] += sgn * dblk[rr][cc]
            # de_i (x) m
            for j, bj in enumerate(degs):
                p = F.diff[j][i]
                if p.is_zero():
                    continue
                act = M.action_poly_block(p, n - bi)
                for rr in range(M.dim(n - 1 - bj)):
                    for cc in range(M.dim(n - bi)):
                        if act[rr][cc]:
                            m[offsets[n - 1][j] + rr][offsets[n][i] + cc] += act[rr][cc]
        if not is_zero_matrix(m):
            diff_blocks[n] = m
    act_blocks = [dict() for _ in range(T.r)]
    for n in dims:
        for jgen in range(T.r):
            t = n - T.codegrees[jgen]
            if t not in dims:
                continue
            Y = dd.dual_lifts[jgen]
            m = zeros(dims[t], dims[n])
            for i, bi in enumerate(degs):
                for j, bj in enumerate(degs):
                    p = Y[j][i]
                    if p.is_zero():
                        continue
                    act = M.action_poly_block(p, n - bi)
                    for rr in range(M.dim(t - bj)):
                        for cc in range(M.dim(n - bi)):
                            if act[rr][cc]:
                                m[offsets[t][j] + rr][offsets[n][i] + cc] += act[rr][cc]
            if not is_zero_matrix(m):
                act_blocks[jgen][n] = m
    return dg_module(T, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=True, complete_above=True,
                     labels=labels, name=name or f"r'_!({M.name})")


def derived_coextension_dims(rm: RingMap, M: DGModule, pad: int = 4) -> dict:
    """Homology of the derived coextension: coextend the totalized injective
    resolution of a zero-differential finite-length module.

    For a target that is free over the source the underived coextension
    already computes this; in positive projective dimension the higher
    terms only appear on the resolved side, which is the form in which the
    left and right models of coextension agree.
    """
    from .resolve import injective_resolution, is_zero_diff, totalize_injective_resolution
    if M.total_dim() == 0:
        return {}
    if not (M.is_finite() and is_zero_diff(M)):
        raise NotTorsion("derived coextension needs finite length, zero differential")
    span = rm.certificate.top_codegree + sum(rm.source.codegrees) + pad
    ires = injective_resolution(M, window=Window(-(M.support_max() - M.support_min()
                                                  + span + pad), 0))
    total = totalize_injective_resolution(ires)
    stages = len(ires.stages)
    t_hi = (M.support_max() + rm.certificate.top_codegree
            + rm.relative_dimension + stages + 2)
    out = coextend_scalars(rm, total, w=Window(M.support_min() - stages - 1, t_hi))
    from .algebra import homology_dims
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


def adjunction_check(rm: RingMap, M: DGModule, N: DGModule,
                     degrees=range(-2, 3)) -> AdjunctionReport:
    """Chain-map-set dimensions for the two adjunctions, degree by degree.

    M lives over the source and N over the target; the first pair compares
    maps out of the extension with maps into the restriction, the second
    compares maps out of the restriction with maps into the coextension.
    """
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
    """Named ring maps for the shipped subgroup pairs."""
    from .algebra import named_group
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
