"""Resolutions and derived functors by degreewise exact linear algebra.

Minimal free resolutions are found syzygy-by-syzygy with plain kernel
computations; no Groebner machinery is needed because every graded piece is
finite-dimensional.  The generator degrees of each syzygy stage are known in
advance from an independent finite computation (homology of the module
tensored with the exterior Koszul complex), which both sizes the windows and
cross-checks the construction.  Injective resolutions are graded duals of
free ones; Ext is computed along both routes as mutual oracles; derived Hom
uses a semifree replacement built by killing cone homology from the top.
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
    kernel_basis,
    mat_mul,
    rank,
    transpose,
    unit_vector,
    zeros,
)
from .algebra import (
    ChainMap,
    UnboundedInput,
    DGModule,
    FreeDGModule,
    InvariantViolation,
    Poly,
    PolyAlgebra,
    dg_module,
    double_dual_comparison,
    free_module,
    hom_R,
    homology,
    matlis_dual,
    mapping_cone,
    to_degreewise,
    zero_module,
)


class NotFiniteLength(ValueError):
    """Resolution input must be a finite-length module."""


class WindowTooSmall(ValueError):
    """A syzygy or homology search ran outside its certified window."""


# ---------------------------------------------------------------------------
# Betti numbers through the exterior Koszul complex


def tor_betti(M: DGModule, R: PolyAlgebra) -> dict:
    """Graded Betti numbers {s: {degree: multiplicity}} of a zero-differential
    module, from the homology of M (x) Koszul.

    The complex in word-length s and internal degree t is spanned by
    m (x) e_S with |S| = s and |m| = t + sum of d_i over S; its differential
    contracts e_S against the action.  This is a finite computation for
    finite-length M and the single source of truth for syzygy degrees.
    """
    if not is_zero_diff(M):
        raise NotFiniteLength("betti numbers need a zero-differential module")
    degs = M.degrees()
    if not degs:
        return {}
    subs = _subsets_by_size(R.r)
    total = sum(R.codegrees)
    if M.is_finite():
        t_lo, t_hi = degs[0] - total, degs[-1]
    else:
        t_lo = M.lo
        t_hi = M.hi if M.complete_above else M.hi - total
        if t_lo > t_hi:
            raise WindowTooSmall("window too shallow for betti computation")
    betti = {}
    for t in range(t_lo, t_hi + 1):
        bases = {}
        for s, subsets in enumerate(subs):
            bs = []
            for S in subsets:
                m_deg = t + sum(R.codegrees[i] for i in S)
                for u in range(M.dim(m_deg)):
                    bs.append((S, u))
            bases[s] = bs
        mats = {}
        for s in range(1, R.r + 1):
            src, tgt = bases[s], bases[s - 1]
            idx = {b: k for k, b in enumerate(tgt)}
            m = zeros(len(tgt), len(src))
            for col, (S, u) in enumerate(src):
                m_deg = t + sum(R.codegrees[i] for i in S)
                for pos, i in enumerate(S):
                    sgn = -1 if pos % 2 else 1
                    S2 = tuple(j for j in S if j != i)
                    blk = M.actions[i].block(m_deg)
                    for rr in range(M.dim(m_deg - R.codegrees[i])):
                        if blk[rr][u]:
                            m[idx[(S2, rr)]][col] += sgn * blk[rr][u]
            mats[s] = m
        for s in range(R.r + 1):
            dim_s = len(bases[s])
            if dim_s == 0:
                continue
            out = mats.get(s)
            into = mats.get(s + 1)
            cyc = dim_s - rank(out) if out is not None else dim_s
            bnd = rank(into) if into is not None else 0
            h = cyc - bnd
            if h:
                betti.setdefault(s, {})[t] = h
    return betti


def _subsets_by_size(r: int) -> list:
    import itertools
    return [list(itertools.combinations(range(r), k)) for k in range(r + 1)]


def is_zero_diff(M: DGModule) -> bool:
    return all(is_zero_matrix(b) for b in M.diff.blocks.values())


# ---------------------------------------------------------------------------
# free resolutions


@dataclass
class ResolutionData:
    """A minimal free resolution with both symbolic and realized layers.

    terms[s] is the generator list of F_s; maps[s] (s >= 1) the Poly matrix
    of F_s -> F_(s-1); aug sends the F_0 generators to module elements.
    Realized stages and maps live on the construction window.
    """

    kind: str
    ring: PolyAlgebra
    module: DGModule
    terms: list
    maps: list
    aug_vectors: list
    window: Window
    realized: list
    realized_maps: list
    realized_aug: GradedMap
    betti_oracle: dict

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def betti_numbers(self) -> dict:
        out = {}
        for s, gens in enumerate(self.terms):
            row = {}
            for _, b in gens:
                row[b] = row.get(b, 0) + 1
            out[s] = row
        return out

    def free_stage(self, s: int) -> FreeDGModule:
        return free_module(self.ring, self.terms[s])


def free_basis(F: FreeDGModule, n: int) -> list:
    """Degree-n basis of a realized free module: (j, alpha), (j, lex) order."""
    R = F.algebra
    out = []
    for j, (_, bj) in enumerate(F.basis):
        for alpha in R.monomials(bj - n):
            out.append((j, alpha))
    return out


def _vector_to_poly_column(F: FreeDGModule, n: int, v) -> list:
    """Decode a realized degree-n vector into one Poly per free generator."""
    R = F.algebra
    cols = [R.zero() for _ in range(F.rank)]
    for (j, alpha), c in zip(free_basis(F, n), v):
        if c:
            cols[j] = cols[j] + Poly(R, {alpha: c})
    return cols


def minimal_free_resolution(M: DGModule, R: PolyAlgebra | None = None,
                            window: Window | None = None) -> ResolutionData:
    """Minimal free resolution of a finite-length zero-differential module.

    Generators of each stage are the degreewise complement of m-multiples in
    the kernel of the previous map, swept top-down; the stage's generator
    degrees must agree with the Betti oracle, exactness and minimality are
    checked afterwards, and the resolution always terminates within r steps.
    """
    R = R or M.algebra
    if not (M.is_finite() and is_zero_diff(M)):
        raise NotFiniteLength("minimal_free_resolution needs finite length, zero differential")
    betti = tor_betti(M, R)
    return _resolve_with_betti(M, R, betti, window)


def minimal_free_resolution_fg(M: DGModule, R: PolyAlgebra,
                               window: Window | None = None,
                               margin: int = 0) -> ResolutionData:
    """Resolution engine for finitely generated windowed modules.

    The caller is responsible for a window deep enough that the Betti
    support sits inside the certified range; a margin of vanishing internal
    degrees below the observed support is required as a loud certificate.
    """
    if not is_zero_diff(M):
        raise NotFiniteLength("resolution needs a zero-differential module")
    betti = tor_betti(M, R)
    if betti and not M.is_finite():
        b_min = min(t for row in betti.values() for t in row)
        total = sum(R.codegrees)
        if b_min - margin < M.lo + 1:
            raise WindowTooSmall(
                f"betti support reaches {b_min}, window floor {M.lo} leaves no margin")
    return _resolve_with_betti(M, R, betti, window)


def _resolve_with_betti(M: DGModule, R: PolyAlgebra, betti: dict,
                        window: Window | None) -> ResolutionData:
    if not betti:
        z = zero_module(R)
        empty = GradedMap(z.space, M.space, 0, {})
        return ResolutionData("free", R, M, [[]], [], [], Window(0, 0),
                              [z], [], empty, betti)
    max_d = max(R.codegrees) if R.r else 1
    b_min = min(t for row in betti.values() for t in row)
    b_max = max(t for row in betti.values() for t in row)
    lo = b_min - max_d - 1
    hi = max(b_max, M.hi) + 1
    if window is not None:
        lo, hi = min(lo, window.lo), max(hi, window.hi)
    win = Window(lo, hi)

    # stage 0: generators of M / m M
    gens0 = []
    for n in sorted(betti.get(0, {}), reverse=True):
        want = betti[0][n]
        span = Subspace(M.dim(n))
        for i in range(R.r):
            blk = M.actions[i].block(n + R.codegrees[i])
            for col in transpose(blk):
                span.add(col)
        new = span.complement_in([unit_vector(M.dim(n), j) for j in range(M.dim(n))])
        if len(new) != want:
            raise WindowTooSmall(
                f"stage 0 found {len(new)} generators at degree {n}, oracle says {want}")
        for v in new:
            gens0.append((f"g0_{len(gens0)}", n, v))
    terms = [[(lab, n) for lab, n, _ in gens0]]
    aug_vectors = [(n, v) for _, n, v in gens0]
    F0 = free_module(R, terms[0])
    F0_real = to_degreewise(F0, win, name="F0")
    aug_blocks = {}
    for n in range(win.lo, win.hi + 1):
        bs = free_basis(F0, n)
        if not bs or M.known_dim(n) is None:
            continue
        m = zeros(M.dim(n), len(bs))
        for col, (j, alpha) in enumerate(bs):
            gdeg, gvec = aug_vectors[j]
            p = Poly(R, {alpha: Fraction(1)})
            blk = M.action_poly_block(p, gdeg)
            for rr in range(M.dim(n)):
                if blk[rr]:
                    m[rr][col] += sum(blk[rr][kk] * gvec[kk] for kk in range(len(gvec)))
        if not is_zero_matrix(m):
            aug_blocks[n] = m
    realized = [F0_real]
    realized_aug = GradedMap(F0_real.space, M.space, 0, aug_blocks)

    maps, realized_maps = [], []
    prev_free, prev_real, prev_map = F0, F0_real, realized_aug
    s = 1
    while betti.get(s):
        expected = betti[s]
        top = max(b for _, b in prev_free.basis)
        sweep_lo = min(expected)
        kernels = {}
        new_gens = []
        for n in range(top, sweep_lo - 1, -1):
            blk = prev_map.block(n)
            dim_n = len(free_basis(prev_free, n))
            kernels[n] = kernel_basis(blk, cols=dim_n) if dim_n else []
            span = Subspace(dim_n)
            for i in range(R.r):
                src = kernels.get(n + R.codegrees[i], [])
                act = prev_real.actions[i].block(n + R.codegrees[i])
                for v in src:
                    span.add([sum(row[kk] * v[kk] for kk in range(len(v)))
                              for row in act])
            new = span.complement_in(kernels[n])
            want = expected.get(n, 0)
            if len(new) != want:
                raise WindowTooSmall(
                    f"stage {s} found {len(new)} generators at degree {n}, oracle says {want}")
            for v in new:
                new_gens.append((n, v))
        gen_list = [(f"g{s}_{i}", n) for i, (n, _) in enumerate(new_gens)]
        poly_matrix = [[R.zero() for _ in new_gens] for _ in range(prev_free.rank)]
        for col, (n, v) in enumerate(new_gens):
            for row, p in enumerate(_vector_to_poly_column(prev_free, n, v)):
                poly_matrix[row][col] = p
        terms.append(gen_list)
        maps.append(poly_matrix)
        F_s = free_module(R, gen_list)
        F_s_real = to_degreewise(F_s, win, name=f"F{s}")
        blocks = {}
        for n in range(win.lo, win.hi + 1):
            bs = free_basis(F_s, n)
            tb = free_basis(prev_free, n)
            if not bs or not tb:
                continue
            idx = {ba: k for k, ba in enumerate(tb)}
            m = zeros(len(tb), len(bs))
            for col, (j, alpha) in enumerate(bs):
                for i in range(prev_free.rank):
                    p = poly_matrix[i][j]
                    for beta, c in p.terms.items():
                        m[idx[(i, tuple(x + y for x, y in zip(alpha, beta)))]][col] += c
            if not is_zero_matrix(m):
                blocks[n] = m
        realized.append(F_s_real)
        realized_maps.append(GradedMap(F_s_real.space, prev_real.space, 0, blocks))
        prev_free, prev_real, prev_map = F_s, F_s_real, realized_maps[-1]
        s += 1
        if s > R.r + 1:
            raise InvariantViolation("resolution exceeded the rank bound")

    res = ResolutionData("free", R, M, terms, maps, aug_vectors, win,
                         realized, realized_maps, realized_aug, betti)
    _certify_free_resolution(res)
    return res


def _certify_free_resolution(res: ResolutionData):
    """Minimality, exactness in the window, and the rank bound."""
    R = res.ring
    if res.length > R.r:
        raise InvariantViolation("resolution longer than the number of generators")
    for mat in res.maps:
        for row in mat:
            for p in row:
                if p.constant_term():
                    raise InvariantViolation("resolution is not minimal (unit entry)")
    M = res.module
    lo = res.window.lo + (max(R.codegrees) if R.r else 1)
    if not M.complete_below:
        lo = max(lo, M.lo + 1)
    hi = res.window.hi - 1
    chain = [res.realized_aug] + res.realized_maps
    for s in range(1, len(chain)):
        out_map, in_map = chain[s - 1], chain[s]
        for n in range(lo, hi + 1):
            blk_out = out_map.block(n)
            cols = res.realized[s - 1].dim(n)
            ker = cols - rank(blk_out) if cols else 0
            img = rank(in_map.block(n))
            if ker != img:
                raise InvariantViolation(
                    f"resolution not exact at stage {s - 1}, degree {n}")
    # surjectivity of the augmentation and injectivity of the last map
    for n in range(lo, hi + 1):
        if M.known_dim(n):
            if rank(res.realized_aug.block(n)) != M.dim(n):
                raise InvariantViolation(f"augmentation not onto at degree {n}")
    if res.realized_maps:
        last = res.realized_maps[-1]
        F_last = res.realized[-1]
        for n in range(lo, hi + 1):
            cols = F_last.dim(n)
            if cols and rank(last.block(n)) != cols:
                raise InvariantViolation(f"last syzygy map not injective at degree {n}")


def hilbert_function(M: DGModule, degrees) -> dict:
    """Degreewise dimensions over an iterable of degrees."""
    return {n: M.dim(n) for n in degrees}


def hilbert_identity_check(res: ResolutionData, degrees=None) -> bool:
    """Alternating sum of stage Hilbert functions equals the module's."""
    if degrees is None:
        pad = max(res.ring.codegrees) if res.ring.r else 1
        degrees = range(res.window.lo + pad, res.window.hi)
    for n in degrees:
        if res.module.known_dim(n) is None:
            continue
        total = sum((-1) ** s * stage.dim(n)
                    for s, stage in enumerate(res.realized))
        if total != res.module.dim(n):
            return False
    return True


# ---------------------------------------------------------------------------
# injective resolutions


@dataclass
class InjectiveResolutionData:
    """Realized injective resolution: N -> J_0 -> J_1 -> ..., terms are
    finite sums of shifted copies of the basic injective."""

    kind: str
    ring: PolyAlgebra
    module: DGModule
    shifts: list        # shifts[s] = list of suspension degrees of I
    stages: list        # realized DGModules
    maps: list          # GradedMap J_(s-1) -> J_s
    aug: GradedMap      # N -> J_0
    window: Window
    dual_resolution: ResolutionData

    @property
    def length(self) -> int:
        return len(self.stages) - 1


def injective_resolution(M: DGModule, window: Window | None = None) -> InjectiveResolutionData:
    """Injective resolution by dualizing the free resolution of the dual.

    Terms are graded duals of free stages, i.e. sums of shifted copies of
    the basic injective; length is bounded by the rank.
    """
    R = M.algebra
    if not (M.is_finite() and is_zero_diff(M)):
        raise NotFiniteLength("injective_resolution needs finite length, zero differential")
    D = matlis_dual(M)
    res = minimal_free_resolution(D, R, window=window)
    stages = [matlis_dual(F, name=f"J{s}") for s, F in enumerate(res.realized)]
    shifts = [[-b for _, b in gens] for gens in res.terms]
    maps = []
    chain = [res.realized_aug] + res.realized_maps
    # dual of phi_s: F_s -> F_(s-1) gives J_(s-1) -> J_s
    for s in range(1, len(chain)):
        phi = chain[s]
        blocks = {}
        for n in range(stages[s - 1].lo, stages[s - 1].hi + 1):
            blk = phi.block(-n)
            m = transpose(blk)
            if not is_zero_matrix(m):
                blocks[n] = m
        maps.append(GradedMap(stages[s - 1].space, stages[s].space, 0, blocks))
    # augmentation M -> J_0 through the double dual
    dd = double_dual_comparison(M)
    aug_blocks = {}
    for n in M.degrees():
        dual_aug = transpose(res.realized_aug.block(-n))
        m = mat_mul(dual_aug, dd.block(n))
        if not is_zero_matrix(m):
            aug_blocks[n] = m
    aug = GradedMap(M.space, stages[0].space, 0, aug_blocks)
    out = InjectiveResolutionData("injective", R, M, shifts, stages, maps,
                                  aug, res.window, res)
    _certify_injective_resolution(out)
    return out


def _certify_injective_resolution(res: InjectiveResolutionData):
    """Exactness of 0 -> N -> J_0 -> ... -> J_len -> 0 on the dual of the
    free resolution's certified range."""
    R = res.ring
    if res.length > R.r:
        raise InvariantViolation("injective resolution longer than the rank")
    lo = -(res.window.hi - 1)
    hi = -(res.window.lo + (max(R.codegrees) if R.r else 1))
    chain = [res.aug] + res.maps  # chain[s]: spaces[s] -> spaces[s+1]
    spaces = [res.module] + res.stages
    for s, mp in enumerate(chain):
        for n in range(lo, hi + 1):
            cols = spaces[s].dim(n)
            ker = cols - rank(mp.block(n)) if cols else 0
            if s == 0:
                if ker:
                    raise InvariantViolation(f"augmentation not injective at degree {n}")
            else:
                img = rank(chain[s - 1].block(n))
                if ker != img:
                    raise InvariantViolation(
                        f"injective resolution not exact at stage {s - 1}, degree {n}")
    last = chain[-1]
    J_last = spaces[-1]
    for n in range(lo, hi + 1):
        if J_last.dim(n) and rank(last.block(n)) != J_last.dim(n):
            raise InvariantViolation(f"last injective map not onto at degree {n}")


# ---------------------------------------------------------------------------
# bigraded Ext


@dataclass
class BigradedTable:
    """Dimensions keyed by (homological row s, internal degree t); a class
    in (s, t) lands in abutment degree n = t - s."""

    entries: dict

    def dim(self, s: int, t: int) -> int:
        return self.entries.get((s, t), 0)

    def max_row(self) -> int:
        return max((s for (s, _), d in self.entries.items() if d), default=-1)

    def rows(self) -> dict:
        out = {}
        for (s, t), d in self.entries.items():
            if d:
                out.setdefault(s, {})[t] = d
        return out

    def abutment_dims(self) -> dict:
        """Total dimension contributed to each degree n = t - s."""
        out = {}
        for (s, t), d in self.entries.items():
            if d:
                n = t - s
                out[n] = out.get(n, 0) + d
        return out

    def euler_characteristic(self) -> dict:
        out = {}
        for (s, t), d in self.entries.items():
            if d:
                n = t - s
                out[n] = out.get(n, 0) + (-1) ** s * d
        return out

    def total_dim(self) -> int:
        return sum(self.entries.values())

    def __eq__(self, other):
        a = {k: v for k, v in self.entries.items() if v}
        b = {k: v for k, v in other.entries.items() if v}
        return a == b


def ext_bigraded(M: DGModule, N: DGModule, route: str = "via_free",
                 window: Window | None = None) -> BigradedTable:
    """Bigraded Ext of finite-length zero-differential modules.

    via_free resolves M and applies Hom(-, N); via_injective resolves N
    injectively and applies Hom(M, -).  The two implementations share no
    code past the resolution engines and are used as mutual oracles.
    """
    for X in (M, N):
        if not (X.is_finite() and is_zero_diff(X)):
            raise NotFiniteLength("ext_bigraded needs finite-length modules")
    if M.total_dim() == 0 or N.total_dim() == 0:
        return BigradedTable({})
    if route == "via_free":
        return _ext_via_free(M, N, window)
    if route == "via_injective":
        return _ext_via_injective(M, N, window)
    raise ValueError(f"unknown route {route!r}")


def _ext_via_free(M: DGModule, N: DGModule, window) -> BigradedTable:
    R = M.algebra
    res = minimal_free_resolution(M, R, window=window)
    stages = len(res.terms)
    # candidate internal degrees
    ts = set()
    for gens in res.terms:
        for _, b in gens:
            for n in N.degrees():
                ts.add(n - b)
    entries = {}
    for t in sorted(ts):
        dims = []
        for s in range(stages):
            dims.append(sum(N.dim(b + t) for _, b in res.terms[s]))
        mats = []
        for s in range(stages - 1):
            mats.append(_ext_connecting_free(res, s, t, N))
        for s in range(stages):
            if dims[s] == 0:
                continue
            out = mats[s] if s < stages - 1 else None
            into = mats[s - 1] if s >= 1 else None
            cyc = dims[s] - rank(out) if out is not None else dims[s]
            bnd = rank(into) if into is not None else 0
            h = cyc - bnd
            if h:
                entries[(s, t)] = h
    return BigradedTable(entries)


def _ext_connecting_free(res: ResolutionData, s: int, t: int, N: DGModule):
    """Matrix of Hom(F_s, N)_t -> Hom(F_(s+1), N)_t, precomposition."""
    src_gens = res.terms[s]
    tgt_gens = res.terms[s + 1]
    src_offs, src_total = [], 0
    for _, b in src_gens:
        src_offs.append(src_total)
        src_total += N.dim(b + t)
    tgt_offs, tgt_total = [], 0
    for _, b in tgt_gens:
        tgt_offs.append(tgt_total)
        tgt_total += N.dim(b + t)
    m = zeros(tgt_total, src_total)
    P = res.maps[s]
    for jj, (_, bj) in enumerate(tgt_gens):
        for ii, (_, bi) in enumerate(src_gens):
            p = P[ii][jj]
            if p.is_zero():
                continue
            act = N.action_poly_block(p, bi + t)
            for rr in range(N.dim(bj + t)):
                for cc in range(N.dim(bi + t)):
                    if act[rr][cc]:
                        m[tgt_offs[jj] + rr][src_offs[ii] + cc] += act[rr][cc]
    return m


def module_hom_space(M: DGModule, J: DGModule, t: int) -> list:
    """Basis of degree-t module homomorphisms M -> J (zero differentials).

    Unknown blocks per degree, constrained to commute with every generator
    action; returns a list of {(n, row, col): value} dicts.
    """
    sys = LinearSystem()
    for n in M.degrees():
        jd = J.known_dim(n + t)
        if jd is None:
            raise WindowTooSmall(f"hom target not certified at degree {n + t}")
        for rr in range(jd):
            for cc in range(M.dim(n)):
                sys.var((n, rr, cc))
    gens = M.generator_degrees()
    for n in M.degrees():
        for i, g in enumerate(gens):
            src_dim = M.dim(n)
            mid = M.dim(n + g)
            tgt = J.known_dim(n + g + t)
            if tgt is None:
                raise WindowTooSmall(f"hom target not certified at degree {n + g + t}")
            if not src_dim or not tgt:
                continue
            mblk = M.actions[i].block(n)
            jblk = J.actions[i].block(n + t)
            jsrc = J.known_dim(n + t) or 0
            # phi_{n+g} . x_i = x_i . phi_n
            for rr in range(tgt):
                for cc in range(src_dim):
                    coeffs = {}
                    for kk in range(mid):
                        if mblk[kk][cc]:
                            coeffs[(n + g, rr, kk)] = coeffs.get((n + g, rr, kk), 0) + mblk[kk][cc]
                    for kk in range(jsrc):
                        if jblk[rr][kk]:
                            coeffs[(n, kk, cc)] = coeffs.get((n, kk, cc), 0) - jblk[rr][kk]
                    if coeffs:
                        sys.add_equation(coeffs)
    return sys.kernel()


def _ext_via_injective(M: DGModule, N: DGModule, window) -> BigradedTable:
    R = M.algebra
    # a-priori internal-degree bound: syzygy generators of either module sit
    # within the total codegree of a full Koszul word of its support
    total = sum(R.codegrees)
    t_lo = N.support_min() - M.support_max() - total
    t_hi = N.support_max() - M.support_min() + total
    ts = range(t_lo, t_hi + 1)
    need_hi = M.support_max() + t_hi + 1
    res = injective_resolution(N, window=Window(min(-need_hi, -1), 0))
    stages = res.stages
    entries = {}
    for t in sorted(ts):
        bases = [module_hom_space(M, J, t) for J in stages]
        mats = []
        for s in range(len(stages) - 1):
            mats.append(_ext_connecting_inj(M, res, s, t, bases))
        for s in range(len(stages)):
            dim_s = len(bases[s])
            if dim_s == 0:
                continue
            out = mats[s] if s < len(stages) - 1 else None
            into = mats[s - 1] if s >= 1 else None
            cyc = dim_s - rank(out) if out is not None else dim_s
            bnd = rank(into) if into is not None else 0
            h = cyc - bnd
            if h:
                entries[(s, t)] = h
    return BigradedTable(entries)


def _ext_connecting_inj(M: DGModule, res: InjectiveResolutionData, s: int,
                        t: int, bases: list):
    """Matrix of Hom(M, J_s)_t -> Hom(M, J_(s+1))_t, postcomposition."""
    psi = res.maps[s]
    src_basis, tgt_basis = bases[s], bases[s + 1]
    if not tgt_basis:
        return zeros(0, len(src_basis))
    tgt_keys = sorted({k for h in tgt_basis for k in h})
    # coordinates of a raw hom in the target basis, solved per source element
    cols = []
    for h in src_basis:
        comp = {}
        for (n, rr, cc), val in h.items():
            blk = psi.block(n + t)
            for r2 in range(len(blk)):
                if blk[r2][rr]:
                    key = (n, r2, cc)
                    comp[key] = comp.get(key, Fraction(0)) + blk[r2][rr] * val
        cols.append(comp)
    sysm = []
    keyset = sorted({k for h in tgt_basis for k in h} |
                    {k for c in cols for k in c})
    basis_mat = [[h.get(k, Fraction(0)) for h in tgt_basis] for k in keyset]
    from .grlin import solve
    out = zeros(len(tgt_basis), len(src_basis))
    for j, comp in enumerate(cols):
        rhs = [comp.get(k, Fraction(0)) for k in keyset]
        sol = solve(basis_mat, rhs)
        if sol is None:
            raise InvariantViolation("postcomposition left the hom space")
        for i, x in enumerate(sol):
            out[i][j] = x
    return out


def totalize_injective_resolution(res: InjectiveResolutionData) -> DGModule:
    """The injective resolution as one DG module quasi-isomorphic to its
    module: stage s suspended by -s, resolution maps as the differential."""
    from .algebra import dg_module
    from .grlin import zeros as _zeros
    R = res.ring
    stages = [J.shift(-s) for s, J in enumerate(res.stages)]
    lo = min(J.lo for J in stages)
    hi = min(J.hi for J in stages)
    dims, labels, offsets = {}, {}, {}
    for n in range(lo, hi + 1):
        offs, total = [], 0
        for J in stages:
            offs.append(total)
            total += J.known_dim(n) or 0
        offsets[n] = offs
        if total:
            dims[n] = total
            labels[n] = [f"s{s}.{lab}" for s, J in enumerate(stages)
                         for lab in J.labels_at(n)]
    diff_blocks = {}
    for n in dims:
        if (n - 1) not in dims:
            continue
        m = _zeros(dims[n - 1], dims[n])
        for s, psi in enumerate(res.maps):
            # J^s -> J^(s+1) lands one suspension lower in the total complex
            blk = psi.block(n + s)
            for rr in range(stages[s + 1].known_dim(n - 1) or 0):
                for cc in range(stages[s].known_dim(n) or 0):
                    if blk[rr][cc]:
                        m[offsets[n - 1][s + 1] + rr][offsets[n][s] + cc] = blk[rr][cc]
        if not is_zero_matrix(m):
            diff_blocks[n] = m
    act_blocks = [dict() for _ in range(R.r)]
    for n in dims:
        for i in range(R.r):
            t = n - R.codegrees[i]
            if t not in dims:
                continue
            m = _zeros(dims[t], dims[n])
            for s, J in enumerate(stages):
                blk = J.actions[i].block(n)
                for rr in range(J.known_dim(t) or 0):
                    for cc in range(J.known_dim(n) or 0):
                        if blk[rr][cc]:
                            m[offsets[t][s] + rr][offsets[n][s] + cc] = blk[rr][cc]
            if not is_zero_matrix(m):
                act_blocks[i][n] = m
    return dg_module(R, dims, diff_blocks, act_blocks, lo, hi,
                     complete_below=True, complete_above=False,
                     labels=labels, name=f"J({res.module.name})")


# ---------------------------------------------------------------------------
# derived Hom through semifree replacement


@dataclass
class SemifreeReplacement:
    cells: FreeDGModule
    realized: DGModule
    comparison: ChainMap   # realized -> X, cone acyclic above the floor
    floor: int


def semifree_replacement(X: DGModule, floor: int,
                         max_rounds: int = 200) -> SemifreeReplacement:
    """Free cell approximation of a finite DG module, built top-down.

    Each round kills the top remaining cone homology class by a cell whose
    differential is the class's shifted-source component and whose comparison
    value is its target component; the loop re-verifies acyclicity of the
    whole cone above the floor before stopping.
    """
    R = X.algebra
    if not X.is_finite():
        raise UnboundedInput("semifree replacement needs a finite module")
    top = (X.support_max() if X.total_dim() else 0) or 0
    win = Window(floor - 1, top + 2)
    cells: list = []
    diff_rows: list = []
    to_x: list = []

    def assemble():
        n = len(cells)
        mat = tuple(tuple(diff_rows[i][j] for j in range(n)) for i in range(n))
        F = FreeDGModule(R, tuple(cells), mat)
        realized = to_degreewise(F, win, name="cells")
        blocks = {}
        for m in range(win.lo, win.hi + 1):
            bs = free_basis(F, m)
            if not bs or X.known_dim(m) is None or X.dim(m) == 0:
                continue
            mat_m = zeros(X.dim(m), len(bs))
            for col, (j, alpha) in enumerate(bs):
                gdeg = F.basis[j][1]
                p = Poly(R, {alpha: Fraction(1)})
                blk = X.action_poly_block(p, gdeg)
                vec = to_x[j]
                for rr in range(X.dim(m)):
                    mat_m[rr][col] = sum(blk[rr][kk] * vec[kk] for kk in range(len(vec)))
            if not is_zero_matrix(mat_m):
                blocks[m] = mat_m
        p = ChainMap(realized, X, 0, blocks)
        return F, realized, p

    for _ in range(max_rounds):
        F, realized, p = assemble()
        cone = mapping_cone(p)
        H = homology(cone)
        bad = [n for n in sorted(H.dims(), reverse=True) if n >= floor]
        if not bad:
            return SemifreeReplacement(F, realized, p, floor)
        n = bad[0]
        db = X.known_dim(n) or 0
        for rep in H.representatives(n):
            x_part = rep[:db]
            a_part = rep[db:]
            lab = f"c{len(cells)}"
            col_polys = _vector_to_poly_column(F, n - 1, a_part) if cells else []
            cells.append((lab, n))
            for i, row in enumerate(diff_rows):
                row.append(col_polys[i].scale(-1) if i < len(col_polys) else R.zero())
            diff_rows.append([R.zero()] * len(cells))
            to_x.append(list(x_part))
    raise WindowTooSmall("semifree replacement did not stabilize")


@dataclass
class RHomResult:
    """Derived Hom homology with its certified window."""

    dims: dict
    window: Window
    hom_module: DGModule
    replacement: SemifreeReplacement

    def dim(self, n: int) -> int | None:
        if self.window.guaranteed_lo <= n <= self.window.guaranteed_hi:
            return self.dims.get(n, 0)
        return None

    def nonzero(self) -> dict:
        return {n: d for n, d in self.dims.items()
                if d and self.window.guaranteed_lo <= n <= self.window.guaranteed_hi}


def rhom_homology(X: DGModule, Y: DGModule, w: Window) -> RHomResult:
    """Maps in the derived category from X to Y, degreewise, on a window.

    X is replaced by free cells (cone acyclic down to a floor dictated by
    the requested window and the support of Y); the honest answer is then
    the homology of the finite complex Hom(cells, Y), certified up to the
    degree where cells below the floor could first interfere.
    """
    if not X.is_finite():
        raise UnboundedInput("rhom needs a finite-dimensional source")
    if not Y.is_torsion():
        raise UnboundedInput("rhom needs a torsion target")
    if Y.total_dim() == 0 or X.total_dim() == 0:
        return RHomResult({}, w, zero_module(X.algebra),
                          SemifreeReplacement(free_module(X.algebra, []),
                                              zero_module(X.algebra),
                                              None, 0))
    y_lo = Y.support_min()
    floor = y_lo - w.hi - 2
    rep = semifree_replacement(X, floor)
    hom = hom_R(rep.cells, Y, name=f"RHom({X.name},{Y.name})")
    H = homology(hom)
    dims = H.dims()
    glo, ghi = w.lo, min(w.hi, y_lo - floor - 2)
    if H.certified is not None:
        glo = max(glo, H.certified[0])
        ghi = min(ghi, H.certified[1])
    if H.certified is None or glo > ghi:
        raise WindowTooSmall("derived Hom window certifies nothing")
    out_w = Window(min(w.lo, glo), max(w.hi, ghi), glo, ghi)
    return RHomResult(dims, out_w, hom, rep)
