"""The finite Adams spectral sequence for torsion modules.

The tower is realized algebraically: each stage maps into the injective
hull of its homology (a finite sum of shifted copies of the basic
injective), the next stage is the fibre, and stage homologies are the
syzygies of the starting module, so everything stops within the rank.
Convergence is checked by comparison: the second page is bigraded Ext of
the homologies, the abutment is computed by the independent derived-Hom
route, and degeneration is certified or refuted degree by degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grlin import (
    LinearSystem,
    Window,
    _form_rank,
    kernel_basis,
    zeros,
)
from .algebra import (
    ChainMap,
    DGModule,
    GroupData,
    InvariantViolation,
    NotTorsion,
    PolyAlgebra,
    basic_injective,
    direct_sum,
    fibre,
    hom_R,
    homology,
    homology_module,
    koszul_stage,
    zero_module,
)
from .resolve import (
    BigradedTable,
    WindowTooSmall,
    ext_bigraded,
    injective_resolution,
    module_hom_space,
    rhom_homology,
)
from .duality import LinearSolveFailed


def realize_injective(g: GroupData, w: Window | None = None) -> DGModule:
    """The algebraic model of the free cell's injective: the basic injective
    suspended by the dimension of the group."""
    R = PolyAlgebra(g)
    if w is None:
        w = Window(0, 2 * sum(R.codegrees) + g.dim_g + 4)
    return basic_injective(R, w, name="I").shift(g.dim_g)


def socle(M: DGModule) -> dict:
    """Degreewise basis of the common kernel of all generator actions."""
    R = M.algebra
    out = {}
    for n in M.degrees():
        rows = []
        for i in range(R.r):
            t = n - R.codegrees[i]
            if M.known_dim(t) is None:
                rows = None
                break
            for row in M.actions[i].block(n):
                rows.append(row)
        if rows is None:
            continue
        vecs = kernel_basis(rows, cols=M.dim(n)) if rows else [
            _unit(M.dim(n), j) for j in range(M.dim(n))]
        if vecs:
            out[n] = vecs
    return out


def _unit(n, j):
    from .grlin import unit_vector
    return unit_vector(n, j)


def injective_hull_embedding(N: DGModule, pad: int = 4):
    """The hull of a torsion module and a verified embedding into it.

    The hull is one shifted copy of the basic injective per socle basis
    vector; the embedding is any module map restricting to the socle
    pairing, which is automatically injective because every nonzero
    submodule of a torsion module meets the socle.
    """
    R = N.algebra
    if not N.is_torsion():
        raise NotTorsion("injective hulls here are for torsion modules")
    soc = socle(N)
    shifts = sorted((n for n in soc for _ in soc[n]), reverse=False)
    if not shifts:
        return zero_module(R), ChainMap(N, zero_module(R), 0, {})
    hi = max(N.hi + 1, max(shifts)) + pad
    pieces = []
    for s in shifts:
        pieces.append(basic_injective(R, Window(0, hi - s)).shift(s))
    W = pieces[0]
    for p in pieces[1:]:
        W = direct_sum(W, p)
    W.name = "hull"
    # embedding: unknown blocks, prescribed on the socle
    sys = LinearSystem()
    for n in N.degrees():
        tb = W.known_dim(n)
        if tb is None:
            raise WindowTooSmall("hull window too small")
        for rr in range(tb):
            for cc in range(N.dim(n)):
                sys.var((n, rr, cc))
    gens = N.generator_degrees()
    for n in N.degrees():
        for i, g in enumerate(gens):
            tb2 = W.known_dim(n + g)
            if tb2 is None:
                raise WindowTooSmall("hull window too small")
            nblk = N.actions[i].block(n)
            wblk = W.actions[i].block(n)
            for rr in range(tb2):
                for cc in range(N.dim(n)):
                    coeffs = {}
                    for kk in range(W.known_dim(n) or 0):
                        if wblk[rr][kk]:
                            coeffs[(n, kk, cc)] = coeffs.get((n, kk, cc), Fraction(0)) + wblk[rr][kk]
                    for kk in range(N.dim(n + g)):
                        if nblk[kk][cc]:
                            key = (n + g, rr, kk)
                            coeffs[key] = coeffs.get(key, Fraction(0)) - nblk[kk][cc]
                    if coeffs:
                        sys.add_equation(coeffs)
    # socle pairing: the socle vector for summand p maps to that summand's
    # bottom class
    offsets = {}
    at = 0
    for p, s in enumerate(shifts):
        offsets[p] = at
    # offsets within W at each degree: summand p occupies a block whose
    # position depends on the direct-sum construction order; recompute:
    def summand_offset(p, n):
        off = 0
        for q in range(p):
            off += pieces_dim(q, n)
        return off

    def pieces_dim(q, n):
        return pieces[q].known_dim(n) or 0

    p = 0
    for n in sorted(soc):
        for vec in soc[n]:
            # socle vector -> bottom of summand p (its only class at degree n)
            off = summand_offset(p, n)
            for rr in range(W.known_dim(n) or 0):
                coeffs = {}
                target = Fraction(1) if rr == off else Fraction(0)
                for cc in range(N.dim(n)):
                    if vec[cc]:
                        coeffs[(n, rr, cc)] = vec[cc]
                sys.add_equation(coeffs, rhs=target)
            p += 1
    sol = sys.solve()
    if sol is None:
        raise LinearSolveFailed("no module map extending the socle pairing")
    blocks = {}
    for (n, rr, cc), v in sol.items():
        if not v:
            continue
        if n not in blocks:
            blocks[n] = zeros(W.known_dim(n), N.dim(n))
        blocks[n][rr][cc] = v
    emb = ChainMap(N, W, 0, blocks)
    for n in N.degrees():
        if _form_rank(emb.map.form(n)) != N.dim(n):
            raise InvariantViolation(f"hull embedding not injective at degree {n}")
    return W, emb


@dataclass
class TowerStage:
    index: int
    module: DGModule          # Y_j
    homology_dims: dict       # certified dims of H(Y_j)
    hull_shifts: list         # suspensions of the injective target
    map_to_injective: ChainMap | None


@dataclass
class AdamsTower:
    """Algebraic Adams tower: stages, their maps into realized injectives,
    and the syzygy record."""

    module: DGModule
    stages: list
    syzygy_check: bool

    @property
    def length(self) -> int:
        return max((st.index for st in self.stages if st.homology_dims), default=0)


def lift_through_homology(Y: DGModule, W: DGModule, emb: ChainMap,
                          HY) -> ChainMap:
    """Chain module map Y -> W inducing the given embedding on homology.

    W has zero differential, so inducing the embedding means agreeing with
    it exactly on homology representatives; existence is the injectivity of
    the hull, and failure raises instead of degrading.
    """
    sys = LinearSystem()
    for n in range(Y.lo, Y.hi + 1):
        tb = W.known_dim(n)
        if tb is None:
            continue
        for rr in range(tb):
            for cc in range(Y.dim(n)):
                sys.var((n, rr, cc))

    def known_block(n):
        return W.known_dim(n) is not None

    # chain condition: phi . d = 0
    for n in range(Y.lo, Y.hi + 1):
        if Y.dim(n) == 0 or not known_block(n - 1):
            continue
        dblk = Y.diff.block(n)
        for rr in range(W.known_dim(n - 1)):
            for cc in range(Y.dim(n)):
                coeffs = {}
                for kk in range(Y.dim(n - 1)):
                    if dblk[kk][cc]:
                        coeffs[(n - 1, rr, kk)] = coeffs.get((n - 1, rr, kk), Fraction(0)) + dblk[kk][cc]
                if coeffs:
                    sys.add_equation(coeffs)
    # module linearity
    gens = Y.generator_degrees()
    for n in range(Y.lo, Y.hi + 1):
        if Y.dim(n) == 0:
            continue
        for i, g in enumerate(gens):
            if not (known_block(n) and known_block(n + g)):
                continue
            if Y.known_dim(n + g) is None:
                continue
            yblk = Y.actions[i].block(n)
            wblk = W.actions[i].block(n)
            for rr in range(W.known_dim(n + g)):
                for cc in range(Y.dim(n)):
                    coeffs = {}
                    for kk in range(W.known_dim(n)):
                        if wblk[rr][kk]:
                            coeffs[(n, kk, cc)] = coeffs.get((n, kk, cc), Fraction(0)) + wblk[rr][kk]
                    for kk in range(Y.dim(n + g)):
                        if yblk[kk][cc]:
                            key = (n + g, rr, kk)
                            coeffs[key] = coeffs.get(key, Fraction(0)) - yblk[kk][cc]
                    if coeffs:
                        sys.add_equation(coeffs)
    # prescribed values on homology representatives
    HN = HY["module"]
    hom = HY["homology"]
    for n in HN.degrees():
        if not known_block(n):
            continue
        reps = hom.representatives(n)
        blk = emb.block(n)
        for col, rep in enumerate(reps):
            img_col = [row[col] for row in blk]
            for rr in range(W.known_dim(n)):
                coeffs = {}
                for cc in range(Y.dim(n)):
                    if rep[cc]:
                        coeffs[(n, rr, cc)] = rep[cc]
                sys.add_equation(coeffs, rhs=img_col[rr])
    sol = sys.solve()
    if sol is None:
        raise LinearSolveFailed("no chain lift of the hull embedding")
    blocks = {}
    for (n, rr, cc), v in sol.items():
        if not v:
            continue
        if n not in blocks:
            blocks[n] = zeros(W.known_dim(n), Y.dim(n))
        blocks[n][rr][cc] = v
    return ChainMap(Y, W, 0, blocks)


def adams_tower(Y: DGModule, pad: int = 4) -> AdamsTower:
    """Build the tower over a finite-length torsion module.

    Stage j maps into the suspension of its homology's injective hull; the
    next stage is the fibre.  The hull shifts are compared with the
    (suspended) terms of the injective resolution of the starting homology,
    which is the syzygy statement in checkable form.
    """
    R = Y.algebra
    if not Y.is_torsion():
        raise NotTorsion("adams tower needs a torsion module")
    HY0 = homology_module(Y)
    expected = None
    if HY0.total_dim() and HY0.is_finite():
        res0 = injective_resolution(HY0)
        expected = [sorted(sh) for sh in res0.shifts]
    stages = []
    current = Y
    syzygy_ok = True
    j = 0
    while True:
        H = homology(current)
        HN = homology_module(current)
        hdims = {n: HN.dim(n) for n in HN.degrees()}
        if not hdims:
            stages.append(TowerStage(j, current, {}, [], None))
            break
        if j > R.r:
            raise InvariantViolation("tower exceeded the rank bound")
        W, emb = injective_hull_embedding(HN, pad=pad)
        shifts = sorted(n for n in socle(HN) for _ in socle(HN)[n])
        if expected is not None and j < len(expected):
            want = sorted(s - j for s in expected[j])
            if shifts != want:
                syzygy_ok = False
        phi = lift_through_homology(current, W, emb,
                                    {"module": HN, "homology": H})
        stages.append(TowerStage(j, current, hdims, shifts, phi))
        current = fibre(phi, name=f"Y{j+1}")
        j += 1
    return AdamsTower(Y, stages, syzygy_ok)


# ---------------------------------------------------------------------------
# the second page and convergence bookkeeping


@dataclass
class Page:
    """Second page, abutment, and the degeneration report."""

    e2: BigradedTable
    abutment: dict
    window: Window
    comparisons: dict       # n -> (abutment dim, e2 total)
    degenerate: bool
    euler_ok: bool
    row_bound_ok: bool

    @property
    def passed(self) -> bool:
        return self.euler_ok and self.row_bound_ok


def e2_page(X: DGModule, Y: DGModule, w: Window | None = None,
            cross_check_routes: bool = False) -> Page:
    """Ext of the homologies, converging to derived-category maps.

    The abutment is computed by the independent derived-Hom oracle; the
    report records, degree by degree, the abutment dimension against the
    total second-page dimension (equality is degeneration), the Euler
    characteristic identity, and the vanishing of rows above the rank.
    """
    R = X.algebra
    HX = homology_module(X)
    HY = homology_module(Y)
    if HX.total_dim() == 0 or HY.total_dim() == 0:
        win = w or Window(-1, 1)
        return Page(BigradedTable({}), {}, win, {}, True, True, True)
    e2 = ext_bigraded(HX, HY, "via_free")
    if cross_check_routes:
        other = ext_bigraded(HX, HY, "via_injective")
        if e2 != other:
            raise InvariantViolation("Ext routes disagree")
    contrib = e2.abutment_dims()
    if w is None:
        ns = sorted(contrib) or [0]
        w = Window(min(ns) - 1, max(ns) + 1)
    ab = rhom_homology(X, Y, w)
    comparisons = {}
    degenerate = True
    for n in range(w.lo, w.hi + 1):
        a = ab.dim(n)
        tot = contrib.get(n, 0)
        if a is None:
            continue
        comparisons[n] = (a, tot)
        if a > tot:
            raise InvariantViolation(
                f"abutment exceeds the second page at degree {n}")
        if a != tot:
            degenerate = False
    # Euler characteristic: alternating total over n, within the window
    full = all(w.lo <= n <= w.hi for n in contrib)
    euler_ok = True
    if full and all(n in comparisons for n in contrib):
        lhs = sum((-1) ** (t - s) * d for (s, t), d in e2.entries.items())
        rhs = sum((-1) ** n * a for n, (a, _) in comparisons.items())
        euler_ok = lhs == rhs
    row_bound_ok = e2.max_row() <= R.r
    return Page(e2, {n: a for n, (a, _) in comparisons.items()}, w,
                comparisons, degenerate, euler_ok, row_bound_ok)


@dataclass
class InjectiveCaseReport:
    dims_rhom: dict
    dims_hom: dict
    window: Window
    agrees: bool


def injective_case_check(X: DGModule, J: DGModule,
                         w: Window | None = None) -> InjectiveCaseReport:
    """Maps into a realized injective are plain module maps of homology:
    the edge isomorphism, checked degree by degree."""
    HX = homology_module(X)
    HJ = homology_module(J)
    xs = HX.degrees() or [0]
    js = HJ.degrees() or [0]
    hom_hi = HJ.hi - max(xs) - 1
    if w is None:
        lo = min(js) - max(xs) - 2
        w = Window(lo, max(hom_hi - 1, lo))
    ab = rhom_homology(X, J, w)
    dims_hom = {}
    for n in range(w.lo, min(w.hi, hom_hi) + 1):
        if HX.total_dim() == 0 or HJ.total_dim() == 0:
            dims_hom[n] = 0
            continue
        dims_hom[n] = len(module_hom_space(HX, HJ, n))
    agree = True
    dims_rhom = {}
    for n in range(w.lo, min(w.hi, hom_hi) + 1):
        a = ab.dim(n)
        if a is None:
            continue
        dims_rhom[n] = a
        if a != dims_hom.get(n, 0):
            agree = False
    return InjectiveCaseReport(dims_rhom, dims_hom, w, agree)


@dataclass
class WhiteheadReport:
    homology_nonzero: bool
    dual_nonzero: bool
    stage_dims: list          # H(Hom(K_i, M)) dims per i
    stage_action_iso: list    # per i >= 1: x_i acts invertibly on stage i-1
    agrees: bool

    @property
    def passed(self) -> bool:
        return self.agrees


def whitehead_detect(M: DGModule) -> WhiteheadReport:
    """Vanishing of homology is detected by the Koszul-dual side.

    Computes both H(M) and H(Hom(kbar, M)) and runs the staged certificate:
    along the partial Koszul complexes, acyclicity at stage i forces the
    next generator to act invertibly on the previous stage's homology,
    which kills it because that homology is torsion.
    """
    R = M.algebra
    if not M.is_torsion():
        raise NotTorsion("whitehead detection applies to torsion modules")
    a = not homology(M).is_zero()
    stage_dims = []
    stage_mods = []
    for i in range(R.r + 1):
        K = koszul_stage(R, i)
        hom = hom_R(K, M)
        stage_mods.append(hom)
        stage_dims.append(homology(hom).dims())
    b = bool(stage_dims[-1])
    # staged certificate: x_i invertible on H(Hom(K_(i-1), M)) when the
    # stage above is acyclic
    action_iso = []
    for i in range(1, R.r + 1):
        if stage_dims[i]:
            action_iso.append(None)
            continue
        Hm = homology_module(stage_mods[i - 1]) if stage_dims[i - 1] else None
        if Hm is None:
            action_iso.append(True)
            continue
        ok = True
        for n in Hm.degrees():
            t = n - R.codegrees[i - 1]
            if (Hm.dim(n) != Hm.dim(t)
                    or _form_rank(Hm.actions[i - 1].form(n)) != Hm.dim(n)):
                ok = False
        action_iso.append(ok)
    return WhiteheadReport(a, b, stage_dims, action_iso, a == b)
