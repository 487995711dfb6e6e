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

from .grlin import (
    Window,
    _columns_form,
    _echelon,
    _form_rank,
    _kernel,
)
from .algebra import (
    ChainMap,
    DGModule,
    GroupData,
    Homology,
    InvariantViolation,
    NotTorsion,
    PolyAlgebra,
    basic_injective,
    chain_map_from_blocks,
    direct_sum,
    fibre,
    hom_from_free,
    homology,
    homology_module,
    koszul_stage,
    map_system,
    zero_module,
)
from .resolve import (
    BigradedTable,
    NotFiniteLength,
    WindowTooSmall,
    ext_bigraded,
    injective_resolution,
    is_zero_diff,
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
    """Degreewise basis of the common kernel of the actions, as integer columns."""
    R = M.algebra
    out = {}
    for n in M.degrees():
        if any(M.known_dim(n - d) is None for d in R.codegrees):
            continue
        rows = []
        for a in M.actions:
            f = a.form(n)
            rows += [] if f is None else f[1]
        vecs = _kernel(_echelon(rows), M.dim(n))
        if vecs:
            out[n] = vecs
    return out


def injective_hull_embedding(N: DGModule, soc: dict | None = None):
    """The hull of a zero-differential torsion module, such as a homology
    module, and a verified embedding into it.

    The hull is one shifted copy of the basic injective per socle basis
    vector; the embedding is any module map restricting to the socle
    pairing, which is automatically injective because every nonzero
    submodule of a torsion module meets the socle; soc is socle(N) when
    already computed.  The hull's window runs four degrees past the top of
    N and of the shifts.
    """
    R = N.algebra
    if not N.is_torsion():
        raise NotTorsion("injective hulls here are for torsion modules")
    if not is_zero_diff(N):
        raise NotFiniteLength("injective hulls here need a zero-differential module")
    soc = socle(N) if soc is None else soc
    shifts = sorted(n for n in soc for _ in soc[n])
    if not shifts:
        return zero_module(R), ChainMap(N, zero_module(R), 0, {})
    hi = max(N.hi + 1, max(shifts)) + 4
    pieces = []
    for s in shifts:
        pieces.append(basic_injective(R, Window(0, hi - s)).shift(s))
    W = pieces[0]
    for p in pieces[1:]:
        W = direct_sum(W, p)
    W.name = "hull"
    # embedding: module maps, prescribed on the socle
    sys, missing = map_system(N, W, 0, range(len(N.actions)))
    if missing:
        raise WindowTooSmall("hull window too small")
    # socle pairing: Y_n . v = the bottom class of summand p for the socle
    # vector v of summand p, the summands sitting in W in order
    p = 0
    for n in sorted(soc):
        vecs, rows = soc[n], W.known_dim(n) or 0
        target = [{} for _ in range(rows)]
        for j in range(len(vecs)):
            target[sum(pieces[q].known_dim(n) or 0 for q in range(p + j))][j] = 1
        sys.equate(rows, len(vecs),
                   right=[(1, n, _columns_form(enumerate(vecs), N.dim(n), len(vecs)))],
                   rhs=(1, target, len(vecs)))
        p += len(vecs)
    sol = sys.solve()
    if sol is None:
        raise LinearSolveFailed("no module map extending the socle pairing")
    emb = chain_map_from_blocks(N, W, 0, sol, sys.blocks)
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
                          H: Homology) -> ChainMap:
    """Chain module map Y -> W inducing the embedding emb of the homology H.

    W has zero differential, so inducing the embedding means agreeing with
    it exactly on homology representatives; existence is the injectivity of
    the hull, and failure raises instead of degrading.
    """
    sys, _ = map_system(Y, W, 0, range(-1, len(Y.actions)))
    # prescribed values on the homology classes: Y_n . class = emb(class)
    for n in sorted(H.dims()):
        if W.known_dim(n) is not None:
            classes = H.classes(n)
            sys.equate(W.known_dim(n), len(classes),
                       right=[(1, n, _columns_form(enumerate(classes), Y.dim(n), len(classes)))],
                       rhs=emb.map.form(n))
    sol = sys.solve()
    if sol is None:
        raise LinearSolveFailed("no chain lift of the hull embedding")
    return chain_map_from_blocks(Y, W, 0, sol, sys.blocks)


def adams_tower(Y: DGModule) -> AdamsTower:
    """Build the tower over a finite-length torsion module.

    Stage j maps into the suspension of its homology's injective hull; the
    next stage is the fibre.  The hull shifts are compared with the
    (suspended) terms of the injective resolution of the starting homology,
    which is the syzygy statement in checkable form.
    """
    R = Y.algebra
    if not Y.is_torsion():
        raise NotTorsion("adams tower needs a torsion module")
    expected = None
    stages = []
    current = Y
    syzygy_ok = True
    j = 0
    while True:
        # each stage's homology and socle are computed once
        H = homology(current)
        HN = homology_module(current, H=H)
        if j == 0 and HN.total_dim() and HN.is_finite():
            expected = [sorted(sh) for sh in injective_resolution(HN).shifts]
        hdims = {n: HN.dim(n) for n in HN.degrees()}
        if not hdims:
            stages.append(TowerStage(j, current, {}, [], None))
            break
        if j > R.r:
            raise InvariantViolation("tower exceeded the rank bound")
        soc = socle(HN)
        W, emb = injective_hull_embedding(HN, soc=soc)
        shifts = sorted(n for n in soc for _ in soc[n])
        if expected is not None and j < len(expected):
            want = sorted(s - j for s in expected[j])
            if shifts != want:
                syzygy_ok = False
        phi = lift_through_homology(current, W, emb, H)
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


def e2_page(X: DGModule, Y: DGModule, w: Window | None = None) -> Page:
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


def injective_case_check(X: DGModule, J: DGModule) -> InjectiveCaseReport:
    """Maps into a realized injective are plain module maps of homology:
    the edge isomorphism, checked degree by degree."""
    HX = homology_module(X)
    HJ = homology_module(J)
    xs = HX.degrees() or [0]
    js = HJ.degrees() or [0]
    hom_hi = HJ.hi - max(xs) - 1
    lo = min(js) - max(xs) - 2
    w = Window(lo, max(hom_hi - 1, lo))
    ab = rhom_homology(X, J, w)
    top = min(w.hi, hom_hi)
    dims_hom = {n: len(module_hom_space(HX, HJ, n)) for n in range(w.lo, top + 1)}
    agree = True
    dims_rhom = {}
    for n in range(w.lo, top + 1):
        a = ab.dim(n)
        if a is None:
            continue
        dims_rhom[n] = a
        if a != dims_hom.get(n, 0):
            agree = False
    # fails closed when no degree was compared, and when Hom is nonzero in a
    # degree above the compared ones, up to (top of H(J)) - max H(X)
    unseen = any(module_hom_space(HX, HJ, n) for n in range(top + 1, HJ.hi - max(xs) + 1))
    return InjectiveCaseReport(dims_rhom, dims_hom, w, agree and bool(dims_rhom) and not unseen)


@dataclass
class WhiteheadReport:
    homology_nonzero: bool
    dual_nonzero: bool
    stage_dims: list          # H(Hom(K_i, M)) dims per i
    stage_action_iso: list    # per i >= 1: x_i acts invertibly on stage i-1
    agrees: bool

    @property
    def passed(self) -> bool:
        return self.agrees and False not in self.stage_action_iso


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
    stage_dims = [homology(hom_from_free(koszul_stage(R, i), M)).dims()
                  for i in range(R.r + 1)]
    b = bool(stage_dims[-1])
    # staged certificate: stage i is the cone of x_i on stage i-1, so an
    # acyclic stage i makes x_i invertible on the torsion homology of stage
    # i-1, where x_i is nilpotent: that homology must vanish too, and an
    # acyclic stage over one with homology is False
    action_iso = [None if stage_dims[i] else not stage_dims[i - 1]
                  for i in range(1, R.r + 1)]
    return WhiteheadReport(a, b, stage_dims, action_iso, a == b)
