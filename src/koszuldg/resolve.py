"""Resolutions and derived functors by degreewise exact linear algebra.

Minimal free resolutions are found syzygy-by-syzygy with plain kernel
computations; no Groebner machinery is needed because every graded piece is
finite-dimensional.  One sweep finds every stage, stage 0 included: there
the map before it is the zero map on the module, whose kernel is all of it.
The generator degrees of each syzygy stage are known in advance from an
independent finite computation (homology of the module tensored with the
exterior Koszul complex), which both sizes the windows and cross-checks the
construction.  Injective resolutions are graded duals of free ones; both
kinds are certified exact by one check on the realized complex.  Ext is
computed along both routes as mutual oracles, the injective one on the
integer columns of module_hom_space, composed with the resolution maps in
integers (algebra._express_composites).  Derived Hom uses a semifree
replacement built by killing cone homology from the top: a scan reads the
cone one degree at a time from its two differential blocks, and one final
gate builds and checks the replacement and its cone before it is returned.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .grlin import (
    GradedMap,
    GradedVS,
    MapBasis,
    Window,
    _assemble,
    _echelon,
    _form_rank,
    _insert,
    _int_agree,
    _int_product,
    _kernel,
    _transposed,
    homology_at,
)
from .algebra import (
    ChainMap,
    UnboundedInput,
    DGModule,
    FreeDGModule,
    InvariantViolation,
    PolyAlgebra,
    _block_product,
    _evaluate,
    _express_composites,
    _poly_terms,
    _realize,
    _subsets,
    _summed,
    _vector_to_poly_column,
    double_dual_comparison,
    free_basis,
    free_module,
    hom_from_free,
    homology,
    matlis_dual,
    mapping_cone,
    map_system,
    to_degreewise,
    zero_module,
)


class NotFiniteLength(ValueError):
    """Resolution input must be a finite-length module."""


class WindowTooSmall(ValueError):
    """A syzygy or homology search ran outside its certified window."""


# ---------------------------------------------------------------------------
# Betti numbers through the exterior Koszul complex


def tor_betti(M: DGModule) -> dict:
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
    R = M.algebra
    subs = _subsets(R.r)
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
        # m (x) e_S sits at offsets[S] + m in the basis of word length |S|;
        # the block from e_S to e_(S - i) is the action of x_i, signed by the
        # position of i in S.  Sizes increase along subs, so S - i is placed
        # before S.
        offsets, dims, pieces = {}, [0] * (R.r + 1), [[] for _ in range(R.r + 1)]
        for S in subs:
            m_deg = t + sum(R.codegrees[i] for i in S)
            offsets[S] = dims[len(S)]
            dims[len(S)] += M.dim(m_deg)
            for pos, i in enumerate(S):
                pieces[len(S)].append((M.actions[i].form(m_deg), offsets[S[:pos] + S[pos + 1:]],
                                       offsets[S], -1 if pos % 2 else 1))
        ranks = ([0] + [_form_rank(_assemble(dims[s - 1], dims[s], pieces[s]))
                        for s in range(1, R.r + 1)] + [0])
        for s in range(R.r + 1):
            h = dims[s] - ranks[s] - ranks[s + 1]
            if h:
                betti.setdefault(s, {})[t] = h
    return betti


def is_zero_diff(M: DGModule) -> bool:
    return not M.diff.forms


# ---------------------------------------------------------------------------
# free resolutions


@dataclass
class ResolutionData:
    """A minimal free resolution with both symbolic and realized layers.

    terms[s] is the generator list of F_s; maps[s] (s >= 1) the Poly matrix
    of F_s -> F_(s-1); aug_vectors holds the images of the F_0 generators as
    (degree, integer column).  Realized stages and maps live on the window.
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


def minimal_free_resolution(M: DGModule, window: Window | None = None) -> ResolutionData:
    """Minimal free resolution of a finite-length zero-differential module.

    Generators of each stage are the degreewise complement of m-multiples in
    the kernel of the previous map, swept top-down; the stage's generator
    degrees must agree with the Betti oracle, exactness and minimality are
    checked afterwards, and the resolution always terminates within r steps.
    """
    if not (M.is_finite() and is_zero_diff(M)):
        raise NotFiniteLength("minimal_free_resolution needs finite length, zero differential")
    return _resolve_with_betti(M, M.algebra, tor_betti(M), window)


def minimal_free_resolution_fg(M: DGModule) -> ResolutionData:
    """Resolution engine for finitely generated windowed modules.

    The caller is responsible for a window deep enough that the Betti
    support sits inside the certified range; a margin of vanishing internal
    degrees below the observed support, the top codegree of R, is required
    as a loud certificate.
    """
    if not is_zero_diff(M):
        raise NotFiniteLength("resolution needs a zero-differential module")
    R = M.algebra
    betti = tor_betti(M)
    if betti and not M.is_finite():
        b_min = min(t for row in betti.values() for t in row)
        if b_min - (max(R.codegrees) if R.r else 1) < M.lo + 1:
            raise WindowTooSmall(
                f"betti support reaches {b_min}, window floor {M.lo} leaves no margin")
    return _resolve_with_betti(M, R, betti, None)


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

    # Each stage s sweeps the kernel of the map before it from the top down
    # and keeps its complement to the m-multiples.  Before stage 0 that map
    # is the zero map on M, whose kernel is all of M, so stage 0 keeps unit
    # vectors spanning M / m M; its images are then evaluated into M, while
    # a later stage's are decoded into a polynomial matrix and realized.
    terms, maps, realized, realized_maps = [], [], [], []
    prev_free, prev_real, prev_map = None, M, GradedMap(M.space, M.space, 0, {})
    bases = None
    s = 0
    while betti.get(s):
        expected = betti[s]
        top = M.hi if s == 0 else max(b for _, b in prev_free.basis)
        sweep_lo = min(expected)
        kernels = {}  # degree -> the kernel basis there, as primitive integer rows
        new_gens = []
        for n in range(top, sweep_lo - 1, -1):
            f = prev_map.form(n)
            ker = _kernel(_echelon([] if f is None else f[1]), prev_real.dim(n))  # in the window
            kernels[n] = [col for _, col in ker]
            # the m-multiples: x_i applied to the kernel one generator up,
            # the rows of (kernel rows) . (action block)^T
            span = {}
            for i in range(R.r):
                t = n + R.codegrees[i]
                act = prev_real.actions[i].form(t)
                if act is not None and kernels.get(t):
                    for row in _int_product((1, kernels[t], act[2]), _transposed(act))[1]:
                        _insert(span, row)
            new = [v for v, row in zip(ker, kernels[n]) if _insert(span, row)]
            want = expected.get(n, 0)
            if len(new) != want:
                raise WindowTooSmall(
                    f"stage {s} found {len(new)} generators at degree {n}, oracle says {want}")
            new_gens += [(n, c) for c in new]
        gen_list = [(f"g{s}_{i}", n) for i, (n, _) in enumerate(new_gens)]
        terms.append(gen_list)
        F_s = free_module(R, gen_list)
        # each stage's free bases over the window, built once: for its
        # realization, its augmentation or stage map, and the next sweep
        prev_bases, bases = bases, {n: free_basis(F_s, n) for n in win.degrees()}
        F_s_real = to_degreewise(F_s, win, name=f"F{s}", bases=bases)
        if s == 0:
            aug_vectors = new_gens
            images, table = [v for _, v in new_gens], dict(bases)
            blocks = {n: _evaluate(F_s, M, images, n, table) for n in win.degrees()}
        else:
            poly_matrix = [[R.zero() for _ in new_gens] for _ in range(prev_free.rank)]
            for col, (n, v) in enumerate(new_gens):
                for row, p in enumerate(_vector_to_poly_column(prev_free, n, v)):
                    poly_matrix[row][col] = p
            maps.append(poly_matrix)
            stage = _poly_terms(poly_matrix)
            blocks = {n: _realize(stage, bases[n], prev_bases[n]) for n in win.degrees()}
        realized.append(F_s_real)
        realized_maps.append(GradedMap(F_s_real.space, prev_real.space, 0, blocks))
        prev_free, prev_real, prev_map = F_s, F_s_real, realized_maps[-1]
        s += 1
        if s > R.r + 1:
            raise InvariantViolation("resolution exceeded the rank bound")
    realized_aug = realized_maps.pop(0)

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
    _certify_exact("free", res.realized[::-1] + [M],
                   res.realized_maps[::-1] + [res.realized_aug], range(lo, res.window.hi))


def _certify_exact(kind: str, spaces: list, maps: list, degrees):
    """Exactness of 0 -> V_0 -> ... -> V_k -> 0, maps[i] sending spaces[i]
    to spaces[i + 1], in each of degrees: the first map injective, the last
    onto, and kernel equal to image in between, as a complex whose ranks
    add up.  Each block's rank is computed once; the error names the
    resolution, the term and the degree.
    """
    for n in degrees:
        forms = [f.form(n) for f in maps]
        ranks = [0] + [_form_rank(f) for f in forms] + [0]
        for i, V in enumerate(spaces):
            if V.dim(n) - ranks[i + 1] != ranks[i]:
                raise InvariantViolation(
                    f"{kind} resolution not exact at {V.name}, degree {n}")
        for i, (f, g) in enumerate(zip(forms, forms[1:]), start=1):
            if f is not None and g is not None and any(_int_product(g, f)[1]):
                raise InvariantViolation(
                    f"{kind} resolution not a complex at {spaces[i].name}, degree {n}")


def hilbert_function(M: DGModule, degrees) -> dict:
    """Degreewise dimensions over an iterable of degrees."""
    return {n: M.dim(n) for n in degrees}


def hilbert_identity_check(res: ResolutionData) -> bool:
    """Alternating sum of stage Hilbert functions equals the module's."""
    pad = max(res.ring.codegrees) if res.ring.r else 1
    for n in range(res.window.lo + pad, res.window.hi):
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
    res = minimal_free_resolution(D, window=window)
    stages = [matlis_dual(F, name=f"J{s}") for s, F in enumerate(res.realized)]
    shifts = [[-b for _, b in gens] for gens in res.terms]
    maps = []
    chain = [res.realized_aug] + res.realized_maps
    # dual of phi_s: F_s -> F_(s-1) gives J_(s-1) -> J_s
    for s in range(1, len(chain)):
        phi = chain[s]
        blocks = {n: _transposed(phi.form(-n))
                  for n in range(stages[s - 1].lo, stages[s - 1].hi + 1)
                  if phi.form(-n) is not None}
        maps.append(GradedMap(stages[s - 1].space, stages[s].space, 0, blocks))
    # augmentation M -> J_0 through the double dual
    dd = double_dual_comparison(M)
    aug_blocks = {}
    for n in M.degrees():
        f, g = res.realized_aug.form(-n), dd.map.form(n)
        if f is not None and g is not None:
            aug_blocks[n] = _int_product(_transposed(f), g)
    aug = GradedMap(M.space, stages[0].space, 0, aug_blocks)
    out = InjectiveResolutionData("injective", R, M, shifts, stages, maps,
                                  aug, res.window, res)
    _certify_injective_resolution(out)
    return out


def _certify_injective_resolution(res: InjectiveResolutionData):
    """Module maps, and exactness of 0 -> N -> J_0 -> ... -> J_len -> 0 on
    the dual of the free resolution's certified range: the augmentation and
    each J_(s-1) -> J_s commute with the actions in every degree of their
    (finite) source, as ChainMap._commutes reads them."""
    R = res.ring
    if res.length > R.r:
        raise InvariantViolation("injective resolution longer than the rank")
    lo = -(res.window.hi - 1)
    hi = -(res.window.lo + (max(R.codegrees) if R.r else 1))
    spaces, maps = [res.module] + res.stages, [res.aug] + res.maps
    for A, B, f in zip(spaces, spaces[1:], maps):
        for a, b in zip(A.actions, B.actions):
            for n in A.degrees():
                if not _int_agree(_block_product(b, n, f, n),
                                  _block_product(f, n + a.degree, a, n)):
                    raise InvariantViolation(f"injective resolution map into {B.name} is "
                                             f"not a module map at degree {n}")
    _certify_exact("injective", spaces, maps, range(lo, hi + 1))


# ---------------------------------------------------------------------------
# bigraded Ext


@dataclass
class BigradedTable:
    """Dimensions keyed by (homological row s, internal degree t); a class
    in (s, t) lands in abutment degree n = t - s."""

    entries: dict

    def max_row(self) -> int:
        return max((s for (s, _), d in self.entries.items() if d), default=-1)

    def abutment_dims(self) -> dict:
        """Total dimension contributed to each degree n = t - s."""
        out = {}
        for (s, t), d in self.entries.items():
            if d:
                n = t - s
                out[n] = out.get(n, 0) + d
        return out

    def total_dim(self) -> int:
        return sum(self.entries.values())

    def __eq__(self, other):
        a = {k: v for k, v in self.entries.items() if v}
        b = {k: v for k, v in other.entries.items() if v}
        return a == b


def ext_bigraded(M: DGModule, N: DGModule, route: str = "via_free") -> BigradedTable:
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
        return _ext_via_free(M, N)
    if route == "via_injective":
        return _ext_via_injective(M, N)
    raise ValueError(f"unknown route {route!r}")


def _ext_via_free(M: DGModule, N: DGModule) -> BigradedTable:
    res = minimal_free_resolution(M)
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
            cyc = dims[s] - _form_rank(out)
            bnd = _form_rank(into)
            h = cyc - bnd
            if h:
                entries[(s, t)] = h
    return BigradedTable(entries)


def _ext_connecting_free(res: ResolutionData, s: int, t: int, N: DGModule):
    """Matrix of Hom(F_s, N)_t -> Hom(F_(s+1), N)_t, precomposition, or None
    when it is zero."""
    def offsets(gens):
        offs = [0]
        for _, b in gens:
            offs.append(offs[-1] + N.dim(b + t))
        return offs

    src, tgt = res.terms[s], res.terms[s + 1]
    src_offs, tgt_offs = offsets(src), offsets(tgt)
    P = res.maps[s]
    return _assemble(tgt_offs[-1], src_offs[-1], [
        (N._action_poly_form(P[ii][jj], bi + t), tgt_offs[jj], src_offs[ii], 1)
        for jj in range(len(tgt)) for ii, (_, bi) in enumerate(src)])


def module_hom_space(M: DGModule, J: DGModule, t: int) -> MapBasis:
    """Basis of degree-t module homomorphisms M -> J, differentials left
    aside, as integer columns over map_system's layout: its solutions for
    the generator actions, so with a Koszul sign for odd t and odd
    generators, and no equation reaching a degree of M outside its known
    range.  WindowTooSmall, at the first degree met, unless J's window
    certifies every degree that an unknown block or an equation reaches."""
    sys, missing = map_system(M, J, t, range(len(M.actions)))
    if missing:
        raise WindowTooSmall(f"hom target not certified at degree {missing[0]}")
    return MapBasis(sys.kernel() if sys.num_vars else [], sys.blocks)


def _ext_via_injective(M: DGModule, N: DGModule) -> BigradedTable:
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
            h = dim_s - _form_rank(out) - _form_rank(into)
            if h:
                entries[(s, t)] = h
    return BigradedTable(entries)


def _ext_connecting_inj(M: DGModule, res: InjectiveResolutionData, s: int,
                        t: int, bases: list):
    """Matrix of Hom(M, J_s)_t -> Hom(M, J_(s+1))_t, postcomposition, as an
    integer form; None when the target space is zero."""
    if not bases[s + 1]:
        return None
    return _express_composites(bases[s], res.maps[s].form, t, bases[s + 1])


def totalize_injective_resolution(res: InjectiveResolutionData) -> DGModule:
    """The injective resolution as one DG module quasi-isomorphic to its
    module: stage s suspended by -s, resolution maps as the differential."""
    stages = [J.shift(-s) for s, J in enumerate(res.stages)]
    # where a stage's dimension is unknown its summand is empty, and no block
    # of the resolution maps or of its actions is stored there; J^s ->
    # J^(s+1) lands one suspension lower in the total complex
    def pieces(k, g, n):
        if k == -1:
            return [(psi.form(n + s), s + 1, s, 1) for s, psi in enumerate(res.maps)]
        return [(J.actions[k].form(n), s, s, 1) for s, J in enumerate(stages)]

    return _summed(res.ring, min(J.lo for J in stages), min(J.hi for J in stages),
                   lambda n: [(s, [f"s{s}.{lab}" for lab in J.labels_at(n)])
                              for s, J in enumerate(stages)],
                   pieces, True, False, f"J({res.module.name})")


# ---------------------------------------------------------------------------
# derived Hom through semifree replacement


@dataclass
class SemifreeReplacement:
    cells: FreeDGModule
    realized: DGModule
    comparison: ChainMap   # realized -> X, cone acyclic above the floor
    floor: int


# the cells of a replacement under construction, read as a FreeDGModule is
# read but built without its checks
_Cells = namedtuple("_Cells", "algebra basis diff")


def _cone_classes(X: DGModule, F: _Cells, to_x: list, m: int,
                  bases: dict, blocks: dict, columns: dict) -> list:
    """The classes (integer columns) of the homology at m of the cone of the
    realized cells F -> X (generator j sent to to_x[j]), from the cone's
    differential blocks at m and m + 1 alone, placed as mapping_cone places
    them.  bases, blocks and columns keep free bases, blocks and _evaluate's
    table, which is handed the bases held here."""
    for k in range(m - 2, m + 1):
        if k not in bases:
            bases[k] = free_basis(F, k)
    dims = {k: X.dim(k) + len(bases[k - 1]) for k in range(m - 1, m + 2)}
    if not dims[m]:
        return []
    for k in (m, m + 1):
        if k not in blocks:
            columns.setdefault(k - 1, bases[k - 1])
            blocks[k] = _assemble(dims[k - 1], dims[k], [
                (X.diff.form(k), 0, 0, 1),
                (_evaluate(F, X, to_x, k - 1, columns), 0, X.dim(k), 1),
                (_realize(_poly_terms(F.diff), bases[k - 1], bases[k - 2]),
                 X.dim(k - 1), X.dim(k), -1)])
    space = GradedVS(dims)
    d = GradedMap(space, space, -1, {k: blocks[k] for k in (m, m + 1)})
    return homology_at(d, d, m).classes


def semifree_replacement(X: DGModule, floor: int,
                         max_rounds: int = 200) -> SemifreeReplacement:
    """Free cell approximation of a finite DG module, built top-down.

    A scan reads the cone of the cells' map to X one degree at a time from
    the top of the window down (_cone_classes).  At the first degree with
    homology it adds one cell per class, whose differential is the class's
    shifted-source component and whose comparison value is its target
    component; that kills the degree and leaves the homology above it as it
    was, so the scan goes on one degree lower.  At the floor, a gate builds
    the cells, their realization, the comparison and its cone once, with
    every check, and returns only if the whole cone's homology vanishes at
    and above the floor; otherwise the scan resumes at the top class left.
    Each scan ending in cells or in the gate is one of max_rounds rounds.
    A floor far above the top of X leaves a window of one degree below the
    floor, and no cells: the cone is X, without homology from the floor up.
    """
    R = X.algebra
    if not X.is_finite():
        raise UnboundedInput("semifree replacement needs a finite module")
    top = (X.support_max() if X.total_dim() else 0) or 0
    win = Window(floor - 1, max(floor - 1, top + 2))
    cells, diff_rows, to_x = [], [], []
    F, bases, blocks, columns = _Cells(R, (), diff_rows), {}, {}, {}
    # cone degree m reads cells of degree m - 2, realized from floor + 1 up;
    # the gate reports degree floor only when R has no generators
    start, bottom = win.hi + 1, floor + 1
    for _ in range(max_rounds):
        reps = []
        for n in range(start, bottom - 1, -1):
            reps = _cone_classes(X, F, to_x, n, bases, blocks, columns)
            if reps:
                break
        if not reps:
            G = FreeDGModule(R, tuple(cells), tuple(map(tuple, diff_rows)))
            realized = to_degreewise(G, win, name="cells")
            p = ChainMap(realized, X, 0, {m: _evaluate(G, X, to_x, m, columns)
                                          for m in win.degrees()})
            H = homology(mapping_cone(p))
            bad = [n for n in sorted(H.dims(), reverse=True) if n >= floor]
            if not bad:
                return SemifreeReplacement(G, realized, p, floor)
            start, bottom = bad[0], min(bottom, bad[0])
            continue
        db = X.dim(n)
        for den, col in reps:  # the cone's X part first, then the shifted cells'
            col_polys = _vector_to_poly_column(F, n - 1, (den, {i - db: x for i, x in col.items()
                                                                if i >= db}))
            cells.append((f"c{len(cells)}", n))
            for i, row in enumerate(diff_rows):
                row.append(col_polys[i].scale(-1) if i < len(col_polys) else R.zero())
            diff_rows.append([R.zero()] * len(cells))
            to_x.append((den, {i: x for i, x in col.items() if i < db}))
        F, bases, blocks, columns = _Cells(R, tuple(cells), diff_rows), {}, {}, {}
        start = n - 1
    raise WindowTooSmall("semifree replacement did not stabilize")


@dataclass
class RHomResult:
    """Derived Hom homology with its certified window.

    replacement is the source's semifree replacement, or None when the
    source or the target is zero and no replacement was built."""

    dims: dict
    window: Window
    hom_module: DGModule
    replacement: SemifreeReplacement | None

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
        return RHomResult({}, w, zero_module(X.algebra), None)
    y_lo = Y.support_min()
    floor = y_lo - w.hi - 2
    rep = semifree_replacement(X, floor)
    hom = hom_from_free(rep.cells, Y, name=f"RHom({X.name},{Y.name})")
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
