"""Command-line entry points: every computation as a reproducible run.

Flags follow one pattern across subcommands: --group takes a codegree list
(``2`` or ``4,6``) or a catalog name (``SU(3)``), --window takes ``lo:hi``,
modules come from files in the text format or from the builtin names ``k``
(residue field) and ``I`` (basic injective, windowed), and --format selects
the table or JSON rendering of the run report.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .grlin import Window
from . import algebra as alg
from . import resolve as rs
from . import duality as du
from . import adams as ad
from . import groups as gr
from .modfile import ParseError, parse_module_file, print_module
from .report import RunReport, content_hash


def parse_group(spec: str) -> alg.GroupData:
    if re.fullmatch(r"[0-9][0-9,]*", spec):
        return alg.GroupData(tuple(int(x) for x in spec.split(",") if x))
    return alg.named_group(spec)


def parse_window(spec: str) -> Window:
    m = re.fullmatch(r"(-?\d+):(-?\d+)", spec)
    if not m:
        raise ValueError(f"window must be lo:hi, got {spec!r}")
    return Window(int(m.group(1)), int(m.group(2)))


def load_module(spec: str, R: alg.PolyAlgebra | None, w: Window | None,
                inputs: dict, slot: str):
    """A builtin name or a module file path."""
    if spec == "k":
        if R is None:
            raise ValueError("builtin 'k' needs --group")
        inputs[slot] = f"builtin:k[{R.group}]"
        return alg.residue_field(R)
    if spec == "I":
        if R is None or w is None:
            raise ValueError("builtin 'I' needs --group and --window")
        inputs[slot] = f"builtin:I[{R.group}]{w.lo}:{w.hi}"
        return alg.basic_injective(R, w)
    with open(spec, "rb") as fh:
        inputs[slot] = content_hash(fh.read())
    return parse_module_file(spec, name=slot)


def _finish(report: RunReport, started: float, fmt: str) -> int:
    report.ms = int((time.time() - started) * 1000)
    out = report.to_json() if fmt == "json" else report.to_text()
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0 if report.all_passed() else 1


def cmd_homology(args) -> int:
    started = time.time()
    rep = RunReport("homology")
    M = load_module(args.module, _group_ring(args), _window(args), rep.inputs, "module")
    H = alg.homology(M)
    rep.window = H.window() or M.window()
    rep.tables["homology"] = {n: d for n, d in sorted(H.dims().items())}
    rep.add_check("d.d=0", True, "validated on construction")
    return _finish(rep, started, args.format)


def cmd_ext(args) -> int:
    started = time.time()
    rep = RunReport("ext")
    R = _group_ring(args, required=True)
    M = load_module(args.M, R, _window(args), rep.inputs, "M")
    N = load_module(args.N, R, _window(args), rep.inputs, "N")
    routes = (["via_free", "via_injective"] if args.route == "both"
              else [args.route])
    tables = {}
    for route in routes:
        tables[route] = rs.ext_bigraded(M, N, route)
    first = tables[routes[0]]
    rep.tables["ext"] = {f"s={s},t={t}": d for (s, t), d in sorted(first.entries.items())}
    rep.tables["by_total_degree"] = dict(sorted(first.abutment_dims().items()))
    if len(routes) == 2:
        rep.add_check("route_agreement", tables["via_free"] == tables["via_injective"])
    rep.add_check("row_bound", first.max_row() <= R.r,
                  f"max row {first.max_row()} <= rank {R.r}")
    ts = [t for _, t in first.entries] or [0]
    # internal degrees from 0 up, or the classes' own range when all are below 0
    rep.window = Window(0 if max(ts) >= 0 else min(ts), max(ts))
    return _finish(rep, started, args.format)


def cmd_rhom(args) -> int:
    started = time.time()
    rep = RunReport("rhom")
    R = _group_ring(args, required=True)
    w = _window(args) or Window(-6, 6)
    X = load_module(args.M, R, w, rep.inputs, "M")
    Y = load_module(args.N, R, w, rep.inputs, "N")
    out = rs.rhom_homology(X, Y, w)
    rep.window = out.window
    rep.tables["derived_maps"] = {n: out.dims.get(n, 0) for n in out.window.guaranteed()}
    rep.add_check("window_certified", True, str(out.window))
    return _finish(rep, started, args.format)


def cmd_adams(args) -> int:
    started = time.time()
    rep = RunReport("adams")
    R = _group_ring(args, required=True)
    w = _window(args)
    X = load_module(args.M, R, w, rep.inputs, "M")
    Y = load_module(args.N, R, w, rep.inputs, "N")
    page = ad.e2_page(X, Y, w)
    rep.window = page.window
    rep.tables["e2"] = {f"s={s},t={t}": d for (s, t), d in sorted(page.e2.entries.items())}
    rep.tables["abutment"] = dict(sorted(page.abutment.items()))
    rep.tables["comparison"] = {n: {"abutment": a, "e2_total": e}
                                for n, (a, e) in sorted(page.comparisons.items())}
    rep.add_check("row_bound", page.row_bound_ok)
    rep.add_check("euler_characteristic", page.euler_ok)
    rep.add_check("degenerates_at_e2", page.degenerate,
                  "abutment equals the page everywhere" if page.degenerate
                  else "higher differentials present")
    return _finish(rep, started, args.format)


def cmd_koszul_t(args) -> int:
    started = time.time()
    rep = RunReport("koszul-t")
    M = load_module(args.module, _group_ring(args), _window(args), rep.inputs, "module")
    T = du.functor_T(M)
    H = alg.homology(T)
    rep.window = H.window() or T.window()
    rep.tables["module"] = print_module(T).splitlines()
    rep.tables["homology"] = dict(sorted(H.dims().items()))
    rep.add_check("exterior_relations", True, "contraction cycles validated")
    return _finish(rep, started, args.format)


def cmd_koszul_s(args) -> int:
    started = time.time()
    rep = RunReport("koszul-s")
    N = load_module(args.module, None, None, rep.inputs, "module")
    if not isinstance(N.algebra, alg.ExtAlgebra):
        raise ValueError("koszul-s expects a module over the exterior algebra")
    R = alg.PolyAlgebra(N.algebra.group)
    w = _window(args) or Window(0, (N.support_max() or 0) + sum(R.codegrees) + 6)
    S = du.functor_S(N, R, w)
    H = alg.homology(S)
    rep.window = H.window() or S.window()
    rep.tables["module"] = print_module(S).splitlines()
    rep.tables["homology"] = dict(sorted(H.dims().items()))
    rep.add_check("torsion", S.is_torsion())
    return _finish(rep, started, args.format)


def cmd_roundtrip(args) -> int:
    started = time.time()
    rep = RunReport("roundtrip")
    M = load_module(args.module, _group_ring(args), _window(args), rep.inputs, "module")
    out = du.roundtrip_check(M)
    rep.tables["left_homology"] = dict(sorted(out.left_dims.items()))
    rep.tables["right_homology"] = dict(sorted(out.right_dims.items()))
    rep.add_check("roundtrip_homology", out.agrees, out.side)
    return _finish(rep, started, args.format)


def cmd_endcheck(args) -> int:
    started = time.time()
    rep = RunReport("endcheck")
    g = parse_group(args.group)
    rep.inputs["group"] = f"builtin:{g}"
    dc = du.double_centralizer_check(g, _window(args))
    rep.tables["endomorphism_homology"] = dict(sorted(dc.homology_dims.items()))
    rep.tables["exterior_dims"] = dict(sorted(dc.exterior_dims.items()))
    rep.add_check("double_centralizer_dims", dc.dims_match)
    rep.add_check("contraction_products_independent", dc.products_independent)
    e = du.end_dga(alg.PolyAlgebra(g), _window(args))
    cr = du.cartan_map(e)
    rep.add_check("cartan_chain_map", cr.chain_map_ok)
    rep.add_check("cartan_homology_iso", cr.homology_iso)
    rep.add_check("cartan_multiplicative", cr.multiplicative_on_homology)
    return _finish(rep, started, args.format)


def cmd_recognize_k(args) -> int:
    started = time.time()
    rep = RunReport("recognize-k")
    M = load_module(args.module, _group_ring(args), _window(args), rep.inputs, "module")
    out = du.recognize_k(M)
    rep.tables["images"] = {i: f"degree {d}" for i, (d, _) in enumerate(out.images)}
    rep.add_check("cone_acyclic", out.cone_acyclic)
    rep.add_check("hits_homology_generator", out.nonzero_in_degree_zero)
    return _finish(rep, started, args.format)


def _ring_map_from_args(args, rep) -> gr.RingMap:
    if args.pair:
        maps = gr.catalog_ring_maps()
        if args.pair not in maps:
            raise ValueError(f"unknown pair {args.pair!r}; "
                             f"catalog: {', '.join(sorted(maps))}")
        rep.inputs["pair"] = args.pair
        return maps[args.pair]
    if not (args.source and args.target and args.map):
        raise ValueError("groups commands need --pair or --source/--target/--map")
    S = alg.PolyAlgebra(parse_group(args.source))
    tgt_group = parse_group(args.target)
    T = alg.PolyAlgebra(tgt_group,
                        varnames=tuple(f"y{i+1}" for i in range(tgt_group.rank)))
    images = []
    for piece in args.map.split(";"):
        lhs, rhs = piece.split("->")
        images.append((lhs.strip(), parse_poly(T, rhs.strip())))
    by_name = dict(images)
    ordered = tuple(by_name[x] for x in S.varnames)
    rep.inputs["map"] = args.map
    return gr.RingMap(S, T, ordered)


def parse_poly(T: alg.PolyAlgebra, text: str) -> alg.Poly:
    """Parse '2/3*y1^2*y2 - y3' in the target's variables."""
    text = text.replace(" ", "")
    if text == "0":
        return T.zero()
    out = T.zero()
    for chunk in re.split(r"(?=[+-])", text):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = Fraction(-1)
            chunk = chunk[1:]
        coef = Fraction(1)
        exps = [0] * T.r
        for factor in chunk.split("*"):
            if not factor:
                continue
            m = re.fullmatch(r"(\d+(?:/\d+)?)", factor)
            if m:
                coef *= Fraction(m.group(1))
                continue
            m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?", factor)
            if not m or m.group(1) not in T.varnames:
                raise ValueError(f"cannot parse factor {factor!r}")
            exps[T.varnames.index(m.group(1))] += int(m.group(2) or 1)
        out = out + alg.Poly(T, {tuple(exps): sign * coef})
    return out


def cmd_groups(args) -> int:
    started = time.time()
    rep = RunReport(f"groups {args.action}")
    rm = _ring_map_from_args(args, rep)
    rep.inputs["ring_map"] = str(rm)
    rep.tables["relative_dimension"] = rm.relative_dimension
    action = args.action
    if action == "dual":
        dd = gr.derived_dual(rm)
        rep.tables["dual_generators"] = {lab: deg for lab, deg in dd.dual.basis}
        rep.tables["dual_homology"] = dict(sorted(dd.homology_dims.items()))
        rep.add_check("free_rank_one", dd.free_rank_one,
                      f"generator degree {dd.generator_degree}")
        return _finish(rep, started, args.format)
    if action == "shift-check":
        N = load_module(args.module, rm.target, _window(args), rep.inputs, "module")
        out = gr.shift_law_check(rm, N)
        rep.tables["upper_shriek_homology"] = dict(sorted(out.dims_left.items()))
        rep.tables["shifted_restriction_homology"] = dict(sorted(out.dims_right.items()))
        rep.add_check("shift_law", out.passed,
                      f"computed shift {out.computed_shift}, expected {out.expected_shift}")
        return _finish(rep, started, args.format)
    which = {"restrict": (gr.restrict_scalars, rm.target),
             "extend": (gr.extend_scalars, rm.source),
             "coextend": (gr.coextend_scalars, rm.source),
             "shriek": (gr.r_shriek_left, rm.source)}
    if action not in which:
        raise ValueError(f"unknown groups action {action!r}")
    fn, ring = which[action]
    M = load_module(args.module, ring, _window(args), rep.inputs, "module")
    out = fn(rm, M)
    rep.tables["module"] = print_module(out).splitlines()
    rep.tables["homology"] = dict(sorted(alg.homology_dims(out).items()))
    if action == "shriek":
        from koszuldg.resolve import is_zero_diff
        dd = gr.derived_dual(rm)
        if dd.resolution.length == 0:
            co_dims = alg.homology_dims(gr.coextend_scalars(rm, M))
            rep.add_check("matches_coextension_homology",
                          alg.homology_dims(out) == co_dims)
        elif is_zero_diff(M) and M.is_finite():
            rep.add_check("matches_derived_coextension_homology",
                          alg.homology_dims(out) ==
                          gr.derived_coextension_dims(rm, M))
        else:
            rep.add_check("coextension_comparison", True,
                          "skipped: needs a zero-differential module in "
                          "positive projective dimension")
    else:
        rep.add_check("constructed", True)
    return _finish(rep, started, args.format)


def cmd_catalog(args) -> int:
    started = time.time()
    rep = RunReport("catalog")
    rep.tables["groups"] = {
        name: {"codegrees": list(g.codegrees), "rank": g.rank, "dim": g.dim_g}
        for name, g in alg.catalog()}
    rep.tables["ring_maps"] = {
        name: {"c": rm.relative_dimension,
               "images": [str(p) for p in rm.images]}
        for name, rm in gr.catalog_ring_maps().items()}
    rep.add_check("catalog", True)
    return _finish(rep, started, args.format)


def _group_ring(args, required: bool = False):
    spec = getattr(args, "group", None)
    if spec:
        return alg.PolyAlgebra(parse_group(spec))
    if required:
        raise ValueError("this command needs --group")
    return None


def _window(args):
    spec = getattr(args, "window", None)
    return parse_window(spec) if spec else None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="koszuldg",
        description="exact computations with torsion modules over polynomial "
                    "cohomology rings")
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p, module=False, pair_mn=False, group=True):
        if group:
            p.add_argument("--group", help="codegree list like 4,6 or a catalog name")
        p.add_argument("--window", help="degree window lo:hi")
        p.add_argument("--format", choices=["table", "json"], default="table")
        if module:
            p.add_argument("--module", required=True,
                           help="module file, or builtin k / I")
        if pair_mn:
            p.add_argument("--M", required=True, help="module file or builtin k / I")
            p.add_argument("--N", required=True, help="module file or builtin k / I")

    p = sub.add_parser("homology", help="homology table of a module file")
    common(p, module=True)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("ext", help="bigraded Ext of two finite modules")
    common(p, pair_mn=True)
    p.add_argument("--route", choices=["via_free", "via_injective", "both"],
                   default="both")
    p.set_defaults(fn=cmd_ext)

    p = sub.add_parser("rhom", help="derived-category maps, degreewise")
    common(p, pair_mn=True)
    p.set_defaults(fn=cmd_rhom)

    p = sub.add_parser("adams", help="second page, abutment, degeneration")
    common(p, pair_mn=True)
    p.set_defaults(fn=cmd_adams)

    p = sub.add_parser("koszul-t", help="duality functor into exterior modules")
    common(p, module=True)
    p.set_defaults(fn=cmd_koszul_t)

    p = sub.add_parser("koszul-s", help="duality functor into torsion modules")
    common(p, module=True, group=False)
    p.set_defaults(fn=cmd_koszul_s)

    p = sub.add_parser("roundtrip", help="duality round-trip homology report")
    common(p, module=True)
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("endcheck", help="double centralizer and the comparison map")
    common(p)
    p.set_defaults(fn=cmd_endcheck)

    p = sub.add_parser("recognize-k", help="comparison map from the Koszul model")
    common(p, module=True)
    p.set_defaults(fn=cmd_recognize_k)

    p = sub.add_parser("groups", help="change-of-groups functors")
    p.add_argument("action", choices=["restrict", "extend", "coextend",
                                      "dual", "shriek", "shift-check"])
    p.add_argument("--pair", help="catalog pair name, e.g. T<SU(2)")
    p.add_argument("--source", help="source group when giving an explicit map")
    p.add_argument("--target", help="target group when giving an explicit map")
    p.add_argument("--map", help="explicit images, e.g. 'x1->y1^2'")
    p.add_argument("--module", help="module file or builtin k / I")
    p.add_argument("--window", help="degree window lo:hi")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_groups)

    p = sub.add_parser("catalog", help="groups and subgroup pairs shipped")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=cmd_catalog)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError) as exc:
        sys.stdout.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
