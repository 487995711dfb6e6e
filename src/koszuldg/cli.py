"""Command-line entry points: every computation as a reproducible run.

Flags follow one pattern across subcommands: --group takes a codegree list
(``2`` or ``4,6``) or a catalog name (``SU(3)``), --window takes ``lo:hi``,
modules come from files in the text format or from the builtin names ``k``
(residue field) and ``I`` (basic injective, windowed), and --format selects
the table or JSON rendering of the run report.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from .grlin import Window
from . import algebra as alg
from .algebra import parse_group
from . import resolve as rs
from . import duality as du
from . import adams as ad
from . import groups as gr
from .modfile import ParseError, parse_module_file, print_module, window_error
from .report import RunReport, content_hash


def parse_window(spec: str) -> Window:
    m = re.fullmatch(r"(-?\d+):(-?\d+)", spec)
    if not m:
        raise ValueError(f"window must be lo:hi, got {spec!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if err := window_error(lo, hi):
        raise ValueError(err)
    return Window(lo, hi)


def load_module(spec: str, R: alg.PolyAlgebra | None, w: Window | None,
                inputs: dict, slot: str):
    """A builtin name or a module file path, given by the flag --slot."""
    if spec is None:
        raise ValueError(f"this command needs --{slot}")
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


def cmd_homology(args, rep: RunReport) -> None:
    M = load_module(args.module, _group_ring(args), _window(args), rep.inputs, "module")
    H = alg.homology(M)
    rep.window = H.window() or M.window()
    rep.tables["homology"] = {n: d for n, d in sorted(H.dims().items())}
    rep.add_check("d.d=0", True, "validated on construction")


def cmd_ext(args, rep: RunReport) -> None:
    R = _group_ring(args, required=True)
    M = load_module(args.M, R, _window(args), rep.inputs, "M")
    N = load_module(args.N, R, _window(args), rep.inputs, "N")
    routes = (["via_free", "via_injective"] if args.route == "both"
              else [args.route])
    tables = {route: rs.ext_bigraded(M, N, route) for route in routes}
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


def cmd_rhom(args, rep: RunReport) -> None:
    R = _group_ring(args, required=True)
    w = _window(args) or Window(-6, 6)
    X = load_module(args.M, R, w, rep.inputs, "M")
    Y = load_module(args.N, R, w, rep.inputs, "N")
    out = rs.rhom_homology(X, Y, w)
    rep.window = out.window
    rep.tables["derived_maps"] = {n: out.dims.get(n, 0) for n in out.window.guaranteed()}
    rep.add_check("window_certified", True, str(out.window))


def cmd_adams(args, rep: RunReport) -> None:
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


def cmd_koszul_t(args, rep: RunReport) -> None:
    M = load_module(args.module, _group_ring(args), _window(args), rep.inputs, "module")
    T = du.functor_T(M)
    H = alg.homology(T)
    rep.window = H.window() or T.window()
    rep.tables["module"] = print_module(T).splitlines()
    rep.tables["homology"] = dict(sorted(H.dims().items()))
    rep.add_check("exterior_relations", True, "contraction cycles validated")


def cmd_koszul_s(args, rep: RunReport) -> None:
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


def cmd_roundtrip(args, rep: RunReport) -> None:
    M = load_module(args.module, _group_ring(args), _window(args), rep.inputs, "module")
    out = du.roundtrip_check(M)
    rep.tables["left_homology"] = dict(sorted(out.left_dims.items()))
    rep.tables["right_homology"] = dict(sorted(out.right_dims.items()))
    rep.add_check("roundtrip_homology", out.agrees, out.side)


def cmd_endcheck(args, rep: RunReport) -> None:
    g = parse_group(args.group)
    rep.inputs["group"] = f"builtin:{g}"
    dc = du.double_centralizer_check(g, _window(args))
    rep.tables["endomorphism_homology"] = dict(sorted(dc.homology_dims.items()))
    rep.tables["exterior_dims"] = dict(sorted(dc.exterior_dims.items()))
    rep.add_check("double_centralizer_dims", dc.dims_match)
    # a failing relation among contraction classes fails this check too
    rep.add_check("contraction_products_independent",
                  dc.relations_ok and dc.products_independent)
    cr = du.cartan_map(dc.dga)
    rep.add_check("cartan_chain_map", cr.chain_map_ok)
    rep.add_check("cartan_homology_iso", cr.homology_iso)
    rep.add_check("cartan_multiplicative", cr.multiplicative_on_homology)


def cmd_recognize_k(args, rep: RunReport) -> None:
    M = load_module(args.module, _group_ring(args), _window(args), rep.inputs, "module")
    out = du.recognize_k(M)
    rep.tables["images"] = {i: f"degree {d}" for i, (d, _) in enumerate(out.images)}
    rep.add_check("cone_acyclic", out.cone_acyclic)
    rep.add_check("hits_homology_generator", out.nonzero_in_degree_zero)


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
    images = {}
    for piece in args.map.split(";"):
        parts = [part.strip() for part in piece.split("->")]
        if len(parts) != 2:
            raise ValueError(f"--map: {piece!r} is not one 'x->image' piece")
        lhs, rhs = parts
        if lhs not in S.varnames:
            raise ValueError(f"--map: {lhs!r} is not a source variable "
                             f"({', '.join(S.varnames)})")
        if lhs in images:
            raise ValueError(f"--map: {lhs!r} is given twice")
        images[lhs] = parse_poly(T, rhs)
    missing = [x for x in S.varnames if x not in images]
    if missing:
        raise ValueError(f"--map: no image for {', '.join(missing)}")
    ordered = tuple(images[x] for x in S.varnames)
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
            m = re.fullmatch(r"(\d+(?:/0*[1-9]\d*)?)", factor)
            if m:
                coef *= Fraction(m.group(1))
                continue
            m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?", factor)
            if not m or m.group(1) not in T.varnames:
                raise ValueError(f"cannot parse factor {factor!r}")
            exps[T.varnames.index(m.group(1))] += int(m.group(2) or 1)
        out = out + alg.Poly(T, {tuple(exps): sign * coef})
    return out


def cmd_groups(args, rep: RunReport) -> None:
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
        return
    if action == "shift-check":
        N = load_module(args.module, rm.target, _window(args), rep.inputs, "module")
        out = gr.shift_law_check(rm, N)
        rep.tables["upper_shriek_homology"] = dict(sorted(out.dims_left.items()))
        rep.tables["shifted_restriction_homology"] = dict(sorted(out.dims_right.items()))
        rep.add_check("shift_law", out.passed,
                      f"computed shift {out.computed_shift}, expected {out.expected_shift}")
        return
    which = {"restrict": (gr.restrict_scalars, rm.target),
             "extend": (gr.extend_scalars, rm.source),
             "coextend": (gr.coextend_scalars, rm.source),
             "shriek": (gr.r_shriek_left, rm.source)}
    fn, ring = which[action]
    M = load_module(args.module, ring, _window(args), rep.inputs, "module")
    if action == "shriek":
        dd = gr.derived_dual(rm)  # shared by the shriek and its comparison
        out = gr.r_shriek_left(rm, M, dd=dd)
    else:
        out = fn(rm, M)
    rep.tables["module"] = print_module(out).splitlines()
    rep.tables["homology"] = dict(sorted(alg.homology_dims(out).items()))
    if action == "shriek":
        if dd.resolution.length == 0:
            co_dims = alg.homology_dims(gr.coextend_scalars(rm, M))
            rep.add_check("matches_coextension_homology",
                          alg.homology_dims(out) == co_dims)
        elif rs.is_zero_diff(M) and M.is_finite():
            rep.add_check("matches_derived_coextension_homology",
                          alg.homology_dims(out) ==
                          gr.derived_coextension_dims(rm, M))
        else:
            rep.skip_check("coextension_comparison", "needs a zero-differential "
                           "module in positive projective dimension")
    else:
        rep.add_check("constructed", True)


def cmd_catalog(args, rep: RunReport) -> None:
    rep.tables["groups"] = {
        name: {"codegrees": list(g.codegrees), "rank": g.rank, "dim": g.dim_g}
        for name, g in alg.catalog()}
    rep.tables["ring_maps"] = {
        name: {"c": rm.relative_dimension,
               "images": [str(p) for p in rm.images]}
        for name, rm in gr.catalog_ring_maps().items()}
    rep.add_check("catalog", True)


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


# a subcommand's flags, by the keys its table row names
_FLAGS = {
    "action": ("action", {"choices": ["restrict", "extend", "coextend",
                                      "dual", "shriek", "shift-check"]}),
    "pair": ("--pair", {"help": "catalog pair name, e.g. T<SU(2)"}),
    "source": ("--source", {"help": "source group when giving an explicit map"}),
    "target": ("--target", {"help": "target group when giving an explicit map"}),
    "map": ("--map", {"help": "explicit images, e.g. 'x1->y1^2'"}),
    "group": ("--group", {"help": "codegree list like 4,6 or a catalog name"}),
    "window": ("--window", {"help": "degree window lo:hi"}),
    "format": ("--format", {"choices": ["table", "json"], "default": "table"}),
    "module": ("--module", {"required": True, "help": "module file, or builtin k / I"}),
    "groups_module": ("--module", {"help": "module file or builtin k / I"}),
    "M": ("--M", {"required": True, "help": "module file or builtin k / I"}),
    "N": ("--N", {"required": True, "help": "module file or builtin k / I"}),
    "route": ("--route", {"choices": ["via_free", "via_injective", "both"],
                          "default": "both"}),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="koszuldg",
        description="exact computations with torsion modules over polynomial "
                    "cohomology rings")
    sub = top.add_subparsers(dest="cmd", required=True)
    # one row per subcommand: name, body, help, flags.  The bodies are read
    # here, when the parser is built, so a wrapped cmd_* is the one called.
    for name, body, text, flags in (
            ("homology", cmd_homology, "homology table of a module file",
             "group window format module"),
            ("ext", cmd_ext, "bigraded Ext of two finite modules",
             "group window format M N route"),
            ("rhom", cmd_rhom, "derived-category maps, degreewise",
             "group window format M N"),
            ("adams", cmd_adams, "second page, abutment, degeneration",
             "group window format M N"),
            ("koszul-t", cmd_koszul_t, "duality functor into exterior modules",
             "group window format module"),
            ("koszul-s", cmd_koszul_s, "duality functor into torsion modules",
             "window format module"),
            ("roundtrip", cmd_roundtrip, "duality round-trip homology report",
             "group window format module"),
            ("endcheck", cmd_endcheck, "double centralizer and the comparison map",
             "group window format"),
            ("recognize-k", cmd_recognize_k, "comparison map from the Koszul model",
             "group window format module"),
            ("groups", cmd_groups, "change-of-groups functors",
             "action pair source target map groups_module window format"),
            ("catalog", cmd_catalog, "groups and subgroup pairs shipped", "format")):
        p = sub.add_parser(name, help=text)
        for key in flags.split():
            flag, kwargs = _FLAGS[key]
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=body)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing never changes a parser."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand: its body fills the report; main times the run,
    prints the report and exits 0 when every computed check passes, 1 when
    one fails, and 2 with a JSON error on refused input."""
    args = _parser().parse_args(argv)
    started = time.time()
    rep = RunReport(f"groups {args.action}" if args.cmd == "groups" else args.cmd)
    try:
        args.fn(args, rep)
    except (ParseError, ValueError, OSError) as exc:
        sys.stdout.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 2
    rep.ms = int((time.time() - started) * 1000)
    sys.stdout.write(rep.to_json() + "\n" if args.format == "json" else rep.to_text())
    return 0 if rep.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
