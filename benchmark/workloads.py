"""Seeded inputs, operations and output checks for the three workloads.

Each workload turns a seed into a fixed list of operations.  Every input is
generated with ``koszuldg.samples`` (plus the public constructors) and
pinned as module-file text with ``print_module``; an operation reads its
files back, so it always includes parsing.  Classes of inputs are drawn by
rejection until each class has its quota, so the operation mix, and with it
the cost of a pass, is the same for every seed while the modules differ.

An operation returns a canonical summary of its output.  The benchmark
digests that summary and compares it with stored reference digests at the
default seed; at every seed it checks the mutual oracles below, which do not
rely on the verdicts the program computes for itself:

* round trips: left and right homology dimensions and action ranks are
  equal, and the compared dimensions are not empty;
* Ext: the free and injective routes give the same table, the abutment
  follows from the table, and no row lies above the rank;
* E2 pages: the derived-Hom abutment equals the page total in every compared
  degree (rank one degenerates), every page degree is compared, and at
  least one degree is compared;
* Whitehead detection: homology is nonzero exactly when the Koszul dual side
  is, and no staged certificate is false;
* CLI: good files exit 0 with every reported check passed, malformed files
  exit 2 with a JSON error, and a few reports are cross-checked field by
  field.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, field

from koszuldg import adams as ad
from koszuldg import algebra as alg
from koszuldg import cli
from koszuldg import duality as du
from koszuldg import modfile
from koszuldg import resolve as rs
from koszuldg import samples as sm
from koszuldg.grlin import Window

from bench_setup import PAIRS

GROUPS = {"T": (2,), "T^2": (2, 2), "SU(2)": (4,), "SU(3)": (4, 6)}


@dataclass
class Op:
    """One operation: its input files, what to call, and its class."""

    name: str
    cls: str
    call: str                       # key into CALLS
    files: dict                     # slot -> module-file text
    params: dict = field(default_factory=dict)


def digest(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def inputs_digest(ops: list) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.name, op.call, op.params, sorted(op.files.items())],
                            sort_keys=True).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# input generation


def _ring(group: str):
    return alg.poly_algebra(alg.GroupData(GROUPS[group]))


def _ext_ring(group: str):
    return alg.ext_algebra(alg.GroupData(GROUPS[group]))


def _span(M) -> int:
    return M.support_max() - M.support_min()


def _draw(make, accept, rng, limit=5000):
    for _ in range(limit):
        M = make(rng)
        if accept(M):
            return M
    raise RuntimeError("input class quota could not be filled")


def _with_homology(sample, dims, spans):
    """Draw until a module has nonzero homology and a total dimension and
    degree span in the given ranges; both set the cost of an operation."""
    return lambda rng: _draw(
        sample,
        lambda M: (M.total_dim() in dims and _span(M) in spans
                   and not alg.homology(M).is_zero()), rng)


def _torsion(group, dims, spans):
    R = _ring(group)
    return _with_homology(
        lambda r: sm.random_torsion_dg_module(R, r, max_total=6), dims, spans)


def _exterior(group, dims, spans):
    L = _ext_ring(group)
    return _with_homology(
        lambda r: sm.random_lambda_module(L, r, max_total=6), dims, spans)


def _zero_diff(group, max_dim, max_pieces=2):
    R = _ring(group)
    return lambda rng: _draw(
        lambda r: sm.random_zero_diff_module(R, r, max_pieces=max_pieces),
        lambda M: M.total_dim() <= max_dim, rng)


def _interleave(classes: list) -> list:
    """Spread every class evenly over the pass, so that any prefix of the
    pass has about the same mix as the whole."""
    keyed = []
    for order, (cls, items) in enumerate(classes):
        for i, item in enumerate(items):
            keyed.append(((i + 0.5) / len(items), order, cls, item))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [(cls, item) for _, _, cls, item in keyed]


def _texts(*modules) -> dict:
    return {f"m{i}": modfile.print_module(M) for i, M in enumerate(modules)}


# roundtrip: (class, count, generator).  Rank-two torsion carries most of
# the time of a pass; the quotas put the median inside the T^2 exterior class
# and the tail inside the SU(3) torsion class for every seed.
ROUNDTRIP_CLASSES = (
    ("T/exterior", 6, _exterior("T", range(3, 7), range(7))),
    ("T/torsion", 8, _torsion("T", range(3, 7), range(7))),
    ("SU(3)/exterior", 4, _exterior("SU(3)", range(5, 7), range(12))),
    ("T^2/exterior", 24, _exterior("T^2", (6,), (2,))),
    ("SU(3)/torsion", 12, _torsion("SU(3)", (5,), (10,))),
    ("T^2/torsion-4", 5, _torsion("T^2", (4,), (3,))),
    ("T^2/torsion-5", 2, _torsion("T^2", (5,), (2,))),
)


def roundtrip_ops(seed: int) -> list:
    rng = random.Random(f"roundtrip:{seed}")
    classes = [(cls, [make(rng) for _ in range(count)])
               for cls, count, make in ROUNDTRIP_CLASSES]
    return [Op(f"rt{i:03d}", cls, "roundtrip", _texts(M))
            for i, (cls, M) in enumerate(_interleave(classes))]


def _ext_pair(group, sizes, max_pieces=2):
    """Seeded zero-differential pair whose total dimensions (dim M, dim N)
    are one of the given sizes."""
    make = _zero_diff(group, max(max(p) for p in sizes), max_pieces)

    def pair(rng):
        while True:
            M, N = make(rng), make(rng)
            if (M.total_dim(), N.total_dim()) in sizes:
                return M, N
    return pair


def _sizes(lo, hi, total=None):
    return {(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)
            if total is None or a + b == total}


def _torsion_pair(group, dims):
    make = _torsion(group, dims, range(13))
    return lambda rng: (make(rng), make(rng))


def _whitehead_input(group):
    R = _ring(group)
    return lambda rng: (sm.random_torsion_dg_module(R, rng, max_total=6),)


# Each class is fixed by the total dimensions of its inputs, which set the
# cost of an Ext or E2 computation; the rank-two Ext inputs are single
# shifted cyclic quotients, whose resolutions all have the same shape.
EXT_ADAMS_CLASSES = (
    ("ext/T", 20, "ext", _ext_pair("T", _sizes(1, 6, 6))),
    ("ext/T^2-4x2", 12, "ext", _ext_pair("T^2", {(4, 2)}, max_pieces=1)),
    ("ext/T^2-2x4", 12, "ext", _ext_pair("T^2", {(2, 4)}, max_pieces=1)),
    ("ext/SU(3)-4x2", 12, "ext", _ext_pair("SU(3)", {(4, 2)}, max_pieces=1)),
    ("ext/SU(3)-2x4", 12, "ext", _ext_pair("SU(3)", {(2, 4)}, max_pieces=1)),
    ("e2/T", 40, "e2", _torsion_pair("T", (4, 5))),
    ("e2/SU(2)", 40, "e2", _torsion_pair("SU(2)", (4, 5))),
    ("whitehead/T", 16, "whitehead", _whitehead_input("T")),
    ("whitehead/T^2", 16, "whitehead", _whitehead_input("T^2")),
)


def ext_adams_ops(seed: int) -> list:
    rng = random.Random(f"ext_adams:{seed}")
    classes = []
    for cls, count, call, make in EXT_ADAMS_CLASSES:
        classes.append((cls, [(call, make(rng)) for _ in range(count)]))
    return [Op(f"ea{i:03d}", cls, call, _texts(*mods))
            for i, (cls, (call, mods)) in enumerate(_interleave(classes))]


# -- cli_files ---------------------------------------------------------------


def _windowed_koszul(group, windows):
    """The Koszul model realized in the i-th of the given windows.  It is
    canonical, so it does not depend on the seed; a random basis change
    would make its blocks dense and let these inputs dominate the pass."""
    R = _ring(group)
    return lambda rng, i: ({}, [alg.to_degreewise(
        alg.koszul_model(R), Window(*windows[i]), name="kbar")])


# Over T^2 the windowed Koszul models and endcheck are the heaviest commands
# (80-230 ms and 260 ms); with both formats they are the top 12 operations,
# so the tail percentile, with 10 operations beyond it, falls among these
# seed-independent inputs and not among seeded ones, whose costs spread
# widely from one seed to the next.
KBAR_WINDOWS = {"T": [(-12, 2)],
                "T^2": [(-16, 2), (-14, 2), (-14, 0), (-12, 2), (-12, 0)]}


def _k_plus_cone(group):
    R = _ring(group)

    def make(rng):
        powers = [rng.randint(1, 2) for _ in range(R.r)]
        piece = sm.cyclic_quotient(R, powers).shift(-1 - 2 * rng.randint(0, 1))
        cone = alg.mapping_cone(alg.identity_map(piece))
        return sm.conjugate(alg.direct_sum(alg.residue_field(R), cone), rng,
                            name="k+cone")
    return make


def _malformed(kind):
    """A valid torsion module with a seeded defect appended below its
    support: a d.d != 0 chain, a Leibniz violation, or an unknown label."""
    R = _ring("T")

    def make(rng):
        M = _torsion("T", range(2, 7), range(7))(rng)
        lines = modfile.print_module(M).splitlines()
        lo, hi = M.lo, M.hi
        c1, c2 = rng.choice([1, 2, -1, 3]), rng.choice([1, -2, 5])
        extra = []
        if kind == "dd":
            lo2 = lo - 3
            extra = [f"component {lo - 1} zq0", f"component {lo - 2} zq1",
                     f"component {lo - 3} zq2",
                     f"d zq0 = {c1}*zq1", f"d zq1 = {c2}*zq2"]
        elif kind == "leibniz":
            lo2 = lo - 4
            extra = [f"component {lo - 1} za", f"component {lo - 2} zb",
                     f"component {lo - 3} zc", f"component {lo - 4} ze",
                     f"d za = {c1}*zb", f"{R.varnames[0]} za = zc",
                     f"d zc = {c2}*ze"]
        else:
            lo2 = lo
            first = next(ln.split()[2] for ln in lines
                         if ln.startswith("component "))
            extra = [f"d {first} = {c1}*zq_unknown"]
        lines = [f"window {lo2} {hi}" if ln.startswith("window ") else ln
                 for ln in lines]
        return "\n".join(lines + extra) + "\n"
    return make


def _cli_ext_pair(group, sizes):
    """An Ext pair with a class in internal degree >= 0; with every class
    below 0 the ext command rejects its own report window (KNOWN_DEFECTS)."""
    make = _ext_pair(group, sizes)

    def pair(rng):
        while True:
            M, N = make(rng)
            table = rs.ext_bigraded(M, N, "via_free")
            if max(t for _, t in table.entries) >= 0:
                return [M, N]
    return pair


_PAIR_RINGS = {"T<SU(2)": ("T", "SU(2)"), "T<T^2-diag": ("T", "T^2"),
               "T<T^2-first": ("T", "T^2"), "id-T": ("T", "T"),
               "id-T^2": ("T^2", "T^2")}


def _groups(action, pairs):
    """One input per pair: a torsion module over the ring the action reads.
    Coextension gets zero-differential modules: on some modules with a
    differential it fails an internal assertion (KNOWN_DEFECTS)."""
    def make(rng, i):
        pair = pairs[i % len(pairs)]
        target, source = _PAIR_RINGS[pair]
        if action == "coextend":
            return {"pair": pair}, [_zero_diff(source, 4)(rng)]
        ring = target if action in ("shift-check", "restrict") else source
        return {"pair": pair}, [_torsion(ring, range(3, 5), range(7))(rng)]
    return make


def _files(make):
    return lambda rng, i: ({}, make(rng))


def _cli_specs():
    """(class, count, argv template, generator (rng, index) -> (params,
    modules or text)).  {m0}/{m1}/{pair} in the template are filled in when
    the operation runs."""
    tor = {g: _torsion(g, (4, 5), range(9)) for g in ("T", "T^2", "SU(3)")}
    ext = {"T": _exterior("T", range(3, 7), range(7)),
           "T^2": _exterior("T^2", (6,), (2,))}
    koszul_s = {"T": 4, "T^2": 10}
    one = {"T": "2", "T^2": "2,2"}
    specs = [
        (f"homology/{g}", 4, ["homology", "--module", "{m0}"],
         _files(lambda rng, g=g: [tor[g](rng)])) for g in ("T", "T^2", "SU(3)")]
    specs += [
        ("ext/T", 6, ["ext", "--group", "2", "--M", "{m0}", "--N", "{m1}"],
         _files(_cli_ext_pair("T", _sizes(1, 6, 6)))),
        ("ext/T^2", 6, ["ext", "--group", "2,2", "--M", "{m0}", "--N", "{m1}"],
         _files(_cli_ext_pair("T^2", _sizes(1, 4, 5)))),
        ("rhom/T", 6, ["rhom", "--group", "2", "--M", "{m0}", "--N", "{m1}"],
         _files(lambda rng: [tor["T"](rng), tor["T"](rng)])),
        ("adams/T", 6, ["adams", "--group", "2", "--M", "{m0}", "--N", "{m1}"],
         _files(lambda rng: [tor["T"](rng), tor["T"](rng)])),
        ("roundtrip/T-torsion", 4, ["roundtrip", "--module", "{m0}"],
         _files(lambda rng: [tor["T"](rng)])),
        ("roundtrip/T-exterior", 4, ["roundtrip", "--module", "{m0}"],
         _files(lambda rng: [ext["T"](rng)])),
    ]
    for g in ("T", "T^2"):
        specs += [
            (f"koszul-t/{g}", 4, ["koszul-t", "--module", "{m0}"],
             _files(lambda rng, g=g: [tor[g](rng)])),
            (f"koszul-s/{g}", koszul_s[g], ["koszul-s", "--module", "{m0}"],
             _files(lambda rng, g=g: [ext[g](rng)])),
            (f"recognize-k/kbar-{g}", len(KBAR_WINDOWS[g]),
             ["recognize-k", "--module", "{m0}"],
             _windowed_koszul(g, KBAR_WINDOWS[g])),
            (f"recognize-k/k+cone-{g}", 2, ["recognize-k", "--module", "{m0}"],
             _files(lambda rng, g=g: [_k_plus_cone(g)(rng)])),
            (f"endcheck/{g}", 1, ["endcheck", "--group", one[g]],
             lambda rng, i: ({}, [])),
        ]
    # coextension along T<T^2-first always crashes (KNOWN_DEFECTS)
    for action in ("shift-check", "extend", "restrict", "coextend"):
        pairs = [p for p in PAIRS
                 if not (action == "coextend" and p == "T<T^2-first")]
        specs.append((f"groups/{action}", 8,
                      ["groups", action, "--pair", "{pair}", "--module", "{m0}"],
                      _groups(action, pairs)))
    specs += [
        ("malformed/dd", 4, ["homology", "--module", "{m0}"],
         _files(_malformed("dd"))),
        ("malformed/leibniz", 4, ["koszul-t", "--module", "{m0}"],
         _files(_malformed("leibniz"))),
        ("malformed/label", 4, ["roundtrip", "--module", "{m0}"],
         _files(_malformed("label"))),
    ]
    return specs


def cli_ops(seed: int) -> list:
    rng = random.Random(f"cli_files:{seed}")
    classes = []
    for cls, count, argv, make in _cli_specs():
        items = []
        for i in range(count):
            params, mods = make(rng, i)
            files = {"m0": mods} if isinstance(mods, str) else _texts(*mods)
            items.append((argv, params, files))
        classes.append((cls, items))
    ops = []
    for i, (cls, (argv, params, files)) in enumerate(_interleave(classes)):
        for fmt in ("table", "json"):
            ops.append(Op(f"cli{i:03d}-{fmt}", cls, "cli", files,
                          dict(params, argv=argv, format=fmt,
                               malformed=cls.startswith("malformed/"))))
    return ops


# Program defects this benchmark found.  Their inputs are kept out of the
# timed workloads, which must run without failures; every run replays them
# and its record says whether each is still present.
KNOWN_DEFECTS = (
    ("coextend along T<T^2-first raises IndexError (groups.coextend_scalars)",
     ["groups", "coextend", "--pair", "T<T^2-first", "--module", "{m0}"],
     {"m0": "algebra poly 2,2\nwindow -2 0\ncomplete both\n"
            "component -2 v\ncomponent 0 u\nx1 u = v\n"}),
    ("coextend along id-T fails 'composite escaped the solution space' on "
     "some modules with a differential (groups.coextend_scalars)",
     ["groups", "coextend", "--pair", "id-T", "--module", "{m0}"],
     {"m0": "algebra poly 2\nwindow -2 1\ncomplete both\n"
            "component -2 b\ncomponent -1 s0 s1\ncomponent 1 u\n"
            "d s0 = -b\nd s1 = -b\nx1 u = -s0 + s1\n"}),
    ("ext exits 2 when every Ext class has negative internal degree "
     "(cli.cmd_ext builds Window(0, t) with t < 0)",
     ["ext", "--group", "2", "--M", "{m0}", "--N", "{m1}"],
     {"m0": "algebra poly 2\nwindow 0 0\ncomplete both\ncomponent 0 e\n",
      "m1": "algebra poly 2\nwindow -6 -4\ncomplete both\n"
            "component -6 a\ncomponent -4 b\nx1 b = a\n"}),
)


def known_defects(workdir: str) -> list:
    """Replay each known defect once; report whether it still shows."""
    out = []
    for i, (what, argv, files) in enumerate(KNOWN_DEFECTS):
        op = Op(f"defect{i}", "defect", "cli", files,
                {"argv": argv, "format": "json", "malformed": False})
        paths = write_inputs([op], workdir)[op.name]
        try:
            s = run_cli(op, paths)
            outcome = f"exit {s['exit']}: {s['stdout'].strip()[:120]}"
            present = bool(check_cli(op, s))
        except Exception as exc:
            outcome, present = f"{type(exc).__name__}: {exc}", True
        out.append({"defect": what, "still_present": present, "outcome": outcome})
    return out


GENERATORS = {"roundtrip": roundtrip_ops, "ext_adams": ext_adams_ops,
              "cli_files": cli_ops}


def write_inputs(ops: list, workdir: str) -> dict:
    """Write every input file once; return op name -> {slot: path}."""
    paths = {}
    for op in ops:
        slots = {}
        for slot, text in op.files.items():
            fname = hashlib.sha256(text.encode()).hexdigest()[:16] + ".kdg"
            path = os.path.join(workdir, fname)
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            slots[slot] = path
        paths[op.name] = slots
    return paths


# ---------------------------------------------------------------------------
# operations: each returns a canonical summary of the program's output


def _keyed(d: dict) -> dict:
    return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): v
            for k, v in sorted(d.items())}


def _table(t) -> dict:
    return _keyed({k: v for k, v in t.entries.items() if v})


def run_roundtrip(op, paths):
    X = modfile.parse_module_file(paths["m0"], name="module")
    out = du.roundtrip_check(X)
    return {"side": out.side, "agrees": out.agrees,
            "left_dims": _keyed(out.left_dims),
            "right_dims": _keyed(out.right_dims),
            "left_action_ranks": _keyed(out.left_action_ranks),
            "right_action_ranks": _keyed(out.right_action_ranks)}


def run_ext(op, paths):
    M = modfile.parse_module_file(paths["m0"], name="M")
    N = modfile.parse_module_file(paths["m1"], name="N")
    free = rs.ext_bigraded(M, N, "via_free")
    inj = rs.ext_bigraded(M, N, "via_injective")
    return {"rank": M.algebra.r, "table": _table(free),
            "injective_table": _table(inj),
            "abutment": _keyed(free.abutment_dims())}


def run_e2(op, paths):
    X = modfile.parse_module_file(paths["m0"], name="X")
    Y = modfile.parse_module_file(paths["m1"], name="Y")
    page = ad.e2_page(X, Y)
    return {"rank": X.algebra.r, "e2": _table(page.e2),
            "abutment": _keyed(page.abutment),
            "comparisons": _keyed({n: list(v) for n, v in page.comparisons.items()}),
            "degenerate": page.degenerate, "euler_ok": page.euler_ok,
            "row_bound_ok": page.row_bound_ok}


def run_whitehead(op, paths):
    M = modfile.parse_module_file(paths["m0"], name="M")
    rep = ad.whitehead_detect(M)
    return {"rank": M.algebra.r, "homology_nonzero": rep.homology_nonzero,
            "dual_nonzero": rep.dual_nonzero,
            "stage_dims": [_keyed(d) for d in rep.stage_dims],
            "stage_action_iso": rep.stage_action_iso, "agrees": rep.agrees}


_MS = re.compile(r'("ms": |^ms: )\d+', re.M)


def run_cli(op, paths):
    argv = [a.format(pair=op.params.get("pair", ""), **paths) for a in op.params["argv"]]
    argv += ["--format", op.params["format"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"exit": code, "stdout": _MS.sub(r"\g<1>0", buf.getvalue())}


CALLS = {"roundtrip": run_roundtrip, "ext": run_ext, "e2": run_e2,
         "whitehead": run_whitehead, "cli": run_cli}


# ---------------------------------------------------------------------------
# oracles: a list of problems, empty when the output is right


def check_roundtrip(op, s) -> list:
    problems = []
    if not s["agrees"]:
        problems.append("program reports disagreement")
    if s["left_dims"] != s["right_dims"]:
        problems.append("homology dimensions differ")
    if s["left_action_ranks"] != s["right_action_ranks"]:
        problems.append("action ranks differ")
    if not s["left_dims"] and not s["right_dims"]:
        problems.append("vacuous comparison: no homology dimension compared")
    return problems


def check_ext(op, s) -> list:
    problems = []
    if s["table"] != s["injective_table"]:
        problems.append("free and injective routes disagree")
    if not s["table"]:
        problems.append("vacuous comparison: empty Ext table")
    abut = {}
    for key, d in s["table"].items():
        st, t = map(int, key.split(","))
        abut[str(t - st)] = abut.get(str(t - st), 0) + d
    if abut != s["abutment"]:
        problems.append("abutment does not follow from the table")
    if any(int(key.split(",")[0]) > s["rank"] for key in s["table"]):
        problems.append("row above the rank")
    return problems


def check_e2(op, s) -> list:
    problems = []
    if not s["comparisons"]:
        problems.append("vacuous comparison: no degree compared")
    for n, (a, tot) in s["comparisons"].items():
        if a != tot:
            problems.append(f"abutment {a} != page total {tot} in degree {n}")
    totals = {}
    for key, d in s["e2"].items():
        st, t = map(int, key.split(","))
        totals[str(t - st)] = totals.get(str(t - st), 0) + d
    if not set(totals) <= set(s["comparisons"]):
        problems.append("page degrees left out of the comparison")
    if any(int(key.split(",")[0]) > s["rank"] for key in s["e2"]):
        problems.append("row above the rank")
    if not (s["degenerate"] and s["euler_ok"] and s["row_bound_ok"]):
        problems.append("program verdict false")
    return problems


def check_whitehead(op, s) -> list:
    problems = []
    if s["homology_nonzero"] != s["dual_nonzero"]:
        problems.append("homology and Koszul dual side disagree")
    if not s["agrees"]:
        problems.append("program verdict false")
    if len(s["stage_dims"]) != s["rank"] + 1:
        problems.append("missing Koszul stages")
    if any(v is False for v in s["stage_action_iso"]):
        problems.append("staged certificate false")
    return problems


def check_cli(op, s) -> list:
    out, code = s["stdout"], s["exit"]
    if op.params["malformed"]:
        try:
            err = json.loads(out)
        except ValueError:
            return ["malformed input did not give a JSON error"]
        if code != 2 or not isinstance(err, dict) or "error" not in err:
            return [f"malformed input gave exit {code}"]
        return []
    problems = []
    if code != 0:
        problems.append(f"exit status {code}")
    if op.params["format"] == "table":
        if not re.search(r"^check \[ok\] ", out, re.M):
            problems.append("no passed check in the table")
        if "check [FAIL]" in out:
            problems.append("failed check in the table")
        return problems
    try:
        rep = json.loads(out)
    except ValueError:
        return problems + ["output is not JSON"]
    checks = rep.get("checks") or []
    if not checks or not all(c["passed"] for c in checks):
        problems.append("a reported check failed or none ran")
    tables = rep.get("tables", {})
    if rep.get("command") == "roundtrip":
        if tables.get("left_homology") != tables.get("right_homology"):
            problems.append("round-trip homology tables differ")
        if not tables.get("left_homology"):
            problems.append("vacuous comparison: empty round-trip homology")
    if rep.get("command") == "ext":
        if not any(c["name"] == "route_agreement" for c in checks):
            problems.append("ext did not compare both routes")
        if not tables.get("ext"):
            problems.append("vacuous comparison: empty Ext table")
    return problems


CHECKS = {"roundtrip": check_roundtrip, "ext": check_ext, "e2": check_e2,
          "whitehead": check_whitehead, "cli": check_cli}
