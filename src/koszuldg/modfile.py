"""Text format for DG modules: hand-auditable, line-based, round-tripping.

A module file names its algebra (codegree list or catalog group, polynomial
or exterior), a window, completeness flags, labeled components per degree,
and the differential and action values on basis labels as rational linear
combinations.  Parsing validates every construction-time invariant; the
canonical printer sorts everything so parse . print is the identity on
canonical files.
"""
from __future__ import annotations

import re
import string
from fractions import Fraction
from math import gcd, lcm

from .grlin import _transposed
from .algebra import (
    DGModule,
    ExtAlgebra,
    GroupData,
    PolyAlgebra,
    dg_module,
    parse_group,
)


# Windows and components lie inside the degrees -WINDOW_BOUND..WINDOW_BOUND:
# far wider than any module here, yet a loop over a window stays short, and
# degrees stay far from the sentinels that stand for a complete side.
WINDOW_BOUND = 1000


def window_error(lo: int, hi: int, what: str = "window") -> str | None:
    """Why the window lo..hi, or the degree lo = hi, is refused, or None."""
    if not (-WINDOW_BOUND <= lo and hi <= WINDOW_BOUND):
        where = f"{lo} {hi}" if what == "window" else f"{lo}"
        return f"{what} {where} leaves the degrees {-WINDOW_BOUND}..{WINDOW_BOUND}"
    return None


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_TERM = re.compile(r"""^\s*(?P<sign>[+-])?\s*
                        (?:(?P<coef>\d+(?:/0*[1-9]\d*)?)\s*\*?\s*)?
                        (?P<label>[A-Za-z_][A-Za-z_0-9.^]*)?\s*$""", re.X)


def parse_combination(text: str, line_no: int) -> dict:
    """Parse 'a - 2*b + 1/2*c' into {label: Fraction}; '0' is empty."""
    text = text.strip()
    if text in ("0", ""):
        return {}
    out = {}
    chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
    for chunk in chunks:
        if not chunk:
            continue
        m = _TERM.match(chunk)
        if not m or (m.group("coef") is None and m.group("label") is None):
            raise ParseError(line_no, f"cannot parse term {chunk!r}")
        coef = Fraction(*map(int, (m.group("coef") or "1").split("/")))
        if m.group("sign") == "-":
            coef = -coef
        label = m.group("label")
        if label is None:
            raise ParseError(line_no, f"term {chunk!r} has no basis label")
        out[label] = out[label] + coef if label in out else coef
    return {l: c for l, c in out.items() if c}


def _parse_algebra(tokens, line_no):
    if not tokens:
        raise ParseError(line_no, "algebra line needs a kind")
    kind = tokens[0]
    if kind not in ("poly", "ext"):
        raise ParseError(line_no, f"unknown algebra kind {kind!r}")
    try:
        group = GroupData(()) if len(tokens) == 1 else parse_group(tokens[1])
    except ValueError as exc:  # a bad group spec; OddCodegree is one
        raise ParseError(line_no, str(exc)) from None
    return PolyAlgebra(group) if kind == "poly" else ExtAlgebra(group)


def parse_module(text: str, name: str = "") -> DGModule:
    """Parse the text format into a validated DG module, reading its blocks
    straight into integer forms."""
    algebra = None
    window = None
    complete_below = False
    complete_above = False
    components = {}      # degree -> list of labels
    component_lines = []  # (line_no, degree)
    label_degree = {}
    d_lines = []         # (line_no, "d", label, combination-text)
    act_lines = []       # (line_no, genname, label, combination-text)
    mod_name = name
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "module":
            mod_name = tokens[1] if len(tokens) > 1 else mod_name
        elif head == "algebra":
            algebra = _parse_algebra(tokens[1:], line_no)
        elif head == "window":
            if len(tokens) != 3:
                raise ParseError(line_no, "window needs two integers")
            try:
                window = (int(tokens[1]), int(tokens[2]))
            except ValueError:
                raise ParseError(line_no, "window bounds must be integers")
            if err := window_error(*window):
                raise ParseError(line_no, err)
        elif head == "complete":
            for t in tokens[1:]:
                if t not in ("below", "above", "both"):
                    raise ParseError(line_no, f"unknown completeness flag {t!r}")
                complete_below |= t != "above"
                complete_above |= t != "below"
        elif head == "component":
            if len(tokens) < 2:
                raise ParseError(line_no, "component needs a degree")
            try:
                deg = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"bad degree {tokens[1]!r}")
            if err := window_error(deg, deg, "degree"):
                raise ParseError(line_no, err)
            labels = tokens[2:]
            if not labels:
                raise ParseError(line_no, "component needs at least one label")
            for lab in labels:
                if lab in label_degree:
                    raise ParseError(line_no, f"duplicate label {lab!r}")
                label_degree[lab] = deg
            components.setdefault(deg, []).extend(labels)
            component_lines.append((line_no, deg))
        elif head == "d":
            if len(tokens) < 3 or tokens[2] != "=":
                raise ParseError(line_no, "differential line is 'd LABEL = expr'")
            d_lines.append((line_no, "d", tokens[1], line.split("=", 1)[1]))
        else:
            if len(tokens) < 3 or tokens[2] != "=":
                raise ParseError(line_no, f"unknown directive {head!r}")
            act_lines.append((line_no, head, tokens[1], line.split("=", 1)[1]))
    if algebra is None:
        raise ParseError(0, "missing algebra line")
    if window is None:
        degs = sorted(components) or [0]
        window = (degs[0], degs[-1])
    for line_no, deg in component_lines:
        if not window[0] <= deg <= window[1]:
            raise ParseError(line_no, f"component degree {deg} is outside the window "
                                      f"{window[0]} {window[1]}")
    label_index = {lab: i for labs in components.values() for i, lab in enumerate(labs)}
    dims = {deg: len(labs) for deg, labs in components.items()}
    labels = {deg: list(labs) for deg, labs in components.items()}

    def resolve(line_no, lab):
        if lab not in label_degree:
            raise ParseError(line_no, f"unknown label {lab!r}")
        return label_degree[lab], label_index[lab]

    # entries[k + 1][source degree][(target index, source index)]: the differential
    # (k = -1) and generator k's action, d lines first; form() makes a block's form
    gen_names, gens = list(algebra.varnames), (-1,) + algebra.generator_degrees()
    entries = [dict() for _ in gens]
    for line_no, head, src, expr in d_lines + act_lines:
        if head != "d" and head not in gen_names:
            raise ParseError(line_no, f"unknown generator {head!r}")
        k = gen_names.index(head) + 1 if head != "d" else 0
        sdeg, sidx = resolve(line_no, src)
        for tgt, coef in parse_combination(expr, line_no).items():
            tdeg, tidx = resolve(line_no, tgt)
            if tdeg != sdeg + gens[k]:
                raise ParseError(
                    line_no, f"{head}({src}) hits {tgt} of degree {tdeg}, want {sdeg + gens[k]}")
            blk = entries[k].setdefault(sdeg, {})
            blk[tidx, sidx] = blk[tidx, sidx] + coef if (tidx, sidx) in blk else coef

    def form(blk, sdeg, g):
        den = lcm(*[c.denominator for c in blk.values()])
        rows = [{} for _ in range(dims.get(sdeg + g, 0))]
        for (i, j), c in sorted(blk.items()):
            if c:
                rows[i][j] = c.numerator * (den // c.denominator)
        return den, rows, dims[sdeg]

    diff, *acts = [{s: form(blk, s, g) for s, blk in e.items()} for e, g in zip(entries, gens)]
    return dg_module(algebra, dims, diff, acts, *window, complete_below, complete_above,
                     labels=labels, name=mod_name or "module")


def parse_module_file(path, name: str = "") -> DGModule:
    with open(path, encoding="utf-8") as fh:
        return parse_module(fh.read(), name=name or str(path))


_SAFE_LABEL = re.compile(r"[A-Za-z_][A-Za-z_0-9.^]*$")
_LEAD = frozenset(string.ascii_letters + "_")
_LABEL_CHARS = _LEAD | frozenset(string.digits + ".^")


class _Dotted(dict):
    """A str.translate table sending each character outside the label
    grammar to '.' and every other one to itself; the grammar is ASCII."""

    def __missing__(self, c: int) -> str:
        return "."


_DOTTED = _Dotted({c: c if chr(c) in _LABEL_CHARS else "." for c in range(128)})


def _safe_label(lab: str) -> str:
    """lab if it is grammar-safe, else its characters outside the grammar
    made '.', stripped of dots at both ends ('e' if nothing is left), with
    'e' put before a leading digit or '^'."""
    cand = lab.translate(_DOTTED)
    if cand == lab and lab[:1] in _LEAD:
        return lab
    if lab.endswith("\n") and _SAFE_LABEL.match(lab):
        return lab  # the pattern's $ also matches before a final newline
    cand = cand.strip(".") or "e"
    return cand if cand[0] in _LEAD else "e" + cand


def _safe_labels(M: DGModule) -> dict:
    """Grammar-safe unique labels per degree, renaming only when needed."""
    out = {}
    seen = set()
    for deg in sorted(M.space.dims):
        labs = []
        for lab in M.labels_at(deg):
            cand = _safe_label(lab)
            base = cand
            k = 2
            while cand in seen:
                cand = f"{base}.{k}"
                k += 1
            seen.add(cand)
            labs.append(cand)
        out[deg] = labs
    return out


def print_module(M: DGModule) -> str:
    """Canonical serialization: sorted degrees, grammar-safe labels, one line
    per nonzero column of each stored integer form, no dense block built."""
    safe = _safe_labels(M)
    lines = []
    if M.name and re.match(r"\S+$", M.name):
        lines.append(f"module {M.name}")
    kind = "poly" if isinstance(M.algebra, PolyAlgebra) else "ext"
    co = ",".join(str(d) for d in M.algebra.group.codegrees)
    lines.append(f"algebra {kind} {co}".rstrip())
    lines.append(f"window {M.lo} {M.hi}")
    flags = {(True, True): "both", (True, False): "below", (False, True): "above"}
    if (M.complete_below, M.complete_above) in flags:
        lines.append(f"complete {flags[M.complete_below, M.complete_above]}")
    for deg in sorted(M.space.dims):
        lines.append("component " + str(deg) + " " + " ".join(safe[deg]))

    def combo(col: dict, den: int, deg: int) -> str:
        """'a - 2*b + 1/2*c' for the entries col[i] / den on the labels at deg."""
        terms = []
        for i, v in col.items():
            g = gcd(v, den)
            c = str(abs(v) // g) + (f"/{den // g}" if den != g else "")
            terms.append(("- " if v < 0 else "+ ") + ("" if c == "1" else c + "*")
                         + safe[deg][i])
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    ops = zip(("d", *M.algebra.varnames), (-1, *M.generator_degrees()), (M.diff, *M.actions))
    for name, g, gm in ops:
        for deg in sorted(gm.forms):
            den, cols, _ = _transposed(gm.forms[deg])
            for col, entries in enumerate(cols):
                if entries:
                    lines.append(f"{name} {safe[deg][col]} = {combo(entries, den, deg + g)}")
    return "\n".join(lines) + "\n"
