import json
import random
import re
import signal
import time

import pytest

from koszuldg.grlin import Window
from koszuldg import algebra as alg
from koszuldg import duality as du
from koszuldg import samples as sm
from koszuldg.modfile import ParseError, _safe_labels, parse_module, print_module
from koszuldg.cli import main, parse_group, parse_poly, parse_window


K_FILE = """\
module k
algebra poly 2
window 0 0
complete both
component 0 one
"""

TORSION_FILE = """\
module sample
algebra poly 2
window -4 0
complete both
component 0 u
component -1 w
component -2 v
d w = v
x1 u = v
"""

EXT_FILE = """\
algebra ext 2,2
window 0 2
complete both
component 0 one
component 1 a b
component 2 ab
a1 one = a
a2 one = b
a1 b = -ab
a2 a = ab
"""


def test_parse_residue_field():
    M = parse_module(K_FILE)
    assert {n: M.dim(n) for n in M.degrees()} == {0: 1}
    assert M.is_finite()


def test_parse_torsion_with_differential():
    M = parse_module(TORSION_FILE)
    assert {n: M.dim(n) for n in M.degrees()} == {0: 1, -1: 1, -2: 1}
    assert alg.homology_dims(M) == {0: 1}


def test_roundtrip_canonical_form():
    for text in (K_FILE, TORSION_FILE, EXT_FILE):
        M = parse_module(text)
        canon = print_module(M)
        assert print_module(parse_module(canon)) == canon


def test_print_parse_of_builtins():
    I = alg.basic_injective(alg.poly_algebra(alg.GroupData((2,))), Window(0, 6))
    M = parse_module(print_module(I))
    assert all(M.dim(n) == I.dim(n) for n in range(0, 7))
    kb = alg.to_degreewise(alg.koszul_model(alg.poly_algebra(alg.GroupData((2, 2)))),
                           Window(-6, 0))
    M2 = parse_module(print_module(kb))
    assert alg.homology(M2).dims() == alg.homology(kb).dims()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_module("algebra poly 2\ncomponent zero u\n")
    with pytest.raises(ParseError, match="unknown label"):
        parse_module("algebra poly 2\ncomponent 0 u\nd u = ghost\n")
    with pytest.raises(ParseError, match="degree"):
        parse_module("algebra poly 2\ncomponent 0 u\ncomponent -1 w\nx1 u = w\n")
    with pytest.raises(ParseError, match="algebra"):
        parse_module("component 0 u\n")


def test_parse_rejects_invariant_violations():
    bad = """\
algebra poly 2
window -2 0
complete both
component 0 u
component -1 w
d u = w
d w = 0
x1 u = 0
"""
    # d is fine here (d.d lands in an empty degree); break Leibniz instead
    bad2 = """\
algebra poly 2
window -3 0
complete both
component 0 u
component -2 v
component -3 t
x1 u = v
d v = t
"""
    with pytest.raises(alg.InvariantViolation):
        parse_module(bad2)


def test_cli_flag_parsers():
    assert parse_group("4,6").codegrees == (4, 6)
    assert parse_group("SU(3)").codegrees == (4, 6)
    # one group parser, shared by the CLI flags and the module files
    assert parse_group is alg.parse_group
    assert parse_module("algebra poly 4,6\n").algebra == alg.PolyAlgebra(parse_group("SU(3)"))
    assert parse_window("-4:9").lo == -4
    with pytest.raises(ValueError):
        parse_window("oops")
    T2 = alg.PolyAlgebra(alg.named_group("T^2"), varnames=("y1", "y2"))
    p = parse_poly(T2, "2/3*y1^2*y2 - y2")
    assert p.is_homogeneous(-6) or not p.is_homogeneous(-6)  # parses at all
    assert str(parse_poly(T2, "y1*y2")) == "y1*y2"


def test_cli_ext_json(capsys):
    code = main(["ext", "--group", "2", "--M", "k", "--N", "k", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["command"] == "ext"
    assert out["tables"]["ext"] == {"s=0,t=0": 1, "s=1,t=2": 1}
    assert all(c["passed"] for c in out["checks"])


def test_cli_ext_all_classes_in_negative_degrees(tmp_path, capsys):
    # M = k, N supported in degrees -6 and -4: every Ext class has t < 0
    n = tmp_path / "n.kdg"
    n.write_text("algebra poly 2\nwindow -6 -4\ncomplete both\n"
                 "component -6 a\ncomponent -4 b\nx1 b = a\n")
    code = main(["ext", "--group", "2", "--M", "k", "--N", str(n),
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["ext"]
    ts = [int(key.split("t=")[1]) for key in out["tables"]["ext"]]
    assert max(ts) < 0
    assert all(c["passed"] for c in out["checks"])


def test_cli_table_and_json_contain_same_numbers(capsys):
    main(["ext", "--group", "2", "--M", "k", "--N", "k", "--format", "table"])
    table = capsys.readouterr().out
    main(["ext", "--group", "2", "--M", "k", "--N", "k", "--format", "json"])
    js = json.loads(capsys.readouterr().out)
    for key, val in js["tables"]["ext"].items():
        assert f"{key}: {val}" in table


def test_cli_reports_byte_identical_modulo_timing(capsys):
    def run():
        main(["ext", "--group", "2,2", "--M", "k", "--N", "k", "--format", "json"])
        raw = capsys.readouterr().out
        data = json.loads(raw)
        data["ms"] = 0
        return json.dumps(data, sort_keys=True)
    assert run() == run()


def test_cli_homology_on_file(tmp_path, capsys):
    f = tmp_path / "m.kdg"
    f.write_text(TORSION_FILE)
    code = main(["homology", "--module", str(f), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["homology"] == {"0": 1}


def test_cli_homology_acyclic_file(tmp_path, capsys):
    f = tmp_path / "acyclic.kdg"
    f.write_text("""\
algebra poly 2
window -1 0
complete both
component 0 u
component -1 w
d u = w
""")
    main(["homology", "--module", str(f), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert out["tables"]["homology"] == {}


def test_cli_malformed_file_is_machine_readable(tmp_path, capsys):
    f = tmp_path / "bad.kdg"
    f.write_text("algebra poly 2\ncomponent zero u\n")
    code = main(["homology", "--module", str(f)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"] == "ParseError"


_HEAD = ("algebra poly 2\nwindow -4 0\ncomplete both\n"
         "component 0 u\ncomponent -1 w\ncomponent -2 v\n")
# every rejection of the parser: (text, line, message)
MALFORMED = [
    ("algebra poly 2\ncomponent zero u\n", 2, "bad degree 'zero'"),
    ("algebra poly 2\ncomponent 0 u\nd u = ghost\n", 3, "unknown label 'ghost'"),
    ("algebra poly 2\ncomponent 0 u\ncomponent -1 w\nx1 u = w\n", 4,
     "x1(u) hits w of degree -1, want -2"),
    ("component 0 u\n", 0, "missing algebra line"),
    (_HEAD + "y7 u = v\n", 7, "unknown generator 'y7'"),
    (_HEAD + "d u = v\n", 7, "d(u) hits v of degree -2, want -1"),
    ("algebra poly 2\nwindow 0\n", 2, "window needs two integers"),
    ("algebra poly 2\nwindow a b\n", 2, "window bounds must be integers"),
    ("algebra poly 2\ncomplete sideways\n", 2, "unknown completeness flag 'sideways'"),
    ("algebra poly 2\ncomponent\n", 2, "component needs a degree"),
    ("algebra poly 2\ncomponent 0\n", 2, "component needs at least one label"),
    ("algebra poly 2\ncomponent 0 u\ncomponent -2 u\n", 3, "duplicate label 'u'"),
    (_HEAD + "d u w\n", 7, "differential line is 'd LABEL = expr'"),
    (_HEAD + "foo bar\n", 7, "unknown directive 'foo'"),
    (_HEAD + "d w = 2*\n", 7, "term '2*' has no basis label"),
    (_HEAD + "d w = 3\n", 7, "term '3' has no basis label"),
    ("algebra tensor 2\n", 1, "unknown algebra kind 'tensor'"),
    # the group's errors, once a bare ValueError or OddCodegree without a line
    ("module m\nalgebra poly U(3)\n", 2, "unknown group name: 'U(3)'"),
    ("algebra ext 2,3\nwindow 0 0\n", 1, "codegree 3 is not an even integer >= 2"),
    ("algebra poly SU(1)\n", 1, "SU(n) needs n >= 2"),
    # a malformed catalog name, once int()'s "invalid literal" message
    ("algebra poly T^x\n", 1, "unknown group name: 'T^x'"),
    ("algebra ext SU(x)\nwindow 0 0\n", 1, "unknown group name: 'SU(x)'"),
    ("algebra poly Sp()\n", 1, "unknown group name: 'Sp()'"),
    ("algebra poly T^-1\n", 1, "unknown group name: 'T^-1'"),
    (_HEAD + "x1 ghost = v\n", 7, "unknown label 'ghost'"),
    # differential lines are read before action lines
    (_HEAD + "y7 u = v\nd u = ghost\n", 8, "unknown label 'ghost'"),
    # a zero denominator, once a ZeroDivisionError traceback
    (_HEAD + "d w = 1/0*v\n", 7, "cannot parse term '1/0*v'"),
    # a component outside the window, once a ValueError without a line
    # where a d line reaches it, and silently dropped where none does
    ("algebra poly 2\nwindow 0 0\ncomponent 0 u\ncomponent -1 w\nd u = w\n", 4,
     "component degree -1 is outside the window 0 0"),
    ("algebra poly 2\ncomponent 3 z\nwindow -2 1\ncomponent 0 u\n", 2,
     "component degree 3 is outside the window -2 1"),
]


@pytest.mark.parametrize("text,line,message", MALFORMED)
def test_malformed_files_keep_their_line_and_message(text, line, message, tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_module(text)
    assert (err.value.line_no, str(err.value)) == (line, f"line {line}: {message}")
    f = tmp_path / "bad.kdg"
    f.write_text(text)
    assert main(["homology", "--module", str(f), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "ParseError",
                                                   "message": f"line {line}: {message}"}


def old_safe_labels(M):
    """_safe_labels as it was: each label matched, and renamed by re.sub."""
    safe = re.compile(r"[A-Za-z_][A-Za-z_0-9.^]*$")
    out, seen = {}, set()
    for deg in sorted(M.space.dims):
        labs = []
        for i in range(M.dim(deg)):
            lab = M.space.label(deg, i)
            cand = lab if safe.match(lab) else re.sub(
                r"[^A-Za-z_0-9.^]", ".", lab).strip(".") or "e"
            if not safe.match(cand):
                cand = "e" + cand
            base, k = cand, 2
            while cand in seen:
                cand = f"{base}.{k}"
                k += 1
            seen.add(cand)
            labs.append(cand)
        out[deg] = labs
    return out


def test_safe_labels_match_the_regex_renaming():
    # edge labels, unlabeled degrees, and random strings over an alphabet
    # with grammar characters, others, non-ASCII and newlines
    edge = ["a", "_", "A.b^2", "", ".", "..", "^", "^a", "1", "1a", "a b", "a-b",
            "-1", "e-1_0", "a\n", "a\nb", "\n", "1\n", ".a.", "é", "aé", "x(y)z",
            "a..", "a\t", "\U0001f600", "a.2", "a.2", "e"]
    rng = random.Random(62)
    alphabet = "aZ_09.^-() \n\té/"
    randoms = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
               for _ in range(3000)]
    for labels in (edge, randoms):
        M = alg.dg_module(alg.poly_algebra(alg.GroupData((2,))), {0: len(labels), -2: 2},
                          {}, [{}], -2, 0, labels={0: labels})
        assert _safe_labels(M) == old_safe_labels(M)
    rng = random.Random(63)
    for g in ("T", "T^2", "SU(3)"):
        L = alg.ext_algebra(alg.named_group(g))
        for _ in range(3):
            M = sm.random_lambda_module(L, rng, max_total=6)
            for X in (M, du.functor_S(M, alg.poly_algebra(L.group), Window(0, 12))):
                assert _safe_labels(X) == old_safe_labels(X)


def test_print_parse_round_trip_on_random_samples():
    # conjugated samples carry fractional entries; labels come back as the
    # printer's grammar-safe ones
    rng = random.Random(61)
    fractional = 0
    for g in ("T", "T^2", "SU(2)", "SU(3)"):
        R, L = alg.poly_algebra(alg.named_group(g)), alg.ext_algebra(alg.named_group(g))
        for _ in range(2):
            for M in (sm.random_torsion_dg_module(R, rng, max_total=6),
                      sm.random_zero_diff_module(R, rng),
                      sm.random_lambda_module(L, rng, max_total=6)):
                for Y in (M, sm.conjugate(M, rng, name="conj")):
                    text = print_module(Y)
                    X = parse_module(text)
                    assert type(X.algebra) is type(Y.algebra) and X.algebra == Y.algebra
                    assert (X.lo, X.hi, X.complete_below, X.complete_above) == \
                        (Y.lo, Y.hi, Y.complete_below, Y.complete_above)
                    assert X.space.dims == {n: d for n, d in Y.space.dims.items() if d}
                    assert X.space.labels == _safe_labels(Y)
                    assert X.diff.forms == Y.diff.forms
                    assert [a.forms for a in X.actions] == [a.forms for a in Y.actions]
                    assert print_module(X) == text
                    fractional += any(f[0] > 1 for gm in (Y.diff, *Y.actions)
                                      for f in gm.forms.values())
    assert fractional >= 5


def test_cli_composition_not_zero_is_machine_readable(tmp_path, capsys, monkeypatch):
    # d.d != 0 found while taking homology is a domain error: exit 2, JSON
    from fractions import Fraction as F
    from koszuldg import grlin
    vs = grlin.GradedVS({0: 1, 1: 1, 2: 1})
    d = grlin.GradedMap(vs, vs, -1, {1: [[F(1)]], 2: [[F(1)]]})
    monkeypatch.setattr(alg, "homology", lambda M: grlin.homology_at(d, d, 1))
    f = tmp_path / "k.kdg"
    f.write_text(K_FILE)
    code = main(["homology", "--module", str(f)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out == {"error": "CompositionNotZero",
                   "message": "d.d != 0 entering degree 1"}


def test_cli_catalog(capsys):
    code = main(["catalog", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["groups"]["SU(2)"] == {
        "codegrees": [4], "rank": 1, "dim": 3}


def test_cli_adams(capsys):
    code = main(["adams", "--group", "2", "--M", "k", "--N", "k",
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["comparison"]["0"] == {"abutment": 1, "e2_total": 1}


def test_cli_rhom(capsys):
    code = main(["rhom", "--group", "2", "--M", "k", "--N", "k",
                 "--window=-3:4", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["derived_maps"]["0"] == 1
    assert out["tables"]["derived_maps"]["1"] == 1


def test_cli_rhom_window_below_the_support(capsys):
    code = main(["rhom", "--group", "2", "--M", "k", "--N", "k",
                 "--window=-9:-6", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["derived_maps"] == {"-9": 0, "-8": 0, "-7": 0, "-6": 0}


def test_cli_koszul_s_and_t(tmp_path, capsys):
    f = tmp_path / "ext.kdg"
    f.write_text(EXT_FILE)
    code = main(["koszul-s", "--module", str(f), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["homology"] == {"0": 1}
    g = tmp_path / "k.kdg"
    g.write_text(K_FILE)
    code = main(["koszul-t", "--module", str(g), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["homology"] == {"0": 1, "1": 1}


def test_cli_roundtrip(tmp_path, capsys):
    f = tmp_path / "k.kdg"
    f.write_text(K_FILE)
    code = main(["roundtrip", "--module", str(f), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and all(c["passed"] for c in out["checks"])


def test_cli_endcheck(capsys, monkeypatch):
    # End(kbar) is built once, by the double centralizer check, and its DGA
    # is reused for the Cartan map
    from koszuldg import duality as du
    built = []
    real = du.end_dga
    monkeypatch.setattr(du, "end_dga", lambda *args: built.append(args) or real(*args))
    code = main(["endcheck", "--group", "2", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and all(c["passed"] for c in out["checks"])
    assert len(built) == 1


def test_cli_endcheck_fails_closed_on_an_empty_homology_window(capsys):
    # no degree of End(kbar) homology is certified in this window, so the
    # Cartan map's homology verdicts compared nothing and cannot pass
    code = main(["endcheck", "--group", "2", "--window=-3:0", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c["passed"] for c in out["checks"]}
    assert code == 1 and out["tables"]["endomorphism_homology"] == {}
    assert not checks["cartan_homology_iso"] and not checks["cartan_multiplicative"]


def test_cli_recognize_k(tmp_path, capsys):
    f = tmp_path / "k.kdg"
    f.write_text(K_FILE)
    code = main(["recognize-k", "--module", str(f), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and all(c["passed"] for c in out["checks"])


def test_cli_groups_commands(tmp_path, capsys):
    code = main(["groups", "extend", "--pair", "T<SU(2)", "--module", "k",
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["homology"] == {"-2": 1, "0": 1}
    code = main(["groups", "shift-check", "--pair", "T<SU(2)", "--module", "k",
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and all(c["passed"] for c in out["checks"])
    code = main(["groups", "dual", "--pair", "T<T^2-diag", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and all(c["passed"] for c in out["checks"])


def test_cli_shriek_reports_a_skipped_comparison_as_skipped(tmp_path, capsys):
    # d s = b: not zero-differential, and T<T^2-diag has projective
    # dimension one, so the coextension comparison is not computed
    f = tmp_path / "ds.kdg"
    f.write_text("algebra poly 2,2\nwindow -1 0\ncomplete both\n"
                 "component 0 s\ncomponent -1 b\nd s = b\n")
    args = ["groups", "shriek", "--pair", "T<T^2-diag", "--module", str(f)]
    assert main(args + ["--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c for c in out["checks"] if c["name"] == "coextension_comparison"] == [
        {"name": "coextension_comparison", "passed": False, "skipped": True,
         "detail": "needs a zero-differential module in positive projective dimension"}]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "check [skip] coextension_comparison" in text and "[ok]" not in text


def test_cli_shriek_builds_the_derived_dual_once(capsys, monkeypatch):
    # r_shriek_left and the coextension comparison share one derived dual
    from koszuldg import groups as gr
    calls, kept = [], gr.derived_dual
    monkeypatch.setattr(gr, "derived_dual", lambda rm: calls.append(rm) or kept(rm))
    assert main(["groups", "shriek", "--pair", "T<SU(2)", "--module", "k",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert [(c["name"], c["passed"]) for c in out["checks"]] == [
        ("matches_coextension_homology", True)]


def test_report_skips_count_neither_way():
    from koszuldg.report import RunReport
    rep = RunReport("x")
    rep.skip_check("a", "not computed")
    assert rep.all_passed()
    rep.add_check("b", False)
    assert not rep.all_passed()
    assert [c.get("skipped", False) for c in rep.checks] == [True, False]


def test_cli_groups_explicit_map(capsys):
    code = main(["groups", "extend", "--source", "4", "--target", "2",
                 "--map", "x1->y1^2", "--module", "k", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["homology"] == {"-2": 1, "0": 1}


@pytest.mark.parametrize("spec,message", [
    ("x1->y1", "--map: no image for x2"),
    ("x1->y1;x2->y1;x3->y1", "--map: 'x3' is not a source variable (x1, x2)"),
    ("x1->y1;x1->y1;x2->y1", "--map: 'x1' is given twice"),
    # a zero denominator, once a ZeroDivisionError traceback
    ("x1->1/0*y1;x2->y1", "cannot parse factor '1/0'"),
    # a piece without exactly one arrow, once "not enough values to unpack"
    ("x1;x2->y1", "--map: 'x1' is not one 'x->image' piece"),
    ("x1->y1->y1;x2->y1", "--map: 'x1->y1->y1' is not one 'x->image' piece"),
])
def test_cli_groups_bad_map_is_error(capsys, spec, message):
    code = main(["groups", "extend", "--source", "2,2", "--target", "2",
                 "--map", spec, "--module", "k", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out == {"error": "ValueError", "message": message}


# refused input: (argv, message); each exits 2 with exactly this ValueError as JSON
REFUSED = [
    (["ext", "--group", "E8", "--M", "k", "--N", "k"], "unknown group name: 'E8'"),
    # a malformed catalog name, once int()'s "invalid literal" message
    (["ext", "--group", "T^x", "--M", "k", "--N", "k"], "unknown group name: 'T^x'"),
    (["ext", "--group", "SU(x)", "--M", "k", "--N", "k"], "unknown group name: 'SU(x)'"),
    (["ext", "--group", "Sp()", "--M", "k", "--N", "k"], "unknown group name: 'Sp()'"),
    (["homology", "--module", "I"], "builtin 'I' needs --group and --window"),
    (["homology", "--module", "I", "--group", "2"], "builtin 'I' needs --group and --window"),
    (["homology", "--module", "I", "--window=-4:0"], "builtin 'I' needs --group and --window"),
    (["homology", "--module", "k"], "builtin 'k' needs --group"),
    (["homology", "--module", "I", "--group", "2", "--window=-4:999999999"],
     "window -4 999999999 leaves the degrees -1000..1000"),
    (["homology", "--module", "I", "--group", "2", "--window=-1001:0"],
     "window -1001 0 leaves the degrees -1000..1000"),
    (["ext", "--M", "k", "--N", "k"], "this command needs --group"),
    (["rhom", "--M", "k", "--N", "k"], "this command needs --group"),
    (["adams", "--M", "k", "--N", "k"], "this command needs --group"),
    (["groups", "dual"], "groups commands need --pair or --source/--target/--map"),
    (["groups", "dual", "--source", "2", "--target", "2"],
     "groups commands need --pair or --source/--target/--map"),
    (["groups", "dual", "--pair", "T<E8"], "unknown pair 'T<E8'; catalog: T<SU(2), "
     "T<T^2-diag, T<T^2-first, T^2<SU(3), id-T, id-T^2"),
    (["koszul-s", "--module", "{k_file}"], "koszul-s expects a module over the exterior algebra"),
    # groups actions that take a module, once a TypeError traceback without one
    *[(["groups", action, "--pair", "T<SU(2)"], "this command needs --module")
      for action in ("restrict", "extend", "coextend", "shriek", "shift-check")],
]


@pytest.mark.parametrize("argv,message", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
def test_cli_refused_input_is_json(tmp_path, capsys, argv, message):
    f = tmp_path / "k.kdg"
    f.write_text(K_FILE)
    code = main([a.format(k_file=f) for a in argv] + ["--format", "json"])
    assert (code, json.loads(capsys.readouterr().out)) == (
        2, {"error": "ValueError", "message": message})


def test_cli_huge_window_file_exits_2_at_once(tmp_path, capsys):
    # a valid module but for its window, which once kept homology walking
    # its degrees, and growing, until it was killed; the alarm stops such a
    # walk after 2 s
    f = tmp_path / "huge.kdg"
    f.write_text("algebra poly 2\nwindow -4 999999999\ncomplete both\n"
                 "component 0 a\ncomponent -2 b\nx1 a = b\n")

    def stop(*_):
        raise TimeoutError("homology still walking the window after 2 s")

    kept = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        start = time.perf_counter()
        code = main(["homology", "--module", str(f), "--format", "json"])
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, kept)
    assert (code, json.loads(capsys.readouterr().out)) == (2, {
        "error": "ParseError",
        "message": "line 2: window -4 999999999 leaves the degrees -1000..1000"})
    assert elapsed < 1


def test_window_bound_is_inclusive_and_covers_components():
    head = "algebra poly 2\ncomplete both\n"
    M = parse_module(head + "window -1000 1000\ncomponent -1000 a\ncomponent 1000 b\n")
    assert (M.lo, M.hi) == (-1000, 1000)
    assert parse_window("-1000:1000") == Window(-1000, 1000)
    for text, line, message in (
            ("window -1001 0\n", 3, "window -1001 0 leaves the degrees -1000..1000"),
            ("window 0 1001\n", 3, "window 0 1001 leaves the degrees -1000..1000"),
            # without a window line the components set it
            ("component 1001 a\n", 3, "degree 1001 leaves the degrees -1000..1000")):
        with pytest.raises(ParseError) as exc:
            parse_module(head + text)
        assert exc.value.line_no == line and str(exc.value) == f"line {line}: {message}"


def test_cli_builtin_injective_with_group_and_window(capsys):
    code = main(["homology", "--module", "I", "--group", "2", "--window=-4:0",
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["inputs"] == {"module": "builtin:I[[2]]-4:0"}


def test_cli_ext_one_route(capsys):
    code = main(["ext", "--group", "2", "--M", "k", "--N", "k", "--route", "via_free",
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["tables"]["ext"] == {"s=0,t=0": 1, "s=1,t=2": 1}
    assert out["checks"] == [{"name": "row_bound", "passed": True,
                              "detail": "max row 1 <= rank 1"}]


def test_cli_parser_reused_across_calls(tmp_path, capsys, monkeypatch):
    # one process, alternating commands and formats: the parser built on
    # first use gives what a fresh parser gives on every call
    import koszuldg.cli as cli
    f = tmp_path / "t.kdg"
    f.write_text(TORSION_FILE)
    calls = [["homology", "--module", str(f)], ["catalog"],
             ["ext", "--group", "2", "--M", "k", "--N", "k"],
             ["groups", "extend", "--pair", "T<SU(2)", "--module", "k"],
             ["homology", "--module", "missing.kdg"]] * 2
    argvs = [argv + ["--format", fmt]
             for argv, fmt in zip(calls, ["table", "json"] * len(calls))]

    def outputs():
        got = []
        for argv in argvs:
            code = main(argv)
            got.append((code, re.sub(r'("ms": |ms: )\d+', r"\g<1>0",
                                     capsys.readouterr().out)))
        return got

    cached = outputs()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cached == outputs()
    assert [code for code, _ in cached] == [0, 0, 0, 0, 2] * 2


# tokens the fuzz mutations write in: numbers (huge, fractional, zero
# denominators), labels, operators, directives, flags and group names
FUZZ_TOKENS = ["0", "1", "-1", "2", "7", "-3", "1000", "-1001", "99999999999", "1/2", "1/0",
               "x", "u", "=", "+", "-", "*", "d", "x1", "x2", "a1", "both", "above", "below",
               "poly", "ext", "component", "window", "complete", "module", "algebra", "T",
               "SU(3)", "2,4", "#", "", "\u00e9"]


def fuzzed(text, rng):
    """text with one to three seeded edits: a line deleted, duplicated or
    swapped, or a token of a line replaced, inserted or deleted."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines = [rng.choice(FUZZ_TOKENS)]
        i, op = rng.randrange(len(lines)), rng.randrange(6)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split(" ")
            k = rng.randrange(len(toks))
            if op == 3:
                toks[k] = rng.choice(FUZZ_TOKENS)
            elif op == 4:
                toks.insert(k, rng.choice(FUZZ_TOKENS))
            else:
                del toks[k]
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def test_fuzzed_module_files_parse_or_fail_cleanly(tmp_path, capsys):
    """Seeded mutations of printed sample modules over T, T^2 and SU(3):
    each parses, or ends in a ParseError that names its line, or in exit 2
    with a JSON error through the CLI (as invariant violations do), within
    a 2 s alarm each; anything else is a traceback and fails the test."""
    rng = random.Random(2026)
    bases = []
    for g in ("T", "T^2", "SU(3)"):
        R, L = alg.poly_algebra(alg.named_group(g)), alg.ext_algebra(alg.named_group(g))
        bases += [print_module(M) for M in (sm.random_torsion_dg_module(R, rng, max_total=6),
                                            sm.random_zero_diff_module(R, rng),
                                            sm.random_lambda_module(L, rng, max_total=6))]
    f = tmp_path / "fuzzed.kdg"

    def stop(*_):
        raise TimeoutError("a fuzzed file ran past its 2 s alarm")

    outcomes = {"parsed": 0, "ParseError": 0, "cli": 0}
    kept = signal.signal(signal.SIGALRM, stop)
    try:
        for _ in range(3000):
            text = fuzzed(rng.choice(bases), rng)
            signal.setitimer(signal.ITIMER_REAL, 2)
            try:
                parse_module(text)
                outcomes["parsed"] += 1
            except ParseError as exc:
                assert str(exc).startswith(f"line {exc.line_no}: "), text
                outcomes["ParseError"] += 1
            except ValueError:
                f.write_text(text)
                capsys.readouterr()
                code = main(["homology", "--module", str(f), "--format", "json"])
                out = json.loads(capsys.readouterr().out)
                assert code == 2 and set(out) == {"error", "message"}, text
                outcomes["cli"] += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, kept)
    # every outcome is reached: 771 parse, 2,077 end in a ParseError and 152
    # through the CLI
    assert outcomes["parsed"] >= 600 and outcomes["ParseError"] >= 1800 and outcomes["cli"] >= 100
