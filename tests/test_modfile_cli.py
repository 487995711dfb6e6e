import json
import re

import pytest

from koszuldg.grlin import Window
from koszuldg import algebra as alg
from koszuldg.modfile import ParseError, parse_module, print_module
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


def test_cli_endcheck(capsys):
    code = main(["endcheck", "--group", "2", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and all(c["passed"] for c in out["checks"])


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


def test_cli_groups_explicit_map(capsys):
    code = main(["groups", "extend", "--source", "4", "--target", "2",
                 "--map", "x1->y1^2", "--module", "k", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tables"]["homology"] == {"-2": 1, "0": 1}


def test_cli_unknown_group_is_error(capsys):
    code = main(["ext", "--group", "E8", "--M", "k", "--N", "k"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and "error" in out
