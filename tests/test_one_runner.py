"""Every subcommand runs through one runner and one table.

A subcommand body only fills the run report it is handed.  `cli.main` is
the one place that makes the report, reads the clock, prints and picks the
exit status, and `build_parser` adds every subparser in one loop over its
table.  This test parses `cli.py` and fails on a `RunReport(` or a
`time.time()` outside `main`, or on an `add_parser` call outside that loop,
so a second runner growing back is a visible edit of this test."""
import ast
import json
from pathlib import Path

from koszuldg import cli

CLI = Path(__file__).resolve().parents[1] / "src" / "koszuldg" / "cli.py"
GUARDED = {"RunReport", "time.time", "add_parser"}


def runner_calls(node, scope, in_loop, found):
    """Append (enclosing function, name called, inside a for loop) for every
    call of a name in GUARDED under node."""
    for child in ast.iter_child_nodes(node):
        inner, loop = scope, in_loop
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner, loop = scope + [child.name], False
        elif isinstance(child, ast.For):
            loop = True
        elif isinstance(child, ast.Call):
            name = ast.unparse(child.func)
            name = name.rsplit(".", 1)[-1] if name.endswith(".add_parser") else name
            if name in GUARDED:
                found.append((".".join(scope), name, in_loop))
        runner_calls(child, inner, loop, found)
    return found


def test_report_clock_and_subparsers_have_one_home():
    found = runner_calls(ast.parse(CLI.read_text(), filename=str(CLI)), [], False, [])
    assert sorted(set(found)) == [("build_parser", "add_parser", True),
                                  ("main", "RunReport", False),
                                  ("main", "time.time", False)]
    assert [c for c in found if c[1] == "add_parser"] == [("build_parser", "add_parser", True)]
    assert not hasattr(cli, "_finish")


def test_guard_sees_a_second_runner():
    src = ("def cmd_x(args):\n    rep = RunReport('x')\n    t = time.time()\n"
           "def build_parser():\n    sub.add_parser('y')\n"
           "    for row in rows:\n        sub.add_parser(row)\n")
    assert runner_calls(ast.parse(src), [], False, []) == [
        ("cmd_x", "RunReport", False), ("cmd_x", "time.time", False),
        ("build_parser", "add_parser", False), ("build_parser", "add_parser", True)]


def test_bodies_are_read_when_the_parser_is_built(monkeypatch, capsys):
    # a body wrapped after import, as an outside tracer wraps it, is the one
    # a freshly built parser calls
    seen = []
    real = cli.cmd_catalog
    monkeypatch.setattr(cli, "cmd_catalog", lambda args, rep: seen.append(rep.command)
                        or real(args, rep))
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cli.main(["catalog", "--format", "json"]) == 0
    assert seen == ["catalog"]
    assert json.loads(capsys.readouterr().out)["command"] == "catalog"
