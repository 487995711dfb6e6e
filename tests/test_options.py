"""Every option of the package is set by some caller in it.

This test parses every module of the package and lists the defaulted
parameters of its functions and methods, `name` aside.  A parameter counts
as set when a call in the package names the function (a method by its
attribute, `__init__` by its class) and passes that parameter, by keyword or
by position, or passes `*args` or `**kwargs`.  Calls are matched by name
alone, so a parameter set under a namesake also counts.  A defaulted
parameter that no call sets fails the test unless EXEMPT lists it with the
reason it stays: a new knob is then a visible edit of this list, not an
option that only tests reach."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "koszuldg"

# (module, function, parameter): why it stays defaulted though no call in
# the package sets it
EXEMPT = {
    ("adams", "realize_injective", "w"):
        "the demos read the injective on its default window; the tests set one",
    ("algebra", "ChainMap.__init__", "check"):
        "the tests build unchecked maps to watch the chain-map checks fail",
    ("cli", "main", "argv"):
        "the console entry point reads sys.argv; the tests and the benchmark pass argv",
    ("grlin", "Subspace.__init__", "vectors"):
        "Subspace has no caller in the package; it stays for the benchmark tracer",
    ("groups", "shift_law_check", "dd"):
        "the change-of-groups demo and the tests share one derived dual across checks",
    ("resolve", "semifree_replacement", "max_rounds"):
        "the bound on the cell scan, stated at the signature",
    ("samples", "random_chain_map", "degree"):
        "the tests draw chain maps of nonzero degree",
    ("samples", "random_zero_diff_module", "max_pieces"):
        "sample size, set by the benchmark workloads",
    ("samples", "random_zero_diff_module", "max_power"):
        "a size of the random generator, kept beside max_pieces",
    ("samples", "random_zero_diff_module", "max_shift"):
        "a size of the random generator, kept beside max_pieces",
    ("samples", "random_torsion_dg_module", "max_total"):
        "sample size, set by the demos and the benchmark workloads",
    ("samples", "random_lambda_module", "max_total"):
        "sample size, set by the demos and the benchmark workloads",
}


def defaulted(tree, module):
    """(module, dotted function, parameter, position or None, is a method)
    for every defaulted parameter of a function or method under tree; the
    position counts the parameters before it, None for a keyword-only one."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                method = bool(scope) and bool(pos) and pos[0].arg in ("self", "cls")
                dotted = ".".join(scope + [child.name])
                found.extend((module, dotted, p.arg, i, method)
                             for i, p in enumerate(pos[first:], first))
                found.extend((module, dotted, p.arg, None, method)
                             for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                walk(child, scope + [child.name])
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + [child.name])
            else:
                walk(child, scope)

    walk(tree, [])
    return found


def calls(tree):
    """(name called, positional count, keyword names, passes *args or
    **kwargs) for every call under tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = (f.attr if isinstance(f, ast.Attribute)
                    else f.id if isinstance(f, ast.Name) else None)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            out.append((name, len(node.args), {k.arg for k in node.keywords}, starred))
    return out


def unset_options(trees):
    """The (module, function, parameter) triples, `name` aside, that no call
    in trees {module: tree} sets."""
    params = [p for module, tree in trees.items() for p in defaulted(tree, module)]
    found = [c for tree in trees.values() for c in calls(tree)]
    out = set()
    for module, dotted, param, pos, method in params:
        if param == "name":
            continue
        parts = dotted.split(".")
        target = parts[-2] if parts[-1] == "__init__" else parts[-1]
        # a method's call passes no self
        at = None if pos is None else pos - method
        if not any(name == target and (starred or param in kws or (at is not None and n > at))
                   for name, n, kws, starred in found):
            out.add((module, dotted, param))
    return out


def package_trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_every_option_is_set_by_a_caller_or_exempt():
    unset = unset_options(package_trees())
    new = sorted(unset - set(EXEMPT))
    assert not new, f"options no call in the package sets: {new}"
    # every exemption is still an unset option, so the list shrinks with the code
    assert set(EXEMPT) <= unset, f"stale exemptions: {sorted(set(EXEMPT) - unset)}"


def test_guard_reads_positions_keywords_methods_and_classes():
    src = ("def f(a, b=1, c=2, *, d=3, name=''):\n    pass\n"
           "class C:\n"
           "    def __init__(self, x, y=0):\n        pass\n"
           "    def m(self, u=1, v=2):\n        pass\n"
           "def g(p=0):\n    pass\n"
           "def use(o, args):\n"
           "    f(0, 5)\n    f(0, d=4)\n    C(1)\n    o.m(7)\n    g(*args)\n")
    assert unset_options({"m": ast.parse(src)}) == {
        ("m", "f", "c"), ("m", "C.__init__", "y"), ("m", "C.m", "v")}
