"""Stored block forms are read-only once a graded map exists.

A GradedMap stores the integer forms handed to it as they are, and maps
built from one another share them, so a form row written afterwards would
change every map holding it.  Here every map built while an operation runs
holds read-only copies of its forms dict and of each form's rows, and the
forms it stored are compared with a snapshot afterwards, so a write through
the map or through any other reference to its rows fails the test.
"""
import random

import pytest

from koszuldg import adams as ad
from koszuldg import algebra as alg
from koszuldg import duality as du
from koszuldg import groups as gr
from koszuldg import resolve as rs
from koszuldg import samples as sm
from koszuldg.grlin import GradedMap, GradedVS, Window
from koszuldg.modfile import parse_module

WRITES = []


class BlockWritten(Exception):
    """A stored block, or the dict holding the blocks, was written."""


def _refuse(self, *args, **kwargs):
    WRITES.append(type(self).__name__)
    raise BlockWritten("write to a block of an existing graded map")


class ReadOnlyRows(list):
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse


class ReadOnlyDict(dict):
    __setitem__ = __delitem__ = __ior__ = _refuse
    update = setdefault = pop = popitem = clear = _refuse


def _guard(monkeypatch) -> list:
    """Patch GradedMap to store read-only copies; returns the list of
    (forms stored, their snapshot)."""
    handed = []
    init = GradedMap.__init__

    def frozen(self, *args, **kwargs):
        init(self, *args, **kwargs)
        handed.append((self.forms, _snapshot(self.forms)))
        self.forms = ReadOnlyDict(
            {n: (den, ReadOnlyRows(ReadOnlyDict(row) for row in rows), cols)
             for n, (den, rows, cols) in self.forms.items()})

    WRITES.clear()
    monkeypatch.setattr(GradedMap, "__init__", frozen)
    return handed


def _untouched(handed) -> bool:
    return not WRITES and all(_snapshot(b) == snap for b, snap in handed)


@pytest.fixture
def read_only_blocks(monkeypatch):
    handed = _guard(monkeypatch)
    yield
    monkeypatch.undo()
    assert handed, "no graded map was built"
    assert _untouched(handed)


def _snapshot(forms):
    return {n: (den, [dict(row) for row in rows], cols)
            for n, (den, rows, cols) in forms.items()}


T_MODULE = ("algebra poly 2\nwindow -2 1\ncomplete both\n"
            "component -2 b\ncomponent -1 s0 s1\ncomponent 1 u\n"
            "d s0 = -b\nd s1 = -b\nx1 u = -s0 + s1\n")
T2_MODULE = ("algebra poly 2,2\nwindow -4 0\ncomplete both\n"
             "component 0 u\ncomponent -1 w\ncomponent -2 v\n"
             "d w = v\nx1 u = v\n")


def _ring(group):
    return alg.poly_algebra(alg.named_group(group))


OPERATIONS = {
    "roundtrip T^2 torsion": lambda: du.roundtrip_check(parse_module(T2_MODULE)),
    "e2 page": lambda: ad.e2_page(
        sm.random_torsion_dg_module(_ring("T"), random.Random(4), max_total=4),
        sm.cyclic_quotient(_ring("T"), [2])),
    "ext via_free": lambda: rs.ext_bigraded(
        sm.cyclic_quotient(_ring("T^2"), [1, 2]), alg.residue_field(_ring("T^2")),
        "via_free"),
    "ext via_injective": lambda: rs.ext_bigraded(
        sm.cyclic_quotient(_ring("T^2"), [1, 2]), alg.residue_field(_ring("T^2")),
        "via_injective"),
    "recognize_k": lambda: du.recognize_k(alg.residue_field(_ring("T^2"))),
    # products whose rows are rows of a factor, through monomial action
    # blocks and single-entry rows
    "recognize_k windowed kbar": lambda: du.recognize_k(
        alg.to_degreewise(alg.koszul_model(_ring("T^2")), Window(-16, 2))),
    "roundtrip T^2 seeded torsion": lambda: du.roundtrip_check(
        sm.random_torsion_dg_module(_ring("T^2"), random.Random(5), max_total=5)),
    "double centralizer T^2": lambda: du.double_centralizer_check(alg.named_group("T^2")),
    "groups extend": lambda: gr.extend_scalars(
        gr.catalog_ring_maps()["T<SU(2)"], alg.residue_field(_ring("SU(2)"))),
    "groups restrict": lambda: gr.restrict_scalars(
        gr.catalog_ring_maps()["T<SU(2)"], sm.cyclic_quotient(_ring("T"), [3])),
    "groups coextend": lambda: gr.coextend_scalars(
        gr.catalog_ring_maps()["id-T"], parse_module(T_MODULE)),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_operation_writes_no_stored_block(name, read_only_blocks):
    assert OPERATIONS[name]() is not None


def test_guard_sees_writes(monkeypatch):
    handed = _guard(monkeypatch)
    vs = GradedVS({0: 1, 1: 1, 2: 1})
    rows = [{0: 1}]
    gm = GradedMap(vs, vs, -1, {1: (1, rows, 1), 2: (2, [{0: 1}], 1)})
    assert _untouched(handed)
    assert gm.forms == {1: (1, [{0: 1}], 1), 2: (2, [{0: 1}], 1)}
    with pytest.raises(BlockWritten):
        gm.forms[1][1][0][0] = 2
    with pytest.raises(BlockWritten):
        gm.forms[1][1].append({})
    with pytest.raises(BlockWritten):
        gm.forms[0] = (1, [{0: 1}], 1)
    assert not _untouched(handed)
    WRITES.clear()
    rows[0][0] = 2  # through the reference the caller kept
    assert not _untouched(handed)
