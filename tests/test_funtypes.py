"""Function-type name mangling, decoding, hierarchy and descriptors."""

import itertools

import pytest

from jtxinfer import parse
from jtxinfer.classtable import CLASS, ClassTable, build_class_table
from jtxinfer.errors import JtxError
from jtxinfer.funtypes import (collect_used_funtypes, decode_funtype_name,
                               descriptor_term, fun_interface_hierarchy,
                               mangle_funtype_name, render_manifest)
from jtxinfer.typeterms import VOID, ClassType, TPH, TypeVar, fun_type

DBL = ClassType("Double")
INT = ClassType("Integer")
NUM = ClassType("Number")
STR = ClassType("String")
BOOL = ClassType("Boolean")
OBJ = ClassType("Object")

GROUND = [INT, DBL, NUM, STR, BOOL, OBJ]
# FunVoid0$$ and Fun0$$<Integer>: function types without parameters
NULLARY = [fun_type((), VOID), fun_type((), INT)]


@pytest.fixture(scope="module")
def table():
    return build_class_table(parse(
        "import java.lang.Integer;\nimport java.lang.Double;\n"
        "import java.lang.String;\nimport java.lang.Boolean;\n"
        "class Scratch { f = x -> x; g = (x, y) -> x; }"))


def test_mangle_ground_unary():
    t = fun_type((DBL,), DBL)
    assert mangle_funtype_name(t) == "Fun1$$$_$Double$_$Double$_$"


def test_mangle_uses_qualified_names(table):
    t = fun_type((DBL,), DBL)
    assert mangle_funtype_name(t, table) == \
        "Fun1$$$_$java$lang$Double$_$java$lang$Double$_$"


def test_mangle_void_omits_return():
    t = fun_type((INT,), VOID)
    assert mangle_funtype_name(t) == "FunVoid1$$$_$Integer$_$"
    assert mangle_funtype_name(fun_type((), VOID)) == "FunVoid0$$"


def test_mangle_nested_funtype():
    inner = fun_type((INT,), INT)
    outer = fun_type((inner,), DBL)
    name = mangle_funtype_name(outer)
    assert name == ("Fun1$$$_$Fun1$$$_$Integer$_$Integer$_$"
                    "$_$Double$_$")
    assert decode_funtype_name(name) == outer


def test_nonground_erases_to_root():
    assert mangle_funtype_name(fun_type((TPH("T"),), INT)) == "Fun1$$"
    assert mangle_funtype_name(fun_type((INT,), TPH("T"))) == "Fun1$$"


def test_typevar_erases_to_root(table):
    scoped = ClassTable(table.entries, {TypeVar("T", CLASS): OBJ})
    assert mangle_funtype_name(fun_type((TypeVar("T", CLASS),), INT),
                               scoped) == "Fun1$$"


def test_decode_inverts_mangle(table):
    terms = [fun_type(args, GROUND[len(args[0].name) % len(GROUND)])
             for args in itertools.product(GROUND, repeat=2)]
    for t in terms + NULLARY + [fun_type((t,), INT) for t in NULLARY]:
        name = mangle_funtype_name(t)
        assert decode_funtype_name(name) == t


def test_decode_inverts_qualified(table):
    t = fun_type((DBL, STR), BOOL)
    name = mangle_funtype_name(t, table)
    assert decode_funtype_name(name, table) == t


def test_decode_rejects_garbage():
    with pytest.raises(JtxError):
        decode_funtype_name("NotAFun")
    with pytest.raises(JtxError):
        decode_funtype_name("Fun1$$$_$Double$_$")   # missing return slot
    with pytest.raises(JtxError):
        decode_funtype_name("Fun1$$$_$Double$_$Double$_$junk")


def test_mangling_injective_over_ground_universe():
    seen = {}
    terms = list(NULLARY)
    for a in GROUND:
        terms.append(fun_type((a,), VOID))
        for r in GROUND:
            terms.append(fun_type((a,), r))
            for b in GROUND:
                terms.append(fun_type((a, b), r))
    for t in terms:
        name = mangle_funtype_name(t)
        assert name not in seen, f"collision: {t} vs {seen[name]}"
        seen[name] = t
        assert decode_funtype_name(name) == t


def test_collect_used_funtypes_deduplicates():
    f = fun_type((INT,), INT)
    g = fun_type((DBL,), f)
    used = collect_used_funtypes([f, g, ClassType("Pair", (f, INT))])
    assert used == sorted({f, g}, key=str)
    assert f in used and g in used


def test_hierarchy_immediate_supers(table):
    bottom = fun_type((NUM,), INT)     # most specific
    mid = fun_type((INT,), NUM)
    top = fun_type((INT,), OBJ)
    decls = {d.name: d for d in
             fun_interface_hierarchy([bottom, mid, top], table)}
    b = decls[mangle_funtype_name(bottom, table)]
    # bottom's only *immediate* used super is mid; top is reachable via mid
    assert b.direct_supers == [mangle_funtype_name(mid, table)]
    m = decls[mangle_funtype_name(mid, table)]
    assert m.direct_supers == [mangle_funtype_name(top, table)]
    t = decls[mangle_funtype_name(top, table)]
    assert t.direct_supers == []
    assert t.root == "Fun1$$"


def test_render_manifest_format(table):
    t = fun_type((DBL,), DBL)
    (decl,) = fun_interface_hierarchy([t], table)
    text = render_manifest([decl])
    assert text == (mangle_funtype_name(t, table) + " : Fun1$$\n")


def test_descriptor_terms(table):
    assert descriptor_term(VOID) == "V"
    assert descriptor_term(INT, table) == "Ljava$lang$Integer;"
    assert descriptor_term(TPH("X"), table) == "Ljava$lang$Object;"
    scoped = ClassTable(table.entries, {TypeVar("T", CLASS): OBJ})
    assert descriptor_term(TypeVar("T", CLASS),
                           scoped) == "Ljava$lang$Object;"
    f = fun_type((DBL,), DBL)
    assert descriptor_term(f, table) == \
        "L" + mangle_funtype_name(f, table) + ";"
