"""Class-table construction, visibility scanning and declared subtyping."""

import json
from importlib import resources

import pytest

from jtxinfer import DuplicateClass, UnknownImport, parse
from jtxinfer.classtable import (CLASS, ClassTable, build_class_table,
                                 load_builtin_entries, resolve_src_type)
from jtxinfer.errors import ArityMismatch, UnsupportedFeature
from jtxinfer.pipeline import (descriptor_lines, funiface_manifest,
                               run_source, signature_lines, typed_source)
from jtxinfer.typeterms import VOID, ClassType, TPH, TypeVar, fun_type

from conftest import ALL_GOLDEN_SRCS, OLFUN_SRC, PINNED_SRCS


def table_for(src):
    return build_class_table(parse(src))


def test_bundled_entries_are_shared_and_never_written():
    """Each call gets a new dict over the one parse of the bundled table,
    and compiling a program, one that declares its own `Pair` among them,
    leaves the entries equal to a fresh parse of the file."""
    bundled = resources.files("jtxinfer").joinpath("builtins.json")
    first, second = load_builtin_entries(), load_builtin_entries()
    assert first is not second
    assert all(first[n] is second[n] for n in first)
    for src in ALL_GOLDEN_SRCS.values():
        run_source(src)
    assert load_builtin_entries() == load_builtin_entries(bundled)
    own_pair = run_source("class Pair { fst() { return 1; } } "
                          "class D { k(p) { return p.fst(); } }")
    assert own_pair.table.entry("Pair").qualified == "Pair"
    assert load_builtin_entries() == load_builtin_entries(bundled)
    diamond = run_source(PINNED_SRCS["DiamondFst"])
    assert signature_lines(diamond) == ["C.m : <A extends B, B> A -> B"]


def test_literals_force_builtins():
    t = table_for("class A { m() { var x = 1; var b = true; return x; } }")
    assert t.has("Integer")
    assert t.has("Boolean")
    assert not t.has("Pair")


def test_comparison_forces_number():
    t = table_for("class A { m(x, y) { return x <= y; } }")
    assert t.has("Number")
    assert t.has("Boolean")


def test_import_brings_type_into_scope():
    t = table_for("import java.util.Pair;\nclass A { }")
    assert t.has("Pair")
    assert t.entry("Pair").qualified == "java.util.Pair"


def test_unknown_import_rejected():
    with pytest.raises(UnknownImport):
        table_for("import com.example.Missing;\nclass A { }")
    # function types are generated table classes, not importable ones
    with pytest.raises(UnknownImport):
        table_for("import Fun1$$;\nclass A { }")


# a table file listing a function head first, as files written before
# function types were generated may
_FUN1_ENTRY = {
    "name": "Fun1$$", "qualified": "Fun1$$", "params": ["T1", "R"],
    "variance": [-1, 1], "super": {"class": "Object", "args": []},
    "methods": [{"name": "apply", "typeparams": [],
                 "params": [{"var": "T1"}], "return": {"var": "R"}}],
    "constructor": []}


def test_table_file_cannot_define_function_heads(tmp_path):
    bundled = resources.files("jtxinfer").joinpath("builtins.json")
    data = json.loads(bundled.read_text())
    data["classes"].insert(0, _FUN1_ENTRY)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    assert "Fun1$$" not in load_builtin_entries(path)
    for table in (None, path):
        with pytest.raises(UnknownImport, match="unresolvable import"):
            run_source("import Fun1$$;\nclass C { m(a) { return a; } }",
                       table)
    outputs = [(typed_source(r), signature_lines(r), descriptor_lines(r),
                funiface_manifest(r))
               for r in (run_source(OLFUN_SRC, table)
                         for table in (None, path))]
    assert outputs[0] == outputs[1]


def test_duplicate_class_rejected():
    with pytest.raises(DuplicateClass):
        table_for("class A { } class A { }")


def test_lambda_forces_fun_interface():
    t = table_for("class A { f = x -> x; }")
    assert t.has("Fun1$$")


def test_fun_entries_are_generated_for_every_used_arity():
    t = table_for("import java.util.Pair; class A { f = () -> { }; "
                  "m(g) { return g.apply(1, 2, 3, 4, 5); } }")
    # after the built-ins, ordered by (void, arity)
    assert list(t.entries) == [
        "Object", "Number", "Integer", "Pair", "Fun0$$", "Fun5$$",
        "FunVoid0$$", "FunVoid5$$", "A"]
    fun5 = t.entry("Fun5$$")
    assert fun5.params == ["T1", "T2", "T3", "T4", "T5", "R"]
    assert fun5.variance == [-1, -1, -1, -1, -1, 1]
    assert fun5.super_template == ClassType("Object")
    (apply,) = fun5.methods
    assert (apply.name, apply.params, apply.ret) == (
        "apply", [ClassType(f"T{i}") for i in range(1, 6)], ClassType("R"))
    void0 = t.entry("FunVoid0$$")
    assert (void0.params, void0.variance) == ([], [])
    assert void0.methods[0].ret == VOID


def test_fun_heads_beyond_the_jvm_parameter_limit_are_unsupported():
    t = table_for("class A { m() { Fun254$$ f; return 1; } }")
    assert t.entry("Fun254$$").arity == 255
    with pytest.raises(UnsupportedFeature, match="more than 254"):
        table_for("class A { FunVoid255$$ f; }")
    # no entry of any size is built for a name like this one
    with pytest.raises(UnsupportedFeature):
        table_for("class A { Fun99999999999999$$ f; }")
    # a head spells its arity without leading zeros
    with pytest.raises(UnknownImport, match="unknown type 'Fun01\\$\\$'"):
        table_for("class A { Fun01$$<Object, Object> f; }")


def test_annotated_lambda_parameter_forces_its_type():
    assert table_for("class A { f = (Double x) -> x; }").has("Double")


def test_only_fully_annotated_methods_are_declared():
    t = table_for("class A { m(x) { return x; } Integer n(Integer y) "
                  "{ return y; } o(Integer z) { return z; } void v() { } }")
    assert [m.name for m in t.entry("A").methods] == ["n", "v"]
    assert [name for name, e in t.entries.items()
            if any(m.name == "m" and len(m.params) == 1
                   for m in e.methods)] == []
    assert [name for name, e in t.entries.items()
            if any(m.name == "n" and len(m.params) == 1
                   for m in e.methods)] == ["A"]


def test_user_class_registered_with_object_super():
    t = table_for("class A { } class B { }")
    assert t.has("A") and t.has("B")
    assert t.is_subtype(ClassType("A"), ClassType("Object"))


def test_supertype_chain_of_integer():
    t = table_for("class A { m() { return 1; } }")
    chain = [str(x) for x in t.supertype_chain(ClassType("Integer"))]
    assert chain == ["Integer", "Number", "Object"]


def _uncached_chain(table, term):
    return tuple(table._walk_supertypes(term))


def test_cached_chains_equal_the_walk():
    table = ClassTable(load_builtin_entries())
    for name, entry in table.entries.items():
        term = ClassType(name, tuple(TPH(f"P{i}")
                                     for i in range(entry.arity)))
        assert table.supertype_chain(term) == _uncached_chain(table, term)
        assert table.supertype_chain(term) is table.supertype_chain(term)
    t, u, v = (TypeVar(name, ("method", 0)) for name in ("T", "U", "V"))
    view = ClassTable(table.entries,
                      {t: ClassType("Integer"), u: None, v: t})
    for term in (t, u, v):
        assert view.supertype_chain(term) == _uncached_chain(view, term)
    assert [str(x) for x in view.supertype_chain(v)] == [
        "V", "T", "Integer", "Number", "Object"]


def test_each_view_caches_its_own_chains():
    table = ClassTable(load_builtin_entries())
    t = TypeVar("T", CLASS)
    bounded = ClassTable(table.entries, {t: ClassType("Number")})
    unbounded = ClassTable(table.entries, {t: None})
    assert [str(x) for x in bounded.supertype_chain(t)] == [
        "T", "Number", "Object"]
    assert [str(x) for x in unbounded.supertype_chain(t)] == ["T", "Object"]
    assert table.supertype_chain(t) == (t,)


def test_building_a_table_walks_no_chain():
    # entries are still being added, so a chain walked now could go stale
    t = table_for("class A<X extends Integer> { X f; "
                  "<Y extends X> Y m(Y y) { return y; } }")
    assert t._chains == {}


def test_is_subtype_builtin_chain():
    t = table_for("import java.lang.Double;\nclass A { m() { return 1; } }")
    assert t.is_subtype(ClassType("Integer"), ClassType("Number"))
    assert not t.is_subtype(ClassType("Number"), ClassType("Integer"))
    assert not t.is_subtype(ClassType("Integer"), ClassType("Double"))


def test_fun_type_variance():
    t = table_for("class A { f = x -> x; m(x, y) { return x <= y; } "
                  "n() { return 1; } }")
    sub = fun_type((ClassType("Number"),), ClassType("Integer"))
    sup = fun_type((ClassType("Integer"),), ClassType("Number"))
    assert t.is_subtype(sub, sup)
    assert not t.is_subtype(sup, sub)


def test_pair_is_invariant():
    t = table_for("import java.util.Pair;\nclass A { m() { return 1; } }")
    p_int = ClassType("Pair", (ClassType("Integer"), ClassType("Integer")))
    p_num = ClassType("Pair", (ClassType("Number"), ClassType("Number")))
    assert not t.is_subtype(p_int, p_num)
    assert t.is_subtype(p_int, ClassType("Object"))


def test_subtype_heads_below_number():
    t = table_for("import java.lang.Double;\nclass A { m() { return 1; } }")
    heads = t.subtype_heads("Number", ("class",))
    assert "Integer" in heads and "Double" in heads and "Number" in heads
    assert "Boolean" not in heads


def test_typevar_scope_subtyping():
    t = table_for("class A { m() { return 1; } }")
    var = TypeVar("T", CLASS)
    scoped = ClassTable(t.entries, {var: ClassType("Number")})
    assert scoped.clause(CLASS) == ((var, ClassType("Number")),)
    assert scoped.is_subtype(var, ClassType("Number"))
    assert scoped.is_subtype(var, ClassType("Object"))
    assert not scoped.is_subtype(ClassType("Number"), var)


def test_resolve_src_type_forms():
    prog = parse("import java.util.Pair;\nclass A { f = x -> x; "
                 "m() { return 1; } }")
    t = build_class_table(prog)
    src = parse("class B { Pair<Integer, Integer> p; Fun1$$<Integer, "
                "Integer> f; void v() { } }").classes[0]
    p = resolve_src_type(src.fields[0].annotation, t)
    assert p == ClassType("Pair", (ClassType("Integer"),
                                   ClassType("Integer")))
    f = resolve_src_type(src.fields[1].annotation, t)
    assert f == fun_type((ClassType("Integer"),), ClassType("Integer"))
    v = resolve_src_type(src.methods[0].ret, t)
    assert v == VOID


def test_resolve_arity_mismatch():
    prog = parse("import java.util.Pair;\nclass A { }")
    t = build_class_table(prog)
    bad = parse("class B { Pair<Object> p; }").classes[0]
    with pytest.raises(ArityMismatch):
        resolve_src_type(bad.fields[0].annotation, t)
    # a function type's arity is checked like any class's
    with pytest.raises(ArityMismatch) as info:
        table_for("import java.lang.Integer;\n"
                  "class C { Fun1$$<Integer, Integer, Integer> f; }")
    assert str(info.value) == \
        "2:11: Fun1$$ expects 2 type argument(s), got 3"


def test_instantiated_methods_of_pair():
    t = table_for("import java.util.Pair;\nclass A { m() { return 1; } }")
    term = ClassType("Pair", (ClassType("Integer"), ClassType("Boolean")))
    (fst,) = [t.instantiate_method(m, term, ())[1]
              for m in t.entry("Pair").methods
              if m.name == "fst" and not m.params]
    assert fst == ClassType("Integer")
    (snd,) = [t.instantiate_method(m, term, ())[1]
              for m in t.entry("Pair").methods
              if m.name == "snd" and not m.params]
    assert snd == ClassType("Boolean")


def test_classes_with_method_apply():
    t = table_for("class A { f = x -> x; }")
    assert any(m.name == "apply" and len(m.params) == 1
               for m in t.entry("Fun1$$").methods)
