"""Output assembly: intersection types, renaming, typed source, descriptors."""

import pytest

from jtxinfer import parse, print_program
from jtxinfer.classtable import build_class_table
from jtxinfer.emit import (AnnotatedClass, MethodTyping,
                           assemble_intersection_types, build_typed_class,
                           canonical_renaming, emit_descriptors,
                           format_typing,
                           method_descriptor, signature_report,
                           term_to_srctype, typing_sort_key)
from jtxinfer.errors import DescriptorCollision, Untypable
from jtxinfer.syntax import Program
from jtxinfer.typeterms import VOID, ClassType, FunType, TPH

INT = ClassType("Integer")
DBL = ClassType("Double")
STR = ClassType("String")
BOOL = ClassType("Boolean")


def mt(params, ret, generics=()):
    return MethodTyping(tuple(generics), tuple(params), ret)


def test_sort_key_builtin_order_then_lexicographic():
    ts = [mt([STR], STR), mt([INT], INT), mt([BOOL], BOOL),
          mt([DBL], DBL), mt([ClassType("Aardvark")], INT)]
    ordered = sorted(ts, key=typing_sort_key)
    heads = [str(t.params[0]) for t in ordered]
    assert heads == ["Integer", "Double", "String", "Boolean", "Aardvark"]


def test_assemble_dedups_modulo_renaming():
    a = mt([TPH("X")], TPH("X"), [("X", None)])
    b = mt([TPH("Y")], TPH("Y"), [("Y", None)])
    out = assemble_intersection_types([a, b])
    assert len(out) == 1


def test_assemble_keeps_distinct_typings_sorted():
    out = assemble_intersection_types([mt([DBL], DBL), mt([INT], INT)])
    assert [str(t.params[0]) for t in out] == ["Integer", "Double"]


def test_assemble_distinguishes_bounds():
    a = mt([TPH("X")], TPH("X"), [("X", None)])
    b = mt([TPH("X")], TPH("X"), [("X", "Number")])
    assert len(assemble_intersection_types([a, b])) == 2


def test_assemble_empty_is_untypable():
    with pytest.raises(Untypable):
        assemble_intersection_types([])


def test_format_typing_forms():
    assert format_typing(mt([INT], BOOL)) == "Integer -> Boolean"
    assert format_typing(mt([INT, DBL], VOID)) == "(Integer, Double) -> void"
    t = mt([TPH("A")], TPH("B"),
           [("A", "B"), ("B", None), ("C", "Object")])
    assert format_typing(t) == "<A extends B, B, C> A -> B"


def test_signature_report_lines():
    lines = signature_report("OL", [
        ("m", [mt([INT], INT), mt([BOOL], BOOL)])])
    assert lines == ["OL.m : Integer -> Integer & Boolean -> Boolean"]


def test_term_to_srctype_fun():
    src = term_to_srctype(FunType((INT,), DBL))
    assert str(src) == "Fun1$$<Integer, Double>"
    src_void = term_to_srctype(FunType((INT,), VOID))
    assert str(src_void) == "FunVoid1$$<Integer>"
    assert str(term_to_srctype(VOID)) == "void"


def test_canonical_renaming_first_use_and_reserved():
    ren = canonical_renaming(["Q", "P", "Q", "Z"])
    assert ren == {"Q": "A", "P": "B", "Z": "C"}
    ren = canonical_renaming(["Q", "P"], reserved={"A", "C"})
    assert ren == {"Q": "B", "P": "D"}


def test_canonical_renaming_past_alphabet():
    names = [f"N{i}" for i in range(28)]
    ren = canonical_renaming(names)
    assert ren["N25"] == "Z" and ren["N26"] == "AA" and ren["N27"] == "AB"


def _annotated_identity():
    cls = parse("class C { m(x) { return x; } }").classes[0]
    return AnnotatedClass(
        cls=cls, class_generics=[], field_terms={},
        method_generics=[[("QQ", None)]],
        method_params=[[TPH("QQ")]], method_rets=[TPH("QQ")])


def test_build_typed_class_renames_canonically():
    typed, ren = build_typed_class(_annotated_identity())
    assert ren == {"QQ": "A"}
    m = typed.methods[0]
    assert str(m.ret) == "A"
    assert [g.name for g in m.generics] == ["A"]
    assert str(m.params[0].annotation) == "A"


def test_build_typed_class_bound_order_names_before_bounds():
    cls = parse("class C { m(x, y) { return x; } }").classes[0]
    ann = AnnotatedClass(
        cls=cls, class_generics=[], field_terms={},
        method_generics=[[("P", "R"), ("Q", "S"), ("R", None), ("S", None)]],
        method_params=[[TPH("P"), TPH("Q")]], method_rets=[TPH("P")])
    typed, _ = build_typed_class(ann)
    gens = [(g.name, str(g.bound) if g.bound else None)
            for g in typed.methods[0].generics]
    # every generic is introduced before any bound-only name
    assert gens == [("A", "C"), ("B", "D"), ("C", None), ("D", None)]


def test_emit_typed_source_with_comment_block():
    prog = parse("class C { m(x) { return x; } }")
    typed, _ = build_typed_class(_annotated_identity())
    text = print_program(Program(prog.imports, [typed]),
                         {"C": {0: ["C.m : Integer -> Integer"]}})
    lines = text.splitlines()
    assert "    // C.m : Integer -> Integer" in lines
    comment_at = lines.index("    // C.m : Integer -> Integer")
    assert lines[comment_at + 1].lstrip().startswith("<A> A m(A x)")


def test_emit_typed_source_imports_kept():
    prog = parse("import java.util.Pair;\nclass C { }")
    text = print_program(prog)
    assert text.splitlines()[0] == "import java.util.Pair;"


def test_method_descriptor_erasure():
    t = mt([TPH("X"), INT], TPH("X"), [("X", None)])
    assert method_descriptor(t) == \
        "(Ljava$lang$Object;LInteger;)Ljava$lang$Object;"


def test_emit_descriptors_lines_and_collision():
    lines = emit_descriptors("C", [("m", [mt([INT], INT), mt([DBL], DBL)])])
    assert lines == ["C.m : (LInteger;)LInteger;",
                     "C.m : (LDouble;)LDouble;"]
    clash = [("m", [mt([TPH("X")], INT, [("X", None)]),
                    mt([TPH("Y")], INT, [("Y", "Number")])])]
    with pytest.raises(DescriptorCollision):
        emit_descriptors("C", clash)


def test_duplicate_typings_share_descriptor_without_error():
    same = [("m", [mt([TPH("X")], TPH("X"), [("X", None)])] * 2)]
    lines = emit_descriptors("C", same)
    assert len(lines) == 2
