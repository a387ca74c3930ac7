"""Output assembly: intersection types, renaming, typed source, descriptors."""

import pytest

from jtxinfer import parse, print_program
from jtxinfer.classtable import build_class_table
from jtxinfer.emit import (MethodTyping,
                           assemble_intersection_types, build_typed_class,
                           canonical_renaming, emit_descriptors,
                           format_typing, method_descriptor, name_solutions,
                           signature_report, term_to_srctype,
                           typing_sort_key)
from jtxinfer.errors import DescriptorCollision, Untypable
from jtxinfer.pipeline import SolvedClass
from jtxinfer.syntax import Program
from jtxinfer.typeterms import VOID, ClassType, TPH, fun_type

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
    a = mt([TPH("X")], TPH("X"), [(TPH("X"), None)])
    b = mt([TPH("Y")], TPH("Y"), [(TPH("Y"), None)])
    out = assemble_intersection_types([a, b])
    assert len(out) == 1


def test_assemble_keeps_distinct_typings_sorted():
    out = assemble_intersection_types([mt([DBL], DBL), mt([INT], INT)])
    assert [str(t.params[0]) for t in out] == ["Integer", "Double"]


def test_assemble_distinguishes_bounds():
    a = mt([TPH("X")], TPH("X"), [(TPH("X"), None)])
    b = mt([TPH("X")], TPH("X"), [(TPH("X"), ClassType("Number"))])
    assert len(assemble_intersection_types([a, b])) == 2


def test_assemble_ignores_clause_variables_the_signature_does_not_reach():
    # L and M are a local's; X's bound Y is reached through X
    a = mt([TPH("X")], BOOL, [(TPH("X"), TPH("Y")), (TPH("Y"), None),
                              (TPH("L"), TPH("M")), (TPH("M"), None)])
    b = mt([TPH("U")], BOOL, [(TPH("U"), TPH("V")), (TPH("V"), None),
                              (TPH("L"), None)])
    assert len(assemble_intersection_types([a, b])) == 1
    c = mt([TPH("U")], BOOL, [(TPH("U"), TPH("V")),
                              (TPH("V"), ClassType("Number"))])
    assert len(assemble_intersection_types([a, c])) == 2


def test_assemble_keeps_declared_variables_rigid():
    gens = [(ClassType("T"), None), (TPH("X"), None)]
    a = mt([ClassType("T"), TPH("X")], VOID, gens)
    b = mt([TPH("X"), ClassType("T")], VOID, gens)
    assert len(assemble_intersection_types([a, b])) == 2


def test_assemble_empty_is_untypable():
    with pytest.raises(Untypable):
        assemble_intersection_types([])


def test_format_typing_forms():
    assert format_typing(mt([INT], BOOL)) == "Integer -> Boolean"
    assert format_typing(mt([INT, DBL], VOID)) == "(Integer, Double) -> void"
    t = mt([TPH("A")], TPH("B"), [(TPH("A"), TPH("B")), (TPH("B"), None)])
    assert format_typing(t) == "<A extends B, B> A -> B"


def test_signature_report_lines():
    lines = signature_report("OL", [
        ("m", [mt([INT], INT), mt([BOOL], BOOL)])])
    assert lines == ["OL.m : Integer -> Integer & Boolean -> Boolean"]


def test_term_to_srctype_fun():
    src = term_to_srctype(fun_type((INT,), DBL))
    assert str(src) == "Fun1$$<Integer, Double>"
    src_void = term_to_srctype(fun_type((INT,), VOID))
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


def _solved(*methods):
    """A SolvedClass of a class without fields or locals."""
    return SolvedClass(class_generics=(), field_terms={},
                       methods=list(methods), local_terms={})


def _named(cls, rep, *others, classes=()):
    """`name_solutions` of `rep` and other solutions of `cls`."""
    typings = [[t, *(o.methods[i] for o in others)]
               for i, t in enumerate(rep.methods)]
    return name_solutions(cls, rep, typings, classes, ())


def _named_identity():
    cls = parse("class C { m(x) { return x; } }").classes[0]
    return _named(cls, _solved(
        mt([TPH("QQ")], TPH("QQ"), [(TPH("QQ"), None)])))


def test_name_solutions_names_canonically():
    cls, rep, typings = _named_identity()
    assert typings == [rep.methods]
    assert format_typing(rep.methods[0]) == "<A> A -> A"
    m = build_typed_class(cls, rep).methods[0]
    assert str(m.ret) == "A"
    assert [g.name for g in m.generics] == ["A"]
    assert str(m.params[0].annotation) == "A"


def test_name_solutions_bound_order_names_before_bounds():
    cls = parse("class C { m(x, y) { return x; } }").classes[0]
    cls, rep, _ = _named(cls, _solved(
        mt([TPH("P"), TPH("Q")], TPH("P"),
           [(TPH("P"), TPH("R")), (TPH("Q"), TPH("S")),
            (TPH("R"), None), (TPH("S"), None)])))
    gens = [(g.name, str(g.bound) if g.bound else None)
            for g in build_typed_class(cls, rep).methods[0].generics]
    # every generic is introduced before any bound-only name
    assert gens == [("A", "C"), ("B", "D"), ("C", None), ("D", None)]


def test_name_solutions_renames_other_solutions_apart():
    """A placeholder of another solution keeps its name unless the
    representative's naming, a declared variable or a class took it."""
    cls = parse("class C { m(x) { return x; } }").classes[0]
    rep = _solved(mt([TPH("Q")], TPH("Q"), [(TPH("Q"), None)]))
    other = _solved(mt([TPH("A")], TPH("Z"),
                       [(TPH("A"), TPH("Z")), (TPH("Z"), None)]))
    _, _, typings = _named(cls, rep, other, classes={"B": None})
    assert [format_typing(t) for t in typings[0]] == [
        "<A> A -> A", "<C extends Z, Z> C -> Z"]


def test_emit_typed_source_with_comment_block():
    prog = parse("class C { m(x) { return x; } }")
    cls, rep, _ = _named_identity()
    text = print_program(Program(prog.imports, [build_typed_class(cls, rep)]),
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
    t = mt([TPH("X"), INT], TPH("X"), [(TPH("X"), None)])
    assert method_descriptor(t) == \
        "(Ljava$lang$Object;LInteger;)Ljava$lang$Object;"


def test_emit_descriptors_lines_and_collision():
    lines = emit_descriptors("C", [("m", [mt([INT], INT), mt([DBL], DBL)])])
    assert lines == ["C.m : (LInteger;)LInteger;",
                     "C.m : (LDouble;)LDouble;"]
    clash = [("m", [mt([TPH("X")], INT, [(TPH("X"), None)]),
                    mt([TPH("Y")], INT, [(TPH("Y"), ClassType("Number"))])])]
    with pytest.raises(DescriptorCollision):
        emit_descriptors("C", clash)


def test_repeated_descriptor_is_a_collision_even_for_one_typing():
    """The typings reach `emit_descriptors` deduplicated, so any repeated
    descriptor is a collision, even one typing given twice."""
    same = [("m", [mt([TPH("X")], TPH("X"), [(TPH("X"), None)])] * 2)]
    with pytest.raises(DescriptorCollision):
        emit_descriptors("C", same)
