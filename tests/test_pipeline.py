"""End-to-end inference on the reference programs."""

import importlib
import json
import re
import sys
from importlib import resources
from pathlib import Path

import pytest

import jtxinfer as J
from jtxinfer.emit import _heads, clause_terms, format_typing
from jtxinfer.errors import (ArityMismatch, JtxError, JtxSyntaxError,
                             ResourceLimit, UnknownIdentifier, UnknownImport,
                             UnknownMember, UnsupportedFeature, Untypable)
from jtxinfer.syntax import alpha_equivalent
from jtxinfer.typeterms import ClassType, TypeVar

from conftest import (ALL_GOLDEN_SRCS, CAPTURE_SRC, CYCLE_SRC, FAC_SRC,
                      INFIMUM_SRC, MUTUAL_SRC, OL_SRC, OLFUN_SRC, PINNED_SRCS,
                      TPHS_SRC)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

# `jtxinfer.unify` is the function; the budget lives in the module
UNIFY = importlib.import_module("jtxinfer.unify")
PIPELINE = importlib.import_module("jtxinfer.pipeline")

# a method body nested deeper than the interpreter's recursion limit
DEEP_PARENS_SRC = ("class C { m(x) { return " + "(" * 1000 + "x" + ")" * 1000
                   + "; } }")

FAC_TYPED = """\
class Fac {
    Integer getFac(Integer n) {
        Integer res = 1;
        Integer i = 1;
        while (i <= n) {
            res = res * i;
            i++;
        }
        return res;
    }
}
"""

TPHS_TYPED = """\
class TPHsToGenerics<UD extends DZP, DZP extends ETX, ETX> {
    Fun1$$<UD, ETX> id = x -> x;
    <V extends UD> ETX id2(V x) {
        return id.apply(x);
    }
    <AM, AN extends AI, AI> AI m(AM a, AN b) {
        return b;
    }
    <AB extends AA, AD extends AE, AA, AE> AA m2(AB a, AD b) {
        AE c = m(a, b);
        return a;
    }
}
"""

# Completing the bound family along the mutually recursive calls gives the
# parameter placeholders two incomparable upper bounds each, so the repair
# step merges {x, y2, fst-component} and {y, x2, snd-component} per method.
MUTUAL_TYPED = """\
import java.util.Pair;

class Mutual {
    <B extends BB, C extends B, BB> Pair<B, BB> m1(B x, C y) {
        B y2 = m2(x, y).snd();
        return new Pair<>(id(x), y2);
    }
    <F extends G, G extends HH, HH> Pair<HH, G> m2(F x, G y) {
        G x2 = m1(x, y).fst();
        return new Pair<>(x2, id(y));
    }
    <J extends I, I> I id(J x) {
        return x;
    }
}
"""

CYCLE_TYPED = """\
class Cycle {
    <X> void m(X x, X y) {
        y = x;
        x = y;
    }
}
"""

INFIMUM_TYPED = """\
class Infimum {
    <X> void m(X a, X b, X c) {
        b = a;
        c = a;
    }
}
"""


def run(src, **kw):
    return J.run_source(src, **kw)


def test_fac_typed_source(fac_result):
    assert alpha_equivalent(J.parse(J.typed_source(fac_result)),
                            J.parse(FAC_TYPED))
    assert J.signature_lines(fac_result) == ["Fac.getFac : Integer -> Integer"]


def test_fac_single_solution_no_remaining(fac_result):
    (r,) = fac_result.class_results
    assert r.remainings == [()]


def test_tphs_typed_source(tphs_result):
    assert alpha_equivalent(J.parse(J.typed_source(tphs_result)),
                            J.parse(TPHS_TYPED))


def test_mutual_typed_source(mutual_result):
    assert alpha_equivalent(J.parse(J.typed_source(mutual_result)),
                            J.parse(MUTUAL_TYPED))


def test_cycle_collapses_to_single_variable():
    r = run(CYCLE_SRC)
    assert alpha_equivalent(J.parse(J.typed_source(r)), J.parse(CYCLE_TYPED))
    assert J.signature_lines(r) == ["Cycle.m : <A> (A, A) -> void"]


def test_infimum_collapses_to_single_variable():
    r = run(INFIMUM_SRC)
    assert alpha_equivalent(J.parse(J.typed_source(r)),
                            J.parse(INFIMUM_TYPED))
    assert J.signature_lines(r) == ["Infimum.m : <A> (A, A, A) -> void"]


def test_ol_intersection_types_and_registration():
    r = run(OL_SRC)
    assert J.signature_lines(r) == [
        "OL.m : Integer -> Integer & Double -> Double & String -> String",
        "OL.m : Boolean -> Boolean",
        "OLMain.main : Integer -> Integer & Double -> Double"
        " & String -> String & Boolean -> Boolean",
    ]
    # the representative picks the first intersection member
    text = J.typed_source(r)
    assert "Integer m(Integer x)" in text
    assert "Boolean m(Boolean x)" in text
    assert "// OL.m : Integer -> Integer & Double -> Double"\
        " & String -> String" in text


def test_olfun_descriptors_pairwise_distinct():
    r = run(OLFUN_SRC)
    descs = J.descriptor_lines(r)
    assert descs == [
        "OLFun.m : (LFun1$$$_$java$lang$Double$_$java$lang$Double$_$;)"
        "Ljava$lang$Double;",
        "OLFun.m : (LFun1$$$_$java$lang$Integer$_$java$lang$Integer$_$;)"
        "Ljava$lang$Integer;",
        "OLFun.m : (LFun1$$$_$java$lang$String$_$java$lang$String$_$;)"
        "Ljava$lang$String;",
    ]
    assert len(set(descs)) == 3


def test_olfun_funiface_manifest():
    r = run(OLFUN_SRC)
    assert J.funiface_manifest(r) == (
        "Fun1$$$_$java$lang$Double$_$java$lang$Double$_$ : Fun1$$\n"
        "Fun1$$$_$java$lang$Integer$_$java$lang$Integer$_$ : Fun1$$\n"
        "Fun1$$$_$java$lang$String$_$java$lang$String$_$ : Fun1$$\n")


def test_funiface_manifest_one_line_per_interface():
    """Two non-ground instantiations erase to one interface name."""
    r = run("class C { m(a) { var f = x -> x; var g = y -> y; return a; } }")
    assert J.funiface_manifest(r) == "Fun1$$ : Fun1$$\n"


def test_dump_stages_populated():
    r = run(FAC_SRC, dump_stages=("constraints", "solutions", "generics"))
    assert r.dumps["constraints"].startswith("# Fac candidate")
    assert "remaining:" in r.dumps["solutions"]
    assert "sigma:" in r.dumps["solutions"]
    # Fac is fully ground, so its generics family is empty
    assert r.dumps["generics"] == "# Fac\n"
    r2 = run(CYCLE_SRC, dump_stages=("generics",))
    assert "extends Object" in r2.dumps["generics"]


def test_untypable_program_raises():
    with pytest.raises(Untypable):
        run("class B { Boolean m() { var x = 1; return x; } }")


def test_step_budget_is_a_resource_limit_not_untypable(monkeypatch):
    monkeypatch.setattr(UNIFY, "MAX_STEPS", 3)
    with pytest.raises(ResourceLimit, match="class Fac"):
        run(FAC_SRC)
    assert not issubclass(ResourceLimit, Untypable)


def test_deep_nesting_is_a_resource_limit():
    with pytest.raises(ResourceLimit, match="recursion"):
        run(DEEP_PARENS_SRC)


# one program per diagnostic: its error class and `line:col`, None for a
# resource limit, which has no position
DIAGNOSTICS = {
    "DuplicateLocal": ("class C { m() { var x = 1; var x = 2; return x; } }",
                       UnknownIdentifier, "1:28"),
    "NoVisiblePlus": ("class C { m(a, b) { return a + b; } }",
                      Untypable, "1:30"),
    "UnknownOwnMethod": ("class C { m() { return n(); } }",
                         UnknownIdentifier, "1:24"),
    "NewTypeVariable": ("class C<T> { m() { return new T(); } }",
                        UnknownIdentifier, "1:31"),
    "NewUnknownClass": ("class C { m() { return new Foo(); } }",
                        UnknownImport, "1:28"),
    "NewWrongArity": ("class C { m() { return new Pair<Integer>(1, 2); } }",
                      ArityMismatch, "1:28"),
    "DiamondOutsideNew": ("class C { m() { Pair<> x = new Pair<>(1, 2); "
                          "return x; } }", UnsupportedFeature, "1:17"),
    "TypeVariableWithArgs": ("class C<T> { T<Integer> f; }",
                             ArityMismatch, "1:14"),
    "DuplicateField": ("class C { f; f; }", JtxSyntaxError, "1:14"),
    "FunctionTypeClass": ("class C { } class FunVoid0$$ { }",
                          UnsupportedFeature, "1:13"),
    # a field initializer reads no field declared at or after its own
    "ForwardField": ("class A { f = g; g = 1; }", UnknownIdentifier, "1:15"),
    "ForwardAnnotatedField": ("import java.lang.Integer; "
                              "class A { Integer f = g; Integer g = 1; }",
                              UnknownIdentifier, "1:49"),
    "ForwardFieldInLambda": ("class A { f = x -> g; g = 1; }",
                             UnknownIdentifier, "1:20"),
    "SelfReferenceField": ("class A { f = f; }", UnknownIdentifier, "1:15"),
    "AssignmentTarget": ("class C { m(a) { 1 = a; } }",
                         JtxSyntaxError, "1:18"),
    "IncrementTarget": ("class C { m(a) { a.m()++; } }",
                        JtxSyntaxError, "1:18"),
    "BareReturn": ("class C { m(a) { while (a) { return; } return 1; } }",
                   Untypable, "1:30"),
    "UnknownQualifiedLocal": ("class C { m() { java.util.Integer x = 1; "
                              "return x; } }", UnknownImport, "1:17"),
    "UnknownQualifiedParam": ("class C { m(foo.C c) { return c; } }",
                              UnknownImport, "1:13"),
    "DeepParens": ("class C { m() { return " + "(" * 3000 + "1" + ")" * 3000
                   + "; } }", ResourceLimit, None),
}


def test_field_initializer_names_the_reference_javac_refuses():
    # javac: "illegal forward reference", "self-reference in initializer"
    for src, message in [
            ("class A { f = x -> g; g = 1; }", "1:20: illegal forward "
             "reference to field 'g' in initializer of field 'f'"),
            ("class A { f = x -> f.apply(x); }", "1:20: self-reference in "
             "initializer of field 'f'")]:
        with pytest.raises(UnknownIdentifier) as info:
            run(src)
        assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(DIAGNOSTICS))
def test_diagnostic_has_its_class_and_position(name):
    src, error, pos = DIAGNOSTICS[name]
    with pytest.raises(JtxError) as info:
        run(src)
    exc = info.value
    assert type(exc) is error, exc
    assert (exc.line and f"{exc.line}:{exc.col}") == pos, exc


@pytest.mark.parametrize("new, annotation", [
    ("new Foo()", "Foo x = 1;"),
    ("new Pair<Integer>(1, 2)", "Pair<Integer> x = 1;")])
def test_new_reports_what_the_same_annotation_reports(new, annotation):
    """The class of a `new` resolves as an annotation does."""
    errors = []
    for body in (f"return {new};", f"{annotation} return x;"):
        with pytest.raises(JtxError) as info:
            run(f"class C {{ m() {{ {body} }} }}")
        errors.append((type(info.value), info.value.message))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("new", [
    "new Pair<>(1, 2)", "new java.util.Pair<>(1, 2)", "new Pair(1, 2)"])
def test_raw_and_qualified_new_type_as_the_diamond(new):
    r = run(f"class C {{ m() {{ return {new}; }} }}")
    assert J.signature_lines(r) == [
        "C.m : () -> Object & () -> Pair<Integer, Integer>"]


def test_one_mapping_keeps_a_class_argument_named_like_a_method_variable(
        tmp_path):
    """`Box<A>` declares `<T> T put(A a, T t)`; on `Box<T>` of a user class
    `T` the class argument is not the method's `T`."""
    bundled = resources.files("jtxinfer").joinpath("builtins.json")
    table = json.loads(bundled.read_text())
    table["classes"].append({
        "name": "Box", "qualified": "java.util.Box", "params": ["A"],
        "variance": [0], "super": {"class": "Object", "args": []},
        "methods": [{"name": "put", "typeparams": ["T"],
                     "params": [{"var": "A"}, {"var": "T"}],
                     "return": {"var": "T"}}]})
    path = tmp_path / "builtins.json"
    path.write_text(json.dumps(table))
    r = run("import java.util.Box; import java.lang.Integer; class T { } "
            "class C { m(Box<T> b) { return b.put(new T(), 1); } }",
            table_path=str(path))
    assert J.signature_lines(r)[-1] == "C.m : Box<T> -> Integer"


def test_recursion_in_a_class_names_it(monkeypatch):
    def overflow(*args, **kwargs):
        raise RecursionError

    monkeypatch.setattr(PIPELINE, "unify", overflow)
    with pytest.raises(ResourceLimit, match="^class Fac: recursion"):
        run(FAC_SRC)


def test_cross_class_call_keeps_callee_bound():
    src = ("class D0 { f(x) { return x; } }\n"
           "class D1 { f(x) { return new D0().f(x); } }\n")
    first = run(src)
    assert J.signature_lines(first)[1] == "D1.f : <A extends B, B> A -> B"
    second = run(J.typed_source(first))
    assert J.signature_lines(second) == J.signature_lines(first)


def test_method_generic_does_not_capture_class_generic():
    first = run(CAPTURE_SRC)
    assert J.signature_lines(first) == ["T.id2 : A -> A"]
    second = run(J.typed_source(first))
    assert J.signature_lines(second) == J.signature_lines(first)


def test_signature_clause_is_the_typed_source_clause():
    r = run(MUTUAL_SRC)
    assert J.signature_lines(r)[0].startswith(
        "Mutual.m1 : <A extends C, B extends A, C> ")
    for cr in run(TPHS_SRC).class_results + r.class_results:
        for m, (_, typings) in zip(cr.typed_cls.methods, cr.signatures):
            assert [(g.name, g.bound and str(g.bound)) for g in m.generics] \
                == [(str(v), b and str(b)) for v, b in typings[0].generics]


def _sigs_reenter(src):
    """Signature lines of `src`, checked to survive re-entry of the typed
    output unchanged."""
    first = run(src)
    second = run(J.typed_source(first))
    assert J.signature_lines(second) == J.signature_lines(first)
    return J.signature_lines(first), first


def test_declared_class_generic_keeps_its_name():
    sigs, r = _sigs_reenter(
        "class C<A> { f; m(A x, y) { f = y; return x; } }")
    assert sigs == ["C.m : <D extends B> (A, D) -> A"]
    typed = r.class_results[0].typed_cls
    assert sorted(g.name for g in typed.generics) == ["A", "B"]
    assert str(typed.fields[0].annotation) == "B"


def test_declared_bound_is_kept():
    sigs, _ = _sigs_reenter(
        "class C { <T extends Number> m(T x, y) { return y; } }")
    assert sigs == ["C.m : <A extends B, B, T extends Number> (T, A) -> B"]


def test_cross_class_call_to_declared_bound():
    sigs, _ = _sigs_reenter(
        "import java.lang.Integer;\n"
        "class P { <T extends Number> a(T x) { return x; } }\n"
        "class Q { r() { return new P().a(1); } }\n")
    assert sigs == ["P.a : <T extends Number> T -> T", "Q.r : () -> Integer"]


def test_declared_bound_resolved_in_its_own_method():
    sigs, _ = _sigs_reenter(
        "class S { <T extends Number> a(T x) { return x; } "
        "<T> b(T y) { return y; } }")
    assert sigs == ["S.a : <T extends Number> T -> T", "S.b : <T> T -> T"]


def test_method_type_variable_stays_in_its_method():
    sigs, _ = _sigs_reenter(
        "class S { <T extends Number> a(T x) { return x; } "
        "c(z) { return a(z); } }")
    assert sigs == ["S.a : <T extends Number> T -> T",
                    "S.c : Number -> Number"]


def test_declared_type_variables_erase_in_descriptors():
    r = run("class C { <T extends Number> m(T x, y) { return y; } }")
    assert J.descriptor_lines(r) == [
        "C.m : (Ljava$lang$Object;Ljava$lang$Object;)Ljava$lang$Object;"]
    r = run("class G<T extends Number> { f; m(T x, y) { f = y; return x; } }")
    assert J.descriptor_lines(r) == [
        "G.m : (Ljava$lang$Object;Ljava$lang$Object;)Ljava$lang$Object;"]
    # erasing T to its bound would make these two members collide
    r = run("import java.util.Pair; class C { "
            "<T extends Pair<T, T>> m(T x) { return x; } }")
    assert J.descriptor_lines(r) == [
        "C.m : (Ljava$lang$Object;)Ljava$util$Pair;",
        "C.m : (Ljava$lang$Object;)Ljava$lang$Object;"]


# each program once with a method's declared variable named `T`, once with
# it named `U`: the variable is a term of its member, so the outcome is the
# same up to that name
RENAMED = [
    ("class C { <T> m(T x) { return x; } <T> n(T y) { return m(y); } }",
     "class C { <T> m(T x) { return x; } <U> n(U y) { return m(y); } }"),
    ("class C<T> { T f; <T> m(T x) { f = x; return x; } }",
     "class C<T> { T f; <U> m(U x) { f = x; return x; } }"),
    (PINNED_SRCS["SameNameBounds"],
     PINNED_SRCS["SameNameBounds"].replace("<T> b(T y)", "<U> b(U y)")),
]


def _outcome(src):
    """The signature lines of `src`, or the name of the error it raises."""
    try:
        return J.signature_lines(run(src))
    except J.JtxError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("src, renamed", RENAMED, ids=[
    "same-class-call", "shadowed-class-variable", "two-bounds"])
def test_renaming_a_declared_variable_changes_only_names(src, renamed):
    got = _outcome(renamed)
    if isinstance(got, list):
        got = [re.sub(r"\bU\b", "T", line) for line in got]
    assert got == _outcome(src)


def test_method_variable_shadowing_a_class_one_is_untypable():
    """The method's `T` hides the class's, and the field of the class's `T`
    takes no method's `T`: Java rejects this program too."""
    with pytest.raises(Untypable):
        run(RENAMED[1][0])


def test_method_variable_hiding_a_class_variable_it_mentions_is_renamed():
    sigs, r = _sigs_reenter(PINNED_SRCS["ShadowedClassVariable"])
    assert sigs == ["C.m : <A> A -> T"]
    assert "    <A> T m(A x) {" in J.typed_source(r)
    # a local mentions the class's `T`, the typing only the method's
    src = "class C<T> { T f; <T> m(T x) { var y = f; return x; } }"
    sigs, r = _sigs_reenter(src)
    assert sigs == ["C.m : <A> A -> A"]
    assert "        T y = f;" in J.typed_source(r)
    # nothing mentions the class's `T`: the method's keeps its name
    sigs, _ = _sigs_reenter("class C<T> { T f; <T> m(T x) { return x; } }")
    assert sigs == ["C.m : <T> T -> T"]


def test_declared_variable_hiding_a_class_it_mentions_is_renamed():
    sigs, r = _sigs_reenter(PINNED_SRCS["ShadowedClass"])
    assert sigs == ["C.m : <A> Integer -> Integer"]
    typed = J.typed_source(r)
    assert "    <A> Integer m(Integer x) {" in typed
    # and it means the class again, not the variable
    (typing,) = run(typed).class_results[0].signatures[0][1]
    assert typing.params[0] is typing.ret is ClassType("Integer")
    # a user class, and a class variable whose class mentions the class
    sigs, _ = _sigs_reenter(PINNED_SRCS["ShadowedUserClass"])
    assert sigs == ["C.m : <A> A -> T"]
    sigs, r = _sigs_reenter(PINNED_SRCS["ClassVariableHidingClass"])
    assert sigs == ["C.m : Integer -> Integer"]
    assert "class C<A> {" in J.typed_source(r)
    # the variable written inside expressions takes the new name too
    typed = J.typed_source(run(PINNED_SRCS["ShadowedClassInBody"]))
    assert "        Fun1$$<A, A> g = (A z) -> z;" in typed
    assert "new Pair<A, A>(g.apply(y), y)" in typed
    typed = J.typed_source(run(PINNED_SRCS["ClassVariableInBody"]))
    assert "    Fun1$$<A, A> g = (A z) -> z;" in typed
    assert "new Pair<Integer, Integer>(y, y)" in typed
    assert "new Pair<A, A>(g.apply(x), x)" in typed


def test_same_class_call_to_a_generic_method_returns_object():
    """`m(y)` gives `n` the return `Object`, as under any other name for
    `n`'s variable: the Known defect "same-class call to a generic method"
    (`m`'s return placeholder is bound to its rigid `T`), which `n`'s
    variable sharing the name `T` used to hide."""
    assert J.signature_lines(run(RENAMED[0][0])) == [
        "C.m : <T> T -> T", "C.n : <T> T -> Object"]


def test_object_bound_is_no_bound():
    sigs, r = _sigs_reenter(
        "class C { <T extends Object> m(T x) { return x; } }")
    assert sigs == ["C.m : <T> T -> T"]
    (typing,) = r.class_results[0].signatures[0][1]
    assert typing.generics == ((TypeVar("T", ("method", 0)), None),)


def test_member_call_on_declared_variable_uses_its_bound():
    sigs, _ = _sigs_reenter(
        "import java.util.Pair; class C { "
        "<T extends Pair<Integer, Integer>> m(T x) { return x.fst(); } }")
    assert sigs == ["C.m : <T extends Pair<Integer, Integer>> T -> Integer"]


def test_member_missing_on_declared_variable_bound_is_unknown():
    with pytest.raises(UnknownMember,
                       match="no member 'fst' taking 0 argument\\(s\\) on T$"):
        run("import java.util.Pair; class C { "
            "<T extends Integer> m(T x) { return x.fst(); } }")


def test_field_missing_on_declared_variable_names_the_variable():
    with pytest.raises(UnknownMember, match="no field 'h' on T$") as info:
        run("class C { <T> m(T t) { return t.h; } }")
    assert (info.value.line, info.value.col) == (1, 32)


# Java gives a lambda receiver no target type, so javac rejects these and
# they are not among PINNED_SRCS
@pytest.mark.parametrize("body", ["y -> y", "y -> { return y; }"])
def test_lambda_receiver_is_printed_in_parentheses(body):
    src = f"class C {{ m(x) {{ return ({body}).apply(x); }} }}"
    prog = J.parse(src)
    printed = J.print_program(prog)
    assert f"return ({body}).apply(x);" in printed
    assert alpha_equivalent(prog, J.parse(printed))
    _, r = _sigs_reenter(src)
    assert f"({body}).apply(x)" in J.typed_source(r)


@pytest.mark.parametrize("src, col", [
    ("class A { m(x) { return new B().n(x); } } "
     "class B { n(y) { return y; } }", 32),
    ("class A { m(b, x) { return b.n(x); } } "
     "class B { n(y) { return y; } }", 29),
])
def test_call_to_later_unannotated_method_is_unknown(src, col):
    """A later class's method is callable only once inferred, or when it
    is fully annotated."""
    with pytest.raises(UnknownMember) as info:
        run(src)
    assert (info.value.line, info.value.col) == (1, col)


def test_call_to_later_annotated_method():
    sigs, _ = _sigs_reenter(
        "class A { m(x) { return new B().n(x); } } "
        "class B { Integer n(Integer y) { return y; } }")
    assert sigs == ["A.m : Integer -> Integer", "B.n : Integer -> Integer"]


# a field read on another class instantiates that class's generics afresh,
# as a call does; javac rejects the raw read `<C> C m(A a) { return a.f; }`
# as it rejects `a.get()`, so these are not among PINNED_SRCS
@pytest.mark.parametrize("src, sigs", [
    ("class A<T> { T f; } class B { m(a) { return a.f; } }",
     ["B.m : <C> A -> C"]),
    ("import java.lang.Integer; class A<T extends Integer> { T f; } "
     "class B { m(a) { return a.f; } }", ["B.m : A -> Integer"]),
    ("class A { h; m() { return h; } } class C { n(d) { return d.h; } }",
     ["A.m : () -> B", "C.n : <B> A -> B"]),
], ids=["declared", "declared-bound", "inferred"])
def test_field_of_a_generic_class_is_read_with_fresh_generics(src, sigs):
    assert _sigs_reenter(src)[0] == sigs


def test_annotated_lambda_parameter_pulls_in_its_type():
    r = run("class C { f = (Double x) -> x; }")
    assert str(r.class_results[0].typed_cls.fields[0].annotation) \
        == "Fun1$$<Double, Double>"


@pytest.mark.parametrize("src, sigs", [
    # without type arguments it is compared like an atomic class type
    ("class C { m() { var f = () -> { }; return f; } }",
     ["C.m : () -> FunVoid0$$"]),
    # the table has the function entries of every arity the program uses
    ("class C { m(g) { return g.apply(1, 2, 3, 4, 5); } }",
     ["C.m : <A extends B, B> "
      "Fun5$$<Integer, Integer, Integer, Integer, Integer, A> -> B"]),
], ids=["nullary-void", "apply-5"])
def test_function_types_are_table_classes(src, sigs):
    assert _sigs_reenter(src)[0] == sigs


def test_variable_bounded_by_a_function_type_lies_below_it():
    """A placeholder below a Fun1$$ bound may be a declared variable with
    that bound, as one below a Pair bound may be."""
    r = run("import java.lang.Integer; class C { "
            "<X extends Fun1$$<Integer, Integer>> m(X f, g) { "
            "Fun1$$<Integer, Integer> h = g; g = f; return h; } }")
    (line,) = J.signature_lines(r)
    assert ("<X extends Fun1$$<Integer, Integer>> (X, X) -> "
            "Fun1$$<Integer, Integer>") in line.split(" : ")[1].split(" & ")


def test_method_type_variable_invisible_to_other_methods():
    with pytest.raises(UnknownImport, match="unknown type 'T'") as info:
        run("class C { <T> a(T x) { return x; } "
            "b(y) { T z = y; return z; } }")
    assert (info.value.line, info.value.col) == (1, 43)


# a function type over a declared variable is its erased root in the
# manifest, as in descriptors
@pytest.mark.parametrize("body, sigs, manifest", [
    ("var f = (T y) -> y; return f.apply(x);", ["C.a : <T> T -> T"],
     "Fun1$$ : Fun1$$\n"),
    ("var f = (y) -> { T z = y; return z; }; return f.apply(x);",
     ["C.a : <T> T -> T"], "Fun1$$ : Fun1$$\n"),
    ("return new Pair<T, T>(x, x);",
     ["C.a : <T> T -> Object & <T> T -> Pair<T, T>"], ""),
    # a class's variable, seen by its methods: a whole program
    ("class G<T> { m(Fun1$$<T, T> f) { return f; } }",
     ["G.m : Fun1$$<T, T> -> Fun1$$<T, T> & Fun1$$<T, T> -> Object"],
     "Fun1$$ : Fun1$$\n"),
])
def test_method_type_variable_visible_in_its_method(body, sigs, manifest):
    r = run(body if body.startswith("class ") else
            f"import java.util.Pair; class C {{ <T> a(T x) {{ {body} }} }}")
    assert J.signature_lines(r) == sigs
    assert J.funiface_manifest(r) == manifest


def test_symbolic_solutions_keep_only_minimal_typings():
    sigs, _ = _sigs_reenter(
        "class N { n(x, y) { var z = x; y = z; return 1; } }")
    assert sigs == ["N.n : <A extends C, B, C extends B> (A, B) -> Integer"]
    sigs, _ = _sigs_reenter(
        "class G<T extends Number> { f; m(T x, y) { f = y; return x; } }")
    assert sigs == ["G.m : <B extends A> (T, B) -> T"]


def test_block_lambda_locals_are_generalized_in_their_method():
    """A block-bodied lambda's local is a slot of the enclosing method, so
    the lambda's return keeps its bound as with the body `y -> y`."""
    sigs, _ = _sigs_reenter(
        "class C { m(a) { var f = (y) -> { var z = y; return z; }; "
        "return f.apply(a); } }")
    assert sigs == ["C.m : <A extends D, B, D extends E, E extends F, "
                    "G extends B, F extends G> A -> B"]


def test_self_application_has_a_finite_typing():
    """`x.apply(x)` needs `Fun1$$<D, E> < D`, which `D = Object` satisfies;
    so a rule that refutes a placeholder below a term mentioning it would
    reject a typable program."""
    sigs, _ = _sigs_reenter(
        "import java.lang.Integer; class C { "
        "Integer m(Fun1$$<Object, Integer> x) { return x.apply(x); } }")
    assert sigs == ["C.m : Fun1$$<Object, Integer> -> Integer"]


def test_other_solutions_are_renamed_apart():
    """A member's placeholder that the representative's renaming does not
    cover keeps its name only when no renamed name took it."""
    r = run("import java.lang.Double; class C { m(p) { var v = 1 * 1; "
            "v = p; var f = x -> x; return f; } n(a, b) { return a + b; } }")
    (m, n) = J.signature_lines(r)
    assert m.endswith(" & <G, A extends D, B, D extends E, E extends F, "
                      "F extends B> G -> Fun1$$<A, B> & "
                      "<G, D extends E, E extends F, F> G -> Object")
    assert n == "C.n : (Integer, Integer) -> Integer & (Double, Double) -> Double"
    assert_no_clause_declares_a_name_twice(r)


# signature lines of each pinned program, and those of its typed output
# where that prints one member of an intersection
PINNED_SIGS = {
    "OwnLocal": ["C.m : <A extends B, B> A -> B",
                 "C.n : <D extends E, E> D -> E"],
    "OwnLocalPruned": ["A.n : <B extends D, D> B -> D",
                       "C.m : <B extends D, D> B -> D",
                       "C.n : <E extends F, F> E -> F"],
    "OwnParam": ["C.m : <A extends B, B> (C, A) -> B",
                 "C.n : <D extends E, E> D -> E"],
    "TwoParam": ["A.n : <C extends D, D> C -> D",
                 "B.n : <C extends D, D> C -> D",
                 "B.g : <E extends F, F> (A, E) -> F & "
                 "<E extends F, F> (B, E) -> F"],
    "ClassLetters": ["A.m : <C extends D, D> C -> D",
                     "B.k : <C extends D, D> C -> D"],
    "FieldOther": ["C.m : () -> Integer"],
    "FieldOwn": ["C.m : () -> A"],
    "FieldBound": ["C.m : <T extends A> T -> Integer"],
    "DiamondFst": ["C.m : <A extends B, B> A -> B"],
    "DiamondSnd": ["C.m : <A, B extends D, D> (A, B) -> D"],
    "WhileCond": ["C.m : Boolean -> Boolean"],
    "WhileCondInt": ["C.m : Boolean -> Integer"],
    "LocalsClause": ["C.m0 : <A extends D, B, D, E extends F, F> (A, B) -> D",
                     "C.m1 : <G extends H, H extends I, I extends J, "
                     "K extends L, L, M extends N, N extends O, O, "
                     "P extends G, J> () -> Boolean"],
    "CallIntoField": ["C.m : <B extends A> B -> A", "C.n : A -> A"],
    "FieldBelowParam": ["C.m : (A, A) -> A"],
    "FieldBelowChain": ["C.m : (A, A, A) -> A"],
    "SameNameBounds": ["S.a : <T extends Number> T -> Number",
                       "S.b : <T> T -> T"],
    "ClassNamedLikeVariable": ["C.m : <T> T -> T", "C.n : T -> T"],
    "QualifiedLocal": ["C.m : () -> Integer"],
    "ShadowedClassVariable": ["C.m : <A> A -> T"],
    "ShadowedClass": ["C.m : <A> Integer -> Integer"],
    "ShadowedUserClass": ["C.m : <A> A -> T"],
    "ClassVariableHidingClass": ["C.m : Integer -> Integer"],
    "ShadowedClassInBody": ["C.m : <A> (Integer, A) -> A"],
    "ClassVariableInBody": ["C.m : <Integer> Integer -> Integer",
                            "C.n : A -> A"],
    "FieldInitializers": ["A.m : () -> Integer"],
}
PINNED_REENTRY = {
    "TwoParam": ["A.n : <C extends D, D> C -> D",
                 "B.n : <C extends D, D> C -> D",
                 "B.g : <E extends F, F> (A, E) -> F"],
}


@pytest.mark.parametrize("name", sorted(PINNED_SRCS))
def test_pinned_program_types_and_reenters_to_its_printed_member(name):
    r = run(PINNED_SRCS[name])
    assert J.signature_lines(r) == PINNED_SIGS[name]
    again = run(J.typed_source(r))
    assert J.signature_lines(again) == PINNED_REENTRY.get(
        name, PINNED_SIGS[name])


def test_member_call_on_own_class_local_types_like_a_new_receiver():
    """A local holding a new instance of the class being inferred offers
    that class's methods, as the receiver `new C()` itself does."""
    via_new = run("class C { m(x) { return new C().n(x); } "
                  "n(y) { return y; } }")
    assert (J.signature_lines(via_new)[0]
            == PINNED_SIGS["OwnLocal"][0])


def test_members_differing_in_locals_clause_share_one_descriptor():
    r = run(PINNED_SRCS["LocalsClause"])
    assert J.descriptor_lines(r) == [
        "C.m0 : (Ljava$lang$Object;Ljava$lang$Object;)Ljava$lang$Object;",
        "C.m1 : ()Ljava$lang$Boolean;"]


def assert_no_clause_declares_a_name_twice(result):
    for r in result.class_results:
        class_names = [g.name for g in r.typed_cls.generics]
        for m in r.typed_cls.methods:
            names = class_names + [g.name for g in m.generics]
            assert len(set(names)) == len(names), (r.cls.name, m.name)
        for mname, typings in r.signatures:
            for t in typings:
                names = [str(v) for v, _ in t.generics]
                assert len(set(names)) == len(names), (r.cls.name, mname)


# the goldens and the seed-1 benchmark corpus, by name
PROGRAMS = {**ALL_GOLDEN_SRCS, **{
    f"{w}/{p.name}": p.source
    for w in ("paper-units", "ambiguity", "long-methods")
    for p in corpus.workload(w, 1)}}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_no_clause_declares_a_name_twice(name):
    assert_no_clause_declares_a_name_twice(run(PROGRAMS[name]))


WITH_PINNED = {**PROGRAMS, **PINNED_SRCS}


@pytest.mark.parametrize("name", sorted(WITH_PINNED))
def test_no_typing_prints_one_name_for_two_terms(name):
    """Within one typing of the signature lines, a printed name stands for
    one class, one declared variable or one placeholder."""
    r = run(WITH_PINNED[name])
    for c in r.class_results:
        for mname, typings in c.signatures:
            for t in typings:
                heads = {h for x in (*t.params, t.ret,
                                     *clause_terms(t.generics))
                         for h in _heads(x)} - {J.VOID}
                assert len({str(h) for h in heads}) == len(heads), (
                    c.cls.name, mname, format_typing(t))


@pytest.mark.parametrize("name", sorted(ALL_GOLDEN_SRCS))
def test_outputs_deterministic(name):
    src = ALL_GOLDEN_SRCS[name]
    a, b = run(src), run(src)
    assert J.typed_source(a) == J.typed_source(b)
    assert J.signature_lines(a) == J.signature_lines(b)
    assert J.descriptor_lines(a) == J.descriptor_lines(b)
    assert J.funiface_manifest(a) == J.funiface_manifest(b)


@pytest.mark.parametrize("name", sorted(ALL_GOLDEN_SRCS))
def test_typed_output_reenters_cleanly(name):
    first = run(ALL_GOLDEN_SRCS[name])
    typed = J.typed_source(first)
    second = run(typed)
    for r in second.class_results:
        assert all(rem == () for rem in r.remainings)
    assert alpha_equivalent(J.parse(J.typed_source(second)), J.parse(typed))
