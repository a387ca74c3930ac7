"""End-to-end inference on the reference programs."""

import importlib

import pytest

import jtxinfer as J
from jtxinfer.errors import (ResourceLimit, UnknownImport, UnknownMember,
                             Untypable)
from jtxinfer.syntax import alpha_equivalent
from jtxinfer.typeterms import ClassType

from conftest import (ALL_GOLDEN_SRCS, CAPTURE_SRC, CYCLE_SRC, FAC_SRC,
                      INFIMUM_SRC, MUTUAL_SRC, OL_SRC, OLFUN_SRC, TPHS_SRC)

# `jtxinfer.unify` is the function; the budget lives in the module
UNIFY = importlib.import_module("jtxinfer.unify")
PIPELINE = importlib.import_module("jtxinfer.pipeline")

# a method body nested deeper than the interpreter's recursion limit
DEEP_PARENS_SRC = ("class C { m(x) { return " + "(" * 400 + "x" + ")" * 400
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
    assert sigs == ["C.m : <C extends B> (A, C) -> A"]
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


def test_object_bound_is_no_bound():
    sigs, r = _sigs_reenter(
        "class C { <T extends Object> m(T x) { return x; } }")
    assert sigs == ["C.m : <T> T -> T"]
    (typing,) = r.class_results[0].signatures[0][1]
    assert typing.generics == ((ClassType("T"), None),)


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
    assert sigs == ["C.m : <A extends C, B, C extends D, D extends E, "
                    "F extends B, E extends F> A -> B"]


def test_self_application_has_a_finite_typing():
    """`x.apply(x)` needs `Fun1$$<D, E> < D`, which `D = Object` satisfies;
    so a rule that refutes a placeholder below a term mentioning it would
    reject a typable program."""
    sigs, _ = _sigs_reenter(
        "import java.lang.Integer; class C { "
        "Integer m(Fun1$$<Object, Integer> x) { return x.apply(x); } }")
    assert sigs == ["C.m : Fun1$$<Object, Integer> -> Integer"]


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
