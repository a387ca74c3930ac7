"""End-to-end inference on the reference programs."""

import pytest

import jtxinfer as J
from jtxinfer.errors import Untypable
from jtxinfer.syntax import alpha_equivalent

from conftest import (ALL_GOLDEN_SRCS, CYCLE_SRC, FAC_SRC, INFIMUM_SRC,
                      MUTUAL_SRC, OL_SRC, OLFUN_SRC, TPHS_SRC)

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


def test_max_solutions_still_covers_or_groups():
    r = run(OL_SRC, max_solutions=1)
    (_, typings) = r.class_results[0].signatures[0]
    assert len(typings) == 3


def test_cross_class_call_keeps_callee_bound():
    src = ("class D0 { f(x) { return x; } }\n"
           "class D1 { f(x) { return new D0().f(x); } }\n")
    first = run(src)
    assert J.signature_lines(first)[1] == "D1.f : <A extends B, B> A -> B"
    second = run(J.typed_source(first))
    assert J.signature_lines(second) == J.signature_lines(first)


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
