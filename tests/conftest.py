"""Shared fixtures and stage-level helpers for the test suite."""

from __future__ import annotations

import itertools

import pytest

from jtxinfer import pipeline as P
from jtxinfer.classtable import build_class_table
from jtxinfer.constraints import flatten, generate_constraints
from jtxinfer.parser import parse
from jtxinfer.unify import unify

FAC_SRC = """\
class Fac {
    getFac(n) {
        var res = 1;
        var i = 1;
        while (i <= n) {
            res = res * i;
            i++;
        }
        return res;
    }
}
"""

TPHS_SRC = """\
class TPHsToGenerics {
    id = x -> x;
    id2(x) { return id.apply(x); }
    m(a, b) { return b; }
    m2(a, b) { var c = m(a, b); return a; }
}
"""

MUTUAL_SRC = """\
import java.util.Pair;
class Mutual {
    m1(x, y) { var y2 = m2(x, y).snd(); return new Pair<>(id(x), y2); }
    m2(x, y) { var x2 = m1(x, y).fst(); return new Pair<>(x2, id(y)); }
    id(x) { return x; }
}
"""

CYCLE_SRC = """\
class Cycle {
    m(x, y) {
        y = x;
        x = y;
    }
}
"""

INFIMUM_SRC = """\
class Infimum {
    m(a, b, c) {
        b = a;
        c = a;
    }
}
"""

OL_SRC = """\
import java.lang.Integer;
import java.lang.Double;
import java.lang.String;
import java.lang.Boolean;
class OL {
    m(x) { return x + x; }
    m(x) { return x || x; }
}
class OLMain {
    main(x) {
        var ol = new OL();
        return ol.m(x);
    }
}
"""

OLFUN_SRC = """\
import java.lang.Integer;
import java.lang.Double;
import java.lang.String;
class OLFun {
    m(f) {
        var x;
        x = f.apply(x + x);
        return x;
    }
}
"""

# id2's parameter is bounded by its own return and by the class generic of
# id's parameter; the merged name has to become a class generic
CAPTURE_SRC = """\
class T { id = x -> x; id2(x) { id.apply(x); return x; } }
"""

# two separate bound cycles in one member, collapsed one after the other
TWO_CYCLES_SRC = """\
class TwoCycles {
    m(a, b, c, d) { a = b; b = a; c = d; d = c; }
}
"""

# programs whose signatures tests/test_pipeline.py pins and whose typed
# outputs tests/test_javac.py compiles
PINNED_SRCS = {
    # member calls resolved against the class being inferred: on a local
    # holding a new instance, with another class declaring the member too,
    # and on parameters
    "OwnLocal": "class C { m(x) { var d = new C(); return d.n(x); } "
                "n(y) { return y; } }",
    "OwnLocalPruned": "class A { n(y) { return y; } } "
                      "class C { m(x) { var d = new C(); return d.n(x); } "
                      "n(y) { return y; } }",
    "OwnParam": "class C { m(o, x) { return o.n(x); } n(y) { return y; } }",
    "TwoParam": "class A { n(y) { return y; } } "
                "class B { n(y) { return y; } g(o, x) { return o.n(x); } }",
    # generated names skip the class names A and B
    "ClassLetters": "class A { m(x) { return x; } } "
                    "class B { k(a) { var o = new A(); return o.m(a); } }",
    # field accesses on a placeholder receiver: another class's field and
    # the class being inferred's own
    "FieldOther": "class A { Integer f; } "
                  "class C { m() { var a = new A(); return a.f; } }",
    "FieldOwn": "class C { f; m() { var d = new C(); return d.f; } }",
    # a field read on a declared variable reads the field of its bound
    "FieldBound": "class A { Integer h; } "
                  "class C { <T extends A> m(T t) { return t.h; } }",
    # the diamond's arguments are in no slot; the bounds through them stay
    "DiamondFst": "import java.util.Pair; "
                  "class C { m(x) { return new Pair<>(x, x).fst(); } }",
    "DiamondSnd": "import java.util.Pair; "
                  "class C { m(x, y) { return new Pair<>(x, y).snd(); } }",
    # a `while` condition is a Boolean, imported or not
    "WhileCond": "class C { m(x) { while (x) { } return x; } }",
    "WhileCondInt": "class C { m(x) { while (x) { } return 1; } }",
    # m1's members differ only in the clause variables of its locals
    "LocalsClause": "import java.lang.Double; "
                    "class C { m0(p0, p1) { var v0 = 1; var v1 = y -> v0; "
                    "return p0; } m1() { var v0 = y -> y; var v1 = y -> v0; "
                    "var v2 = x -> x; var v3 = true; return v3; } }",
    # a method placeholder bounded by the class's field placeholder, after
    # a collapse: across a call, and below a parameter or a chain of them
    "CallIntoField": "class C { f; m(x) { return n(x); } "
                     "n(y) { f = y; return y; } }",
    "FieldBelowParam": "class C { f; m(x, y) { f = x; y = x; return y; } }",
    "FieldBelowChain": "class C { f; m(x, y, z) { f = x; y = x; z = y; "
                       "return z; } }",
    # each method's declared variable is its own: two methods' `T` have a
    # bound each, and a method's `T` hides no class `T` from the others
    "SameNameBounds": "import java.lang.Number; "
                      "class S { <T extends Number> a(T x) { Number y = x; "
                      "return y; } <T> b(T y) { return y; } }",
    "ClassNamedLikeVariable": "class T { } class C { <T> m(T x) { return x; } "
                              "n(T y) { return y; } }",
    # a field initializer calls a method that reads a later field, assigns
    # a later field in a lambda and reads an earlier one
    "FieldInitializers": "class A { f = m(); g = 1; "
                         "h = x -> { k = g; return x; }; k = g; "
                         "m() { return k; } }",
    # a local, in a method and in a lambda of a field initializer, and a
    # lambda parameter shadow a field of their name, as in Java
    "LocalShadowsField": "class A { f; m() { var f = 1; return f; } }",
    "LambdaLocalShadowsField": "class A { f; g = () -> { var f = 1; "
                               "return f; }; m() { return g.apply(); } }",
    "LambdaParamShadowsField": "class A { f; m(x) { var g = f -> f; "
                               "return g.apply(x); } }",
    # a local declared with a qualified type
    "QualifiedLocal": "class C { m() { java.lang.Integer x = 1; "
                      "return x; } }",
    # a declared variable whose member mentions a class or a class
    # variable printing under its name is renamed: a method variable
    # hiding a class variable, a built-in class or a user class, and a
    # class variable hiding a class
    "ShadowedClassVariable": "class C<T> { T f; <T> m(T x) { return f; } }",
    "ShadowedClass": "class C { <Integer> m(java.lang.Integer x) { "
                     "return x; } }",
    "ShadowedUserClass": "class T { } class C { f = new T(); "
                         "<T> m(T x) { return f; } }",
    "ClassVariableHidingClass": "class C<Integer> { java.lang.Integer f; "
                                "m(x) { f = x; return f; } }",
    # a renamed variable written inside expressions: the type arguments of
    # a `new` and an annotated lambda parameter, in a method and in a field
    # initializer; a method's own variable of the name keeps it
    "ShadowedClassInBody": "import java.util.Pair; class C { "
                           "<Integer> m(java.lang.Integer x, y) { "
                           "var g = (Integer z) -> z; "
                           "return new Pair<Integer, Integer>(g.apply(y), y)"
                           ".fst(); } }",
    "ClassVariableInBody": "import java.util.Pair; class C<Integer> { "
                           "java.lang.Integer f; g = (Integer z) -> z; "
                           "<Integer> m(Integer y) { "
                           "return new Pair<Integer, Integer>(y, y).fst(); } "
                           "n(x) { return new Pair<Integer, Integer>"
                           "(g.apply(x), x).snd(); } }",
}



def independent_sums(k):
    """A class of k methods `mi(a, b) { return a + b; }` with the Integer,
    Double and String `+` visible: k components of three solutions each,
    and 3k members printed, one method's typings not depending on
    another's."""
    methods = " ".join(f"m{i}(a, b) {{ return a + b; }}" for i in range(k))
    return ("import java.lang.Integer;\nimport java.lang.Double;\n"
            f"import java.lang.String;\nclass C {{ {methods} }}\n")


ALL_GOLDEN_SRCS = {
    "Fac": FAC_SRC,
    "TPHsToGenerics": TPHS_SRC,
    "Mutual": MUTUAL_SRC,
    "Cycle": CYCLE_SRC,
    "Infimum": INFIMUM_SRC,
    "OL": OL_SRC,
    "OLFun": OLFUN_SRC,
}


def flattened_solutions(gen, table):
    """The reference for the unifier's or-group search: one `unify` call
    per `flatten` candidate.  [(candidate, solution)], in candidate
    order."""
    return [(cand, sol) for cand in flatten(gen, table)
            for sol in unify(cand.constraints, table, gen.fresh.clone())]


def stage_solutions(src, idx=0):
    """Replicate the per-class pipeline up to (and including) the dedup
    and minimality steps, returning the generation result and the
    surviving `_Solved` states."""
    prog = parse(src)
    table = build_class_table(prog)
    cls = prog.classes[idx]
    gen = generate_constraints(cls, table)
    whole = P._whole(gen)
    out = [P._Solved(sol.sigma_dict(), sol.remaining, cand.choice, sol.drawn,
                     gen, whole)
           for cand, sol in flattened_solutions(gen, table)]
    return gen, table, P._minimal(P._dedup(out), table)


def joined_solutions(parts, gen):
    """The reference for the solutions of a class from those of its
    components (`pipeline._search`): every combination of one solution
    per component, as a `_Solved` of the class as one component, with the
    substitutions and remaining pairs merged, the choices put in the
    class's group order and the largest count `drawn` of its parts.  They
    come in the order one search gives: by choice, then remaining pairs
    and substitution."""
    whole = P._whole(gen)
    out = []
    for combo in itertools.product(*parts):
        sigma, choice = {}, [0] * len(gen.groups)
        for s in combo:
            sigma.update(s.sigma)
            for i, c in zip(s.comp.indices, s.choice):
                choice[i] = c
        remaining = tuple(sorted(itertools.chain(*(s.remaining
                                                   for s in combo))))
        out.append(P._Solved(sigma, remaining, tuple(choice),
                             max(s.drawn for s in combo), gen, whole))
    out.sort(key=lambda s: s.choice)
    if any(a.choice == b.choice for a, b in zip(out, out[1:])):
        out.sort(key=lambda s: (s.choice, s.remaining, [
            (n, str(t)) for n, t in sorted(s.sigma.items())]))
    return out


def typings_of_every_combination(gen, view, parts):
    """The reference for `pipeline._typings` on the components' kept
    solutions `parts`: every combination joined (`joined_solutions`),
    each generalized on its own after its count, and all of them taken
    as the solutions of one component."""
    joined = joined_solutions(parts, gen)
    for s in joined:
        s.generalize(s.drawn)
    return P._typings(gen, view, [joined])


@pytest.fixture(scope="session")
def fac_result():
    import jtxinfer as J
    return J.run_source(FAC_SRC)


@pytest.fixture(scope="session")
def tphs_result():
    import jtxinfer as J
    return J.run_source(TPHS_SRC)


@pytest.fixture(scope="session")
def mutual_result():
    import jtxinfer as J
    return J.run_source(MUTUAL_SRC)
