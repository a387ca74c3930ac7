"""Lexer/parser/printer round trips and alpha-equivalence."""

import copy
import sys
from pathlib import Path

import pytest

from jtxinfer import (JtxError, JtxSyntaxError, UnsupportedFeature, parse,
                      print_program, tokenize)
from jtxinfer import parser, syntax as S
from jtxinfer.syntax import alpha_equivalent

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def test_minimal_class():
    prog = parse("class A { }")
    assert len(prog.classes) == 1
    assert prog.classes[0].name == "A"
    assert prog.classes[0].fields == []
    assert prog.classes[0].methods == []


def test_parsing_twice_gives_equal_trees():
    # a block lambda's local is declared inside its enclosing initializer
    src = ("class A { m(x) { var a = 1; var f = y -> { var b = y; "
           "return b; }; while (x) { Integer c = a; } return f; } }")
    first = parse(src)
    assert repr(parse(src)) == repr(first)
    body = first.classes[0].methods[0].body
    inner = body[1].init.body[0]
    assert [body[0].uid, inner.uid, body[1].uid, body[2].body[0].uid] \
        == [1, 2, 3, 4]



def test_nodes_compare_by_fields_other_than_pos_and_uid():
    """`==` ignores positions and local uids and tells a diamond from a raw
    type; nodes stay unhashable.  The repr writes every field, `pos` and
    `uid` included: `tests/golden/parser_pin.json` hashes it."""
    method = "m(x) { var a = x; return a; }"
    first = parse(f"class A {{ {method} }}").classes[0].methods[0]
    moved = parse(f"class A {{ f;\n g() {{ var b = 1; return b; }} "
                  f"{method} }}").classes[0].methods[1]
    assert (first.pos, first.body[0].uid) != (moved.pos, moved.body[0].uid)
    assert first == moved
    renamed = parse("class A { m(x) { var b = x; return b; } }")
    assert first != renamed.classes[0].methods[0]
    assert S.SrcType("C", None) != S.SrcType("C")
    for node in (first, first.pos, S.SrcType("C")):
        with pytest.raises(TypeError):
            hash(node)
    assert repr(parse("class C { m(x) { return x; } }")) == (
        "Program(imports=[], classes=[ClassDecl(name='C', generics=[], "
        "fields=[], methods=[MethodDecl(name='m', generics=[], ret=None, "
        "params=[Param(name='x', annotation=None)], "
        "body=[Return(pos=Pos(line=1, col=18), value=Name(pos=Pos(line=1, "
        "col=25), ident='x'))], pos=Pos(line=1, col=11))], "
        "pos=Pos(line=1, col=1))])")

def test_deepcopy_is_equal_and_shares_no_node_or_list():
    """`copy.deepcopy` of every seed-1 corpus class (emit copies a class
    before it renames its written types) keeps every field, `pos` and `uid`
    included, and shares no node or list with the original."""
    for prog in (p for w in corpus.WORKLOADS for p in corpus.workload(w, 1)):
        for cls in parse(prog.source).classes:
            dup = copy.deepcopy(cls)
            assert dup == cls and repr(dup) == repr(cls)
            nodes, dups = [], []
            S.walk(cls, nodes.append)
            S.walk(dup, dups.append)
            assert len(nodes) == len(dups)
            for node, twin in zip(nodes, dups):
                assert twin is not node
                for f in node._fields:
                    value = getattr(node, f)
                    if isinstance(value, (S.Node, list)):
                        assert getattr(twin, f) is not value


def test_imports_collected_in_order():
    prog = parse("import java.lang.Integer;\nimport java.util.Pair;\n"
                 "class A { }")
    assert prog.imports == ["java.lang.Integer", "java.util.Pair"]


def test_untyped_method_and_field():
    prog = parse("class A { f = 1; m(x, y) { return x; } }")
    cls = prog.classes[0]
    assert cls.fields[0].name == "f"
    assert cls.fields[0].annotation is None
    m = cls.methods[0]
    assert m.ret is None
    assert [p.name for p in m.params] == ["x", "y"]
    assert all(p.annotation is None for p in m.params)


def test_annotated_method_with_generics():
    prog = parse("class A { <T extends U, U> T m(T x, U y) { return x; } }")
    m = prog.classes[0].methods[0]
    assert [(g.name, str(g.bound) if g.bound else None) for g in m.generics] \
        == [("T", "U"), ("U", None)]
    assert str(m.ret) == "T"
    assert str(m.params[0].annotation) == "T"
    # an F-bound names its own variable only inside a type argument
    prog = parse("import java.util.Pair;\n"
                 "class A { <T extends Pair<T, T>> T m(T x) { return x; } }")
    (g,) = prog.classes[0].methods[0].generics
    assert (g.name, str(g.bound)) == ("T", "Pair<T, T>")


def test_generic_class_header():
    prog = parse("class A<T, U extends T> { T f; }")
    cls = prog.classes[0]
    assert [g.name for g in cls.generics] == ["T", "U"]
    assert str(cls.generics[1].bound) == "T"


def test_var_local_and_while_and_increment():
    prog = parse("class A { m(n) { var i = 1; while (i <= n) { i++; } "
                 "return i; } }")
    body = prog.classes[0].methods[0].body
    assert isinstance(body[0], S.LocalDecl)
    assert body[0].annotation is None
    assert isinstance(body[1], S.While)
    assert isinstance(body[1].body[0], S.Increment)
    assert isinstance(body[2], S.Return)


def test_qualified_type_starts_a_local_declaration():
    """A dotted name followed by a name or `<` is a local's type; one
    followed by anything else starts an expression statement."""
    prog = parse("class A { m(d, f) { java.lang.Integer x = 1; "
                 "java.util.Pair<Integer, Integer> p; d.f = 1; f.apply(1); "
                 "d.f++; } }")
    body = prog.classes[0].methods[0].body
    assert [type(s) for s in body] == [S.LocalDecl, S.LocalDecl, S.Assign,
                                       S.ExprStmt, S.Increment]
    assert [str(s.annotation) for s in body[:2]] \
        == ["java.lang.Integer", "java.util.Pair<Integer, Integer>"]
    assert isinstance(body[2].target, S.FieldAccess)
    assert body[3].expr.name == "apply"


def test_lambda_forms():
    prog = parse("class A { f = x -> x; g = (x, y) -> x; }")
    cls = prog.classes[0]
    lam = cls.fields[0].init
    assert isinstance(lam, S.Lambda)
    assert [p.name for p in lam.params] == ["x"]
    lam2 = cls.fields[1].init
    assert [p.name for p in lam2.params] == ["x", "y"]


def test_parenthesized_lambdas_and_groupings():
    prog = parse("class A { f = ((x) -> x); g = ((x)); h = (((x, y) -> y)); }")
    inits = [f.init for f in prog.classes[0].fields]
    assert [type(e).__name__ for e in inits] == ["Lambda", "Name", "Lambda"]


def test_lambda_lookahead_reads_tokens_linearly():
    # at each '(' that starts an expression the parser looks for ')' and
    # '->' before the next '(', so `((...(x)...))` of depth n costs reads
    # linear in n, not a scan to each matching ')'
    class Counted(list):
        reads = 0

        def __getitem__(self, i):
            Counted.reads += 1
            return super().__getitem__(i)

    def reads(depth):
        p = parser._Parser(tokenize(
            f"class A {{ m(x) {{ return {'(' * depth}x{')' * depth}; }} }}"))
        p.toks = Counted(p.toks)
        Counted.reads = 0
        p.program()
        return Counted.reads

    r10, r20, r40 = map(reads, (10, 20, 40))
    assert r40 - r20 == 2 * (r20 - r10)


def test_new_with_diamond_and_explicit_args():
    prog = parse("class A { m() { var p = new Pair<>(1, 2); "
                 "var q = new Pair<Integer, Integer>(1, 2); return p; } }")
    body = prog.classes[0].methods[0].body
    new1 = body[0].init
    assert isinstance(new1, S.New)
    assert new1.cls.args is None  # diamond
    new2 = body[1].init
    assert [str(a) for a in new2.cls.args] == ["Integer", "Integer"]


def test_call_chains_and_field_access():
    prog = parse("class A { m(x) { return m2(x, x).snd().fst(); } "
                 "m2(a, b) { return a; } }")
    ret = prog.classes[0].methods[0].body[0]
    call = ret.value
    assert isinstance(call, S.Call) and call.name == "fst"
    assert isinstance(call.recv, S.Call) and call.recv.name == "snd"


def test_operators_and_precedence():
    prog = parse("class A { m(x) { return x + x * x; } }")
    expr = prog.classes[0].methods[0].body[0].value
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_string_and_bool_literals():
    prog = parse('class A { m() { var s = "hi"; var b = true; return s; } }')
    body = prog.classes[0].methods[0].body
    assert isinstance(body[0].init, S.StrLit) and body[0].init.value == "hi"
    assert isinstance(body[1].init, S.BoolLit) and body[1].init.value is True


CYCLIC_BOUNDS = {
    "class C { <T extends T> m(T x) { return x; } }":
        "1:22: cyclic bound on type parameter 'T'",
    "class C { <T extends U, U extends T> m(T x) { return x.snd(); } }":
        "1:22: cyclic bound on type parameter 'T'",
    "class C<A, T extends U, U extends T> { }":
        "1:22: cyclic bound on type parameter 'T'",
}


@pytest.mark.parametrize("src", [
    "class {",
    "class A { m( { } }",
    "class A { m() { return 1 } }",
    "class A",
    # comma lists: a missing comma, and a trailing one
    "class C { m(a, b) { return a; } n() { return m(1 2); } }",
    "class C { m(a b c) { return a; } }",
    "class C { m(a,) { return a; } }",
    "class C { m(a) { return a; } n() { return m(1,); } }",
    "class C { m() { return new C(1,); } }",
    "class C { f = (x,) -> x; }",
    # a repeated parameter, of a method or a lambda
    "class C { m(x, x) { return x; } }",
    "class C { f = (x, x) -> x; }",
    # a repeated type parameter, of a class or a method
    "class C<A, A> { }",
    "class C { <T, T> m(T x) { return x; } }",
    # a cycle of bare-variable bounds, of a method or a class
    *CYCLIC_BOUNDS,
])
def test_syntax_errors(src):
    with pytest.raises(JtxSyntaxError) as exc:
        parse(src)
    if src in CYCLIC_BOUNDS:
        assert str(exc.value) == CYCLIC_BOUNDS[src]


def test_unsupported_feature():
    with pytest.raises((JtxSyntaxError, UnsupportedFeature)):
        parse("class A { m() { try { } catch (E e) { } } }")


def test_print_round_trip():
    src = ("class A<T> {\n"
           "    T f;\n"
           "    <U extends T> T m(U x) {\n"
           "        T y = x;\n"
           "        return y;\n"
           "    }\n"
           "}\n")
    prog = parse(src)
    printed = print_program(prog)
    assert alpha_equivalent(prog, parse(printed))


def test_alpha_equivalent_renaming():
    a = parse("class A { <T> T m(T x) { return x; } }")
    b = parse("class A { <Z> Z m(Z x) { return x; } }")
    assert alpha_equivalent(a, b)


def test_alpha_equivalent_clause_order_insensitive():
    a = parse("class A { <T, U extends T> T m(T x, U y) { return x; } }")
    b = parse("class A { <U extends T, T> T m(T x, U y) { return x; } }")
    assert alpha_equivalent(a, b)


def test_alpha_equivalent_rejects_structural_change():
    a = parse("class A { <T> T m(T x) { return x; } }")
    b = parse("class A { <T> T m(T x) { return x; } n() { return 1; } }")
    assert not alpha_equivalent(a, b)
    c = parse("class A { <T, U> T m(U x) { return x; } }")
    assert not alpha_equivalent(a, c)


# --- pinned lexer and parser behaviour -------------------------------------

PINNED_SRC = ('// header\n'
              'class A {\n'
              '\tf = "a b"; /* one\n'
              '   two */ m(x) {\n'
              '\t\treturn x <= 10; // tail\n'
              '\t}\n'
              '}')


def test_token_stream_positions():
    """Tabs count one column; comments, strings and newlines move the
    position of the token after them."""
    assert tokenize(PINNED_SRC) == [
        ("keyword", "class", 2, 1), ("ident", "A", 2, 7),
        ("punct", "{", 2, 9), ("ident", "f", 3, 2), ("punct", "=", 3, 4),
        ("string", "a b", 3, 6), ("punct", ";", 3, 11),
        ("ident", "m", 4, 11), ("punct", "(", 4, 12),
        ("ident", "x", 4, 13), ("punct", ")", 4, 14),
        ("punct", "{", 4, 16), ("keyword", "return", 5, 3),
        ("ident", "x", 5, 10), ("punct", "<=", 5, 12),
        ("int", "10", 5, 15), ("punct", ";", 5, 17),
        ("punct", "}", 6, 2), ("punct", "}", 7, 1), ("eof", "", 7, 2)]


@pytest.mark.parametrize("src, cls, message, line, col", [
    ("class C { /* open\n", JtxSyntaxError, "unterminated comment", 1, 11),
    ('class C { f = "ab\n"; }', JtxSyntaxError,
     "unterminated string literal", 1, 15),
    ('class C { f = "ab', JtxSyntaxError, "unterminated string literal",
     1, 15),
    ("class C { # }", JtxSyntaxError, "unexpected character '#'", 1, 11),
    ("class C { m() { try { } } }", UnsupportedFeature,
     "'try' is not part of the supported subset", 1, 17),
    ("class C { f = 1.5; }", UnsupportedFeature,
     "floating point literals are not supported", 1, 15),
    ("class C { Pair<?> p; }", UnsupportedFeature,
     "wildcard types are not supported", 1, 16),
    # a digit that is no decimal digit starts neither a number nor a name
    ("class C { m() { return ²; } }", JtxSyntaxError,
     "unexpected character '²'", 1, 24),
    ("class C { m() { return 1²; } }", JtxSyntaxError,
     "unexpected character '²'", 1, 25),
])
def test_lexer_diagnostics(src, cls, message, line, col):
    with pytest.raises(JtxError) as info:
        parse(src)
    exc = info.value
    assert (type(exc), exc.message, exc.line, exc.col) \
        == (cls, message, line, col)


@pytest.mark.parametrize("src, cls, message, col", [
    # javac rejects an int literal past 2^31 - 1, and this language has no
    # unary minus to make -2147483648 of one
    ("class C { m() { return 2147483648; } }", JtxSyntaxError,
     "integer number too large", 24),
    ("class C { m() { return 1 + 9" + "0" * 5000 + "; } }", JtxSyntaxError,
     "integer number too large", 28),
    # Java reads `010` as octal 8 and rejects `09`
    ("class C { m() { return 010; } }", UnsupportedFeature,
     "integer literals with a leading 0 are not supported", 24),
    ("class C { m() { var x = 09; return x; } }", UnsupportedFeature,
     "integer literals with a leading 0 are not supported", 25),
])
def test_int_literals_java_rejects_or_reads_otherwise(src, cls, message, col):
    with pytest.raises(JtxError) as info:
        parse(src)
    exc = info.value
    assert (type(exc), exc.message, exc.line, exc.col) \
        == (cls, message, 1, col)


def test_int_literal_bounds_that_parse():
    m = parse("class C { m() { return 2147483647 + 0; } }").classes[0] \
        .methods[0]
    assert [e.value for e in (m.body[0].value.left, m.body[0].value.right)] \
        == [2147483647, 0]


def test_eof_after_trailing_line_comment():
    """End of input sits after the comment that runs into it."""
    kind, _, line, col = tokenize("class A { } // end")[-1]
    assert (kind, line, col) == ("eof", 1, 19)


def test_string_with_punctuator_text_is_a_literal():
    """A string token is never read as the punctuator its text spells."""
    body = parse('class C { m() { "}"; return ";"; } }').classes[0] \
        .methods[0].body
    assert [type(s) for s in body] == [S.ExprStmt, S.Return]
    assert [body[0].expr.value, body[1].value.value] == ["}", ";"]


def test_generics_clause_on_bare_field():
    with pytest.raises(JtxSyntaxError, match="generics clause on a field"):
        parse("class A { <T> f = 1; }")


def _shape(e):
    if isinstance(e, S.Binary):
        return (e.op, (e.pos.line, e.pos.col), _shape(e.left), _shape(e.right))
    return e.ident


@pytest.mark.parametrize("expr, shape", [
    ("a || b <= c + d * e + f",
     ("||", (1, 42), "a",
      ("<=", (1, 47), "b",
       ("+", (1, 60), ("+", (1, 52), "c", ("*", (1, 56), "d", "e")), "f")))),
    ("a * (b + c)", ("*", (1, 42), "a", ("+", (1, 47), "b", "c"))),
])
def test_binary_tree_shape_and_positions(expr, shape):
    """Each operator binds by its precedence and left to right; a Binary
    sits at its operator token."""
    src = f"class C {{ m(a, b, c, d, e, f) {{ return {expr}; }} }}"
    tree = parse(src).classes[0].methods[0].body[0].value
    assert _shape(tree) == shape
    assert print_program(parse(src)).splitlines()[2].strip() \
        == f"return {expr};"


@pytest.mark.parametrize("a, b", [
    # the bound sits on the other variable
    ("class A { <T extends U, U> T m(T x, U y) { return x; } }",
     "class A { <T, U extends T> T m(T x, U y) { return x; } }"),
    # a declared variable against a name no clause declares
    ("class A { <T> T m(T x) { return x; } }",
     "class A { <U> T m(T x) { return x; } }"),
    ("class A<T> { T f; }", "class A<U> { T f; }"),
    # a diamond against a raw `new`
    ("class A { m() { var p = new Pair<>(1, 2); return p; } }",
     "class A { m() { var p = new Pair(1, 2); return p; } }"),
])
def test_alpha_equivalent_negative_cases(a, b):
    pa, pb = parse(a), parse(b)
    assert not alpha_equivalent(pa, pb)
    assert not alpha_equivalent(pb, pa)
    assert alpha_equivalent(pa, parse(a))
