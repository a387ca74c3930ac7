"""Translate a typed `.jtx` program into Java source for `javac`.

A typed output is Java but for what the translation supplies:
- its imports name the tool's universe, where `java.util.Pair` is no JDK
  class: they are dropped, and a stub `Pair` is added when it is used;
- function types are the interfaces `FunN$$`/`FunVoidN$$`: one stub is
  written per head used;
- a function type varies as the paper says, so every use of one takes
  use-site wildcards: `Fun1$$<? super A, ? extends B>`;
- a local declared without a value starts as `null`, since Java wants it
  assigned before it is read;
- a class has one instantiation of its generics, which all its instances
  share, so inside a generic class `C<A>` its own type `C` is written
  `C<A>`, where Java would read a bare `C` as the raw type.
"""

from jtxinfer import parse
from jtxinfer import syntax as S
from jtxinfer.typeterms import fun_head_arity

PAIR_STUB = ("class Pair<A, B> { A a; B b; "
             "Pair(A a, B b) { this.a = a; this.b = b; } "
             "A fst() { return a; } B snd() { return b; } }")


def to_java(typed, package):
    """Java source of typed program text `typed`, in package `package`."""
    program = parse(typed)
    used = set()
    own = None   # the class being translated

    def ty(t):
        if t is None:
            return t
        used.add(t.name)
        if t.args is None:   # a diamond
            return t
        args = [ty(a) for a in t.args]
        if t.name == own.name and not args:
            args = [S.SrcType(g.name, []) for g in own.generics]
        shape = fun_head_arity(t.name)
        if shape is not None:
            n = shape[1]
            args = ([S.SrcType(f"? super {a}") for a in args[:n]]
                    + [S.SrcType(f"? extends {a}") for a in args[n:]])
        return S.SrcType(t.name, args)

    def expr(e):
        if isinstance(e, S.Lambda):
            for p in e.params:
                p.annotation = ty(p.annotation)
            if isinstance(e.body, list):
                for s in e.body:
                    stmt(s)
            else:
                expr(e.body)
        elif isinstance(e, S.New):
            e.cls = ty(e.cls)
            for a in e.args:
                expr(a)
        elif isinstance(e, S.Call):
            for a in [e.recv, *e.args]:
                if a is not None:
                    expr(a)
        elif isinstance(e, S.FieldAccess):
            expr(e.recv)
        elif isinstance(e, S.Binary):
            expr(e.left)
            expr(e.right)

    def stmt(s):
        if isinstance(s, S.LocalDecl):
            s.annotation = ty(s.annotation)
            if s.init is None:
                s.init = S.Name(S.Pos(), "null")
            expr(s.init)
        elif isinstance(s, S.Assign):
            expr(s.target)
            expr(s.value)
        elif isinstance(s, S.While):
            expr(s.cond)
            for b in s.body:
                stmt(b)
        elif isinstance(s, S.Return) and s.value is not None:
            expr(s.value)
        elif isinstance(s, S.ExprStmt):
            expr(s.expr)

    def clause(generics):
        for g in generics:
            g.bound = ty(g.bound)

    for own in program.classes:
        clause(own.generics)
        for f in own.fields:
            f.annotation = ty(f.annotation)
            if f.init is not None:
                expr(f.init)
        for m in own.methods:
            clause(m.generics)
            m.ret = ty(m.ret)
            for p in m.params:
                p.annotation = ty(p.annotation)
            for s in m.body:
                stmt(s)
    stubs = [_fun_stub(name) for name in sorted(used)
             if fun_head_arity(name) is not None]
    if "Pair" in used:
        stubs.append(PAIR_STUB)
    return "\n".join([f"package {package};", "",
                      S.print_program(S.Program([], program.classes)),
                      *stubs, ""])


def _fun_stub(head):
    """The interface of function-type head `head`: one `apply`."""
    is_void, n = fun_head_arity(head)
    params = [f"T{i}" for i in range(1, n + 1)]
    variables = params + ([] if is_void else ["R"])
    clause = f"<{', '.join(variables)}>" if variables else ""
    args = ", ".join(f"{t} x{i}" for i, t in enumerate(params, 1))
    ret = "void" if is_void else "R"
    return f"interface {head}{clause} {{ {ret} apply({args}); }}"
