"""Syntax trees for the mini language.

Every expression node carries a unique ``uid`` (its type slot key) and a
source position.  Declaration sites whose type was omitted carry
``annotation=None`` and are filled in during constraint generation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

_uid_counter = itertools.count(1)


def next_uid():
    return next(_uid_counter)


@dataclass
class Pos:
    line: int = 0
    col: int = 0


@dataclass
class SrcType:
    """Surface type annotation: a (possibly generic) name, or 'void'.

    ``args=None`` marks a diamond (`new C<>`), distinct from raw `C`.
    """

    name: str
    args: Optional[list] = field(default_factory=list)
    pos: Pos = field(default_factory=Pos, compare=False)

    def __str__(self):
        if self.args is None:
            return f"{self.name}<>"
        if not self.args:
            return self.name
        return f"{self.name}<{', '.join(str(a) for a in self.args)}>"


@dataclass
class GenericParam:
    name: str
    bound: Optional[SrcType] = None


@dataclass
class Param:
    name: str
    annotation: Optional[SrcType] = None


# --- expressions -----------------------------------------------------------


@dataclass
class Expr:
    pos: Pos = field(default_factory=Pos, compare=False)
    uid: int = field(default_factory=next_uid, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class Name(Expr):
    ident: str = ""


@dataclass
class FieldAccess(Expr):
    recv: Expr = None
    name: str = ""


@dataclass
class Call(Expr):
    recv: Optional[Expr] = None
    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class New(Expr):
    cls: SrcType = None
    args: list = field(default_factory=list)


@dataclass
class Lambda(Expr):
    params: list = field(default_factory=list)  # list[Param]
    body: object = None  # Expr or list[Stmt]


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


# --- statements ------------------------------------------------------------


@dataclass
class Stmt:
    pos: Pos = field(default_factory=Pos, compare=False)
    uid: int = field(default_factory=next_uid, compare=False)


@dataclass
class LocalDecl(Stmt):
    name: str = ""
    annotation: Optional[SrcType] = None  # None = `var` / to-infer
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    target: Expr = None
    value: Expr = None


@dataclass
class Increment(Stmt):
    target: Expr = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: list = field(default_factory=list)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


# --- declarations ----------------------------------------------------------


@dataclass
class FieldDecl:
    name: str
    annotation: Optional[SrcType] = None
    init: Optional[Expr] = None
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass
class MethodDecl:
    name: str
    generics: list = field(default_factory=list)  # list[GenericParam]
    ret: Optional[SrcType] = None  # None = to-infer; SrcType('void') = void
    params: list = field(default_factory=list)
    body: list = field(default_factory=list)
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass
class ClassDecl:
    name: str
    generics: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    methods: list = field(default_factory=list)
    pos: Pos = field(default_factory=Pos, compare=False)


@dataclass
class Program:
    imports: list = field(default_factory=list)
    classes: list = field(default_factory=list)


# --- printer ---------------------------------------------------------------


def print_program(program, comments=None):
    """Source text of a program.  `comments` maps a class name to
    {method index: [line, ...]}, printed as `//` lines above the method."""
    comments = comments or {}
    out = []
    for imp in program.imports:
        out.append(f"import {imp};")
    if program.imports:
        out.append("")
    for cls in program.classes:
        out.extend(_print_class(cls, comments.get(cls.name, {})))
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _generics_clause(generics):
    if not generics:
        return ""
    parts = []
    for g in generics:
        if g.bound is not None and str(g.bound) != "Object":
            parts.append(f"{g.name} extends {g.bound}")
        else:
            parts.append(g.name)
    return "<" + ", ".join(parts) + ">"


def _print_class(cls, method_comments):
    lines = [f"class {cls.name}{_generics_clause(cls.generics)} {{"]
    for f in cls.fields:
        ann = f"{f.annotation} " if f.annotation is not None else ""
        init = f" = {print_expr(f.init)}" if f.init is not None else ""
        lines.append(f"    {ann}{f.name}{init};")
    for i, m in enumerate(cls.methods):
        for comment in method_comments.get(i, []):
            lines.append(f"    // {comment}")
        gen = _generics_clause(m.generics)
        gen = gen + " " if gen else ""
        ret = f"{m.ret} " if m.ret is not None else ""
        params = ", ".join(
            (f"{p.annotation} {p.name}" if p.annotation is not None else p.name)
            for p in m.params
        )
        lines.append(f"    {gen}{ret}{m.name}({params}) {{")
        for s in m.body:
            lines.extend(_print_stmt(s, 2))
        lines.append("    }")
    lines.append("}")
    return lines


def _print_stmt(stmt, depth):
    pad = "    " * depth
    if isinstance(stmt, LocalDecl):
        ann = str(stmt.annotation) if stmt.annotation is not None else "var"
        init = f" = {print_expr(stmt.init)}" if stmt.init is not None else ""
        return [f"{pad}{ann} {stmt.name}{init};"]
    if isinstance(stmt, Assign):
        return [f"{pad}{print_expr(stmt.target)} = {print_expr(stmt.value)};"]
    if isinstance(stmt, Increment):
        return [f"{pad}{print_expr(stmt.target)}++;"]
    if isinstance(stmt, While):
        lines = [f"{pad}while ({print_expr(stmt.cond)}) {{"]
        for s in stmt.body:
            lines.extend(_print_stmt(s, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, Return):
        if stmt.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {print_expr(stmt.value)};"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{print_expr(stmt.expr)};"]
    raise TypeError(f"unknown statement {stmt!r}")


_PREC = {"||": 1, "<=": 2, "+": 3, "*": 4}


def print_expr(e, prec=0):
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, StrLit):
        return '"' + e.value + '"'
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, FieldAccess):
        return f"{print_expr(e.recv, 10)}.{e.name}"
    if isinstance(e, Call):
        args = ", ".join(print_expr(a) for a in e.args)
        if e.recv is None:
            return f"{e.name}({args})"
        return f"{print_expr(e.recv, 10)}.{e.name}({args})"
    if isinstance(e, New):
        args = ", ".join(print_expr(a) for a in e.args)
        return f"new {e.cls}({args})"
    if isinstance(e, Lambda):
        if len(e.params) == 1 and e.params[0].annotation is None:
            head = e.params[0].name
        else:
            head = "(" + ", ".join(
                (f"{p.annotation} {p.name}" if p.annotation is not None else p.name)
                for p in e.params
            ) + ")"
        if isinstance(e.body, list):
            inner = " ".join(
                line.strip() for s in e.body for line in _print_stmt(s, 0)
            )
            return f"{head} -> {{ {inner} }}"
        return f"{head} -> {print_expr(e.body)}"
    if isinstance(e, Binary):
        p = _PREC[e.op]
        s = f"{print_expr(e.left, p)} {e.op} {print_expr(e.right, p + 1)}"
        if p < prec:
            return f"({s})"
        return s
    raise TypeError(f"unknown expression {e!r}")


# --- alpha equivalence -----------------------------------------------------


def alpha_equivalent(a, b):
    """True iff a bijective renaming of type-variable names makes the two
    fully annotated programs identical.

    Type variables are the names declared in class/method generics clauses.
    Generics clauses themselves are compared as sets (their declaration
    order carries no meaning); everything else is compared in lockstep.
    """
    tvars_a = _declared_tvars(a)
    tvars_b = _declared_tvars(b)
    if len(tvars_a) != len(tvars_b):
        return False
    return _match_program(a, b, tvars_a, tvars_b, {}, {})


def _declared_tvars(program):
    names = set()
    for cls in program.classes:
        for g in cls.generics:
            names.add(g.name)
        for m in cls.methods:
            for g in m.generics:
                names.add(g.name)
    return names


def _match_program(a, b, ta, tb, fwd, bwd):
    if a.imports != b.imports or len(a.classes) != len(b.classes):
        return False
    return _match_seq(a.classes, b.classes, _match_class, ta, tb, fwd, bwd)


def _match_seq(xs, ys, f, ta, tb, fwd, bwd, k=None):
    """Match two sequences elementwise, threading the renaming through a
    backtracking continuation chain."""
    if len(xs) != len(ys):
        return False
    if k is None:
        k = lambda fw, bw: True

    def go(i, fwd, bwd):
        if i == len(xs):
            return k(fwd, bwd)
        return f(xs[i], ys[i], ta, tb, fwd, bwd,
                 lambda fw, bw: go(i + 1, fw, bw))

    return go(0, fwd, bwd)


def _bind(na, nb, ta, tb, fwd, bwd):
    """Try to extend the bijection with na<->nb; None on conflict."""
    in_a, in_b = na in ta, nb in tb
    if in_a != in_b:
        return None
    if not in_a:
        return (fwd, bwd) if na == nb else None
    if na in fwd:
        return (fwd, bwd) if fwd[na] == nb else None
    if nb in bwd:
        return None
    f2, b2 = dict(fwd), dict(bwd)
    f2[na] = nb
    b2[nb] = na
    return (f2, b2)


def _match_type(x, y, ta, tb, fwd, bwd, k):
    if (x is None) != (y is None):
        return False
    if x is None:
        return k(fwd, bwd)
    if (x.args is None) != (y.args is None):
        return False
    r = _bind(x.name, y.name, ta, tb, fwd, bwd)
    if r is None:
        return False
    fwd, bwd = r
    if x.args is None:
        return k(fwd, bwd)
    return _match_seq(x.args, y.args, _match_type, ta, tb, fwd, bwd,
                      lambda fw, bw: k(fw, bw))


def _match_generics(ga, gb, ta, tb, fwd, bwd, k):
    """Order-insensitive matching of two generics clauses."""
    if len(ga) != len(gb):
        return False
    if not ga:
        return k(fwd, bwd)
    head, rest = ga[0], ga[1:]
    for j, cand in enumerate(gb):
        r = _bind(head.name, cand.name, ta, tb, fwd, bwd)
        if r is None:
            continue
        f2, b2 = r
        ok = _match_type(
            head.bound, cand.bound, ta, tb, f2, b2,
            lambda fw, bw: _match_generics(rest, gb[:j] + gb[j + 1:],
                                           ta, tb, fw, bw, k))
        if ok:
            return True
    return False


def _match_class(ca, cb, ta, tb, fwd, bwd, k):
    if ca.name != cb.name:
        return False
    return _match_generics(
        ca.generics, cb.generics, ta, tb, fwd, bwd,
        lambda fw, bw: _match_seq(
            ca.fields, cb.fields, _match_field, ta, tb, fw, bw,
            lambda fw2, bw2: _match_seq(ca.methods, cb.methods, _match_method,
                                        ta, tb, fw2, bw2, k)))


def _match_field(fa, fb, ta, tb, fwd, bwd, k):
    if fa.name != fb.name:
        return False
    return _match_type(
        fa.annotation, fb.annotation, ta, tb, fwd, bwd,
        lambda fw, bw: _match_expr(fa.init, fb.init, ta, tb, fw, bw, k))


def _match_method(ma, mb, ta, tb, fwd, bwd, k):
    if ma.name != mb.name or len(ma.params) != len(mb.params):
        return False

    def after_generics(fw, bw):
        def after_ret(fw2, bw2):
            return _match_seq(
                ma.params, mb.params, _match_param, ta, tb, fw2, bw2,
                lambda fw3, bw3: _match_seq(ma.body, mb.body, _match_stmt,
                                            ta, tb, fw3, bw3, k))

        return _match_type(ma.ret, mb.ret, ta, tb, fw, bw, after_ret)

    return _match_generics(ma.generics, mb.generics, ta, tb, fwd, bwd,
                           after_generics)


def _match_param(pa, pb, ta, tb, fwd, bwd, k):
    if pa.name != pb.name:
        return False
    return _match_type(pa.annotation, pb.annotation, ta, tb, fwd, bwd, k)


def _match_stmt(sa, sb, ta, tb, fwd, bwd, k):
    if type(sa) is not type(sb):
        return False
    if isinstance(sa, LocalDecl):
        if sa.name != sb.name:
            return False
        return _match_type(
            sa.annotation, sb.annotation, ta, tb, fwd, bwd,
            lambda fw, bw: _match_expr(sa.init, sb.init, ta, tb, fw, bw, k))
    if isinstance(sa, Assign):
        return _match_expr(
            sa.target, sb.target, ta, tb, fwd, bwd,
            lambda fw, bw: _match_expr(sa.value, sb.value, ta, tb, fw, bw, k))
    if isinstance(sa, Increment):
        return _match_expr(sa.target, sb.target, ta, tb, fwd, bwd, k)
    if isinstance(sa, While):
        return _match_expr(
            sa.cond, sb.cond, ta, tb, fwd, bwd,
            lambda fw, bw: _match_seq(sa.body, sb.body, _match_stmt,
                                      ta, tb, fw, bw, k))
    if isinstance(sa, Return):
        return _match_expr(sa.value, sb.value, ta, tb, fwd, bwd, k)
    if isinstance(sa, ExprStmt):
        return _match_expr(sa.expr, sb.expr, ta, tb, fwd, bwd, k)
    return False


def _match_expr(ea, eb, ta, tb, fwd, bwd, k):
    if (ea is None) != (eb is None):
        return False
    if ea is None:
        return k(fwd, bwd)
    if type(ea) is not type(eb):
        return False
    if isinstance(ea, (IntLit, BoolLit, StrLit)):
        return ea.value == eb.value and k(fwd, bwd)
    if isinstance(ea, Name):
        return ea.ident == eb.ident and k(fwd, bwd)
    if isinstance(ea, FieldAccess):
        if ea.name != eb.name:
            return False
        return _match_expr(ea.recv, eb.recv, ta, tb, fwd, bwd, k)
    if isinstance(ea, Call):
        if ea.name != eb.name:
            return False
        return _match_expr(
            ea.recv, eb.recv, ta, tb, fwd, bwd,
            lambda fw, bw: _match_seq(ea.args, eb.args, _match_expr,
                                      ta, tb, fw, bw, k))
    if isinstance(ea, New):
        return _match_type(
            ea.cls, eb.cls, ta, tb, fwd, bwd,
            lambda fw, bw: _match_seq(ea.args, eb.args, _match_expr,
                                      ta, tb, fw, bw, k))
    if isinstance(ea, Lambda):
        if len(ea.params) != len(eb.params):
            return False

        def after_params(fw, bw):
            if isinstance(ea.body, list) != isinstance(eb.body, list):
                return False
            if isinstance(ea.body, list):
                return _match_seq(ea.body, eb.body, _match_stmt,
                                  ta, tb, fw, bw, k)
            return _match_expr(ea.body, eb.body, ta, tb, fw, bw, k)

        return _match_seq(ea.params, eb.params, _match_param, ta, tb,
                          fwd, bwd, after_params)
    if isinstance(ea, Binary):
        if ea.op != eb.op:
            return False
        return _match_expr(
            ea.left, eb.left, ta, tb, fwd, bwd,
            lambda fw, bw: _match_expr(ea.right, eb.right, ta, tb, fw, bw, k))
    return False
