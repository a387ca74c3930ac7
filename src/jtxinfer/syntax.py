"""Syntax trees for the mini language.

Every expression and statement carries a source position, and a local
declaration a ``uid``, unique within its program (the key of its type
slot); the parser counts them from 1 in each parse.  Declaration
sites whose type was omitted carry ``annotation=None`` and are filled in
during constraint generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional


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


@dataclass
class LocalDecl(Stmt):
    name: str = ""
    annotation: Optional[SrcType] = None  # None = `var` / to-infer
    init: Optional[Expr] = None
    uid: int = field(default=0, compare=False)


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
    imports: list[str] = field(default_factory=list)
    classes: list = field(default_factory=list)


# --- traversal -------------------------------------------------------------


def walk(node, visit):
    """Call `visit` on `node` and then, in field order, on every node
    below it: declarations, statements, expressions, parameters and
    written types."""
    visit(node)
    for name in _CHILDREN[type(node)]:
        child = getattr(node, name)
        if type(child) is list:
            for c in child:
                walk(c, visit)
        elif child is not None:
            walk(child, visit)


# the fields of each node class that can hold a node or a list of them:
# any whose annotation is none of these
_LEAVES = {"str", "int", "bool", "Pos", "list[str]"}
_CHILDREN = {cls: tuple(f.name for f in fields(cls) if f.type not in _LEAVES)
             for cls in list(globals().values()) if is_dataclass(cls)}


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


# Binding strength of each binary operator, shared by the parser and the
# printer; all of them associate to the left.
BINARY_PREC = {"||": 1, "<=": 2, "+": 3, "*": 4}


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
            s = f"{head} -> {{ {inner} }}"
        else:
            s = f"{head} -> {print_expr(e.body)}"
        # a lambda as a receiver or an operand takes the rest otherwise
        return f"({s})" if prec > 0 else s
    if isinstance(e, Binary):
        p = BINARY_PREC[e.op]
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
    order carries no meaning); everything else is compared in lockstep
    over the dataclass fields that take part in `==`.
    """
    ta, tb = _declared_tvars(a), _declared_tvars(b)
    if len(ta) != len(tb):
        return False

    def match(todo, fwd, bwd):
        """Match the node pairs on `todo`, the continuation: a linked list
        `(pair, rest)`.  The renaming is `fwd` with its inverse `bwd`.  A
        generics clause is the one branch point: each parameter of the
        right clause is tried against the first of the left one, on copies
        of the renaming, with the rest of `todo` as continuation."""
        while todo:
            (x, y), todo = todo
            if type(x) is not type(y):
                return False
            if isinstance(x, list):
                if len(x) != len(y):
                    return False
                if x and isinstance(x[0], GenericParam):
                    return any(
                        match(((x[0], c), ((x[1:], y[:j] + y[j + 1:]), todo)),
                              dict(fwd), dict(bwd))
                        for j, c in enumerate(y))
                for pair in reversed(list(zip(x, y))):
                    todo = (pair, todo)
            elif is_dataclass(x):
                binds = isinstance(x, (SrcType, GenericParam))
                if binds:
                    nx, ny = x.name, y.name
                    if (nx in ta) != (ny in tb):
                        return False
                    if nx not in ta:
                        if nx != ny:
                            return False
                    elif fwd.setdefault(nx, ny) != ny \
                            or bwd.setdefault(ny, nx) != nx:
                        return False
                for f in reversed(fields(x)):
                    if f.compare and not (binds and f.name == "name"):
                        todo = ((getattr(x, f.name), getattr(y, f.name)),
                                todo)
            elif x != y:
                return False
        return True

    return match(((a, b), None), {}, {})


def _declared_tvars(program):
    return {g.name for cls in program.classes
            for gs in [cls.generics] + [m.generics for m in cls.methods]
            for g in gs}
