"""Syntax trees for the mini language.

Every expression and statement carries a source position, and a local
declaration a ``uid``, unique within its program (the key of its type
slot); the parser counts them from 1 in each parse.  Declaration
sites whose type was omitted carry ``annotation=None`` and are filled in
during constraint generation.
"""

from __future__ import annotations

import copy


class Node:
    """Base of the syntax classes.  A class's fields are its `__slots__`
    after those of its bases, and `_children` names, in field order, those
    that can hold a node or a list of them.  The repr writes every field;
    `==` holds between nodes of one class whose fields other than `pos`
    and `uid` are equal, so nodes stay unhashable."""

    __slots__ = ()
    _children = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for c in reversed(cls.__mro__)
                            for f in c.__dict__.get("__slots__", ()))
        cls._compared = tuple(f for f in cls._fields
                              if f not in ("pos", "uid"))

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._compared]
                == [getattr(other, f) for f in self._compared])

    __hash__ = None

    def __deepcopy__(self, memo):
        """A copy of every field, made with `memo`; without it `copy` goes
        by way of `copyreg`'s reduce protocol, about five times slower."""
        new = memo[id(self)] = object.__new__(type(self))
        for f in self._fields:
            setattr(new, f, copy.deepcopy(getattr(self, f), memo))
        return new


class Pos(Node):
    __slots__ = ("line", "col")

    def __init__(self, line=0, col=0):
        self.line, self.col = line, col


# a list or `Pos` field's default: a new one for each node
_NEW = object()


class SrcType(Node):
    """Surface type annotation: a (possibly generic) name, or 'void'.

    ``args=None`` marks a diamond (`new C<>`), distinct from raw `C`.
    """

    __slots__ = ("name", "args", "pos")
    _children = ("args",)

    def __init__(self, name, args=_NEW, pos=_NEW):
        self.name = name
        self.args = [] if args is _NEW else args
        self.pos = Pos() if pos is _NEW else pos

    def __str__(self):
        if self.args is None:
            return f"{self.name}<>"
        if not self.args:
            return self.name
        return f"{self.name}<{', '.join(str(a) for a in self.args)}>"


class GenericParam(Node):
    __slots__ = ("name", "bound")
    _children = ("bound",)

    def __init__(self, name, bound=None):
        self.name, self.bound = name, bound


class Param(Node):
    __slots__ = ("name", "annotation")
    _children = ("annotation",)

    def __init__(self, name, annotation=None):
        self.name, self.annotation = name, annotation


# --- expressions -----------------------------------------------------------


class Expr(Node):
    __slots__ = ("pos",)


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, pos, value=0):
        self.pos, self.value = pos, value


class BoolLit(Expr):
    __slots__ = ("value",)

    def __init__(self, pos, value=False):
        self.pos, self.value = pos, value


class StrLit(Expr):
    __slots__ = ("value",)

    def __init__(self, pos, value=""):
        self.pos, self.value = pos, value


class Name(Expr):
    __slots__ = ("ident",)

    def __init__(self, pos, ident=""):
        self.pos, self.ident = pos, ident


class FieldAccess(Expr):
    __slots__ = ("recv", "name")
    _children = ("recv",)

    def __init__(self, pos, recv=None, name=""):
        self.pos, self.recv, self.name = pos, recv, name


class Call(Expr):
    __slots__ = ("recv", "name", "args")
    _children = ("recv", "args")

    def __init__(self, pos, recv=None, name="", args=_NEW):
        self.pos, self.recv, self.name = pos, recv, name
        self.args = [] if args is _NEW else args


class New(Expr):
    __slots__ = ("cls", "args")
    _children = ("cls", "args")

    def __init__(self, pos, cls=None, args=_NEW):
        self.pos, self.cls = pos, cls
        self.args = [] if args is _NEW else args


class Lambda(Expr):
    __slots__ = ("params", "body")   # [Param]; an Expr or [Stmt]
    _children = ("params", "body")

    def __init__(self, pos, params=_NEW, body=None):
        self.pos, self.body = pos, body
        self.params = [] if params is _NEW else params


class Binary(Expr):
    __slots__ = ("op", "left", "right")
    _children = ("left", "right")

    def __init__(self, pos, op="", left=None, right=None):
        self.pos, self.op, self.left, self.right = pos, op, left, right


# --- statements ------------------------------------------------------------


class Stmt(Node):
    __slots__ = ("pos",)


class LocalDecl(Stmt):
    # annotation None = `var` / to-infer
    __slots__ = ("name", "annotation", "init", "uid")
    _children = ("annotation", "init")

    def __init__(self, pos, name="", annotation=None, init=None, uid=0):
        self.pos, self.uid = pos, uid
        self.name, self.annotation, self.init = name, annotation, init


class Assign(Stmt):
    __slots__ = ("target", "value")
    _children = ("target", "value")

    def __init__(self, pos, target=None, value=None):
        self.pos, self.target, self.value = pos, target, value


class Increment(Stmt):
    __slots__ = ("target",)
    _children = ("target",)

    def __init__(self, pos, target=None):
        self.pos, self.target = pos, target


class While(Stmt):
    __slots__ = ("cond", "body")
    _children = ("cond", "body")

    def __init__(self, pos, cond=None, body=_NEW):
        self.pos, self.cond = pos, cond
        self.body = [] if body is _NEW else body


class Return(Stmt):
    __slots__ = ("value",)
    _children = ("value",)

    def __init__(self, pos, value=None):
        self.pos, self.value = pos, value


class ExprStmt(Stmt):
    __slots__ = ("expr",)
    _children = ("expr",)

    def __init__(self, pos, expr=None):
        self.pos, self.expr = pos, expr


# --- declarations ----------------------------------------------------------


class FieldDecl(Node):
    __slots__ = ("name", "annotation", "init", "pos")
    _children = ("annotation", "init")

    def __init__(self, name, annotation=None, init=None, pos=_NEW):
        self.name, self.annotation, self.init = name, annotation, init
        self.pos = Pos() if pos is _NEW else pos


class MethodDecl(Node):
    # generics: [GenericParam]; ret None = to-infer, SrcType('void') = void
    __slots__ = ("name", "generics", "ret", "params", "body", "pos")
    _children = ("generics", "ret", "params", "body")

    def __init__(self, name, generics=_NEW, ret=None, params=_NEW,
                 body=_NEW, pos=_NEW):
        self.name = name
        self.generics = [] if generics is _NEW else generics
        self.ret = ret
        self.params = [] if params is _NEW else params
        self.body = [] if body is _NEW else body
        self.pos = Pos() if pos is _NEW else pos


class ClassDecl(Node):
    __slots__ = ("name", "generics", "fields", "methods", "pos")
    _children = ("generics", "fields", "methods")

    def __init__(self, name, generics=_NEW, fields=_NEW, methods=_NEW,
                 pos=_NEW):
        self.name = name
        self.generics = [] if generics is _NEW else generics
        self.fields = [] if fields is _NEW else fields
        self.methods = [] if methods is _NEW else methods
        self.pos = Pos() if pos is _NEW else pos


class Program(Node):
    __slots__ = ("imports", "classes")   # imports: [str]
    _children = ("classes",)

    def __init__(self, imports=_NEW, classes=_NEW):
        self.imports = [] if imports is _NEW else imports
        self.classes = [] if classes is _NEW else classes


# --- traversal -------------------------------------------------------------


def walk(node, visit):
    """Call `visit` on `node` and then, in field order, on every node
    below it: declarations, statements, expressions, parameters and
    written types."""
    visit(node)
    for name in node._children:
        child = getattr(node, name)
        if type(child) is list:
            for c in child:
                walk(c, visit)
        elif child is not None:
            walk(child, visit)


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
    over the fields that take part in `==`.
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
            elif isinstance(x, Node):
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
                for f in reversed(x._compared):
                    if not (binds and f == "name"):
                        todo = ((getattr(x, f), getattr(y, f)), todo)
            elif x != y:
                return False
        return True

    return match(((a, b), None), {}, {})


def _declared_tvars(program):
    return {g.name for cls in program.classes
            for gs in [cls.generics] + [m.generics for m in cls.methods]
            for g in gs}
