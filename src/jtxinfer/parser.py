"""Recursive-descent parser producing `syntax.Program` trees.

Omitted type slots (method return, parameters, `var` locals, bare fields,
lambda parameters) are represented by ``annotation=None`` and marked for
inference later.

The parser reads its tokens by index.  Its own copy of the token list ends
in `LOOKAHEAD` more eof tokens than `tokenize` returns, so a lookahead at
the end of input reads eof without a bounds check.
"""

from __future__ import annotations

import itertools

from .errors import JtxSyntaxError, UnsupportedFeature
from .lexer import tokenize
from . import syntax as S


# the furthest any rule looks past the current token, or past a token it
# has seen is no eof
LOOKAHEAD = 1

# the largest int literal Java takes without a unary minus, which this
# language does not have
MAX_INT = 2**31 - 1


def parse(source):
    return _Parser(tokenize(source)).program()


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens + tokens[-1:] * LOOKAHEAD
        self.i = 0
        self.uids = itertools.count(1)  # local declarations, in order

    # -- token helpers ------------------------------------------------------
    # A token is `(kind, text, line, col)`.  The rules read `toks[i]` and
    # step `self.i` past a token they have tested, never past eof.  A test
    # for a punctuator or keyword compares the text first, which rules the
    # token out more often than its kind.

    def at(self, kind, text=None, offset=0):
        t = self.toks[self.i + offset]
        return t[0] == kind and (text is None or t[1] == text)

    def at_punct(self, text, offset=0):
        t = self.toks[self.i + offset]
        return t[1] == text and t[0] == "punct"

    def expect(self, text, kind="punct"):
        """Step past the token, which must be of `kind` and read `text`
        unless that is None, and return its text."""
        t = self.toks[self.i]
        if t[0] != kind or (text is not None and t[1] != text):
            raise JtxSyntaxError(f"expected {text or kind!r}, found "
                                 f"{t[1]!r}", t[2], t[3])
        self.i += 1
        return t[1]

    def ident(self):
        return self.expect(None, "ident")

    def pos(self):
        t = self.toks[self.i]
        return S.Pos(t[2], t[3])

    # -- grammar ------------------------------------------------------------

    def program(self):
        imports = []
        while self.at("keyword", "import"):
            self.i += 1
            imports.append(self.qualname())
            self.expect(";")
        classes = []
        while self.at("keyword", "class"):
            classes.append(self.class_decl())
        self.expect(None, "eof")
        return S.Program(imports=imports, classes=classes)

    def qualname(self):
        parts = [self.ident()]
        while self.at_punct("."):
            self.i += 1
            parts.append(self.ident())
        return ".".join(parts)

    def class_decl(self):
        pos = self.pos()
        self.i += 1  # `class`
        name = self.ident()
        generics = self.generics_clause() if self.at_punct("<") else []
        self.expect("{")
        fields, methods = [], []
        while not self.at_punct("}"):
            member = self.member()
            if isinstance(member, S.FieldDecl):
                if any(f.name == member.name for f in fields):
                    raise JtxSyntaxError(f"duplicate field '{member.name}'",
                                         member.pos.line, member.pos.col)
                fields.append(member)
            else:
                methods.append(member)
        self.i += 1
        return S.ClassDecl(name=name, generics=generics, fields=fields,
                           methods=methods, pos=pos)

    def generics_clause(self):
        self.i += 1  # `<`
        params = []
        while True:
            npos = self.pos()
            name = self.ident()
            if any(p.name == name for p in params):
                raise JtxSyntaxError(f"duplicate type parameter '{name}'",
                                     npos.line, npos.col)
            bound = None
            if self.at("keyword", "extends"):
                self.i += 1
                bound = self.type_ref()
                if bound.name == "Object" and not bound.args:
                    bound = None
            params.append(S.GenericParam(name=name, bound=bound))
            if not self.at_punct(","):
                break
            self.i += 1
        self.expect(">")
        # no chain of bare-variable bounds may lead back to where it starts
        up = {p.name: p.bound for p in params if p.bound and not p.bound.args}
        for p in params:
            name = p.name
            for _ in params:
                name = up[name].name if name in up else None
                if name == p.name:
                    pos = up[name].pos
                    raise JtxSyntaxError(f"cyclic bound on type parameter "
                                         f"'{name}'", pos.line, pos.col)
        return params

    def member(self):
        pos = self.pos()
        generics = self.generics_clause() if self.at_punct("<") else []
        if self.at("keyword", "void"):
            self.i += 1
            name = self.ident()
            return self.method_rest(name, S.SrcType("void"), generics, pos)
        # a bare name before '(' is a method, before '=' or ';' a field;
        # either leaves its type to infer
        ann = None
        if not (self.at("ident") and any(self.at_punct(p, 1) for p in "(=;")):
            ann = self.type_ref()
        name = self.ident()
        if self.at_punct("("):
            return self.method_rest(name, ann, generics, pos)
        init = self.initializer()
        if generics:
            raise JtxSyntaxError("generics clause on a field", pos.line, pos.col)
        return S.FieldDecl(name=name, annotation=ann, init=init, pos=pos)

    def initializer(self):
        """`('=' expr)? ';'` after the name of a field or local."""
        init = None
        t = self.toks[self.i]
        if t[1] == "=" and t[0] == "punct":
            self.i += 1
            init = self.expr()
        self.expect(";")
        return init

    def method_rest(self, name, ret, generics, pos):
        params = self.params()
        body = self.block()
        return S.MethodDecl(name=name, generics=generics, ret=ret,
                            params=params, body=body, pos=pos)

    def params(self):
        """A parenthesized parameter list of a method or lambda; a repeated
        name is a syntax error at its second occurrence."""
        seen = set()

        def unique_param():
            ppos = self.pos()
            param = self.param()
            if param.name in seen:
                raise JtxSyntaxError(f"duplicate parameter '{param.name}'",
                                     ppos.line, ppos.col)
            seen.add(param.name)
            return param

        return self.paren_list(unique_param)

    def param(self):
        """`name`, or `Type name` when a type comes first."""
        ann = None
        if self.at("ident") and (self.at("ident", offset=1)
                                 or self.at_punct("<", 1)
                                 or self.at_punct(".", 1)):
            ann = self.type_ref()
        return S.Param(name=self.ident(), annotation=ann)

    def paren_list(self, item):
        """`(` items separated by `,` `)`: a missing or trailing comma is a
        syntax error at the token where the next comma or item should be."""
        self.expect("(")
        items = []
        if not self.at_punct(")"):
            items.append(item())
            while self.at_punct(","):
                self.i += 1
                items.append(item())
        self.expect(")")
        return items

    def type_ref(self):
        pos = self.pos()
        if self.at("keyword", "void"):
            self.i += 1
            return S.SrcType("void", [], pos)
        name = self.qualname()
        args = []
        if self.at_punct("<"):
            self.i += 1
            if self.at_punct(">"):  # diamond
                self.i += 1
                return S.SrcType(name, None, pos)
            args.append(self.type_ref())
            while self.at_punct(","):
                self.i += 1
                args.append(self.type_ref())
            self.expect(">")
        return S.SrcType(name, args, pos)

    def block(self):
        self.expect("{")
        toks, stmts, statement = self.toks, [], self.statement
        t = toks[self.i]
        while t[1] != "}" or t[0] != "punct":
            stmts.append(statement())
            t = toks[self.i]
        self.i += 1
        return stmts

    def statement(self):
        toks, i = self.toks, self.i
        t = toks[i]
        kind, text = t[0], t[1]
        pos = S.Pos(t[2], t[3])
        if kind == "keyword":
            if text == "while":
                self.i = i + 1
                self.expect("(")
                cond = self.expr()
                self.expect(")")
                return S.While(pos, cond, self.block())
            if text == "return":
                self.i = i + 1
                value = None if self.at_punct(";") else self.expr()
                self.expect(";")
                return S.Return(pos, value)
        # `var` or an annotated local: type ident ('=' expr)? ';'; the
        # subset has no `<` operator, so a dotted name followed by an
        # ident or `<` here starts a type
        ann = None
        if kind == "keyword" and text == "var":
            self.i = i + 1
        elif kind == "ident":
            j = i + 1
            while toks[j][1] == "." and toks[j][0] == "punct" \
                    and toks[j + 1][0] == "ident":
                j += 2
            t = toks[j]
            if t[0] != "ident" and (t[1] != "<" or t[0] != "punct"):
                return self.expr_statement(pos)
            ann = self.type_ref()
        else:
            return self.expr_statement(pos)
        name = self.ident()
        init = self.initializer()  # its block lambdas' locals come first
        return S.LocalDecl(pos, name, ann, init, next(self.uids))

    def expr_statement(self, pos):
        expr = self.expr(1, pos)
        t = self.toks[self.i]
        if t[0] == "punct" and t[1] in ("=", "++"):
            self.i += 1
            value = self.expr() if t[1] == "=" else None
            self.expect(";")
            if not isinstance(expr, (S.Name, S.FieldAccess)):
                what = "increment" if value is None else "assignment"
                raise JtxSyntaxError(f"invalid {what} target",
                                     pos.line, pos.col)
            return (S.Increment(pos, expr) if value is None
                    else S.Assign(pos, expr, value))
        self.expect(";")
        return S.ExprStmt(pos, expr)

    # -- expressions --------------------------------------------------------

    def expr(self, min_prec=1, pos=None):
        """Precedence climbing over `syntax.BINARY_PREC`: every operator
        binds left to right.  An operand is a primary with its `.name` and
        `.name(args)` suffixes; `pos` is the position of its first token
        where the caller has made it."""
        toks = self.toks
        e = self.primary(pos)
        t = toks[self.i]
        while t[1] == "." and t[0] == "punct":
            pos = S.Pos(t[2], t[3])
            self.i += 1
            name = self.ident()
            t = toks[self.i]
            if t[1] == "(" and t[0] == "punct":
                e = S.Call(pos, e, name, self.paren_list(self.expr))
                t = toks[self.i]
            else:
                e = S.FieldAccess(pos, e, name)
        while True:
            prec = S.BINARY_PREC.get(t[1])
            if not prec or prec < min_prec or t[0] != "punct":
                return e
            self.i += 1
            e = S.Binary(S.Pos(t[2], t[3]), t[1], e, self.expr(prec + 1))
            t = toks[self.i]

    def primary(self, pos=None):
        toks, i = self.toks, self.i
        t = toks[i]
        kind, text = t[0], t[1]
        if pos is None:
            pos = S.Pos(t[2], t[3])
        if kind == "ident":
            t = toks[i + 1]
            if t[0] == "punct":
                if t[1] == "->":
                    return self.lambda_expr(pos)
                if t[1] == "(":
                    self.i = i + 1
                    return S.Call(pos, None, text, self.paren_list(self.expr))
            self.i = i + 1
            return S.Name(pos, text)
        if kind == "int":
            # Java reads a leading 0 as octal
            if text[0] == "0" and len(text) > 1:
                raise UnsupportedFeature(
                    "integer literals with a leading 0 are not supported",
                    pos.line, pos.col)
            # the length test keeps `int` off a string of any size
            if len(text) > 10 or (value := int(text)) > MAX_INT:
                raise JtxSyntaxError("integer number too large",
                                     pos.line, pos.col)
            self.i = i + 1
            return S.IntLit(pos, value)
        if kind == "string":
            self.i = i + 1
            return S.StrLit(pos, text)
        if kind == "keyword":
            if text == "true" or text == "false":
                self.i = i + 1
                return S.BoolLit(pos, text == "true")
            if text == "new":
                self.i = i + 1
                cls = self.type_ref()
                return S.New(pos, cls, self.paren_list(self.expr))
        elif kind == "punct" and text == "(":
            if self._lambda_ahead():
                return self.lambda_expr(pos)
            self.i = i + 1
            e = self.expr()
            self.expect(")")
            return e
        raise JtxSyntaxError(f"unexpected token {text!r}", pos.line, pos.col)

    def _lambda_ahead(self):
        """At '(': test for a ')' followed by '->' before any other '(',
        since a lambda's parameter list holds no parentheses.  A token is
        scanned at most once, from the nearest '(' before it."""
        toks = self.toks
        for j in range(self.i + 1, len(toks)):
            kind, text = toks[j][:2]
            if kind == "punct" and text in ("(", ")"):
                return text == ")" and toks[j + 1][:2] == ("punct", "->")
        return False

    def lambda_expr(self, pos):
        params = self.params() if self.at_punct("(") else [self.param()]
        self.expect("->")
        body = self.block() if self.at_punct("{") else self.expr()
        return S.Lambda(params=params, body=body, pos=pos)
