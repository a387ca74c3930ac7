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

    def at(self, kind, text=None, offset=0):
        t = self.toks[self.i + offset]
        return t.kind == kind and (text is None or t.text == text)

    def at_punct(self, text, offset=0):
        t = self.toks[self.i + offset]
        return t.text == text and t.kind == "punct"

    def advance(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind, text=None):
        t = self.toks[self.i]
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise JtxSyntaxError(f"expected {want!r}, found {t.text!r}",
                                 t.line, t.col)
        return self.advance()

    def pos(self):
        t = self.toks[self.i]
        return S.Pos(t.line, t.col)

    # -- grammar ------------------------------------------------------------

    def program(self):
        imports = []
        while self.at("keyword", "import"):
            self.advance()
            imports.append(self.qualname())
            self.expect("punct", ";")
        classes = []
        while self.at("keyword", "class"):
            classes.append(self.class_decl())
        self.expect("eof")
        return S.Program(imports=imports, classes=classes)

    def qualname(self):
        parts = [self.expect("ident").text]
        while self.at_punct("."):
            self.advance()
            parts.append(self.expect("ident").text)
        return ".".join(parts)

    def class_decl(self):
        pos = self.pos()
        self.expect("keyword", "class")
        name = self.expect("ident").text
        generics = self.generics_clause() if self.at_punct("<") else []
        self.expect("punct", "{")
        fields, methods = [], []
        seen_fields = set()
        while not self.at_punct("}"):
            member = self.member()
            if isinstance(member, S.FieldDecl):
                if member.name in seen_fields:
                    raise JtxSyntaxError(f"duplicate field '{member.name}'",
                                         member.pos.line, member.pos.col)
                seen_fields.add(member.name)
                fields.append(member)
            else:
                methods.append(member)
        self.expect("punct", "}")
        return S.ClassDecl(name=name, generics=generics, fields=fields,
                           methods=methods, pos=pos)

    def generics_clause(self):
        self.expect("punct", "<")
        params = []
        while True:
            npos = self.pos()
            name = self.expect("ident").text
            if any(p.name == name for p in params):
                raise JtxSyntaxError(f"duplicate type parameter '{name}'",
                                     npos.line, npos.col)
            bound = None
            if self.at("keyword", "extends"):
                self.advance()
                bound = self.type_ref()
                if bound.name == "Object" and not bound.args:
                    bound = None
            params.append(S.GenericParam(name=name, bound=bound))
            if self.at_punct(","):
                self.advance()
                continue
            break
        self.expect("punct", ">")
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
            self.advance()
            name = self.expect("ident").text
            return self.method_rest(name, S.SrcType("void"), generics, pos)
        # a bare name before '(' is a method, before '=' or ';' a field;
        # either leaves its type to infer
        ann = None
        if not (self.at("ident") and any(self.at_punct(p, 1) for p in "(=;")):
            ann = self.type_ref()
        name = self.expect("ident").text
        if self.at_punct("("):
            return self.method_rest(name, ann, generics, pos)
        init = self.initializer()
        if generics:
            raise JtxSyntaxError("generics clause on a field", pos.line, pos.col)
        return S.FieldDecl(name=name, annotation=ann, init=init, pos=pos)

    def initializer(self):
        """`('=' expr)? ';'` after the name of a field or local."""
        init = None
        if self.at_punct("="):
            self.advance()
            init = self.expr()
        self.expect("punct", ";")
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
        return S.Param(name=self.expect("ident").text, annotation=ann)

    def paren_list(self, item):
        """`(` items separated by `,` `)`: a missing or trailing comma is a
        syntax error at the token where the next comma or item should be."""
        self.expect("punct", "(")
        items = []
        if not self.at_punct(")"):
            items.append(item())
            while self.at_punct(","):
                self.advance()
                items.append(item())
        self.expect("punct", ")")
        return items

    def type_ref(self):
        pos = self.pos()
        if self.at("keyword", "void"):
            self.advance()
            return S.SrcType("void", [], pos)
        name = self.qualname()
        args = []
        if self.at_punct("<"):
            self.advance()
            if self.at_punct(">"):  # diamond
                self.advance()
                return S.SrcType(name, None, pos)
            args.append(self.type_ref())
            while self.at_punct(","):
                self.advance()
                args.append(self.type_ref())
            self.expect("punct", ">")
        return S.SrcType(name, args, pos)

    def block(self):
        self.expect("punct", "{")
        stmts = []
        while not self.at_punct("}"):
            stmts.append(self.statement())
        self.expect("punct", "}")
        return stmts

    def statement(self):
        t = self.toks[self.i]
        pos = S.Pos(t.line, t.col)
        keyword = t.text if t.kind == "keyword" else None
        if keyword == "while":
            self.advance()
            self.expect("punct", "(")
            cond = self.expr()
            self.expect("punct", ")")
            body = self.block()
            return S.While(cond=cond, body=body, pos=pos)
        if keyword == "return":
            self.advance()
            value = None
            if not self.at_punct(";"):
                value = self.expr()
            self.expect("punct", ";")
            return S.Return(value=value, pos=pos)
        # `var` or an annotated local: type ident ('=' expr)? ';'; the
        # subset has no `<` operator, so a dotted name followed by an
        # ident or `<` here starts a type
        ann = None
        j = 1
        while self.at_punct(".", j) and self.at("ident", offset=j + 1):
            j += 2
        if keyword == "var":
            self.advance()
        elif t.kind == "ident" and (self.at("ident", offset=j)
                                    or self.at_punct("<", j)):
            ann = self.type_ref()
        else:
            return self.expr_statement(pos)
        name = self.expect("ident").text
        init = self.initializer()  # its block lambdas' locals come first
        return S.LocalDecl(name=name, annotation=ann, init=init, pos=pos,
                           uid=next(self.uids))

    def expr_statement(self, pos):
        expr = self.expr()
        if self.at_punct("="):
            self.advance()
            value = self.expr()
            self.expect("punct", ";")
            if not isinstance(expr, (S.Name, S.FieldAccess)):
                raise JtxSyntaxError("invalid assignment target",
                                     pos.line, pos.col)
            return S.Assign(target=expr, value=value, pos=pos)
        if self.at_punct("++"):
            self.advance()
            self.expect("punct", ";")
            if not isinstance(expr, (S.Name, S.FieldAccess)):
                raise JtxSyntaxError("invalid increment target",
                                     pos.line, pos.col)
            return S.Increment(target=expr, pos=pos)
        self.expect("punct", ";")
        return S.ExprStmt(expr=expr, pos=pos)

    # -- expressions --------------------------------------------------------

    def expr(self, min_prec=1):
        """Precedence climbing over `syntax.BINARY_PREC`: every operator
        binds left to right."""
        left = self.postfix_expr()
        while True:
            t = self.toks[self.i]
            prec = t.kind == "punct" and S.BINARY_PREC.get(t.text)
            if not prec or prec < min_prec:
                return left
            self.advance()
            right = self.expr(prec + 1)
            left = S.Binary(op=t.text, left=left, right=right,
                            pos=S.Pos(t.line, t.col))

    def postfix_expr(self):
        e = self.primary()
        while self.at_punct("."):
            pos = self.pos()
            self.advance()
            name = self.expect("ident").text
            if self.at_punct("("):
                args = self.paren_list(self.expr)
                e = S.Call(recv=e, name=name, args=args, pos=pos)
            else:
                e = S.FieldAccess(recv=e, name=name, pos=pos)
        return e

    def primary(self):
        t = self.toks[self.i]
        kind, pos = t.kind, S.Pos(t.line, t.col)
        if kind == "ident":
            if self.at_punct("->", 1):
                return self.lambda_expr(pos)
            self.advance()
            if self.at_punct("("):
                args = self.paren_list(self.expr)
                return S.Call(recv=None, name=t.text, args=args, pos=pos)
            return S.Name(ident=t.text, pos=pos)
        if kind == "int":
            # Java reads a leading 0 as octal
            if t.text[0] == "0" and len(t.text) > 1:
                raise UnsupportedFeature(
                    "integer literals with a leading 0 are not supported",
                    t.line, t.col)
            # the length test keeps `int` off a string of any size
            if len(t.text) > 10 or int(t.text) > MAX_INT:
                raise JtxSyntaxError("integer number too large",
                                     t.line, t.col)
            self.advance()
            return S.IntLit(value=int(t.text), pos=pos)
        if kind == "string":
            self.advance()
            return S.StrLit(value=t.text, pos=pos)
        if kind == "keyword" and t.text in ("true", "false"):
            self.advance()
            return S.BoolLit(value=(t.text == "true"), pos=pos)
        if kind == "keyword" and t.text == "new":
            self.advance()
            cls = self.type_ref()
            args = self.paren_list(self.expr)
            return S.New(cls=cls, args=args, pos=pos)
        if kind == "punct" and t.text == "(":
            if self._lambda_ahead():
                return self.lambda_expr(pos)
            self.advance()
            e = self.expr()
            self.expect("punct", ")")
            return e
        raise JtxSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)

    def _lambda_ahead(self):
        """At '(': scan to the matching ')' and test for '->'."""
        depth = 0
        j = self.i
        while True:
            tok = self.toks[j]
            if tok.kind == "punct" and tok.text == "(":
                depth += 1
            elif tok.kind == "punct" and tok.text == ")":
                depth -= 1
                if depth == 0:
                    nxt = self.toks[j + 1]
                    return nxt.kind == "punct" and nxt.text == "->"
            elif tok.kind == "eof":
                return False
            j += 1

    def lambda_expr(self, pos):
        params = self.params() if self.at_punct("(") else [self.param()]
        self.expect("punct", "->")
        if self.at_punct("{"):
            body = self.block()
        else:
            body = self.expr()
        return S.Lambda(params=params, body=body, pos=pos)
