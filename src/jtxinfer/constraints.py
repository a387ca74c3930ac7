"""Constraint generation: traverse a class and collect subtype (`<`) and
equality (`=`) constraints over fresh type placeholders.

Overloaded operators, overloaded callees and receiver-driven member
resolution produce or-groups (sets of alternatives).  The unifier takes the
or-groups as they are and tries their alternatives as its outermost branch
points.  `flatten` expands them into plain candidate constraint sets; it
renders the `constraints` dump and serves as the reference the tests check
that search against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import syntax as S
from .classtable import resolve_src_type
from .errors import (ArityMismatch, UnknownIdentifier, UnknownMember,
                     Untypable)
from .typeterms import (VOID, ClassType, TPH, fun_type, instantiate, is_fun,
                        is_ground, tph_name, tph_number)


@dataclass(frozen=True)
class Constraint:
    kind: str  # 'lessdot' | 'doteq'
    lhs: object
    rhs: object

    def __str__(self):
        op = "<" if self.kind == "lessdot" else "="
        return f"{self.lhs} {op} {self.rhs}"


def lessdot(a, b):
    return Constraint("lessdot", a, b)


def doteq(a, b):
    return Constraint("doteq", a, b)


def flow(node, term, target):
    """Value flow into a declared/placeholder slot.  Lambdas are target
    typed (the slot *is* the function type); other values may widen."""
    if isinstance(node, S.Lambda):
        return doteq(target, term)
    return lessdot(term, target)


class FreshNames:
    """Placeholder factory; remembers which member scope created each name.

    Scopes are ``("class",)`` for field-level placeholders and
    ``("method", i)`` for the i-th method declaration.
    """

    def __init__(self):
        self._n = 0
        self.scope = {}

    def tph(self, scope):
        name = tph_name(self._n)
        self._n += 1
        self.scope[name] = scope
        return TPH(name)

    def adopt(self, name):
        """Take in a class-scoped placeholder; fresh names come after it."""
        self.scope.setdefault(name, ("class",))
        n = tph_number(name)
        if n is not None:
            self._n = max(self._n, n + 1)

    def scope_of(self, name):
        return self.scope.get(name)

    def mark(self):
        """How many names have been drawn; `reset` returns to it."""
        return self._n

    def reset(self, mark):
        """Forget the names drawn since `mark`, so they are drawn again."""
        for n in range(mark, self._n):
            self.scope.pop(tph_name(n), None)
        self._n = mark

    def clone(self):
        other = FreshNames()
        other._n = self._n
        other.scope = dict(self.scope)
        return other


@dataclass
class CallSite:
    """One resolved callee alternative at a call expression; used when
    completing method generics along the call graph."""

    caller: int                  # method index of the calling method
    arg_terms: list
    param_terms: list
    ret_term: object


@dataclass
class Alternative:
    constraints: list = field(default_factory=list)
    call_sites: list = field(default_factory=list)


@dataclass
class MethodGen:
    param_terms: list = field(default_factory=list)
    ret_term: object = None


@dataclass
class GenResult:
    """The constraints of one class and the terms of its declaration slots.

    `slots` maps each member scope, the class first and then the methods in
    order, to the slot terms its body creates: the fields, or the
    parameters and return, then the locals and lambda parameters (those in
    block-bodied lambdas too) in creation order."""

    base: list = field(default_factory=list)
    groups: list = field(default_factory=list)        # list[list[Alternative]]
    base_call_sites: list = field(default_factory=list)
    field_terms: dict = field(default_factory=dict)
    methods: list = field(default_factory=list)       # [MethodGen]
    local_terms: dict = field(default_factory=dict)   # LocalDecl uid -> term
    slots: dict = field(default_factory=dict)         # scope -> [term]
    fresh: FreshNames = None


class _Generator:
    def __init__(self, cls, table, fresh):
        self.cls = cls
        self.table = table
        self.fresh = fresh
        self.result = GenResult(fresh=fresh)
        self.scope = ("class",)
        # the type-variable names each member sees: the class's, and each
        # method's own besides; `names` is the current member's set
        self.class_names = {g.name for g in cls.generics}
        self.method_names = [self.class_names | {g.name for g in m.generics}
                             for m in cls.methods]
        self.names = self.class_names

    def emit(self, c):
        self.result.base.append(c)

    def slot(self, term):
        self.result.slots[self.scope].append(term)
        return term

    # -- driver ------------------------------------------------------------

    def run(self):
        res = self.result
        res.slots[self.scope] = []
        for f in self.cls.fields:
            res.field_terms[f.name] = self.slot(
                self.fresh.tph(self.scope) if f.annotation is None else
                resolve_src_type(f.annotation, self.table, self.class_names))
        for i, m in enumerate(self.cls.methods):
            self.scope = ("method", i)
            res.slots[self.scope] = []
            res.methods.append(self._method_signature(m, i))
        self.scope = ("class",)
        self.method_index = None
        for f in self.cls.fields:
            if f.init is not None:
                t = self.expr(f.init, dict(res.field_terms))
                self.emit(flow(f.init, t, res.field_terms[f.name]))
        for i, m in enumerate(self.cls.methods):
            self.scope = ("method", i)
            self.method_index = i
            self.names = self.method_names[i]
            gen = res.methods[i]
            env = dict(res.field_terms)
            for p, t in zip(m.params, gen.param_terms):
                env[p.name] = t
            for st in m.body:
                self.stmt(st, env, gen.ret_term)
        return res

    def _method_signature(self, m, index):
        names = self.method_names[index]
        gen = MethodGen()
        for p in m.params:
            gen.param_terms.append(self.slot(
                self.fresh.tph(self.scope) if p.annotation is None else
                resolve_src_type(p.annotation, self.table, names)))
        if m.ret is not None:
            gen.ret_term = resolve_src_type(m.ret, self.table, names)
        elif _returns_value(m.body):
            gen.ret_term = self.fresh.tph(self.scope)
        else:
            gen.ret_term = VOID
        self.slot(gen.ret_term)
        return gen

    # -- statements ----------------------------------------------------------

    def stmt(self, st, env, ret):
        if isinstance(st, S.LocalDecl):
            if st.name in env:
                raise UnknownIdentifier(
                    f"'{st.name}' is already defined", st.pos.line, st.pos.col)
            if st.annotation is not None:
                term = resolve_src_type(st.annotation, self.table, self.names)
            else:
                term = self.fresh.tph(self.scope)
            self.result.local_terms[st.uid] = self.slot(term)
            env[st.name] = term
            if st.init is not None:
                t = self.expr(st.init, env)
                self.emit(flow(st.init, t, term))
        elif isinstance(st, S.Assign):
            target = self.expr(st.target, env)
            value = self.expr(st.value, env)
            self.emit(flow(st.value, value, target))
        elif isinstance(st, S.Increment):
            plus = S.Binary(op="+", left=st.target,
                            right=S.IntLit(value=1), pos=st.pos)
            target = self.expr(st.target, env)
            value = self.expr(plus, env)
            self.emit(lessdot(value, target))
        elif isinstance(st, S.While):
            cond = self.expr(st.cond, env)
            self.emit(lessdot(cond, ClassType("Boolean")))
            inner = dict(env)
            for s in st.body:
                self.stmt(s, inner, ret)
        elif isinstance(st, S.Return):
            if st.value is None:
                if ret != VOID:
                    self.emit(doteq(ret, VOID))
                return
            t = self.expr(st.value, env)
            if ret == VOID:
                raise Untypable(
                    "value returned from a void method",
                    st.pos.line, st.pos.col)
            self.emit(flow(st.value, t, ret))
        elif isinstance(st, S.ExprStmt):
            self.expr(st.expr, env)
        else:
            raise TypeError(f"unknown statement {st!r}")

    # -- expressions -----------------------------------------------------

    def expr(self, e, env):
        if isinstance(e, S.IntLit):
            t = self.fresh.tph(self.scope)
            self.emit(doteq(t, ClassType("Integer")))
            return t
        if isinstance(e, S.BoolLit):
            t = self.fresh.tph(self.scope)
            self.emit(doteq(t, ClassType("Boolean")))
            return t
        if isinstance(e, S.StrLit):
            t = self.fresh.tph(self.scope)
            self.emit(doteq(t, ClassType("String")))
            return t
        if isinstance(e, S.Name):
            if e.ident in env:
                return env[e.ident]
            raise UnknownIdentifier(
                f"unknown identifier '{e.ident}'", e.pos.line, e.pos.col)
        if isinstance(e, S.Binary):
            return self._binary(e, env)
        if isinstance(e, S.Lambda):
            return self._lambda(e, env)
        if isinstance(e, S.New):
            return self._new(e, env)
        if isinstance(e, S.Call):
            return self._call(e, env)
        if isinstance(e, S.FieldAccess):
            return self._field_access(e, env)
        raise TypeError(f"unknown expression {e!r}")

    def _binary(self, e, env):
        left = self.expr(e.left, env)
        right = self.expr(e.right, env)
        result = self.fresh.tph(self.scope)
        if e.op in ("+", "*"):
            wanted = ["Integer", "Double"] + (["String"] if e.op == "+" else [])
            alts = []
            for name in wanted:
                if not self.table.has(name):
                    continue
                ty = ClassType(name)
                alts.append(Alternative(constraints=[
                    lessdot(left, ty), lessdot(right, ty), doteq(result, ty),
                ]))
            if not alts:
                raise Untypable(
                    f"no visible operand type for '{e.op}'",
                    e.pos.line, e.pos.col)
            self._add_group(alts)
        elif e.op == "<=":
            self.emit(lessdot(left, ClassType("Number")))
            self.emit(lessdot(right, ClassType("Number")))
            self.emit(doteq(result, ClassType("Boolean")))
        elif e.op == "||":
            self.emit(lessdot(left, ClassType("Boolean")))
            self.emit(lessdot(right, ClassType("Boolean")))
            self.emit(doteq(result, ClassType("Boolean")))
        else:
            raise TypeError(f"unknown operator {e.op!r}")
        return result

    def _lambda(self, e, env):
        arg_components = []
        inner = dict(env)
        for p in e.params:
            if p.annotation is not None:
                slot = resolve_src_type(p.annotation, self.table, self.names)
                component = slot
            else:
                component = self.fresh.tph(self.scope)
                slot = self.fresh.tph(self.scope)
                self.emit(lessdot(component, slot))
            inner[p.name] = self.slot(slot)
            arg_components.append(component)
        if isinstance(e.body, list):
            ret = (self.fresh.tph(self.scope)
                   if _returns_value(e.body) else VOID)
            for st in e.body:
                self.stmt(st, inner, ret)
        else:
            ret = self.fresh.tph(self.scope)
            body_t = self.expr(e.body, inner)
            self.emit(flow(e.body, body_t, ret))
        return fun_type(arg_components, ret)

    def _new(self, e, env):
        name = e.cls.name.rsplit(".", 1)[-1]
        if not self.table.has(name) or self.table.is_typevar(ClassType(name)):
            raise UnknownIdentifier(
                f"unknown class '{e.cls.name}'", e.pos.line, e.pos.col)
        entry = self.table.entry(name)
        if e.cls.args:
            args = tuple(resolve_src_type(a, self.table, self.names)
                         for a in e.cls.args)
            if len(args) != entry.arity:
                raise ArityMismatch(
                    f"{name} expects {entry.arity} type argument(s)",
                    e.pos.line, e.pos.col)
        else:
            args = tuple(self.fresh.tph(self.scope)
                         for _ in range(entry.arity))
        term = ClassType(name, args)
        ctor = [self.table._instantiate(p, entry, args)
                for p in entry.constructor]
        if len(ctor) != len(e.args):
            raise ArityMismatch(
                f"constructor of {name} expects {len(ctor)} argument(s), "
                f"got {len(e.args)}", e.pos.line, e.pos.col)
        for arg, p in zip(e.args, ctor):
            t = self.expr(arg, env)
            self.emit(flow(arg, t, p))
        return term

    def _field_access(self, e, env):
        recv = self.expr(e.recv, env)
        if (isinstance(recv, ClassType) and recv.name == self.cls.name
                and e.name in self.result.field_terms):
            return self.result.field_terms[e.name]
        if isinstance(recv, ClassType) and recv.name in self.table.entries:
            entry = self.table.entry(recv.name)
            if e.name in entry.fields and entry.fields[e.name] is not None:
                return self.table._instantiate(
                    entry.fields[e.name], entry, recv.args)
        raise UnknownMember(
            f"no field '{e.name}' on {_receiver(e, recv)}",
            e.pos.line, e.pos.col)

    # -- calls ------------------------------------------------------------

    def _call(self, e, env):
        arg_terms = [self.expr(a, env) for a in e.args]
        result = self.fresh.tph(self.scope)
        if e.recv is None:
            alts = self._own_method_alternatives(e, arg_terms, result)
            if not alts:
                raise UnknownIdentifier(
                    f"no method '{e.name}' with {len(e.args)} argument(s)",
                    e.pos.line, e.pos.col)
        else:
            recv = self.expr(e.recv, env)
            alts = self._member_alternatives(e, recv, arg_terms, result)
            if not alts:
                raise UnknownMember(
                    f"no member '{e.name}' taking {len(e.args)} argument(s) "
                    f"on {_receiver(e, recv)}", e.pos.line, e.pos.col)
        self._add_group(alts)
        return result

    def _add_group(self, alts):
        if len(alts) == 1:
            self.result.base.extend(alts[0].constraints)
            self.result.base_call_sites.extend(alts[0].call_sites)
        else:
            self.result.groups.append(alts)

    def _own_method_alternatives(self, e, arg_terms, result):
        alts = []
        for i, m in enumerate(self.cls.methods):
            if m.name != e.name or len(m.params) != len(arg_terms):
                continue
            gen = self.result.methods[i]
            typeparams = [(g.name, None if g.bound is None else
                           resolve_src_type(g.bound, self.table,
                                            self.method_names[i]))
                          for g in m.generics]
            alts.append(self._sig_alternative(
                e, arg_terms, result,
                *self._freshen(typeparams, gen.param_terms, gen.ret_term)))
        return alts

    def _freshen(self, typeparams, params, ret):
        """Instantiate a callee's own type parameters with fresh placeholders
        at the call site; returns (params, ret, bound constraints)."""
        mapping = {tp: self.fresh.tph(self.scope) for tp, _ in typeparams}
        bounds = [lessdot(mapping[tp], instantiate(bound, mapping))
                  for tp, bound in typeparams if bound is not None]
        return ([instantiate(p, mapping) for p in params],
                instantiate(ret, mapping), bounds)

    def _member_alternatives(self, e, recv, arg_terms, result):
        arity = len(arg_terms)
        # a declared variable has the members of the first type on its
        # supertype chain that is no variable
        if self.table.is_typevar(recv):
            recv = next((t for t in self.table.supertype_chain(recv)
                         if not self.table.is_typevar(t)), recv)
        if isinstance(recv, ClassType) and recv.name == self.cls.name:
            alts = self._own_method_alternatives(e, arg_terms, result)
            if alts:
                return alts
        # a function type's `apply` is its entry's, whatever its arguments
        if (isinstance(recv, ClassType) and (is_ground(recv) or is_fun(recv))
                and not self.table.is_typevar(recv)):
            return self._ground_receiver_alternatives(
                e, recv, arg_terms, result)
        # placeholder (or placeholder-parameterised) receiver: resolve
        # against every universe type declaring the member
        alts = []
        for cname in self.table.classes_with_method(e.name, arity):
            if cname == self.cls.name:
                continue
            entry = self.table.entry(cname)
            fresh_args = tuple(self.fresh.tph(self.scope)
                               for _ in range(entry.arity))
            rterm = ClassType(cname, fresh_args)
            for sig in self.table.instantiated_methods(rterm, e.name, arity):
                alts.append(self._sig_alternative(
                    e, arg_terms, result,
                    *self._freshen(sig.typeparams, sig.params, sig.ret),
                    extra=[doteq(recv, rterm)]))
        return alts

    def _ground_receiver_alternatives(self, e, recv, arg_terms, result):
        sigs = self.table.instantiated_methods(recv, e.name, len(arg_terms))
        return [self._sig_alternative(
                    e, arg_terms, result,
                    *self._freshen(sig.typeparams, sig.params, sig.ret))
                for sig in sigs]

    def _sig_alternative(self, e, arg_terms, result, params, ret,
                         bounds=(), extra=()):
        return Alternative(
            [*extra, *bounds,
             *(flow(node, t, p)
               for node, t, p in zip(e.args, arg_terms, params)),
             doteq(result, ret)],
            [CallSite(caller=self.method_index, arg_terms=list(arg_terms),
                      param_terms=list(params), ret_term=ret)])


def _receiver(e, recv):
    """How a diagnostic names a member's receiver: by its type once that is
    known, else by the receiver expression."""
    if is_ground(recv):
        return str(recv)
    return f"'{S.print_expr(e.recv)}'"


def _returns_value(stmts):
    for st in stmts:
        if isinstance(st, S.Return) and st.value is not None:
            return True
        if isinstance(st, S.While) and _returns_value(st.body):
            return True
    return False


def generate_constraints(cls, table, fresh=None):
    """Constraints (base + or-groups) and slot bookkeeping for one class."""
    if fresh is None:
        fresh = FreshNames()
    return _Generator(cls, table, fresh).run()


@dataclass
class Candidate:
    constraints: list
    call_sites: list
    choice: tuple  # selected alternative index per group


def flatten(result, table=None):
    """Expand or-groups into plain candidate constraint sets (cartesian
    product, deterministic order).  Candidates with a directly contradictory
    ground pair are pruned when a table is supplied; the unifier refutes
    each of them on its own."""
    out = []
    indices = [range(len(g)) for g in result.groups]
    for choice in itertools.product(*indices):
        constraints = list(result.base)
        for g, i in zip(result.groups, choice):
            constraints.extend(g[i].constraints)
        if table is not None and _contradictory(constraints, table):
            continue
        out.append(Candidate(constraints, call_sites(result, choice), choice))
    return out


def call_sites(result, choice):
    """The call sites of the base constraints and of the alternative
    `choice` takes in each or-group."""
    sites = list(result.base_call_sites)
    for g, i in zip(result.groups, choice):
        sites.extend(g[i].call_sites)
    return sites


def _contradictory(constraints, table):
    for c in constraints:
        if is_ground(c.lhs) and is_ground(c.rhs):
            if c.kind == "doteq" and c.lhs != c.rhs:
                return True
            if c.kind == "lessdot" and not table.is_subtype(c.lhs, c.rhs):
                return True
    return False
